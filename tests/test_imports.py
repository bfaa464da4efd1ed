"""What a process loads: scipy only once a Gaussian magnitude is drawn.

Each check starts a fresh interpreter under `-X importtime`, which lists on
stderr every module the process imports, so a module loaded anywhere on the
path (the package, the CLI, a command) shows up.
"""

import subprocess
import sys

import pytest

from selfnorm import DistributionSpec, estimate_tail

# A Gaussian estimate's n, beta, x, trials and seed: 18 blocks of trials,
# so that two workers each reach the transform's lazy import.
N, BETA, X, TRIALS, SEED = 4, 2.0, 1.2, 70_000, 5


def run_python(*args: str) -> tuple[subprocess.CompletedProcess, set]:
    """Run `python -X importtime ARGS`: (the process, the scipy modules it imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=120
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, {name for name in modules if name.split(".")[0] == "scipy"}


def test_importing_the_package_and_cli_loads_no_scipy():
    proc, scipy_modules = run_python("-c", "import selfnorm, selfnorm.cli")
    assert proc.returncode == 0, proc.stderr
    assert scipy_modules == set()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--n", "16", "--beta", "1.5", "--s", "0.3", "--kind", "bernstein"], 0),
        (["oracle", "--n", "10", "--x", "1", "--stat", "tstat"], 0),
        (["sweep", "--n", "8,16", "--s", "0.2,0.6", "--dist", "gaussian", "--trials", "0"], 0),
        (["bound", "--n", "-1", "--x", "1"], 2),
    ],
    ids=["bound", "oracle", "sweep-trials-0", "bad-input"],
)
def test_commands_without_gaussian_draws_load_no_scipy(argv, code):
    proc, scipy_modules = run_python("-m", "selfnorm", *argv)
    assert proc.returncode == code, proc.stderr
    assert scipy_modules == set()


@pytest.mark.parametrize("workers", [1, 2])
def test_gaussian_draw_loads_scipy_and_matches_in_process(workers):
    script = (
        "from selfnorm import DistributionSpec, estimate_tail\n"
        f"print(repr(estimate_tail(DistributionSpec.gaussian(), {N}, {BETA}, {X}, "
        f"trials={TRIALS}, seed={SEED}, workers={workers})))"
    )
    proc, scipy_modules = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "scipy.special" in scipy_modules
    in_process = estimate_tail(
        DistributionSpec.gaussian(), N, BETA, X, trials=TRIALS, seed=SEED, workers=workers
    )
    assert proc.stdout.strip() == repr(in_process)
    assert in_process.hits > 0
