"""End-to-end tests of the command-line surface and its exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from selfnorm import cli, parse_csv
from selfnorm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(line: str) -> dict:
    out = {}
    for token in line.strip().split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


class TestBoundCommand:
    def test_endpoint_example(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--beta", "2", "--x", "2", "--kind", "bn")
        assert code == 0
        rec = record(out)
        assert rec["value"] == "0.0625"
        assert rec["regime"] == "endpoint"

    def test_impossible_example(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--beta", "2", "--x", "5", "--kind", "bn")
        assert code == 0
        rec = record(out)
        assert rec["value"] == "0"
        assert rec["regime"] == "impossible"

    def test_tstat_example(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--x", "1", "--kind", "tstat")
        assert code == 0
        rec = record(out)
        assert float(rec["value"]) == pytest.approx(16.0 / 27.0, rel=1e-9)

    def test_entropy_form_agrees_with_product_form(self, capsys):
        _, out_bn, _ = run_cli(capsys, "bound", "--n", "9", "--beta", "1.5", "--s", "0.7")
        _, out_en, _ = run_cli(
            capsys, "bound", "--n", "9", "--beta", "1.5", "--s", "0.7", "--kind", "entropy"
        )
        assert float(record(out_bn)["value"]) == pytest.approx(
            float(record(out_en)["value"]), rel=1e-12
        )

    def test_s_flag_equals_x_flag(self, capsys):
        _, out_s, _ = run_cli(capsys, "bound", "--n", "4", "--beta", "2", "--s", "0.5")
        _, out_x, _ = run_cli(capsys, "bound", "--n", "4", "--beta", "2", "--x", "1")
        assert record(out_s)["value"] == record(out_x)["value"]

    def test_bernstein_kind_reports_minimizer(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--beta", "2", "--x", "1", "--kind", "bernstein"
        )
        assert code == 0
        rec = record(out)
        assert float(rec["lambda_star"]) == pytest.approx(math.log(3.0), rel=1e-6)
        assert float(rec["value"]) == pytest.approx(16.0 / 27.0, rel=1e-9)

    def test_corollary_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "20", "--beta", "2", "--x", "2", "--kind", "corollary"
        )
        assert code == 0
        rec = record(out)
        assert float(rec["value"]) == pytest.approx(math.exp(-2.0), rel=1e-10)
        assert rec["extrapolated"] == "false"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "--n 20 --s 0.5",
                "kind=bn n=20 beta=2 x=2.2360679775 s=0.5 regime=interior "
                "log_value=-2.61624071882 value=0.0730770643367",
            ),
            (
                "--n 5 --beta 3 --s 1.2 --kind bn",
                "kind=bn n=5 beta=3 x=3.50882128586 s=1.2 regime=impossible "
                "log_value=-inf value=0",
            ),
            (
                "--n 4 --s 1 --kind entropy",
                "kind=entropy n=4 beta=2 x=2 s=1 regime=endpoint "
                "log_value=-2.77258872224 value=0.0625",
            ),
            (
                "--n 4 --x 1 --kind tstat",
                "kind=tstat n=4 x=1 tau=1 regime=interior "
                "log_value=-0.523248143765 value=0.592592592593",
            ),
            (
                "--n 3 --x 1e200 --kind tstat",
                "kind=tstat n=3 x=1e+200 tau=1.73205080757 regime=endpoint "
                "log_value=-2.07944154168 value=0.125",
            ),
            (
                "--n 20 --s 0.5 --kind bernstein",
                "kind=bernstein n=20 beta=2 x=2.2360679775 s=0.5 regime=interior "
                "lambda_star=2.45657178166 iterations=50 log_value=-2.61624071882 "
                "value=0.0730770643367",
            ),
            (
                "--n 10000 --beta 1.2 --s 0.9 --kind bernstein",
                "kind=bernstein n=10000 beta=1.2 x=4.17742995025 s=0.9 regime=interior "
                "lambda_star=3171.80076716 iterations=49 log_value=-4946.31937214 value=0",
            ),
            (
                "--n 20 --s 0.5 --kind corollary",
                "kind=corollary n=20 beta=2 x=2.2360679775 s=0.5 regime=interior "
                "log_value=-2.5 value=0.0820849986239 extrapolated=false",
            ),
            (
                "--n 5 --beta 3 --s 1.2 --kind corollary",
                "kind=corollary n=5 beta=3 x=3.50882128586 s=1.2 regime=impossible "
                "log_value=-3.6 value=0.0273237224473 extrapolated=true",
            ),
            (
                "--n 100000 --beta 1.5 --s 0.99 --kind corollary",
                "kind=corollary n=100000 beta=1.5 x=45.9517294528 s=0.99 regime=interior "
                "log_value=-49005 value=0 extrapolated=false",
            ),
            (
                "--n 100000 --beta 1.5 --s 0.99 --kind two-sided",
                "kind=two-sided n=100000 beta=1.5 x=45.9517294528 s=0.99 regime=interior "
                "log_value=-66166.1183141 value=0",
            ),
            (
                "--n 4 --x 0.1 --kind two-sided",
                "kind=two-sided n=4 beta=2 x=0.1 s=0.05 regime=interior log_value=0 value=1",
            ),
            (
                "--n 10 --beta 3 --x 0.5 --kind rescaled --alpha 0.4",
                "kind=rescaled n=10 beta=3 x=0.5 alpha=0.4 alpha_low=0.166666666667 "
                "alpha_high=0.666666666667 in_window=true value=0.693446927539 "
                "scaled_x=1.25594321575",
            ),
        ],
    )
    def test_log_value_records(self, capsys, argv, expected):
        # Deep-tail cells: value underflows to 0 while log_value stays finite.
        code, out, _ = run_cli(capsys, "bound", *argv.split())
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            *[
                (f"--n 0 --x 1 --kind {kind}", "n must be >= 1, got 0")
                for kind in ("bn", "entropy", "corollary", "bernstein", "two-sided")
            ],
            ("--n 0 --x 1 --kind rescaled --alpha 0.4", "n must be >= 1, got 0"),
            *[
                (f"--n -1 --beta 0.5 --x 1 --kind {kind}", "n must be >= 1, got -1")
                for kind in ("bn", "entropy", "corollary", "bernstein", "two-sided")
            ],
            ("--n -1 --beta 0.5 --x 1 --kind rescaled --alpha 0.4", "n must be >= 1, got -1"),
            ("--n 0 --x 1 --kind rescaled", "n must be >= 1, got 0"),
            ("--n 4 --beta 0.5 --x 1 --kind rescaled", "beta must be a finite real > 1, got 0.5"),
            (
                "--n 4 --s 1 --kind bernstein",
                "numeric minimization needs x strictly below the endpoint "
                "n^((beta-1)/beta); got scaled threshold s = 1.0",
            ),
            ("--n 5 --s 0.5 --kind tstat", "kind tstat takes an absolute threshold --x, not --s"),
            ("--n 0 --x 1 --kind tstat", "n must be >= 2, got 0"),
        ],
    )
    def test_error_records(self, capsys, argv, message):
        # Which check fires first when n, beta or the threshold is bad.
        code, out, err = run_cli(capsys, "bound", *argv.split())
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_corollary_rejects_n_zero(self, capsys):
        code, out, err = run_cli(capsys, *"bound --n 0 --x 1 --kind corollary".split())
        assert code == 2
        assert out == ""
        assert err == "error: n must be >= 1, got 0\n"

    def test_two_sided_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--beta", "2", "--x", "1.8", "--kind", "two-sided"
        )
        assert code == 0
        assert float(record(out)["value"]) == pytest.approx(0.27654531922209656, rel=1e-9)

    def test_rescaled_kind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"bound --n 10 --beta 3 --x 0.5 --kind rescaled --alpha 0.4".split(),
        )
        assert code == 0
        rec = record(out)
        assert rec["in_window"] == "true"
        assert float(rec["alpha_low"]) == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", ["400", "-400"])
    def test_rescaled_rejects_alpha_that_leaves_the_finite_reals(self, capsys, alpha):
        # 10^400 overflows and 10^-400 underflows to 0.
        code, out, err = run_cli(
            capsys, *"bound --n 10 --x 1 --kind rescaled --alpha".split(), alpha
        )
        assert code == 2
        assert out == ""
        assert err == f"error: alpha={float(alpha)!r} takes x * n^alpha out of (0, inf) at n=10\n"

    def test_rescaled_requires_alpha(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--n", "10", "--beta", "3", "--x", "0.5", "--kind", "rescaled"
        )
        assert code == 2
        assert "alpha" in err

    def test_both_threshold_flags_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "4", "--x", "1", "--s", "0.5")
        assert code == 2
        assert "exactly one" in err

    def test_missing_threshold_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--n", "4")
        assert code == 2

    def test_unknown_kind_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "--n", "4", "--x", "1", "--kind", "magic")
        assert code == 2


class TestOracleCommand:
    def test_endpoint_tightness_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"oracle --n 10 --beta 2 --x 3.16227766 --stat running-max".split(),
        )
        assert code == 0
        rec = record(out)
        assert float(rec["probability"]) == 1.0 / 1024.0
        assert rec["hits"] == "1"
        assert float(rec["bound"]) == pytest.approx(2.0**-10, rel=1e-6)

    def test_small_example(self, capsys):
        code, out, _ = run_cli(capsys, *"oracle --n 2 --beta 2 --x 0.5".split())
        assert code == 0
        assert float(record(out)["probability"]) == 0.5

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, *"oracle --n 31 --beta 2 --x 1".split())
        assert code == 2
        assert "budget" in err

    def test_tstat_stat(self, capsys):
        code, out, _ = run_cli(capsys, *"oracle --n 4 --x 1 --stat tstat".split())
        assert code == 0
        rec = record(out)
        assert (rec["hits"], rec["total"], rec["degenerate"]) == ("4", "16", "2")

    def test_tstat_rejects_s_flag(self, capsys):
        code, _, _ = run_cli(capsys, *"oracle --n 4 --s 0.5 --stat tstat".split())
        assert code == 2

    def test_mags_distribution(self, capsys, tmp_path):
        path = tmp_path / "mags.txt"
        path.write_text("1.0\n2.0\n3.0\n", encoding="ascii")
        code, out, _ = run_cli(capsys, "oracle", "--dist", f"mags:{path}", "--s", "0.5")
        assert code == 0
        rec = record(out)
        assert rec["n"] == "3"
        assert float(rec["probability"]) == 0.25

    @pytest.mark.parametrize("command", ["oracle --x 1", "simulate --n 2 --x 1 --trials 10"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\nnan\n", "magnitudes must be finite and nonnegative"),
            ("1\n-2\n", "magnitudes must be finite and nonnegative"),
            ("0\n0\n", "at least one magnitude must be positive"),
        ],
    )
    def test_bad_mags_file_reports_the_oracle_message(
        self, capsys, tmp_path, command, text, message
    ):
        path = tmp_path / "mags.txt"
        path.write_text(text, encoding="ascii")
        code, out, err = run_cli(capsys, *command.split(), "--dist", f"mags:{path}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    @pytest.mark.parametrize(
        "stat, n, threshold",
        [("running-max", 3, "--s 0.5"), ("final-sum", 3, "--s 0.5"), ("tstat", 4, "--x 0.8")],
    )
    def test_extreme_magnitudes_count_like_unit_ones(
        self, capsys, tmp_path, scale, stat, n, threshold
    ):
        path = tmp_path / "mags.txt"
        path.write_text(f"{scale}\n" * n, encoding="ascii")
        args = ["oracle", "--stat", stat, *threshold.split()]
        code, out, err = run_cli(capsys, *args, "--dist", f"mags:{path}")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args, "--n", str(n))[1]

    def test_random_magnitude_law_rejected(self, capsys):
        code, _, err = run_cli(capsys, *"oracle --n 4 --dist gaussian --s 0.5".split())
        assert code == 2
        assert "enumeration" in err


class TestSimulateCommand:
    def test_impossible_regime_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"simulate --dist rademacher --n 4 --beta 2 --x 4.1 --stat running-max --trials 1000 --seed 1".split(),
        )
        assert code == 0
        rec = record(out)
        assert rec["p_hat"] == "0"
        assert rec["respect"] == "PASS"
        assert rec["bound"] == "0"

    def test_bound_respected_on_gaussian_cell(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *"simulate --dist gaussian --n 20 --beta 2 --x 2 --stat final-sum --trials 20000 --seed 42".split(),
        )
        assert code == 0
        rec = record(out)
        assert rec["respect"] == "PASS"
        assert float(rec["p_hat"]) <= float(rec["bound"])

    def test_tstat_stat(self, capsys):
        code, out, _ = run_cli(
            capsys, *"simulate --dist gaussian --n 10 --x 2 --stat tstat --trials 5000".split()
        )
        assert code == 0
        rec = record(out)
        assert rec["respect"] == "PASS"
        assert "corollary" not in rec

    def test_bad_distribution_flags(self, capsys):
        assert run_cli(capsys, *"simulate --n 4 --x 1 --dist pareto".split())[0] == 2
        assert run_cli(capsys, *"simulate --n 4 --x 1 --dist pareto:0".split())[0] == 2
        assert run_cli(capsys, *"simulate --n 4 --x 1 --dist gaussian:3".split())[0] == 2
        assert run_cli(capsys, *"simulate --n 4 --x 1 --dist cauchy".split())[0] == 2

    def test_missing_n(self, capsys):
        assert run_cli(capsys, *"simulate --x 1 --dist gaussian".split())[0] == 2


class TestSweepCommand:
    def test_csv_stdout_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, *"sweep --n 4,32 --beta 2 --s 0.5,1.0 --trials 400 --seed 3".split()
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        first = rows[0]
        assert first["n"] == 4
        assert first["bound_bn"] == pytest.approx(16.0 / 27.0, rel=1e-11)
        assert first["oracle_exact"] == 0.375
        over_budget = [row for row in rows if row["n"] == 32]
        assert all(row["oracle_exact"] is None for row in over_budget)
        endpoint = next(row for row in rows if row["n"] == 4 and row["s"] == 1.0)
        assert endpoint["bound_bn"] == 0.0625
        assert endpoint["oracle_exact"] == 0.0625
        assert endpoint["bernstein_numeric"] is None

    def test_matches_written_file(self, capsys, tmp_path):
        args = "sweep --n 4 --beta 1.5,2 --s 0.25,0.75 --trials 300 --seed 5".split()
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        path = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text(encoding="ascii") == out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, *"sweep --n 4 --beta 2 --s 0.5 --trials 200 --format json".split()
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 4
        assert rows[0]["x"] == 1.0

    def test_exit_codes_on_bad_grids(self, capsys):
        assert run_cli(capsys, *"sweep --n 4 --s 0.9,0.3".split())[0] == 2
        assert run_cli(capsys, *"sweep --n 4 --s 0.5,1.5".split())[0] == 2
        assert run_cli(capsys, *"sweep --n 4 --s 0.5 --stat tstat".split())[0] == 2
        assert run_cli(capsys, *"sweep --n four --s 0.5".split())[0] == 2

    def test_nan_level_rejected_by_the_grid(self, capsys):
        code, out, err = run_cli(capsys, *"sweep --n 4 --s nan".split())
        assert (code, out, err) == (2, "", "error: sweep s values must lie in (0, 1]\n")

    def test_seed_checked_when_monte_carlo_is_off(self, capsys):
        code, out, err = run_cli(capsys, *"sweep --n 4 --s 0.5 --trials 0 --seed -1".split())
        assert (code, out, err) == (2, "", "error: seed must fit in 64 bits, got -1\n")

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, *"sweep --n 4 --beta 2 --s 0.5 --trials 0 --out /no/such/dir/x.csv".split()
        )
        assert code == 2
        assert err.startswith("error:")

    def test_repeat_invocations_byte_identical(self, capsys):
        args = "sweep --n 6 --beta 2 --s 0.4,0.8 --trials 5000 --seed 11".split()
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestVerifyCommand:
    def test_fast_run_passes(self, capsys):
        # Kept test id: verify now has a single scale, the full one.
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 21
        assert out.endswith("21/21 suites passed\n")

    def test_fast_flag_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--fast")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --fast" in err


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "selfnorm", "bound", "--n", "4", "--x", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "value=0.0625" in proc.stdout

    def test_tstat_oracle_at_a_threshold_whose_square_overflows(self):
        proc = subprocess.run(
            [sys.executable, "-m", "selfnorm", "oracle", "--stat", "tstat", "--n", "5",
             "--x", "1e200"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "n=5 x=1e+200 stat=tstat hits=0 total=32 degenerate=2 probability=0 "
            "bound=0.03125\n"
        )

    def test_aborted_cross_check_exits_one_with_a_one_line_error(self, tmp_path):
        # The all-plus vector of magnitudes 1 and 1 + 1e-9 has T_n near 2e9,
        # below x, while its S_n / V_n(2) lies within the tie guard of
        # tau ~ sqrt(2): the oracle's two t-statistic routes disagree.
        path = tmp_path / "mags.txt"
        path.write_text("1\n1.000000001\n", encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "selfnorm", "oracle", "--stat", "tstat",
             "--dist", f"mags:{path}", "--x", "1e12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: t-statistic event and its self-normalized form disagree on "
            "1 of 4 sign vectors\n"
        )

    def test_numeric_minimizer_failure_exits_one(self, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("golden-section search did not converge in 200 iterations")

        monkeypatch.setattr(cli, "bernstein_numeric", fail)
        code, out, err = run_cli(capsys, *"bound --kind bernstein --n 4 --s 0.5".split())
        assert (code, out) == (1, "")
        assert err == "error: golden-section search did not converge in 200 iterations\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_missing_command_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("threads", ["abc", "0", "2.5"])
    def test_bad_thread_env_exits_two(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("SELFNORM_THREADS", threads)
        code, _, err = run_cli(capsys, *"sweep --n 8 --s 0.5".split())
        assert code == 2
        assert err.startswith("error: SELFNORM_THREADS")

    def test_bad_thread_env_exits_two_when_no_kernel_runs(self):
        # Trials 0 with a random-magnitude law runs no oracle and no Monte
        # Carlo, so the worker count must be checked before any cell.
        proc = subprocess.run(
            [sys.executable, "-m", "selfnorm", "sweep", "--n", "8", "--s", "0.5",
             "--dist", "gaussian", "--trials", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ, SELFNORM_THREADS="abc"),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: SELFNORM_THREADS must be a positive integer, got 'abc'\n"

    def test_thread_env_does_not_change_bytes(self, tmp_path):
        outputs = []
        for threads in ("1", "2", "8"):
            env = dict(os.environ, SELFNORM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "selfnorm", "sweep", "--n", "4,12", "--beta", "2",
                 "--s", "0.3,0.6,1.0", "--trials", "3000", "--seed", "7"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
