"""Regression tests for the verify suites' shared cell loops."""

import dataclasses
import json
import math
import re

import pytest

from selfnorm import bounds, oracle, report, verify
from selfnorm.verify import SuiteFailure


def _tiny(evaluate):
    """evaluate with its value replaced by 1e-300, so every cell fails."""
    return lambda *args: dataclasses.replace(evaluate(*args), value=1e-300)


def _term_by_term(n, beta, x):
    """bound_bn with its interior log written term by term,
    -n log 2 + n log(sqrt t + 1/sqrt t) - n^(1/beta) x log(t) / 2, which
    cancels n log 2 down to about n s^2 / 2 and loses digits as n grows."""
    evaluation = bounds.bound_bn(n, beta, x)
    if evaluation.regime != bounds.INTERIOR:
        return evaluation
    t = (1.0 + evaluation.s) / (1.0 - evaluation.s)
    rt = math.sqrt(t)
    log_value = (-n * math.log(2.0) + n * math.log(rt + 1.0 / rt)
                 - 0.5 * float(n) ** (1.0 / beta) * x * math.log(t))
    return dataclasses.replace(evaluation, log_value=log_value, value=math.exp(log_value))


class TestFormEquivalence:
    def test_passes_with_large_n_cells(self):
        assert verify.form_equivalence().endswith(" over 1606 cells")

    def test_sees_large_n_precision_loss(self, monkeypatch):
        # The term-by-term product form gives 0.368 for 0.607 at n = 10^16,
        # x = 1, yet agrees with the entropy form on the n <= 64 grid.
        assert _term_by_term(10**16, 2.0, 1.0).value == pytest.approx(0.368, abs=1e-3)
        monkeypatch.setattr(verify, "bound_bn", _term_by_term)
        with pytest.raises(SuiteFailure, match="^forms disagree at n=1000000 beta=2.0 s="):
            verify.form_equivalence()


class TestSweepRoundTrip:
    @pytest.mark.parametrize(
        "fmt, name, drop",
        [
            ("CSV", "render_csv", lambda text: text[: text.rstrip("\n").rfind("\n") + 1]),
            ("JSON", "render_json", lambda text: json.dumps(json.loads(text)[:-1])),
        ],
        ids=["CSV", "JSON"],
    )
    def test_dropped_record_fails(self, monkeypatch, fmt, name, drop):
        render = getattr(report, name)
        monkeypatch.setattr(report, name, lambda rows: drop(render(rows)))
        with pytest.raises(SuiteFailure, match=f"^row count changed through {fmt}$"):
            verify.sweep_round_trip()

    @pytest.mark.parametrize("fmt", ["CSV", "JSON"])
    def test_grid_table_text_is_checked(self, monkeypatch, fmt):
        # The CLI writes the grid's table (axes set); the adapters write a
        # table read back from rows (axes None).  Only the first is broken.
        write = getattr(report.SweepTable, fmt.lower())

        def broken(table):
            return write(table) + "\n" * (table.axes is not None)

        monkeypatch.setattr(report.SweepTable, fmt.lower(), broken)
        with pytest.raises(SuiteFailure, match=f"^the sweep table's {fmt} differs from its rows'$"):
            verify.sweep_round_trip()


class TestSweepThreadInvariance:
    @pytest.mark.parametrize("name", ["csv", "json"])
    def test_table_text_that_depends_on_workers_fails(self, monkeypatch, name):
        sweep_table = report.sweep_table

        def by_workers(grid, workers=None):
            table = sweep_table(grid, workers)
            if workers == 8:
                object.__setattr__(table, name, lambda: "")
            return table

        monkeypatch.setattr(report, "sweep_table", by_workers)
        with pytest.raises(SuiteFailure, match="^worker count changed the rendered sweep$"):
            verify.sweep_thread_invariance()


class TestBoundRespect:
    def test_seeds(self, monkeypatch):
        seeds = []
        estimate = verify.estimate_tail

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(verify, "estimate_tail", recording)
        assert verify.bound_respect() == "24 cells respected their bound"
        assert seeds == list(range(1000, 1020)) + list(range(2020, 2024))

    def test_sum_statistic_failure_message(self, monkeypatch):
        monkeypatch.setattr(oracle, "bound_bn", _tiny(bounds.bound_bn))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect()
        assert str(failure.value) == (
            "rademacher running_max n=8 s=0.4: p_hat 0.17555 exceeds bound 1e-300 "
            "+ 0.021109530821564637"
        )

    def test_tstat_failure_message(self, monkeypatch):
        monkeypatch.setattr(oracle, "bound_tstat", _tiny(bounds.bound_tstat))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect()
        assert str(failure.value) == (
            "gaussian tstat x=1.5: p_hat 0.0831 exceeds bound 1e-300 + 0.015500876832806987"
        )


class TestOracleBelowBound:
    @pytest.mark.parametrize(
        "suite, message",
        [
            (verify.oracle_below_bound, "exact tail 0.5 exceeds bound 1e-300 at n=1 beta=1.5 s=0.1"),
            (
                verify.weighted_oracle_below_bound,
                "weighted exact tail exceeds bound at n=4 beta=1.5 s=0.1",
            ),
        ],
    )
    def test_failure_message(self, monkeypatch, suite, message):
        monkeypatch.setattr(oracle, "bound_bn", _tiny(bounds.bound_bn))
        with pytest.raises(SuiteFailure) as failure:
            suite()
        assert str(failure.value) == message


class TestRunSuites:
    def test_seconds_go_to_stderr_only(self, monkeypatch, capsys):
        def failing():
            raise SuiteFailure("off by one")

        def broken():
            raise KeyError("x")

        suites = (("FIRST", lambda: "fine"), ("SECOND SUITE", failing), ("THIRD", broken))
        monkeypatch.setattr(verify, "SUITES", suites)
        assert verify.run_suites() == 2
        out, err = capsys.readouterr()
        assert out == (
            "PASS  FIRST         fine\n"
            "FAIL  SECOND SUITE  off by one\n"
            "ERROR THIRD         KeyError: 'x'\n"
            "1/3 suites passed\n"
        )
        lines = err.splitlines()
        assert [line[:12].rstrip() for line in lines] == ["FIRST", "SECOND SUITE", "THIRD"]
        assert all(re.fullmatch(r".{12}  \d+\.\d{3} s", line) for line in lines)
