"""Regression tests for the verify suites' shared cell loops."""

import dataclasses
import json
import re

import pytest

from selfnorm import bounds, report, simulate, verify
from selfnorm.verify import SuiteFailure


def _tiny(evaluate):
    """evaluate with its value replaced by 1e-300, so every cell fails."""
    return lambda *args: dataclasses.replace(evaluate(*args), value=1e-300)


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
        monkeypatch.setattr(simulate, "bound_bn", _tiny(bounds.bound_bn))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect()
        assert str(failure.value) == (
            "rademacher running_max n=8 s=0.4: p_hat 0.18 exceeds bound 1e-300 "
            "+ 0.021309916366662296"
        )

    def test_tstat_failure_message(self, monkeypatch):
        monkeypatch.setattr(simulate, "bound_tstat", _tiny(bounds.bound_tstat))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect()
        assert str(failure.value) == (
            "gaussian tstat x=1.5: p_hat 0.0836 exceeds bound 1e-300 + 0.015541525709587889"
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
        monkeypatch.setattr(simulate, "bound_bn", _tiny(bounds.bound_bn))
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
