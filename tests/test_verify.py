"""Regression tests for the verify suites' shared cell loops."""

import dataclasses
import json

import pytest

from selfnorm import bounds, report, verify
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
            verify.sweep_round_trip(True)


class TestBoundRespect:
    def test_seeds(self, monkeypatch):
        seeds = []
        estimate = verify.estimate_tail

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(verify, "estimate_tail", recording)
        assert verify.bound_respect(True) == "24 cells respected their bound"
        assert seeds == list(range(1000, 1020)) + list(range(2020, 2024))

    def test_sum_statistic_failure_message(self, monkeypatch):
        monkeypatch.setattr(verify, "bound_bn", _tiny(bounds.bound_bn))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect(True)
        assert str(failure.value) == (
            "rademacher running_max n=8 s=0.4: p_hat 0.1935 exceeds bound 1e-300 "
            "+ 0.07125510697682141"
        )

    def test_tstat_failure_message(self, monkeypatch):
        monkeypatch.setattr(verify, "bound_tstat", _tiny(bounds.bound_tstat))
        with pytest.raises(SuiteFailure) as failure:
            verify.bound_respect(True)
        assert str(failure.value) == (
            "gaussian tstat x=1.5: p_hat 0.0845 exceeds bound 1e-300 + 0.05227838086981364"
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
        monkeypatch.setattr(verify, "bound_bn", _tiny(bounds.bound_bn))
        with pytest.raises(SuiteFailure) as failure:
            suite(True)
        assert str(failure.value) == message
