"""Every name a module lists in __all__ exists on that module, and the package
exports exactly its submodules' names."""

import importlib

import pytest

MODULES = [
    "selfnorm",
    "selfnorm.bounds",
    "selfnorm.oracle",
    "selfnorm.simulate",
    "selfnorm.report",
    "selfnorm.verify",
    "selfnorm.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_submodules_exports():
    import selfnorm
    from selfnorm import bounds, oracle, report, simulate, verify

    expected = bounds.__all__ + oracle.__all__ + report.__all__ + simulate.__all__
    assert selfnorm.__all__ == expected + verify.__all__


def test_statistic_names_are_exported_once_from_the_oracle():
    import selfnorm
    from selfnorm import oracle, simulate

    for name in ("STATS", "TSTAT"):
        assert selfnorm.__all__.count(name) == 1
        assert name in oracle.__all__ and name not in simulate.__all__
    assert selfnorm.STATS == ("running_max", "final_sum", "tstat")
