"""Every name a module lists in __all__ exists on that module."""

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
