"""Every built-in verification suite, run under pytest.

These are the suites behind `selfnorm verify`, at the same scale; here each
suite is a test case so a property violation is reported individually.
"""

import pytest

from selfnorm.verify import SUITES


@pytest.mark.parametrize("suite", [fn for _, fn in SUITES], ids=[name for name, _ in SUITES])
def test_suite_passes_at_fast_scale(suite):
    # Kept test id: verify now has a single scale, the full one.
    detail = suite()
    assert isinstance(detail, str) and detail
