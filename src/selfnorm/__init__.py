"""Deviation bounds for self-normalized sums of independent symmetric
random variables and for Student's t-statistic, together with an exact
sign-vector enumeration oracle, a deterministic Monte Carlo estimator,
and sweep/verification tooling.
"""

from . import bounds, oracle, report, simulate, verify
from .bounds import *
from .oracle import *
from .report import *
from .simulate import *
from .verify import *

__version__ = "0.1.0"

__all__ = []
__all__ += bounds.__all__
__all__ += oracle.__all__
__all__ += report.__all__
__all__ += simulate.__all__
__all__ += verify.__all__
