"""Gaussian one- and two-mode quantum states: representations, verdicts, oracle."""

from types import ModuleType as _Module

from .errors import (
    CutoffTooSmallError,
    GausspairError,
    NotAStateError,
    NotPositiveError,
    NotPRepresentableError,
    NotPureError,
    SingularMatrixError,
    WrongModeCountError,
)
from .kernels import GaussianKernel, convert
from .linalg import SymMatrix
from .onemode import OneModeMoments, OneModeVerdict, SqueezeMap, build_C, classify
from .states import (
    BellShift,
    PureStateD,
    SmoothedEprParam,
    anti_epr,
    bell_parameters,
    mixed_epr,
    pure_from_d,
    squeezed_epr,
)
from .twomode import (
    ThermalPair,
    TwoModeMoments,
    TwoModeVerdict,
    build_C2,
    classify2,
    partial_transpose,
    ppt_separable,
)

# the public names are those imported above, sorted; the submodules are not among them
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module))

__version__ = "0.1.0"
