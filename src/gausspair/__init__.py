"""Gaussian one- and two-mode quantum states: representations, verdicts, oracle."""

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

__all__ = [
    "BellShift",
    "CutoffTooSmallError",
    "GaussianKernel",
    "GausspairError",
    "NotAStateError",
    "NotPRepresentableError",
    "NotPositiveError",
    "NotPureError",
    "OneModeMoments",
    "OneModeVerdict",
    "PureStateD",
    "SingularMatrixError",
    "SmoothedEprParam",
    "SqueezeMap",
    "SymMatrix",
    "ThermalPair",
    "TwoModeMoments",
    "TwoModeVerdict",
    "WrongModeCountError",
    "anti_epr",
    "bell_parameters",
    "build_C",
    "build_C2",
    "classify",
    "classify2",
    "convert",
    "mixed_epr",
    "partial_transpose",
    "ppt_separable",
    "pure_from_d",
    "squeezed_epr",
]

__version__ = "0.1.0"
