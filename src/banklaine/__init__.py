"""Numerical workbench for Bank-Laine functions built from model gluings."""

__version__ = "0.1.0"

from .specfun import PairIndex, build_coefficients, eval_model, eval_model_derivative

__all__ = [
    "PairIndex",
    "build_coefficients",
    "eval_model",
    "eval_model_derivative",
    "__version__",
]
