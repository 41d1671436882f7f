"""Detect and fix precision-specific floating-point operations.

The pipeline: run a TAC program with a high-precision shadow lane
alongside its native one, flag instructions whose per-sample relative
error is statistically too large, place precision barriers on them, and
evaluate the fixed program against a built-in high-precision oracle.
"""

from . import mpfloat, transcendental, tac, engine, detector, corpus, \
    evaluator
from .mpfloat import MPFloat, relative_error
from .engine import EngineConfig, DualValue, execute
from .detector import DetectionConfig, detect, fix_iteratively
from .corpus import builtin_kernels, grid
from .evaluator import evaluate, summarize

__all__ = [
    "mpfloat", "transcendental", "tac", "engine", "detector", "corpus",
    "evaluator", "MPFloat", "relative_error", "EngineConfig", "DualValue",
    "execute", "DetectionConfig", "detect", "fix_iteratively",
    "builtin_kernels", "grid", "evaluate", "summarize",
]

__version__ = "0.1.0"
