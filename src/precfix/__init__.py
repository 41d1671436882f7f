"""Detect and fix precision-specific floating-point operations.

The pipeline: run a TAC program with a high-precision shadow lane
alongside its native one, flag instructions whose per-sample relative
error is statistically too large, place precision barriers on them, and
evaluate the fixed program against a built-in high-precision oracle.

`import precfix` loads no layer: each submodule, and each name re-exported
below, is imported on first use.
"""

import importlib

_MODULES = ("mpfloat", "transcendental", "tac", "engine", "detector",
            "corpus", "evaluator")
# each re-exported name and the submodule that defines it
_NAMES = {"MPFloat": "mpfloat", "relative_error": "mpfloat",
          "EngineConfig": "engine", "DualValue": "engine", "execute": "engine",
          "DetectionConfig": "detector", "detect": "detector",
          "fix_iteratively": "detector", "builtin_kernels": "corpus",
          "grid": "corpus", "evaluate": "evaluator", "summarize": "evaluator"}

__all__ = [*_MODULES, *_NAMES]

__version__ = "0.1.0"


def __getattr__(name):
    module = _NAMES.get(name, name)
    if module not in _MODULES:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = importlib.import_module("." + module, __name__)
    if module != name:  # importing a submodule binds it here already
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
