"""The paper's primary contribution: hate generation + RETINA.

The subpackages are imported on first access: serving needs only the
feature extractors and the RETINA model, not the trainers, evaluation or
hate-generation classifiers.
"""

import importlib

__all__ = ["hategen", "retina"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
