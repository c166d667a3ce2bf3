"""RETINA: Retweeter Identifier Network with Exogenous Attention (Sec. V).

Predicts the potential retweeters of a root tweet in two modes: *static*
(will the user ever retweet) and *dynamic* (per successive time interval),
with a scaled dot-product attention over contemporary news embeddings as
the exogenous signal.

The exports are imported on first access: serving needs the feature
extractor and the model, not the trainer or the evaluation.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "RetinaFeatureExtractor": "features",
    "RetinaSample": "features",
    "RETINA": "model",
    "DYNAMIC_INTERVAL_EDGES_MIN": "model",
    "RetinaTrainer": "trainer",
    "evaluate_binary": "evaluate",
    "evaluate_ranking": "evaluate",
    "map_by_hate_label": "evaluate",
    "macro_f1_by_cascade_size": "evaluate",
    "predicted_to_actual_ratio": "evaluate",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
