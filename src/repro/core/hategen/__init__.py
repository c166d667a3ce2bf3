"""Hate-generation prediction (paper Sec. IV, Tables IV-V).

Given a user and a hashtag, predict whether the user will post a hateful
tweet — a binary classification over feature groups representing the
user's activity history H, topic relatedness T, non-peer endogenous
signals S_en (trending hashtags), and exogenous signals S_ex (news).

The exports are imported on first access: serving needs the feature
extractor, not the pipeline, the Table III models or the ablation.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "HateGenFeatureExtractor": "features",
    "FeatureGroups": "features",
    "build_model": "models",
    "TABLE3_MODELS": "models",
    "HateGenerationPipeline": "pipeline",
    "ProcessingVariant": "pipeline",
    "run_feature_ablation": "ablation",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
