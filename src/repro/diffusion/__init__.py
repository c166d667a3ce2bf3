"""Diffusion models: rudimentary and neural retweet-prediction baselines.

Implements every external baseline of the paper's Table VI:

- :class:`SIRModel` — Kermack-McKendrick susceptible-infectious-recovered
  contagion on the follower network.
- :class:`GeneralThresholdModel` — Kempe-Kleinberg-Tardos threshold
  activation.
- :class:`TopoLSTM` — sender-receiver recurrent scoring over the cascade
  DAG (Wang et al., ICDM 2017), candidates restricted to seen users.
- :class:`FOREST` — recurrent next-user model with structural context
  aggregated from the global graph (Yang et al., IJCAI 2019).
- :class:`HIDAN` — hierarchical temporal-attention model using time
  differences instead of a global graph (Wang & Li, IJCAI 2019).

The neural baselines are faithful-in-spirit reimplementations on
:mod:`repro.nn`; each keeps its defining inductive bias.

The baselines are imported on first access: serving and RETINA need only
:mod:`repro.diffusion.cascade`, and should not pay for five models they
never run.
"""

import importlib

from repro.diffusion.cascade import CandidateSet, build_candidate_set, next_user_samples

#: Baseline class -> the submodule that defines it.
_BASELINES = {
    "SIRModel": "sir",
    "GeneralThresholdModel": "threshold",
    "TopoLSTM": "topolstm",
    "FOREST": "forest",
    "HIDAN": "hidan",
}


def __getattr__(name):
    module = _BASELINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "CandidateSet",
    "build_candidate_set",
    "next_user_samples",
    "SIRModel",
    "GeneralThresholdModel",
    "TopoLSTM",
    "FOREST",
    "HIDAN",
]
