"""repro — reproduction of "Hate is the New Infodemic" (ICDE 2021).

A topic-aware model of hate-speech generation and retweet diffusion on a
(synthetic) Twitter information network, including:

- :mod:`repro.core.hategen` — feature-rich classifiers predicting whether a
  user will post hateful content on a given hashtag (paper Sec. IV).
- :mod:`repro.core.retina` — RETINA, a neural retweeter-prediction model with
  exogenous (news) scaled dot-product attention (paper Sec. V).
- :mod:`repro.serving` + :mod:`repro.client` — the API v1 serving stack
  (typed schemas, versioned model registry with aliases + hot reload,
  micro-batching HTTP server) and its stdlib client SDK.
- Substrates built from scratch on numpy (scipy fits the linear models): a
  classical-ML toolkit (:mod:`repro.ml`), a text toolkit (:mod:`repro.text`),
  a reverse-mode autograd neural framework (:mod:`repro.nn`), an
  information-network layer (:mod:`repro.graph`), diffusion baselines
  (:mod:`repro.diffusion`), hate-speech detectors (:mod:`repro.hatedetect`),
  and a generative synthetic Twitter world (:mod:`repro.data`).
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
]
