"""Synthetic news stream (exogenous signal).

The paper collects 683k articles via News-please and keeps 319k processed
headlines as the exogenous source.  We generate a timestamped headline
stream per theme whose intensity follows event bursts; the same bursts
drive tweet-volume in :mod:`repro.data.synthetic`, reproducing the
paper's premise that exogenous events trigger on-platform trends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import WINDOW_HOURS, NewsArticle
from repro.data.vocab import THEME_VOCAB, make_headline
from repro.utils.rng import ensure_rng

__all__ = ["EventBurst", "NewsStream", "generate_news_stream"]


@dataclass(frozen=True)
class EventBurst:
    """An external event: a theme flaring up at ``t0`` with decaying intensity."""

    theme: str
    t0: float
    intensity: float
    decay_hours: float

    def rate_at(self, t: float) -> float:
        """Contribution to the theme's article rate at time ``t``."""
        if t < self.t0:
            return 0.0
        return self.intensity * float(np.exp(-(t - self.t0) / self.decay_hours))


class NewsStream:
    """A time-sorted collection of articles with window queries.

    ``articles`` are sorted by timestamp on construction; ``bursts`` keep
    their generation order, theme by theme, and :meth:`theme_rates` sums
    them in that order, so every rate is the same float as the scalar sum
    of :meth:`EventBurst.rate_at` over the theme's bursts.
    """

    def __init__(self, articles: list[NewsArticle], bursts: list[EventBurst]):
        self.articles = sorted(articles, key=lambda a: a.timestamp)
        self.bursts = list(bursts)
        self._times = np.array([a.timestamp for a in self.articles])

    def __len__(self) -> int:
        return len(self.articles)

    def recent_before(self, t: float, k: int = 60) -> list[NewsArticle]:
        """The ``k`` most recent articles published strictly before ``t``.

        This is the paper's exogenous context: "the 60 most recent news
        headlines ... posted before the time of the tweet" (Sec. IV-D).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        idx = int(np.searchsorted(self._times, t, side="left"))
        return self.articles[max(0, idx - k) : idx]

    def theme_rates(self, theme: str, ts: np.ndarray) -> np.ndarray:
        """Aggregate burst intensity for a theme at each time in ``ts``.

        One array pass per burst, from zero, in stored order; ``exp`` runs
        only where ``t >= t0``, as :meth:`EventBurst.rate_at` does.
        """
        ts = np.asarray(ts, dtype=np.float64)
        rates = np.zeros(ts.shape)
        for b in self.bursts:
            if b.theme == theme:
                on = ts >= b.t0
                rates[on] += b.intensity * np.exp(-(ts[on] - b.t0) / b.decay_hours)
        return rates


def generate_news_stream(
    *,
    n_articles: int,
    window_hours: float = WINDOW_HOURS,
    n_bursts_per_theme: int = 3,
    base_rate: float = 0.25,
    random_state=None,
) -> NewsStream:
    """Generate ``n_articles`` headlines across all themes.

    Each theme gets ``n_bursts_per_theme`` event bursts at random times;
    article timestamps are drawn from the mixture of a uniform base rate and
    the burst profile (inverse-CDF sampling over a time grid).
    """
    if n_articles < 1:
        raise ValueError(f"n_articles must be >= 1, got {n_articles}")
    rng = ensure_rng(random_state)
    themes = list(THEME_VOCAB)
    bursts: list[EventBurst] = []
    for theme in themes:
        for _ in range(n_bursts_per_theme):
            bursts.append(
                EventBurst(
                    theme=theme,
                    t0=float(rng.uniform(0, window_hours * 0.9)),
                    intensity=float(rng.uniform(2.0, 8.0)),
                    decay_hours=float(rng.uniform(24.0, 96.0)),
                )
            )

    burst_rates = NewsStream([], bursts)
    grid = np.linspace(0, window_hours, 2048)
    articles: list[NewsArticle] = []
    per_theme = np.maximum(
        rng.multinomial(n_articles, np.full(len(themes), 1.0 / len(themes))), 1
    )
    aid = 0
    for theme, count in zip(themes, per_theme):
        rate = base_rate + burst_rates.theme_rates(theme, grid)
        cdf = np.cumsum(rate)
        cdf /= cdf[-1]
        times = np.interp(rng.random(count), cdf, grid)
        for t in np.sort(times):
            articles.append(
                NewsArticle(
                    article_id=aid,
                    headline=make_headline(theme, rng),
                    topic=theme,
                    timestamp=float(t),
                )
            )
            aid += 1
    return NewsStream(articles, bursts)
