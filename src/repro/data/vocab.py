"""Synthetic vocabularies for tweet and headline generation.

Each theme has a topical vocabulary; hateful tweets additionally draw from
the hate lexicon (``repro.text.lexicon``).  Words are ordinary English-like
tokens plus the synthetic slur tokens, so no real abusive corpus ships with
the library while lexical features (tf-idf, lexicon counts) behave exactly
as on real data: topic words separate hashtags, slur tokens separate hate.
"""

from __future__ import annotations

import numpy as np

from repro.text.lexicon import PAPER_EXAMPLE_TERMS, SYNTHETIC_TERMS
from repro.utils.rng import ensure_rng, pool_draws

__all__ = ["THEME_VOCAB", "COMMON_WORDS", "HATE_PHRASES", "make_text", "make_headline"]

COMMON_WORDS = (
    "the to and is in of for on with this that was are they we you all "
    "today now people time news india city country please see watch share"
).split()

THEME_VOCAB: dict[str, list[str]] = {
    "protest": (
        "protest students campus march police detained library firing "
        "solidarity rally shaheen bagh university crackdown peaceful tear "
        "gas slogans citizenship amendment act students arrested injured"
    ).split(),
    "riots": (
        "riots violence mob clashes burning shops curfew injured killed "
        "north delhi areas gunfire stones communal tension deployed forces "
        "victims relief camps property damage arson flames"
    ).split(),
    "politics": (
        "election minister parliament vote government opposition resign "
        "policy bill speech leader party campaign rally seats results "
        "alliance cabinet statement accused corruption mandate"
    ).split(),
    "covid": (
        "virus corona covid lockdown cases quarantine hospital doctors "
        "masks sanitizer pandemic spread testing positive migrant workers "
        "walking highway hunger relief vaccine symptoms isolation"
    ).split(),
    "media": (
        "media channel anchor coverage propaganda biased debate newsroom "
        "boycott journalism prime time footage broadcast viewers narrative "
        "fake agenda studio panel report misinformation"
    ).split(),
    "civic": (
        "salute warriors service donate funds relief volunteers society "
        "care helping community doctors nurses gratitude effort nation "
        "contribute support applaud heroes duty selfless"
    ).split(),
}

# Hateful framing phrases built from synthetic slurs + aggressive verbs.
HATE_PHRASES = (
    "throw out the", "punish these", "never trust a", "destroy the",
    "they are all", "ban every", "evil", "traitor", "enemy",
)


def make_text(
    theme: str,
    hashtag: str,
    is_hate: bool,
    rng: np.random.Generator,
    length: int = 14,
) -> str:
    """Compose one synthetic tweet.

    Hateful tweets mix in 1-3 slur tokens and an aggressive phrase, giving
    the lexicon and tf-idf features a real signal; non-hate tweets stay on
    topic vocabulary.
    """
    if theme not in THEME_VOCAB:
        raise ValueError(f"unknown theme {theme!r}")
    rng = ensure_rng(rng)
    words = pool_draws(rng, 0.6, THEME_VOCAB[theme], COMMON_WORDS, length)
    if is_hate:
        n_slurs = int(rng.integers(1, 4))
        slur_pool = SYNTHETIC_TERMS + PAPER_EXAMPLE_TERMS
        insert_at = rng.integers(0, len(words), size=n_slurs)
        for pos in insert_at:
            words.insert(int(pos), slur_pool[rng.integers(0, len(slur_pool))])
        phrase = HATE_PHRASES[rng.integers(0, len(HATE_PHRASES))]
        words.insert(0, phrase)
    words.append(f"#{hashtag.lower()}")
    return " ".join(words)


def make_headline(theme: str, rng: np.random.Generator, length: int = 9) -> str:
    """Compose one synthetic news headline for a theme."""
    if theme not in THEME_VOCAB:
        raise ValueError(f"unknown theme {theme!r}")
    rng = ensure_rng(rng)
    return " ".join(pool_draws(rng, 0.7, THEME_VOCAB[theme], COMMON_WORDS, length))
