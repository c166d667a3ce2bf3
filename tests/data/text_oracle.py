"""The scalar text generators: the reference ``repro.data.vocab`` is checked against.

``make_text`` and ``make_headline`` as they were before their word loop
moved onto the bit generator's ctypes interface: one ``rng.random()``
and one ``rng.integers(0, n)`` per word, through numpy's own dispatch.
The package's versions must give the same text and leave the generator
in the same state, bit for bit.
"""

import numpy as np

from repro.data.vocab import COMMON_WORDS, HATE_PHRASES, THEME_VOCAB
from repro.text.lexicon import PAPER_EXAMPLE_TERMS, SYNTHETIC_TERMS


def make_text(theme, hashtag, is_hate, rng: np.random.Generator, length=14):
    topic_words = THEME_VOCAB[theme]
    words = []
    for _ in range(length):
        pool = topic_words if rng.random() < 0.6 else COMMON_WORDS
        words.append(pool[rng.integers(0, len(pool))])
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


def make_headline(theme, rng: np.random.Generator, length=9):
    topic_words = THEME_VOCAB[theme]
    words = []
    for _ in range(length):
        pool = topic_words if rng.random() < 0.7 else COMMON_WORDS
        words.append(pool[rng.integers(0, len(pool))])
    return " ".join(words)
