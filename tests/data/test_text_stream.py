"""Tweet and headline text draws against the scalar oracle in ``text_oracle``.

``repro.data.vocab`` draws its words through ``repro.utils.rng.pool_draws``,
which replays numpy's ``random()`` and ``integers(0, n)`` on the bit
generator's ctypes interface.  Interleaved with native numpy calls, on
four bit generators, it must give the oracle's text and leave the
generator in the oracle's state, bit for bit; so must every world built
on it.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticWorld, SyntheticWorldConfig, WorldStream, WorldStreamConfig
from repro.data import vocab
from repro.text.lexicon import PAPER_EXAMPLE_TERMS, SYNTHETIC_TERMS
from repro.utils import rng as rng_mod
from repro.utils.rng import pool_draws
from tests.data import text_oracle
from tests.data.test_world_state import _assert_same

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)
THEMES = sorted(vocab.THEME_VOCAB)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> None:
    _assert_same(a.bit_generator.state, b.bit_generator.state, "state")


def _pair(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed)))


OPS = st.one_of(
    st.tuples(st.just("text"), st.sampled_from(THEMES), st.booleans(), st.integers(1, 20)),
    st.tuples(st.just("headline"), st.sampled_from(THEMES), st.integers(1, 20)),
    st.tuples(st.just("integers"), st.integers(1, 1 << 40)),
    st.tuples(st.just("random")),
)


@settings(max_examples=200, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(OPS, min_size=1, max_size=40),
)
def test_text_matches_scalar_oracle(bit_generator, seed, ops):
    fast, slow = _pair(bit_generator, seed)
    for op in ops:
        if op[0] == "text":
            _, theme, is_hate, length = op
            got = vocab.make_text(theme, "Tag", is_hate, fast, length=length)
            assert got == text_oracle.make_text(theme, "Tag", is_hate, slow, length=length)
        elif op[0] == "headline":
            _, theme, length = op
            got = vocab.make_headline(theme, fast, length=length)
            assert got == text_oracle.make_headline(theme, slow, length=length)
        elif op[0] == "integers":
            assert fast.integers(0, op[1]) == slow.integers(0, op[1])
        else:
            assert fast.random() == slow.random()
        _same_state(fast, slow)


POOL_SIZES = sorted(
    {1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32, len(vocab.COMMON_WORDS), len(vocab.HATE_PHRASES),
     len(SYNTHETIC_TERMS + PAPER_EXAMPLE_TERMS)}
    | {len(words) for words in vocab.THEME_VOCAB.values()}
)
#: Sizes whose Lemire threshold is large enough that a few hundred draws redraw.
REJECTING = {2**31 + 1, 3 * 2**30}


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("n", POOL_SIZES)
def test_pool_draws_match_integers(bit_generator, n, monkeypatch):
    redraws = []
    real = rng_mod._lemire_redraw

    def counting(next_uint32, state, n, m):
        redraws.append(m & 0xFFFFFFFF < ((1 << 32) - n) % n)
        return real(next_uint32, state, n, m)

    monkeypatch.setattr(rng_mod, "_lemire_redraw", counting)
    fast, slow = _pair(bit_generator, n % 1000)
    for p_first, second in ((1.0, range(n)), (0.5, range(3)), (0.5, range(1))):
        got = pool_draws(fast, p_first, range(n), second, 300)
        expected = []
        for _ in range(300):
            pool = range(n) if slow.random() < p_first else second
            expected.append(int(slow.integers(0, len(pool))))
        assert got == expected
        _same_state(fast, slow)
        assert fast.integers(0, n) == slow.integers(0, n)
    if n in REJECTING:
        assert any(redraws)


def test_pool_draws_hold_the_generator_lock():
    rng = np.random.default_rng(0)
    lock = rng.bit_generator.lock

    def free_elsewhere() -> bool:
        """Whether another thread could take the lock now."""
        got = []

        def probe():
            got.append(lock.acquire(blocking=False))
            if got[0]:
                lock.release()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        return got[0]

    class Pool:
        def __len__(self):
            return 5

        def __getitem__(self, i):
            assert not free_elsewhere()
            return i

    assert len(pool_draws(rng, 0.5, Pool(), Pool(), 20)) == 20
    assert free_elsewhere()


@pytest.mark.parametrize("bad", [range(0), range(2**32 + 1)])
def test_pool_draws_reject_sizes_outside_the_domain(bad):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="pool size"):
        pool_draws(rng, 0.5, range(3), bad, 4)
    assert rng.bit_generator.state == state


# ------------------------------------------------------------------ worlds
WORLDS = {
    # perfbench's reproduce world (the CLI default at seed 0).
    "reproduce": SyntheticWorldConfig(scale=0.03, n_hashtags=10, n_users=300, n_news=1000, seed=0),
    # The serving world: --scale 0.01 --users 120 --hashtags 5 --news 300.
    "serve": SyntheticWorldConfig(scale=0.01, n_hashtags=5, n_users=120, n_news=300, seed=0),
}


def _with_oracle(monkeypatch):
    monkeypatch.setattr("repro.data.synthetic.make_text", text_oracle.make_text)
    monkeypatch.setattr("repro.data.news.make_headline", text_oracle.make_headline)
    monkeypatch.setattr("repro.data.stream.make_text", text_oracle.make_text)


@pytest.mark.parametrize("name", list(WORLDS))
def test_world_matches_scalar_oracle(name, monkeypatch):
    world = SyntheticWorld.generate(WORLDS[name])
    with monkeypatch.context() as m:
        _with_oracle(m)
        reference = SyntheticWorld.generate(WORLDS[name])
    texts = [t.text for t in world.tweets]
    assert texts == [t.text for t in reference.tweets]
    assert [a.headline for a in world.news.articles] == [
        a.headline for a in reference.news.articles
    ]
    assert any(t.is_hate for t in world.tweets)
    for f in dataclasses.fields(world):
        _assert_same(getattr(world, f.name), getattr(reference, f.name), f.name)


def test_streamed_world_matches_scalar_oracle(monkeypatch):
    cfg = WorldStreamConfig(n_users=400, chunk_users=200, seed=3)

    def texts(world):
        history = [t.text for u in range(0, 400, 7) for t in world.history[u]]
        cascades = [
            (c.root.text, c.root.timestamp, [(r.user_id, r.timestamp) for r in c.retweets])
            for c in world.iter_cascades(40)
        ]
        return history, cascades

    fast = texts(WorldStream(cfg).build())
    with monkeypatch.context() as m:
        _with_oracle(m)
        slow = texts(WorldStream(cfg).build())
    assert fast == slow
    assert fast[0] and fast[1]
