"""Inference-engine tests: parity, batching, store reads, error isolation."""

import asyncio
import threading

import numpy as np
import pytest

from repro.serving import (
    HateGenPredictor,
    InferenceEngine,
    RetweeterPredictor,
    ServingError,
)
from repro.store import FollowEvent, StoredEvent, event_hash


@pytest.fixture()
def retweeter(loaded_bundles):
    return RetweeterPredictor(loaded_bundles["retina"])


@pytest.fixture()
def hategen(loaded_bundles):
    return HateGenPredictor(loaded_bundles["hategen"])


class TestRetweeterPredictor:
    def test_scores_match_in_process_trainer(self, retweeter, trained_retina):
        trainer, _, test_samples = trained_retina
        sample = test_samples[0]
        payload = {
            "cascade_id": sample.candidate_set.cascade.root.tweet_id,
            "user_ids": sample.candidate_set.users,
        }
        result = retweeter.predict_batch([payload])[0]
        got = np.array([result["scores"][str(u)] for u in sample.candidate_set.users])
        np.testing.assert_allclose(got, trainer.predict_static_scores(sample), atol=1e-12)

    def test_requests_sharing_a_cascade_are_coalesced(
        self, retweeter, trained_retina, batched
    ):
        """Three reads queued at once for the batcher are one batch, and
        the two halves score as the whole."""
        _, _, test_samples = trained_retina
        sample = test_samples[0]
        cid = sample.candidate_set.cascade.root.tweet_id
        users = sample.candidate_set.users
        half = len(users) // 2
        payloads = [
            {"cascade_id": cid, "user_ids": users[:half]},
            {"cascade_id": cid, "user_ids": users[half:]},
            {"cascade_id": cid, "user_ids": users},
        ]
        engine = InferenceEngine({"retweeters": retweeter})
        n_before = engine.metrics()["retweeters"]["batches"]
        futures = batched(
            engine, lambda: [engine.submit("retweeters", p) for p in payloads]
        )
        assert engine.metrics()["retweeters"]["batches"] == n_before + 1
        results = [f.result() for f in futures]
        merged = {**results[0]["scores"], **results[1]["scores"]}
        assert merged == results[2]["scores"]

    def test_repeat_read_builds_no_rows(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        sample = test_samples[1]
        users = sample.candidate_set.users
        payload = {
            "cascade_id": sample.candidate_set.cascade.root.tweet_id,
            "user_ids": users,
        }
        store = retweeter.feature_store
        first = retweeter.predict_batch([payload])[0]
        hits, misses = store.hits, store.misses
        second = retweeter.predict_batch([payload])[0]
        assert store.misses == misses  # every row was built by the first read
        assert store.hits == hits + len(users)
        assert first["scores"] == second["scores"]
        stats = store.stats()
        assert stats["hits"] == store.hits and stats["misses"] == store.misses
        assert stats["maxsize"] == store.n_users
        assert len(set(users)) <= stats["size"] <= stats["maxsize"]

    def test_follow_ingest_rebuilds_no_row_and_matches_cold(
        self, registry, trained_retina
    ):
        """A follow patches rows in place; the next read equals a cold predictor."""
        _, _, test_samples = trained_retina
        live = RetweeterPredictor(registry.load_bundle("retina"))  # own world
        sample = test_samples[2]
        cascade = sample.candidate_set.cascade
        root = cascade.root.user_id
        network = live.world.network
        users = sample.candidate_set.users
        payload = {"cascade_id": cascade.root.tweet_id, "user_ids": users}
        far = [u for u in users
               if u != root and network.shortest_path_length(root, u, cutoff=4) > 1]
        # The root gains a follower (a far candidate moves to distance 1),
        # and a candidate gains a follower (its built row's count moves).
        followee = next(u for u in users if u not in (root, far[0]))
        follower = next(u for u in sorted(live.world.users)
                        if u != followee and not network.follows(u, followee))
        events = [FollowEvent(followee=root, follower=far[0]),
                  FollowEvent(followee=followee, follower=follower)]
        before = live.predict_batch([payload])[0]
        live.apply_events(
            [StoredEvent(i + 1, event_hash(ev), ev) for i, ev in enumerate(events)]
        )
        store = live.feature_store
        hits, misses = store.hits, store.misses
        after = live.predict_batch([payload])[0]
        assert store.misses == misses and store.hits == hits + len(users)
        assert after["scores"][str(far[0])] != before["scores"][str(far[0])]
        cold = RetweeterPredictor(registry.load_bundle("retina", world=live.world))
        assert cold.predict_batch([payload])[0]["scores"] == after["scores"]

    def test_default_candidates_when_users_omitted(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        result = retweeter.predict_batch([{"cascade_id": cid, "top_k": 5}])[0]
        assert len(result["ranking"]) == 5
        assert len(result["scores"]) >= 5
        # Ranking is sorted descending.
        scores = [s for _, s in result["ranking"]]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_cascade_is_per_request_error(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        good = {
            "cascade_id": test_samples[0].candidate_set.cascade.root.tweet_id,
            "user_ids": test_samples[0].candidate_set.users[:3],
        }
        bad = {"cascade_id": 10**9}
        results = retweeter.predict_batch([bad, good])
        assert results[0]["status"] == 404
        assert results[0]["error"]["code"] == "not_found"
        assert "unknown cascade" in results[0]["error"]["message"]
        assert results[0]["error"]["field"] == "cascade_id"
        assert "scores" in results[1]

    def test_interval_requires_dynamic_model(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        result = retweeter.predict_batch([{"cascade_id": cid, "interval": 2}])[0]
        assert "dynamic" in result["error"]["message"]
        assert result["error"]["field"] == "interval"

    def test_missing_cascade_id_rejected(self, retweeter):
        result = retweeter.predict_batch([{}])[0]
        assert result["error"]["code"] == "missing_field"
        assert result["error"]["field"] == "cascade_id"

    def test_bad_types_do_not_poison_the_batch(self, retweeter, trained_retina):
        """A non-numeric field becomes that payload's 400, not a batch crash."""
        _, _, test_samples = trained_retina
        good = {
            "cascade_id": test_samples[0].candidate_set.cascade.root.tweet_id,
            "user_ids": test_samples[0].candidate_set.users[:2],
        }
        results = retweeter.predict_batch(
            [
                {"cascade_id": "abc"},
                {"cascade_id": good["cascade_id"], "user_ids": ["x"]},
                {"cascade_id": good["cascade_id"], "top_k": {}},
                good,
            ]
        )
        assert all(results[i]["error"]["code"] == "invalid_type" for i in range(3))
        assert results[0]["error"]["field"] == "cascade_id"
        assert results[1]["error"]["field"] == "user_ids entry"
        assert results[2]["error"]["field"] == "top_k"
        assert "scores" in results[3]


class TestDynamicMode:
    @pytest.fixture()
    def dynamic_retweeter(self, loaded_bundles):
        from repro.core.retina import RETINA
        from repro.serving import RetinaBundle

        extractor = loaded_bundles["retina"].extractor
        model = RETINA(
            user_dim=extractor.user_feature_dim,
            tweet_dim=extractor.news_doc2vec_dim,
            news_dim=extractor.news_doc2vec_dim,
            mode="dynamic",
            random_state=0,
        )
        bundle = RetinaBundle(
            model=model,
            extractor=extractor,
            world_config=loaded_bundles["retina"].world_config,
        )
        return RetweeterPredictor(bundle)

    def test_interval_selects_one_window(self, dynamic_retweeter, trained_retina):
        _, _, test_samples = trained_retina
        sample = test_samples[0]
        cid = sample.candidate_set.cascade.root.tweet_id
        users = sample.candidate_set.users[:4]
        per_interval = [
            dynamic_retweeter.predict_batch(
                [{"cascade_id": cid, "user_ids": users, "interval": j}]
            )[0]
            for j in range(dynamic_retweeter.model.n_intervals)
        ]
        static = dynamic_retweeter.predict_batch(
            [{"cascade_id": cid, "user_ids": users}]
        )[0]
        for uid in users:
            probs = np.array([r["scores"][str(uid)] for r in per_interval])
            # Ever-retweets score collapses the per-interval probabilities.
            expected = 1.0 - np.prod(1.0 - probs)
            assert static["scores"][str(uid)] == pytest.approx(expected)

    def test_out_of_range_interval_rejected(self, dynamic_retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        result = dynamic_retweeter.predict_batch(
            [{"cascade_id": cid, "interval": 99}]
        )[0]
        assert result["error"]["code"] == "out_of_range"
        assert result["error"]["field"] == "interval"


class TestHateGenPredictor:
    def test_scores_match_in_process_chain(self, hategen, trained_hategen, serving_world):
        pipeline, test_tweets = trained_hategen
        tweets = test_tweets[:5]
        X, _ = pipeline.extractor.matrix(tweets)
        for t in pipeline.fitted_transforms_:
            X = t.transform(X)
        expected = pipeline.fitted_model_.predict_proba(X)[:, 1]
        payloads = [
            {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
            for t in tweets
        ]
        results = hategen.predict_batch(payloads)
        got = np.array([r["score"] for r in results])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert all(r["label"] in (0, 1) for r in results)

    def test_unknown_user_and_hashtag_are_404(self, hategen):
        results = hategen.predict_batch(
            [
                {"user_id": 10**9, "hashtag": "x", "timestamp": 1.0},
                {"user_id": 0, "hashtag": "definitely-not-a-tag", "timestamp": 1.0},
            ]
        )
        assert results[0]["status"] == 404
        assert results[1]["status"] == 404

    def test_repeat_query_builds_no_rows(self, hategen, trained_hategen):
        _, test_tweets = trained_hategen
        t = test_tweets[0]
        payload = {"user_id": t.user_id, "hashtag": t.hashtag, "timestamp": t.timestamp}
        store = hategen.feature_store
        first = hategen.predict_batch([payload])[0]
        hits, misses = store.hits, store.misses
        second = hategen.predict_batch([payload])[0]
        assert store.misses == misses
        assert store.hits > hits
        assert first == second


class TestInferenceEngine:
    def test_unknown_kind_rejected(self, retweeter):
        engine = InferenceEngine({"retweeters": retweeter})
        with pytest.raises(ServingError):
            engine.submit("nope", {})

    def test_engine_from_store_rejects_duplicate_kinds(self, registry):
        from repro.serving import engine_from_store

        with pytest.raises(ValueError, match="kind 'retweeters'"):
            engine_from_store(str(registry.root), ["retina", "retina"])

    def test_prestart_submissions_form_one_batch(
        self, retweeter, trained_retina, batched
    ):
        """Reads queued before the batcher first runs are one batch."""
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        users = test_samples[0].candidate_set.users
        engine = InferenceEngine({"retweeters": retweeter})
        n_before = engine.metrics()["retweeters"]["batches"]
        futures = batched(engine, lambda: [
            engine.submit("retweeters", {"cascade_id": cid, "user_ids": [u]})
            for u in users[:6]
        ])
        results = [f.result() for f in futures]
        assert all("scores" in r for r in results)
        assert engine.metrics()["retweeters"]["batches"] == n_before + 1

    def test_concurrent_submitters_all_answered(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        users = test_samples[0].candidate_set.users
        engine = InferenceEngine({"retweeters": retweeter})
        results, errors = [], []

        def client(uid):
            try:
                results.append(
                    engine.predict("retweeters", {"cascade_id": cid, "user_ids": [uid]})
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with engine:
            threads = [threading.Thread(target=client, args=(u,)) for u in users[:10]]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 10
        assert all("scores" in r for r in results)

    def test_engine_survives_predictor_crash(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id

        class Exploding:
            kind = "boom"

            def predict_batch(self, payloads):
                raise RuntimeError("kaboom")

        engine = InferenceEngine({"retweeters": retweeter, "boom": Exploding()})
        with engine:
            bad = engine.submit("boom", {})
            with pytest.raises(RuntimeError, match="kaboom"):
                bad.result(timeout=30.0)
            good = engine.predict(
                "retweeters",
                {"cascade_id": cid, "user_ids": test_samples[0].candidate_set.users[:2]},
            )
        assert "scores" in good

    def test_raising_batch_counts_one_error_per_request(self, batched):
        class Exploding:
            kind = "boom"

            def predict_batch(self, payloads):
                raise RuntimeError("kaboom")

        engine = InferenceEngine({"boom": Exploding()})
        errors_before = engine.metrics()["boom"]["errors"]
        batches_before = engine.metrics()["boom"]["batches"]
        futures = batched(engine, lambda: [engine.submit("boom", {"i": i}) for i in range(3)])
        for future in futures:
            with pytest.raises(RuntimeError, match="kaboom"):
                future.result()
        assert engine.metrics()["boom"]["batches"] == batches_before + 1
        assert engine.metrics()["boom"]["errors"] == errors_before + 3

    def test_metrics_and_describe(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        cid = test_samples[0].candidate_set.cascade.root.tweet_id
        engine = InferenceEngine({"retweeters": retweeter})
        with engine:
            engine.predict("retweeters", {"cascade_id": cid, "top_k": 3})
        snap = engine.metrics()["retweeters"]
        assert snap["requests"] >= 1
        assert "features" in snap["caches"]
        assert engine.describe()["retweeters"]["mode"] == "static"


class _Recorder:
    """Echo predictor that records the size of every batch it runs."""

    kind = "echo"

    def __init__(self):
        self.batch_sizes = []

    def predict_batch(self, payloads):
        self.batch_sizes.append(len(payloads))
        return [dict(p) for p in payloads]


class TestGreedyDrain:
    """A batch is what is already queued when the batcher is free."""

    def test_batcher_never_waits_on_a_timer(self):
        """Reads one at a time are each answered at once: the batcher
        waits for work, never on a timer (arming one here fails)."""
        engine = InferenceEngine({"echo": _Recorder()})

        async def main():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("the batcher armed a timer")

            loop.call_at = no_timer  # call_later arms timers through it
            try:
                async with engine.batching():
                    for i in range(5):
                        assert await engine.submit("echo", {"i": i}) == {"i": i}
            finally:
                del loop.call_at

        asyncio.run(main())
        assert engine.predictors["echo"].batch_sizes == [1] * 5

    def test_queued_requests_drain_in_batches_of_the_cap(self, batched):
        echo = _Recorder()
        engine = InferenceEngine({"echo": echo}, max_batch_size=4)
        futures = batched(engine, lambda: [engine.submit("echo", {"i": i}) for i in range(10)])
        assert [f.result() for f in futures] == [{"i": i} for i in range(10)]
        assert echo.batch_sizes == [4, 4, 2]


class TestCrossCascadeBatching:
    def test_mixed_cascade_batch_matches_singles(self, retweeter, trained_retina):
        """One micro-batch spanning several cascades returns, per payload,
        the same scores as submitting each payload alone (the packed
        forward only changes BLAS batch shapes)."""
        _, _, test_samples = trained_retina
        payloads = [
            {
                "cascade_id": s.candidate_set.cascade.root.tweet_id,
                "user_ids": s.candidate_set.users[:6],
            }
            for s in test_samples[:4]
        ]
        batched = retweeter.predict_batch(payloads)
        for payload, got in zip(payloads, batched):
            solo = retweeter.predict_batch([payload])[0]
            assert got["cascade_id"] == solo["cascade_id"]
            for uid, score in solo["scores"].items():
                np.testing.assert_allclose(got["scores"][uid], score, rtol=1e-12)

    def test_mixed_batch_with_errors_keeps_order(self, retweeter, trained_retina):
        _, _, test_samples = trained_retina
        good = [
            {
                "cascade_id": s.candidate_set.cascade.root.tweet_id,
                "user_ids": s.candidate_set.users[:3],
            }
            for s in test_samples[:2]
        ]
        payloads = [good[0], {"cascade_id": -1}, good[1], {"nope": 1}]
        results = retweeter.predict_batch(payloads)
        assert "scores" in results[0] and "scores" in results[2]
        assert results[1]["status"] == 404 and results[3]["status"] == 400

    def test_all_invalid_batch(self, retweeter):
        results = retweeter.predict_batch([{"cascade_id": -5}, {"bad": True}])
        assert all("error" in r for r in results)
