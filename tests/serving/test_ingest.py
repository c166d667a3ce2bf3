"""POST /v1/ingest end to end: route, SDK, CLI, liveness, restart replay,
reloads beside ingest, and the ingest wait bound.

Every fixture copies the session registry to a private directory before
attaching an event log — ingested events must never leak into other
test modules' engines via replay, and the engines here load their own
worlds so the shared ``serving_world`` is never mutated.
"""

import gc
import http.client
import io
import json
import shutil
import threading
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.client import ServingClient, ServingError
from repro.serving import AsyncPredictionServer, engine_from_store

FAR_TS = 1e6  # hours; far outside every generated cascade window


def _copy_store(registry, tmp_path_factory, name):
    dest = tmp_path_factory.mktemp(name) / "store"
    shutil.copytree(registry.root, dest)
    return str(dest)


def _world_material(engine):
    """(cascade, fresh user ids, known tag) valid for the engine's world."""
    predictor = engine.predictors["retweeters"]
    world = predictor.world
    cascade = next(c for c in world.cascades if c.retweets)
    present = {r.user_id for r in cascade.retweets} | {cascade.root.user_id}
    fresh = [u for u in sorted(world.users) if u not in present]
    return cascade, fresh, world.catalog[0].tag


_USED_PAIRS: set = set()


def _fresh_follow(engine):
    """A follow event whose edge doesn't exist in the engine's live world."""
    world = engine.predictors["retweeters"].world
    for followee in sorted(world.users):
        for follower in sorted(world.users):
            if followee == follower or (followee, follower) in _USED_PAIRS:
                continue
            if not world.network.follows(follower, followee):
                _USED_PAIRS.add((followee, follower))
                return {"kind": "follow", "followee": followee,
                        "follower": follower}
    raise AssertionError("world has no absent follow edge left")


@pytest.fixture(scope="module")
def ingest_server(registry, tmp_path_factory):
    store = _copy_store(registry, tmp_path_factory, "ingest-store")
    engine = engine_from_store(store, max_batch_size=32)
    with AsyncPredictionServer(engine, port=0, registry=store) as srv:
        yield srv, engine


@pytest.fixture(scope="module")
def client(ingest_server):
    srv, _ = ingest_server
    host, port = srv.address
    with ServingClient(host=host, port=port) as c:
        yield c


class TestIngestRoute:
    def test_batch_acks_in_order_and_applies(self, ingest_server, client):
        _, engine = ingest_server
        cascade, fresh, tag = _world_material(engine)
        base = engine.event_log.last_seq
        batch = [
            {"kind": "hashtag", "tag": "#ingest-route", "theme": "politics"},
            {"kind": "tweet", "tweet_id": 910001, "user_id": fresh[0],
             "hashtag": "#ingest-route", "text": "live tweet",
             "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": 910001, "user_id": fresh[1],
             "timestamp": FAR_TS + 1},
            _fresh_follow(engine),
        ]
        resp = client.ingest(batch)
        assert resp.accepted == 4
        assert resp.n_errors == 0 and resp.deduped == 0
        assert resp.seqs == [base + 1, base + 2, base + 3, base + 4]
        assert resp.last_seq == base + 4
        assert [r["kind"] for r in resp.results] == [
            "hashtag", "tweet", "retweet", "follow"
        ]

    def test_duplicate_resubmission_is_a_noop(self, ingest_server, client):
        _, engine = ingest_server
        event = _fresh_follow(engine)
        first = client.ingest([event])
        assert first.accepted == 1
        last = engine.event_log.last_seq
        again = client.ingest([event])
        assert again.accepted == 0 and again.deduped == 1
        assert again.seqs == first.seqs
        assert again.results[0]["deduped"] is True
        assert engine.event_log.last_seq == last  # nothing appended

    def test_per_item_errors_do_not_fail_the_batch(self, ingest_server, client):
        _, engine = ingest_server
        _, fresh, _ = _world_material(engine)
        batch = [
            {"kind": "retweet", "tweet_id": 424242, "user_id": fresh[5],
             "timestamp": FAR_TS},                    # unknown cascade -> 409
            _fresh_follow(engine),
        ]
        resp = client.ingest(batch)
        assert resp.accepted == 1 and resp.n_errors == 1
        err = resp.results[0]
        assert err["status"] == 409
        assert err["error"]["code"] == "invalid_event"
        assert "424242" in err["error"]["message"]
        assert resp.results[1]["seq"] == engine.event_log.last_seq

    def test_schema_error_is_per_item_on_the_server(self, ingest_server):
        srv, engine = ingest_server
        host, port = srv.address
        last = engine.event_log.last_seq
        # Raw POST: the SDK would reject these client-side before the wire.
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"events": [
                {"kind": "follow", "followee": True, "follower": 1},
                {"kind": "unfollow"},
            ]}).encode()
            conn.request("POST", "/v1/ingest", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 200  # batch succeeds; both items fail
        assert payload["n_errors"] == 2 and payload["accepted"] == 0
        codes = [r["error"]["code"] for r in payload["results"]]
        assert codes == ["invalid_type", "unknown_event_kind"]
        assert engine.event_log.last_seq == last

    def test_client_validates_before_the_wire(self, client):
        with pytest.raises(ServingError):
            client.ingest([{"kind": "retweet", "tweet_id": "seven",
                            "user_id": 1, "timestamp": 0.0}])

    def test_metrics_exposes_store_block(self, client):
        store = client.metrics()["store"]
        assert store["events"] == store["last_seq"] >= 1
        assert set(store["by_kind"]) <= {"tweet", "retweet", "follow", "hashtag"}
        assert "retweeters" in store["watermarks"]
        assert "hategen" in store["watermarks"]
        assert store["watermarks"]["retweeters"] == store["last_seq"]

    def test_ingest_changes_next_prediction_without_reload(
        self, ingest_server, client
    ):
        _, engine = ingest_server
        cascade, fresh, _ = _world_material(engine)
        probe = fresh[7]
        before = client.predict_retweeters(
            cascade.root.tweet_id, user_ids=[probe]
        ).scores[str(probe)]
        resp = client.ingest([
            {"kind": "retweet", "tweet_id": cascade.root.tweet_id,
             "user_id": probe, "timestamp": FAR_TS + 2},
        ])
        assert resp.accepted == 1
        after = client.predict_retweeters(
            cascade.root.tweet_id, user_ids=[probe]
        ).scores[str(probe)]
        assert before != after


class TestIngestCLI:
    def test_jsonl_file(self, ingest_server, tmp_path, capsys):
        srv, engine = ingest_server
        path = tmp_path / "events.jsonl"
        lines = [_fresh_follow(engine), _fresh_follow(engine)]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        code = cli_main(["ingest", "--url", srv.url, str(path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sent"] == 2 and summary["accepted"] == 2
        assert summary["errors"] == 0
        assert summary["last_seq"] == engine.event_log.last_seq

    def test_stdin_and_reject_reporting(self, ingest_server, capsys,
                                        monkeypatch):
        srv, engine = ingest_server
        _, fresh, _ = _world_material(engine)
        follow = _fresh_follow(engine)
        lines = [
            json.dumps(follow),
            json.dumps(follow),  # in-stream duplicate: acked, deduped
            "not json",
            json.dumps({"kind": "retweet", "tweet_id": 424242,
                        "user_id": fresh[8], "timestamp": FAR_TS}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = cli_main(["ingest", "--url", srv.url, "-"])
        assert code == 1  # rejects surfaced in the exit code
        out = capsys.readouterr()
        summary = json.loads(out.out)
        assert summary["accepted"] == 1
        assert summary["deduped"] == 1 and summary["errors"] == 2
        assert "invalid JSON" in out.err
        assert "invalid_event" in out.err


class TestRestartReplay:
    def test_engine_restart_replays_the_log(self, registry, tmp_path_factory):
        store = _copy_store(registry, tmp_path_factory, "replay-store")
        engine1 = engine_from_store(store).start()
        cascade, fresh, tag = _world_material(engine1)
        resp = engine1.submit_ingest([
            {"kind": "hashtag", "tag": "#replayed", "theme": "riots"},
            {"kind": "tweet", "tweet_id": 920001, "user_id": fresh[0],
             "hashtag": "#replayed", "text": "survives restarts",
             "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": cascade.root.tweet_id,
             "user_id": fresh[1], "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": 920001, "user_id": fresh[2],
             "timestamp": FAR_TS + 1},
            _fresh_follow(engine1),
        ]).result(timeout=60)
        assert resp["accepted"] == 5 and resp["n_errors"] == 0
        probes = fresh[:6]
        want_old = engine1.predict("retweeters", {
            "cascade_id": cascade.root.tweet_id, "user_ids": probes,
        })
        want_new = engine1.predict("retweeters", {
            "cascade_id": 920001, "user_ids": probes,
        })
        engine1.stop()
        engine1.event_log.close()

        engine2 = engine_from_store(store).start()
        assert engine2.event_log.last_seq == 5
        got_old = engine2.predict("retweeters", {
            "cascade_id": cascade.root.tweet_id, "user_ids": probes,
        })
        got_new = engine2.predict("retweeters", {
            "cascade_id": 920001, "user_ids": probes,
        })
        for want, got in ((want_old, got_old), (want_new, got_new)):
            np.testing.assert_array_equal(
                np.array([want["scores"][str(u)] for u in probes]),
                np.array([got["scores"][str(u)] for u in probes]),
            )
        engine2.stop()
        engine2.event_log.close()


def test_stop_closes_the_event_log(registry, tmp_path_factory):
    """The log that engine_from_store opens is closed by the engine's stop;
    a second stop does nothing.  Nothing is left for the collector to
    find open."""
    store = _copy_store(registry, tmp_path_factory, "close-store")
    engine = engine_from_store(store).start()
    engine.stop()
    engine.stop()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        del engine
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_each_ingested_event_is_hashed_once(registry, tmp_path_factory, monkeypatch):
    import repro.serving.engine as engine_module
    import repro.store.log as log_module
    from repro.store import event_hash

    store = _copy_store(registry, tmp_path_factory, "hash-once-store")
    engine = engine_from_store(store)
    calls = []

    def counted(event):
        calls.append(event)
        return event_hash(event)

    monkeypatch.setattr(engine_module, "event_hash", counted)
    monkeypatch.setattr(log_module, "event_hash", counted)
    cascade, fresh, tag = _world_material(engine)
    batch = [
        {"kind": "tweet", "tweet_id": 930001, "user_id": fresh[0], "hashtag": tag,
         "text": "hashed once", "timestamp": FAR_TS},
        {"kind": "retweet", "tweet_id": 930001, "user_id": fresh[1],
         "timestamp": FAR_TS + 1},
        {"kind": "retweet", "tweet_id": cascade.root.tweet_id, "user_id": fresh[2],
         "timestamp": FAR_TS},
        _fresh_follow(engine),
    ]
    assert engine.ingest(batch)["accepted"] == 4
    assert len(calls) == 4
    calls.clear()
    assert engine.ingest(batch[:2])["deduped"] == 2  # duplicates too
    assert len(calls) == 2
    engine.event_log.close()


def _post_ingest(srv, events) -> tuple[int, dict, dict]:
    """One raw POST /v1/ingest (no SDK retries): (status, headers, body)."""
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", "/v1/ingest", json.dumps({"events": events}).encode(),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


class TestReloadBesideIngest:
    def test_ingest_acked_during_reload_is_served_by_the_new_predictor(
        self, registry, tmp_path_factory
    ):
        """An ingest lands while the reloaded predictor is about to swap in.

        The hook holds ``swap_predictor`` until the ingest is acked or a
        second has passed.  If ingest ran beside the reload, the ack would
        come first and reach only the old predictor; on the batcher it
        waits for the reload job, then applies to the new predictor.
        """
        store = _copy_store(registry, tmp_path_factory, "reload-ingest-store")
        engine = engine_from_store(store)
        _, fresh, tag = _world_material(engine)
        tweet = {"kind": "tweet", "tweet_id": 990001, "user_id": fresh[0],
                 "hashtag": tag, "text": "acked mid reload", "timestamp": FAR_TS}
        acks: list = []
        ingests: list[threading.Thread] = []
        swap = engine.swap_predictor

        def swap_with_ingest_in_flight(kind, predictor):
            if not ingests:
                thread = threading.Thread(
                    target=lambda: acks.append(_post_ingest(srv, [tweet]))
                )
                ingests.append(thread)
                thread.start()
                thread.join(timeout=1.0)
            return swap(kind, predictor)

        engine.swap_predictor = swap_with_ingest_in_flight
        with AsyncPredictionServer(engine, port=0, registry=store) as srv:
            host, port = srv.address
            with ServingClient(host=host, port=port) as client:
                assert client.reload("retina").kind == "retweeters"
                ingests[0].join(timeout=30)
                status, _, body = acks[0]
                assert status == 200 and body["accepted"] == 1
                resp = client.predict_retweeters(990001, user_ids=fresh[1:4])
                assert set(resp.scores) == {str(u) for u in fresh[1:4]}
                assert (engine.store_stats()["watermarks"]["retweeters"]
                        == engine.event_log.last_seq)
        engine.event_log.close()

    def test_reload_keeps_ingested_retweets_in_prior_counts(
        self, registry, tmp_path_factory
    ):
        """After a reload over the shared world, scores equal a restart's."""
        store = _copy_store(registry, tmp_path_factory, "reload-prior-store")
        engine = engine_from_store(store).start()
        world = engine.predictors["retweeters"].world
        # The retweeter becomes a prior retweeter of the root author, a
        # peer feature of every cascade that author starts.
        by_author: dict = {}
        for c in world.cascades:
            by_author.setdefault(c.root.user_id, []).append(c)
        cascade, other = next(cs[:2] for cs in by_author.values() if len(cs) >= 2)
        present = {r.user_id for r in cascade.retweets} | {cascade.root.user_id}
        fresh = [u for u in sorted(world.users) if u not in present]
        reply = engine.submit_ingest([
            {"kind": "retweet", "tweet_id": cascade.root.tweet_id,
             "user_id": fresh[0], "timestamp": FAR_TS},
        ]).result(timeout=60)
        assert reply["accepted"] == 1
        query = {"cascade_id": other.root.tweet_id, "user_ids": fresh[:4]}
        engine.reload_model(store, "retina")
        reloaded = engine.predict("retweeters", query)
        engine.stop()
        engine.event_log.close()

        restarted = engine_from_store(store).start()
        try:
            assert reloaded == restarted.predict("retweeters", query)
        finally:
            restarted.stop()
            restarted.event_log.close()

    def test_hategen_reload_equals_restart_after_trending_moves(
        self, registry, tmp_path_factory
    ):
        """A hashtag event, tweets that move a day's trending set and a
        retweet of a hateful one, then a hategen reload over the live
        world: its scores equal a restart's."""
        store = _copy_store(registry, tmp_path_factory, "reload-hategen-store")
        engine = engine_from_store(store).start()
        _, fresh, tag = _world_material(engine)
        queries = [
            {"user_id": u, "hashtag": h, "timestamp": FAR_TS + 2.0}
            for u in fresh[:3] for h in (tag, "#reload-trend")
        ]
        before = engine.predict("hategen", queries[0])
        reply = engine.submit_ingest(
            [{"kind": "hashtag", "tag": "#reload-trend", "theme": "politics"}]
            + [{"kind": "tweet", "tweet_id": 980000 + i, "user_id": fresh[i],
                "hashtag": tag if i % 2 else "#reload-trend",
                "text": "trending now", "timestamp": FAR_TS + i,
                "is_hate": i == 0}
               for i in range(6)]
            + [{"kind": "retweet", "tweet_id": 980000, "user_id": fresh[7],
                "timestamp": FAR_TS + 7}]
        ).result(timeout=60)
        assert reply["accepted"] == 8
        # The day had no tweets before: its trending set now holds ``tag``.
        assert engine.predict("hategen", queries[0])["score"] != before["score"]
        engine.reload_model(store, "hategen")
        reloaded = [engine.predict("hategen", q) for q in queries]
        engine.stop()
        engine.event_log.close()

        restarted = engine_from_store(store).start()
        try:
            assert reloaded == [restarted.predict("hategen", q) for q in queries]
        finally:
            restarted.stop()
            restarted.event_log.close()


def _store_surfaces(engine, users, roots) -> dict:
    """Every feature-store surface the predictors read, copied."""
    out = {}
    for kind, predictor in engine.predictors.items():
        store = predictor.feature_store
        out[kind, "history"] = store.history_rows(users).copy()
        for name in ("_rts_hate", "_rts_non", "_n_rt_hate", "_n_rt_non"):
            out[kind, name] = getattr(store, name).copy()
        if kind == "retweeters":
            for root in roots:
                out[kind, "peer", root] = store.peer_block(root, users).copy()
    return out


class TestPredictorWatermark:
    def test_same_batch_twice_is_a_noop_for_both_kinds(
        self, registry, tmp_path_factory
    ):
        """The predictor's watermark is the only guard: a batch handed to it
        again returns empty counts and leaves every store surface and score
        bit-identical."""
        store = _copy_store(registry, tmp_path_factory, "watermark-store")
        engine = engine_from_store(store)  # not started: ingest runs here
        cascade, fresh, tag = _world_material(engine)
        base = engine.event_log.last_seq
        reply = engine.ingest([
            {"kind": "hashtag", "tag": "#watermark", "theme": "politics"},
            {"kind": "tweet", "tweet_id": 970001, "user_id": fresh[0],
             "hashtag": "#watermark", "text": "live", "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": cascade.root.tweet_id,
             "user_id": fresh[1], "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": 970001, "user_id": fresh[2],
             "timestamp": FAR_TS + 1},
            _fresh_follow(engine),
        ])
        assert reply["accepted"] == 5
        batch = engine.event_log.events(base)
        users = sorted(engine.predictors["retweeters"].world.users)
        roots = [cascade.root.user_id, fresh[0]]
        queries = {
            "retweeters": [{"cascade_id": c, "user_ids": fresh[3:8]}
                           for c in (cascade.root.tweet_id, 970001)],
            "hategen": [{"user_id": u, "hashtag": h, "timestamp": FAR_TS}
                        for u in fresh[:2] for h in (tag, "#watermark")],
        }

        def scores():
            return {kind: engine.predictors[kind].predict_batch(qs)
                    for kind, qs in queries.items()}

        surfaces, first = _store_surfaces(engine, users, roots), scores()
        for kind, predictor in engine.predictors.items():
            assert predictor.seq == engine.event_log.last_seq
            assert predictor.apply_events(batch) == {}, kind
        again = _store_surfaces(engine, users, roots)
        assert surfaces.keys() == again.keys()
        for key, value in surfaces.items():
            assert np.array_equal(value, again[key]), key
        assert scores() == first
        engine.event_log.close()


class TestIngestWaitBound:
    def test_timeout_is_503_and_a_job_cancelled_before_it_starts_appends_nothing(
        self, registry, tmp_path_factory, on_loop
    ):
        store = _copy_store(registry, tmp_path_factory, "ingest-timeout-store")
        engine = engine_from_store(store)
        first, second = _fresh_follow(engine), _fresh_follow(engine)
        gate = threading.Event()
        ingest = engine.ingest

        def held_ingest(items):
            gate.wait(timeout=30)
            return ingest(items)

        engine.ingest = held_ingest
        with AsyncPredictionServer(engine, port=0, registry=store,
                                   request_timeout=0.3) as srv:
            base = engine.event_log.last_seq
            # The first job starts and holds the batcher past the bound.
            status, headers, body = _post_ingest(srv, [first])
            assert status == 503 and headers["Retry-After"] == "1"
            assert body["error"]["code"] == "overloaded"
            # The second is still queued when its bound runs out.
            status, _, _ = _post_ingest(srv, [second])
            assert status == 503
            gate.set()
            del engine.ingest
            cascade, fresh, _ = _world_material(engine)
            # A read queued behind the started job drains the queue.
            on_loop(srv, lambda: engine.submit("retweeters", {
                "cascade_id": cascade.root.tweet_id, "user_ids": fresh[:1],
            })).result(timeout=30)
            assert engine.event_log.last_seq == base + 1  # only the started job
            # Retries: the started batch is acked by dedup, the cancelled
            # one is accepted now.
            status, _, body = _post_ingest(srv, [first])
            assert status == 200 and body["deduped"] == 1
            assert body["results"][0]["seq"] == base + 1
            status, _, body = _post_ingest(srv, [second])
            assert status == 200 and body["accepted"] == 1
            assert body["results"][0]["seq"] == base + 2
        engine.event_log.close()
