"""POST /v1/ingest end to end: route, SDK, CLI, liveness, restart replay.

Every fixture copies the session registry to a private directory before
attaching an event log — ingested events must never leak into other
test modules' engines via replay, and the engines here regenerate their
own worlds so the shared ``serving_world`` is never mutated.
"""

import io
import json
import shutil

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
        import http.client

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
        resp = engine1.ingest([
            {"kind": "hashtag", "tag": "#replayed", "theme": "riots"},
            {"kind": "tweet", "tweet_id": 920001, "user_id": fresh[0],
             "hashtag": "#replayed", "text": "survives restarts",
             "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": cascade.root.tweet_id,
             "user_id": fresh[1], "timestamp": FAR_TS},
            {"kind": "retweet", "tweet_id": 920001, "user_id": fresh[2],
             "timestamp": FAR_TS + 1},
            _fresh_follow(engine1),
        ])
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
