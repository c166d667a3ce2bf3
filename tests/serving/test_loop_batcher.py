"""The engine contract: inline off the loop, one batcher task on it.

Off a server's event loop the engine runs reads and writes inline on the
caller's thread and starts no thread.  In a server, reads run in
micro-batches on the loop's own thread, and an ingest's disk writes run
in the batcher's executor: the loop keeps answering while they fsync,
and reads queued behind the ingest wait for it and see its events.  On
shutdown the job in progress finishes and queued reads fail typed.
"""

import asyncio
import gc
import http.client
import json
import os
import shutil
import threading
import time

import pytest

from repro.serving import (
    AsyncPredictionServer,
    HateGenPredictor,
    InferenceEngine,
    ServingError,
    engine_from_store,
)

#: How long each patched fsync sleeps, and how fast the loop must answer
#: meanwhile.
SLOW_FSYNC_S = 0.3
LOOP_BOUND_S = 0.1


class _Echo:
    kind = "echo"

    def predict_batch(self, payloads):
        return [dict(p) for p in payloads]


def _request(srv, method, path, body=None) -> tuple[int, dict]:
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, data, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture()
def store(registry, tmp_path):
    dest = tmp_path / "store"
    shutil.copytree(registry.root, dest)
    return str(dest)


@pytest.fixture()
def slow_fsync(monkeypatch):
    """Patch ``os.fsync`` to sleep first; the event is set by the first call."""
    entered = threading.Event()
    real = os.fsync

    def fsync(fd):
        entered.set()
        time.sleep(SLOW_FSYNC_S)
        real(fd)

    def install():
        monkeypatch.setattr(os, "fsync", fsync)
        return entered

    return install


def _hategen_query(trained_hategen, hashtag=None) -> dict:
    _, test_tweets = trained_hategen
    t = test_tweets[0]
    return {"user_id": t.user_id, "hashtag": hashtag or t.hashtag,
            "timestamp": t.timestamp}


def test_with_engine_starts_no_thread():
    engine = InferenceEngine({"echo": _Echo()})
    before = threading.active_count()
    with engine:
        assert engine.predict("echo", {"x": 1}) == {"x": 1}
        assert engine.submit("echo", {"x": 2}).result() == {"x": 2}
        assert threading.active_count() == before
    assert threading.active_count() == before


def test_predict_batch_runs_on_the_loop_thread(registry, trained_hategen, monkeypatch):
    threads = []
    predict_batch = HateGenPredictor.predict_batch

    def recording(self, payloads):
        threads.append(threading.get_ident())
        return predict_batch(self, payloads)

    monkeypatch.setattr(HateGenPredictor, "predict_batch", recording)
    engine = engine_from_store(registry, with_events=False)
    with AsyncPredictionServer(engine, port=0) as srv:
        status, body = _request(srv, "POST", "/v1/predict/hategen",
                                _hategen_query(trained_hategen))
        loop_thread = srv._thread.ident
    assert status == 200 and "score" in body
    assert threads == [loop_thread]


def test_healthz_answers_while_an_ingest_fsyncs(store, slow_fsync):
    engine = engine_from_store(store)
    entered = slow_fsync()
    event = {"kind": "hashtag", "tag": "#fsync-in-flight", "theme": "riots"}
    acks = []
    with AsyncPredictionServer(engine, port=0, registry=store) as srv:
        writer = threading.Thread(
            target=lambda: acks.append(_request(srv, "POST", "/v1/ingest",
                                                {"events": [event]}))
        )
        writer.start()
        assert entered.wait(timeout=30)
        t0 = time.perf_counter()
        status, body = _request(srv, "GET", "/v1/healthz")
        elapsed = time.perf_counter() - t0
        writer.join(timeout=30)
    assert status == 200 and body["status"] == "ok"
    assert elapsed < LOOP_BOUND_S, f"healthz took {elapsed:.3f} s beside an fsync"
    assert acks[0][0] == 200 and acks[0][1]["accepted"] == 1


def test_read_queued_behind_an_ingest_sees_its_events(store, trained_hategen, slow_fsync):
    engine = engine_from_store(store)
    query = _hategen_query(trained_hategen, hashtag="#queued-behind")
    acks = []
    with AsyncPredictionServer(engine, port=0, registry=store) as srv:
        status, body = _request(srv, "POST", "/v1/predict/hategen", query)
        assert status == 404 and body["error"]["field"] == "hashtag"
        entered = slow_fsync()
        writer = threading.Thread(target=lambda: acks.append(_request(
            srv, "POST", "/v1/ingest",
            {"events": [{"kind": "hashtag", "tag": "#queued-behind",
                         "theme": "politics"}]},
        )))
        writer.start()
        assert entered.wait(timeout=30)
        status, body = _request(srv, "POST", "/v1/predict/hategen", query)
        writer.join(timeout=30)
    assert acks[0][0] == 200 and acks[0][1]["accepted"] == 1
    assert status == 200 and body["hashtag"] == "#queued-behind"


def test_shutdown_fails_queued_reads_with_a_typed_503():
    """The job in progress finishes; the reads queued behind it fail."""
    engine = InferenceEngine({"echo": _Echo()})
    gate = threading.Event()

    async def main():
        async with engine.batching():
            job = engine.submit_job(lambda: gate.wait(timeout=30))
            while engine.queue_age_s() > 0.0:
                await asyncio.sleep(0.01)  # until the batcher takes the job
            reads = [engine.submit("echo", {"i": i}) for i in range(3)]
            asyncio.get_running_loop().call_later(0.05, gate.set)
        return job, reads

    job, reads = asyncio.run(main())
    assert job.result() is True
    for read in reads:
        err = read.exception()
        assert isinstance(err, ServingError)
        assert (err.status, err.code) == (503, "engine_shutdown")
    with pytest.raises(ServingError) as err:
        engine.submit("echo", {})
    assert err.value.code == "engine_shutdown"


def test_server_stop_returns_with_a_read_queued_on_a_kept_alive_connection(on_loop):
    """The read fails typed (or its connection closes), and the handler
    does not wait for the client's next request on that connection."""
    engine = InferenceEngine({"hategen": _Echo()})
    gate = threading.Event()
    srv = AsyncPredictionServer(engine, port=0).start()
    on_loop(srv, lambda: engine.submit_job(lambda: gate.wait(timeout=30)))
    host, port = srv.address
    conn = http.client.HTTPConnection(host, port, timeout=30)  # kept alive
    replies = []

    def read():
        conn.request("POST", "/v1/predict/hategen", b"{}")
        try:
            resp = conn.getresponse()
            replies.append((resp.status, json.loads(resp.read())))
        except ConnectionError as exc:
            replies.append(exc)

    reader = threading.Thread(target=read)
    reader.start()
    while engine.queue_age_s() == 0.0:
        time.sleep(0.01)  # until the read is queued behind the job
    threading.Timer(0.2, gate.set).start()
    t0 = time.perf_counter()
    srv.stop()
    elapsed = time.perf_counter() - t0
    reader.join(timeout=30)
    conn.close()
    assert not reader.is_alive()
    assert elapsed < 5.0, f"stop took {elapsed:.1f} s"
    if not isinstance(replies[0], ConnectionError):
        status, body = replies[0]
        assert (status, body["error"]["code"]) == (503, "engine_shutdown")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_stop_closes_paged_feature_stores(store, monkeypatch):
    """The engine owns its predictors' paged stores: after its ``with``
    block the process holds no more open files than before it."""
    monkeypatch.setenv("REPRO_FEATURE_STORAGE", "paged")

    def serve_once():
        with engine_from_store(store) as engine:
            stores = [p.feature_store for p in engine.predictors.values()]
            assert {s.storage for s in stores} == {"paged"}
            assert len(os.listdir("/proc/self/fd")) > baseline
        return engine

    baseline = len(os.listdir("/proc/self/fd"))
    engine = serve_once()  # opens whatever the process opens only once
    del engine
    gc.collect()
    baseline = len(os.listdir("/proc/self/fd"))
    engine = serve_once()
    assert len(os.listdir("/proc/self/fd")) == baseline
    engine.stop()  # a second stop does nothing
    assert len(os.listdir("/proc/self/fd")) == baseline
