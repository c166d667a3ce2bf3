"""The repository benchmark: serving, ingest and the paper pipeline, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {serve_hot,serve_ingest,reproduce}
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Diagnostics
(p99s, tracing overhead, the time account) go on the line before.
NOTES.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
    print("perfbench: run from the root of a repro checkout (src/repro not found)",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lifecycle  # noqa: E402
import load  # noqa: E402
import spans as spanlib  # noqa: E402
from wire import Conn, Failed  # noqa: E402

WORKLOADS = ("serve_hot", "serve_ingest", "reproduce")
SETUPS = 5            # server / interpreter starts per run; setup_s is their median
WARMUP_S = 2.0        # reads (and writes) before the measured window, discarded
INGEST_RATE = 8.0     # serve_ingest batches per second (x 32 events = 256 events/s)
READS_PER_TICK = 3    # serve_ingest reads after each acked ingest batch
PROBES = 8            # fixed probe queries checked against in-process scores
PROBE_SEED = 20210419

#: Seed-0 CLI values (``repro train-retina --mode dynamic``, ``repro
#: train-hategen``) that the reproduce workload must match.
RECORDED_F1 = {"retina_macro_f1": 0.7091, "hategen_macro_f1": 0.7897}

#: Gated end-to-end metrics.  predict_rps, predict_p90_ms and (on
#: serve_ingest) the ingest percentiles are measured too but printed on the
#: diagnostics line only:
#: on a shared 2-vCPU host their run-to-run spread reached or exceeded the
#: largest bound the benchmark may set (NOTES.md, A/A baseline).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_s": "s", "predict_p50_ms": "ms",
}
PER_LAYER = {
    "serve.front.residual_ms": "ms", "serve.admission.shed": "count",
    "serve.engine.queue_wait_ms": "ms", "serve.engine.batch_size": "count",
    "serve.predictor.self_ms": "ms", "serve.features.build_ms": "ms",
    "serve.features.rows_built": "count", "serve.cache.feature_hit_rate": "ratio",
    "serve.cache.context_hit_rate": "ratio", "serve.model.forward_ms": "ms",
    "serve.model.rows": "count", "ingest.store.append_ms": "ms", "ingest.apply_ms": "ms",
    "ingest.invalidate_ms": "ms", "ingest.evicted_rows": "count",
    "ingest.unattributed_ms": "ms", "setup.load_bundle_s": "s", "setup.replay_s": "s",
    "setup.unattributed_s": "s", "reproduce.data.generate_s": "s",
    "reproduce.features.fit_s": "s", "reproduce.features.build_s": "s",
    "reproduce.nn.fit_s": "s", "reproduce.nn.step_ms": "ms", "reproduce.eval_s": "s",
    "reproduce.hategen.prepare_s": "s", "reproduce.hategen.fit_s": "s",
    "reproduce.registry.save_s": "s", "reproduce.unattributed_s": "s",
}


class Outcome:
    """Operation counts and correctness problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ------------------------------------------------------------------ serve
class ServeWorkload:
    """Inputs and reference scores shared by the run's sessions."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str):
        from repro.serving import ModelRegistry, RetweeterPredictor

        self.name, self.seconds, self.workdir = name, seconds, workdir
        self.base = os.path.join(workdir, "registry")
        self.trainings = [self.train(self.base)]
        predictor = RetweeterPredictor(ModelRegistry(self.base).load_bundle("retina"))
        world = predictor.world
        self.probes = load.read_pool(world, PROBE_SEED, PROBES)
        self.expected = [predictor.predict_batch([p])[0]["scores"] for p in self.probes]
        self.pool = load.read_pool(world, seed)
        n_batches = 0 if name == "serve_hot" else int(INGEST_RATE * (WARMUP_S + seconds)) + 2
        self.batches = load.event_batches(world, seed, n_batches)
        self.read_requests = load.encode_reads(self.pool)
        self.ingest_requests = load.encode_ingest(self.batches)

    def train(self, dest: str | None = None) -> float:
        """Train the serving bundle through the CLI; wall seconds.

        The untraced session trains three times more, after its second and
        fourth server starts and after its server stops, and ``train_s`` is
        the median: one 3 s training inherits whatever state the shared host
        is in, four spread over the run are steadier.  Training is not
        traced, so the traced session does not train and reports no
        ``train_s``.
        """
        dest = dest or os.path.join(self.workdir, f"scratch-{len(self.trainings)}")
        return lifecycle.train_registry(ROOT, dest, os.path.join(self.workdir, "train.log"))

    def session(self, out: Outcome, traced: bool, tag: str) -> dict:
        """Start SETUPS servers (keeping the last), check, drive, stop."""
        setups, setup_layers, leaked = [], [], 0
        server = None
        try:
            for k in range(SETUPS):
                wd = os.path.join(self.workdir, f"{tag}-server{k}")
                os.makedirs(wd)
                span_file = os.path.join(wd, "spans.json") if traced else None
                server = lifecycle.Server(ROOT, self.base, wd, spans_path=span_file)
                setups.append(server.wait_ready())
                if k < SETUPS - 1:
                    leaked += server.stop()
                    if traced:
                        setup_layers.append(self._setup_layers(span_file, setups[-1]))
                    server = None
                if not traced and k % 2 == 1:
                    self.trainings.append(self.train())
            self._probe(server.port, out)
            result = self._drive(server.port, out)
            result["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            if server is not None:
                leaked += server.stop()
        if leaked:
            out.failed += leaked
            out.problem(f"{leaked} server process(es) survived SIGINT")
        result["leaked"] = leaked
        result["setup_s"] = statistics.median(setups)
        if not traced:
            self.trainings.append(self.train())
            result["train_s"] = statistics.median(self.trainings)
        else:
            setup_layers.append(self._setup_layers(span_file, setups[-1]))
            tree = spanlib.Tree(_load_spans(span_file))
            result["span_counts"] = tree.counts()
            result["layers"] = self._layers(tree, result)
            for key in setup_layers[0]:
                result["layers"][key] = statistics.median(s[key] for s in setup_layers)
        return result

    @staticmethod
    def _setup_layers(span_file: str, setup_s: float) -> dict:
        return spanlib.setup_layers(spanlib.Tree(_load_spans(span_file)), setup_s)

    def _probe(self, port: int, out: Outcome) -> None:
        conn = Conn(port)
        try:
            for payload, expected in zip(self.probes, self.expected):
                out.attempted += 1
                try:
                    reply = json.loads(conn.roundtrip(load.encode_reads([payload])[0]))
                except Failed as exc:
                    out.failed += 1
                    out.problem(f"probe: {exc}")
                    continue
                if reply.get("scores") != expected:
                    out.problem(f"probe {payload} differs from in-process predict_batch")
        finally:
            conn.close()

    def _drive(self, port: int, out: Outcome) -> dict:
        reads, writes, snaps = [[], []], [], []
        start = time.perf_counter()
        measure_at = start + WARMUP_S
        stop_at = measure_at + self.seconds
        snap = (measure_at, snaps)
        if self.name == "serve_hot":
            load.run_threads(
                ((port, 1, load.closed, self.read_requests, 0, stop_at, reads[0]),
                 {"snap": snap}),
                ((port, 1, load.closed, self.read_requests, len(self.pool) // 2, stop_at,
                  reads[1]), {}))
        else:
            load.on_conns(port, 2, load.ticks, self.ingest_requests, self.read_requests,
                          INGEST_RATE, READS_PER_TICK, start, stop_at, writes, reads[0],
                          snap=snap)
        conn = Conn(port)
        try:
            final = conn.get_json("/v1/metrics")
        finally:
            conn.close()

        # Reads go out as soon as the reply (or ack) before them is in, so
        # they are never late: their latency is client time.
        latencies, lateness = [], []
        for due, sent, end, k, body in reads[0] + reads[1]:
            out.attempted += 1
            if end is None:
                out.failed += 1
                out.problem(f"predict: {body}")
                continue
            problem = load.check_read(self.pool[k], json.loads(body))
            if problem:
                out.problem(f"predict {self.pool[k]['cascade_id']}: {problem}")
            if due >= measure_at:
                latencies.append((end - sent) * 1e3)
        ingest_ms, last_seq, sent_events = [], 0, 0
        for due, sent, end, i, body in writes:
            out.attempted += 1
            sent_events += len(self.batches[i])
            if end is None:
                out.failed += 1
                out.problem(f"ingest: {body}")
                continue
            problem, last_seq = load.check_ingest(self.batches[i], json.loads(body), last_seq)
            if problem:
                out.problem(f"ingest batch {i}: {problem}")
            if due >= measure_at:
                ingest_ms.append((end - due) * 1e3)
                lateness.append((sent - due) * 1e3)
        client_ms = list(latencies)
        if not latencies:
            out.problem("no measured reads")
            latencies = [float("nan")]
        last_end = max((end for due, _, end, _, _ in reads[0] + reads[1]
                        if end is not None and due >= measure_at), default=stop_at)
        result = {
            "predict_rps": len(latencies) / (last_end - measure_at),
            "predict_p50_ms": load.pct(latencies, 50),
            "predict_p90_ms": load.pct(latencies, 90),
            "predict_p99_ms": load.pct(latencies, 99),
            "reads": len(latencies),
            "shed": final.get("admission", {}).get("shed", 0),
            "client_ms": client_ms,
            "window": (measure_at, stop_at),
            "caches": (snaps[0], final),
        }
        if self.batches:
            logged = final.get("store", {}).get("last_seq")
            if logged != sent_events:
                out.problem(f"/v1/metrics last_seq {logged} != {sent_events} events sent")
            if not ingest_ms:
                out.problem("no measured writes")
                ingest_ms = [float("nan")]
            result.update(ingest_p50_ms=load.pct(ingest_ms, 50),
                          ingest_p90_ms=load.pct(ingest_ms, 90),
                          ingest_p99_ms=load.pct(ingest_ms, 99),
                          ingest_batches=len(ingest_ms),
                          generator_late_p90_ms=load.pct(lateness, 90))
        return result

    def _layers(self, tree, result: dict) -> dict:
        start, stop = result["window"]
        layers = spanlib.serve_layers(tree, start, stop, result.pop("client_ms"))
        layers.update(spanlib.ingest_layers(tree, start, stop))
        before, after = (m["retweeters"]["caches"] for m in result["caches"])
        layers.update(_hit_rates(before, after))
        layers["serve.admission.shed"] = result["shed"]
        return layers


def _hit_rates(before: dict, after: dict) -> dict:
    """Cache hit rates between two ``/v1/metrics`` cache snapshots."""
    out = {}
    for cache, key in (("features", "feature_hit_rate"), ("contexts", "context_hit_rate")):
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        out[f"serve.cache.{key}"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _load_spans(path: str) -> list:
    with open(path) as fh:
        return json.load(fh)


def run_serve(name: str, args, workdir: str, out: Outcome) -> tuple[dict, dict]:
    workload = ServeWorkload(name, args.seed, args.seconds, workdir)
    plain = workload.session(out, traced=False, tag="plain")
    if not args.trace:
        return plain, {}
    traced = workload.session(out, traced=True, tag="traced")
    return plain, traced


# -------------------------------------------------------------- reproduce
def _reproduce_child(args, workdir: str, tag: str, *, setup_only: bool,
                     traced: bool = False) -> tuple[float, dict]:
    wd = os.path.join(workdir, tag)
    os.makedirs(wd)
    result_path = os.path.join(wd, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "reproduce.py"), "--out", result_path,
           "--workdir", wd, "--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    with open(os.path.join(wd, "child.log"), "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=lifecycle.child_env(ROOT), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=170)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    leaked = len(lifecycle.survivors(proc.pid))
    if leaked:
        os.killpg(proc.pid, signal.SIGKILL)
    if code != 0:
        raise RuntimeError(f"reproduce child failed (exit {code}):\n"
                           f"{lifecycle.tail(os.path.join(wd, 'child.log'))}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["leaked"] = leaked
    return started, result


def run_reproduce(args, workdir: str, out: Outcome) -> tuple[dict, dict]:
    setups = []
    for k in range(SETUPS - 1):
        started, result = _reproduce_child(args, workdir, f"setup{k}", setup_only=True)
        setups.append(result["t_world"] - started)
    plain = _reproduce_session(args, workdir, out, setups, traced=False)
    if not args.trace:
        return plain, {}
    return plain, _reproduce_session(args, workdir, out, setups, traced=True)


def _reproduce_session(args, workdir, out: Outcome, setups, *, traced: bool) -> dict:
    tag = "traced" if traced else "plain"
    started, r = _reproduce_child(args, workdir, tag, setup_only=False, traced=traced)
    out.attempted += 1 + len(r["predict_ms"])
    if r["leaked"]:
        out.failed += r["leaked"]
        out.problem(f"{r['leaked']} pipeline process(es) outlived the run")
    for key, recorded in RECORDED_F1.items():
        if round(r[key], 4) != recorded:
            out.problem(f"{key} {r[key]:.4f} != recorded {recorded}")
    for problem in r["errors"]:
        out.problem(problem)
    result = {
        "setup_s": statistics.median([*setups, r["t_world"] - started]),
        "train_s": r["t_trained"] - r["t_world"],
        "peak_rss_mb": r["peak_rss_mb"],
        "predict_rps": len(r["predict_ms"]) * 1e3 / sum(r["predict_ms"]),
        "predict_p50_ms": load.pct(r["predict_ms"], 50),
        "predict_p90_ms": load.pct(r["predict_ms"], 90),
        "predict_p99_ms": load.pct(r["predict_ms"], 99),
        "serve_setup_s": r["serve_setup_s"],
        "leaked": r["leaked"],
    }
    if traced:
        result["layers"] = _reproduce_layers(r, result["train_s"])
        result["span_counts"] = spanlib.Tree(r["spans"]).counts()
    return result


def _reproduce_layers(r: dict, train_s: float) -> dict:
    tree = spanlib.Tree(r["spans"])

    def total(name):
        return sum(s[3] - s[2] for s in tree.roots(name))

    phases = {
        "reproduce.features.fit_s": "features.fit",
        "reproduce.features.build_s": "features.build",
        "reproduce.nn.fit_s": "nn.fit",
        "reproduce.eval_s": "eval",
        "reproduce.registry.save_s": "registry.save",
        "reproduce.hategen.prepare_s": "hategen.prepare",
        "reproduce.hategen.fit_s": "hategen.fit",
    }
    layers = {key: total(name) for key, name in phases.items()}
    layers["reproduce.data.generate_s"] = total("generate")
    layers["reproduce.unattributed_s"] = train_s - sum(layers[k] for k in phases)
    layers["reproduce.nn.step_ms"] = (layers["reproduce.nn.fit_s"] * 1e3 / r["steps"]
                                      if r["steps"] else 0.0)
    layers.update(spanlib.serve_layers(tree, r["t_predict"], r["t_served"], r["predict_ms"]))
    layers.update(spanlib.setup_layers(tree, r["serve_setup_s"]))
    layers.update(_hit_rates(*r["caches"]))
    return layers


# ------------------------------------------------------------------- main
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A shell that starts this in the background may have set SIGINT to
    # "ignore", and children inherit that: `repro serve` would then never
    # see the SIGINT that stops it.  A handled signal resets to the default
    # across exec, so children get a working Ctrl-C path.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    out = Outcome()
    try:
        if args.workload == "reproduce":
            plain, traced = run_reproduce(args, workdir, out)
        else:
            plain, traced = run_serve(args.workload, args, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    diagnostics = {k: v for k, v in plain.items()
                   if k not in END_TO_END and isinstance(v, (int, float))}
    if args.trace:
        # Serve workloads do not train in the traced session (training is
        # not traced), so they have no train_s overhead.
        diagnostics["trace_overhead"] = {k: traced[k] - plain[k] for k in END_TO_END
                                         if k in traced}
        diagnostics["span_counts"] = traced["span_counts"]
        layers = traced["layers"]
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(plain[k]), "unit": u} for k, u in END_TO_END.items()}
    diagnostics["problems"] = out.problems
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
