"""Overload: goodput and admitted latency of ``repro serve`` under open-loop load.

Trains the perfbench serving bundle (or takes ``--store``), starts
``repro serve`` on its defaults in its own process, and drives it from
this one with an asyncio load generator:

1. **capacity** — a closed loop on 64 keep-alive connections (each sends
   its next read when its reply is in); capacity is 200s per second.
   ``--capacity R`` skips the measurement, so variants of the server
   can be compared at the same offered rates.
2. **one open-loop leg per load** (0.5, 1 and 2 x capacity) — Poisson
   arrivals for 3 s.  Each read is sent at its
   scheduled time on an idle connection, or on a new one when every
   open connection has a read outstanding, so no answer ever gates an
   arrival.  Latency runs from the scheduled arrival: a server (or a
   generator) that falls behind cannot hide the wait (coordinated
   omission).

Each leg reports offered and answered reads, 200s, 429s with and
without ``Retry-After``, 503s, transport errors, admitted (200) p50 and
p99, goodput (200s within the p99 limit, per second) and the
generator's own send lateness, which says how far its figures can be
trusted.  The p99 limit is twice the 0.5x leg's admitted p99, plus
50 ms, unless ``--limit-ms`` fixes it.

``--check`` exits non-zero unless every leg answers every read, every
429 carries ``Retry-After``, the 2x leg sheds at least once, and (on
hosts with at least 2 cores, where the generator and the server need
not share one) the 2x leg's admitted p99 is within the limit.

Run:  PYTHONPATH=src python benchmarks/bench_overload.py [--check]
Compare another source tree's server with ``--root DIR``, or a server
without admission control with ``--serve-arg=--no-admission``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # executed as a script: make `benchmarks` importable
    sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "perfbench"))

import lifecycle  # noqa: E402
import load  # noqa: E402
from wire import Conn, Failed  # noqa: E402

from benchmarks.common import (  # noqa: E402
    add_json_out,
    available_cores,
    emit_report,
    floor_enforceable,
)

#: Offered load, as multiples of capacity; the lowest sets the p99 limit.
LOADS = (0.5, 1.0, 2.0)
LEG_SECONDS = 3.0
CAPACITY_CONNECTIONS = 64
CAPACITY_SECONDS = 2.0
#: The p99 limit is P99_FACTOR x the lowest load's admitted p99 + SLACK_MS.
P99_FACTOR = 2.0
SLACK_MS = 50.0
#: A read not answered within this is counted as a transport error.
READ_TIMEOUT_S = 30.0


class ServeProcess:
    """``repro serve`` from ``root`` on a fresh copy of ``store``."""

    def __init__(self, root: str, store: str, workdir: str, extra: list[str]):
        registry = os.path.join(workdir, "registry")
        shutil.copytree(store, registry)
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", registry,
             "--port", "0", *extra],
            cwd=root, env=lifecycle.child_env(root), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> int:
        """The port from the ``serving on`` line, once healthz answers."""
        deadline = time.perf_counter() + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if b"serving on http://" not in line:
            raise RuntimeError(f"server did not start:\n{lifecycle.tail(self.log_path)}")
        port = int(line.split(b"serving on http://", 1)[1].split()[0].rsplit(b":", 1)[1])
        conn = Conn(port, timeout=5.0)
        try:
            while True:
                try:
                    conn.get_json("/v1/healthz")
                    return port
                except Failed:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.01)
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the documented Ctrl-C path); SIGKILL the group as backstop."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
            if lifecycle.survivors(self.proc.pid):
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self._log.close()


class Connections:
    """Keep-alive connections, opened on demand, one per outstanding read."""

    def __init__(self, port: int):
        self.port = port
        self.idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.opened = 0

    async def roundtrip(self, request: bytes) -> tuple[int, bool]:
        """``(status, has Retry-After)`` of one request."""
        if self.idle:
            reader, writer = self.idle.pop()
        else:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.opened += 1
        try:
            writer.write(request)
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length, close, retry_after = 0, False, False
            for line in head[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
                elif name == "retry-after":
                    retry_after = True
            await reader.readexactly(length)
        except BaseException:
            writer.close()
            raise
        if close:
            writer.close()
        else:
            self.idle.append((reader, writer))
        return status, retry_after

    def close(self) -> None:
        for _, writer in self.idle:
            writer.close()
        self.idle.clear()


async def _send(conns: Connections, request: bytes, due: float, out: list) -> None:
    sent = time.perf_counter()
    try:
        status, retry_after = await asyncio.wait_for(
            conns.roundtrip(request), READ_TIMEOUT_S
        )
    except (OSError, EOFError, ValueError, IndexError, asyncio.TimeoutError):
        status, retry_after = 0, False
    out.append((due, sent, time.perf_counter(), status, retry_after))


async def closed_loop(port: int, requests: list[bytes], n_conns: int,
                      seconds: float) -> float:
    """200s per second of ``n_conns`` connections, one read outstanding each."""
    conns = Connections(port)
    stop_at = time.perf_counter() + seconds
    ok = [0]

    async def worker(i: int) -> None:
        while time.perf_counter() < stop_at:
            status, _ = await conns.roundtrip(requests[i % len(requests)])
            ok[0] += status == 200
            i += n_conns

    started = time.perf_counter()
    try:
        await asyncio.gather(*(worker(i) for i in range(n_conns)))
    finally:
        conns.close()
    return ok[0] / (time.perf_counter() - started)


async def open_loop(port: int, requests: list[bytes], rate: float, seconds: float,
                    seed: int) -> tuple[list, int]:
    """Poisson arrivals at ``rate``/s: ``(due, sent, done, status, retry_after)``
    per read, and the connections opened."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16))
    offsets = offsets[offsets < seconds]
    conns = Connections(port)
    out: list = []
    tasks = []
    start = time.perf_counter() + 0.05
    try:
        for k, offset in enumerate(offsets):
            due = start + float(offset)
            if (wait := due - time.perf_counter()) > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.ensure_future(
                _send(conns, requests[k % len(requests)], due, out)
            ))
        await asyncio.gather(*tasks)
    finally:
        conns.close()
    return out, conns.opened


def _ms(seconds) -> float:
    return round(float(seconds) * 1e3, 2)


def summarise(load_factor: float, rate: float, seconds: float, records: list,
              opened: int) -> dict:
    """One leg's counts, admitted latency and lateness (goodput comes later)."""
    rec = np.array([(due, sent, done) for due, sent, done, _, _ in records])
    status = np.array([r[3] for r in records])
    retry_after = np.array([r[4] for r in records], dtype=bool)
    admitted = (rec[:, 2] - rec[:, 0])[status == 200]
    lateness = rec[:, 1] - rec[:, 0]
    shed = status == 429
    leg = {
        "load": load_factor,
        "rate_rps": round(rate, 1),
        "seconds": seconds,
        "offered": len(records),
        "answered": int((status != 0).sum()),
        "ok": int((status == 200).sum()),
        "shed": int(shed.sum()),
        "shed_with_retry_after": int((shed & retry_after).sum()),
        "shed_without_retry_after": int((shed & ~retry_after).sum()),
        "overloaded_503": int((status == 503).sum()),
        "other_status": int((~np.isin(status, (0, 200, 429, 503))).sum()),
        "errors": int((status == 0).sum()),
        "connections_opened": opened,
        "generator_lateness_ms": {
            "p50": _ms(np.percentile(lateness, 50)),
            "p99": _ms(np.percentile(lateness, 99)),
            "max": _ms(lateness.max()),
        },
    }
    if admitted.size:
        leg["admitted_p50_ms"] = _ms(np.percentile(admitted, 50))
        leg["admitted_p99_ms"] = _ms(np.percentile(admitted, 99))
    leg["_admitted_s"] = admitted
    return leg


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capacity", type=float, default=0.0, metavar="RPS",
                        help="use this capacity instead of measuring it")
    parser.add_argument("--limit-ms", type=float, default=0.0,
                        help="fix the p99 limit (default: from the 0.5x "
                             "leg's p99), so that goodput compares across runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the read pool and the arrival gaps")
    parser.add_argument("--root", default=str(REPO),
                        help="source tree whose `repro serve` is measured")
    parser.add_argument("--store", default=None,
                        help="trained registry to serve (default: train one)")
    parser.add_argument("--serve-arg", action="append", default=[],
                        metavar="ARG", help="extra `repro serve` argument "
                        "(repeatable), e.g. --serve-arg=--no-admission")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate fails")
    add_json_out(parser)
    return parser.parse_args(argv)


def read_requests(store: str, seed: int) -> list[bytes]:
    """The encoded read pool of the served world (which is then freed)."""
    from repro.serving import ModelRegistry, RetweeterPredictor

    world = RetweeterPredictor(ModelRegistry(store).load_bundle("retina")).world
    return load.encode_reads(load.read_pool(world, seed))


def run(args, workdir: str) -> dict:
    store = args.store
    if store is None:
        store = os.path.join(workdir, "trained")
        lifecycle.train_registry(str(REPO), store, os.path.join(workdir, "train.log"))
    requests = read_requests(store, args.seed)

    server = ServeProcess(args.root, store, workdir, args.serve_arg)
    try:
        port = server.wait_ready()
        asyncio.run(closed_loop(port, requests, 8, 0.5))  # warm caches
        capacity = args.capacity or asyncio.run(closed_loop(
            port, requests, CAPACITY_CONNECTIONS, CAPACITY_SECONDS))
        legs = []
        for i, factor in enumerate(LOADS):
            rate = capacity * factor
            records, opened = asyncio.run(
                open_loop(port, requests, rate, LEG_SECONDS, args.seed * 100 + i))
            legs.append(summarise(factor, rate, LEG_SECONDS, records, opened))
        conn = Conn(port)
        try:
            admission = conn.get_json("/v1/metrics").get("admission")
        finally:
            conn.close()
    finally:
        server.stop()

    base, top = legs[0].get("admitted_p99_ms"), legs[-1].get("admitted_p99_ms")
    limit = args.limit_ms or (
        None if base is None else round(base * P99_FACTOR + SLACK_MS, 2))
    for leg in legs:
        admitted = leg.pop("_admitted_s")
        within = admitted.size if limit is None else int((admitted * 1e3 <= limit).sum())
        leg["goodput_rps"] = round(within / leg["seconds"], 1)
    return {
        "root": args.root,
        "serve_args": args.serve_arg,
        "cores": available_cores(),
        "capacity_rps": round(capacity, 1),
        "capacity_measured": not args.capacity,
        "legs": legs,
        "server_admission": admission,
        "p99_floor": {
            "factor": P99_FACTOR,
            "slack_ms": SLACK_MS,
            "limit_ms": limit,
            # A latency bound is a scheduling claim: on one core the
            # generator and the server share it and lateness leaks in.
            "enforced": floor_enforceable(2),
            "ok": limit is not None and top is not None and top <= limit,
        },
    }


def failures(results: dict) -> list[str]:
    """Why ``--check`` fails (empty when every gate holds)."""
    problems = []
    for leg in results["legs"]:
        name = f"{leg['load']}x"
        if leg["answered"] != leg["offered"]:
            problems.append(f"{name}: {leg['offered'] - leg['answered']} of "
                            f"{leg['offered']} reads got no HTTP response")
        if leg["shed_without_retry_after"]:
            problems.append(f"{name}: {leg['shed_without_retry_after']} 429s "
                            f"without Retry-After")
    top = results["legs"][-1]
    if top["shed"] < 1:
        problems.append(f"{top['load']}x: shed nothing; admission never engaged")
    floor = results["p99_floor"]
    if floor["enforced"] and not floor["ok"]:
        problems.append(f"{top['load']}x: admitted p99 {top.get('admitted_p99_ms')} ms "
                        f"over {floor['limit_ms']} ms ({floor['factor']}x the "
                        f"{results['legs'][0]['load']}x p99 + {floor['slack_ms']} ms)")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-overload-") as workdir:
        results = run(args, workdir)
    emit_report({"benchmark": "overload", "results": results}, args.json_out)
    if not args.check:
        return 0
    if not results["p99_floor"]["enforced"]:
        print(f"note: p99 floor skipped ({results['cores']} core(s): the "
              f"generator and the server share the CPU)", file=sys.stderr)
    problems = failures(results)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
