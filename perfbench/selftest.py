"""Smoke test of the benchmark itself.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
(about four minutes on two cores).  For every workload it makes a short
untraced and a short traced run and checks that:

- the last line is the result object with exactly the contract's keys,
  outputs are correct, nothing failed, and no process was left behind;
- the untraced run prints every end-to-end metric, each positive;
- the traced run prints every per-layer metric, holds at least one span
  of every wrapped layer the workload exercises, and its time account
  closes (the front-end residual is not negative);

and that ``run.py`` refuses to run, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: Span names each workload's traced run must contain.
SERVE_SPANS = {"predict_batch", "candidate_block", "forward", "load_bundle", "replay",
               "engine_from_store"}
INGEST_SPANS = {"ingest", "append", "apply", "invalidate"}
EXPECTED_SPANS = {
    "serve_hot": SERVE_SPANS,
    "serve_ingest": SERVE_SPANS | INGEST_SPANS,
    "reproduce": SERVE_SPANS | {"generate", "features.fit", "features.build", "nn.fit", "eval",
                                "registry.save", "hategen.prepare", "hategen.fit"},
}


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def check(workload: str, trace: int, spec: dict) -> list[str]:
    code, lines = run(workload, trace)
    if code != 0 or len(lines) < 2:
        return [f"{workload} trace={trace}: exit {code}"]
    result, diagnostics = json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} {diagnostics['problems']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        errors.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not all(math.isfinite(v) for v in values.values()):
        errors.append("non-finite metric")
    if trace:
        missing = EXPECTED_SPANS[workload] - set(diagnostics["span_counts"])
        if missing:
            errors.append(f"no spans for {sorted(missing)}")
        if values.get("serve.front.residual_ms", 0.0) < 0:
            errors.append("server spans exceed the client's time")
    elif not all(v > 0 for v in values.values()):
        errors.append(f"non-positive end-to-end metric: {values}")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def check_refuses_without_source(spec_path: str) -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(spec_path, bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("serve_hot", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        return [f"bare directory: exit {code}, printed {lines[-1:]}"]
    return []


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    errors = check_refuses_without_source(spec_path)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
