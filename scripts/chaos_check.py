"""Chaos gate for CI: seeded soak + kill-and-resume training recovery.

Two legs, both fully deterministic:

1. **Soak** — runs ``benchmarks/bench_chaos_soak.py --smoke --check`` in a
   subprocess (fresh metrics registry, fresh chaos state) and archives its
   JSON report.  The soak's own gates cover the serving stack: every
   request answered or typed-error'd under injected connection resets,
   zero hangs, paged I/O and registry corruption surfaced typed,
   bit-identical scores once chaos is off.

2. **Kill-and-resume** — a child process trains RETINA with per-epoch
   checkpoints and is SIGKILLed the moment the first checkpoint lands
   (mid-fit, no cleanup).  The parent resumes the same schedule from the
   checkpoint directory, and the resumed weights must be bit-identical to
   an uninterrupted run.

Run:  PYTHONPATH=src python scripts/chaos_check.py
Exit code 0 = every gate holds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer  # noqa: E402
from repro.data import HateDiffusionDataset, SyntheticWorldConfig  # noqa: E402

#: Serial epochs over 24 cascades take ~40 ms each on a 2-vCPU VM; 20 of
#: them leave the parent's 50 ms poll ample room to kill mid-fit.
EPOCHS = 20


def _samples():
    cfg = SyntheticWorldConfig(
        scale=0.01, n_hashtags=5, n_users=90, n_news=200, seed=11
    )
    ds = HateDiffusionDataset.generate(cfg)
    train, _ = ds.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(ds.world, random_state=0).fit(train)
    edges = RetinaTrainer.default_interval_edges()
    return extractor, extractor.build_samples(
        train[:24], interval_edges_hours=edges, random_state=0
    )


def _trainer(extractor, checkpoint_dir: str | None):
    model = RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode="static",
        random_state=0,
    )
    return RetinaTrainer(
        model,
        epochs=EPOCHS,
        random_state=0,
        checkpoint_dir=checkpoint_dir,
    )


def _train_child(checkpoint_dir: str) -> int:
    """Child mode: train with checkpoints until killed (or done)."""
    extractor, samples = _samples()
    _trainer(extractor, checkpoint_dir).fit(samples)
    return 0


def _kill_and_resume_leg() -> dict:
    with tempfile.TemporaryDirectory() as ckpt_dir:
        checkpoint = Path(ckpt_dir) / "checkpoint.npz"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # Own session, so the SIGKILL below can target the child's group.
        child = subprocess.Popen(
            [sys.executable, __file__, "--train-child", ckpt_dir],
            env=env,
            start_new_session=True,
        )
        # SIGKILL the instant the first checkpoint lands: mid-fit, mid-epoch
        # bookkeeping, no atexit, no cleanup.
        deadline = time.monotonic() + 600
        killed_mid_fit = False
        while time.monotonic() < deadline:
            if checkpoint.exists():
                os.killpg(child.pid, signal.SIGKILL)
                killed_mid_fit = True
                break
            if child.poll() is not None:
                break
            time.sleep(0.05)
        child.wait(timeout=60)
        if not killed_mid_fit:
            return {
                "killed_mid_fit": False,
                "resumed_epoch": None,
                "bit_identical": False,
            }
        with np.load(checkpoint, allow_pickle=False) as data:
            killed_at_epoch = int(data["epoch"])

        extractor, samples = _samples()
        resumed = _trainer(extractor, ckpt_dir)
        resumed.fit(samples)

    baseline = _trainer(extractor, None)
    baseline.fit(samples)
    base_state = baseline.model.state_dict()
    res_state = resumed.model.state_dict()
    bit_identical = set(base_state) == set(res_state) and all(
        np.array_equal(base_state[k], res_state[k]) for k in base_state
    )
    return {
        # A kill after the last epoch's checkpoint interrupted nothing.
        "killed_mid_fit": killed_at_epoch < EPOCHS - 1,
        "killed_after_epoch": killed_at_epoch,
        "epochs": EPOCHS,
        "bit_identical": bit_identical,
    }


def _soak_leg(json_out: str) -> dict:
    cmd = [
        sys.executable,
        str(REPO_ROOT / "benchmarks" / "bench_chaos_soak.py"),
        "--smoke",
        "--check",
        "--json-out",
        json_out,
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    gates = {}
    try:
        gates = json.loads(Path(json_out).read_text())["results"]["gates"]
    except (OSError, KeyError, json.JSONDecodeError):
        pass
    return {"exit_code": proc.returncode, "ok": proc.returncode == 0,
            "gates": gates, "report": json_out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-child", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)  # internal: the killed child
    parser.add_argument("--soak-json", default="BENCH_chaos_soak.json",
                        help="where the soak leg archives its JSON report")
    parser.add_argument("--skip-soak", action="store_true",
                        help="run only the kill-and-resume leg")
    args = parser.parse_args(argv)
    if args.train_child:
        return _train_child(args.train_child)

    summary: dict = {}
    ok = True
    if not args.skip_soak:
        print("== chaos soak (seeded, --check) ==", flush=True)
        summary["soak"] = _soak_leg(args.soak_json)
        ok &= summary["soak"]["ok"]

    print("== kill-and-resume training recovery ==", flush=True)
    leg = _kill_and_resume_leg()
    summary["kill_and_resume"] = leg
    ok &= leg["killed_mid_fit"] and leg["bit_identical"]

    print(json.dumps(summary, indent=2))
    if not ok:
        print("FAIL: chaos check gate(s) failed", file=sys.stderr)
        return 1
    print("chaos check: all gates hold")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
