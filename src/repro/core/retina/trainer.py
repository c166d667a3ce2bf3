"""RETINA training loop (paper Sec. VI-D).

Mini-batch training with the Eq. 6 weighted BCE.  Defaults follow the
paper's tuning: Adam for static mode (batch 16, lambda 2.0), SGD lr 1e-2
for dynamic mode (batch 32, lambda 2.5).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.retina.features import RetinaSample
from repro.core.retina.model import RETINA, interval_edges_hours
from repro.nn import Adam, SGD, Tensor
from repro.nn.losses import positive_class_weight, weighted_bce_with_logits
from repro.obs import log as obs_log
from repro.utils.rng import ensure_rng

__all__ = ["RetinaTrainer"]

_log = obs_log.get_logger("repro.train")


def _grad_norm(params) -> float:
    """Global L2 norm of the current parameter gradients (read-only)."""
    acc = 0.0
    for p in params:
        if p.grad is not None:
            acc += float(np.dot(p.grad.ravel(), p.grad.ravel()))
    return float(np.sqrt(acc))


class RetinaTrainer:
    """Trains a RETINA model on per-cascade samples.

    Each optimisation step consumes one cascade's candidate batch (the
    candidates of one tweet share the tweet/news context, so the cascade is
    the natural mini-batch; ``batch_size`` caps the candidates per step).
    """

    def __init__(
        self,
        model: RETINA,
        *,
        lam: float | None = None,
        lr: float | None = None,
        optimizer: str | None = None,
        batch_size: int | None = None,
        epochs: int = 3,
        random_state=None,
        checkpoint_dir: str | None = None,
    ):
        self.model = model
        dynamic = model.mode == "dynamic"
        # Paper defaults per mode.
        self.lam = lam if lam is not None else (2.5 if dynamic else 2.0)
        self.lr = lr if lr is not None else (1e-2 if dynamic else 1e-3)
        self.optimizer_name = optimizer or ("sgd" if dynamic else "adam")
        self.batch_size = batch_size if batch_size is not None else (32 if dynamic else 16)
        self.epochs = epochs
        self.random_state = random_state
        #: Budget (in float64 elements, ~64 MB default) for pre-assembled
        #: mini-batch rows pinned across epochs; beyond it samples fall
        #: back to per-step lazy assembly.  Purely a speed/memory knob —
        #: assembled values are identical either way.
        self.row_cache_elems = 8_000_000
        #: When set, an atomic ``checkpoint.npz`` (weights + optimiser state
        #: + RNG state + completed epoch) is written after every epoch and
        #: auto-resumed by the next :meth:`fit` with the same configuration
        #: — resumed weights are bit-identical to an uninterrupted run, so a
        #: SIGKILL mid-fit loses at most one epoch.
        self.checkpoint_dir = checkpoint_dir
        if self.optimizer_name not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {optimizer!r}")

    # ---------------------------------------------------------- checkpoints
    def _fingerprint(self, n_samples: int) -> str:
        """The training configuration a checkpoint is only valid for."""
        return json.dumps(
            {
                "mode": self.model.mode,
                "optimizer": self.optimizer_name,
                "lam": self.lam,
                "lr": self.lr,
                "batch_size": self.batch_size,
                "epochs": self.epochs,
                "n_samples": n_samples,
            },
            sort_keys=True,
        )

    def _checkpoint_path(self) -> str:
        return os.path.join(self.checkpoint_dir, "checkpoint.npz")

    def _save_checkpoint(self, opt, rng, order, epoch: int, fingerprint: str) -> None:
        """Atomically persist everything needed to continue after ``epoch``.

        Temp file + fsync + ``os.replace`` + directory fsync: a SIGKILL at
        any instant leaves either the previous checkpoint or the new one,
        never a torn file.  RNG state rides along as JSON so the resumed
        epoch draws the exact shuffles/subsamples the uninterrupted run
        would have drawn.
        """
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        payload = {f"model/{k}": v for k, v in self.model.state_dict().items()}
        for k, v in opt.state_dict().items():
            payload[f"opt/{k}"] = np.asarray(v)
        payload["rng_state"] = np.array(json.dumps(rng.bit_generator.state))
        # The epoch shuffle is cumulative (each epoch permutes the previous
        # order), so the current permutation is training state too.
        payload["order"] = np.asarray(order, dtype=np.int64)
        payload["epoch"] = np.array(epoch, dtype=np.int64)
        payload["fingerprint"] = np.array(fingerprint)
        path = self._checkpoint_path()
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dfd = os.open(self.checkpoint_dir, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
        _log.info("train.checkpoint", epoch=epoch, path=path)

    def _resume(self, opt, rng, order, fingerprint: str) -> int:
        """Restore a checkpoint when present; returns the epoch to start at."""
        path = self._checkpoint_path()
        if not os.path.exists(path):
            return 0
        with np.load(path) as data:
            saved_fp = str(data["fingerprint"])
            if saved_fp != fingerprint:
                raise ValueError(
                    f"checkpoint at {path!r} was written by a different "
                    f"training configuration ({saved_fp}) than the one "
                    f"resuming ({fingerprint})"
                )
            model_state = {
                k[len("model/"):]: data[k]
                for k in data.files
                if k.startswith("model/")
            }
            opt_state = {
                k[len("opt/"):]: data[k] for k in data.files if k.startswith("opt/")
            }
            rng_json = str(data["rng_state"])
            order[...] = data["order"]
            epoch = int(data["epoch"])
        self.model.load_state_dict(model_state)
        opt.load_state_dict(opt_state)
        rng.bit_generator.state = json.loads(rng_json)
        _log.info("train.resume", completed_epoch=epoch, path=path)
        return epoch + 1

    def _pos_weight(self, samples: list[RetinaSample]) -> float:
        n_total = sum(len(s.labels) for s in samples)
        n_pos = int(sum(s.labels.sum() for s in samples))
        return positive_class_weight(max(n_total, 2), max(n_pos, 1), self.lam)

    def fit(self, samples: list[RetinaSample]) -> "RetinaTrainer":
        """Train on a list of cascade samples.

        Per-sample state that the seed loop rebuilt on every epoch — the
        index range, the positive/negative split, the tweet/news tensor
        wraps, and (for samples that fit in one mini-batch) the assembled
        feature rows — is hoisted out of the epoch loop.  The RNG stream is
        untouched: only the shuffle and the negative subsampling draw from
        it, exactly as before, so trained weights stay bit-identical to the
        seed schedule (``repro.nn.reference.fit_reference``).
        """
        if not samples:
            raise ValueError("fit requires at least one sample")
        rng = ensure_rng(self.random_state)
        params = self.model.parameters()
        opt = (
            Adam(params, lr=self.lr)
            if self.optimizer_name == "adam"
            else SGD(params, lr=self.lr, momentum=0.9)
        )
        w = self._pos_weight(samples)
        dynamic = self.model.mode == "dynamic"
        batch_size = self.batch_size
        model = self.model
        # ----- hoisted per-sample state (constant across epochs) ---------
        # Samples that fit in one mini-batch may also pre-assemble their
        # rows, but only up to a fixed budget: pinning every tiled matrix
        # would undo the block-structured samples' memory design on large
        # corpora (row assembly itself is cheap; the caching is a bonus).
        row_budget = self.row_cache_elems
        prepared = []
        for sample in samples:
            n = len(sample.labels)
            tweet = Tensor(sample.tweet_vec)
            news = Tensor(sample.news_vecs)
            targets_all = sample.interval_labels if dynamic else sample.labels
            if n > batch_size:
                # Subsampled every step: keep the index split, not the rows.
                pos = np.flatnonzero(sample.labels == 1)
                neg = np.flatnonzero(sample.labels == 0)
                prepared.append((sample, tweet, news, targets_all, pos, neg, None, None))
                continue
            idx = np.arange(n)
            X = targets = None
            rows_elems = n * (
                sample.cand_features.shape[1] + sample.shared_features.shape[0]
            )
            if rows_elems <= row_budget:
                # Whole cascade is one mini-batch: assemble rows and targets
                # once for all epochs (bit-identical to re-assembly).
                row_budget -= rows_elems
                X = Tensor(sample.rows(idx))
                targets = targets_all[idx]
            prepared.append((sample, tweet, news, targets_all, idx, None, X, targets))
        order = np.arange(len(samples))
        fingerprint = ""
        start_epoch = 0
        if self.checkpoint_dir is not None:
            fingerprint = self._fingerprint(len(samples))
            start_epoch = self._resume(opt, rng, order, fingerprint)
        # Telemetry only *reads* training state (loss scalars, gradient
        # norms): no RNG draw, no weight write — trained weights stay
        # bit-identical with logging on or off.
        track = _log.enabled_for("info")
        if track:
            _log.info(
                "fit.start",
                n_samples=len(samples),
                epochs=self.epochs,
                mode=self.model.mode,
                optimizer=self.optimizer_name,
            )
        fit_t0 = time.perf_counter()
        for epoch in range(start_epoch, self.epochs):
            epoch_t0 = time.perf_counter()
            loss_sum, steps = 0.0, 0
            rng.shuffle(order)
            for si in order:
                sample, tweet, news, targets_all, pos, neg, X, targets = prepared[si]
                if X is None:
                    if neg is None:
                        idx = pos  # precomputed arange(n): no subsampling
                    else:
                        # Keep all positives, subsample negatives.
                        keep_neg = rng.choice(
                            neg, size=max(1, batch_size - len(pos)), replace=False
                        ) if len(neg) else np.array([], dtype=int)
                        idx = np.concatenate([pos, keep_neg])
                    # Lazy assembly: only the mini-batch rows materialise;
                    # the sample never stores the tiled shared block.
                    X = Tensor(sample.rows(idx))
                    targets = targets_all[idx]
                logits = model(X, tweet, news)
                loss = weighted_bce_with_logits(logits, targets, pos_weight=w)
                opt.zero_grad()
                loss.backward()
                opt.step()
                if track:
                    loss_sum += float(loss.data)
                    steps += 1
            if track:
                epoch_s = time.perf_counter() - epoch_t0
                _log.info(
                    "train.epoch",
                    epoch=epoch,
                    mean_loss=round(loss_sum / max(steps, 1), 6),
                    grad_norm=round(_grad_norm(params), 6),
                    steps=steps,
                    step_ms=round(epoch_s / max(steps, 1) * 1e3, 3),
                    epoch_s=round(epoch_s, 3),
                )
            if self.checkpoint_dir is not None:
                self._save_checkpoint(opt, rng, order, epoch, fingerprint)
        if track:
            _log.info(
                "fit.end",
                epochs=self.epochs,
                duration_s=round(time.perf_counter() - fit_t0, 3),
            )
        return self

    # ------------------------------------------------------------ inference
    def predict_sample(self, sample: RetinaSample) -> np.ndarray:
        """Per-candidate probabilities for one cascade.

        Static mode: (n,) P(retweet).  Dynamic mode: (n, n_intervals)
        per-interval probabilities.
        """
        return self.model.predict_proba_blocks(
            sample.cand_features,
            sample.shared_features,
            sample.tweet_vec,
            sample.news_vecs,
        )

    def predict_static_scores(self, sample: RetinaSample) -> np.ndarray:
        """(n,) ever-retweets score, collapsing intervals in dynamic mode."""
        proba = self.predict_sample(sample)
        if self.model.mode == "dynamic":
            return RETINA.static_score_from_dynamic(proba)
        return proba

    @staticmethod
    def default_interval_edges() -> np.ndarray:
        """Fig. 8 interval edges in hours (for building dynamic labels)."""
        return interval_edges_hours()
