"""Versioned on-disk model registry for trained predictor bundles.

A *bundle* is everything needed to answer prediction queries without
re-training: model weights, the fitted feature-extractor state, the
synthetic world the model was trained on (so loading reads it instead of
generating it again), and manifest metadata (kind, mode, feature dims,
world and train config, metrics).

Store layout::

    <root>/
      <name>/
        v0001/
          manifest.json      # kind, dims, world/train config, metrics
          weights.npz        # RETINA state dict        (kind == "retina")
          model.pkl          # fitted classifier chain  (kind == "hategen")
          extractor.json     # feature-extractor state, JSON part
          extractor.npz      # feature-extractor state, ndarray part
          world.json         # the training world (seq 0), JSON part
          world.npz          # the training world, ndarray part

Versions are immutable and monotonically increasing; ``save_bundle``
writes into a temp directory and renames it so readers never observe a
half-written version.  Extractor and world state split into JSON +
``.npz`` via a generic nested-dict flattener (ndarray leaves go to the npz
keyed by their path), keeping every artifact inspectable with stdlib +
numpy only.  A bundle saved before worlds were stored has no ``world.*``
files; loading it generates the world from the manifest's config.

Aliases (``set_alias("prod", name, version)``) live in a root-level
``aliases.json`` rewritten atomically (temp file + ``os.replace``), so an
alias either points at its old target or its new one — never at a torn
file.  Every read API accepts an alias wherever it accepts a model name.

Lookups that find nothing raise :class:`RegistryError` (a
``FileNotFoundError`` subclass) carrying the searched ``root``/``name``/
``version`` so the serving API can surface them as 404s with a useful
message instead of opaque 500s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import shutil
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro import chaos
from repro.core.hategen.features import HateGenFeatureExtractor
from repro.core.retina.features import RetinaFeatureExtractor
from repro.core.retina.model import RETINA
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.obs import log as obs_log

__all__ = [
    "RetinaBundle",
    "HateGenBundle",
    "ModelRegistry",
    "RegistryError",
    "RegistryCorruptError",
]

_log = obs_log.get_logger("repro.serving.registry")

MANIFEST_SCHEMA = 1
_ARRAY_KEY = "__ndarray__"
_VERSION_RE = re.compile(r"^v(\d{4,})$")
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")
ALIASES_FILE = "aliases.json"
_WORLD_FILES = ("world.json", "world.npz")
#: What a damaged artifact that passed (or predates) its checksum raises
#: while decoding; load turns each into a :class:`RegistryCorruptError`.
_DECODE_ERRORS = (
    zipfile.BadZipFile,
    pickle.UnpicklingError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    EOFError,
    KeyError,
    ValueError,
    OSError,
)


class RegistryError(FileNotFoundError):
    """A registry lookup found nothing; records what was searched.

    Subclasses ``FileNotFoundError`` so pre-v1 callers that caught that
    keep working, while the serving API can map it to a 404 with the
    searched ``root``/``name``/``version`` in the message.
    """

    def __init__(
        self,
        message: str,
        *,
        root: str | None = None,
        name: str | None = None,
        version: int | None = None,
    ):
        super().__init__(message)
        self.root = root
        self.name = name
        self.version = version


class RegistryCorruptError(RegistryError):
    """A committed bundle exists but failed integrity checks at load.

    Raised on checksum mismatch, truncated/undecodable artifacts, or a
    torn manifest.  Distinct from :class:`RegistryError` so the serving
    API can answer 409 ("the version you named is damaged") instead of
    404 ("no such version") — and keep the old predictor serving.
    """


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------- state <-> disk
def _split_arrays(obj, arrays: dict, path: tuple):
    """Replace ndarray leaves with references; collect them into ``arrays``."""
    if isinstance(obj, np.ndarray):
        key = "/".join(path)
        arrays[key] = obj
        return {_ARRAY_KEY: key}
    if isinstance(obj, dict):
        return {k: _split_arrays(v, arrays, path + (str(k),)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_split_arrays(v, arrays, path + (str(i),)) for i, v in enumerate(obj)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} at {'/'.join(path)}")


def _join_arrays(obj, arrays: dict):
    """Inverse of :func:`_split_arrays`."""
    if isinstance(obj, dict):
        if set(obj) == {_ARRAY_KEY}:
            return arrays[obj[_ARRAY_KEY]]
        return {k: _join_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_join_arrays(v, arrays) for v in obj]
    return obj


def save_state(directory: str, stem: str, state: dict) -> None:
    """Persist a nested state dict as ``<stem>.json`` + ``<stem>.npz``."""
    arrays: dict[str, np.ndarray] = {}
    meta = _split_arrays(state, arrays, ())
    with open(os.path.join(directory, f"{stem}.json"), "w") as fh:
        json.dump(meta, fh)
    np.savez(os.path.join(directory, f"{stem}.npz"), **arrays)


def load_state(directory: str, stem: str) -> dict:
    """Load a state dict written by :func:`save_state`."""
    with open(os.path.join(directory, f"{stem}.json")) as fh:
        meta = json.load(fh)
    with np.load(os.path.join(directory, f"{stem}.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    return _join_arrays(meta, arrays)


# ------------------------------------------------------------------ bundles
@dataclass
class RetinaBundle:
    """A trained RETINA model plus everything needed to serve it."""

    model: RETINA
    extractor: RetinaFeatureExtractor
    world_config: SyntheticWorldConfig
    train_config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    kind = "retina"

    def model_spec(self) -> dict:
        """Constructor arguments that rebuild an identical architecture."""
        m = self.model
        return {
            "user_dim": self.extractor.user_feature_dim,
            "tweet_dim": self.extractor.news_doc2vec_dim,
            "news_dim": self.extractor.news_doc2vec_dim,
            "hdim": m.hdim,
            "mode": m.mode,
            "use_exogenous": m.use_exogenous,
            "n_intervals": m.n_intervals,
            "recurrent_cell": m.recurrent_cell,
        }


@dataclass
class HateGenBundle:
    """A fitted hate-generation classifier chain plus its extractor.

    ``transforms`` are applied in order to the raw feature matrix before
    ``model`` (typically the fitted ``StandardScaler``, optionally PCA or
    the top-k selector, matching the training variant).
    """

    model: object
    transforms: list
    extractor: HateGenFeatureExtractor
    world_config: SyntheticWorldConfig
    model_key: str = ""
    variant: str = ""
    train_config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    kind = "hategen"


# ----------------------------------------------------------------- registry
class ModelRegistry:
    """Append-only versioned store of predictor bundles under one root dir."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------- listing
    def list_models(self) -> list[str]:
        """Model names with at least one committed version."""
        names = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.isdir(os.path.join(self.root, entry)) and self.list_versions(entry):
                names.append(entry)
        return names

    def list_versions(self, name: str) -> list[int]:
        """Committed version numbers for ``name``, ascending."""
        model_dir = os.path.join(self.root, name)
        if not os.path.isdir(model_dir):
            return []
        versions = []
        for entry in os.listdir(model_dir):
            m = _VERSION_RE.match(entry)
            if m and os.path.exists(os.path.join(model_dir, entry, "manifest.json")):
                versions.append(int(m.group(1)))
        return sorted(versions)

    def latest_version(self, name: str) -> int:
        versions = self.list_versions(name)
        if not versions:
            raise RegistryError(
                f"no versions of model {name!r} in registry {self.root!r}",
                root=self.root,
                name=name,
            )
        return versions[-1]

    def _version_dir(self, name: str, version: int) -> str:
        return os.path.join(self.root, name, f"v{version:04d}")

    def resolve(self, ref: str, version: int | None = None) -> tuple[str, int]:
        """``(name, version)`` for a model name or alias.

        A model name resolves to itself (``version`` or its latest); an
        alias resolves to its pinned target — an explicit ``version``
        then overrides the pin.  Model names shadow aliases.
        """
        if self.list_versions(ref):
            return ref, version if version is not None else self.latest_version(ref)
        target = self.aliases().get(ref)
        if target is not None:
            return target["name"], version if version is not None else target["version"]
        raise RegistryError(
            f"no model or alias {ref!r} in registry {self.root!r}",
            root=self.root,
            name=ref,
            version=version,
        )

    def manifest(self, name: str, version: int | None = None) -> dict:
        """The manifest of one version (latest by default; aliases accepted)."""
        name, version = self.resolve(name, version)
        path = os.path.join(self._version_dir(name, version), "manifest.json")
        if not os.path.exists(path):
            raise RegistryError(
                f"no manifest for model {name!r} v{version:04d} in registry "
                f"{self.root!r} (committed versions: {self.list_versions(name)})",
                root=self.root,
                name=name,
                version=version,
            )
        try:
            with open(path) as fh:
                return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RegistryCorruptError(
                f"manifest for model {name!r} v{version:04d} in registry "
                f"{self.root!r} is not valid JSON: {exc}",
                root=self.root,
                name=name,
                version=version,
            ) from exc

    # ------------------------------------------------------------- aliases
    def _aliases_path(self) -> str:
        return os.path.join(self.root, ALIASES_FILE)

    def aliases(self, name: str | None = None) -> dict[str, dict]:
        """``{alias: {"name", "version"}}``, optionally for one model only."""
        try:
            with open(self._aliases_path()) as fh:
                aliases = json.load(fh)
        except FileNotFoundError:
            return {}
        if name is not None:
            aliases = {a: t for a, t in aliases.items() if t["name"] == name}
        return aliases

    def _write_aliases(self, aliases: dict[str, dict]) -> None:
        """Atomically rewrite ``aliases.json`` (temp file + rename)."""
        tmp = os.path.join(self.root, f".{ALIASES_FILE}.tmp-{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(aliases, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._aliases_path())
        _fsync_dir(self.root)

    def set_alias(self, alias: str, name: str, version: int | None = None) -> dict:
        """Point ``alias`` at ``name``/``version`` (latest pinned at call time).

        The target version must be committed; an alias may not shadow an
        existing model name.  Returns the stored target.
        """
        if not _NAME_RE.fullmatch(alias):
            raise ValueError(f"invalid alias {alias!r}")
        if self.list_versions(alias):
            raise ValueError(f"alias {alias!r} would shadow a model of the same name")
        version = version if version is not None else self.latest_version(name)
        if version not in self.list_versions(name):
            raise RegistryError(
                f"cannot alias {alias!r}: model {name!r} has no committed "
                f"v{version:04d} in registry {self.root!r}",
                root=self.root,
                name=name,
                version=version,
            )
        target = {"name": name, "version": int(version)}
        aliases = self.aliases()
        aliases[alias] = target
        self._write_aliases(aliases)
        return target

    def delete_alias(self, alias: str) -> bool:
        """Drop ``alias``; returns whether it existed."""
        aliases = self.aliases()
        existed = aliases.pop(alias, None) is not None
        if existed:
            self._write_aliases(aliases)
        return existed

    # -------------------------------------------------------------- saving
    def save_bundle(self, name: str, bundle) -> dict:
        """Persist a bundle as the next version of ``name``; return its manifest."""
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid model name {name!r}")
        if name in self.aliases():
            raise ValueError(f"model name {name!r} is already taken by an alias")
        if bundle.kind not in ("retina", "hategen"):
            raise ValueError(f"unknown bundle kind {bundle.kind!r}")
        world = bundle.extractor.world
        if world.config != bundle.world_config:
            raise ValueError(
                f"bundle world_config {bundle.world_config} is not the config "
                f"of its extractor's world {world.config}"
            )
        world_state = world.to_state()  # refuses a world past seq 0
        model_dir = os.path.join(self.root, name)
        os.makedirs(model_dir, exist_ok=True)
        tmp_dir = os.path.join(model_dir, f".tmp-{os.getpid()}-{id(bundle):x}")
        os.makedirs(tmp_dir)
        try:
            manifest = {
                "schema": MANIFEST_SCHEMA,
                "name": name,
                "kind": bundle.kind,
                "created_at": time.time(),
                "world_config": dataclasses.asdict(bundle.world_config),
                "train_config": dict(bundle.train_config),
                "metrics": {k: float(v) for k, v in bundle.metrics.items()},
            }
            if bundle.kind == "retina":
                manifest["model"] = bundle.model_spec()
                manifest["feature_dims"] = {
                    "user": bundle.extractor.user_feature_dim,
                    "tweet": bundle.extractor.news_doc2vec_dim,
                    "news": bundle.extractor.news_doc2vec_dim,
                }
                manifest["n_parameters"] = bundle.model.n_parameters()
                bundle.model.save(os.path.join(tmp_dir, "weights.npz"))
            else:
                manifest["model"] = {
                    "model_key": bundle.model_key,
                    "variant": bundle.variant,
                }
                with open(os.path.join(tmp_dir, "model.pkl"), "wb") as fh:
                    pickle.dump(
                        {"model": bundle.model, "transforms": list(bundle.transforms)},
                        fh,
                    )
            save_state(tmp_dir, "extractor", bundle.extractor.to_state())
            save_state(tmp_dir, "world", world_state)
            # Per-file SHA-256 over every artifact: a truncated or bit-rotted
            # file is detected at load instead of surfacing as an unpickling
            # traceback mid-reload.
            manifest["files"] = {
                entry: _sha256(os.path.join(tmp_dir, entry))
                for entry in sorted(os.listdir(tmp_dir))
            }
            if chaos.should_fire("registry.save"):
                # Torn-write injection: truncate the first artifact *after*
                # checksumming, so the damage is exactly what load must catch.
                victim = os.path.join(tmp_dir, sorted(manifest["files"])[0])
                size = os.path.getsize(victim)
                with open(victim, "rb+") as fh:
                    fh.truncate(max(size // 2, 1))
                _log.warning("registry.chaos_truncated", name=name, file=victim)
            # Claim a version by renaming into place; a concurrent saver that
            # wins the same number makes the rename fail, so recompute and
            # retry rather than discarding a fully trained bundle.
            for _ in range(100):
                versions = self.list_versions(name)
                version = (versions[-1] + 1) if versions else 1
                manifest["version"] = version
                # Manifest last: its presence marks the version as committed.
                with open(os.path.join(tmp_dir, "manifest.json"), "w") as fh:
                    json.dump(manifest, fh, indent=2, sort_keys=True)
                    fh.flush()
                    os.fsync(fh.fileno())
                # Durability before visibility: every artifact and the temp
                # directory itself hit disk before the rename publishes them.
                for entry in os.listdir(tmp_dir):
                    _fsync_file(os.path.join(tmp_dir, entry))
                _fsync_dir(tmp_dir)
                try:
                    os.rename(tmp_dir, self._version_dir(name, version))
                    _fsync_dir(model_dir)
                    break
                except OSError:
                    if not os.path.exists(self._version_dir(name, version)):
                        raise
                    # A concurrent saver won this version number; retry with
                    # the next one.
                    _log.warning(
                        "registry.version_claim_retry", name=name, version=version
                    )
            else:
                raise RuntimeError(
                    f"could not claim a version for {name!r} after 100 attempts"
                )
        except BaseException as exc:
            _log.error(
                "registry.save_failed",
                name=name,
                error=f"{type(exc).__name__}: {exc}"[:400],
            )
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        return manifest

    # ------------------------------------------------------------- loading
    def _verify_files(
        self, manifest: dict, directory: str, names: tuple[str, ...] | None = None
    ) -> None:
        """Check recorded per-file SHA-256 digests, of every artifact or of
        ``names`` only (pre-checksum bundles skip)."""
        files = manifest.get("files") or {}
        for fname, digest in sorted(files.items()):
            if names is not None and fname not in names:
                continue
            path = os.path.join(directory, fname)
            try:
                actual = _sha256(path)
            except OSError as exc:
                raise RegistryCorruptError(
                    f"bundle {manifest['name']!r} v{manifest['version']:04d} "
                    f"is missing artifact {fname!r}: {exc}",
                    root=self.root,
                    name=manifest["name"],
                    version=manifest["version"],
                ) from exc
            if actual != digest:
                _log.error(
                    "registry.checksum_mismatch",
                    name=manifest["name"],
                    version=manifest["version"],
                    file=fname,
                )
                raise RegistryCorruptError(
                    f"bundle {manifest['name']!r} v{manifest['version']:04d} "
                    f"artifact {fname!r} failed its SHA-256 check "
                    f"(expected {digest[:12]}…, got {actual[:12]}…)",
                    root=self.root,
                    name=manifest["name"],
                    version=manifest["version"],
                )

    def _decode_failed(self, manifest: dict, exc: BaseException) -> RegistryCorruptError:
        return RegistryCorruptError(
            f"bundle {manifest['name']!r} v{manifest['version']:04d} in "
            f"registry {self.root!r} failed to decode: "
            f"{type(exc).__name__}: {exc}",
            root=self.root,
            name=manifest["name"],
            version=manifest["version"],
        )

    def load_world(self, manifest: dict) -> tuple[SyntheticWorld, str]:
        """The world a bundle was trained on, and ``"snapshot"`` or
        ``"generate"`` for where it came from.

        Reads the bundle's saved world, whose config must equal the
        manifest's.  A bundle saved without one (before worlds were
        stored) generates it from the manifest's config.
        """
        if "world.json" not in (manifest.get("files") or {}):
            config = SyntheticWorldConfig(**manifest["world_config"])
            return SyntheticWorld.generate(config), "generate"
        directory = self._version_dir(manifest["name"], manifest["version"])
        self._verify_files(manifest, directory, _WORLD_FILES)
        try:
            state = load_state(directory, "world")
            if state["config"] != manifest["world_config"]:
                raise ValueError(
                    f"saved world config {state['config']} does not match "
                    f"the manifest's {manifest['world_config']}"
                )
            return SyntheticWorld.from_state(state), "snapshot"
        except _DECODE_ERRORS as exc:
            raise self._decode_failed(manifest, exc) from exc

    def load_bundle(
        self, name: str, version: int | None = None, *, world: SyntheticWorld | None = None
    ):
        """Load a bundle (latest version by default; aliases accepted).

        The bundle is served over its :meth:`load_world` unless an
        already-built ``world`` is supplied (it must come from the same
        config for features to match training).  Every artifact's checksum
        is checked either way: a damaged bundle is refused as a whole.
        """
        manifest = self.manifest(name, version)
        directory = self._version_dir(manifest["name"], manifest["version"])
        world_config = SyntheticWorldConfig(**manifest["world_config"])
        if world is None:
            world, _ = self.load_world(manifest)
        elif world.config != world_config:
            raise ValueError(
                f"supplied world config {world.config} does not match the "
                f"bundle's recorded config {world_config}"
            )
        self._verify_files(manifest, directory)
        try:
            state = load_state(directory, "extractor")
            if manifest["kind"] == "retina":
                extractor = RetinaFeatureExtractor.from_state(world, state)
                model = RETINA(**manifest["model"], random_state=0)
                model.load(os.path.join(directory, "weights.npz"))
                model.eval()
                return RetinaBundle(
                    model=model,
                    extractor=extractor,
                    world_config=world_config,
                    train_config=manifest["train_config"],
                    metrics=manifest["metrics"],
                )
            extractor = HateGenFeatureExtractor.from_state(world, state)
            with open(os.path.join(directory, "model.pkl"), "rb") as fh:
                payload = pickle.load(fh)
        except RegistryError:
            raise
        except _DECODE_ERRORS as exc:
            raise self._decode_failed(manifest, exc) from exc
        return HateGenBundle(
            model=payload["model"],
            transforms=payload["transforms"],
            extractor=extractor,
            world_config=world_config,
            model_key=manifest["model"]["model_key"],
            variant=manifest["model"]["variant"],
            train_config=manifest["train_config"],
            metrics=manifest["metrics"],
        )
