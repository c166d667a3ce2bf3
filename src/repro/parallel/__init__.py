"""The worker-count policy that ``perfbench/reproduce.py`` imports.

Training, feature builds and serving all run in one process, so nothing in
the library calls :func:`resolve_workers`.  It stays because that script,
its only caller, resolves a count and passes it to signatures that accept
and ignore it.
"""

from __future__ import annotations

__all__ = ["resolve_workers"]


def resolve_workers(workers: int | None = None, *, default: int | None = 1) -> int:
    """``workers`` when given, else ``default``; always at least 1."""
    return max(1, int(workers if workers is not None else (default or 1)))
