"""Memory-mapped, LRU-paged row matrices for world-scale feature stores.

The dense :class:`~repro.features.store.FeatureStore` allocates
``np.zeros((n_users, d))`` up front — resident memory linear in world
size, which caps worlds near 10^4 users.  :class:`PagedMatrix` keeps the
matrix in a sparse temporary file instead and pages fixed-size row
blocks through a bounded LRU of in-memory copies:

- reads/writes touch the backing file through **transient**
  ``np.memmap`` views scoped to one block (created, copied, unmapped) —
  a persistent whole-file mapping would count every page ever touched
  against the process high-water RSS, defeating the point;
- resident state is ``max_pages`` block copies plus one in-flight block
  view, so RSS is bounded by the page budget, not ``n_rows``;
- the backing file is created sparse (``ftruncate``), so untouched
  regions of a million-row matrix cost neither RAM nor disk.

:class:`ValidityBitmap` packs the per-row "has this row been filled"
flag into bits (vs the dense store's byte-per-row bool array) with the
small ndarray-assignment surface the store uses.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import OrderedDict

import numpy as np

from repro import chaos
from repro.obs import log as obs_log

__all__ = ["PagedMatrix", "PagedIOError", "ValidityBitmap"]

_log = obs_log.get_logger("repro.features.paged")

#: I/O attempts per block operation (1 initial + retries with tiny backoff).
_IO_ATTEMPTS = 3
_IO_BACKOFF_S = 0.002


class PagedIOError(OSError):
    """Block I/O against the backing file failed after retries.

    Carries the failing ``path``/``bid``/``op`` so the feature store can
    decide to recompute the rows through its builder path instead of
    failing the request.
    """

    def __init__(self, op: str, bid: int, path: str, cause: OSError):
        super().__init__(
            cause.errno or 0,
            f"paged {op} of block {bid} failed after {_IO_ATTEMPTS} attempts: {cause}",
        )
        self.op = op
        self.bid = bid
        self.filename = path
        self.__cause__ = cause


class ValidityBitmap:
    """Packed per-row validity bits with ndarray-style assignment.

    Supports exactly the access patterns the feature store uses:
    ``bm[i]`` (scalar bool), ``bm[idx_array]`` (bool array),
    ``bm[idx] = True`` and ``bm[:] = False``.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self._bits = np.zeros((self.n + 7) // 8, dtype=np.uint8)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            idx = np.arange(*idx.indices(self.n))
            return (self._bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1 == 1
        arr = np.asarray(idx)
        if arr.ndim == 0:
            i = int(arr)
            return bool((self._bits[i >> 3] >> (i & 7)) & 1)
        return (self._bits[arr >> 3] >> (arr & 7).astype(np.uint8)) & 1 == 1

    def __setitem__(self, idx, value) -> None:
        if isinstance(idx, slice):
            if idx == slice(None) and not value:
                self._bits[:] = 0
                return
            idx = np.arange(*idx.indices(self.n))
        arr = np.atleast_1d(np.asarray(idx))
        bytes_ = arr >> 3
        masks = np.uint8(1) << (arr & 7).astype(np.uint8)
        if value:
            np.bitwise_or.at(self._bits, bytes_, masks)
        else:
            np.bitwise_and.at(self._bits, bytes_, ~masks)

    def count(self) -> int:
        """Number of set bits."""
        return int(np.unpackbits(self._bits).sum())


class PagedMatrix:
    """A ``(n_rows, n_cols)`` matrix in a sparse file, paged by row block.

    Parameters
    ----------
    n_rows, n_cols, dtype:
        Logical matrix shape and element type.
    page_rows:
        Rows per block (the paging granularity).
    max_pages:
        LRU budget: at most this many blocks stay resident as ndarray
        copies.  Peak resident bytes ≈
        ``max_pages * page_rows * n_cols * itemsize``.
    dir:
        Directory for the backing file (default: the system tempdir, or
        ``REPRO_FEATURE_MMAP_DIR`` when set).
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        dtype=np.float64,
        *,
        page_rows: int = 256,
        max_pages: int = 64,
        dir: str | None = None,
    ):
        if n_rows < 0 or n_cols <= 0:
            raise ValueError(f"bad shape ({n_rows}, {n_cols})")
        if page_rows <= 0 or max_pages <= 0:
            raise ValueError("page_rows and max_pages must be positive")
        self.shape = (int(n_rows), int(n_cols))
        self.dtype = np.dtype(dtype)
        self.page_rows = int(page_rows)
        self.max_pages = int(max_pages)
        self._nbytes = self.shape[0] * self.shape[1] * self.dtype.itemsize
        dir = dir or os.environ.get("REPRO_FEATURE_MMAP_DIR") or None
        fd, self.path = tempfile.mkstemp(prefix="repro-paged-", suffix=".mmap", dir=dir)
        self._fd = fd
        os.ftruncate(fd, max(self._nbytes, 1))
        # block id -> ndarray copy of the block's rows; insertion order = LRU.
        self._pages: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._dirty: set[int] = set()
        self._degraded: set[int] = set()
        self.stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "writebacks": 0,
            "io_retries": 0,
            "io_errors": 0,
            "degraded_blocks": 0,
        }
        self._closed = False
        # Not thread-safe: the block LRU is compound state.  Its only
        # caller, FeatureStore, runs on one thread at a time — the training
        # loop, or the serving engine under its lock, which also applies
        # ingest.

    # ------------------------------------------------------------ block I/O
    def _block_rows(self, bid: int) -> tuple[int, int]:
        lo = bid * self.page_rows
        return lo, min(lo + self.page_rows, self.shape[0])

    def _block_view(self, bid: int, mode: str) -> np.ndarray:
        """A transient memmap over one block — caller must drop it promptly."""
        lo, hi = self._block_rows(bid)
        return np.memmap(
            self.path,
            dtype=self.dtype,
            mode=mode,
            offset=lo * self.shape[1] * self.dtype.itemsize,
            shape=(hi - lo, self.shape[1]),
        )

    def _with_retries(self, op: str, bid: int, attempt_fn):
        """Run one block I/O op, retrying transient ``OSError`` with backoff."""
        last: OSError | None = None
        for attempt in range(_IO_ATTEMPTS):
            try:
                if chaos.should_fire(f"paged.{op}"):
                    raise chaos.io_error(f"paged.{op}", self.path)
                return attempt_fn()
            except OSError as exc:
                last = exc
                if attempt + 1 < _IO_ATTEMPTS:
                    self.stats["io_retries"] += 1
                    time.sleep(_IO_BACKOFF_S * 2**attempt)
        self.stats["io_errors"] += 1
        _log.error("paged.io_failed", op=op, bid=bid, path=self.path, error=str(last))
        raise PagedIOError(op, bid, self.path, last)

    def _mark_degraded(self, bid: int) -> None:
        self._degraded.add(bid)
        self.stats["degraded_blocks"] = len(self._degraded)

    @property
    def degraded_blocks(self) -> frozenset:
        """Blocks that hit persistent I/O errors (read failed, or dirty
        data is being held in memory because writeback failed)."""
        return frozenset(self._degraded)

    def _writeback(self, bid: int, block: np.ndarray) -> None:
        def _do():
            mm = self._block_view(bid, "r+")
            mm[:] = block
            mm.flush()
            del mm

        self._with_retries("write", bid, _do)
        self.stats["writebacks"] += 1
        if bid in self._degraded:
            self._degraded.discard(bid)
            self.stats["degraded_blocks"] = len(self._degraded)

    def _read_block(self, bid: int) -> np.ndarray:
        def _do():
            mm = self._block_view(bid, "r")
            block = np.array(mm)  # resident copy; the mapping itself is dropped
            del mm
            return block

        return self._with_retries("read", bid, _do)

    def _check_open(self) -> None:
        # The fd number may already belong to another file.
        if self._closed:
            raise ValueError(f"paged matrix {self.path} is closed")

    def _get_block(self, bid: int) -> np.ndarray:
        self._check_open()
        block = self._pages.get(bid)
        if block is not None:
            self._pages.move_to_end(bid)
            self.stats["hits"] += 1
            return block
        self.stats["misses"] += 1
        while len(self._pages) >= self.max_pages:
            old_bid, old_block = self._pages.popitem(last=False)
            self.stats["evictions"] += 1
            if old_bid in self._dirty:
                try:
                    self._writeback(old_bid, old_block)
                    self._dirty.discard(old_bid)
                except PagedIOError:
                    # Never drop dirty data: pin the block back at MRU (still
                    # dirty, now degraded) and run one page over budget until
                    # a later writeback succeeds.
                    self._pages[old_bid] = old_block
                    self._pages.move_to_end(old_bid)
                    self._mark_degraded(old_bid)
                    _log.warning(
                        "paged.writeback_deferred", bid=old_bid, path=self.path
                    )
                    break
        try:
            block = self._read_block(bid)
        except PagedIOError:
            self._mark_degraded(bid)
            raise
        self._pages[bid] = block
        return block

    # -------------------------------------------------------------- row API
    def read_rows(self, rows) -> np.ndarray:
        """(len(rows), n_cols) gather, paging blocks in as needed."""
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((len(rows), self.shape[1]), dtype=self.dtype)
        if len(rows) == 0:
            return out
        bids = rows // self.page_rows
        for bid in np.unique(bids):
            block = self._get_block(int(bid))
            sel = bids == bid
            out[sel] = block[rows[sel] - int(bid) * self.page_rows]
        return out

    def read_row(self, row: int) -> np.ndarray:
        """One row (a copy, like ``read_rows``)."""
        bid, off = divmod(int(row), self.page_rows)
        return self._get_block(bid)[off].copy()

    def write_rows(self, rows, values) -> None:
        """Scatter ``values`` into the matrix, marking touched blocks dirty."""
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=self.dtype)
        if len(rows) == 0:
            return
        bids = rows // self.page_rows
        for bid in np.unique(bids):
            bid = int(bid)
            block = self._get_block(bid)
            sel = bids == bid
            block[rows[sel] - bid * self.page_rows] = values[sel]
            self._dirty.add(bid)

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------ lifecycle
    def flush(self) -> None:
        """Write every dirty resident block back to the file.

        A block whose writeback keeps failing stays dirty (and degraded);
        the first persistent failure is re-raised after every block has
        been attempted, so one bad block can't block the rest.
        """
        first_err: PagedIOError | None = None
        for bid in sorted(self._dirty):
            try:
                self._writeback(bid, self._pages[bid])
            except PagedIOError as exc:
                self._mark_degraded(bid)
                if first_err is None:
                    first_err = exc
                continue
            self._dirty.discard(bid)
        # Blocks pinned over budget by a deferred writeback may be clean now.
        clean = [bid for bid in self._pages if bid not in self._dirty]
        for bid in clean[: max(0, len(self._pages) - self.max_pages)]:
            del self._pages[bid]
        if first_err is not None:
            raise first_err

    def clear(self) -> None:
        """Drop resident pages and re-sparse the backing file (all zeros)."""
        self._check_open()
        self._pages.clear()
        self._dirty.clear()
        self._degraded.clear()
        self.stats["degraded_blocks"] = 0
        os.ftruncate(self._fd, 0)
        os.ftruncate(self._fd, max(self._nbytes, 1))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pages.clear()
        self._dirty.clear()
        try:
            os.close(self._fd)
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __del__(self):  # pragma: no cover - for stores no engine owns
        try:
            self.close()
        except Exception:
            pass
