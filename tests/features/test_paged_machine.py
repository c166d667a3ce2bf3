"""PagedMatrix against a plain ndarray, driven by a hypothesis state machine.

The oracle is an ``(n_rows, n_cols)`` array (and a bool array for the
:class:`ValidityBitmap` that rides along, as it does in the feature
store).  Pages are one to three rows and one or two stay resident, so
almost every step evicts.  The machine interleaves:

- ``write_rows`` / ``read_rows`` / ``read_row`` over any rows, repeats
  included, and single-cell sets and gets through the row API;
- out-of-range rows, which must raise and change nothing they reach;
- ``clear``, ``flush`` (after which the backing file is the oracle) and
  close-and-reopen (a closed matrix refuses every call with a
  ``ValueError``; the reopened one is all zeros);
- the same calls with ``paged.read`` / ``paged.write`` chaos armed: a
  read returns the oracle's bits or raises :class:`PagedIOError`, never
  a wrong row; a failed writeback keeps its block resident and dirty; a
  write that loses a block read has written exactly the blocks before it.
"""

import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import chaos
from repro.chaos import ChaosPlan, ChaosRule
from repro.features import paged
from repro.features.paged import PagedIOError, PagedMatrix, ValidityBitmap

DTYPES = (np.float64, np.float32, np.int32)


class PagedMatrixMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pm: PagedMatrix | None = None
        self.closed: list[PagedMatrix] = []
        # Chaos fails every retry; sleeping between them only slows the run.
        self._backoff, paged._IO_BACKOFF_S = paged._IO_BACKOFF_S, 0.0

    @initialize(
        n_rows=st.integers(1, 12),
        n_cols=st.integers(1, 3),
        dtype=st.sampled_from(DTYPES),
        page_rows=st.integers(1, 3),
        max_pages=st.integers(1, 2),
    )
    def open_matrix(self, n_rows, n_cols, dtype, page_rows, max_pages):
        self.shape = (n_rows, n_cols)
        self.dtype = np.dtype(dtype)
        self.paging = dict(page_rows=page_rows, max_pages=max_pages)
        self._open()

    def _open(self) -> None:
        self.pm = PagedMatrix(*self.shape, self.dtype, **self.paging)
        self.oracle = np.zeros(self.shape, self.dtype)
        self.bitmap = ValidityBitmap(self.shape[0])
        self.valid = np.zeros(self.shape[0], bool)

    # ------------------------------------------------------------ strategies
    def _rows(self, data, min_size=0):
        row = st.integers(0, self.shape[0] - 1)
        return np.array(data.draw(st.lists(row, min_size=min_size, max_size=8), label="rows"),
                        dtype=np.int64)

    def _values(self, data, n):
        if self.dtype.kind == "f":
            # Any bit pattern: NaNs, infinities and signed zeros must survive.
            width = 8 * self.dtype.itemsize
            raw = st.integers(0, 2**width - 1)
            bits = data.draw(st.lists(raw, min_size=n * self.shape[1], max_size=n * self.shape[1]))
            utype = np.dtype(f"u{self.dtype.itemsize}")
            return np.array(bits, utype).view(self.dtype).reshape(n, self.shape[1])
        cell = st.integers(-(2**31), 2**31 - 1)
        cells = data.draw(st.lists(cell, min_size=n * self.shape[1], max_size=n * self.shape[1]))
        return np.array(cells, self.dtype).reshape(n, self.shape[1])

    def _chaos(self, data, points):
        rate = data.draw(st.sampled_from([0.3, 0.6, 1.0]), label="rate")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        chaos.enable(ChaosPlan(seed=seed, rules={p: ChaosRule(rate=rate) for p in points}))

    def _assert_bits(self, got, expected):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def _write(self, rows, values):
        """``write_rows``; on a lost block read, apply the blocks before it."""
        try:
            self.pm.write_rows(rows, values)
        except PagedIOError as err:
            assert err.op == "read"
            done = rows // self.paging["page_rows"] < err.bid
            self.oracle[rows[done]] = values[done]
            raise
        self.oracle[rows] = values

    # ----------------------------------------------------------------- rules
    @rule(data=st.data())
    def write_rows(self, data):
        rows = self._rows(data)
        self._write(rows, self._values(data, len(rows)))

    @rule(data=st.data())
    def read_rows(self, data):
        rows = self._rows(data)
        self._assert_bits(self.pm.read_rows(rows), self.oracle[rows])

    @rule(data=st.data())
    def read_row(self, data):
        row = int(self._rows(data, min_size=1)[0])
        got = self.pm.read_row(row)
        self._assert_bits(got, self.oracle[row])
        got[:] = 1  # a copy: scribbling on it changes nothing

    @rule(data=st.data())
    def set_cell(self, data):
        row = int(self._rows(data, min_size=1)[0])
        col = data.draw(st.integers(0, self.shape[1] - 1), label="col")
        values = self.pm.read_row(row)
        values[col] = self._values(data, 1)[0, 0]
        self._write(np.array([row]), values[None])

    @rule(data=st.data())
    def get_cell(self, data):
        row = int(self._rows(data, min_size=1)[0])
        col = data.draw(st.integers(0, self.shape[1] - 1), label="col")
        self._assert_bits(self.pm.read_row(row)[col], self.oracle[row, col])

    @rule(data=st.data(), value=st.booleans())
    def mark_valid(self, data, value):
        rows = self._rows(data, min_size=1)
        if len(rows) == 1 and data.draw(st.booleans(), label="scalar"):
            self.bitmap[int(rows[0])] = value
        else:
            self.bitmap[rows] = value
        self.valid[rows] = value

    @rule(data=st.data())
    def read_valid(self, data):
        rows = self._rows(data, min_size=1)
        assert self.bitmap[int(rows[0])] is bool(self.valid[rows[0]])
        assert self.bitmap[rows].tolist() == self.valid[rows].tolist()
        assert self.bitmap[:].tolist() == self.valid.tolist()

    @rule(data=st.data(), op=st.sampled_from(["read_rows", "read_row", "write_rows"]))
    def out_of_range(self, data, op):
        n = self.shape[0]
        bad = data.draw(st.one_of(st.integers(n, n + 8), st.integers(-8, -1)), label="bad")
        before = self.pm.read_rows(np.arange(n))
        with pytest.raises((IndexError, ValueError, OverflowError)):
            if op == "read_row":
                self.pm.read_row(bad)
            elif op == "read_rows":
                self.pm.read_rows([bad])
            else:
                self.pm.write_rows([bad], self._values(data, 1))
        self._assert_bits(self.pm.read_rows(np.arange(n)), before)

    @rule()
    def clear(self):
        self.pm.clear()
        self.oracle[:] = 0
        self.bitmap[:] = False
        self.valid[:] = False

    @rule()
    def flush(self):
        self.pm.flush()
        on_disk = np.fromfile(self.pm.path, self.dtype, count=self.oracle.size)
        self._assert_bits(on_disk.reshape(self.shape), self.oracle)

    @rule()
    def close_and_reopen(self):
        pm = self.pm
        pm.close()
        assert not os.path.exists(pm.path)
        self.closed.append(pm)
        self._open()

    @precondition(lambda self: self.closed)
    @rule(data=st.data())
    def call_closed(self, data):
        """A closed matrix refuses calls, even once its fd number is reused."""
        pm = data.draw(st.sampled_from(self.closed), label="closed")
        call = data.draw(st.sampled_from(["read_rows", "read_row", "write_rows", "clear"]))
        with pytest.raises(ValueError, match="closed"):
            if call == "read_rows":
                pm.read_rows([0])
            elif call == "read_row":
                pm.read_row(0)
            elif call == "write_rows":
                pm.write_rows([0], np.ones((1, pm.shape[1]), pm.dtype))
            else:
                pm.clear()
        pm.flush()  # nothing dirty survives a close: a no-op

    # ---------------------------------------------------------------- chaos
    @rule(data=st.data(), points=st.sampled_from([("paged.read",), ("paged.read", "paged.write")]))
    def chaos_read(self, data, points):
        rows = self._rows(data, min_size=1)
        self._chaos(data, points)
        try:
            got = self.pm.read_rows(rows)
        except PagedIOError as err:
            assert err.op == "read"
            return
        finally:
            chaos.disable()
        self._assert_bits(got, self.oracle[rows])

    @rule(data=st.data(), points=st.sampled_from([("paged.write",), ("paged.read", "paged.write")]))
    def chaos_write(self, data, points):
        rows = self._rows(data, min_size=1)
        values = self._values(data, len(rows))
        self._chaos(data, points)
        try:
            self._write(rows, values)
        except PagedIOError:
            pass
        finally:
            chaos.disable()

    @rule(data=st.data())
    def chaos_flush(self, data):
        self._chaos(data, ["paged.write"])
        try:
            self.pm.flush()
        except PagedIOError as err:
            assert err.op == "write" and self.pm.degraded_blocks
        finally:
            chaos.disable()

    # ------------------------------------------------------------ invariants
    @invariant()
    def stats_add_up(self):
        if self.pm is None:
            return
        stats = self.pm.stats
        assert stats["degraded_blocks"] == len(self.pm.degraded_blocks)
        if not self.pm.degraded_blocks:
            assert self.pm.resident_pages <= self.pm.max_pages
        assert self.bitmap.count() == int(self.valid.sum())

    def teardown(self):
        paged._IO_BACKOFF_S = self._backoff
        chaos.disable()
        if self.pm is not None:
            self.pm.close()


PagedMatrixMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestPagedMatrixMachine = PagedMatrixMachine.TestCase
