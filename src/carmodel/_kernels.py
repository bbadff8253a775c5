"""The cascade wavefront schedule and the float kernel that runs on it.

Wavefront is the section-update schedule of the block kernels, the way the
hardware pipeline runs: at tick t every active section k processes sample
t - k, so one tick is a few elementwise numpy operations over all sections.
It carries its state from one block of samples to the next, and push and
flush (which drains) run a kernel, a function of the ticks, over a block:
core.CascadeStream drives cascade_ticks, the float kernel, and
fixed.FixedStream the fixed-point one. A kernel writes each tick's outputs
straight into the wavefront's buffer, where the next section reads them on
the next tick, as a section's output register feeds the next section in
the hardware. Each section of cascade_ticks performs the same IEEE double
operations on the same operands in the same order as core.step_section,
with no fused multiply-add, so the outputs are bit-identical to the scalar
path.
"""

from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Read by callers that record which backend ran; the kernel is numpy only.
HAVE_NUMBA = False


class Wavefront:
    """The ticks of one cascade's wavefront, carried across blocks of samples.

    lanes are the kernel's section-reversed arrays, of length n on their
    first axis: lane j is section n-1-j. taps, an index array, or None for
    every section, are the columns that push and flush hand out. push and
    flush call kernel(ticks) once, with an iterator of the ticks of that
    call, and the kernel runs every one of them. A tick is (x, y, views):
    views are the lane arrays sliced to the tick's active sections lo:hi, x
    holds their inputs and y takes their outputs, disjoint views of the
    buffer.

    Layout: one flat buffer with a row stride W. Cell (t, k), section k's
    output for sample t, sits at t*(W+1) + (k+1)*W and sample t at t*(W+1),
    counted from the buffer's first tick row. A section's input is then W
    places before its output, and a tick's outputs (samples tau - k) are
    contiguous: y is a slice and x the slice W places before it, disjoint
    because at most W sections are active on a tick. A call's samples go in
    with one strided store, nothing is copied per tick, and rows come out
    as one view with strides ((W+1), W) elements. W is n on a wavefront that
    pushes; a flush of a fresh one uses W = min(samples, n), so a short
    block takes about samples * (samples + n) values, not (samples + n) * n.

    Room: a buffer is allocated for the rows in flight, the block and the
    n-1 drain ticks; once the cascade is full, with n-1 rows in flight. When
    a call would run past its end, the tick rows in flight move to the front,
    in pieces that do not overlap, so numpy needs no temporary; only when
    that is not room enough is a larger buffer allocated. Pushes may use the
    drain's room, which spaces the moves about n ticks apart. A flush lets
    its buffer go, so the rows it returns stay valid.

    Views: a call's ticks are a fill, at most one run and a drain. The
    full-width ticks of a call (every section active) are one run: they all
    get the same views, the lane arrays themselves, and x and y are the rows
    of one strided view each, W+1 apart. A draining call of fewer than n-1
    samples has a sliding run instead, the ticks end-1 <= t < n-1 on which
    both ends of the window drop one lane: each lane array gets one view
    whose rows step back one lane, and x and y step W. Only the fill and
    drain ticks around a run, whose width changes every tick, slice their
    views one by one. So a kernel needs no cache of its views; scratch it
    takes as a prefix of its own needs slicing only when the width changes.
    """

    def __init__(self, n_sections: int, lanes, dtype=np.float64, taps=None):
        self.n, self.lanes, self.dtype, self.taps = n_sections, tuple(lanes), dtype, taps
        self._restart()

    def _restart(self) -> None:
        self.buf = np.empty(0, dtype=self.dtype)
        self.width = self.n  # W
        self.first = 0  # sample whose tick row starts the buffer
        self.pushed = 0  # samples ticked in since the last flush
        self.done = 0  # rows handed out since the last flush

    def push(self, samples, kernel) -> np.ndarray:
        """Run kernel over one tick per sample of samples (1-D, of the
        buffer's dtype); returns a copy of the taps' columns of the rows
        those ticks completed, in sample order. No other column is copied."""
        kernel(self._ticks(samples, drain=False))
        end = max(self.done, self.pushed - self.n + 1)
        rows = self._rows(end)
        rows = rows.copy() if self.taps is None else rows[:, self.taps]
        self.done = end
        return rows

    def flush(self, samples, kernel) -> np.ndarray:
        """Run kernel over one tick per sample and the n-1 ticks that
        complete every row in flight; returns every row not handed out, in
        sample order, as one writable view of the buffer (with taps, a new
        array of their columns), and leaves a fresh start."""
        if not self.pushed:
            self.width = max(1, min(samples.shape[0], self.n))
        kernel(self._ticks(samples, drain=True))
        rows = self._rows(self.pushed)
        self._restart()
        return rows if self.taps is None else rows[:, self.taps]

    def _rows(self, end: int) -> np.ndarray:
        """Rows done..end-1 as one view: row t starts at cell (t, 0)."""
        w, size = self.width, self.buf.itemsize
        cell = (self.done - self.first) * (w + 1) + w
        return as_strided(self.buf[cell:], (end - self.done, self.n), ((w + 1) * size, w * size))

    def _reserve(self, block: int, drain: bool) -> None:
        """Make room for block more ticks and, with drain, the drain."""
        n, step = self.n, self.width + 1
        drained = n * self.width + 1  # from a row's first tick row past its last cell
        rows = self.pushed + block - self.done  # rows not handed out after the call
        need = (rows - 1) * step + (drained if drain else step) if rows else 0
        start = (self.done - self.first) * step
        if start + need <= self.buf.size:
            return
        count = (self.pushed - self.done) * step  # the tick rows in flight
        if need <= self.buf.size:  # move them to the front
            for i in range(0, count, start):
                j = min(i + start, count)
                self.buf[i:j] = self.buf[i + start : j + start]
        else:  # with the drain's room, and on a stream for n-1 rows in flight
            rows = max(rows, n - 1 + block if self.pushed else 0)
            buf = np.empty((rows - 1) * step + drained, dtype=self.dtype)
            buf[:count] = self.buf[start : start + count]
            self.buf = buf
        self.first = self.done

    def _ticks(self, samples, drain: bool):
        """The ticks of one call, one per sample and, with drain, the n-1
        ticks that complete every row in flight. The counts are brought up
        to date first; the kernel runs every tick."""
        n, w, start, block = self.n, self.width, self.pushed, samples.shape[0]
        self._reserve(block, drain)
        buf, at = self.buf, (start - self.first) * (w + 1)
        buf[at : at + block * (w + 1) : w + 1] = samples
        self.pushed = end = start + block
        stop = end + n - 1 if drain and end else end
        full = end >= n
        if full:  # ticks n-1..end-1 run every section
            a, b = max(start, n - 1), end
        else:  # with drain, ticks end-1..n-2 run end sections, sliding
            a, b = max(start, end - 1), n - 1 if drain and end else 0
        if a >= b:
            return self._sliced(start, stop)
        count, size = b - a, buf.itemsize
        lo, width, step = (0, n, w + 1) if full else (n - 1 - a, end, w)
        x0 = (a - self.first) * (w + 1) - n + 1 + lo
        x, y = (as_strided(buf[i:], (count, width), (step * size, size)) for i in (x0, x0 + w))
        if full:
            views = repeat(self.lanes, count)
        else:
            views = zip(*(
                as_strided(v[lo:], (count, width, *v.shape[1:]), (-v.strides[0], *v.strides))
                for v in self.lanes
            ))
        return chain(self._sliced(start, a), zip(x, y, views), self._sliced(b, stop))

    def _sliced(self, t0: int, t1: int):
        """Ticks t0..t1-1 of the current call, each sliced on its own."""
        n, w, end, buf, lanes = self.n, self.width, self.pushed, self.buf, self.lanes
        x0 = (t0 - self.first) * (w + 1) - n + 1  # where x of lane 0 would start
        for tick in range(t0, t1):
            lo = n - 1 - tick if tick < n - 1 else 0  # sections up to tick have started
            # sections from tick - end + 1 on still have samples
            hi = n if tick < end else n - 1 + end - tick
            yield buf[x0 + lo : x0 + hi], buf[x0 + w + lo : x0 + w + hi], [v[lo:hi] for v in lanes]
            x0 += w + 1


def cascade_ticks(scratch, ticks):
    """The float cascade as a Wavefront kernel, once bound to its scratch.

    The lanes are [n x 2] pairs aa = (a0, a0), cc = (c0, c0) and
    rr = (r, r), vectors h and g, the state pairs w = (w1, w2), updated in
    place, and w's two columns w1 and w2. scratch is two [n x 2] work pairs
    p and q. A tick is 9 calls: the products of the w1' and w2' lines run
    on contiguous pairs, and only their sub and add read strided columns.
    """
    mul, sub, add = np.multiply, np.subtract, np.add
    width = 0
    for x, y, (aa, cc, rr, h, g, w, w1, w2) in ticks:
        if len(y) != width:
            width = len(y)
            p, q = (v[:width] for v in scratch)
            p0, p1, q0, q1 = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
        mul(aa, w, p)  # (a0 * w1, a0 * w2)
        mul(cc, w, q)  # (c0 * w1, c0 * w2)
        sub(p0, q1, p0)  # a0 * w1 - c0 * w2
        add(q0, p1, p1)  # c0 * w1 + a0 * w2
        # w1' = r * (a0 * w1 - c0 * w2) + x, w2' = r * (c0 * w1 + a0 * w2)
        mul(rr, p, w)
        add(w1, x, w1)
        # y = g * (x + h * w2')
        mul(h, w2, y)
        add(x, y, y)
        mul(g, y, y)
