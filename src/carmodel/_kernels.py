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
operations in the same order as core.step_section, with no fused
multiply-add, so the outputs are bit-identical to the scalar path.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Read by callers that record which backend ran; the kernel is numpy only.
HAVE_NUMBA = False


class Wavefront:
    """The ticks of one cascade's wavefront, carried across blocks of samples.

    push and flush call kernel(ticks) once, with an iterator of the ticks
    of that call, and the kernel runs every one of them. Lanes are the
    sections in reverse order: lane j is section n-1-j. A tick is (k, x, y):
    the active sections are the slice k of section-reversed coefficient and
    state arrays, x holds their inputs and y takes their outputs. x and y
    are new views on every tick, and disjoint.

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

    Every full-width tick of one push or flush call has the same slice k,
    so a kernel may keep the views it sliced for the last k and slice again
    only when k changes; each fill and drain tick has a new k. Scratch taken
    as a prefix needs slicing only when the width changes: on a short flush
    the width stays at W over most of the fill and the drain.
    """

    def __init__(self, n_sections: int, dtype=np.float64):
        self.n, self.dtype = n_sections, dtype
        self._restart()

    def _restart(self) -> None:
        self.buf = np.empty(0, dtype=self.dtype)
        self.width = self.n  # W
        self.first = 0  # sample whose tick row starts the buffer
        self.pushed = 0  # samples ticked in since the last flush
        self.done = 0  # rows handed out since the last flush

    def push(self, samples, kernel) -> np.ndarray:
        """Run kernel over one tick per sample of samples (1-D, of the
        buffer's dtype); returns a copy of the rows those ticks completed,
        in sample order."""
        kernel(self._ticks(samples, drain=False))
        end = max(self.done, self.pushed - self.n + 1)
        rows = self._rows(end).copy()
        self.done = end
        return rows

    def flush(self, samples, kernel) -> np.ndarray:
        """Run kernel over one tick per sample and the n-1 ticks that
        complete every row in flight; returns every row not handed out, in
        sample order, as one writable view of the buffer, and leaves a
        fresh start."""
        if not self.pushed:
            self.width = max(1, min(samples.shape[0], self.n))
        kernel(self._ticks(samples, drain=True))
        rows = self._rows(self.pushed)
        self._restart()
        return rows

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
        """One tick per sample and, with drain, the n-1 ticks that complete
        every row in flight. The kernel runs them all, so the counts are up
        to date when it returns."""
        n, w, start, block = self.n, self.width, self.pushed, samples.shape[0]
        self._reserve(block, drain)
        buf, at = self.buf, (start - self.first) * (w + 1)
        buf[at : at + block * (w + 1) : w + 1] = samples
        self.pushed = end = start + block
        full = slice(0, n)  # a tick of every section
        y0 = at + w - n + 1  # where y of lane 0 would start
        for tick in range(start, end + n - 1 if drain and end else end):
            lo = n - 1 - tick if tick < n - 1 else 0  # sections up to tick have started
            # sections from tick - end + 1 on still have samples
            hi = n if tick < end else n - 1 + end - tick
            k = full if hi - lo == n else slice(lo, hi)
            yield k, buf[y0 - w + lo : y0 - w + hi], buf[y0 + lo : y0 + hi]
            y0 += w + 1


def cascade_ticks(a0, c0, r, h, g, w1, w2, scratch, ticks):
    """The float cascade as a Wavefront kernel, once bound to its operands.

    a0..g, w1 and w2 are section-reversed contiguous arrays, w1 and w2
    updated in place; scratch is two work arrays of the same length. y
    serves as the third until it takes the outputs.
    """
    mul, sub, add = np.multiply, np.subtract, np.add
    seen, width = None, 0
    for k, x, y in ticks:
        if k is not seen:  # new lanes: slice every operand again
            seen = k
            a0k, c0k, rk, hk, gk = a0[k], c0[k], r[k], h[k], g[k]
            w1k, w2k = w1[k], w2[k]
            if len(y) != width:
                width = len(y)
                p, q = (v[:width] for v in scratch)
        mul(c0k, w1k, q)  # kept for w2' before w1 is overwritten
        # w1' = r * (a0 * w1 - c0 * w2) + x
        mul(a0k, w1k, p)
        mul(c0k, w2k, y)
        sub(p, y, p)
        mul(rk, p, p)
        add(p, x, w1k)
        # w2' = r * (c0 * w1 + a0 * w2)
        mul(a0k, w2k, y)
        add(q, y, q)
        mul(rk, q, w2k)
        # y = g * (x + h * w2')
        mul(hk, w2k, y)
        add(x, y, y)
        mul(gk, y, y)
