"""The cascade wavefront schedule and the float kernel that runs on it.

Wavefront is the section-update schedule of the block kernels, the way the
hardware pipeline runs: at tick t every active section k processes sample
t - k, so one tick is a few elementwise numpy operations over all sections.
It carries its state from one block of samples to the next, and push and
flush (which drains) run a kernel, a function of the ticks, over a block:
cascade_ticks is the float kernel and fixed._fixed_block_int64 holds the
fixed-point one. Each section of cascade_ticks performs the same IEEE double
operations in the same order as core.step_section, with no fused
multiply-add, so the outputs are bit-identical to the scalar path and to
cascade_block_py, the reference loop the tests compare against.
"""

import itertools

import numpy as np

# Read by callers that record which backend ran; the kernel is numpy only.
HAVE_NUMBA = False


def cascade_block_py(samples, a0, c0, r, h, g, w1, w2, out):
    """Reference loop: one scalar section update per (sample, section)."""
    n_samples = samples.shape[0]
    n_sections = a0.shape[0]
    for t in range(n_samples):
        x = samples[t]
        for k in range(n_sections):
            w1k = w1[k]
            w2k = w2[k]
            w1n = r[k] * (a0[k] * w1k - c0[k] * w2k) + x
            w2n = r[k] * (c0[k] * w1k + a0[k] * w2k)
            x = g[k] * (x + h[k] * w2n)
            w1[k] = w1n
            w2[k] = w2n
            out[t, k] = x


class Wavefront:
    """The ticks of one cascade's wavefront, carried across blocks of samples.

    push and flush call kernel(ticks) once, with an iterator of the ticks
    of that call, and the kernel runs every one of them. Lanes are the
    sections in reverse order: lane j is section n-1-j. Each tick is
    (lanes, x, y): the active sections are the slice lanes of
    section-reversed coefficient and state arrays, x holds their inputs and
    y is where their outputs go. Both are views of one work line of n + 1
    values: y = line[lo:hi] and x = line[lo+1:hi+1], so each section reads
    what the section before it wrote on the previous tick, and section 0
    reads the sample, which sits in line[n]. y overlaps x shifted by one:
    the kernel writes all of y after its last read of x and before asking
    for the next tick.

    After each tick the outputs are copied into rows, a ring of the tap rows
    not yet handed out. Sample t's row fills along the ticks t..t+n-1, so a
    row is complete n-1 samples after its sample went in; one tick's outputs
    lie on an anti-diagonal of the ring, a slice of it with step n-1 (split
    in two where it wraps). The ring holds the rows in flight plus the rows
    of the current block, min(samples in, n-1) + block rows, and grows
    geometrically up to n-1 + block rows, so its copies cost O(n) per tick.

    Every full-width tick of one push or flush call is the same lanes
    tuple, so a kernel may keep the views it built for the last lanes
    it saw and build them again only when a different tuple comes: that
    skips all slicing on the steady-state stretch. The narrower ticks of
    the fill and the drain each come as a new tuple.
    """

    def __init__(self, n_sections: int, dtype=np.float64):
        self.n = n_sections
        self.line = np.zeros(n_sections + 1, dtype=dtype)
        self.rows = np.empty((0, n_sections), dtype=dtype)
        self.first = 0  # ring row of the oldest row not handed out
        self.pushed = 0  # samples ticked in since the last flush
        self.done = 0  # rows handed out since the last flush

    def push(self, samples, kernel) -> np.ndarray:
        """Run kernel over one tick per sample of samples (1-D, of the
        line's dtype); returns a copy of the rows those ticks completed, in
        sample order."""
        kernel(self._ticks(samples, drain=False))
        end = max(self.done, self.pushed - self.n + 1)
        rows = np.concatenate(self._held(end - self.done))
        self.first = (self.first + rows.shape[0]) % max(self.rows.shape[0], 1)
        self.done = end
        return rows

    def flush(self, samples, kernel) -> tuple[np.ndarray, ...]:
        """Run kernel over one tick per sample and the n-1 ticks that
        complete every row in flight; returns every row not handed out, in
        sample order, as one view of the ring or, where they wrap it, two;
        and leaves a fresh start. A flush with no push before it never
        wraps. The ring is let go, so the views stay valid."""
        kernel(self._ticks(samples, drain=True))
        rows = self._held(self.pushed - self.done)
        self.rows = np.empty((0, self.n), dtype=self.rows.dtype)
        self.first = self.pushed = self.done = 0
        return rows

    def _held(self, count: int) -> tuple[np.ndarray, ...]:
        """The count rows from the oldest one not handed out, as one view of
        the ring or two where they wrap it."""
        a = self.first
        cap = self.rows.shape[0]
        if a + count <= cap:
            return (self.rows[a : a + count],)
        return self.rows[a:], self.rows[: a + count - cap]

    def _reserve(self, block: int) -> None:
        held = self.pushed - self.done
        cap = self.rows.shape[0]
        if held + block <= cap:
            return
        cap = max(held + block, min(2 * cap, self.n - 1 + block))
        rows = np.empty((cap, self.n), dtype=self.rows.dtype)
        np.concatenate(self._held(held), out=rows[:held])
        self.rows = rows
        self.first = 0

    def _ticks(self, samples, drain: bool):
        """One tick per sample and, with drain, the n-1 ticks that complete
        every row in flight. The kernel runs them all, so the counts are
        up to date when it returns."""
        n = self.n
        self._reserve(samples.shape[0])
        start = self.pushed
        self.pushed = end = start + samples.shape[0]
        line = self.line
        flat = self.rows.reshape(-1)
        cap = self.rows.shape[0]
        step = max(n - 1, 1)  # one section: a single element per tick
        base = self.first - self.done  # sample t's row is ring row (base + t) % cap
        full = (slice(0, n), line[1:], line[:n])  # a tick of every section
        ticks = range(start, end + n - 1 if drain and end else end)
        for tick, sample in itertools.zip_longest(ticks, samples.tolist()):
            lo = n - 1 - tick if tick < n - 1 else 0  # sections up to tick have started
            # sections from tick - end + 1 on still have samples
            hi = n if tick < end else n - 1 + end - tick
            if sample is not None:
                line[n] = sample
            lanes = full if hi - lo == n else (slice(lo, hi), line[lo + 1 : hi + 1], line[lo:hi])
            yield lanes
            # lane j holds the row of sample tick - n + 1 + j, in column n - 1 - j
            y = lanes[2]
            count = hi - lo
            row = (base + tick - n + 1 + lo) % cap
            pos = row * n + n - 1 - lo
            if row + count <= cap:
                flat[pos : pos + count * step : step] = y
            else:  # the lanes from m on wrap to the first ring rows
                m = cap - row
                flat[pos : pos + m * step : step] = y[:m]
                pos = n - 1 - lo - m
                flat[pos : pos + (count - m) * step : step] = y[m:]


def cascade_ticks(a0, c0, r, h, g, w1, w2, scratch, ticks):
    """The float cascade as a Wavefront kernel, once bound to its operands.

    a0..g, w1 and w2 are section-reversed contiguous arrays, w1 and w2
    updated in place; scratch is three work arrays of the same length.
    """
    mul, sub, add = np.multiply, np.subtract, np.add
    p, q, s = scratch
    seen = None
    for lanes in ticks:
        if lanes is not seen:  # new lanes: slice every operand again
            seen = lanes
            k, x, y = lanes
            a0k, c0k, rk, hk, gk = a0[k], c0[k], r[k], h[k], g[k]
            w1k, w2k = w1[k], w2[k]
            pk, qk, sk = p[k], q[k], s[k]
        mul(c0k, w1k, qk)  # kept for w2' before w1 is overwritten
        # w1' = r * (a0 * w1 - c0 * w2) + x
        mul(a0k, w1k, pk)
        mul(c0k, w2k, sk)
        sub(pk, sk, pk)
        mul(rk, pk, pk)
        add(pk, x, w1k)
        # w2' = r * (c0 * w1 + a0 * w2)
        mul(a0k, w2k, sk)
        add(qk, sk, qk)
        mul(rk, qk, w2k)
        # y = g * (x + h * w2'), written after the last read of x
        mul(hk, w2k, sk)
        add(x, sk, sk)
        mul(gk, sk, y)
