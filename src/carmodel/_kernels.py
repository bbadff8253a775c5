"""The cascade wavefront schedule and the float block kernel.

wavefront is the section-update schedule of the block kernels, the way the
hardware pipeline runs: at tick t every active section k processes sample
t - k, so one tick is a few elementwise numpy operations over all sections.
cascade_block runs the float cascade on it and fixed._fixed_block_int64 the
fixed-point one. Each section of cascade_block performs the same IEEE double
operations in the same order as core.step_section, with no fused
multiply-add, so the outputs are bit-identical to the scalar path and to
cascade_block_py, the reference loop the tests compare against.
"""

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


def wavefront(samples, out):
    """Yield the ticks of the cascade wavefront, filling out as they go.

    At tick t every active section k works on sample t - k. Each tick yields
    (lanes, x, y): the active sections are the slice lanes of the
    section-reversed coefficient, state and work arrays, x holds their
    inputs and y is the view of out their outputs are written to. x and y
    are basic slices, so the caller must write every element of y before
    asking for the next tick.

    out must be a C-contiguous [n_samples x n_sections] array of the samples'
    dtype. The outputs of one tick, out[t - k, k], lie on an anti-diagonal of
    out, a slice of out.reshape(-1) with step n_sections - 1; ascending
    positions on it run from the last section to the first, hence the
    section-reversed arrays. Section k's input out[t - k, k - 1] is the
    element before each output. Section 0's input sits in the last column of
    the previous row, which is filled with the samples up front and
    overwritten by section n-1 only after section 0 has read it.
    """
    n_samples, n = out.shape
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat = out.reshape(-1)
    stride = max(n - 1, 1)  # one section: a single element per tick
    if n > 1:
        out[:-1, -1] = samples[1:]
    for tick in range(n_samples + n - 1):
        k_lo = max(0, tick - n_samples + 1)
        k_hi = min(n - 1, tick)
        first = tick * n - k_hi * (n - 1)  # position of out[tick - k_hi, k_hi]
        last = first + (k_hi - k_lo) * stride + 1
        if tick == 0 or n == 1:
            x = samples[tick : tick + 1]
        else:
            x = flat[first - 1 : last - 1 : stride]
        yield slice(n - 1 - k_hi, n - k_lo), x, flat[first:last:stride]


def cascade_block(samples, a0, c0, r, h, g, w1, w2, out):
    """Propagate samples through the cascade; same contract as cascade_block_py.

    out must be a C-contiguous [n_samples x n_sections] array; the ticks
    come from wavefront. Working memory beyond out is O(n_sections).
    """
    n = a0.shape[0]
    a0, c0, r, h, g = (np.ascontiguousarray(v[::-1]) for v in (a0, c0, r, h, g))
    s1 = np.ascontiguousarray(w1[::-1])
    s2 = np.ascontiguousarray(w2[::-1])
    p = np.empty(n)
    q = np.empty(n)
    s = np.empty(n)
    for k, x, y in wavefront(samples, out):
        a0k, c0k, rk, hk, gk = a0[k], c0[k], r[k], h[k], g[k]
        w1k, w2k = s1[k], s2[k]
        pk, qk, sk = p[k], q[k], s[k]
        np.multiply(c0k, w1k, out=qk)  # kept for w2' before w1 is overwritten
        # w1' = r * (a0 * w1 - c0 * w2) + x
        np.multiply(a0k, w1k, out=pk)
        np.multiply(c0k, w2k, out=sk)
        np.subtract(pk, sk, out=pk)
        np.multiply(rk, pk, out=pk)
        np.add(pk, x, out=w1k)
        # w2' = r * (c0 * w1 + a0 * w2)
        np.multiply(a0k, w2k, out=sk)
        np.add(qk, sk, out=qk)
        np.multiply(rk, qk, out=w2k)
        # y = g * (x + h * w2')
        np.multiply(hk, w2k, out=sk)
        np.add(x, sk, out=sk)
        np.multiply(gk, sk, out=y)
    w1[:] = s1[::-1]
    w2[:] = s2[::-1]
