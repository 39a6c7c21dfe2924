"""Symmetric-tridiagonal kernels: LAPACK eigenvalues and one Sturm pivot sweep.

Eigenvalues of truncations come from LAPACK through
``scipy.linalg.eigvalsh_tridiagonal``: the full spectrum from ?STEVD, index
picks from ?STEBZ (Sturm bisection).  Everything else reads the Sturm pivots
of T - s, d_i = (a_i - s) - b_{i-1}^2 / d_{i-1}, swept from either end of the
matrix over a vector of shifts s by ``_sweep``.  Its row step is two numpy
calls (a divide and an in-place subtract) over every shift at once; the
pivmin guard that keeps a vanishing pivot from failing the next division is
checked once after the sweep, and only a sweep that met it is redone with the
guard at every row.  The pivots give:

- eigenvalue counts: the number of negative pivots (Sylvester's law of
  inertia, which holds in any elimination order);
- nested minors, the cumulative products of the pivots, from which the
  lattice Green's function follows by Cramer's rule without a dense inverse;
- squared eigenvector components by twisted factorization (Dhillon &
  Parlett 2004, LAA 387): at an eigenvalue, the forward pivots D+ and the
  backward pivots D- are twisted at r = argmin |D+_r + D-_r - (a_r - s)|,
  and z_i = -b_i / D+_i z_{i+1} left of r, z_i = -b_{i-1} / D-_i z_{i-1}
  right of it, with z_r = 1.  No eigenvector solver and no n-by-n matrix.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FULL_DRIVER",
    "INDEX_DRIVER",
    "PIVOT_CELLS",
    "sturm_count",
    "log_minors",
    "bisect_eigenvalues",
    "squared_components",
    "slice_masses",
    "scaled_det_forward",
    "scaled_det_backward",
    "inverse_iteration",
]

FULL_DRIVER = "stevd"  # all eigenvalues
INDEX_DRIVER = "stebz"  # eigenvalues by index
# Eigenvalues are swept in chunks of at most this many pivots (n per
# eigenvalue and direction), so the pivot buffer of squared_components takes
# 2 MB, no n-by-n array is formed, and up to n = 1310 a chunk runs at least
# 100 eigenvalues per Python step.  Wider chunks run fewer steps but hold
# more memory.  On a 2-vCPU Xeon VM (numpy 2.4), 2^15 -> 2^17 cells took one
# decay_fit at n = 800 from 0.14 to 0.10 s and its allocation peak from 0.8
# to 2.5 MB, and the `spectra` benchmark's peak RSS (10 s runs, seed 1)
# from 70.4-70.9 to 73.6-73.8 MB.
PIVOT_CELLS = 1 << 17


def _sweep(diag, off2, shifts, out):
    """Sturm pivots of m tridiagonals swept in lockstep, one row per Python step.

    diag: (n, m) diagonals and off2: (n-1, m) squared couplings, each column
    in the row order of its own sweep; out: (n, m, len(shifts)) receives
    d_k = (a_k - s) - b_{k-1}^2 / d_{k-1}.  A pivot below pivmin in modulus
    is replaced by -pivmin, so no division ever fails.

    One subtraction fills out with a - s; each row then costs two numpy calls,
    d_k -= b_{k-1}^2 / d_{k-1}, with no guard.  The guard is checked once
    afterwards, 64 rows at a time so that no temporary is as large as out.
    Only if some pivot fails |d| >= pivmin (a NaN fails too) are the rows
    from that block on swept again by _guarded_sweep; rows before it never met
    the guard, so out is bit-for-bit that of the guarded recurrence.
    """
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * 2.0e-300
    np.subtract(diag[:, :, None], shifts, out=out)
    rows = list(out)
    with np.errstate(all="ignore"):  # a vanishing pivot is caught below
        for prev, d, b2 in zip(rows, rows[1:], off2[:, :, None]):
            d -= b2 / prev
    for r0 in range(0, len(rows), 64):
        if not np.abs(out[r0 : r0 + 64]).min(initial=np.inf) >= pivmin:
            _guarded_sweep(diag, off2, shifts, out, pivmin, r0)
            break
    return out


def _guarded_sweep(diag, off2, shifts, out, pivmin, start):
    """Rows start.. of _sweep with the pivmin guard applied at every row."""
    for k in range(start, len(out)):
        d = np.subtract(diag[k, :, None], shifts, out=out[k])
        if k:
            d -= off2[k - 1, :, None] / out[k - 1]
        np.copyto(d, -pivmin, where=np.abs(d) < pivmin)


def _pivots(diag, off2, shifts, reverse=False):
    """Sturm pivots of T - s for every shift s: an (n, len(shifts)) array.

    diag: length-n diagonal; off2: length-(n-1) squared off-diagonal.  Row i
    holds det[0, i] / det[0, i-1], the pivot of row i when rows are
    eliminated from the top; with ``reverse`` they are eliminated from the
    bottom and row i holds det[i, n-1] / det[i+1, n-1].
    """
    diag = np.asarray(diag, dtype=np.float64)
    off2 = np.asarray(off2, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    order = slice(None, None, -1) if reverse else slice(None)
    out = np.empty((diag.shape[0], 1, shifts.shape[0]))
    _sweep(diag[order, None], off2[order, None], shifts, out)
    return out[order, 0]


def sturm_count(diag, off2, shifts):
    """Number of eigenvalues of the symmetric tridiagonal below each shift.

    diag: length-n diagonal; off2: length-(n-1) squared off-diagonal;
    shifts: scalar or array of evaluation points.
    """
    scalar = np.isscalar(shifts)
    cnt = np.count_nonzero(_pivots(diag, off2, np.atleast_1d(shifts)) < 0, axis=0)
    return int(cnt[0]) if scalar else cnt


def log_minors(diag, off2, shifts, reverse=False):
    """Nested minors of T - s grown from one end, for every shift s.

    Returns (logabs, neg), both (n, len(shifts)): row i describes det[0, i]
    (with ``reverse``: det[i, n-1]) as log|det| and the number of negative
    pivots in it, so its sign is (-1)**neg and the last row's neg (reverse:
    row 0's) counts the eigenvalues below s.
    """
    piv = _pivots(diag, off2, shifts, reverse)
    order = slice(None, None, -1) if reverse else slice(None)
    logabs = np.cumsum(np.log(np.abs(piv[order])), axis=0)[order]
    neg = np.cumsum(piv[order] < 0, axis=0)[order]
    return logabs, neg


def bisect_eigenvalues(diag, off, indices=None):
    """Eigenvalues by ascending 0-based index; None means all n.

    The full spectrum comes from ?STEVD; index picks from ?STEBZ over the
    index range they span.
    """
    # imported on first use: loading scipy.linalg would triple the package import time
    from scipy.linalg import eigvalsh_tridiagonal

    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    n = len(diag)
    if indices is None:
        return eigvalsh_tridiagonal(diag, off, lapack_driver=FULL_DRIVER)
    indices = np.asarray(sorted(indices), dtype=np.int64)
    if len(indices) == 0:
        return np.empty(0)
    lo, hi = int(indices[0]), int(indices[-1])
    if lo < 0 or hi >= n:
        raise IndexError("eigenvalue index out of range")
    vals = eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(lo, hi), lapack_driver=INDEX_DRIVER
    )
    return vals[indices - lo]


def squared_components(diag, off, vals):
    """Squared components of the unit eigenvectors at the eigenvalues ``vals``.

    Yields (start, w) for consecutive chunks of vals: column j of the (n, c)
    array w holds |z_i|^2 for the eigenvalue vals[start + j]; w is a buffer
    that the next chunk overwrites, so read it before advancing.  Each
    eigenvalue costs one forward and one backward pivot sweep, twisted as in
    the module docstring; log|z_i| is a cumulative sum of log|b / D| outward
    from the twist, so components far below the largest lose no relative
    accuracy.  A chunk holds at most PIVOT_CELLS pivots per buffer.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.abs(np.asarray(off, dtype=np.float64))
    vals = np.asarray(vals, dtype=np.float64)
    n = diag.shape[0]
    off2 = off * off
    with np.errstate(divide="ignore"):
        logb = np.log(off)[:, None]  # -inf where the matrix splits
    rows = np.arange(n)[:, None]
    chunk = max(1, min(len(vals), PIVOT_CELLS // max(n, 1)))
    # the forward and the backward sweep run in lockstep, each in its own row
    # order, into one (n, 2, chunk) buffer that serves every chunk
    both = np.stack([diag, diag[::-1]], axis=1)
    both2 = np.stack([off2, off2[::-1]], axis=1)
    buf = np.empty((n, 2, chunk))
    for start in range(0, len(vals), chunk):
        lam = vals[start : start + chunk]
        piv = _sweep(both, both2, lam, buf[:, :, : len(lam)])
        fwd, bwd = piv[:, 0], piv[::-1, 1]
        twist = _twist(diag, lam, fwd, bwd)
        # left of the twist: log|z_i| = sum_{i <= j < r} log|b_j / D+_j|
        left = np.log(np.abs(fwd, out=fwd), out=fwd)
        np.subtract(logb, left[:-1], out=left[:-1])
        left[rows >= twist] = 0.0
        np.cumsum(left[::-1], axis=0, out=left[::-1])
        # right of the twist: log|z_i| = sum_{r < j <= i} log|b_{j-1} / D-_j|
        right = np.log(np.abs(bwd, out=bwd), out=bwd)
        np.subtract(logb, right[1:], out=right[1:])
        right[rows <= twist] = 0.0
        logz = np.add(left, np.cumsum(right, axis=0, out=right), out=fwd)
        logz *= 2.0
        logz -= logz.max(axis=0)
        w = np.exp(logz, out=logz)
        w /= w.sum(axis=0)
        yield start, w


def _twist(diag, lam, fwd, bwd):
    """Per shift, the row r minimizing |D+_r + D-_r - (a_r - s)| (the first on ties).

    Taken 64 rows at a time, so no temporary is as large as the pivots.
    """
    best = np.full(len(lam), np.inf)
    twist = np.zeros(len(lam), dtype=np.intp)
    for r0 in range(0, len(diag), 64):
        rows = slice(r0, r0 + 64)
        gamma = np.abs(fwd[rows] + bwd[rows] - (diag[rows, None] - lam))
        low = gamma.min(axis=0)
        better = low < best
        best = np.where(better, low, best)
        twist = np.where(better, r0 + gamma.argmin(axis=0), twist)
    return twist


def slice_masses(diag, off, vals, slices):
    """Mass of each unit eigenvector on each row slice.

    Returns an array of shape (len(slices), len(vals)); entry (k, j) is the
    sum of the squared components of the eigenvector at vals[j] over the
    rows slices[k].
    """
    out = np.empty((len(slices), len(vals)))
    for start, w in squared_components(diag, off, vals):
        for k, rows in enumerate(slices):
            out[k, start : start + w.shape[1]] = w[rows].sum(axis=0)
    return out


def _scaled(logabs, neg):
    """(mant, expo) with mant * 2**expo = (-1)**neg * e**logabs, 0.5 <= |mant| < 1."""
    log2 = logabs / math.log(2.0)
    expo = np.floor(log2).astype(np.int64) + 1
    mant = np.where(neg % 2, -1.0, 1.0) * np.exp2(log2 - expo)
    return mant, expo


def scaled_det_forward(dshift, off2):
    """Leading principal minors of the shifted matrix, in scaled form.

    dshift: diagonal minus energy (length n); off2: squared off-diagonals.
    Returns (mant, expo) with det of the leading k-by-k block equal to
    mant[k] * 2**expo[k]; index 0 is the empty block (determinant 1).  A
    vanishing minor reads as one of modulus about pivmin (see _pivots).
    """
    logabs, neg = log_minors(dshift, off2, [0.0])
    mant, expo = _scaled(logabs[:, 0], neg[:, 0])
    return np.concatenate([[1.0], mant]), np.concatenate([[0], expo])


def scaled_det_backward(dshift, off2):
    """Trailing principal minors, scaled as in scaled_det_forward.

    Returns (mant, expo) with det of the block spanning rows k..n-1 equal to
    mant[k] * 2**expo[k]; index n is the empty block.
    """
    logabs, neg = log_minors(dshift, off2, [0.0], reverse=True)
    mant, expo = _scaled(logabs[:, 0], neg[:, 0])
    return np.concatenate([mant, [1.0]]), np.concatenate([expo, [0]])


def inverse_iteration(diag, off, energy, iters=3, rng=None):
    """Unit eigenvector estimate for the eigenvalue nearest ``energy``.

    Plain inverse iteration on the real symmetric tridiagonal via banded LU;
    deterministic when given a seeded rng.  The library itself reads
    eigenvector components from squared_components.
    """
    from scipy.linalg import solve_banded

    n = len(diag)
    ab = np.zeros((3, n))
    shift = energy + 1e-11 * max(1.0, abs(energy))
    ab[0, 1:] = off
    ab[1, :] = np.asarray(diag) - shift
    ab[2, :-1] = off
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = solve_banded((1, 1), ab, v)
        v /= np.linalg.norm(v)
    return v
