"""Symmetric-tridiagonal kernels: LAPACK eigenpairs, Sturm counts, scaled determinants.

Eigenvalues and eigenvectors of truncations come from LAPACK through
``scipy.linalg.eigh_tridiagonal``: the full spectrum from ?STEVD, index picks
from ?STEBZ (Sturm bisection) and their eigenvectors from ?STEIN.  The Sturm
count and the scaled determinant recursions feed the lattice Green's function
without ever forming a dense inverse.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FULL_DRIVER",
    "INDEX_DRIVER",
    "sturm_count",
    "bisect_eigenvalues",
    "eigenpair_blocks",
    "scaled_det_forward",
    "scaled_det_backward",
    "inverse_iteration",
]

FULL_DRIVER = "stevd"  # all eigenvalues
INDEX_DRIVER = "stebz"  # eigenvalues by index; eigenvectors via ?STEIN
# Eigenvectors are computed this many indices at a time: an n-by-n eigenvector
# matrix would dominate peak memory at the window sizes the experiments use.
EIGENPAIR_BLOCK = 32


def sturm_count(diag, off2, shifts):
    """Number of eigenvalues of the symmetric tridiagonal below each shift.

    diag: length-n diagonal; off2: length-(n-1) squared off-diagonal;
    shifts: scalar or array of evaluation points.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off2 = np.asarray(off2, dtype=np.float64)
    scalar = np.isscalar(shifts)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=np.float64))
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * 2.0e-300
    cnt = np.zeros(shifts.shape, dtype=np.int64)
    d = diag[0] - shifts
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    cnt += d < 0
    for i in range(1, diag.shape[0]):
        d = (diag[i] - shifts) - off2[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        cnt += d < 0
    return int(cnt[0]) if scalar else cnt


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


def eigenpair_blocks(diag, off, lo=0, hi=None):
    """Eigenpairs with indices lo..hi-1 (hi=None: n), EIGENPAIR_BLOCK at a time.

    Yields (vals, vecs) per block: ascending eigenvalues and, in the unit
    columns of vecs, their eigenvectors.
    """
    from scipy.linalg import eigh_tridiagonal

    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    hi = len(diag) if hi is None else hi
    for start in range(lo, hi, EIGENPAIR_BLOCK):
        stop = min(start + EIGENPAIR_BLOCK, hi)
        vals, vecs = eigh_tridiagonal(
            diag,
            off,
            select="i",
            select_range=(start, stop - 1),
            lapack_driver=INDEX_DRIVER,
        )
        yield vals, vecs


def _scaled_step(d, o2, m1, e1, m2, e2):
    """One step of D = d*D1 - o2*D2 on scaled pairs, rescaled by frexp."""
    emax = e1 if e1 >= e2 else e2
    t = d * m1 * 2.0 ** float(e1 - emax) - o2 * m2 * 2.0 ** float(e2 - emax)
    f, e = math.frexp(t)
    return f, emax + e


def scaled_det_forward(dshift, off2):
    """Leading principal minors of the shifted matrix, in scaled form.

    dshift: diagonal minus energy (length n); off2: squared off-diagonals.
    Returns (mant, expo) with det of the leading k-by-k block equal to
    mant[k] * 2**expo[k]; index 0 is the empty block (determinant 1).
    """
    n = len(dshift)
    mant = np.empty(n + 1)
    expo = np.empty(n + 1, dtype=np.int64)
    mant[0], expo[0] = 1.0, 0
    for k in range(1, n + 1):
        o2, m2, e2 = (off2[k - 2], mant[k - 2], expo[k - 2]) if k >= 2 else (0.0, 0.0, 0)
        mant[k], expo[k] = _scaled_step(
            dshift[k - 1], o2, mant[k - 1], expo[k - 1], m2, e2
        )
    return mant, expo


def scaled_det_backward(dshift, off2):
    """Trailing principal minors, scaled as in scaled_det_forward.

    Returns (mant, expo) with det of the block spanning rows k..n-1 equal to
    mant[k] * 2**expo[k]; index n is the empty block.
    """
    n = len(dshift)
    mant = np.empty(n + 1)
    expo = np.empty(n + 1, dtype=np.int64)
    mant[n], expo[n] = 1.0, 0
    for k in range(n - 1, -1, -1):
        o2, m2, e2 = (off2[k], mant[k + 2], expo[k + 2]) if k <= n - 2 else (0.0, 0.0, 0)
        mant[k], expo[k] = _scaled_step(
            dshift[k], o2, mant[k + 1], expo[k + 1], m2, e2
        )
    return mant, expo


def inverse_iteration(diag, off, energy, iters=3, rng=None):
    """Unit eigenvector estimate for the eigenvalue nearest ``energy``.

    Plain inverse iteration on the real symmetric tridiagonal via banded LU;
    deterministic when given a seeded rng.  The library itself takes
    eigenvectors from eigenpair_blocks.
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
