"""Symmetric-tridiagonal kernels: LAPACK eigenpairs and one Sturm pivot sweep.

Eigenvalues and eigenvectors of truncations come from LAPACK through scipy:
the full spectrum from ?STEVD (divide and conquer) and one eigenvalue by
index from ?STEBZ (Sturm bisection), both by ``eigvalsh_tridiagonal``;
eigenvalues with their unit eigenvectors from ?STEVD too, by
``eigh_tridiagonal``.  During that call the eigenvectors and LAPACK's
workspace hold two n-by-n arrays, 16 n^2 bytes: 1 MB at n = 256, 10 MB at
n = 800 and 256 MB at n = 4096.

Eigenvalue counts and minors read the Sturm pivots of T - s,
d_i = (a_i - s) - b_{i-1}^2 / d_{i-1}, swept from either end of the matrix
for each of a few shifts s by ``_sweep``, one guarded row per step on Python
floats: a pivot that vanishes is replaced by -pivmin before the next
division.  The pivots give:

- eigenvalue counts: the number of negative pivots (Sylvester's law of
  inertia, which holds in any elimination order);
- nested minors, the cumulative products of the pivots, from which the
  lattice Green's function follows by Cramer's rule without a dense inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowTooLarge

__all__ = [
    "FULL_DRIVER",
    "INDEX_DRIVER",
    "sturm_count",
    "log_minors",
    "bisect_eigenvalues",
    "eigenpairs",
    "scaled_det_forward",
    "scaled_det_backward",
    "inverse_iteration",
]

FULL_DRIVER = "stevd"  # all eigenvalues, with or without their eigenvectors
INDEX_DRIVER = "stebz"  # eigenvalues by index
INVERSE_ITERATIONS = 3  # banded solves of inverse_iteration


def _sweep(diag, off2, shifts, reverse=False):
    """Sturm pivots of T - s for every shift s: an (n, len(shifts)) array.

    diag: length-n diagonal; off2: length-(n-1) squared off-diagonal.  Row i
    holds det[0, i] / det[0, i-1], the pivot of row i when rows are
    eliminated from the top; with ``reverse`` they are eliminated from the
    bottom and row i holds det[i, n-1] / det[i+1, n-1].  The recurrence
    d_k = (a_k - s) - b_{k-1}^2 / d_{k-1} (b_{-1} = 0) runs on Python floats,
    cheaper than a numpy call per row for the few shifts callers pass; a
    pivot below pivmin in modulus becomes -pivmin, so no division fails.
    """
    off2 = np.asarray(off2, dtype=np.float64)
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * 2.0e-300
    order = slice(None, None, -1) if reverse else slice(None)
    rows = np.asarray(diag, dtype=np.float64)[order].tolist()
    b2s = [0.0] + off2[order].tolist()
    shifts = np.asarray(shifts, dtype=np.float64).tolist()
    piv = []
    for s in shifts:
        d = 1.0
        for a, b2 in zip(rows, b2s):
            d = a - s - b2 / d
            if abs(d) < pivmin:
                d = -pivmin
            piv.append(d)
    return np.array(piv).reshape(len(shifts), len(rows)).T[order]


def sturm_count(diag, off2, shifts):
    """Number of eigenvalues of the symmetric tridiagonal below each shift.

    diag: length-n diagonal; off2: length-(n-1) squared off-diagonal;
    shifts: scalar or array of evaluation points.
    """
    scalar = np.isscalar(shifts)
    cnt = np.count_nonzero(_sweep(diag, off2, np.atleast_1d(shifts)) < 0, axis=0)
    return int(cnt[0]) if scalar else cnt


def log_minors(diag, off2, shifts, reverse=False):
    """Nested minors of T - s grown from one end, for every shift s.

    Returns (logabs, neg), both (n, len(shifts)): row i describes det[0, i]
    (with ``reverse``: det[i, n-1]) as log|det| and the number of negative
    pivots in it, so its sign is (-1)**neg and the last row's neg (reverse:
    row 0's) counts the eigenvalues below s.
    """
    piv = _sweep(diag, off2, shifts, reverse)
    order = slice(None, None, -1) if reverse else slice(None)
    logabs = np.cumsum(np.log(np.abs(piv[order])), axis=0)[order]
    neg = np.cumsum(piv[order] < 0, axis=0)[order]
    return logabs, neg


def _eig_index(index, size):
    """The one rule for an eigenvalue index of a size-`size` window: 0 <= index < size.

    Negative indices are refused, not read from the top as in Python.
    """
    index = int(index)
    if not 0 <= index < size:
        raise IndexError(f"eigenvalue index {index} outside the size-{size} window")
    return index


def bisect_eigenvalues(diag, off, index=None):
    """All eigenvalues, ascending, or with ``index`` the one at that 0-based index.

    The full spectrum comes from ?STEVD, a pick (a float, _eig_index's
    rule) from ?STEBZ over that one index: every pick asks the same range,
    as ?STEBZ's value depends on the range it is given.
    """
    # imported on first use: loading scipy.linalg would triple the package import time
    from scipy.linalg import eigvalsh_tridiagonal

    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    if index is None:
        return eigvalsh_tridiagonal(diag, off, lapack_driver=FULL_DRIVER)
    i = _eig_index(index, len(diag))
    return float(eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(i, i), lapack_driver=INDEX_DRIVER
    )[0])


def eigenpairs(diag, off):
    """All eigenvalues, ascending, and their unit eigenvectors, from ?STEVD.

    Returns (vals, vecs) with vecs[:, j] the eigenvector of vals[j], an n-by-n
    array (8 n^2 bytes, twice that during the call).  Only squared
    components are meaningful: the sign of each column is LAPACK's.  A
    window whose arrays cannot be allocated raises WindowTooLarge.
    """
    from scipy.linalg import eigh_tridiagonal  # on first use, as in bisect_eigenvalues

    diag = np.asarray(diag, dtype=np.float64)
    try:
        return eigh_tridiagonal(diag, np.asarray(off, dtype=np.float64), lapack_driver=FULL_DRIVER)
    except MemoryError:
        n = len(diag)
        raise WindowTooLarge(
            f"the eigenvectors of a size-{n} window need 16 n^2 = {16 * n * n} bytes "
            f"({16 * n * n / 2**30:.3g} GiB) during the eigensolve"
        ) from None


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
    vanishing minor reads as one of modulus about pivmin (see _sweep).
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


def inverse_iteration(diag, off, energy, rng=None):
    """Unit eigenvector estimate for the eigenvalue nearest ``energy``.

    INVERSE_ITERATIONS steps of plain inverse iteration on the real symmetric
    tridiagonal via banded LU; deterministic when given a seeded rng.  The
    library itself reads eigenvectors from eigenpairs.
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
    for _ in range(INVERSE_ITERATIONS):
        v = solve_banded((1, 1), ab, v)
        v /= np.linalg.norm(v)
    return v
