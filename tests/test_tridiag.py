"""Property tests for the eigen layer (LAPACK and the pivot sweep) against dense oracles."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harperlab import _tridiag
from harperlab._tridiag import (
    bisect_eigenvalues,
    eigenpairs,
    log_minors,
    scaled_det_backward,
    scaled_det_forward,
    sturm_count,
)

# deterministic examples, so the suite gives the same verdict on every run
examples = settings(deadline=None, derandomize=True, max_examples=100)

_diag_entry = st.floats(-3.0, 3.0)
# off-diagonal moduli include exact zeros (decoupled blocks)
_off_modulus = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@st.composite
def hermitian_tridiagonals(draw, max_n=8, min_n=1):
    """(diag, complex off-diagonal, dense Hermitian matrix); n = 1 included."""
    n = draw(st.integers(min_n, max_n))
    diag = np.array(draw(st.lists(_diag_entry, min_size=n, max_size=n)))
    mods = draw(st.lists(_off_modulus, min_size=n - 1, max_size=n - 1))
    angles = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    off = np.array(mods) * np.exp(2j * np.pi * np.array(angles))
    dense = np.diag(diag).astype(complex)
    for i in range(n - 1):
        dense[i, i + 1] = off[i]
        dense[i + 1, i] = np.conj(off[i])
    return diag, off, dense


@examples
@given(hermitian_tridiagonals())
def test_full_spectrum_matches_dense(mat):
    diag, off, dense = mat
    got = bisect_eigenvalues(diag, np.abs(off))
    assert np.max(np.abs(got - np.linalg.eigvalsh(dense))) <= 1e-9


@examples
@given(hermitian_tridiagonals(), st.data())
def test_index_picks_equal_full_spectrum(mat, data):
    diag, off, _ = mat
    n = len(diag)
    full = bisect_eigenvalues(diag, np.abs(off))
    picks = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    got = bisect_eigenvalues(diag, np.abs(off), indices=picks)
    assert np.max(np.abs(got - full[sorted(picks)])) <= 1e-12


def _chain(n, seed, grade, splits):
    """(diag, off) of a random symmetric tridiagonal of order n.

    grade != 0 scales row i by 10**(grade * i / n), so the entries span
    |grade| decades along the diagonal; each index in ``splits`` (mod n - 1)
    zeroes that off-diagonal, so the matrix splits into blocks there.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (grade * np.arange(n) / n)
    diag = rng.uniform(-3.0, 3.0, n) * scale
    off = rng.uniform(-2.0, 2.0, n - 1) * np.sqrt(scale[:-1] * scale[1:])
    if n > 1:
        off[np.asarray(splits, dtype=np.int64) % (n - 1)] = 0.0
    return diag, off


# orders 1 and 2, and both sides of n = 25, where LAPACK's divide and conquer
# hands a block to implicit QL
@example(1, 0, 0.0, [])
@example(2, 0, 0.0, [])
@example(25, 1, 0.0, [])
@example(26, 1, 0.0, [])
@example(26, 2, 6.0, [12])
@example(400, 3, -6.0, [0, 199, 200, 398])
@examples
@given(
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
    st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
    st.lists(st.integers(0, 398), max_size=8),
)
def test_eigenpairs_are_orthonormal_eigenvectors_of_the_full_spectrum(n, seed, grade, splits):
    diag, off = _chain(n, seed, grade, splits)
    vals, vecs = eigenpairs(diag, off)
    tol = 1e-12 * max(1.0, abs(vals[0]), abs(vals[-1]))  # the 2-norm of T
    assert vals.shape == (n,) and vecs.shape == (n, n)
    assert np.all(np.diff(vals) >= 0)
    tv = diag[:, None] * vecs
    tv[:-1] += off[:, None] * vecs[1:]
    tv[1:] += off[:, None] * vecs[:-1]
    assert np.max(np.linalg.norm(tv - vecs * vals, axis=0)) <= tol
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12
    assert np.max(np.abs(vals - bisect_eigenvalues(diag, off))) <= tol


@examples
@given(hermitian_tridiagonals())
def test_index_out_of_range_raises(mat):
    diag, off, _ = mat
    n = len(diag)
    for bad in ([n], [-1], [0, n]):
        with pytest.raises(IndexError):
            bisect_eigenvalues(diag, np.abs(off), indices=bad)
    assert len(bisect_eigenvalues(diag, np.abs(off), indices=[])) == 0


@examples
@given(hermitian_tridiagonals(), st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=12))
def test_sturm_count_monotone_and_counts_lapack_eigenvalues(mat, shifts):
    diag, off, _ = mat
    b = np.abs(off)
    eigs = bisect_eigenvalues(diag, b)
    shifts = np.sort(np.concatenate([shifts, eigs]))  # shifts on eigenvalues too
    counts = sturm_count(diag, b * b, shifts)
    assert np.all(np.diff(counts) >= 0)
    # a shift within rounding of an eigenvalue may count it either way
    slack = 1e-9
    below = np.searchsorted(eigs, shifts - slack, side="left")
    at_or_below = np.searchsorted(eigs, shifts + slack, side="right")
    assert np.all(below <= counts) and np.all(counts <= at_or_below)
    assert sturm_count(diag, b * b, float(shifts[0])) == counts[0]


@examples
@given(hermitian_tridiagonals(max_n=12), st.floats(-8.0, 8.0), st.booleans())
def test_log_minors_match_dense_determinants(mat, shift, reverse):
    diag, off, dense = mat
    n = len(diag)
    b = np.abs(off)
    eigs = np.linalg.eigvalsh(dense)
    assume(np.min(np.abs(eigs - shift)) > 1e-6)
    logabs, neg = log_minors(diag, b * b, [shift], reverse)
    scaled = (scaled_det_backward if reverse else scaled_det_forward)(diag - shift, b * b)
    mant, expo = (part[:-1] if reverse else part[1:] for part in scaled)
    shifted = dense - shift * np.eye(n)
    for i in range(n):
        block = shifted[i:, i:] if reverse else shifted[: i + 1, : i + 1]
        sign, logdet = np.linalg.slogdet(block)
        if abs(logdet) > 30:  # a nearly singular minor: only its sign is unreliable
            continue
        assert logabs[i, 0] == pytest.approx(logdet, abs=1e-9)
        assert (-1) ** neg[i, 0] == pytest.approx(sign.real)
        assert mant[i] * 2.0 ** expo[i] == pytest.approx(sign.real * np.exp(logdet), rel=1e-9)
    # the whole matrix's negative pivots count its eigenvalues below the shift
    assert neg[0 if reverse else n - 1, 0] == np.count_nonzero(eigs < shift)


def _guarded_pivots(diag, off2, shifts):
    """The guarded Sturm pivot loop, one row at a time: (pivots, whether the guard fired).

    A pivot below pivmin in modulus becomes -pivmin; a NaN pivot counts as
    firing the guard, since it fails |d| >= pivmin.
    """
    pivmin = max(float(off2.max(initial=0.0)), 1.0) * 2.0e-300
    out = np.empty((len(diag), len(shifts)))
    fired = False
    for k in range(len(diag)):
        d = diag[k] - shifts
        if k:
            d -= off2[k - 1] / out[k - 1]
        small = np.abs(d) < pivmin
        fired |= bool(small.any() or np.isnan(d).any())
        d[small] = -pivmin
        out[k] = d
    return out, fired


_repeated_entry = st.one_of(st.sampled_from([0.0, 1.0, -0.5]), _diag_entry)


@st.composite
def guard_cases(draw):
    """(diag, off, shifts): repeated diagonal entries, splits, shifts on them, NaN."""
    n = draw(st.integers(1, 80))
    diag = np.array(draw(st.lists(_repeated_entry, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(_off_modulus, min_size=n - 1, max_size=n - 1)))
    on_diag = st.integers(0, n - 1).map(lambda i: diag[i])
    shift = st.one_of(st.floats(-4.0, 4.0), on_diag, st.just(np.nan))
    shifts = np.array(draw(st.lists(shift, min_size=1, max_size=8)))
    return diag, off, shifts


def _split_at(n, row):
    """Off-diagonals of a length-n chain that splits above ``row``."""
    off = np.full(n - 1, 0.7)
    off[row - 1] = 0.0
    return off


_SPLIT_DIAG = np.linspace(-1.0, 1.0, 130)


# the guard-firing cases: a shift on the first diagonal entry, a shift on the
# entry that starts a split-off block, a NaN shift
@example((_SPLIT_DIAG, np.full(129, 0.7), np.array([-1.0, 0.3])))
@example((_SPLIT_DIAG, _split_at(130, 100), np.array([0.2, _SPLIT_DIAG[100], 0.4])))
@example((_SPLIT_DIAG, np.full(129, 0.7), np.array([0.1, np.nan, 0.5, 0.6])))
@examples
@given(guard_cases())
def test_sweep_equals_the_guarded_row_loop_bit_for_bit(case):
    diag, off, shifts = case
    off2 = off * off
    for reverse in (False, True):
        order = slice(None, None, -1) if reverse else slice(None)
        piv = _tridiag._sweep(diag, off2, shifts, reverse)
        ref, fired = _guarded_pivots(diag[order], off2[order], shifts)
        assert piv.tobytes() == ref[order].tobytes()
        # a NaN shift, or one on the first eliminated diagonal entry, meets the guard
        if np.isnan(shifts).any() or np.isin(shifts, diag[order][:1]).any():
            assert fired
