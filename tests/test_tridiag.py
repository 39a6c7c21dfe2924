"""Property tests for the LAPACK-backed eigen layer against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harperlab._tridiag import (
    EIGENPAIR_BLOCK,
    bisect_eigenvalues,
    eigenpair_blocks,
    sturm_count,
)

# deterministic examples, so the suite gives the same verdict on every run
examples = settings(deadline=None, derandomize=True, max_examples=100)

_diag_entry = st.floats(-3.0, 3.0)
# off-diagonal moduli include exact zeros (decoupled blocks)
_off_modulus = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@st.composite
def hermitian_tridiagonals(draw, max_n=8):
    """(diag, complex off-diagonal, dense Hermitian matrix); n = 1 included."""
    n = draw(st.integers(1, max_n))
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
@given(hermitian_tridiagonals(max_n=3 * EIGENPAIR_BLOCK), st.data())
def test_eigenpair_blocks_are_eigenpairs(mat, data):
    diag, off, _ = mat
    n = len(diag)
    b = np.abs(off)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    full = bisect_eigenvalues(diag, b)
    real = np.diag(diag) + np.diag(b, 1) + np.diag(b, -1)
    seen = []
    for vals, vecs in eigenpair_blocks(diag, b, lo, hi):
        start = lo + len(seen)
        assert vecs.shape == (n, len(vals)) and len(vals) <= EIGENPAIR_BLOCK
        assert np.max(np.abs(vals - full[start : start + len(vals)])) <= 1e-12
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0)
        assert np.max(np.abs(real @ vecs - vecs * vals)) <= 1e-9
        seen.extend(vals)
    assert len(seen) == hi - lo
