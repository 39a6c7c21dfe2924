"""Property tests for the eigen layer (LAPACK and the pivot sweep) against dense oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harperlab import _tridiag
from harperlab._tridiag import (
    bisect_eigenvalues,
    log_minors,
    scaled_det_backward,
    scaled_det_forward,
    slice_masses,
    squared_components,
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


def _gapped_spectrum(dense, gap=1e-3):
    w, v = np.linalg.eigh(dense)
    assume(len(w) < 2 or np.min(np.diff(w)) >= gap)
    return w, np.abs(v) ** 2


@examples
@given(hermitian_tridiagonals(max_n=40, min_n=6), st.data())
def test_squared_components_match_dense_eigh_across_chunks(mat, data):
    diag, off, dense = mat
    n = len(diag)
    b = np.abs(off)
    w, ref = _gapped_spectrum(dense)
    chunk = data.draw(st.integers(1, n // 3))  # at least three chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_tridiag, "PIVOT_CELLS", chunk * n)
        starts = []
        for start, got in squared_components(diag, b, w):
            assert got.shape == (n, min(chunk, n - start))
            assert np.max(np.abs(got - ref[:, start : start + got.shape[1]])) <= 1e-9
            starts.append(start)
        assert starts == list(range(0, n, chunk)) and len(starts) >= 3
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        slices = (slice(lo, hi), slice(None, lo + 1), slice(-(n - lo), None))
        masses = slice_masses(diag, b, w, slices)
    expect = np.array([ref[rows].sum(axis=0) for rows in slices])
    assert masses.shape == (3, n)
    assert np.max(np.abs(masses - expect)) <= 1e-9
