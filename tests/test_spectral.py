import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harperlab import spectral
from harperlab._tridiag import bisect_eigenvalues, eigenpairs, inverse_iteration
from harperlab.cocycle import lyapunov_formula
from harperlab.contfrac import ConstantBeta, beta_exponent, forge, golden, silver
from harperlab.errors import (
    FloatRangeExceeded,
    NoBulkSpectrum,
    PoorlyLocalized,
    ResolventSingular,
    SingularSamplingPoint,
)
from harperlab.model import (
    CouplingTriple,
    OperatorSample,
    build_truncation,
    c_function,
    green_function,
    orbit_phases,
)
from harperlab.spectral import (
    _basis_solutions,
    badness_scan,
    decay_fit,
    delta_exponent,
    duality_check,
    hausdorff_sorted,
    perturbation_experiment,
    regularity_test,
    truncated_spectrum,
)

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def sample(triple=(0.1, 0.5, 0.2), theta=0.135, alpha=None):
    return OperatorSample(CouplingTriple(*triple), alpha or golden(), theta)


# -- spectra -------------------------------------------------------------------


def test_spectrum_single_site():
    spec = truncated_spectrum(sample(theta=0.3), 1)
    assert spec.eigenvalues[0] == pytest.approx(2 * math.cos(2 * math.pi * 0.3))


def test_sturm_vs_dense_oracle_small():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x1 = int(rng.integers(-40, 40))
        s = sample(theta=float(rng.random()))
        tr = build_truncation(s, x1, x1 + n - 1)
        spec = bisect_eigenvalues(*tr.gauge_symmetric())
        oracle = np.linalg.eigvalsh(tr.dense())
        worst = max(worst, float(np.max(np.abs(spec - oracle))))
    assert worst <= 1e-9


def test_spectrum_critical_amo_count_and_bound():
    s = sample((0, 1.0, 0))
    spec = truncated_spectrum(s, 512)
    assert len(spec.eigenvalues) == 512
    bound = 2 + 2 * (0 + 1.0 + 0)
    assert np.all(np.abs(spec.eigenvalues) <= bound)
    assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_spectrum_phase_aggregation_count():
    spec = truncated_spectrum(sample(), 32, phases=[0.1, 0.4, 0.8])
    assert len(spec.eigenvalues) == 96
    assert spec.phases == [0.1, 0.4, 0.8]


def test_hausdorff_sorted_basics():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.1, 1.0, 2.5])
    assert hausdorff_sorted(a, b) == pytest.approx(0.5)
    assert hausdorff_sorted(a, a) == 0.0


# -- duality -------------------------------------------------------------------


def test_duality_self_dual_amo_exact_zero():
    d, rep = duality_check(CouplingTriple(0, 1.0, 0), golden(), 128, 4)
    assert d == 0.0
    assert rep.dual_coupling == pytest.approx((0.0, 1.0, 0.0))


def test_duality_self_dual_line_exact_zero():
    # sigma fixes (a, 1, a) on the self-dual line
    d, _ = duality_check(CouplingTriple(0.3, 1.0, 0.3), golden(), 96, 3)
    assert d == 0.0


def test_duality_ehm_distance_small():
    d, rep = duality_check(CouplingTriple(0.1, 0.5, 0.2), golden(), 256, 16)
    assert d <= 0.05
    assert rep.boundary_filtered[0] > 0  # localized side sheds gap modes


def _dense_bulk(coupling, size, thetas, edge_frac=0.05, edge_mass_max=0.25):
    """Dense-eigh oracle of duality_check's per-side aggregate: (kept, dropped, all)."""
    zone = max(10, int(size * edge_frac))
    kept, dropped, every = [], 0, []
    for th in thetas:
        tr = build_truncation(OperatorSample(coupling, golden(), th), 0, size - 1)
        w, v = np.linalg.eigh(tr.dense())
        mass = np.sum(np.abs(v[:zone]) ** 2, axis=0) + np.sum(np.abs(v[-zone:]) ** 2, axis=0)
        # a mode within 1e-6 of the cut would make the oracle count fragile
        assert np.min(np.abs(mass - edge_mass_max)) > 1e-6
        kept.append(w[mass <= edge_mass_max])
        dropped += int(np.count_nonzero(mass > edge_mass_max))
        every.append(w)
    return np.sort(np.concatenate(kept)), dropped, np.sort(np.concatenate(every))


def test_duality_boundary_filter_matches_dense_oracle():
    c = CouplingTriple(0.1, 0.5, 0.2)
    thetas = [0.1, 0.45, 0.8]
    d, rep = duality_check(c, golden(), 48, thetas)
    ea, da, ra = _dense_bulk(c, 48, thetas)
    eb, db, rb = _dense_bulk(CouplingTriple(*rep.dual_coupling), 48, thetas)
    assert rep.boundary_filtered == (da, db)
    assert da > 0
    assert d == pytest.approx(hausdorff_sorted(ea, c.lambda2 * eb), abs=1e-9)
    # the raw aggregates, every eigenvalue of every phase, on both sides
    for cpl, every in ((c, ra), (CouplingTriple(*rep.dual_coupling), rb)):
        raw = truncated_spectrum(OperatorSample(cpl, golden()), 48, thetas).eigenvalues
        np.testing.assert_allclose(raw, every, rtol=0, atol=1e-9)


def test_duality_rejects_empty_phases_and_covered_windows():
    c = CouplingTriple(0.1, 0.5, 0.2)
    for phases in (0, -2, []):
        with pytest.raises(ValueError, match="phases"):
            duality_check(c, golden(), 48, phases)
    with pytest.raises(ValueError, match="size"):
        duality_check(c, golden(), 20, 2)
    with pytest.raises(ValueError, match="phases"):
        truncated_spectrum(OperatorSample(c, golden()), 8, [])
    # two 10-row edge zones leave one bulk row of 21: every mode is a boundary mode
    with pytest.raises(NoBulkSpectrum, match="given side"):
        duality_check(c, golden(), 21, 1)


def test_duality_distance_improves_with_size():
    thetas = list((np.arange(12) + 0.5) / 12)
    d_small, _ = duality_check(CouplingTriple(0.1, 0.5, 0.2), golden(), 128, thetas)
    d_large, _ = duality_check(CouplingTriple(0.1, 0.5, 0.2), golden(), 512, thetas)
    assert d_large <= 1.2 * d_small


# -- delta exponent ---------------------------------------------------------------


def test_delta_equals_beta_without_zeros():
    cf = forge(golden(), n0=3, schedule=ConstantBeta(0.3), levels=3)
    dest, dlevels = delta_exponent(CouplingTriple(0.1, 0.7, 0.2), cf, 0.135, cf.depth)
    fe = beta_exponent(cf, cf.depth)
    assert dest == fe.beta_estimate
    assert dlevels == fe.per_level


def test_delta_below_beta_levelwise():
    cf = forge(golden(), n0=3, schedule=ConstantBeta(0.3), levels=3)
    c = CouplingTriple(0.25, 0.5, 0.25)
    dest, dlevels = delta_exponent(c, cf, 0.135, cf.depth)
    fe = beta_exponent(cf, cf.depth)
    for (n, b), (n2, d) in zip(fe.per_level, dlevels):
        assert n == n2
        assert d <= b + 1e-12


def test_delta_matches_beta_at_deep_level():
    cf = forge(golden(), n0=3, schedule=ConstantBeta(0.3), levels=3)
    c = CouplingTriple(0.25, 0.5, 0.25)
    dest, dlevels = delta_exponent(c, cf, 0.135, cf.depth)
    fe = beta_exponent(cf, cf.depth)
    n, b = fe.per_level[-1]
    _, d = dlevels[-1]
    assert abs(d - b) <= 0.15 * b


def test_delta_pair_zero_case_runs():
    cf = forge(golden(), n0=3, schedule=ConstantBeta(0.4), levels=2)
    c = CouplingTriple(0.5, 0.5, 0.5)
    dest, dlevels = delta_exponent(c, cf, 0.135, cf.depth)
    fe = beta_exponent(cf, cf.depth)
    for (n, b), (_, d) in zip(fe.per_level, dlevels):
        assert d <= b + 1e-12


# -- badness ----------------------------------------------------------------------


def test_badness_window_mass_at_least_one():
    rng = np.random.default_rng(11)
    for _ in range(12):
        s = rng.uniform(0, 0.9)
        f = rng.uniform(0, 1)
        c = CouplingTriple(s * f, rng.uniform(0.1, 0.9), s * (1 - f))
        samp = OperatorSample(c, golden(), float(rng.random()))
        rep = badness_scan(samp, C=1.0, N=int(rng.integers(1, 6)), E_count=3, angles=16)
        assert rep.min_mass >= 1.0
        assert rep.verdict == "bad"  # C=1 is always met: the window holds k=0,-1


def test_badness_contrast_bad_side():
    cf = forge(golden(), n0=2, schedule=ConstantBeta(1.0), levels=3)
    samp = OperatorSample(CouplingTriple(0, 0.5, 0), cf, 0.135)
    masses = []
    found = None
    for N in (8, 16, 32, 64):
        rep = badness_scan(samp, C=3.0, N=N, E_count=6, refine=True)
        masses.append(rep.min_mass)
        if rep.verdict == "bad" and found is None:
            found = N
    assert found is not None
    assert masses == sorted(masses)  # mass grows with the window


def test_badness_contrast_localized_side():
    samp = OperatorSample(CouplingTriple(0, 0.5, 0), golden(), 0.135)
    size = 512
    tr = build_truncation(samp, -size // 2, size - 1 - size // 2)
    d, b = tr.gauge_symmetric()
    eigs = bisect_eigenvalues(d, b)
    rng = np.random.default_rng(5)
    near = []
    for i in range(size):
        v = inverse_iteration(d, b, eigs[i], rng=rng)
        if abs(int(np.argmax(np.abs(v))) + tr.x1) <= 2:
            near.append(float(eigs[i]))
    assert near
    for N in (8, 16, 32):
        rep = badness_scan(samp, C=3.0, N=N, energies=near[:2], refine=True)
        assert rep.verdict == "not_bad"
        assert rep.min_mass < 2.0
        assert rep.witness_E is not None


# The scalar two-sided recurrences the basis-solution closed form replaced,
# kept as references: the window mass swept over initial angles, and the
# (u(k), u(k-1)) pairs grown from given initial data.


def _solution_masses(sample, energy, N, phis):
    """sum_{|k|<=N} |u(k)|^2 for normalized initial angles phis (in turns).

    Called only after badness_scan passed on the same window, whose zero
    guard has then cleared every phase this divides by.
    """
    coupling = sample.coupling
    alpha_frac = sample.alpha_fraction()
    alpha_f = float(alpha_frac)
    phis = np.atleast_1d(np.asarray(phis, dtype=np.float64))
    u0 = np.cos(2 * np.pi * phis).astype(np.complex128)
    um1 = np.sin(2 * np.pi * phis).astype(np.complex128)
    mass = np.abs(u0) ** 2 + np.abs(um1) ** 2
    xs = orbit_phases(sample.theta, alpha_frac, -N - 1, 2 * N + 3)
    cvals = np.asarray(c_function(coupling, alpha_f, xs), dtype=np.complex128).reshape(-1)

    def phase(n):
        return xs[n + N + 1]

    def c_at(n):
        return cvals[n + N + 1]

    ucur, uprev = u0.copy(), um1.copy()
    for n in range(0, N):
        d_n = energy - 2.0 * math.cos(2 * math.pi * phase(n))
        unew = (d_n * ucur - np.conj(c_at(n - 1)) * uprev) / c_at(n)
        uprev, ucur = ucur, unew
        mass += np.abs(ucur) ** 2
    ucur, unext = um1.copy(), u0.copy()
    for n in range(-1, -N, -1):
        d_n = energy - 2.0 * math.cos(2 * math.pi * phase(n))
        uprevv = (d_n * ucur - c_at(n) * unext) / np.conj(c_at(n - 1))
        unext, ucur = ucur, uprevv
        mass += np.abs(ucur) ** 2
    return mass


def _two_sided_vectors(coupling, alpha_frac, theta, energy, N, init):
    """(u(k), u(k-1)) pairs for |k| <= N from the given initial data."""
    alpha_f = float(alpha_frac)
    xs = orbit_phases(theta, alpha_frac, -N - 1, 2 * N + 3)
    cvals = np.asarray(c_function(coupling, alpha_f, xs), dtype=np.complex128).reshape(-1)

    def phase(n):
        return xs[n + N + 1]

    def c_at(n):
        return cvals[n + N + 1]

    out = {0: np.array([init[0], init[1]], dtype=np.complex128)}
    ucur, uprev = complex(init[0]), complex(init[1])
    for n in range(0, N):
        d_n = energy - 2.0 * math.cos(2 * math.pi * phase(n))
        unew = (d_n * ucur - np.conj(c_at(n - 1)) * uprev) / c_at(n)
        uprev, ucur = ucur, unew
        out[n + 1] = np.array([ucur, uprev], dtype=np.complex128)
    ucur, unext = complex(init[1]), complex(init[0])  # u(-1), u(0)
    for n in range(-1, -N - 1, -1):
        d_n = energy - 2.0 * math.cos(2 * math.pi * phase(n))
        uprevv = (d_n * ucur - c_at(n) * unext) / np.conj(c_at(n - 1))
        out[n] = np.array([ucur, uprevv], dtype=np.complex128)
        unext, ucur = ucur, uprevv
    return out


def _exact_solution(coupling, alpha_frac, theta, energy, N, init):
    """u(k) for k in [-N-1, N] from (u(0), u(-1)) = init, at mpmath's precision.

    The orbit, c and the diagonal are the float inputs _two_sided_vectors
    builds; the recurrence runs on them without rounding.
    """
    xs = orbit_phases(theta, alpha_frac, -N - 1, 2 * N + 3)
    cs = np.asarray(c_function(coupling, float(alpha_frac), xs), dtype=np.complex128).reshape(-1)
    d = [mpmath.mpf(energy - 2.0 * math.cos(2 * math.pi * x)) for x in xs]
    c = [mpmath.mpc(complex(z)) for z in cs]
    o = N + 1  # index of site 0
    u = [mpmath.mpc(0)] * (2 * N + 2)
    u[o], u[o - 1] = mpmath.mpc(init[0]), mpmath.mpc(init[1])
    for i in range(o, 2 * N + 1):
        u[i + 1] = (d[i] * u[i] - c[i - 1].conjugate() * u[i - 1]) / c[i]
    for i in range(o - 1, 0, -1):
        u[i - 1] = (d[i] * u[i] - c[i] * u[i + 1]) / c[i - 1].conjugate()
    return u


EPS = np.finfo(float).eps
ROUNDING = 16 * EPS  # one step: d and its cos, two products, a difference, a division


def _rounding_bound(tr, energy, E, init):
    """First-order bound on the rounding of _basis_solutions(tr, [energy])[0] @ init.

    E holds the exact basis solutions, rows as in U.  The step that makes row
    r rounds it, its float inputs included, by at most ROUNDING times mu_r,
    the size of the step's terms; that moves row k by G[k, r] times as much,
    where column r of G is the solution that is 1 at row r and 0 at the row
    before it, run on in the same direction.  The combination with init adds
    2 eps of each row.
    """
    d, c, o = energy - tr.diag, tr.offdiag, -tr.x1  # o: row of site 0
    dmag = abs(energy) + np.abs(tr.diag)  # rounding of d, and a cos an ulp off
    w, absE = np.abs(init), np.abs(E)
    mu, G = np.zeros(tr.size), np.zeros((tr.size, tr.size), dtype=np.complex128)
    for i in range(o, tr.size - 1):  # forward: row i + 1 from rows i and i - 1
        mu[i + 1] = (dmag[i] * absE[i] + abs(c[i - 1]) * absE[i - 1]) @ w / abs(c[i])
        G[i + 1] = (d[i] * G[i] - np.conj(c[i - 1]) * G[i - 1]) / c[i]
        G[i + 1, i + 1] = 1.0
    for i in range(o - 1, 0, -1):  # backward: row i - 1 from rows i and i + 1
        mu[i - 1] = (dmag[i] * absE[i] + abs(c[i]) * absE[i + 1]) @ w / abs(c[i - 1])
        G[i - 1] = (d[i] * G[i] - c[i] * G[i + 1]) / np.conj(c[i - 1])
        G[i - 1, i - 1] = 1.0
    return ROUNDING * (np.abs(G) @ mu) + 2 * EPS * (absE @ w)


def _near_origin_energies(samp, size=512):
    """Eigenvalues of the centered window whose eigenvectors peak within 2 of 0."""
    tr = build_truncation(samp, -size // 2, size - 1 - size // 2)
    w, v = np.linalg.eigh(tr.dense())
    return [float(e) for e, col in zip(w, v.T) if abs(int(np.argmax(np.abs(col))) + tr.x1) <= 2]


LOCALIZED = sample((0, 0.5, 0))  # test_09's golden side, theta = 0.135
recurrences = settings(deadline=None, derandomize=True, max_examples=60)
couplings = st.tuples(st.floats(0.0, 0.6), st.floats(0.1, 1.5), st.floats(0.0, 0.6))
energy_lists = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3)


@recurrences
@given(couplings, st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.floats(-4.0, 4.0),
       st.integers(1, 40), st.floats(0.0, 1.0))
# rows reach 1e3 between sites 0 and -7 and fall back to 1, so u(-8) rounds to
# 1.7e-12 from its exact value, past 1e-12 |U_-8| but inside the rounding bound
@example((0.0, 0.125, 0.0), 0.0625, 0.0, 0.0, 7, 1.0)
def test_basis_solutions_match_scalar_recurrence(triple, alpha, theta, energy, N, angle):
    s = sample(triple, theta=theta, alpha=Fraction(alpha))
    a = s.alpha_fraction()
    init = (math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle))
    tr = build_truncation(s, -N - 1, N)
    try:
        U = _basis_solutions(tr, [energy])[0]
    except SingularSamplingPoint:
        assume(False)
    with mpmath.workdps(50):
        E = [_exact_solution(s.coupling, a, theta, energy, N, e) for e in ((1, 0), (0, 1))]
        exact = [complex(e0 * init[0] + e1 * init[1]) for e0, e1 in zip(*E)]
    bound = _rounding_bound(tr, energy, np.array(E, dtype=np.complex128).T, init)
    err = np.abs(U @ init - exact)
    assert np.all(err <= bound), np.flatnonzero(err > bound) + tr.x1


def _truncation_recurrence(tr, energy, init):
    """u(k) for the sites of tr, grown from (u(0), u(-1)) = init by tr's own rows."""
    d, c, o = energy - tr.diag, tr.offdiag, -tr.x1  # o: row of site 0
    u = np.zeros(tr.size, dtype=np.complex128)
    u[o], u[o - 1] = init
    for i in range(o, tr.size - 1):
        u[i + 1] = (d[i] * u[i] - np.conj(c[i - 1]) * u[i - 1]) / c[i]
    for i in range(o - 1, 0, -1):
        u[i - 1] = (d[i] * u[i] - c[i] * u[i + 1]) / np.conj(c[i - 1])
    return u


# digit streams, fresh per example; the forged one is forged on demand
STREAMS = {"golden": golden, "silver": silver,
           "forged": lambda: forge(golden(), 5, ConstantBeta(0.5), 0)}


@recurrences
@given(couplings, st.sampled_from(sorted(STREAMS)), st.floats(0.0, 1.0), energy_lists,
       st.integers(1, 40))
def test_basis_solutions_run_the_truncation_rows(triple, freq, theta, energies, N):
    s = sample(triple, theta=theta, alpha=STREAMS[freq]())
    tr = build_truncation(s, -N - 1, N)
    try:
        U = _basis_solutions(tr, energies)
    except SingularSamplingPoint:
        assume(False)
    for e, Ue in zip(energies, U):
        scale = np.maximum(1.0, np.linalg.norm(Ue, axis=1))
        for b, init in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            assert np.all(np.abs(Ue[:, b] - _truncation_recurrence(tr, e, init)) <= 1e-12 * scale)


@recurrences
@given(couplings, st.floats(0.0, 1.0), energy_lists, st.integers(1, 40), st.integers(1, 64))
def test_badness_grid_minimum_matches_reference(triple, theta, energies, N, angles):
    s = sample(triple, theta=theta)
    try:
        rep = badness_scan(s, C=3.0, N=N, angles=angles, energies=energies)
    except SingularSamplingPoint:
        assume(False)
    phis = np.arange(angles) / angles
    ref = min(float(np.min(_solution_masses(s, e, N, phis))) for e in energies)
    assert rep.min_mass >= 1.0
    assert rep.min_mass == pytest.approx(ref, rel=1e-9)


def _check_refined_minimum(s, energies, N, rel=1e-9):
    rep = badness_scan(s, C=math.inf, N=N, energies=energies, refine=True)
    fine = np.arange(4096) / 4096
    ref = min(float(np.min(_solution_masses(s, e, N, fine))) for e in energies)
    assert rep.min_mass >= 1.0
    assert rep.min_mass <= ref * (1 + 1e-9)
    assert 0.0 <= rep.witness_angle < 0.5
    at_witness = float(_solution_masses(s, rep.witness_E, N, [rep.witness_angle])[0])
    assert at_witness == pytest.approx(rep.min_mass, rel=rel)
    return rep


@recurrences
@given(couplings, st.floats(0.0, 1.0), energy_lists, st.integers(1, 40))
def test_badness_refine_is_the_infimum(triple, theta, energies, N):
    s = sample(triple, theta=theta)
    try:
        _check_refined_minimum(s, energies, N)
    except SingularSamplingPoint:
        assume(False)


def test_badness_requires_an_energy():
    for kwargs in ({"energies": []}, {"E_count": 0}):
        with pytest.raises(ValueError):
            badness_scan(sample(), C=3.0, N=8, **kwargs)


# the basis solutions, or the squares that sum to a window mass, pass 1.8e308
@pytest.mark.parametrize(
    "triple, N, refine",
    [
        ((0.05, 0.2, 0.05), 1000, False),  # the solutions overflow
        ((0.05, 0.2, 0.05), 400, False),  # the solutions fit, their squares do not
        ((0.05, 0.2, 0.05), 400, True),
        ((1e-300, 1e-300, 1e-300), 4, False),
    ],
)
def test_badness_mass_past_the_float_range_raises_naming_n(triple, N, refine):
    with pytest.raises(FloatRangeExceeded, match=f"at N={N} "):
        badness_scan(OperatorSample(CouplingTriple(*triple), golden()), 3.0, N, refine=refine)


def test_badness_refine_localized_solution_exact():
    # the basis solutions reach 3.6e11, so 1 + lambda_min(A^T A) would read
    # 1.0 against the true 1.0244605; the scalar reference at the witness and
    # the closed form sit 0.9e-8 and 1.7e-8 from an 80-digit evaluation of the
    # same recurrence, hence rel=1e-7 here
    near = _near_origin_energies(LOCALIZED)
    rep = _check_refined_minimum(LOCALIZED, near[:2], 32, rel=1e-7)
    assert rep.verdict == "not_bad" and rep.min_mass < 2.0


# -- perturbation -------------------------------------------------------------------


def test_perturbation_zero_of_c_outside_window_raises():
    # c vanishes 7.3e-8 from site -N-1, whose conj(c) the backward step divides by
    c = CouplingTriple(0.2, 0.6, 0.4)
    for theta in (0.517221, 0.517221 + 1e-10):
        with pytest.raises(SingularSamplingPoint):
            perturbation_experiment(
                c, Fraction(6180339887, 10**10), Fraction(618034, 10**6), theta, N=6,
                trunc_size=64,
            )


@pytest.mark.parametrize(
    "triple, alpha, alpha_prime, q_index, eig_index",
    [
        ((0, 0.9, 0), golden(), Fraction(618034, 10**6), None, "median"),  # README
        ((0.1, 0.5, 0.2), golden().fraction(min_q=10**14), None, 11, 40),  # test_10
        ((0.1, 0.5, 0.2), golden().fraction(min_q=10**14), None, 15, 700),
    ],
)
def test_perturbation_deviation_matches_scalar_reference(
    triple, alpha, alpha_prime, q_index, eig_index
):
    c, N = CouplingTriple(*triple), 20
    size = 256
    if q_index is not None:
        p, q = golden().convergent(q_index)
        alpha_prime, size = Fraction(p, q), 2 * q
    rep = perturbation_experiment(
        c, alpha, alpha_prime, 0.135, N=N, trunc_size=size, eig_index=eig_index
    )
    u, v = (
        _two_sided_vectors(
            c, OperatorSample(c, a, 0.135).alpha_fraction(), 0.135, e, N, (1.0, 0.0)
        )
        for a, e in ((alpha, rep.energy), (alpha_prime, rep.energy_prime))
    )
    ref = max(float(np.linalg.norm(u[k] - v[k])) for k in range(-N, N + 1))
    assert rep.solution_deviation == pytest.approx(ref, rel=1e-9)


def _raw_transfers(coupling, alpha, theta, energy, N):
    """Raw transfer matrices at sites -N..N, one orbit_phases phase at a time."""
    a = OperatorSample(coupling, alpha, theta).alpha_fraction()
    af = float(a)
    out = []
    for x in orbit_phases(theta, a, -N, 2 * N + 1):
        c = complex(c_function(coupling, af, x))
        cm = complex(c_function(coupling, af, x - af))
        d = energy - 2.0 * math.cos(2 * math.pi * x)
        out.append(np.array([[d / c, -cm.conjugate() / c], [1.0, 0.0]]))
    return out


@settings(deadline=None, derandomize=True, max_examples=12)
@given(
    st.sampled_from([(0, 0.9, 0), (0.1, 0.5, 0.2), (0.3, 1.2, 0.1)]),
    st.floats(0.0, 1.0),
    st.integers(1, 40),
    st.integers(9, 14),
)
def test_perturbation_matrix_deviation_matches_orbit_reference(triple, theta, N, level):
    c, g = CouplingTriple(*triple), golden()
    alpha_prime = Fraction(*g.convergent(level))
    rep = perturbation_experiment(c, g, alpha_prime, theta, N=N)
    ref = max(
        np.linalg.norm(m1 - m2, 2)
        for m1, m2 in zip(
            _raw_transfers(c, g, theta, rep.energy, N),
            _raw_transfers(c, alpha_prime, theta, rep.energy_prime, N),
        )
    )
    assert rep.matrix_deviation == pytest.approx(ref, rel=1e-8)


def test_perturbation_identical_frequencies():
    a = golden().fraction(10**10)
    rep = perturbation_experiment(
        CouplingTriple(0, 0.9, 0), a, a, 0.135, N=10, trunc_size=256
    )
    assert rep.epsilon == 0.0
    assert rep.matrix_deviation == 0.0
    assert rep.solution_deviation == 0.0


@pytest.mark.parametrize("triple", [(0, 1e-310, 0), (1e-320, 1e-320, 1e-320)])
def test_perturbation_past_the_float_range_raises_naming_n(triple):
    # at a subnormal |c| the raw transfer matrices are not finite: a numeric
    # error, not the LinAlgError (a ValueError) of their 2-norm
    with pytest.raises(FloatRangeExceeded, match="at N=3 "):
        perturbation_experiment(CouplingTriple(*triple), golden(), 0.6180339, 0.0, 3)


def test_perturbation_solution_deviation_near_the_float_range():
    # the solutions peak near 1e292: the deviation is a hypot of |du|, never squared
    rep = perturbation_experiment(CouplingTriple(0.05, 0.2, 0.05), golden(), 0.618034, 0.0, 400)
    assert 1e280 < rep.solution_deviation < math.inf


def test_perturbation_scaling_rough():
    g = golden()
    alpha = g.fraction(min_q=10**12)
    epss, devs = [], []
    for n in [11, 15]:
        p, q = g.convergent(n)
        ap = Fraction(p, q)
        rep = perturbation_experiment(
            CouplingTriple(0, 0.9, 0), alpha, ap, 0.135, N=20, trunc_size=2 * q
        )
        epss.append(abs(float(alpha - ap)))
        devs.append(rep.solution_deviation)
    slope = (math.log(devs[0]) - math.log(devs[1])) / (
        math.log(epss[0]) - math.log(epss[1])
    )
    assert 0.2 <= slope <= 1.0  # the tight window is pinned in acceptance


# -- regularity ----------------------------------------------------------------------


def test_regularity_deep_localization_toy():
    s = sample((0, 0.05, 0))
    res = regularity_test(s, energy=0.77, y=0, m=1.5, k=18)
    assert res.regular
    x1, x2 = res.window
    assert x1 <= 0 <= x2 and x2 - x1 + 1 == 18


def test_regularity_unattainable_rate_singular():
    s = sample((0, 0.05, 0))
    res = regularity_test(s, energy=0.77, y=0, m=60.0, k=18)
    assert not res.regular


def test_regularity_requires_k_at_least_nine():
    with pytest.raises(ValueError):
        regularity_test(sample(), 0.5, 0, 1.0, 5)


def _regularity_scan(s, energy, y, m, k):
    """The per-window reference: one truncation and two green_function calls per window."""
    d = -(-k // 9)
    skipped = []
    for x1 in range(y + d - k + 1, y - d + 1):
        x2 = x1 + k - 1
        trunc = build_truncation(s, x1, x2)
        try:
            g1 = abs(green_function(trunc, energy, y, x1))
            g2 = abs(green_function(trunc, energy, y, x2))
        except ResolventSingular:
            skipped.append((x1, x2))
            continue
        if g1 < math.exp(-m * abs(y - x1)) and g2 < math.exp(-m * abs(y - x2)):
            return True, (x1, x2), skipped
    return False, None, skipped


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.tuples(st.floats(0.0, 0.4), st.floats(0.05, 1.5), st.floats(0.0, 0.4)),
    st.floats(0.0, 1.0),
    st.integers(9, 60),
    st.integers(-30, 30),
    st.floats(0.0, 2.5),
    st.one_of(st.floats(-3.0, 3.0), st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))),
)
def test_regularity_matches_per_window_green_scan(triple, theta, k, y, m, energy):
    s = sample(triple, theta=theta)
    if isinstance(energy, tuple):  # an eigenvalue of one window: that window is skipped
        d = -(-k // 9)
        x1 = y + d - k + 1 + energy[0] % (k - 2 * d)
        w = np.linalg.eigvalsh(build_truncation(s, x1, x1 + k - 1).dense())
        energy = float(w[energy[1] % k])
    res = regularity_test(s, energy, y, m, k)
    assert (res.regular, res.window, res.skipped) == _regularity_scan(s, energy, y, m, k)


def test_singular_point_repulsion_spot_check():
    # no (L - eps, k)-singular points in the annulus (3k/4, (k-2)^1.5]
    s = sample()
    L = lyapunov_formula(s.coupling)
    size = 512
    tr = build_truncation(s, -size // 2, size - 1 - size // 2)
    d, b = tr.gauge_symmetric()
    eigs = bisect_eigenvalues(d, b)
    rng = np.random.default_rng(5)
    energy = None
    for i in range(size):
        v = inverse_iteration(d, b, eigs[i], rng=rng)
        if abs(int(np.argmax(np.abs(v))) + tr.x1) <= 1:
            energy = float(eigs[i])
            break
    assert energy is not None
    k = 30
    bad = []
    for y in range(int(0.75 * k) + 1, int((k - 2) ** 1.5) + 1, 5):
        for yy in (y, -y):
            if not regularity_test(s, energy, yy, 0.7 * L, k).regular:
                bad.append(yy)
    assert bad == []


# -- decay fits -----------------------------------------------------------------------


def test_decay_fit_amo():
    fit = decay_fit(sample((0, 0.4, 0)), 800)
    target = math.log(2.5)
    assert fit.target == pytest.approx(target)
    assert abs(-fit.slope - target) <= 0.1 * target
    assert fit.r2 >= 0.95


def test_decay_fit_ehm():
    fit = decay_fit(sample(), 800)
    target = lyapunov_formula(CouplingTriple(0.1, 0.5, 0.2))
    assert abs(-fit.slope - target) <= 0.1 * target
    assert fit.r2 >= 0.95


def test_decay_fit_auto_pick_matches_dense_oracle():
    # weakly localized, so no two middle-third masses tie at rounding level
    s = sample((0, 0.9, 0))
    size = 400
    x1 = -(size // 2)
    w, v = np.linalg.eigh(build_truncation(s, x1, x1 + size - 1).dense())
    third = size // 3
    mass = np.sum(np.abs(v[third : 2 * third]) ** 2, axis=0)
    best = int(np.argmax(mass))
    assert np.sort(mass)[-2] < mass[best] - 1e-10  # the pick is unambiguous
    fit = decay_fit(s, size)
    assert fit.eigenvalue == pytest.approx(w[best], abs=1e-9)
    picked = decay_fit(s, size, which_eigenvector=best)
    assert picked.eigenvalue == pytest.approx(fit.eigenvalue, abs=1e-12)
    assert picked.slope == pytest.approx(fit.slope, abs=1e-9)


def test_decay_fit_auto_tie_rule_matches_dense_oracle():
    # strongly localized: many middle-third masses tie at 1 - O(1e-15)
    s = sample()
    size = 400
    x1 = -(size // 2)
    w, v = np.linalg.eigh(build_truncation(s, x1, x1 + size - 1).dense())
    third = size // 3
    mass = np.round(np.sum(np.abs(v[third : 2 * third]) ** 2, axis=0), 9)
    tied = np.flatnonzero(mass == mass.max())
    assert len(tied) > 10
    fit = decay_fit(s, size)
    assert fit.eigenvalue == pytest.approx(w[tied[len(tied) // 2]], abs=1e-9)


def test_decay_fit_peak_does_not_hang_on_mirrored_rounding(monkeypatch):
    # at theta = 0 the potential is even in n, and the picked eigenvector peaks at
    # sites -3 and +3 with squares equal to rounding; the fit from +3 reads r^2 0.855
    # (PoorlyLocalized), from -3 0.917.  Raising either entry to 1e-12 above its
    # mirror must not move the peak, and so not the fit.
    s = OperatorSample(CouplingTriple(0, 0.4, 0), silver(), 0.0)
    size = 400
    vals, vecs = eigenpairs(*build_truncation(s, -200, 199).gauge_symmetric())
    fit = decay_fit(s, size)
    index = int(np.flatnonzero(vals == fit.eigenvalue)[0])
    minus, plus = 200 - 3, 200 + 3  # rows of sites -3 and +3
    assert abs(vecs[minus, index]) == pytest.approx(abs(vecs[plus, index]), rel=1e-11)
    assert np.sort(vecs[:, index] ** 2)[-3] < 0.5 * vecs[plus, index] ** 2
    for raised, mirror in ((minus, plus), (plus, minus)):
        v = vecs.copy()
        v[raised, index] = math.copysign(abs(v[mirror, index]) * (1 + 1e-12), v[raised, index])
        monkeypatch.setattr(spectral, "eigenpairs", lambda diag, off, v=v: (vals, v))
        got = decay_fit(s, size)
        assert got.eigenvalue == fit.eigenvalue and got.window == fit.window
        assert got.slope == pytest.approx(fit.slope, rel=1e-9)
        assert got.r2 == pytest.approx(fit.r2, rel=1e-9)
    assert fit.r2 > 0.9


@pytest.mark.parametrize("size", [400, 800])
@pytest.mark.parametrize("triple", [(0, 0.4, 0), (0.1, 0.5, 0.2)])
def test_eigenpairs_match_dense_eigh_in_decay_fit_and_edge_zones(triple, size, monkeypatch):
    s = sample(triple)
    x1 = -(size // 2)
    trunc = build_truncation(s, x1, x1 + size - 1)
    w, v = np.linalg.eigh(trunc.dense())
    v2 = np.abs(v) ** 2
    vals, vecs = eigenpairs(*trunc.gauge_symmetric())
    assert np.max(np.abs(vals - w)) <= 1e-12
    # the masses behind decay_fit's "auto" pick and duality_check's boundary filter
    third = size // 3
    zone = max(10, int(size * spectral.EDGE_FRAC))
    for rows in (slice(third, 2 * third), slice(None, zone), slice(-zone, None)):
        assert np.max(np.abs(spectral._mass(vecs[rows]) - v2[rows].sum(axis=0))) <= 1e-12
    mass = np.round(v2[third : 2 * third].sum(axis=0), 9)
    tied = np.flatnonzero(mass == mass.max())
    best = int(tied[len(tied) // 2])
    fit = decay_fit(s, size)
    assert fit.eigenvalue == pytest.approx(w[best], abs=1e-12)
    # the same fit read from the dense eigenvectors
    monkeypatch.setattr(spectral, "eigenpairs", lambda diag, off: (w, np.abs(v)))
    ref = decay_fit(s, size)
    assert ref.eigenvalue == w[best] and ref.window == fit.window
    assert fit.slope == pytest.approx(ref.slope, rel=1e-9)
    assert fit.r2 == pytest.approx(ref.r2, rel=1e-9)


@pytest.mark.parametrize("triple, size", [((0, 0.5, 0), 800), ((0.1, 0.5, 0.2), 400)])
def test_decay_fit_at_theta_zero(triple, size):
    # the window is mirror-symmetric about the origin, and the picked eigenvector
    # may carry both mirrored peaks: the fit reads the side away from the centre
    fit = decay_fit(sample(triple, theta=0.0), size)
    target = lyapunov_formula(CouplingTriple(*triple))
    assert abs(-fit.slope - target) <= 0.1 * target
    assert fit.r2 >= 0.95


def test_decay_fit_index_out_of_range():
    # negative indices are refused, not read from the top of the spectrum
    for index in (400, -1, -400):
        with pytest.raises(IndexError):
            decay_fit(sample(), 400, which_eigenvector=index)


def test_decay_fit_region_II_poorly_localized():
    with pytest.raises(PoorlyLocalized):
        decay_fit(sample((0.1, 2.0, 0.1)), 800)


def test_decay_fit_size_validation():
    with pytest.raises(ValueError):
        decay_fit(sample(), 100)
