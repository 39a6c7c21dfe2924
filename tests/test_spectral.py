import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harperlab._tridiag import bisect_eigenvalues, inverse_iteration
from harperlab.cocycle import lyapunov_formula
from harperlab.contfrac import ConstantBeta, beta_exponent, forge, golden
from harperlab.errors import PoorlyLocalized, ResolventSingular
from harperlab.model import CouplingTriple, OperatorSample, build_truncation, green_function
from harperlab.spectral import (
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


def test_spectrum_csv_export():
    spec = truncated_spectrum(sample(), 4)
    lines = spec.to_csv().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5


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
    d_raw, rep_raw = duality_check(c, golden(), 48, thetas, edge_mass_max=1.0)
    assert rep_raw.boundary_filtered == (0, 0)
    assert d_raw == pytest.approx(hausdorff_sorted(ra, c.lambda2 * rb), abs=1e-9)


def test_duality_threads_bytewise_with_filtering():
    c = CouplingTriple(0.1, 0.5, 0.2)
    d1, rep1 = duality_check(c, golden(), 160, 4, theta0=0.3, threads=1)
    d2, rep2 = duality_check(c, golden(), 160, 4, theta0=0.3, threads=2)
    assert rep1.boundary_filtered[0] > 0
    assert np.float64(d1).tobytes() == np.float64(d2).tobytes()
    assert rep1 == rep2


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


# -- perturbation -------------------------------------------------------------------


def test_perturbation_identical_frequencies():
    a = golden().fraction(10**10)
    rep = perturbation_experiment(
        CouplingTriple(0, 0.9, 0), a, a, 0.135, N=10, trunc_size=256
    )
    assert rep.epsilon == 0.0
    assert rep.matrix_deviation == 0.0
    assert rep.solution_deviation == 0.0


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


def test_decay_fit_index_out_of_range():
    with pytest.raises(IndexError):
        decay_fit(sample(), 400, which_eigenvector=400)


def test_decay_fit_region_II_poorly_localized():
    with pytest.raises(PoorlyLocalized):
        decay_fit(sample((0.1, 2.0, 0.1)), 800)


def test_decay_fit_size_validation():
    with pytest.raises(ValueError):
        decay_fit(sample(), 100)
