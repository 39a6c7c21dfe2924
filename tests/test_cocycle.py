import math
from fractions import Fraction

import numpy as np
import pytest

from harperlab.cocycle import (
    Cocycle,
    commutant_rigidity_check,
    conjugation_residual,
    constant_rotation,
    degree,
    fourier_from_json,
    fourier_to_json,
    lyapunov_formula,
    lyapunov_numeric,
    n_step,
    rotation_matrix,
    rotation_number,
    rotation_number_map,
    solve_cohomological,
    transfer,
    two_norm,
)
from harperlab.contfrac import golden, silver, forge, SingleBurst
from harperlab.errors import (
    BranchAmbiguity,
    DivisorFloorViolated,
    GridTooCoarse,
    ResonantDivisor,
    SingularSamplingPoint,
)
from harperlab.model import (
    CouplingTriple,
    OperatorSample,
    build_truncation,
    c_function,
    c_tilde_function,
    zero_structure,
)
from harperlab.spectral import badness_scan, truncated_spectrum

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def amo(l2=0.5, theta=0.135):
    return OperatorSample(CouplingTriple(0, l2, 0), golden(), theta)


def ehm(theta=0.135):
    return OperatorSample(CouplingTriple(0.1, 0.5, 0.2), golden(), theta)


# -- transfer matrices ---------------------------------------------------------


def test_transfer_amo_closed_form():
    s = amo()
    e = 1.3
    m = transfer(s, e, 0.41, "raw")
    expect = np.array(
        [[(e - 2 * math.cos(2 * math.pi * 0.41)) / 0.5, -1.0], [1.0, 0.0]]
    )
    assert np.max(np.abs(m - expect)) < 1e-12


def test_raw_determinant_identity():
    rng = np.random.default_rng(0)
    s = ehm()
    a = s.alpha_float
    for _ in range(200):
        th, e = float(rng.random()), float(rng.uniform(-4, 4))
        m = transfer(s, e, th, "raw")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        expect = c_tilde_function(s.coupling, a, th - a) / c_function(
            s.coupling, a, th
        )
        assert abs(det - complex(expect)) < 1e-12 * abs(expect)


def test_normalized_determinant_one():
    rng = np.random.default_rng(1)
    s = ehm()
    for _ in range(10**4):
        th, e = float(rng.random()), float(rng.uniform(-4, 4))
        m = transfer(s, e, th, "normalized")
        assert m.dtype == np.float64
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) < 1e-12


def test_transfer_singular_sampling_point():
    c = CouplingTriple(0.25, 0.5, 0.25)  # zero at 1/2 - alpha/2
    s = OperatorSample(c, golden(), 0.0)
    bad_theta = 0.5 - s.alpha_float / 2
    with pytest.raises(SingularSamplingPoint):
        transfer(s, 1.0, bad_theta, "raw")


def test_transfer_recurrence_matches_direct_solve():
    # iterate the cocycle and compare with the three-term recurrence computed
    # straight from the operator entries
    rng = np.random.default_rng(2)
    s = ehm()
    a = s.alpha_float
    e = 0.7
    u0, um1 = rng.standard_normal(2)
    vec = np.array([u0, um1], dtype=complex)
    us = {0: complex(u0), -1: complex(um1)}
    for n in range(50):
        th = (0.135 + n * a) % 1.0
        d = 2 * math.cos(2 * math.pi * th)
        cn = complex(c_function(s.coupling, a, th))
        cm = complex(c_tilde_function(s.coupling, a, th - a))
        us[n + 1] = ((e - d) * us[n] - cm * us[n - 1]) / cn
    m, logn = n_step(s, e, 0.135, 50, "raw")
    got = m @ vec * math.exp(logn)
    expect = np.array([us[50], us[49]])
    assert np.max(np.abs(got - expect)) < 1e-9 * max(1.0, np.max(np.abs(expect)))


def test_n_step_zero_is_identity():
    m, logn = n_step(ehm(), 1.0, 0.3, 0, "raw")
    assert logn == 0.0
    assert np.array_equal(m, np.eye(2, dtype=complex))


def scaled_close(m1, l1, m2, l2, rtol):
    n1, n2 = two_norm(m1), two_norm(m2)
    assert abs((l1 + math.log(n1)) - (l2 + math.log(n2))) < rtol
    assert np.max(np.abs(m1 / n1 - m2 / n2)) < rtol


def test_cocycle_identity():
    s = ehm()
    a = s.alpha_float
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = int(rng.integers(5, 60)), int(rng.integers(5, 60))
        th = float(rng.random())
        full, lf = n_step(s, 0.7, th, m + n, "raw")
        am, lm = n_step(s, 0.7, th, m, "raw")
        an, ln = n_step(s, 0.7, (th + m * a) % 1.0, n, "raw")
        prod = an @ am
        scaled_close(full, lf, prod, lm + ln, 1e-8)


def test_n_step_matches_extended_precision_oracle():
    import mpmath

    s = amo(0.7)
    e = 0.9
    a = s.alpha_float
    with mpmath.workdps(60):
        m = mpmath.matrix([[1, 0], [0, 1]])
        for k in range(200):
            th = (0.135 + k * a) % 1.0
            d = e - 2 * mpmath.cos(2 * mpmath.pi * mpmath.mpf(th))
            step = mpmath.matrix([[d / 0.7, -1], [1, 0]])
            m = step * m
        oracle = np.array([[float(m[i, j]) for j in range(2)] for i in range(2)])
    got, logn = n_step(s, e, 0.135, 200, "raw")
    got = got.real * math.exp(logn)
    assert np.max(np.abs(got - oracle)) < 1e-10 * np.max(np.abs(oracle))


# -- Lyapunov exponents ----------------------------------------------------------


def test_lyapunov_formula_values():
    assert lyapunov_formula(CouplingTriple(0, 0.5, 0)) == pytest.approx(math.log(2))
    assert lyapunov_formula(CouplingTriple(0.1, 0.5, 0.2)) == pytest.approx(
        math.log((1 + math.sqrt(0.92)) / (0.5 + math.sqrt(0.17)))
    )
    assert lyapunov_formula(CouplingTriple(0.25, 1.0, 0.25)) == 0.0
    assert lyapunov_formula(CouplingTriple(0.1, 2.0, 0.1)) == 0.0


def test_lyapunov_numeric_amo():
    est = lyapunov_numeric(amo(), 0.0065, n_steps=20000, theta_grid=24)
    assert est.value == pytest.approx(math.log(2), rel=0.02)
    assert est.excluded_fraction == 0.0


def test_lyapunov_numeric_off_spectrum_larger():
    est = lyapunov_numeric(amo(), 10.0, n_steps=2000, theta_grid=8)
    assert est.value > math.log(2)


def test_lyapunov_raw_vs_normalized_agree():
    s = ehm()
    e = 0.3141
    raw = lyapunov_numeric(s, e, n_steps=20000, theta_grid=24, kind="raw")
    nrm = lyapunov_numeric(s, e, n_steps=20000, theta_grid=24, kind="normalized")
    tol = 3 * (raw.stderr + nrm.stderr)
    assert abs(raw.value - nrm.value) <= max(tol, 1e-4)


def test_lyapunov_numeric_validates_steps():
    with pytest.raises(ValueError):
        lyapunov_numeric(amo(), 0.0, n_steps=10, theta_grid=4)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda s, e: lyapunov_numeric(s, e, n_steps=1000, theta_grid=4),
    lambda s, e: rotation_number(s, e, n_steps=100),
    lambda s, e: n_step(s, e, 0.1, 10),
    lambda s, e: badness_scan(s, C=2.0, N=5, energies=[0.3, e]),
], ids=["lyapunov_numeric", "rotation_number", "n_step", "badness_scan"])
def test_a_non_finite_energy_is_refused(call, energy):
    # named as such, not reported as a product or a mass that overflows
    with pytest.raises(ValueError, match=f"E={energy!r}"):
        call(ehm(), energy)


def test_n_step_lognorm_grows_at_lyapunov_rate():
    s = ehm()
    L = lyapunov_formula(s.coupling)
    n = 2000
    m, logn = n_step(s, 0.3141, 0.135, n, "raw")
    total = logn + math.log(two_norm(m))
    assert total >= n * (L - 0.1)


def _mahler(coupling):
    """The mean of log|c| over a period, by Jensen's formula.

    |c(theta)| = |l3 z^2 + l2 z + l1| on |z| = 1, so for l3 > 0 the mean is
    that polynomial's Mahler measure: log l3 plus log max(1, |z_i|) over its roots.
    """
    l1, l2, l3 = coupling.astuple()
    return math.log(l3) + sum(math.log(max(1.0, abs(z))) for z in np.roots([l3, l2, l1]))


# region I: (0.2, 0.8, 0.6) has l1 + l3 = l2, so c has a zero on the circle
@pytest.mark.parametrize("triple", [(0.1, 0.5, 0.2), (0.05, 0.2, 0.05), (0.2, 0.8, 0.6)])
def test_thouless_formula_ties_the_eigenvalues_to_the_products(triple):
    # L(E) = int log|E - E'| dN(E') - int_0^1 log|c(theta)| dtheta (D. J. Thouless,
    # J. Phys. C 5, 77, 1972): N from the eigenvalues of 16 size-512 windows, L from
    # 10^5-step products on 64 phases.  The sides differ by up to 1e-3 in the spectrum
    # and 1.9e-4 off it; products at a 1% larger l1 or l2 miss one of the tolerances
    s = OperatorSample(CouplingTriple(*triple), golden())
    mahler = _mahler(s.coupling)
    grid = (np.arange(2**16) + 0.5) / 2**16
    fine = np.mean(np.log(np.abs(c_function(s.coupling, s.alpha_float, grid))))
    assert mahler == pytest.approx(fine, abs=1e-5)
    eigs = truncated_spectrum(s, 512, (np.arange(16) + 0.5) / 16).eigenvalues

    def thouless(energy):
        return float(np.mean(np.log(np.abs(energy - eigs)))) - mahler

    i = int(0.3 * len(eigs))
    inside = (eigs[i] + eigs[i + 1]) / 2  # a gap midpoint: log|E - E'| stays finite
    assert thouless(inside) == pytest.approx(lyapunov_numeric(s, inside).value, abs=1.5e-3)
    # on the spectrum in region I, the closed formula is a third leg
    assert thouless(inside) == pytest.approx(lyapunov_formula(s.coupling), abs=1.5e-3)
    assert thouless(3.5) == pytest.approx(lyapunov_numeric(s, 3.5).value, abs=3e-4)


# -- rotation number -----------------------------------------------------------


def test_rotation_constant_cocycle():
    m = constant_rotation(GOLD, 0.3125)
    est = rotation_number_map(m.matrix, golden(), n_steps=100_000)
    assert abs(est.value - 0.3125) < 1e-6


def test_rotation_identity_cocycle():
    m = constant_rotation(GOLD, 0.0)
    est = rotation_number_map(m.matrix, golden(), n_steps=2000)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_rotation_branch_ambiguity():
    m = constant_rotation(GOLD, 0.5)
    with pytest.raises(BranchAmbiguity):
        rotation_number_map(m.matrix, golden(), n_steps=100)


def test_rotation_y0_independence():
    s = amo()
    rng = np.random.default_rng(4)
    vals, errs = [], []
    for _ in range(8):
        est = rotation_number(s, 0.0065, n_steps=20000, y0=float(rng.random()))
        vals.append(est.value)
        errs.append(est.stderr)
    spread = max(vals) - min(vals)
    assert spread <= 3 * (max(errs) + 1e-12) * 2


@pytest.mark.parametrize("n", [1, 0, -3])
def test_rotation_rejects_degenerate_step_counts(n):
    with pytest.raises(ValueError, match="n_steps"):
        rotation_number(amo(), 1.0, n_steps=n)
    with pytest.raises(ValueError, match="n_steps"):
        rotation_number_map(constant_rotation(GOLD, 0.25).matrix, golden(), n_steps=n)


def predecessor_on_zero(offset):
    """A sample of c with a zero pair, and a phase whose predecessor is a zero (+ offset)."""
    s = OperatorSample(CouplingTriple(0.3, 0.5, 0.3), golden())
    af = float(s.alpha_fraction())
    z = zero_structure(s.coupling).positions(af)[0]
    return s, (z + af + offset) % 1.0


@pytest.mark.parametrize("offset", [1e-9, 0.0])
def test_rotation_guards_the_predecessor_phase(offset):
    s, theta0 = predecessor_on_zero(offset)
    with pytest.raises(SingularSamplingPoint):
        n_step(s, 1.0, theta0, 2000, kind="normalized")
    with pytest.raises(SingularSamplingPoint):
        rotation_number(s, 1.0, n_steps=2000, theta0=theta0)
    # the same orbit one site on is clear of the guard
    rotation_number(s, 1.0, n_steps=2000, theta0=(theta0 + GOLD) % 1.0)


def test_rotation_monotone_in_energy():
    # run on a zero-Lyapunov (region II) coupling where the increment lift
    # tracks the true fibered angle; deep in the hyperbolic tails the vector
    # lift can drop half-turns, so the scan starts mid-spectrum
    s = OperatorSample(CouplingTriple(0.1, 2.0, 0.1), golden(), 0.135)
    es = np.linspace(-2.8, 5.0, 10)
    ests = [rotation_number(s, float(e), n_steps=8000) for e in es]
    for a, b in zip(ests, ests[1:]):
        assert b.value <= a.value + 3 * (a.stderr + b.stderr)


# -- degree ---------------------------------------------------------------------


def test_degree_defining_family():
    for k in range(-3, 4):
        matmap = lambda th, _k=k: rotation_matrix(_k * th / 2.0)
        assert degree(matmap) == k


def test_degree_constant_zero():
    assert degree(lambda th: rotation_matrix(0.17)) == 0


def test_degree_normalized_ehm_is_zero():
    s = ehm()
    matmap = lambda th: transfer(s, 0.3141, th, "normalized")
    assert degree(matmap, grid=128) == 0


def test_degree_grid_too_coarse():
    # k=11 on an 8-point grid aliases to a different integer at each
    # refinement, so two successive estimates never agree
    matmap = lambda th: rotation_matrix(11 * th / 2.0)
    with pytest.raises(GridTooCoarse):
        degree(matmap, grid=8, max_refinements=2)
    assert degree(matmap, grid=8, max_refinements=6) == 11


# -- conjugation residual ---------------------------------------------------------


def test_conjugation_residual_identity():
    s = ehm()
    coc = Cocycle(s.alpha_float, lambda th: transfer(s, 0.3, th, "normalized"))
    res = conjugation_residual(lambda th: np.eye(2), coc, coc, grid=64)
    assert res < 1e-12


def test_conjugation_residual_commuting_rotations():
    coc = constant_rotation(GOLD, 0.2)
    b = rotation_matrix(0.37)
    res = conjugation_residual(lambda th: b, coc, coc, grid=32)
    assert res < 1e-12


def test_conjugation_residual_mismatch_positive():
    rng = np.random.default_rng(5)
    b = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    c1 = constant_rotation(GOLD, 0.2)
    c2 = constant_rotation(GOLD, 0.3)
    assert conjugation_residual(lambda th: b, c1, c2, grid=32) > 1e-3


@pytest.mark.parametrize("grid", [0, -1])
def test_conjugation_residual_refuses_an_empty_grid(grid):
    # a maximum over no grid point would read 0.0, a perfect conjugacy
    coc = constant_rotation(GOLD, 0.2)
    with pytest.raises(ValueError, match="grid must be >= 1"):
        conjugation_residual(lambda th: np.eye(2), coc, coc, grid=grid)


# -- cohomological equation --------------------------------------------------------


def test_cohomological_one_mode():
    phi = np.array([0.5, 0.0, 0.5], dtype=complex)  # cos(2 pi theta)
    a = GOLD
    psi, report = solve_cohomological(phi, a, s_max=2)
    for k, idx in ((-1, 0), (1, 2)):
        div = complex(math.cos(2 * math.pi * k * a) - 1, math.sin(2 * math.pi * k * a))
        assert psi[idx] == pytest.approx(0.5 / div, abs=1e-15)
    assert psi[1] == 0


def test_cohomological_round_trip():
    rng = np.random.default_rng(6)
    a = GOLD
    K = 12
    for _ in range(50):
        psi0 = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        psi0[K] = 0.0
        ks = np.arange(-K, K + 1)
        phi = psi0 * (np.exp(2j * np.pi * ks * a) - 1.0)
        psi, _ = solve_cohomological(phi, a, s_max=1)
        assert np.max(np.abs(psi - psi0)) < 1e-12 * np.max(np.abs(psi0))


def test_cohomological_resonant_rational():
    phi = np.zeros(7, dtype=complex)
    phi[3 + 3] = 1.0  # mode k = +3
    with pytest.raises(ResonantDivisor) as exc:
        solve_cohomological(phi, Fraction(1, 3), s_max=1)
    assert exc.value.k == 3


def test_cohomological_requires_mean_zero():
    phi = np.array([0.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        solve_cohomological(phi, GOLD)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_cohomological_non_finite_coefficient_raises(bad):
    # a NaN or an infinity would pass into psi_hat and the norm sums
    with pytest.raises(ValueError, match=r"phi_hat\(1\)"):
        solve_cohomological(np.array([0.5, 0.0, bad], dtype=complex), golden())
    with pytest.raises(ValueError, match=r"phi_hat\(-2\)"):
        solve_cohomological(np.array([bad, 0.0, 0.0, 0.5, 0.0], dtype=complex), GOLD)


def test_cohomological_negative_s_max_raises():
    phi = np.array([0.5, 0.0, 0.5], dtype=complex)
    with pytest.raises(ValueError, match="s_max"):
        solve_cohomological(phi, golden(), s_max=-1)


def test_cohomological_three_block_report():
    cf = forge(golden(), n0=6, schedule=SingleBurst(0.9), levels=4)
    K = 60
    rng = np.random.default_rng(7)
    phi = (rng.standard_normal(2 * K + 1) * np.exp(-0.3 * np.abs(np.arange(-K, K + 1)))).astype(
        complex
    )
    phi[K] = 0.0
    psi, report = solve_cohomological(phi, cf, s_max=3)
    assert report.block_bounds == (cf.q(6), cf.q(7))
    assert report.block_sums is not None
    for j in range(4):
        below, mid, above = report.block_sums[j]
        assert below + mid + above == pytest.approx(report.totals[j], rel=1e-12)
    assert len(report.totals) == 4


def test_fourier_json_round_trip():
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    back = fourier_from_json(fourier_to_json(coeffs))
    assert np.array_equal(back, coeffs)


# -- commutant rigidity --------------------------------------------------------------


def test_commutant_diophantine_rho_passes():
    rho = float(silver().fraction(10**9)) / 2
    rep = commutant_rigidity_check(rho, golden(), bandwidth=1000, tau=2.0, gamma=0.05)
    assert rep.min_divisor > 0
    assert rep.modes_checked == 2 * (2 * 1000 + 1)  # both signs, every mode
    assert (0, "diagonal") in rep.unconstrained_modes


def test_commutant_resonant_rho_fails():
    g = golden()
    rho = g.fraction(10**9) / 2
    with pytest.raises(DivisorFloorViolated) as exc:
        commutant_rigidity_check(rho, g, bandwidth=10, tau=2.0, gamma=0.05)
    assert abs(exc.value.k) == 1


@pytest.mark.parametrize("gamma", [0.0, -1.0, -0.0, math.nan])
def test_commutant_rejects_a_floor_every_divisor_passes(gamma):
    with pytest.raises(ValueError, match="gamma"):
        commutant_rigidity_check(0.25, golden(), bandwidth=10, tau=2.0, gamma=gamma)


def test_commutant_zero_rho_constants_allowed():
    rep = commutant_rigidity_check(0.0, golden(), bandwidth=50, tau=2.0, gamma=0.05)
    offdiag_free = [m for m in rep.unconstrained_modes if m[0] == 0 and "off" in m[1]]
    assert len(offdiag_free) == 2
