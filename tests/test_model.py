import importlib
import math
import pkgutil
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harperlab
from harperlab import cocycle
from harperlab.contfrac import (
    PROXY_MIN_Q,
    ConstantBeta,
    expand,
    forge,
    from_digits,
    golden,
    norm_numerator,
    silver,
)
from harperlab.errors import (
    InvalidCoupling,
    Lambda2Zero,
    ResolventSingular,
    WindowEmpty,
    WindowTooLarge,
)
from harperlab.model import (
    CouplingTriple,
    OperatorSample,
    RegionTag,
    ZeroKind,
    abs_c_function,
    build_truncation,
    c_function,
    c_tilde_function,
    c_zeros,
    classify,
    duality,
    green_function,
    orbit_phases,
    unit_phase,
    zero_offsets,
    zero_structure,
)
from harperlab.model import _alpha_proxy, _edge_green_logs

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


# -- couplings and regions ---------------------------------------------------


def test_invalid_couplings():
    with pytest.raises(InvalidCoupling):
        CouplingTriple(-0.1, 0.5, 0.2)
    with pytest.raises(InvalidCoupling):
        CouplingTriple(0, 0, 0)
    with pytest.raises(InvalidCoupling):
        CouplingTriple.parse("0.1,0.5")


@pytest.mark.parametrize("coupling", [(0.1, 0.5, 0.2), [0.1, 0.5, 0.2], "0.1,0.5,0.2", None])
def test_a_sample_refuses_a_coupling_that_is_not_a_triple(coupling):
    # a plain tuple used to pass here and fail at the first sweep, in zero_structure
    with pytest.raises(TypeError, match="coupling"):
        OperatorSample(coupling, golden())


@pytest.mark.parametrize(
    "triple,tag",
    [
        ((0.1, 0.5, 0.2), RegionTag.REGION_I),
        ((0.25, 0.5, 0.25), RegionTag.REGION_I),  # c has a zero but region is I
        ((0.0, 0.5, 0.0), RegionTag.REGION_I),
        ((0.1, 2.0, 0.1), RegionTag.REGION_II),
        ((1.0, 0.5, 1.0), RegionTag.REGION_III_ISO),
        ((1.5, 0.5, 0.2), RegionTag.REGION_III_ANISO),
        ((1.0, 1.0, 1.0), RegionTag.REGION_III_ISO),
        ((0.5, 0.5, 0.5), RegionTag.LINE_I),  # sum = 1, lambda2 < 1
        ((0.25, 1.0, 0.25), RegionTag.LINE_II),
        ((0.5, 1.0, 0.5), RegionTag.LINE_II),  # corner goes to the fixed line
        ((1.0, 2.0, 1.0), RegionTag.LINE_III),
        # lambda2 - 1 = 5e-13, sum - 1 = 1.2e-12, sum - lambda2 = 7e-13 against
        # BOUNDARY_TOL = 1e-12: no line or interior test holds, and the sliver
        # snaps to the nearest line
        ((0.5 + 6e-13, 1 + 5e-13, 0.5 + 6e-13), RegionTag.LINE_II),
    ],
)
def test_classification_table(triple, tag):
    assert classify(CouplingTriple(*triple)).tag is tag


def test_classification_boundary_flags():
    assert classify(CouplingTriple(0.5, 0.5, 0.5)).boundary
    assert not classify(CouplingTriple(0.1, 0.5, 0.2)).boundary
    assert classify(CouplingTriple(0.1, 0.0, 0.2)).boundary  # lambda2 = 0 edge
    assert classify(CouplingTriple(0.5 + 6e-13, 1 + 5e-13, 0.5 + 6e-13)).boundary  # a sliver


def test_duality_componentwise():
    sigma = duality(CouplingTriple(0.1, 0.5, 0.2))
    assert sigma.astuple() == pytest.approx((0.4, 2.0, 0.2))


def test_duality_involution_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        l1, l3 = rng.uniform(0, 2, 2)
        l2 = rng.uniform(0.05, 2)
        c = CouplingTriple(l1, l2, l3)
        back = duality(duality(c))
        assert back.astuple() == pytest.approx(c.astuple(), abs=1e-14)


def test_duality_maps_region_I_to_II():
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = rng.uniform(0, 0.95)
        f = rng.uniform(0, 1)
        c = CouplingTriple(s * f, rng.uniform(0.05, 0.95), s * (1 - f))
        if classify(c).tag is RegionTag.REGION_I:
            assert classify(duality(c)).tag is RegionTag.REGION_II


def test_duality_maps_lines():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = rng.uniform(0.1, 0.9)
        l2 = rng.uniform(0.1, 0.9)
        on_li = CouplingTriple(f, l2, 1 - f)  # sum = 1, lambda2 < 1
        assert classify(on_li).tag is RegionTag.LINE_I
        assert classify(duality(on_li)).tag is RegionTag.LINE_III
        s = rng.uniform(0.05, 0.95)
        on_lii = CouplingTriple(s * f, 1.0, s * (1 - f))
        assert classify(duality(on_lii)).tag is RegionTag.LINE_II


def test_duality_lambda2_zero():
    with pytest.raises(Lambda2Zero):
        duality(CouplingTriple(0.3, 0.0, 0.4))


# -- sampling functions and zeros ---------------------------------------------


def test_c_tilde_is_conjugate_and_abs_matches():
    rng = np.random.default_rng(6)
    thetas = rng.random(10**4)
    for triple in [(0.1, 0.5, 0.2), (0.25, 0.5, 0.25), (0.7, 0.3, 0.7)]:
        c = CouplingTriple(*triple)
        cv = c_function(c, GOLD, thetas)
        ctv = c_tilde_function(c, GOLD, thetas)
        av = abs_c_function(c, GOLD, thetas)
        assert np.max(np.abs(ctv - np.conj(cv))) < 1e-12
        assert np.max(np.abs(av - np.abs(cv))) < 1e-12


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.tuples(st.floats(0.0, 2.0), st.floats(0.01, 2.0), st.floats(0.0, 2.0)),
    st.floats(0.0, 1.0),
    st.one_of(st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40)),
)
def test_c_trio_agree_exactly(triple, alpha, theta):
    # c~ is conj(c) and |c| is np.abs(c) (hypot), bit for bit: the modulus the
    # cocycle sweeps read for both kinds
    c = CouplingTriple(*triple)
    x = np.asarray(theta, dtype=np.float64)
    cv = c_function(c, alpha, x)
    assert c_tilde_function(c, alpha, x).tobytes() == np.conj(cv).tobytes()
    assert abs_c_function(c, alpha, x).tobytes() == np.abs(cv).tobytes()


def test_unit_phase_for_every_c():
    import mpmath

    # c * (1/|c|) bit for bit where 1/|c| is finite; 1 at c = 0; |u| = 1 at a subnormal |c|
    normal = np.array([1 + 1j, -2e-300, 3e5 - 4e5j, 1e-307j, 0.5 - 0j])
    tiny = np.array([1e-310, 1e-310j, 3e-320 - 4e-320j, -5e-324 + 5e-324j])
    c = np.concatenate([normal, tiny, [0j]])
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.abs(c)
    u = unit_phase(c, inv)
    assert np.array_equal(u[: len(normal)], normal * inv[: len(normal)])
    assert np.all(np.abs(np.abs(u) - 1.0) <= 4 * np.finfo(float).eps)
    ref = np.array([complex(mpmath.mpc(z) / abs(mpmath.mpc(z))) for z in tiny])
    assert np.all(np.abs(u[len(normal) : -1] - ref) <= 4 * np.finfo(float).eps)
    assert u[-1] == 1.0
    assert unit_phase(c[:0], inv[:0]).shape == (0,)


def test_zero_structure_classes():
    assert zero_structure(CouplingTriple(0.1, 0.7, 0.2)).kind is ZeroKind.NONE
    zs = zero_structure(CouplingTriple(0.25, 0.5, 0.25))
    assert zs.kind is ZeroKind.DOUBLE and zs.offsets == (0.5,)
    zs = zero_structure(CouplingTriple(0.2, 0.5, 0.3))
    assert zs.kind is ZeroKind.SINGLE and zs.offsets == (0.5,)
    zs = zero_structure(CouplingTriple(0.5, 0.5, 0.5))
    assert zs.kind is ZeroKind.PAIR
    assert zs.offsets == pytest.approx((1 / 3, 2 / 3))
    # AMO has no zeros; lambda2=0 with equal side hoppings has a pair at +-1/4
    assert zero_structure(CouplingTriple(0, 1.0, 0)).kind is ZeroKind.NONE
    zs = zero_structure(CouplingTriple(0.4, 0.0, 0.4))
    assert zs.offsets == pytest.approx((0.25, 0.75))


def test_c_vanishes_at_reported_zeros():
    rng = np.random.default_rng(7)

    def singles():
        l1, l3 = rng.uniform(0.05, 1, 2)
        return CouplingTriple(l1, l1 + l3, l3)

    def pairs():
        l1 = rng.uniform(0.1, 1)
        return CouplingTriple(l1, rng.uniform(0, 2 * l1 * 0.95), l1)

    def colliding():
        l1 = rng.uniform(0.1, 1)
        return CouplingTriple(l1, 2 * l1, l1)

    for maker in (singles, pairs, colliding):
        for _ in range(100):
            c = maker()
            zs = zero_structure(c)
            assert zs.kind is not ZeroKind.NONE
            alpha = rng.random()
            for pos in zs.positions(alpha):
                assert abs(c_function(c, alpha, pos)) < 1e-10


# a coupling of each zero class, each defining (in)equality held with a margin
ZERO_CLASSES = st.one_of(
    st.floats(0.05, 1.0).map(lambda l: ((l, 2 * l, l), ZeroKind.DOUBLE)),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.01, 1.0)).map(
        lambda t: ((t[0], 2 * t[0] + t[1], t[0] + t[1]), ZeroKind.SINGLE)
    ),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.9)).map(
        lambda t: ((t[0], t[1] * t[0], t[0]), ZeroKind.PAIR)
    ),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 2.0)).map(
        lambda t: ((t[0], (t[0] + t[1]) * (1 + t[2]) + 0.01, t[1]), ZeroKind.NONE)
    ),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 0.9)).map(
        lambda t: ((t[0], t[1], t[0] * (1 + t[2])), ZeroKind.NONE)
    ).filter(lambda case: abs(case[0][0] + case[0][2] - case[0][1]) > 1e-3),
)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(ZERO_CLASSES, st.floats(-13.0, 3.0))
def test_zero_structure_is_invariant_under_scaling(case, exponent):
    # the zeros of c do not move when the coupling is scaled
    triple, kind = case
    zs = zero_structure(CouplingTriple(*triple))
    assert zs.kind is kind
    scale = 10.0**exponent
    scaled = zero_structure(CouplingTriple(*(scale * v for v in triple)))
    assert scaled.kind is kind
    assert scaled.offsets == pytest.approx(zs.offsets, rel=0, abs=1e-12)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(-3, 2), st.floats(0.0, 1.999))
def test_exact_zero_offsets_are_zeros_of_c(exponent, ratio):
    # l1 = l3 = 2^exponent and l2 = ratio l1: a pair of zeros, and the float quotient
    # l2/(2 l1) the offsets are read from is exact, so c vanishes at the exact offsets
    # to their 60 digits
    import mpmath

    l1 = 2.0**exponent
    coupling = CouplingTriple(l1, ratio * l1, l1)
    zs = zero_structure(coupling)
    assert zs.kind is ZeroKind.PAIR
    exact = zero_offsets(coupling)
    assert len(exact) == 2 and exact[0] == -exact[1]
    with mpmath.workdps(70):
        for off in exact:
            turn = 2 * mpmath.pi * mpmath.mpf(off.numerator) / off.denominator
            c = l1 * mpmath.expj(-turn) + coupling.lambda2 + l1 * mpmath.expj(turn)
            assert abs(c) < mpmath.mpf(10) ** -55
    # zero_structure's float offsets sit where the exact ones do, to rounding
    for o, e in zip(zs.offsets, exact):
        d = (Fraction(o) - e) % 1
        assert min(d, 1 - d) <= 4e-16


def test_zero_offsets_of_a_single_zero_and_of_none():
    assert zero_offsets(CouplingTriple(0.3, 0.5, 0.2)) == [Fraction(1, 2)]
    assert zero_offsets(CouplingTriple(0.25, 0.5, 0.25)) == [Fraction(1, 2)]  # colliding
    assert zero_offsets(CouplingTriple(0.1, 0.5, 0.2)) == []


def test_a_small_coupling_without_zeros_has_none():
    # c = 1e-13 at every phase: no zero, so no phase is singular
    coupling = CouplingTriple(0, 1e-13, 0)
    assert zero_structure(coupling).kind is ZeroKind.NONE
    sample = OperatorSample(coupling, golden())
    m = cocycle.transfer(sample, 0.5, 0.5 - sample.alpha_float / 2)
    assert np.isfinite(m).all()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(harperlab.__path__)))
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"harperlab.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


# -- truncations ----------------------------------------------------------------


def sample(triple=(0.1, 0.5, 0.2), theta=0.135):
    return OperatorSample(CouplingTriple(*triple), golden(), theta)


def test_truncation_one_site():
    tr = build_truncation(sample(), 0, 0)
    assert tr.size == 1
    assert tr.diag[0] == pytest.approx(2 * math.cos(2 * math.pi * 0.135))
    assert len(tr.offdiag) == 0


def test_truncation_two_site_offdiag():
    s = sample()
    tr = build_truncation(s, 0, 1)
    expect = c_function(s.coupling, s.alpha_float, 0.135)
    assert tr.offdiag[0] == pytest.approx(complex(expect), abs=1e-12)


def test_truncation_hermitian_dense():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x1 = int(rng.integers(-50, 50))
        tr = build_truncation(sample(theta=float(rng.random())), x1, x1 + 20)
        h = tr.dense()
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_truncation_spectrum_real_complex_oracle():
    tr = build_truncation(sample(), 0, 63)
    eigs = np.linalg.eigvals(tr.dense())  # general-purpose complex oracle
    assert np.max(np.abs(eigs.imag)) < 1e-10


def test_truncation_empty_window():
    with pytest.raises(WindowEmpty):
        build_truncation(sample(), 3, 2)


@pytest.mark.parametrize("where", ["orbit_phases", "c_function"])
def test_truncation_past_memory_is_window_too_large(where, monkeypatch):
    # an allocation that fails while the window is built names the window
    import harperlab.model as model_module

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(model_module, where, refuse)
    with pytest.raises(WindowTooLarge, match=r"size-12 window \[-5, 6\]"):
        build_truncation(sample(), -5, 6)


def test_gauge_symmetric_matches_dense_spectrum():
    tr = build_truncation(sample(), -5, 6)
    d, b = tr.gauge_symmetric()
    m = np.diag(d) + np.diag(b, 1) + np.diag(b, -1)
    sym = np.linalg.eigvalsh(m)
    herm = np.linalg.eigvalsh(tr.dense())
    assert np.max(np.abs(sym - herm)) < 1e-12


# -- Green's functions -------------------------------------------------------------


def test_green_one_site_scalar_inverse():
    tr = build_truncation(sample(), 5, 5)
    e = 0.3
    assert green_function(tr, e, 5, 5) == pytest.approx(1.0 / (tr.diag[0] - e))


def test_green_matches_dense_inverse():
    rng = np.random.default_rng(9)
    windows = []
    for _ in range(20):
        x1 = int(rng.integers(-30, 30))
        tr = build_truncation(sample(theta=float(rng.random())), x1, x1 + 5)
        windows.append((tr, float(rng.uniform(-3, 3))))
    # a subnormal |c|: 1/|c| overflows, and G is 0 off the diagonal
    subnormal = OperatorSample(CouplingTriple(0, 1e-310, 0), golden(), 0.3)
    windows.append((build_truncation(subnormal, 0, 9), 0.1))
    for tr, e in windows:
        counts = np.linalg.eigvalsh(tr.dense())
        if np.min(np.abs(counts - e)) < 1e-6:
            continue
        dense = np.linalg.inv(tr.dense() - e * np.eye(tr.size))
        for x in range(tr.x1, tr.x2 + 1):
            for y in range(tr.x1, tr.x2 + 1):
                g = green_function(tr, e, x, y)
                assert abs(g - dense[x - tr.x1, y - tr.x1]) < 1e-10


def test_green_hermitian_symmetry():
    tr = build_truncation(sample(), 0, 11)
    for (x, y) in [(0, 7), (3, 11), (2, 2)]:
        g1 = green_function(tr, 0.45, x, y)
        g2 = green_function(tr, 0.45, y, x)
        assert g1 == pytest.approx(np.conj(g2), abs=1e-12)


def test_green_singular_energy_raises():
    tr = build_truncation(sample(), 0, 7)
    e = float(np.linalg.eigvalsh(tr.dense())[3])
    with pytest.raises(ResolventSingular):
        green_function(tr, e, 0, 5)


def _mp_minors(diag, offdiag, energy):
    """Leading and trailing minors of H - E at 50 digits, by the three-term recurrence.

    lead[i] is det of rows [0, i-1] and trail[i] of rows [i, n-1] (lead[0] =
    trail[n] = 1); |c|^2 is formed in mpmath from the float entries.
    """
    import mpmath

    with mpmath.workdps(50):
        a = [mpmath.mpf(float(v)) - mpmath.mpf(energy) for v in diag]
        b2 = [mpmath.mpf(float(c.real)) ** 2 + mpmath.mpf(float(c.imag)) ** 2 for c in offdiag]
        n = len(a)
        lead = [mpmath.mpf(1), a[0]]
        for i in range(1, n):
            lead.append(a[i] * lead[i] - b2[i - 1] * lead[i - 1])
        trail = [mpmath.mpf(1), a[n - 1]]  # built from the bottom, reversed below
        for i in range(n - 2, -1, -1):
            trail.append(a[i] * trail[-1] - b2[i] * trail[-2])
        return lead, trail[::-1], b2


def _mp_log_green(diag, offdiag, energy, i, j):
    """log|G(i, j)| of H - E by Cramer's rule (rows i, j of the given block)."""
    import mpmath

    i, j = sorted((i, j))
    lead, trail, b2 = _mp_minors(diag, offdiag, energy)
    with mpmath.workdps(50):
        logb = sum((mpmath.log(b2[l]) / 2 for l in range(i, j)), mpmath.mpf(0))
        val = logb + mpmath.log(abs(lead[i])) + mpmath.log(abs(trail[j + 1]))
        return float(val - mpmath.log(abs(lead[len(diag)])))


def _away_from_spectrum(tr, rng, margin=1e-3):
    eigs = np.linalg.eigvalsh(tr.dense())
    while True:
        e = float(rng.uniform(-2.5, 2.5))
        if np.min(np.abs(eigs - e)) > margin:
            return e


# (coupling, whether some compared entry lies below 1e-250)
DEEP = [((0, 0.05, 0), True), ((0.02, 0.04, 0.01), True), ((0.1, 0.5, 0.2), False)]


@pytest.mark.parametrize("triple,deep", DEEP)
def test_green_log_magnitude_matches_high_precision_cramer(triple, deep):
    rng = np.random.default_rng(21)
    smallest = 0.0
    for size in (20, 75, 140, 200):
        x1 = int(rng.integers(-50, 50))
        tr = build_truncation(sample(triple, float(rng.random())), x1, x1 + size - 1)
        e = _away_from_spectrum(tr, rng)
        x2 = tr.x2
        pairs = [(x1, x2), (x2, x1), (x1, x1), (x2, x2)]
        pairs += [tuple(int(v) for v in rng.integers(x1, x2 + 1, 2)) for _ in range(6)]
        for x, y in pairs:
            ref = _mp_log_green(tr.diag, tr.offdiag, e, x - x1, y - x1)
            got = math.log(abs(green_function(tr, e, x, y)))
            assert got == pytest.approx(ref, abs=1e-8)
            smallest = min(smallest, ref)
    assert (smallest < math.log(1e-250)) == deep  # far below eps * ||G||


@pytest.mark.parametrize(
    "triple,k,deep", [((0, 0.03, 0), 200, True), ((0.1, 0.5, 0.2), 90, False)]
)
def test_edge_green_logs_match_high_precision_cramer(triple, k, deep):
    rng = np.random.default_rng(22)
    y = 3
    d = -(-k // 9)
    x1s = np.arange(y + d - k + 1, y - d + 1)
    x2s = x1s + k - 1
    tr = build_truncation(sample(triple, 0.3), int(x1s[0]), int(x2s[-1]))
    e = _away_from_spectrum(tr, rng)
    lg1, lg2, singular = _edge_green_logs(tr, e, y, x1s, x2s)
    assert not singular.any()
    for w in range(0, len(x1s), 7):
        a, b = x1s[w] - tr.x1, x2s[w] - tr.x1
        diag, off = tr.diag[a : b + 1], tr.offdiag[a:b]
        assert lg1[w] == pytest.approx(_mp_log_green(diag, off, e, y - tr.x1 - a, 0), abs=1e-8)
        assert lg2[w] == pytest.approx(_mp_log_green(diag, off, e, y - tr.x1 - a, b - a), abs=1e-8)
    assert (min(lg1.min(), lg2.min()) < math.log(1e-250)) == deep


# -- orbits ------------------------------------------------------------------------


def test_orbit_phases_no_drift():
    g = golden()
    a = g.fraction(min_q=10**14)
    xs = orbit_phases(0.135, a, 0, 120_001)
    for n in [0, 9999, 59999, 120000]:
        exact = Fraction(0.135) + n * a
        exact -= exact.numerator // exact.denominator
        assert abs(xs[n] - float(exact)) < 1e-10


@pytest.mark.parametrize("stream", [golden, silver])
@pytest.mark.parametrize("theta", [0.0, 0.135, -0.7, Fraction(1, 3)])
@pytest.mark.parametrize("start", [0, -5000, 10**12])
def test_orbit_phases_in_fixed_point(theta, start, stream):
    # first + n step in 64-bit fixed point: phase start + n is within n 2^-65 of
    # the exact value before its one rounding to float, and sums are exact mod 1
    alpha = stream().fraction(min_q=2**60)
    count = 3 * 4096 + 5
    xs = orbit_phases(theta, alpha, start, count)
    for n in [*range(0, count, 409), count - 1]:
        exact = Fraction(theta) + (start + n) * alpha
        exact -= exact.numerator // exact.denominator
        assert abs(xs[n] - float(exact)) <= 2.0**-53 + n * 2.0**-65
    ka = orbit_phases(0, alpha, 0, count)
    i, j = np.random.default_rng(7).integers(0, count // 2, size=(2, 4096))
    d = ka[i] + ka[j] - ka[i + j]
    assert np.all(np.abs(d - np.round(d)) <= 2 * np.finfo(float).eps)


@pytest.mark.parametrize("count", [2**63 - 1, 2**62])
def test_an_orbit_numpy_cannot_hold_raises(count):
    # numpy sizes an arange in floats: at 2^63 - 1 it came back empty, at 2^62 it
    # refused with a ValueError; both are an orbit of count phases or an error
    with pytest.raises(MemoryError, match=f"{count} phases"):
        orbit_phases(0.135, Fraction(1, 3), 0, count)
    with pytest.raises(WindowTooLarge, match=rf"size-{count} window \[0, {count - 1}\]"):
        build_truncation(sample(), 0, count - 1)


def test_an_orbit_of_no_sites_is_empty_and_a_negative_count_is_refused():
    assert orbit_phases(0.135, Fraction(1, 3), 0, 0).shape == (0,)
    with pytest.raises(ValueError, match="count must be >= 0"):
        orbit_phases(0.135, Fraction(1, 3), 0, -1)


# -- the alpha proxy ---------------------------------------------------------------

PROXY_STREAMS = {  # fresh streams, so no call sees digits another one forged
    "golden": golden,
    "silver": silver,
    "forged": lambda: forge(golden(), n0=5, schedule=ConstantBeta(0.5), levels=0),
    "capped": lambda: forge(golden(), n0=5, schedule=ConstantBeta(0.5), levels=0,
                            cap_decimal=50),
    "finite": lambda: from_digits([2, 3, 1, 4, 1, 5, 9, 2, 6]),
}


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.sampled_from(sorted(PROXY_STREAMS)), st.floats(0.0, 1.0), st.integers(2, 300),
       st.integers(1, 40), st.floats(0.01, 0.49))
def test_every_layer_reads_one_alpha_proxy(name, theta0, n, K, rho):
    cf = PROXY_STREAMS[name]()
    proxy = _alpha_proxy(cf)
    lo, hi = cf.enclosure()
    assert lo <= proxy <= hi
    # the first convergent with q >= 2^60, or the deepest one when the stream ends first
    level = next(j for j in range(1, cf.depth + 1) if Fraction(*cf.convergent(j)) == proxy)
    assert cf.q(level - 1) < PROXY_MIN_Q
    assert proxy.denominator >= PROXY_MIN_Q or level == cf.depth
    assert cf.truncated == (name == "capped")
    assert OperatorSample(CouplingTriple(0.1, 0.5, 0.2), cf).alpha_fraction() == proxy
    assert float(cf) == float(proxy)
    p, q = proxy.numerator, proxy.denominator

    phi = np.ones(2 * K + 1, dtype=complex)
    phi[K] = 0.0
    psi, _ = cocycle.solve_cohomological(phi, cf, s_max=1)
    # psi_hat(k) = phi_hat(k) / (e^{2 pi i t} - 1) at the proxy's turns t = (k p mod q)/q
    want = np.zeros_like(phi)
    for k in (k for k in range(-K, K + 1) if k):
        t = (k * p % q) / q
        want[k + K] = phi[k + K] / complex(math.cos(2 * math.pi * t) - 1.0, math.sin(2 * math.pi * t))
    assert psi.tobytes() == want.tobytes()

    two_rho = 2 * Fraction(rho)
    with mock.patch.object(cocycle, "norm_numerator", wraps=norm_numerator) as spy:
        cocycle.commutant_rigidity_check(rho, cf, bandwidth=K, gamma=1e-15)
    assert {c.args[1] for c in spy.call_args_list} == {q * two_rho.denominator}

    seen = []

    def matrix_map(x):
        seen.append(x)
        return cocycle.rotation_matrix(0.2)

    cocycle.rotation_number_map(matrix_map, cf, n, theta0)
    assert np.array_equal(seen, orbit_phases(theta0, proxy, 0, n))
