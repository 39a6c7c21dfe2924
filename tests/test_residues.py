"""Property tests for the integer-residue Diophantine kernels.

Each kernel is checked against the plain Fraction formula it computes, on
random digit streams that include digits above 10^100; results must agree
exactly (floats bit for bit).  The convergent identities the kernels rely
on are checked on the same streams.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harperlab import contfrac
from harperlab.cocycle import commutant_rigidity_check, solve_cohomological
from harperlab.contfrac import (
    SCREEN_BLOCK,
    ContinuedFraction,
    DCVerdict,
    _dc_scan,
    _norm_interval,
    _screen_norms,
    circle_norm,
    dc_alpha_membership,
    dc_membership,
    div_by_big,
    expand,
    from_digits,
    norm_numerator,
)
from harperlab.errors import (
    DepthInsufficient,
    DivisorFloorViolated,
    RationalDetected,
    ResonantDivisor,
)
from harperlab.model import CouplingTriple, ZeroKind, _alpha_proxy, zero_structure
from harperlab.spectral import delta_exponent

# deterministic examples, so the suite gives the same verdict on every run
examples = settings(deadline=None, derandomize=True, max_examples=40)

BIG = st.integers(10**100, 10**130)
DIGIT = st.one_of(st.integers(1, 9), st.integers(10, 10**6), BIG)
STREAMS = st.lists(DIGIT, min_size=2, max_size=12)
SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
SHIFTS = st.one_of(
    st.just(Fraction(0)),
    SMALL_FRACTIONS,
    st.floats(-2.0, 2.0, allow_nan=False).map(Fraction),
)


def outcome(fn, *args, **kw):
    """Return value or (exception type, message), so both paths compare."""
    try:
        return fn(*args, **kw)
    except (DepthInsufficient, DivisorFloorViolated, ResonantDivisor) as exc:
        return type(exc), str(exc)


# -- Fraction reference formulas --------------------------------------------------


def circle_norm_ref(x):
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


def norm_interval_ref(cf, k, shift, depth):
    lo_a, hi_a = cf.enclosure(depth)
    lo_v, hi_v = shift - k * hi_a, shift - k * lo_a
    if lo_v > hi_v:
        lo_v, hi_v = hi_v, lo_v
    width = hi_v - lo_v
    base = circle_norm_ref(lo_v)
    lo_n = base - width
    return (lo_n if lo_n > 0 else Fraction(0)), base + width


def dc_scan(cf, tau, gamma, ks, shift):
    """_dc_scan over the mode list ks, cut into blocks of SCREEN_BLOCK modes."""
    B = contfrac.SCREEN_BLOCK  # read per call, so a monkeypatched size applies
    blocks = (ks[i : i + B] for i in range(0, len(ks), B))
    return _dc_scan(cf, tau, gamma, max((abs(k) for k in ks), default=0), blocks, shift)


def dc_scan_ref(cf, tau, gamma, ks, shift):
    K = max((abs(k) for k in ks), default=0)
    for k in ks:
        try:
            thr = gamma / (abs(k) + 1) ** tau
        except OverflowError:  # (|k|+1)^tau past the float range: the floor is 0
            thr = 0.0
        if k == 0:
            val = circle_norm_ref(shift)
            if val < thr:
                return DCVerdict(False, 0, float(val), K)
            continue
        depth = max(2, cf.depth)
        while True:
            exhausted = False
            try:
                cf.ensure(depth)
            except DepthInsufficient:
                depth = cf.depth
                exhausted = True
            lo_n, hi_n = norm_interval_ref(cf, k, shift, depth)
            if lo_n >= thr:
                break
            if hi_n < thr:
                return DCVerdict(False, k, float(hi_n), K)
            if exhausted:
                raise DepthInsufficient(
                    f"||k alpha|| in [{float(lo_n):.3e}, {float(hi_n):.3e}] "
                    f"straddles DC threshold {thr:.3e} at k={k}, digits exhausted"
                )
            depth += 2
    return DCVerdict(True, K=K)


def commutant_ref(rho, alpha, bandwidth, tau, gamma):
    a = _alpha_proxy(alpha)
    two_rho = 2 * Fraction(rho)
    min_div, arg_k, arg_s = float("inf"), None, None
    unconstrained = [(0, "diagonal")]
    checked = 0
    for k in range(-bandwidth, bandwidth + 1):
        for sign in (+1, -1):
            t = circle_norm_ref(k * a - sign * two_rho)
            div = 2.0 * math.sin(math.pi * float(t))
            if k == 0 and float(t) < 1e-14:
                unconstrained.append((0, f"off-diagonal sign {sign:+d}"))
                continue
            floor = 2.0 * math.sin(math.pi * gamma / (abs(k) + 1) ** tau)
            checked += 1
            if div < floor * (1.0 - 1e-12):
                raise DivisorFloorViolated(k, div, floor)
            if div < min_div:
                min_div, arg_k, arg_s = div, k, sign
    return min_div, arg_k, arg_s, checked, unconstrained


def cohomological_ref(phi, alpha, resonance_tol=1e-14):
    K = (len(phi) - 1) // 2
    a = _alpha_proxy(alpha)
    psi = np.zeros_like(phi)
    min_div = float("inf")
    for k in range(-K, K + 1):
        if k == 0:
            continue
        norm_ka = float(circle_norm_ref(k * a))
        if norm_ka < resonance_tol:
            if abs(phi[k + K]) > 0:
                raise ResonantDivisor(k)
            continue
        t = float((k * a) - math.floor(k * a))
        div = complex(math.cos(2 * math.pi * t) - 1.0, math.sin(2 * math.pi * t))
        min_div = min(min_div, abs(div))
        psi[k + K] = phi[k + K] / div
    return psi, min_div


def zero_offsets(coupling, precision=60):
    if zero_structure(coupling).kind in (ZeroKind.SINGLE, ZeroKind.DOUBLE):
        return [Fraction(1, 2)]
    with mpmath.workdps(precision + 10):
        a = mpmath.acos(-coupling.lambda2 / (2 * coupling.lambda1)) / (2 * mpmath.pi)
        off = Fraction(mpmath.nstr(a, precision, strip_zeros=False))
    return [off, -off]


def delta_levels_ref(coupling, cf, theta, depth):
    def log_fraction(fr):
        if fr == 0:
            return float("-inf")
        return math.log(fr.numerator) - math.log(fr.denominator)

    pa, qa = cf.convergent(depth)
    alpha_proxy = Fraction(pa, qa)
    per_level = []
    for n in range(1, depth):
        qn = cf.q(n)
        total = math.log(cf.q(n + 1))
        for off in zero_offsets(coupling):
            total += log_fraction(circle_norm_ref(qn * (Fraction(theta) - off + alpha_proxy / 2)))
        per_level.append((n, div_by_big(total, qn)))
    return per_level


# -- circle norm -------------------------------------------------------------------


@examples
@given(
    n=st.one_of(st.integers(-(10**40), 10**40), BIG, BIG.map(lambda v: -v)),
    d=st.one_of(st.integers(1, 10**6), BIG),
    j=st.integers(-5, 5),
)
def test_norm_numerator_matches_fraction_formula(n, d, j):
    # generic n, and the residues 0 and d/2 where the two branches of min meet
    cases = [n, j * d] + ([j * d + d // 2] if d % 2 == 0 else [])
    for m in cases:
        x = Fraction(m, d)
        assert Fraction(norm_numerator(m, d), d) == circle_norm_ref(x)
        got, ref = circle_norm(x), circle_norm_ref(x)
        assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
        # already reduced when x is
        r = norm_numerator(x.numerator, x.denominator)
        assert math.gcd(r, x.denominator) == 1 or (r == 0 and x.denominator == 1)


# -- DC scans -----------------------------------------------------------------------


@examples
@given(digits=STREAMS, k=st.integers(1, 400), negative=st.booleans(), shift=SHIFTS,
       data=st.data())
def test_dc_interval_matches_fraction_formula(digits, k, negative, shift, data):
    cf = from_digits(digits)
    depth = data.draw(st.integers(2, cf.depth))
    k = -k if negative else k
    lo, hi, den = _norm_interval(cf, k, shift, depth)
    assert (Fraction(lo, den), Fraction(hi, den)) == norm_interval_ref(cf, k, shift, depth)


@examples
@given(
    digits=STREAMS,
    tau=st.floats(0.5, 3.0),
    gamma=st.one_of(st.floats(1e-6, 0.5), st.just(0.0)),
    K=st.integers(0, 30),
    shift=SHIFTS,
)
def test_dc_scan_matches_fraction_formula(digits, tau, gamma, K, shift):
    scans = [
        (range(1, K + 1), Fraction(0)),
        (range(-1, -K - 1, -1), shift),
        (sorted(range(-K, K + 1), key=abs), shift),
    ]
    for ks, s in scans:
        got = outcome(dc_scan, from_digits(digits), tau, gamma, list(ks), s)
        ref = outcome(dc_scan_ref, from_digits(digits), tau, gamma, list(ks), s)
        assert got == ref


def test_dc_scan_thresholds_around_a_wide_interval():
    # a two-digit stream leaves a wide interval: thresholds below, inside, above it
    for k, shift in ((1, Fraction(0)), (-2, Fraction(1, 7))):
        lo, hi = norm_interval_ref(from_digits([3, 2]), k, shift, 2)
        for gamma, kind in ((lo / 2, True), ((lo + hi) / 2, DepthInsufficient), (2 * hi, False)):
            got = outcome(dc_scan, from_digits([3, 2]), 0.0, float(gamma), [k], shift)
            ref = outcome(dc_scan_ref, from_digits([3, 2]), 0.0, float(gamma), [k], shift)
            assert got == ref
            assert (got.holds if isinstance(got, DCVerdict) else got[0]) is kind


# -- cocycle divisor scans -------------------------------------------------------------


ALPHAS = st.one_of(
    STREAMS.map(from_digits),
    st.fractions(min_value=0, max_value=1, max_denominator=10**12),
)
RHOS = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**9),
    st.integers(-2, 3).map(lambda j: Fraction(j, 2)),  # 2 rho integer
)


@examples
@given(alpha=ALPHAS, rho=RHOS, bandwidth=st.integers(0, 60),
       tau=st.one_of(st.floats(0.5, 3.0), st.just(0.0)),
       gamma=st.sampled_from([1e-12, 1e-6, 1e-3, 0.05, 0.6, 2.0]))
def test_commutant_scan_matches_fraction_formula(alpha, rho, bandwidth, tau, gamma):
    got = outcome(commutant_rigidity_check, rho, alpha, bandwidth, tau, gamma)
    ref = outcome(commutant_ref, rho, alpha, bandwidth, tau, gamma)
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert got == ref
        return
    assert (
        got.min_divisor, got.argmin_k, got.argmin_sign, got.modes_checked,
        got.unconstrained_modes,
    ) == ref


@examples
@given(alpha=ALPHAS, K=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_cohomological_matches_fraction_formula(alpha, K, seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    phi[K] = 0.0
    got = outcome(solve_cohomological, phi, alpha)
    ref = outcome(cohomological_ref, phi, alpha)
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert got == ref
        return
    (psi, report), (psi_ref, min_ref) = got, ref
    assert psi.tobytes() == psi_ref.tobytes()
    assert report.min_divisor == min_ref


def test_cohomological_norm_sums_past_int64():
    # |k|^10 passes 2^63 from |k| = 79 on; the weighted sums must not wrap
    K, s_max = 200, 10
    rng = np.random.default_rng(7)
    phi = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    phi[K] = 0.0
    alpha = from_digits([1] * 4 + [30] + [1] * 80)  # blocks split at (q_4, q_5) = (5, 153)
    psi, report = solve_cohomological(phi, alpha, s_max)
    assert report.block_bounds == (5, 153)
    mags = [float(m) for m in np.abs(psi)]

    def weighted(j, lo=0, hi=K + 1):
        return math.fsum(abs(k) ** j * mags[k + K] for k in range(-K, K + 1) if lo <= abs(k) < hi)

    for j in range(s_max + 1):
        assert report.totals[j] == pytest.approx(weighted(j), rel=1e-14)
        refs = (weighted(j, 0, 5), weighted(j, 5, 153), weighted(j, 153))
        assert report.block_sums[j] == pytest.approx(refs, rel=1e-14)


@pytest.mark.parametrize("q", [1, 3, 7])
def test_cohomological_resonant_divisor(q):
    K = 10
    phi = np.ones(2 * K + 1, dtype=complex)
    phi[K] = 0.0
    with pytest.raises(ResonantDivisor) as exc:
        solve_cohomological(phi, Fraction(1, q))
    with pytest.raises(ResonantDivisor) as exc_ref:
        cohomological_ref(phi, Fraction(1, q))
    assert exc.value.k == exc_ref.value.k == -(K // q) * q
    # a zero right-hand side on the resonant modes skips them instead
    phi[K % q :: q] = 0.0
    psi, report = solve_cohomological(phi, Fraction(1, q))
    psi_ref, min_ref = cohomological_ref(phi, Fraction(1, q))
    assert psi.tobytes() == psi_ref.tobytes()
    assert report.min_divisor == min_ref


# -- the float64 screen -----------------------------------------------------------


DEEP = from_digits([1] * 80)  # golden to 80 digits: a q far past 2^60, no lazy extension


def commutant_fields(rep):
    return (rep.min_divisor, rep.argmin_k, rep.argmin_sign, rep.modes_checked,
            rep.unconstrained_modes)


def commutant_outcome(*args):
    got = outcome(commutant_rigidity_check, *args)
    return got if isinstance(got, tuple) else commutant_fields(got)


@pytest.mark.parametrize("k", [2**26, 2**40, 2**52 - 1])
def test_screen_norms_within_eps_at_every_chunk_width(k):
    p, q = from_digits([2, 10**100, 3, 7, 10**40, 5]).convergent(6)
    shift = Fraction(-7, 3) + Fraction(1, 10**30)
    ks = np.array([-k, -k + 1, k - 1, k], dtype=np.int64)
    vals, eps = _screen_norms(p, q, ks, shift)
    assert eps < 2.0**-45
    for kk, v in zip(ks.tolist(), vals.tolist()):
        x = shift - kk * Fraction(p, q)
        exact = Fraction(norm_numerator(x.numerator, x.denominator), x.denominator)
        assert abs(Fraction(v) - exact) <= eps
    with pytest.raises(ValueError, match="2\\^52"):
        _screen_norms(p, q, np.array([2**52]), shift)


def test_commutant_floor_inside_the_margin_is_decided_exactly():
    # tau = 0 makes the floor constant: gamma from the least divisor puts the
    # floor within ulps of it, far inside the screen's margin
    rho = 0.3
    rep = commutant_rigidity_check(rho, DEEP, 40, 0.0, 1e-6)
    gamma0 = math.asin(rep.min_divisor / (2.0 * (1.0 - 1e-12))) / math.pi
    kinds = set()
    for j in range(-8, 9):
        gamma = gamma0 * (1.0 + j * 2.0**-52)
        got = commutant_outcome(rho, DEEP, 40, 0.0, gamma)
        assert got == outcome(commutant_ref, rho, DEEP, 40, 0.0, gamma)
        kinds.add(got[0] if isinstance(got[0], type) else "passes")
        if got[0] is DivisorFloorViolated:
            assert got[1].endswith(f"at mode k={rep.argmin_k}")
    assert kinds == {"passes", DivisorFloorViolated}


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.3, Fraction(1, 3)])
def test_commutant_argmin_ties_go_to_the_first_mode_in_scan_order(rho):
    # (k, +1) and (-k, -1) always tie; at 2 rho in {0, 1/2} so do (k, +1) and (k, -1)
    got = commutant_rigidity_check(rho, DEEP, 50, 2.0, 1e-6)
    assert commutant_fields(got) == commutant_ref(rho, DEEP, 50, 2.0, 1e-6)
    assert got.argmin_k < 0
    if 2 * Fraction(rho) in (0, Fraction(1, 2)):
        assert got.argmin_sign == +1


@pytest.mark.parametrize("rho", [0, Fraction(1, 2), -1, Fraction(3, 2)])
def test_commutant_with_2rho_an_integer_frees_the_k0_modes(rho):
    got = commutant_rigidity_check(rho, DEEP, 30, 2.0, 1e-6)
    assert commutant_fields(got) == commutant_ref(rho, DEEP, 30, 2.0, 1e-6)
    assert got.unconstrained_modes == [(0, "diagonal"), (0, "off-diagonal sign +1"),
                                       (0, "off-diagonal sign -1")]
    assert got.modes_checked == 2 * 61 - 2


@pytest.mark.parametrize("rho", [0, Fraction(1, 2), -1, Fraction(3, 2)])
def test_commutant_with_no_mode_compared_names_no_argmin(rho):
    # bandwidth 0 and 2 rho an integer: all three k = 0 modes are unconstrained
    got = commutant_rigidity_check(rho, DEEP, 0, 2.0, 1e-6)
    assert commutant_fields(got) == (math.inf, None, None, 0, [
        (0, "diagonal"), (0, "off-diagonal sign +1"), (0, "off-diagonal sign -1")])


def test_commutant_bandwidth_just_past_the_block_size():
    # 2B + 1 = SCREEN_BLOCK + 3 modes, and 2 rho puts the least divisor on the
    # last one, (B, +1), in the second block; its twin (-B, -1) opens the first
    B = SCREEN_BLOCK // 2 + 1
    rho = (B * _alpha_proxy(DEEP) + Fraction(1, 10**6)) / 2
    got = commutant_rigidity_check(rho, DEEP, B, 2.0, 1e-3)
    assert commutant_fields(got) == commutant_ref(rho, DEEP, B, 2.0, 1e-3)
    assert (got.argmin_k, got.argmin_sign) == (-B, -1)
    assert got.min_divisor < commutant_rigidity_check(rho, DEEP, B - 1, 2.0, 1e-3).min_divisor


def test_dc_scan_just_past_the_block_size():
    # the shift puts the one violation on the last mode, alone in the second block
    K = SCREEN_BLOCK + 1
    p, q = DEEP.convergent(DEEP.depth)
    shift = K * Fraction(p, q) + Fraction(1, 10**12)
    ks = list(range(1, K + 1))
    got = dc_scan(from_digits([1] * 80), 0.5, 1e-6, ks, shift)
    assert got == dc_scan_ref(from_digits([1] * 80), 0.5, 1e-6, ks, shift)
    assert (got.holds, got.k) == (False, K)


def test_screen_blocks_of_a_few_modes_match_the_references(monkeypatch):
    # tiny blocks: violations, minima and ties fall in every block position
    monkeypatch.setattr(contfrac, "SCREEN_BLOCK", 5)
    alphas = [DEEP, Fraction(355, 113), from_digits([2, 10**100, 3])]
    for alpha in alphas:
        for rho in (0.3, 0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 7)):
            for bandwidth in (0, 2, 3, 7, 23):
                for tau, gamma in ((0.0, 1e-6), (2.0, 0.05), (1.0, 0.3)):
                    args = (rho, alpha, bandwidth, tau, gamma)
                    ref = outcome(commutant_ref, *args)
                    assert commutant_outcome(*args) == ref
        if isinstance(alpha, ContinuedFraction):
            for K in (0, 4, 5, 11):
                for gamma in (1e-4, 0.02, 0.3):
                    # the public scans, whose mode orders cross the 5-mode blocks
                    for scan, ks, shift in (
                        (lambda cf: dc_membership(cf, 1.0, gamma, K),
                         range(1, K + 1), Fraction(0)),
                        (lambda cf: dc_alpha_membership(Fraction(1, 7), cf, 1.0, gamma, K),
                         sorted(range(-K, K + 1), key=abs), Fraction(2, 7)),
                    ):
                        cf_got = from_digits(alpha.digits(alpha.depth))
                        cf_ref = from_digits(alpha.digits(alpha.depth))
                        got = outcome(scan, cf_got)
                        assert got == outcome(dc_scan_ref, cf_ref, 1.0, gamma, list(ks), shift)
                        assert cf_got.depth == cf_ref.depth
            for ks in (list(range(1, 24)), sorted(range(-11, 12), key=abs)):
                for gamma in (1e-4, 0.02, 0.3):
                    got = outcome(dc_scan, from_digits(alpha.digits(alpha.depth)), 1.0, gamma,
                                  ks, Fraction(2, 7))
                    assert got == outcome(dc_scan_ref, from_digits(alpha.digits(alpha.depth)),
                                          1.0, gamma, ks, Fraction(2, 7))


def short_stream():
    """[3, 2, 5, 5] with the last two digits forged on demand, then exhausted."""
    return ContinuedFraction([3, 2], provider=lambda n, conv: 5 if n <= 4 else None)


def test_dc_scan_order_of_a_violation_and_a_straddle():
    # at the stream's end, mode `bad` violates a constant threshold and mode
    # `open_` straddles it; modes the screen certifies sit between them
    cf = short_stream()
    cf.ensure(4)
    rows = {k: norm_interval_ref(cf, k, Fraction(0), 4) for k in range(1, 60)}
    bad, open_ = None, None
    for thr in sorted({float(lo + hi) / 2 for lo, hi in rows.values()}):
        bad = next((k for k, (lo, hi) in rows.items() if hi < thr), None)
        open_ = next((k for k, (lo, hi) in rows.items() if lo < thr <= hi), None)
        if bad and open_:
            break
    assert bad and open_
    passing = [k for k, (lo, hi) in rows.items() if lo >= thr][:5]
    assert passing
    for ks, verdict in ((passing + [bad] + passing + [open_], DCVerdict),
                        (passing + [open_] + passing + [bad], DepthInsufficient)):
        cf_got, cf_ref = short_stream(), short_stream()
        got = outcome(dc_scan, cf_got, 0.0, thr, ks, Fraction(0))
        assert got == outcome(dc_scan_ref, cf_ref, 0.0, thr, ks, Fraction(0))
        assert cf_got.depth == cf_ref.depth == 4
        assert (type(got) if verdict is DCVerdict else got[0]) is verdict
        if verdict is DCVerdict:
            assert (got.holds, got.k) == (False, bad)


def test_screen_pow_overflow_stays_inside_the_scans():
    # (|k|+1)^300 leaves the float range for |k| >= 11; no numpy warning escapes
    # (the warning gate), and every scan reads the floor there as 0
    got = commutant_rigidity_check(0.3, DEEP, 60, 300.0, 1e-12)
    assert commutant_fields(got) == commutant_ref(0.3, DEEP, 60, 0.0, 1e-12)
    ks = list(range(1, 61))
    got = dc_scan(from_digits([1] * 80), 300.0, 1e-12, ks, Fraction(0))
    assert got == dc_scan_ref(from_digits([1] * 80), 300.0, 1e-12, ks, Fraction(0))
    # past the float range from |k| = 1 (tau = 1e6) and |k| = 5 (tau = 400) on
    assert dc_membership(DEEP, 1e6, 0.05, 10) == DCVerdict(True, K=10)
    assert dc_alpha_membership(0.25, DEEP, 400.0, 0.05, 10) == DCVerdict(True, K=10)
    # at alpha = 1/4 = [3, 1], ||4 alpha|| = 0 and ||2 theta - k alpha|| = 0 at k = 1
    # for theta = 1/8: the screen clears neither, so the exact loop meets a
    # (|k|+1)^1e6 past the float range and holds against the floor 0
    cf = from_digits([3, 1])
    ks = [0, -1, 1, -2, 2, -3, 3, -4, 4]
    assert dc_membership(cf, 1e6, 0.05, 4) == DCVerdict(True, K=4)
    assert dc_membership(cf, 1e6, 0.05, 4) == dc_scan_ref(cf, 1e6, 0.05, ks[2::2], Fraction(0))
    assert dc_alpha_membership(0.125, cf, 1e6, 0.05, 4) == DCVerdict(True, K=4)
    assert dc_alpha_membership(0.125, cf, 1e6, 0.05, 4) == dc_scan_ref(
        cf, 1e6, 0.05, ks, Fraction(1, 4))


@pytest.mark.parametrize("tau, gamma, name", [
    (math.nan, 0.05, "tau"), (-1.0, 0.05, "tau"), (-2000.0, 0.05, "tau"),
    (2.0, math.nan, "gamma"), (2.0, math.inf, "gamma"), (2.0, -math.inf, "gamma")])
def test_scans_refuse_a_floor_they_cannot_compare(tau, gamma, name):
    for scan in (lambda: dc_membership(DEEP, tau, gamma, 10),
                 lambda: dc_alpha_membership(0.25, DEEP, tau, gamma, 10),
                 lambda: commutant_rigidity_check(0.25, DEEP, 20, tau, gamma)):
        with pytest.raises(ValueError, match=name):
            scan()


def test_scans_refuse_a_reach_past_the_screen_at_once():
    # a scan from k = 1 up would screen 2^42 blocks before reaching |k| = 2^52
    with pytest.raises(ValueError, match="K must be < 2\\^52"):
        dc_membership(DEEP, 2.0, 0.05, 2**53)
    with pytest.raises(ValueError, match="K must be < 2\\^52"):
        dc_alpha_membership(0.25, DEEP, 2.0, 0.05, 2**52)
    with pytest.raises(ValueError, match="bandwidth must be < 2\\^52"):
        commutant_rigidity_check(0.25, DEEP, 2**52, 2.0, 0.05)
    with pytest.raises(ValueError, match="K must be >= 0"):
        dc_membership(DEEP, 2.0, 0.05, -1)
    with pytest.raises(ValueError, match="K must be >= 0"):
        dc_alpha_membership(0.25, DEEP, 2.0, 0.05, -1)
    with pytest.raises(ValueError, match="bandwidth must be >= 0"):
        commutant_rigidity_check(0.25, DEEP, -1, 2.0, 0.05)
    assert dc_membership(DEEP, 2.0, 0.0, 10).holds  # gamma = 0 still scans


# -- delta levels -------------------------------------------------------------------


COUPLINGS = st.sampled_from([(0.25, 0.5, 0.25), (0.3, 0.4, 0.3), (0.2, 0.7, 0.5)])


@examples
@given(digits=STREAMS, coupling=COUPLINGS, theta=st.one_of(
    st.floats(0.0, 1.0, allow_nan=False), st.fractions(0, 1, max_denominator=10**9)),
    data=st.data())
def test_delta_levels_match_fraction_formula(digits, coupling, theta, data):
    cpl = CouplingTriple(*coupling)
    assert zero_structure(cpl).kind is not ZeroKind.NONE
    cf = from_digits(digits)
    depth = data.draw(st.integers(2, cf.depth))
    _, levels = delta_exponent(cpl, cf, theta, depth)
    assert levels == delta_levels_ref(cpl, cf, theta, depth)


def test_delta_level_on_the_zero_is_minus_infinity():
    # theta = 1/2 - alpha_proxy/2 puts q_n (theta - 1/2 + alpha/2) on an integer
    cf = from_digits([2, 10**110, 3, 4])
    p, q = cf.convergent(4)
    theta = Fraction(1, 2) - Fraction(p, 2 * q)
    cpl = CouplingTriple(0.25, 0.5, 0.25)
    _, levels = delta_exponent(cpl, cf, theta, 4)
    assert levels == delta_levels_ref(cpl, cf, theta, 4)
    assert all(v == float("-inf") for _, v in levels)


# -- convergent identities ----------------------------------------------------------


@examples
@given(digits=STREAMS)
def test_convergent_determinant_identity(digits):
    cf = from_digits(digits)
    for n in range(1, cf.depth + 1):
        (p0, q0), (p1, q1) = cf.convergent(n - 1), cf.convergent(n)
        assert p1 * q0 - p0 * q1 == (-1) ** (n - 1)


@examples
@given(digits=STREAMS)
@example(digits=[2, 10**5000, 3])  # a digit past the int/str conversion limit
def test_expand_recovers_digits(digits):
    # the last digit is >= 2: [..., a, 1] and [..., a + 1] are the same rational
    digits = digits[:-1] + [max(digits[-1], 2)]
    p, q = from_digits(digits).convergent(len(digits))
    cf = expand(Fraction(p, q), max_depth=len(digits) + 1, partial=True)
    assert isinstance(cf, ContinuedFraction) and cf.stop_reason == "rational"
    assert cf.digits(cf.depth) == digits
    with pytest.raises(RationalDetected):
        expand(Fraction(p, q), max_depth=len(digits) + 1)
