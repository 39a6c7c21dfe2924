import json
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harperlab.contfrac import (
    FFT_LIMB_BITS,
    FFT_MAX_LENGTH,
    FFT_MIN_BITS,
    _exp_ladder,
    _fft_length,
    _fft_mul,
    _fft_product,
    ConstantBeta,
    ContinuedFraction,
    SingleBurst,
    beta_exponent,
    circle_norm,
    dc_alpha_membership,
    dc_membership,
    expand,
    floor_exp,
    forge,
    from_digits,
    golden,
    int_from_decimal,
    int_to_decimal,
    silver,
)
from harperlab.errors import DepthInsufficient, PrecisionExhausted, RationalDetected

GOLDEN_VALUE = (math.sqrt(5.0) - 1.0) / 2.0


def norm_interval(cf, k, depth=None):
    """Exact interval for ||k alpha|| from the convergent enclosure."""
    lo_a, hi_a = cf.enclosure(depth)
    vals = sorted([k * lo_a, k * hi_a])
    w = vals[1] - vals[0]
    base = circle_norm(vals[0])
    return max(Fraction(0), base - w), base + w


def test_golden_digits_and_fibonacci_denominators():
    g = golden()
    assert g.digits(10) == [1] * 10
    assert [g.q(n) for n in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]


def test_expand_golden_from_float():
    cf = expand(GOLDEN_VALUE, max_depth=10)
    assert cf.digits(10) == [1] * 10


def test_expand_silver_convergents():
    cf = expand(math.sqrt(2.0) - 1.0, max_depth=8)
    assert [cf.convergent(n) for n in range(1, 5)] == [(1, 2), (2, 5), (5, 12), (12, 29)]


def test_expand_rational_detected_exact():
    with pytest.raises(RationalDetected) as exc:
        expand(Fraction(1, 3), max_depth=10)
    assert exc.value.digits == [3]


def test_expand_rational_detected_float():
    with pytest.raises(RationalDetected) as exc:
        expand(1.0 / 3.0, max_depth=10, precision=15)
    assert exc.value.digits == [3]


def test_expand_precision_exhausted_deep():
    with pytest.raises(PrecisionExhausted):
        expand(GOLDEN_VALUE, max_depth=200, precision=15)


def test_expand_partial_returns_certified_digits():
    # a float is eventually within 1e-15 of one of its own convergents, so
    # the deep expansion ends via the rational tie rule
    cf = expand(GOLDEN_VALUE, max_depth=200, precision=15, partial=True)
    assert cf.truncated and cf.stop_reason in ("precision", "rational")
    assert cf.digits(min(cf.depth, 30)) == [1] * min(cf.depth, 30)
    assert cf.depth >= 30


def test_expand_partial_wide_interval_is_precision_stop():
    # huge next digit: the 1/remainder interval spans many integers
    x = 1.0 / (1 + 1.0 / (1 + 1e-9))
    cf = expand(x, max_depth=10, precision=15, partial=True)
    assert cf.stop_reason == "precision"
    assert cf.digits(2) == [1, 1]


def test_expansion_reproduces_value():
    for x in [GOLDEN_VALUE, math.sqrt(2) - 1, math.pi - 3, 0.7548776662]:
        cf = expand(x, max_depth=12, partial=True)
        n = cf.depth
        assert n >= 6
        p, q = cf.convergent(n)
        assert abs(Fraction(x) - Fraction(p, q)) <= Fraction(1, q * q)


def test_recurrences_exact_random_digit_streams():
    rng = np.random.default_rng(0)
    for _ in range(20):
        digits = [int(a) for a in rng.integers(1, 50, size=30)]
        cf = from_digits(digits)
        p0, q0 = 0, 1
        p1, q1 = 1, digits[0]
        assert cf.convergent(1) == (p1, q1)
        for n in range(2, 31):
            p1, p0 = digits[n - 1] * p1 + p0, p1
            q1, q0 = digits[n - 1] * q1 + q0, q1
            assert cf.convergent(n) == (p1, q1)
            assert math.gcd(p1, q1) == 1
            assert cf.q(n) > cf.q(n - 1) or n <= 2


def test_qn_alpha_norm_bounds():
    # ||q_n alpha|| in [1/(2 q_{n+1}), 1/q_{n+1}] for n >= 1, exactly
    rng = np.random.default_rng(1)
    streams = [golden(), silver(), from_digits([int(a) for a in rng.integers(1, 9, 40)])]
    for cf in streams:
        cf.ensure(24)
        for n in range(1, 20):
            lo, hi = norm_interval(cf, cf.q(n), depth=24)
            qn1 = cf.q(n + 1)
            assert lo >= Fraction(1, 2 * qn1)
            assert hi <= Fraction(1, qn1)


def test_best_approximation_property():
    rng = np.random.default_rng(2)
    cf = golden()
    cf.ensure(26)
    for n in range(2, 24):
        if cf.q(n + 1) > 10**5:
            break
        qlo, qhi = cf.q(n), cf.q(n + 1)
        ks = rng.integers(qlo, qhi, size=min(8, qhi - qlo))
        _, best_hi = norm_interval(cf, cf.q(n), depth=26)
        for k in ks:
            lo_k, _ = norm_interval(cf, int(k), depth=26)
            assert best_hi <= lo_k or circle_norm(
                int(k) * cf.fraction(10**9)
            ) >= circle_norm(cf.q(n) * cf.fraction(10**9))


def test_beta_exponent_golden_reported_zero():
    fe = beta_exponent(golden(), depth=20, warmup=10)
    # digit-based estimator is exactly zero for bounded digits
    assert fe.alt_estimate == 0.0
    qw = golden().q(10)
    assert fe.beta_estimate <= math.log(2 * qw) / qw
    # the two estimators differ by at most ln(2 q_warmup)/q_warmup
    assert abs(fe.beta_estimate - fe.alt_estimate) <= math.log(2 * qw) / qw


def test_beta_exponent_single_huge_digit_spike():
    digits = [1, 1, 1, 1, 10**6] + [1] * 10
    cf = from_digits(digits)
    fe = beta_exponent(cf, depth=12, warmup=1)
    per = dict(fe.per_level)
    q4 = cf.q(4)
    assert per[4] == pytest.approx(math.log(cf.q(5)) / q4, rel=1e-12)
    assert per[4] > 10 * per[5] > 0  # spike at n=4, then decay
    assert max(per[n] for n in range(5, 12)) < per[4] / 10


def test_beta_exponent_forged_target():
    cf = forge(golden(), n0=4, schedule=ConstantBeta(0.5), levels=3)
    fe = beta_exponent(cf, depth=cf.depth, warmup=5)
    # digit estimator: |ln floor(e^{beta q})/q - beta| <= ln(1+e^{-beta q})/q
    for n, v in fe.per_level_alt:
        if n >= 5:
            qn = cf.q(n)
            assert abs(v - 0.5) <= math.log(1 + math.exp(-0.5 * qn)) / qn + 1e-12
    assert 0.45 <= fe.alt_estimate <= 0.55
    assert 0.45 <= fe.beta_estimate <= 0.62  # q-based runs ln q_n / q_n above


def test_dc_membership_golden_holds():
    verdict = dc_membership(golden(), tau=2.0, gamma=0.2, K=100)
    assert verdict.holds
    # brute-force float oracle
    a = float(golden())
    for k in range(1, 101):
        d = abs(k * a - round(k * a))
        assert d >= 0.2 / (k + 1) ** 2


def test_dc_membership_violated_at_resonance():
    cf = forge(golden(), n0=4, schedule=SingleBurst(1.5), levels=4)
    verdict = dc_membership(cf, tau=2.0, gamma=0.2, K=20)
    assert not verdict.holds
    assert verdict.k == cf.q(4)  # the pre-burst denominator
    assert verdict.value <= 1.0 / cf.q(5)


def test_dc_membership_empty_range():
    assert dc_membership(golden(), 2.0, 0.2, 0).holds


def test_dc_alpha_zero_theta_resonant():
    verdict = dc_alpha_membership(0.0, golden(), tau=2.0, gamma=0.1, K=10)
    assert not verdict.holds and verdict.k == 0 and verdict.value == 0.0


def test_dc_alpha_quarter_holds():
    verdict = dc_alpha_membership(0.25, golden(), tau=2.0, gamma=0.1, K=50)
    assert verdict.holds
    a = float(golden())
    for k in range(-50, 51):
        d = abs(0.5 - k * a - round(0.5 - k * a))
        assert d >= 0.1 / (abs(k) + 1) ** 2


def test_dc_alpha_half_alpha_resonant():
    g = golden()
    theta = g.fraction(min_q=10**12) / 2
    verdict = dc_alpha_membership(theta, g, tau=2.0, gamma=0.1, K=5)
    assert not verdict.holds
    assert verdict.k == 1
    assert verdict.value < 1e-9


def test_dc_alpha_scan_memory_stays_per_block():
    # the order 0, -1, 1, -2, 2, ... comes a block at a time, not as a list of 2K + 1 modes
    tracemalloc.start()
    try:
        verdict = dc_alpha_membership(0.25, golden(), tau=2.0, gamma=0.05, K=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.K == 10**5
    assert peak < 1e6


def test_forge_first_scheduled_digit():
    base = from_digits([1, 1])
    cf = forge(base, n0=2, schedule=ConstantBeta(0.5), levels=1)
    assert cf.digit(3) == 2  # floor(e^{0.5 * q_2}) = floor(e) = 2


def test_forge_preserves_base_convergents():
    base = golden()
    cf = forge(base, n0=7, schedule=ConstantBeta(0.8), levels=2)
    for n in range(8):
        assert cf.convergent(n) == base.convergent(n)


def test_forge_single_burst_tail_is_diophantine():
    cf = forge(golden(), n0=3, schedule=SingleBurst(1.0), levels=12)
    assert cf.digits(cf.depth)[4:] == [1] * (cf.depth - 4)
    verdict = dc_membership(cf, tau=2.0, gamma=1e-3, K=50)
    assert verdict.holds


def test_forge_digit_cap_truncates():
    cf = forge(golden(), n0=4, schedule=ConstantBeta(2.0), levels=8, cap_decimal=50)
    assert cf.truncated
    assert cf.depth < 12


@pytest.mark.parametrize("tail", [0, -1])
def test_single_burst_rejects_a_tail_below_one(tail):
    # a 0 tail would end the stream: q_n would stop growing past the burst
    with pytest.raises(ValueError, match="tail"):
        SingleBurst(0.5, tail=tail)


def test_forge_eager_and_lazy_digits_agree():
    eager = forge(golden(), 3, SingleBurst(0.5, tail=2), levels=5)
    lazy = forge(golden(), 3, SingleBurst(0.5, tail=2), levels=1)
    assert eager.depth == 8 and lazy.depth == 4
    assert eager.digits(10) == lazy.digits(10) == [1, 1, 1, 4] + [2] * 6


def test_floor_exp_certified():
    assert floor_exp(0.5, 2) == 2  # e ~ 2.718
    assert floor_exp(0.3, 91) == 718190003631
    assert floor_exp(1.0, 10**7, cap_decimal=10**6) is None
    # e^t = (e^(1/d))^k for t = k/d: e^(1/2) alone, and t = 3/2 from two betas
    assert floor_exp(0.5, 1) == 1  # e^(1/2) alone
    assert floor_exp(1.5, 1) == 4  # (e^(1/2))^3 ~ 4.48
    assert floor_exp(0.5, 3) == 4  # the same exponent from beta = 1/2
    # 1/d far below 2^-W: the base e^(1/d) is exactly 1
    assert floor_exp(1e-30, 3) == floor_exp(5e-324, 7) == floor_exp(Fraction(1, 10**40), 3) == 1


def test_floor_exp_retries_at_double_precision(monkeypatch):
    # the first enclosure is made to straddle an integer: floor_exp asks again at a larger W
    import harperlab.contfrac as contfrac

    real, widths = contfrac._exp_ladder, []

    def straddling_once(k, d, w):
        lo, hi, s = real(k, d, w)
        widths.append(w)
        return (lo, hi + (1 << -s), s) if len(widths) == 1 else (lo, hi, s)

    expected = floor_exp(2 / 3, 89)
    monkeypatch.setattr(contfrac, "_exp_ladder", straddling_once)
    assert floor_exp(2 / 3, 89) == expected
    assert len(widths) == 2 and widths[1] > widths[0]


def _floor_exp_single_interval(beta, q):
    """floor(e^(beta*q)) from one interval exp at the full argument."""
    from mpmath import iv
    from mpmath.libmp import mpf_floor, round_ceiling, round_floor, to_int

    t = Fraction(beta) * q
    prec = max(64, int(float(t) * 1.4427) + 64)
    old = iv.prec
    try:
        while True:
            iv.prec = prec
            lo, hi = iv.exp(iv.mpf(t.numerator) / t.denominator)._mpi_
            flo = to_int(mpf_floor(lo, prec, round_floor))
            if flo == to_int(mpf_floor(hi, prec, round_ceiling)):
                return flo
            prec *= 2
    finally:
        iv.prec = old


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.sampled_from([0.5, 1.0, 1.5, 0.3, 0.7, 2 / 3, Fraction(2, 3)]), st.integers(1, 2000))
def test_floor_exp_matches_single_interval_exp(beta, q):
    assert floor_exp(beta, q) == _floor_exp_single_interval(beta, q)


class _Untouchable:
    """Stands in for mpmath.iv: reading any of its attributes raises."""

    def __getattr__(self, name):
        raise AssertionError(f"read mpmath.iv.{name}")


# d = 1, d = 2, d = 2^m with m >= 2, and the power path above 600 bits
@pytest.mark.parametrize("beta, q", [(0.5, 2), (0.5, 3), (0.3, 91), (2 / 3, 89), (1.0, 377),
                                     (0.5, 1001), (0.25, 10946)])
def test_floor_exp_reads_no_interval_context(beta, q, monkeypatch):
    # mpmath.iv holds one global precision: two threads forging at different
    # precisions through it would race, so floor_exp works at an explicit precision
    import mpmath

    expected = _floor_exp_single_interval(beta, q)
    monkeypatch.setattr(mpmath, "iv", _Untouchable())
    assert floor_exp(beta, q) == expected


def _exp_series_bounds(d, v):
    """(lo, hi) with lo 2^-v <= e^(1/d) <= hi 2^-v, from sum_n 1/(d^n n!) in Python ints.

    Each term is floored from the one before, so it falls short of its exact
    value by less than 2 units; the series stops at its first zero term,
    whose exact value is below 2 units, and every later term is at most half
    the one before: the n terms summed and the tail fall short by less than
    2 n + 4 units.
    """
    u = total = 1 << v
    n = 1
    while u:
        u //= d * n
        total += u
        n += 1
    return total, total + 2 * n + 4


def _directed_cut(m, s, p, up):
    """m 2^s cut to its p leading bits, rounded down (or up, if up)."""
    drop = m.bit_length() - p
    if drop <= 0:
        return m, s
    return (-(-m >> drop) if up else m >> drop), s + drop


def _exp_bounds(k, d, p):
    """((lo, s_lo), (hi, s_hi)) enclosing e^(k/d), k = j d + (d > 1), at p bits.

    e^(k/d) = e^j e^(1/d) for d > 1: e^j by square-and-multiply with every
    product floored on the low end and ceiled on the high end (Python's *),
    then one more product by e^(1/d)'s bounds.
    """
    v = p + 64
    e_lo, e_hi = _exp_series_bounds(1, v)
    ends = []
    for x, up in ((e_lo, False), (e_hi, True)):
        m, s = 1, 0
        for bit in bin(k // d)[2:]:
            m, s = _directed_cut(m * m, 2 * s, p, up)
            if bit == "1":
                m, s = _directed_cut(m * x, s - v, p, up)
        ends.append((m, s))
    if d > 1:
        root = _exp_series_bounds(d, v)
        ends = [_directed_cut(m * r, s - v, p, up)
                for (m, s), r, up in zip(ends, root, (False, True))]
    return ends


def _le(m1, s1, m2, s2):
    """m1 2^s1 <= m2 2^s2, exactly."""
    s = min(s1, s2)
    return m1 << (s1 - s) <= m2 << (s2 - s)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.integers(0, 37512),  # up to floor(q_24 / 2), the n0 = 24 stream at beta = 1/2
    st.sampled_from([1, 2, 3, 7, 2**52]),
    st.one_of(st.integers(53, 600), st.integers(601, 54200)),  # Python and FFT products
)
def test_exp_ladder_contains_interval_exp(j, d, prec):
    # the ladder's enclosure of e^(k/d), k = j d (+ 1 for d > 1), at floor_exp's
    # working precision holds an integer enclosure with directed rounding at twice it
    k = j * d + (d > 1)
    assume(k > 0)  # floor_exp never asks for e^0
    w = prec + k.bit_length() + 8
    lo, hi, s = _exp_ladder(k, d, w)
    assert lo.bit_length() == w and hi > lo
    (a, s_a), (b, s_b) = _exp_bounds(k, d, 2 * w)
    assert _le(lo, s, a, s_a)
    assert _le(b, s_b, hi, s)


# sha256 of the decimal digits, first 16 hex digits: a whole or half t = beta q as read
# before the ladder, other t as read before their directed exps replaced mpmath's
# interval exp, and ln 2 (L at the coupling (0, 0.5, 0)) before the ladder on e^(1/d)
@pytest.mark.parametrize("beta, q, digest", [(0.5, 196418, "82ee05b329270f26"),
                                             (0.5, 75025, "e29a16a7365f2e5a"),
                                             (1.0, 28657, "843886924fe597c9"),
                                             (2 / 3, 75025, "1d21d519436ce036"),
                                             (0.3, 28657, "5168c4fea3152a43"),
                                             (math.log(2), 75025, "908ccc4f694ec569")])
def test_floor_exp_pinned_digits(beta, q, digest):
    import hashlib

    digits = int_to_decimal(floor_exp(beta, q))
    assert hashlib.sha256(digits.encode()).hexdigest()[:16] == digest


def _count_transforms(monkeypatch):
    import numpy.fft

    calls = []
    real = numpy.fft.irfft

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(numpy.fft, "irfft", counted)
    return calls


@pytest.mark.parametrize("bits_a, bits_b", [(FFT_MIN_BITS - 1, FFT_MIN_BITS - 1),
                                            (FFT_MIN_BITS - 1, 200_000),
                                            (FFT_MIN_BITS, FFT_MIN_BITS),
                                            (FFT_MIN_BITS + 1, 41_000),
                                            (54_200, 54_200),
                                            (141_900, 141_900),
                                            (50_000, 300_000)])
def test_fft_mul_matches_python_product(bits_a, bits_b, monkeypatch):
    import random

    rng = random.Random(bits_a * 1_000_003 + bits_b)
    a = rng.getrandbits(bits_a) | 1 << (bits_a - 1)
    b = rng.getrandbits(bits_b) | 1 << (bits_b - 1)
    transforms = _count_transforms(monkeypatch)
    assert _fft_mul(a, b) == a * b
    assert _fft_mul(a, a) == a * a
    # the FFT runs from FFT_MIN_BITS on, in both factors
    assert len(transforms) == (2 if min(bits_a, bits_b) >= FFT_MIN_BITS else 0)
    spectra = {}
    for _ in range(2):  # b's transform, kept and reused
        assert _fft_mul(a, b, spectra) == a * b
    assert len(spectra) == (1 if min(bits_a, bits_b) >= FFT_MIN_BITS else 0)


# every 2^a 3^b with a >= 2 up to twice the longest transform: the transform lengths
SMOOTH_LENGTHS = sorted(3**b << a for a in range(2, 22) for b in range(14)
                        if 3**b << a <= 2 * FFT_MAX_LENGTH)


def _assert_shortest_smooth_length(n, la, lb):
    m = la + lb - 1
    assert n in SMOOTH_LENGTHS and n % 4 == 0
    assert m <= n <= 1 << (la + lb - 2).bit_length()  # at most the power of two
    assert not [k for k in SMOOTH_LENGTHS if m <= k < n]  # and the shortest


# limb counts: the FFT crossover, products whose la + lb - 1 sits at a 2^a 3^b length,
# one past it and one below it, the n0 = 22, 24 and 26 ladder squares, and unequal sizes
@pytest.mark.parametrize("la, lb", [(2667, 2667), (4608, 4609), (4608, 4610), (4608, 4608),
                                    (3452, 3452), (4518, 4518), (11_815, 11_815),
                                    (12_288, 12_289), (12_288, 12_290), (50_000, 3)])
def test_fft_lengths_are_the_shortest_2a3b(la, lb, monkeypatch):
    import random

    rng = random.Random(la * 1_000_003 + lb)
    a = rng.getrandbits(FFT_LIMB_BITS * la) | 1 << (FFT_LIMB_BITS * la - 1)
    b = rng.getrandbits(FFT_LIMB_BITS * lb) | 1 << (FFT_LIMB_BITS * lb - 1)
    transforms = _count_transforms(monkeypatch)
    assert _fft_product(a, b) == a * b
    assert transforms == [_fft_length(la + lb - 1)]
    _assert_shortest_smooth_length(transforms[0], la, lb)


def test_fft_length_rule_over_all_sizes():
    for m in range(4, 5000):  # from 4 on: N is at least 4
        _assert_shortest_smooth_length(_fft_length(m), m, 1)
    for n in SMOOTH_LENGTHS:
        assert _fft_length(n) == n and _fft_length(n + 1) > n


@pytest.mark.parametrize("nbits", [
    FFT_LIMB_BITS * -(-int(10**6 * math.log2(10) + 200) // FFT_LIMB_BITS),  # the 10^6-digit cap
    FFT_LIMB_BITS * FFT_MAX_LENGTH // 2,  # the longest transform
])
def test_fft_product_of_full_limbs(nbits, monkeypatch):
    # every 12-bit limb 4095: the largest coefficients a square of this length can have
    x = (1 << nbits) - 1
    assert FFT_MAX_LENGTH // 2 < 2 * nbits // FFT_LIMB_BITS <= FFT_MAX_LENGTH
    transforms = _count_transforms(monkeypatch)
    assert _fft_product(x, x) == (1 << 2 * nbits) - (1 << nbits + 1) + 1
    assert transforms[0] in (559_872, FFT_MAX_LENGTH)  # 2^8 3^7 at the cap, and 2^20
    _assert_shortest_smooth_length(transforms[0], nbits // FFT_LIMB_BITS, nbits // FFT_LIMB_BITS)


def test_fft_product_refuses_a_longer_transform():
    x = 1 << FFT_LIMB_BITS * FFT_MAX_LENGTH // 2  # one limb past half the longest transform
    assert _fft_product(x, x) is None
    assert _fft_mul(x, x) == x * x


def test_percival_bound_stays_below_half():
    # |err| <= |x|_2 |y|_2 ((1+eps)^3n (1+eps sqrt5)^(3n+1) (1+beta)^3n - 1), beta = eps,
    # for N = 2^a 3^b with n = a + 2b: each radix-3 stage charged as two radix-2 stages
    # (the argument is in _fft_product's docstring)
    eps = 2.0**-53

    def bound(la, lb):
        N = _fft_length(la + lb - 1)
        a = (N & -N).bit_length() - 1
        b = round(math.log(N >> a, 3))
        assert 3**b << a == N
        n = a + 2 * b
        growth = math.expm1(6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))
        return 4095**2 * math.sqrt(la * lb) * growth

    # the largest sqrt(la lb) at each admissible length N: la + lb - 1 = N
    admissible = [N for N in SMOOTH_LENGTHS if N <= FFT_MAX_LENGTH]
    assert max(bound(N // 2, N // 2 + 1) for N in admissible) < 0.28
    assert bound(FFT_MAX_LENGTH // 2, FFT_MAX_LENGTH // 2) < 0.26  # the longest transform
    assert bound(276_829, 276_829) < 0.15  # the 10^6-digit cap
    assert bound(11_815, 11_815) < 0.005  # the n0 = 26 stream


def test_fft_tripwire_falls_back_to_python_product(monkeypatch):
    import numpy.fft

    real = numpy.fft.irfft
    monkeypatch.setattr(numpy.fft, "irfft", lambda *args, **kwargs: real(*args, **kwargs) + 0.3)
    a, b = 3**30_000, 7**20_000
    assert _fft_product(a, b) is None
    assert _fft_mul(a, b) == a * b


@pytest.mark.parametrize("q", [28657, 75025])  # golden q_22 and q_24 (the n0 = 24 stream)
def test_floor_exp_half_is_isqrt_of_full(q):
    # floor(e^(q/2)) = isqrt(floor(e^q)): an exact identity, checked at large q
    assert floor_exp(0.5, q) == math.isqrt(floor_exp(1.0, q))


def test_digit_stream_json_round_trip():
    cf = forge(golden(), n0=5, schedule=ConstantBeta(0.4), levels=3)
    text = cf.to_json()
    back = ContinuedFraction.from_json(text)
    assert back.digits(back.depth) == cf.digits(cf.depth)
    assert back.convergent(back.depth) == cf.convergent(cf.depth)


def test_lazy_extension_thread_safe():
    cf = golden()
    errs = []

    def work():
        try:
            cf.ensure(4000)
        except Exception as e:  # pragma: no cover
            errs.append(e)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    assert cf.digits(4000) == [1] * 4000


def test_beta_reported_maxima_decay_beyond_burst():
    # all-ones tail: estimates taken past ever-later warmups decrease to 0
    cf = forge(golden(), n0=3, schedule=SingleBurst(1.0), levels=14)
    ests = [
        beta_exponent(cf, depth=cf.depth, warmup=w).beta_estimate
        for w in range(4, 13)
    ]
    assert all(a >= b for a, b in zip(ests, ests[1:]))
    assert ests[-1] < 0.01


def test_fraction_resolution_margin():
    g = golden()
    fr = g.fraction(min_q=10**6)
    assert fr.denominator >= 10**6
    # enclosure certifies the proxy to better than 1/q^2
    lo, hi = g.enclosure()
    assert lo <= fr <= hi or abs(fr - lo) < Fraction(1, 10**10)


@pytest.mark.parametrize("stream", [golden, lambda: from_digits([2, 3, 1, 4, 1, 5])])
def test_fraction_is_the_first_convergent_reaching_min_q(stream):
    # or the deepest one when a finite stream ends first; fresh and deeper streams agree
    ref = stream()
    for min_q in [1, 2, 3, 5, 12, 13, 14, 10**6, 2**200]:
        n = 1
        while True:
            try:
                q = ref.q(n)
            except DepthInsufficient:
                n -= 1
                break
            if q >= min_q:
                break
            n += 1
        want = Fraction(*ref.convergent(n))
        assert stream().fraction(min_q) == want
        assert ref.fraction(min_q) == want


def test_decimal_round_trip_up_to_2e5_bits():
    import random
    from decimal import Decimal

    rng = random.Random(5)
    values = [0, 1, 9, 10]
    for m in [639, 640, 641, 1280, 5000, 20_000, 60_206]:  # 10^60206 has 2.0e5 bits
        values += [10**m - 1, 10**m, 10**m + 1]
    values += [rng.getrandbits(rng.randint(1, 200_000)) for _ in range(8)]
    for n in values:
        for v in (n, -n):
            text = int_to_decimal(v)
            assert text == str(Decimal(v))  # the conversion it replaces
            assert int_from_decimal(text) == v


def test_decimal_conversion_under_the_lowest_str_limit():
    # pieces of 640 digits pass any sys.set_int_max_str_digits() setting
    import sys

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = 7**30_000 + 1
        assert int_from_decimal(int_to_decimal(n)) == n
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text, value", [("12", 12), (" 12\n", 12), ("+12", 12), ("-12", -12),
                                         ("1_2", 12), ("-0", 0), ("007", 7), (12, 12)])
def test_int_from_decimal_accepts(text, value):
    assert int_from_decimal(text) == value


@pytest.mark.parametrize("text", ["1.0", "1e5", "nan", "inf", "", "abc", "1 2"])
def test_int_from_decimal_refuses(text):
    with pytest.raises(ValueError):
        int_from_decimal(text)


def test_json_round_trip_past_int_str_limit():
    small = from_digits([1, 2, 10**30])
    assert small.to_json() == json.dumps([str(a) for a in small.digits(3)])
    big = from_digits([3, 7 * 10**5000 + 1, 2])
    back = ContinuedFraction.from_json(big.to_json())
    assert back.digits(3) == big.digits(3)
    for bad in ('["1.0"]', '["1e5"]', '["abc"]', '["nan"]'):
        with pytest.raises(ValueError):
            ContinuedFraction.from_json(bad)
