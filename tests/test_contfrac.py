import json
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harperlab.contfrac import (
    ConstantBeta,
    ContinuedFraction,
    SingleBurst,
    beta_exponent,
    _exp_int_enclosure,
    circle_norm,
    dc_alpha_membership,
    dc_membership,
    expand,
    floor_exp,
    forge,
    from_digits,
    golden,
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
    # e^t split at k = floor(t): k = 0, and k = 1 with r = 1/2 from two betas
    assert floor_exp(0.5, 1) == 1  # e^(1/2) alone
    assert floor_exp(1.5, 1) == 4  # e * e^(1/2) ~ 4.48
    assert floor_exp(0.5, 3) == 4  # the same exponent from beta = 1/2


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
@given(st.sampled_from([0.5, 1.0, 1.5, 0.3, 0.7, 2 / 3]), st.integers(1, 2000))
def test_floor_exp_matches_single_interval_exp(beta, q):
    assert floor_exp(beta, q) == _floor_exp_single_interval(beta, q)


class _Untouchable:
    """Stands in for mpmath.iv: reading any of its attributes raises."""

    def __getattr__(self, name):
        raise AssertionError(f"read mpmath.iv.{name}")


# r = 0, r = 1/2, other r, and the power path above 600 bits
@pytest.mark.parametrize("beta, q", [(0.5, 2), (0.5, 3), (0.3, 91), (2 / 3, 89), (1.0, 377),
                                     (0.5, 1001), (0.25, 10946)])
def test_floor_exp_reads_no_interval_context(beta, q, monkeypatch):
    # mpmath.iv holds one global precision: two threads forging at different
    # precisions through it would race, so floor_exp works at an explicit precision
    import mpmath

    expected = _floor_exp_single_interval(beta, q)
    monkeypatch.setattr(mpmath, "iv", _Untouchable())
    assert floor_exp(beta, q) == expected


@pytest.mark.parametrize("q", [1000, 1001])  # beta*q = 500 and 500.5, both above 600 bits
def test_floor_exp_takes_one_power_of_e_per_precision(q, monkeypatch):
    # above 600 bits mpmath's exp(k) is the power mpf_pow_int(e, k); its
    # interval exp would take it twice (once per endpoint) at each precision
    from mpmath.libmp import libelefun

    expected = _floor_exp_single_interval(0.5, q)
    powers = []
    real = libelefun.mpf_pow_int

    def counted(s, n, prec, *rnd):
        powers.append((n, prec))
        return real(s, n, prec, *rnd)

    monkeypatch.setattr(libelefun, "mpf_pow_int", counted)
    assert floor_exp(0.5, q) == expected
    steps = sorted({prec for _, prec in powers})
    # one e^500 per precision step; e^(1/2) rounds e itself (a power n = 1)
    assert [prec for n, prec in sorted(powers) if n == 500] == steps
    assert all(n in (1, 500) for n, _ in powers)
    assert steps and steps[0] > 600


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.integers(0, 37512),  # up to k = floor(q_24 / 2), the n0 = 24 stream at beta = 1/2
    st.one_of(st.integers(53, 600), st.integers(601, 54200)),  # series and power paths
)
def test_exp_int_enclosure_contains_interval_exp(k, prec):
    from mpmath import iv
    from mpmath.libmp import mpf_le

    old = iv.prec
    try:
        iv.prec = prec
        a, b = iv.exp(iv.mpf(k))._mpi_
    finally:
        iv.prec = old
    lo, hi = _exp_int_enclosure(k, prec)
    assert lo == a  # mpmath's own lower endpoint
    assert mpf_le(b, hi)


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


def test_json_round_trip_past_int_str_limit():
    small = from_digits([1, 2, 10**30])
    assert small.to_json() == json.dumps([str(a) for a in small.digits(3)])
    big = from_digits([3, 7 * 10**5000 + 1, 2])
    back = ContinuedFraction.from_json(big.to_json())
    assert back.digits(3) == big.digits(3)
    for bad in ('["1.0"]', '["1e5"]', '["abc"]', '["nan"]'):
        with pytest.raises(ValueError):
            ContinuedFraction.from_json(bad)
