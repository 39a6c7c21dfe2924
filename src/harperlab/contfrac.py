"""Exact continued-fraction arithmetic for quasiperiodic frequencies.

Frequencies are represented by their digit stream a_1, a_2, ... together with
the big-integer convergents p_n/q_n, so that all Diophantine questions
(growth exponents, ||k alpha|| lower bounds, best approximations) can be
answered in exact integer arithmetic.  Digit schedules let one forge
frequencies whose denominators grow at a prescribed exponential rate.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DepthInsufficient, PrecisionExhausted, RationalDetected

__all__ = [
    "ContinuedFraction",
    "FrequencyExponent",
    "DCVerdict",
    "ConstantBeta",
    "SingleBurst",
    "expand",
    "golden",
    "silver",
    "from_digits",
    "beta_exponent",
    "dc_membership",
    "dc_alpha_membership",
    "forge",
    "circle_norm",
    "norm_numerator",
    "int_to_decimal",
    "int_from_decimal",
    "log_of_int",
    "div_by_big",
]

RealLike = Union[float, Fraction, str, int]

# Refuse to materialize forged digits longer than this many decimal digits.
DIGIT_CAP_DECIMAL = 10**6
# The rational stand-in for a digit stream is its first convergent with q at
# least this (or its deepest one): read by float(cf) and model._alpha_proxy.
PROXY_MIN_Q = 1 << 60
# Modes a Diophantine scan screens in float64 at once (_screen_norms); small
# blocks keep its working arrays (8 KB each) from raising peak memory.
SCREEN_BLOCK = 1 << 10


def log_of_int(q: int) -> float:
    """Natural log of a positive big integer, never via float(q)."""
    # math.log handles arbitrary-size ints through bit-length reduction,
    # accurate to double precision.
    return math.log(q)


def div_by_big(numer: float, q: int) -> float:
    """numer / q for positive big-int q, keeping the sign and underflowing to 0.0."""
    if q.bit_length() < 1000:
        return numer / q
    if numer == 0.0:
        return 0.0
    return math.copysign(math.exp(math.log(abs(numer)) - log_of_int(q)), numer)


def norm_numerator(n: int, d: int) -> int:
    """m with ||n/d|| = m/d for d > 0: min(n mod d, d - n mod d).

    m/d is already in lowest terms when n/d is, since gcd(m, d) = gcd(n, d).
    """
    r = n % d
    return min(r, d - r)


def circle_norm(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    return Fraction(norm_numerator(x.numerator, x.denominator), x.denominator)


def int_to_decimal(n: int) -> str:
    """Decimal string of an int of any size.

    Goes through decimal.Decimal, which is exact and, unlike str(int), not
    bound by sys.get_int_max_str_digits().
    """
    return str(Decimal(n))


def int_from_decimal(s: Union[str, int]) -> int:
    """Inverse of int_to_decimal, accepting what int() accepts for a digit string."""
    try:
        d = Decimal(s)
    except InvalidOperation:
        d = None
    if d is None or d.as_tuple().exponent != 0:  # int() rejects "1.0", "1e5", "nan" too
        raise ValueError(f"invalid integer literal {s!r:.40}")
    return int(d)


class ContinuedFraction:
    """A frequency given by its continued-fraction digit stream.

    Digits may be finite (expanded from a real to limited precision) or
    lazily extendable (named constants, forged schedules).  Convergents are
    cached; extension is lock-protected so instances can be shared across
    threads after construction.
    """

    def __init__(
        self,
        digits: Sequence[int],
        provider: Optional[Callable[[int, list], Optional[int]]] = None,
        origin: str = "explicit",
    ):
        if any(a < 1 for a in digits):
            raise ValueError("continued-fraction digits must be positive integers")
        self._digits = [int(a) for a in digits]
        self._provider = provider
        self.origin = origin
        self.truncated = False
        self.stop_reason: Optional[str] = None  # "rational" | "precision"
        # convergents[n] = (p_n, q_n); index 0 is the empty convergent 0/1
        self._convergents = [(0, 1)]
        self._lock = threading.Lock()
        self._grow_convergents()

    # -- digit / convergent access ------------------------------------

    def _grow_convergents(self):
        while len(self._convergents) <= len(self._digits):
            n = len(self._convergents)
            a = self._digits[n - 1]
            p1, q1 = self._convergents[n - 1]
            p0, q0 = self._convergents[n - 2] if n >= 2 else (1, 0)
            self._convergents.append((a * p1 + p0, a * q1 + q0))

    def ensure(self, depth: int) -> None:
        """Make digits a_1..a_depth (and convergents up to q_depth) available."""
        if depth <= len(self._digits):
            return
        with self._lock:
            while len(self._digits) < depth:
                if self._provider is None:
                    raise DepthInsufficient(
                        f"digit stream has {len(self._digits)} digits, "
                        f"{depth} requested ({self.origin})"
                    )
                nxt = self._provider(len(self._digits) + 1, self._convergents)
                if nxt is None:
                    self.truncated = True
                    raise DepthInsufficient(
                        f"digit stream exhausted at depth {len(self._digits)} "
                        f"({self.origin})"
                    )
                self._digits.append(int(nxt))
                self._grow_convergents()

    @property
    def depth(self) -> int:
        """Number of digits currently materialized."""
        return len(self._digits)

    def digit(self, n: int) -> int:
        """a_n (1-based)."""
        self.ensure(n)
        return self._digits[n - 1]

    def digits(self, depth: int) -> list[int]:
        self.ensure(depth)
        return self._digits[:depth]

    def convergent(self, n: int) -> tuple[int, int]:
        """(p_n, q_n); n=0 gives (0, 1)."""
        if n > 0:
            self.ensure(n)
        return self._convergents[n]

    def q(self, n: int) -> int:
        return self.convergent(n)[1]

    # -- real-value proxies --------------------------------------------

    def enclosure(self, depth: Optional[int] = None) -> tuple[Fraction, Fraction]:
        """Interval (as Fractions) certainly containing the value.

        Uses the classical alternating enclosure between consecutive
        convergents at the deepest available level.
        """
        if depth is None:
            depth = len(self._digits)
        else:
            self.ensure(depth)
        if depth < 2:
            raise DepthInsufficient("need at least two digits for an enclosure")
        pa, qa = self._convergents[depth - 1]
        pb, qb = self._convergents[depth]
        a, b = Fraction(pa, qa), Fraction(pb, qb)
        return (a, b) if a <= b else (b, a)

    def fraction(self, min_q: int = 1) -> Fraction:
        """First convergent p_N/q_N with q_N >= min_q.

        A lazy stream is extended as far as that takes.  When the digit
        stream ends below min_q the deepest convergent is returned anyway: a
        finite stream represents exactly that rational.  The library reads
        it at min_q = PROXY_MIN_Q only (float(cf), model._alpha_proxy).
        """
        # q_n rises strictly from n = 1 on (digits are positive): skip the materialized q < min_q
        n = bisect.bisect_left(self._convergents, min_q, lo=1, key=lambda pq: pq[1])
        while True:
            try:
                p, q = self.convergent(n)
            except DepthInsufficient:
                p, q = self._convergents[-1]
                return Fraction(p, q)
            if q >= min_q:
                return Fraction(p, q)
            n += 1

    def __float__(self) -> float:
        return float(self.fraction(min_q=PROXY_MIN_Q))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """The materialized digit stream as a JSON array of decimal strings."""
        return json.dumps([int_to_decimal(a) for a in self._digits])

    @classmethod
    def from_json(cls, text: str, origin: str = "digit-file") -> "ContinuedFraction":
        data = json.loads(text)
        return cls([int_from_decimal(s) for s in data], origin=origin)

    def __repr__(self):
        head = ",".join(int_to_decimal(a) for a in self._digits[:6])
        more = ",..." if len(self._digits) > 6 else ""
        return f"ContinuedFraction([{head}{more}], depth={self.depth}, {self.origin})"


def golden() -> ContinuedFraction:
    """(sqrt(5)-1)/2 = [1, 1, 1, ...]."""
    return ContinuedFraction([1], provider=lambda n, conv: 1, origin="golden")


def silver() -> ContinuedFraction:
    """sqrt(2)-1 = [2, 2, 2, ...]."""
    return ContinuedFraction([2], provider=lambda n, conv: 2, origin="silver")


def from_digits(digits: Sequence[int], origin: str = "explicit") -> ContinuedFraction:
    return ContinuedFraction(digits, origin=origin)


def expand(
    x: RealLike,
    max_depth: int = 64,
    precision: int = 15,
    partial: bool = False,
) -> ContinuedFraction:
    """Certified continued-fraction expansion of x in (0, 1).

    The input is taken to be known to +-10^-precision (exactly, when given
    as a Fraction).  Every digit is certified by interval arithmetic; when
    the interval straddles a rational completion, RationalDetected is
    raised; when it is too wide to pin the next digit, PrecisionExhausted.
    With ``partial=True`` these conditions end the expansion instead,
    returning the digits certified so far.
    """
    exact = isinstance(x, (Fraction, int))
    x0 = Fraction(x)
    radius = Fraction(0) if exact else Fraction(1, 10**precision)
    lo, hi = x0 - radius, x0 + radius
    if not (0 < x0 < 1):
        raise ValueError(f"expand() wants x in (0,1), got {x0}")

    digits: list[int] = []

    def finish() -> ContinuedFraction:
        return ContinuedFraction(digits, origin=f"expanded-from-real(precision={precision})")

    def stop(exc: PrecisionExhausted) -> ContinuedFraction:
        if partial and exc.digits:
            cf = ContinuedFraction(
                exc.digits, origin=f"expanded-from-real(precision={precision})"
            )
            cf.truncated = True
            cf.stop_reason = (
                "rational" if isinstance(exc, RationalDetected) else "precision"
            )
            return cf
        raise exc

    while len(digits) < max_depth:
        if lo <= 0:
            # remainder interval touches zero: rational to working precision
            return stop(
                RationalDetected(
                    f"rational remainder after digits {digits}", digits=digits
                )
            )
        ilo, ihi = 1 / hi, 1 / lo
        flo, fhi = ilo.__floor__(), ihi.__floor__()
        if flo == fhi:
            digits.append(flo)
            lo, hi = ilo - flo, ihi - flo
            if hi == 0:  # exact rational, expansion complete
                shown = ", ".join(map(int_to_decimal, digits))
                return stop(
                    RationalDetected(
                        f"exact rational with digits [{shown}]", digits=digits
                    )
                )
            continue
        # Interval of 1/remainder contains an integer boundary.  If the
        # rational completed by that boundary digit sits within the input
        # uncertainty, the tie rule declares the input rational.
        if fhi - flo == 1:
            cand = digits + [fhi]
            p, q = 0, 1
            pp, qq = 1, 0
            for a in cand:
                p, pp = a * p + pp, p
                q, qq = a * q + qq, q
            if abs(x0 - Fraction(p, q)) <= 2 * max(radius, Fraction(1, 10**precision)):
                return stop(
                    RationalDetected(
                        f"within 10^-{precision} of {p}/{q}", digits=cand
                    )
                )
        return stop(
            PrecisionExhausted(
                f"cannot certify digit {len(digits)+1} at precision {precision}",
                digits=digits,
            )
        )
    return finish()


# -- growth exponent ----------------------------------------------------


@dataclass(frozen=True)
class FrequencyExponent:
    """Finite-depth surrogate of the denominator growth exponent.

    per_level holds (n, ln q_{n+1}/q_n); beta_estimate is the maximum over
    levels n >= warmup, alt_estimate the same for the digit-based estimator
    ln a_{n+1}/q_n.
    """

    depth: int
    warmup: int
    beta_estimate: float
    alt_estimate: float
    per_level: list = field(default_factory=list)
    per_level_alt: list = field(default_factory=list)


def beta_exponent(
    cf: ContinuedFraction, depth: int, warmup: int = 1
) -> FrequencyExponent:
    """Denominator growth exponent surrogate max_{n>=warmup} ln q_{n+1}/q_n.

    The limsup of the defining sequence is replaced by a maximum past an
    explicit warmup index.  Both the denominator-based and the digit-based
    estimators are reported; they differ per level by ln(q_{n+1}/a_{n+1})/q_n
    which is at most ln(2 q_n)/q_n.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    warmup = max(1, warmup)
    cf.ensure(depth)
    per: list[tuple[int, float]] = []
    per_alt: list[tuple[int, float]] = []
    for n in range(1, depth):
        qn = cf.q(n)
        per.append((n, div_by_big(log_of_int(cf.q(n + 1)), qn)))
        a = cf.digit(n + 1)
        per_alt.append((n, div_by_big(log_of_int(a), qn) if a > 1 else 0.0))
    tail = [v for n, v in per if n >= warmup]
    tail_alt = [v for n, v in per_alt if n >= warmup]
    if not tail:
        raise ValueError("warmup leaves no levels")
    return FrequencyExponent(
        depth=depth,
        warmup=warmup,
        beta_estimate=max(tail),
        alt_estimate=max(tail_alt),
        per_level=per,
        per_level_alt=per_alt,
    )


# -- Diophantine membership ----------------------------------------------


@dataclass(frozen=True)
class DCVerdict:
    """Outcome of a finite Diophantine scan.

    holds is True when the inequality was certified for the whole range;
    otherwise k/value record the first violation.
    """

    holds: bool
    k: Optional[int] = None
    value: Optional[float] = None
    K: int = 0


def _norm_interval(
    cf: ContinuedFraction, k: int, shift: Fraction, depth: int
) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= ||shift - k*alpha||_T <= hi/den, exactly.

    alpha lies between p_{N-1}/q_{N-1} and p_N/q_N (N = depth), an interval
    of width 1/(q_{N-1} q_N) by the determinant identity, so shift - k*alpha
    lies within |k|/(q_{N-1} q_N) above its value at one endpoint.
    """
    (pa, qa), (pb, qb) = cf.convergent(depth - 1), cf.convergent(depth)
    # shift - k*alpha is least at alpha's upper endpoint when k > 0, at its
    # lower one when k < 0; p_N/q_N is the upper endpoint exactly when N is odd
    if (k > 0) == (depth % 2 == 1):
        p, q, q_other = pb, qb, qa
    else:
        p, q, q_other = pa, qa, qb
    sn, sd = shift.numerator, shift.denominator
    base = norm_numerator(sn * q - k * p * sd, sd * q)
    # base/(sd*q) and the width |k|/(q_{N-1} q_N) over sd*q_{N-1}*q_N
    mid, width = base * q_other, abs(k) * sd
    return max(mid - width, 0), mid + width, sd * qa * qb


def _screen_norms(p: int, q: int, ks: np.ndarray, shift: Fraction) -> tuple[np.ndarray, float]:
    """Float64 ||shift - k p/q|| for the integer modes ks, and an absolute error bound.

    With K = max |k| (K < 2^52, else ValueError), frac(p/q) is cut into m
    chunks of c = 53 - bitlength(K) bits, frac(p/q) = sum_j x_j 2^(-cj) +
    tail with 0 <= tail < 2^(-cm), taken exactly by integer shifts and //;
    m is the least with cm >= 53 + bitlength(K).  Each |k| x_j < K 2^c
    <= 2^53 is an exact float64, and so is the fractional part of
    |k| x_j 2^(-cj).  What rounds: the dropped tail, |k| tail < 2^-53; the
    m - 1 sums of those parts, each reduced mod 1, 2^-53 each; shift read
    as a float, 2^-54; and shift -+ frac(|k| p/q), 2^-53.  The circle norm
    is 1-Lipschitz and its own step is exact, so every value lies within
    eps = (m + 2) 2^-53 of the exact norm; eps grows with K.
    """
    K = int(np.max(np.abs(ks), initial=0))
    bits = K.bit_length()
    if bits > 52:
        raise ValueError(f"a float64 screen needs |k| < 2^52, got |k| = {K}")
    c = 53 - bits
    m = -(-(53 + bits) // c)
    x = ((p % q) << (c * m)) // q  # floor(frac(p/q) 2^(cm))
    absk = np.abs(ks).astype(np.float64)
    u = np.zeros(len(ks))  # frac(|k| p/q)
    for j in range(1, m + 1):
        chunk = (x >> (c * (m - j))) & ((1 << c) - 1)
        if chunk:
            part = absk * float(chunk) * 2.0 ** (-c * j)
            part -= np.floor(part)
            u += part
            u -= np.floor(u)
    d = float(shift - math.floor(shift)) - np.sign(ks) * u
    d -= np.rint(d)
    return np.abs(d), (m + 2) * 2.0**-53


def _dc_certified(cf, tau, gamma, ks, shift) -> np.ndarray:
    """Modes of ks whose DC inequality the float64 screen certifies.

    The screen reads ||shift - k p_N/q_N|| at the deepest materialized
    convergent N (_screen_norms, error eps).  _norm_interval's lower bound at
    depth N is at least that minus 2|k|/(q_{N-1} q_N): once for alpha's
    interval and once for the endpoint it reads.  A mode is certified when
    the value minus eps, that width and 2^-50 for the rounding here still
    reaches the threshold widened by 2^-40 relative (numpy's pow against
    Python's); its exact check at depth N, or at any deeper one, then
    certifies it too without extending the stream.  k = 0, a threshold
    whose pow leaves the float range and a stream shallower than 2 are
    never certified.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if cf.depth < 2:
        return np.zeros(len(ks), dtype=bool)
    (_, qa), (p, q) = cf.convergent(cf.depth - 1), cf.convergent(cf.depth)
    vals, eps = _screen_norms(p, q, ks, shift)
    absk = np.abs(ks).astype(np.float64)
    width = math.ldexp(1.0, 2 - qa.bit_length() - q.bit_length())  # >= 1/(q_{N-1} q_N)
    with np.errstate(over="ignore", invalid="ignore"):
        power = (absk + 1.0) ** tau
        thr = gamma / power * (1.0 + 2.0**-40)
        return (vals - (eps + 2.0 * absk * width + 2.0**-50) >= thr) & np.isfinite(power) & (ks != 0)


def _index_blocks(n):
    """0, 1, ..., n - 1 as int64 arrays of SCREEN_BLOCK entries (the last one shorter)."""
    return (np.arange(j0, min(j0 + SCREEN_BLOCK, n)) for j0 in range(0, n, SCREEN_BLOCK))


def _dc_scan(cf, tau, gamma, K, blocks, shift=Fraction(0)) -> DCVerdict:
    """First k (in order) with ||shift - k alpha|| < gamma/(|k|+1)^tau.

    ``blocks`` yields the modes in scan order, a block of integers at a
    time; K, their largest |k|, goes into the verdict.  Each block is
    screened in float64 first (_dc_certified).  Every mode the screen does
    not certify runs the exact check, in order: the integer interval of
    _norm_interval at the current depth, two digits deeper while it
    straddles the threshold, and DepthInsufficient once the stream ends.  A
    certified mode would pass that check at its first depth, so the verdict,
    the exception and the stream's materialized depth are those of the
    exact scan.
    """
    for block in blocks:
        certified = _dc_certified(cf, tau, gamma, block, shift)
        for i in np.flatnonzero(~certified):
            k = int(block[i])
            thr = gamma / (abs(k) + 1) ** tau
            tn, td = thr.as_integer_ratio()  # thr exactly, so every verdict is exact
            if k == 0:
                d = shift.denominator
                m = norm_numerator(shift.numerator, d)
                if m * td < tn * d:
                    return DCVerdict(False, 0, m / d, K)
                continue
            depth = max(2, cf.depth)
            while True:
                exhausted = False
                try:
                    cf.ensure(depth)
                except DepthInsufficient:
                    if cf.depth < 2:
                        raise
                    depth = cf.depth
                    exhausted = True
                lo_n, hi_n, den = _norm_interval(cf, k, shift, depth)
                if lo_n * td >= tn * den:
                    break  # inequality certified at this k
                if hi_n * td < tn * den:
                    return DCVerdict(False, k, hi_n / den, K)
                if exhausted:
                    raise DepthInsufficient(
                        f"||k alpha|| in [{lo_n / den:.3e}, {hi_n / den:.3e}] "
                        f"straddles DC threshold {thr:.3e} at k={k}, digits exhausted"
                    )
                depth += 2
    return DCVerdict(True, K=K)


def dc_membership(
    cf: ContinuedFraction, tau: float, gamma: float, K: int
) -> DCVerdict:
    """Check ||k alpha|| >= gamma/(|k|+1)^tau for 1 <= k <= K, exactly."""
    if K < 0:
        raise ValueError("K must be >= 0")
    return _dc_scan(cf, tau, gamma, K, (j + 1 for j in _index_blocks(K)))


def dc_alpha_membership(
    theta: RealLike, cf: ContinuedFraction, tau: float, gamma: float, K: int
) -> DCVerdict:
    """Check ||2 theta - k alpha|| >= gamma/(|k|+1)^tau for |k| <= K.

    Modes run 0, -1, 1, -2, 2, ..., generated a block at a time (_index_blocks).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    blocks = ((j + 1) // 2 * (1 - 2 * (j % 2)) for j in _index_blocks(2 * K + 1))
    return _dc_scan(cf, tau, gamma, K, blocks, shift=2 * Fraction(theta))


# -- digit schedules and forging ------------------------------------------


@dataclass(frozen=True)
class ConstantBeta:
    """a_n = floor(e^(beta * q_{n-1})) at every forged level."""

    beta: float


@dataclass(frozen=True)
class SingleBurst:
    """One digit floor(e^(beta * q_{n-1})) at the first forged level, then a constant tail."""

    beta: float
    tail: int = 1

    def __post_init__(self):
        if self.tail < 1:
            raise ValueError(f"SingleBurst tail digit must be >= 1, got {self.tail}")


DigitSchedule = Union[ConstantBeta, SingleBurst]


def _exp_int_enclosure(k: int, prec: int) -> tuple:
    """Raw mpf interval [lo, hi] around e^k, k >= 0, from one power of e.

    lo is mpmath's own lower endpoint, mpf_exp(k, prec, round_floor); above
    600 bits that is one binary power mpf_pow_int(e, k). mpmath's interval
    exp would run that power a second time, rounding up, for hi. Both of its
    endpoints are the same power carried at prec + 4*bitcount(k) + 4 bits
    (and below 600 bits the same series at prec + 14 bits), so each sits
    within one ulp at prec of e^k, and e^k <= lo * (1 + 2^(2-prec)). hi
    widens lo upward by the relative amount 2^(4-prec), rounded up, so
    [lo, hi] contains mpmath's two-endpoint interval with a factor 4 to
    spare.
    """
    from mpmath.libmp import from_int, mpf_add, mpf_exp, mpf_shift, round_ceiling, round_floor

    lo = mpf_exp(from_int(k), prec, round_floor)
    return lo, mpf_add(lo, mpf_shift(lo, 4 - prec), prec, round_ceiling)


def floor_exp(beta: float, q: int, cap_decimal: int = DIGIT_CAP_DECIMAL) -> Optional[int]:
    """floor(e^(beta*q)) by interval arithmetic with certified rounding.

    e^t, t = beta*q, is enclosed as e^k * e^r with k = floor(t) and
    r = t - k in [0, 1): e^k comes from a single power of e per precision
    (see _exp_int_enclosure; much cheaper than a series at a fractional
    argument), e^(1/2) is the interval square root of e, and any other
    nonzero r takes one interval exp of a small argument.
    Returns None when the result would exceed cap_decimal decimal digits.
    Precision doubles until the enclosing interval no longer straddles an
    integer (e^(beta*q) is transcendental for beta*q != 0, so this ends).
    The e^k enclosure is a few ulps wider than mpmath's interval exp, which
    can cost one more doubling but never changes a certified digit.  The
    interval steps are the mpmath.libmp primitives mpmath.iv calls, at an
    explicit precision, so no global precision is read or set.
    """
    from mpmath.libmp import from_int, mpf_floor, mpi_div, mpi_exp, mpi_mul, mpi_sqrt, to_int
    from mpmath.libmp import round_ceiling, round_floor

    def point(n, prec):  # the interval mpmath.iv makes of the integer n
        return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)

    t = Fraction(beta) * q
    if t <= 0:
        raise ValueError("schedule exponent beta*q must be positive")
    # decimal length of e^t is t/ln 10; compare without converting t to float
    if q > cap_decimal * math.log(10) / beta:
        return None
    k = math.floor(t)
    r = t - k
    prec = max(64, int(float(t) * 1.4427) + 64)  # bits of e^t plus guard
    while True:
        lo, hi = _exp_int_enclosure(k, prec)
        if r == Fraction(1, 2):
            lo, hi = mpi_mul((lo, hi), mpi_sqrt(mpi_exp(point(1, prec), prec), prec), prec)
        elif r:
            e_r = mpi_exp(mpi_div(point(r.numerator, prec), point(r.denominator, prec), prec), prec)
            lo, hi = mpi_mul((lo, hi), e_r, prec)
        flo = to_int(mpf_floor(lo, prec, round_floor))
        fhi = to_int(mpf_floor(hi, prec, round_ceiling))
        if flo == fhi:
            return flo
        prec *= 2


def forge(
    base: ContinuedFraction,
    n0: int,
    schedule: DigitSchedule,
    levels: int,
    cap_decimal: int = DIGIT_CAP_DECIMAL,
) -> ContinuedFraction:
    """Copy base digits through a_{n0}, then continue with scheduled digits.

    The forged stream shares p_n/q_n with the base exactly for n <= n0.
    ``levels`` digits are materialized eagerly, by the same provider through
    which ConstantBeta and SingleBurst streams keep extending on demand
    (SingleBurst with its constant tail).
    A scheduled digit longer than cap_decimal decimal digits is refused:
    the stream stops there with .truncated set.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if isinstance(schedule, ConstantBeta):

        def provider(n, conv, _s=schedule):
            return floor_exp(_s.beta, conv[n - 1][1], cap_decimal)

    else:

        def provider(n, conv, _s=schedule):
            if n == n0 + 1:
                return floor_exp(_s.beta, conv[n - 1][1], cap_decimal)
            return _s.tail

    cf = ContinuedFraction(
        base.digits(n0), provider=provider, origin=f"forged({schedule!r}, n0={n0})"
    )
    try:
        cf.ensure(n0 + levels)
    except DepthInsufficient:
        pass  # the digit cap ended the stream; ensure has set .truncated
    return cf
