"""Exact continued-fraction arithmetic for quasiperiodic frequencies.

Frequencies are represented by their digit stream a_1, a_2, ... together with
the big-integer convergents p_n/q_n, so that all Diophantine questions
(growth exponents, ||k alpha|| lower bounds, best approximations) can be
answered in exact integer arithmetic.  Digit schedules let one forge
frequencies whose denominators grow at a prescribed exponential rate.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import sys
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
# expand() takes a float (or str) input to be known to +-10^-EXPAND_PRECISION.
EXPAND_PRECISION = 15


def div_by_big(numer: float, q: int) -> float:
    """numer / q for positive big-int q, keeping the sign and underflowing to 0.0."""
    if q.bit_length() < 1000:
        return numer / q
    if numer == 0.0:
        return 0.0
    return math.copysign(math.exp(math.log(abs(numer)) - math.log(q)), numer)


def norm_numerator(n: int, d: int) -> int:
    """m with ||n/d|| = m/d for d > 0: min(n mod d, d - n mod d).

    m/d is already in lowest terms when n/d is, since gcd(m, d) = gcd(n, d).
    """
    r = n % d
    return min(r, d - r)


def circle_norm(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    return Fraction(norm_numerator(x.numerator, x.denominator), x.denominator)


# Decimal strings are converted in pieces of at most this many digits (640):
# no sys.set_int_max_str_digits() setting refuses str() or int() of a piece.
DECIMAL_PIECE = sys.int_info.str_digits_check_threshold


@functools.cache
def _pow10(j: int) -> int:
    """10^(DECIMAL_PIECE 2^j), the split points of the decimal conversions."""
    return 10 ** (DECIMAL_PIECE << j)


def int_to_decimal(n: int) -> str:
    """Decimal string of an int of any size, as str(n) would write it.

    Divide and conquer: n is split by divmod at 10^(DECIMAL_PIECE 2^j), the
    low half zero padded, down to pieces that str() converts; unlike
    str(n) this is not bound by sys.get_int_max_str_digits().
    """
    if n < 0:
        return "-" + int_to_decimal(-n)

    def digits(x: int, width: int) -> str:  # x < 10^width when width > 0, padded to it
        if x < _pow10(0):
            return str(x).zfill(width)
        # the largest m = DECIMAL_PIECE 2^j with m log2(10) < m 3.322 <= bitlength(x) - 1,
        # so 10^m <= x (or j = 0, and x >= 10^m anyway): the high part is nonzero
        j = max(((x.bit_length() - 1) * 1000 // (3322 * DECIMAL_PIECE)).bit_length() - 1, 0)
        m = DECIMAL_PIECE << j
        hi, lo = divmod(x, _pow10(j))
        return digits(hi, max(width - m, 0)) + digits(lo, m)

    return digits(n, 0)


def int_from_decimal(s: Union[str, int]) -> int:
    """Inverse of int_to_decimal, accepting what int() accepts for a digit string.

    decimal.Decimal validates s (signs, surrounding whitespace, "1_2");
    a fraction or an exponent ("1.0", "1e5", "nan") is refused as int()
    refuses it.  Its digits are then read by divide and conquer,
    int(high) 10^m + int(low), in pieces of at most DECIMAL_PIECE digits.
    """
    try:
        d = Decimal(s)
    except InvalidOperation:
        d = None
    if d is None or d.as_tuple().exponent != 0:  # int() rejects "1.0", "1e5", "nan" too
        raise ValueError(f"invalid integer literal {s!r:.40}")
    text = format(d, "f")
    negative = text.startswith("-")

    def value(t: str) -> int:
        if len(t) <= DECIMAL_PIECE:
            return int(t)
        j = ((len(t) - 1) // DECIMAL_PIECE).bit_length() - 1  # the largest split below len(t)
        m = DECIMAL_PIECE << j
        return value(t[:-m]) * _pow10(j) + value(t[-m:])

    n = value(text.lstrip("-"))
    return -n if negative else n


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


def expand(x: RealLike, max_depth: int = 64, *, partial: bool = False) -> ContinuedFraction:
    """Certified continued-fraction expansion of x in (0, 1).

    The input is taken to be known to +-10^-EXPAND_PRECISION (exactly, when
    given as a Fraction).  Every digit is certified by interval
    arithmetic; when the interval straddles a rational completion (the
    convergent of the digits so far and the boundary digit, within twice
    that uncertainty), RationalDetected is raised; when it is too wide to
    pin the next digit, PrecisionExhausted.  With ``partial=True`` these
    conditions end the expansion instead, returning the digits certified
    so far.
    """
    exact = isinstance(x, (Fraction, int))
    x0 = Fraction(x)
    radius = Fraction(0) if exact else Fraction(1, 10**EXPAND_PRECISION)
    lo, hi = x0 - radius, x0 + radius
    if not (0 < x0 < 1):
        raise ValueError(f"expand() wants x in (0,1), got {x0}")
    origin = f"expanded-from-real(precision={EXPAND_PRECISION})"
    digits: list[int] = []

    def stop(exc: PrecisionExhausted) -> ContinuedFraction:
        if partial and exc.digits:
            cf = ContinuedFraction(exc.digits, origin=origin)
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
            p, q = ContinuedFraction(cand).convergent(len(cand))
            if abs(x0 - Fraction(p, q)) <= Fraction(2, 10**EXPAND_PRECISION):
                return stop(
                    RationalDetected(
                        f"within 10^-{EXPAND_PRECISION} of {p}/{q}", digits=cand
                    )
                )
        return stop(
            PrecisionExhausted(
                f"cannot certify digit {len(digits)+1} at precision {EXPAND_PRECISION}",
                digits=digits,
            )
        )
    return ContinuedFraction(digits, origin=origin)


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
        per.append((n, div_by_big(math.log(cf.q(n + 1)), qn)))
        a = cf.digit(n + 1)
        per_alt.append((n, div_by_big(math.log(a), qn) if a > 1 else 0.0))
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


def _clears_floor(vals, err, ks, tau, gamma) -> np.ndarray:
    """Modes whose screened norm surely clears the floor gamma/(|k|+1)^tau.

    vals (modes ks on the last axis) lie within err of the exact norms t.
    A mode clears when vals - err - 2^-50 reaches the floor widened by
    2^-40 relative (numpy's pow against Python's), so a cleared mode has
    t >= f (1 + 2^-40) + 2^-50, f Python's gamma/(|k|+1)^tau.  Norms are at
    most 1/2, so f > 1/2 never clears, nor does k = 0.  A floor whose power
    leaves the float range is 0, here and in the scans' exact loops.
    """
    with np.errstate(over="ignore"):
        floor = gamma / (np.abs(ks) + 1.0) ** tau
    return (vals - (err + 2.0**-50) >= floor * (1.0 + 2.0**-40)) & (ks != 0)


def _check_floor(tau, gamma, K, name) -> None:
    """The one check of a Diophantine scan's arguments, before its first block.

    The reach K (named ``name``) must lie in [0, 2^52), the float64
    screen's range; tau must be >= 0 (a NaN fails that too) and gamma
    finite.  Anything else raises ValueError naming the argument.
    """
    if K < 0:
        raise ValueError(f"{name} must be >= 0, got {K}")
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if K >= 2**52:
        raise ValueError(f"{name} must be < 2^52 for a float64 screen, got {K}")


def _index_blocks(n):
    """0, 1, ..., n - 1 as int64 arrays of SCREEN_BLOCK entries (the last one shorter)."""
    return (np.arange(j0, min(j0 + SCREEN_BLOCK, n)) for j0 in range(0, n, SCREEN_BLOCK))


def _dc_scan(cf, tau, gamma, K, blocks, shift=Fraction(0)) -> DCVerdict:
    """First k (in order) with ||shift - k alpha|| < gamma/(|k|+1)^tau.

    ``blocks`` yields the modes in scan order, a block of integers at a
    time; K, their largest |k|, goes into the verdict.  Arguments
    _check_floor refuses raise ValueError first.
    Each block is screened at the deepest materialized convergent N
    (_screen_norms, error eps), which _norm_interval's lower bound at
    depth N undercuts by at most 2|k|/(q_{N-1} q_N) more: a mode that
    clears with both errors (_clears_floor) passes its exact check there,
    or deeper, without extending the stream.  Every other mode runs that
    check, in order: the integer interval at the current depth, two digits
    deeper while it straddles the threshold, DepthInsufficient once the
    stream ends.  So verdict, exception and depth are the exact scan's.
    """
    _check_floor(tau, gamma, K, "K")
    for block in blocks:
        block = np.asarray(block, dtype=np.int64)
        cleared = np.zeros(len(block), dtype=bool)
        if cf.depth >= 2:
            (_, qa), (p, q) = cf.convergent(cf.depth - 1), cf.convergent(cf.depth)
            vals, eps = _screen_norms(p, q, block, shift)
            width = math.ldexp(1.0, 2 - qa.bit_length() - q.bit_length())  # >= 1/(q_{N-1} q_N)
            cleared = _clears_floor(vals, eps + 2.0 * np.abs(block) * width, block, tau, gamma)
        for i in np.flatnonzero(~cleared):
            k = int(block[i])
            try:
                thr = gamma / (abs(k) + 1) ** tau
            except OverflowError:  # (|k|+1)^tau past the float range
                thr = 0.0
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
    """Check ||k alpha|| >= gamma/(|k|+1)^tau for 1 <= k <= K, exactly.

    A negative K, a negative or NaN tau, a NaN or infinite gamma and a K of
    2^52 or more raise ValueError before any mode is read (_check_floor).
    """
    return _dc_scan(cf, tau, gamma, K, (j + 1 for j in _index_blocks(K)))


def dc_alpha_membership(
    theta: RealLike, cf: ContinuedFraction, tau: float, gamma: float, K: int
) -> DCVerdict:
    """Check ||2 theta - k alpha|| >= gamma/(|k|+1)^tau for |k| <= K.

    Modes run 0, -1, 1, -2, 2, ..., generated a block at a time (_index_blocks).
    A negative K, a negative or NaN tau, a NaN or infinite gamma and a K of
    2^52 or more raise ValueError before any mode is read (_check_floor).
    """
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


# Products whose smaller factor has at least this many bits go through
# _fft_product; below it Python's own product is faster (the measured
# crossover with power-of-two lengths, numpy 2.4 on x86-64).
FFT_MIN_BITS = 32_000
# _fft_product's limbs (fixed by its byte packing), and its longest
# transform: Percival's bound stays below 1/2 up to it.
FFT_LIMB_BITS = 12
FFT_MAX_LENGTH = 1 << 20
# Guard bits of the ladder's working precision beyond prec + bitlength(k).
LADDER_GUARD = 8


def _fft_limbs(x: int, nlimbs: int) -> np.ndarray:
    """The nlimbs lowest 12-bit limbs of x >= 0, least significant first, as float64."""
    npairs = -(-nlimbs // 2)
    b = np.frombuffer(x.to_bytes(3 * npairs, "little"), dtype=np.uint8).reshape(-1, 3)
    b = b.astype(np.int32)
    limbs = np.empty((npairs, 2))
    limbs[:, 0] = b[:, 0] | (b[:, 1] & 0xF) << 8
    limbs[:, 1] = b[:, 1] >> 4 | b[:, 2] << 4
    return limbs.reshape(-1)


def _fft_length(m: int) -> int:
    """The shortest N = 2^a 3^b >= m with a >= 2 (a multiple of 4, for the packing)."""
    return min(3**b << max(2, (-(-m // 3**b) - 1).bit_length()) for b in range(m.bit_length()))


def _fft_product(a: int, b: int, b_spectra: Optional[dict] = None) -> Optional[int]:
    """a * b for ints a, b >= 0, exactly, by a real FFT convolution; or None.

    a and b are cut into la and lb 12-bit limbs and convolved by numpy's
    rfft/irfft at N = _fft_length(la + lb - 1) = 2^a 3^b, at most the
    power of two a radix-2 transform would take.  For a length-2^n
    transform in float64 (eps = 2^-53, twiddles within beta = eps) Percival
    (Math. Comp. 72, 2003) bounds every coefficient's error by
    |x|_2 |y|_2 ((1+eps)^3n (1+eps sqrt5)^(3n+1) (1+beta)^3n - 1).  His
    proof goes stage by stage.  A radix-2 stage is sqrt2 times a unitary
    map; each output a + w b takes one twiddled product and one addition,
    whose errors are relative to |w b| and |a + w b|, and over the stage
    both have 2-norm at most sqrt2 times the input's, the stage's own
    scale.  A radix-3 stage is sqrt3 times a unitary map; computed as
    (x0 + w1 x1) + w2 x2, each output takes two twiddled products and two
    additions, and over the stage the products, the partial sums
    x0 + w1 x1 (their cross terms sum the cube roots of unity to 0) and the
    outputs have 2-norm at most sqrt3 times the input's.  So a radix-3
    stage errs by at most two radix-2 stages' factors, and the bound holds
    for N = 2^a 3^b with n = a + 2b.  With limbs below 2^12,
    |x|_2 |y|_2 <= 4095^2 sqrt(la lb) and sqrt(la lb) <= (N + 1)/2.  At
    every N up to FFT_MAX_LENGTH = 2^20 the bound is below 0.28 (below
    0.26 at 2^20 itself; the largest, 0.27, at 2^4 3^10 with n = 24): 0.15
    at the 10^6-digit cap's 3.3M-bit products (N = 2^8 3^7) and 0.004 at
    the 142k-bit products of the n0 = 26 stream (N = 2^13 3).  Below 1/2,
    rounding each coefficient to the nearest integer is exact.  numpy's
    real transforms are not the algorithms of that proof, so as a tripwire
    a product whose coefficients sit 1/4 or more from an integer is
    refused.  None means a longer transform or a tripped product.

    The coefficients c_i are below 4095^2 2^19 < 2^44, so each fits a
    6-byte record: its low 32 bits ("lo", "<u4") then its next 16 ("hi",
    "<u2"), little-endian and unpadded.  sum_i c_i 2^(12 i) is summed as
    four interleaved classes c_{4m+j} 2^(48m) 2^(12j) (N is a multiple of
    4): class j is one row of records, read as one int.  A dict b_spectra
    keeps b's transform by length, for a b that recurs.
    """
    la = -(-a.bit_length() // FFT_LIMB_BITS)
    lb = -(-b.bit_length() // FFT_LIMB_BITS)
    n = _fft_length(la + lb - 1)
    if n > FFT_MAX_LENGTH:
        return None
    import numpy.fft

    fa = numpy.fft.rfft(_fft_limbs(a, la), n)
    if a == b:
        fb = fa
    elif b_spectra is not None and n in b_spectra:
        fb = b_spectra[n]
    else:
        fb = numpy.fft.rfft(_fft_limbs(b, lb), n)
        if b_spectra is not None:
            b_spectra[n] = fb
    fa *= fb  # fa is this call's own, fb may be b_spectra's
    c = numpy.fft.irfft(fa, n)
    rounded = np.rint(c)
    c -= rounded
    if np.max(np.abs(c, out=c)) >= 0.25:
        return None
    classes = rounded.astype(np.int64).reshape(-1, 4).T
    records = np.empty(classes.shape, dtype=[("lo", "<u4"), ("hi", "<u2")])
    records["lo"] = classes  # the low 32 bits, wrapped
    records["hi"] = classes >> 32
    return sum(int.from_bytes(records[j].tobytes(), "little") << (FFT_LIMB_BITS * j)
               for j in range(4))


def _fft_mul(a: int, b: int, b_spectra: Optional[dict] = None) -> int:
    """a * b for ints a, b >= 0: by _fft_product from FFT_MIN_BITS on, else Python's."""
    if min(a.bit_length(), b.bit_length()) >= FFT_MIN_BITS:
        product = _fft_product(a, b, b_spectra)
        if product is not None:
            return product
    return a * b


def _cut(m: int, s: int, w: int) -> tuple[int, int]:
    """(m, s) with m cut down to its w leading bits: m 2^s rounded toward 0."""
    drop = m.bit_length() - w
    return (m >> drop, s + drop) if drop > 0 else (m, s)


def _exp_ladder(k: int, d: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo 2^s <= e^(k/d) <= hi 2^s, for k, d >= 1 and w >= b + 16.

    b = bitlength(k), lo has w bits and hi = lo (1 + 2^(b+4-w)), rounded
    up.  e^(k/d) is x^k, a left-to-right square-and-multiply ladder over
    the bits of k on a lower bound x of e^(1/d) at w bits, cutting every
    product down to w bits (_cut).  x is e's floor for d = 1 (mpmath's
    mpf_e, at an explicit precision), the floor square root of e's floor
    for d = 2, and otherwise the series sum_n 1/(d^n n!) in units of 2^-v,
    v = w + bitlength(w) + 2, each term floored from the one before (so x
    is exactly 1 once d > 2^v).  Each value is a lower bound y e^(-L) of
    its target y with a log-error L >= 0:
      - each floor and each cut product drop less than 2^(1-w) of their
        value: L <= lam = -ln(1 - 2^(1-w)) each;
      - x carries at most 2 lam: one floor for d = 1; lam/2 from e's floor
        and one from the root for d = 2; for d >= 3 one cut, after a
        series of n <= 0.64 v + 1 terms (3^n n! > 2^v) that each fall
        short by less than 1.5 units, with the terms it leaves out below
        2 units: less than 2n <= 2^(v-w) units in all, a relative 2^-w;
      - a squaring doubles the L it inherits, a product with x adds x's;
      - over the b - 1 levels after k's top bit the ladder cuts at most
        twice a level, and a cut i levels before the end is doubled i
        times, so L <= 2 k lam + sum_{i<b-1} 2 2^i lam < 2^(b+2) lam.
    With w >= b + 16, L < 2^(b+3-w) (1 + 2^(2-w)) and e^L - 1 < 2^(b+4-w),
    so hi bounds the target with a factor 2 to spare in the widening.
    """
    from mpmath.libmp import mpf_e, round_floor

    if d <= 2:
        _, x_man, x_exp, _ = mpf_e(w, round_floor)
        if d == 2:
            sh = 2 * w - x_man.bit_length()
            sh += (x_exp - sh) % 2  # an even exponent left for the root
            x_man, x_exp = math.isqrt(x_man << sh), (x_exp - sh) // 2
    else:
        v = w + w.bit_length() + 2
        u = x_man = 1 << v
        n = 1
        while u:
            u //= d * n
            x_man += u
            n += 1
        x_man, x_exp = _cut(x_man, -v, w)
    lo, s = x_man, x_exp
    x_spectra: dict = {}
    for bit in bin(k)[3:]:
        lo, s = _cut(_fft_mul(lo, lo), 2 * s, w)
        if bit == "1":
            lo, s = _cut(_fft_mul(lo, x_man, x_spectra), s + x_exp, w)
    pad = w - lo.bit_length()  # lo at w bits, so the widening's rounding is 2^(1-w) at most
    lo, s = lo << pad, s - pad
    return lo, lo + (lo >> (w - k.bit_length() - 4)) + 1, s


def floor_exp(beta: float, q: int, cap_decimal: int = DIGIT_CAP_DECIMAL) -> Optional[int]:
    """floor(e^(beta*q)), certified by an enclosure of e^(beta*q).

    t = beta*q = k/d in lowest terms (d = 2^m for a float beta).  The
    enclosure [lo, hi] 2^s of e^t is _exp_ladder's, all in Python ints:
    (e^(1/d))^k by a square-and-multiply ladder, widened upward by the
    relative 2^(b+4-W) (b = bitlength(k); the derivation is in
    _exp_ladder).  Its working precision W = prec + b + LADDER_GUARD bits,
    where prec is the bit length of e^t plus 64, so every truncation sits
    far below the integer part; ladder products of FFT_MIN_BITS or more are
    exact FFT convolutions (_fft_product).  No global precision is read or
    set.  Returns None when the result would exceed cap_decimal decimal
    digits.  Precision doubles until the enclosure no longer straddles an
    integer (e^(beta*q) is transcendental for beta*q != 0, so this ends).
    A beta that is not finite and > 0, or a q < 1, raises ValueError.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    t = Fraction(beta) * q
    # decimal length of e^t is t/ln 10; compare without converting t to float
    if q > cap_decimal * math.log(10) / beta:
        return None
    k, d = t.numerator, t.denominator
    prec = max(64, int(float(t) * 1.4427) + 64)  # bits of e^t plus guard
    while True:
        lo, hi, s = _exp_ladder(k, d, prec + k.bit_length() + LADDER_GUARD)
        flo, fhi = lo >> -s, hi >> -s  # s < 0: lo has W bits, more than e^t has
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
    ``levels`` digits are materialized eagerly, by the one provider through
    which the stream keeps extending on demand: floor_exp at every level
    for ConstantBeta, at level n0 + 1 only for SingleBurst, whose later
    digits are its constant tail.
    A scheduled digit longer than cap_decimal decimal digits is refused:
    the stream stops there with .truncated set.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if levels < 0:
        raise ValueError("levels must be >= 0")

    def provider(n, conv):
        if n == n0 + 1 or isinstance(schedule, ConstantBeta):
            return floor_exp(schedule.beta, conv[n - 1][1], cap_decimal)
        return schedule.tail

    cf = ContinuedFraction(
        base.digits(n0), provider=provider, origin=f"forged({schedule!r}, n0={n0})"
    )
    try:
        cf.ensure(n0 + levels)
    except DepthInsufficient:
        pass  # the digit cap ended the stream; ensure has set .truncated
    return cf
