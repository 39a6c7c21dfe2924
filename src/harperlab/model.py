"""The extended Harper operator family.

Couplings and their region classification, the duality map, the off-diagonal
sampling functions c/c~ and their zeros, finite truncations with zero
boundary conditions, and windowed Green's functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import contfrac
from ._tridiag import log_minors
from .contfrac import ContinuedFraction
from .errors import (
    InvalidCoupling,
    Lambda2Zero,
    ResolventSingular,
    SingularSamplingPoint,
    WindowEmpty,
    WindowTooLarge,
)

__all__ = [
    "CouplingTriple",
    "RegionTag",
    "Classification",
    "ZeroKind",
    "ZeroStructure",
    "OperatorSample",
    "Truncation",
    "classify",
    "duality",
    "c_function",
    "c_tilde_function",
    "abs_c_function",
    "unit_phase",
    "c_zeros",
    "zero_structure",
    "zero_offsets",
    "build_truncation",
    "green_function",
    "orbit_phases",
    "wrap01",
]

FrequencyLike = Union[float, Fraction, ContinuedFraction]

BOUNDARY_TOL = 1e-12
RESOLVENT_GUARD = 1e-10  # |E - eigenvalue| below which a resolvent is singular
OFFSET_PRECISION = 60  # decimal digits of an exact zero offset (zero_offsets)
ZERO_GUARD = 1e-7  # a phase closer than this to a zero of c is singular (_guard)
MAX_EXCLUDED = 0.1  # share of lyapunov_numeric's grid orbits the zero guard may exclude


def wrap01(x: float) -> float:
    """Representative of x mod 1 in [0, 1)."""
    return x - math.floor(x)


@dataclass(frozen=True)
class CouplingTriple:
    """Hopping amplitudes (lambda1, lambda2, lambda3), all nonnegative."""

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        ls = (self.lambda1, self.lambda2, self.lambda3)
        if any(not math.isfinite(v) for v in ls):
            raise InvalidCoupling(f"non-finite coupling {ls}")
        if any(v < 0 for v in ls):
            raise InvalidCoupling(f"negative coupling in {ls}")
        if all(v == 0 for v in ls):
            raise InvalidCoupling("all three couplings vanish")

    @property
    def sum13(self) -> float:
        return self.lambda1 + self.lambda3

    def astuple(self) -> tuple:
        return (self.lambda1, self.lambda2, self.lambda3)

    @classmethod
    def parse(cls, text: str) -> "CouplingTriple":
        """Parse the CLI form 'l1,l2,l3'."""
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:
            values = []
        if len(values) != 3:
            raise InvalidCoupling(f"expected coupling 'l1,l2,l3' of three numbers, got {text!r}")
        return cls(*values)


class RegionTag(enum.Enum):
    REGION_I = "I"
    REGION_II = "II"
    REGION_III_ISO = "III_iso"
    REGION_III_ANISO = "III_aniso"
    LINE_I = "L_I"
    LINE_II = "L_II"
    LINE_III = "L_III"


@dataclass(frozen=True)
class Classification:
    tag: RegionTag
    boundary: bool  # within tolerance of a region-defining equality


def classify(coupling: CouplingTriple) -> Classification:
    """Locate the coupling in the region diagram.

    Interiors are assigned only when every defining inequality holds with
    margin > BOUNDARY_TOL; equalities within it land on the lines.  The corner
    lambda2 = sum = 1 goes to L_II (the line the duality map fixes).  The
    lambda2 = 0 edge, which the region display leaves unassigned, maps to
    the adjacent region with the boundary flag set.
    """
    l1, l2, l3 = coupling.astuple()
    s = coupling.sum13
    tol = BOUNDARY_TOL

    def near(a, b):
        return abs(a - b) <= tol

    edge = l2 <= tol  # the lambda2=0 edge sits outside every displayed region
    if near(l2, 1.0) and s <= 1.0 + tol:
        return Classification(RegionTag.LINE_II, True)
    if near(s, 1.0) and l2 < 1.0 - tol:
        return Classification(RegionTag.LINE_I, True)
    if near(s, l2) and l2 > 1.0 + tol:
        return Classification(RegionTag.LINE_III, True)
    if s < 1.0 - tol and l2 < 1.0 - tol:
        return Classification(RegionTag.REGION_I, edge)
    if l2 > 1.0 + tol and s < l2 - tol:
        return Classification(RegionTag.REGION_II, False)
    if s > 1.0 + tol and s > l2 + tol:
        tag = RegionTag.REGION_III_ISO if near(l1, l3) else RegionTag.REGION_III_ANISO
        return Classification(tag, edge)
    # leftover slivers within ~2 tol of a line junction: snap to nearest line
    dists = {
        RegionTag.LINE_II: abs(l2 - 1.0),
        RegionTag.LINE_I: abs(s - 1.0),
        RegionTag.LINE_III: abs(s - l2),
    }
    return Classification(min(dists, key=dists.get), True)


def duality(coupling: CouplingTriple) -> CouplingTriple:
    """The duality map (l1, l2, l3) -> (l3/l2, 1/l2, l1/l2); an involution."""
    l1, l2, l3 = coupling.astuple()
    if l2 == 0:
        raise Lambda2Zero("duality map undefined at lambda2 = 0")
    return CouplingTriple(l3 / l2, 1.0 / l2, l1 / l2)


# -- off-diagonal sampling functions ---------------------------------------


def _c_parts(coupling: CouplingTriple, alpha: float, theta):
    """(Re c, Im c) at phases theta: the one evaluation of c's trig polynomial."""
    l1, l2, l3 = coupling.astuple()
    phi = 2.0 * np.pi * (np.asarray(theta, dtype=np.float64) + 0.5 * alpha)
    return (l1 + l3) * np.cos(phi) + l2, (l3 - l1) * np.sin(phi)


def c_function(coupling: CouplingTriple, alpha: float, theta):
    """c(theta) = l1 e^{-2 pi i (theta + alpha/2)} + l2 + l3 e^{+...}."""
    re, im = _c_parts(coupling, alpha, theta)
    return re + 1j * im


def c_tilde_function(coupling: CouplingTriple, alpha: float, theta):
    """The conjugate sampling function: conj(c) for real theta."""
    return np.conj(c_function(coupling, alpha, theta))


def abs_c_function(coupling: CouplingTriple, alpha: float, theta):
    """|c|(theta) as np.abs(c) (hypot), as the sweep takes it of its c; no library code calls it."""
    return np.abs(c_function(coupling, alpha, theta))


def unit_phase(c: np.ndarray, inv_abs: np.ndarray, out=None) -> np.ndarray:
    """c/|c| from c and 1/|c|, with the phase 1 where c = 0.

    Bit for bit c * inv_abs wherever inv_abs is finite; where 1/|c|
    overflows (|c| subnormal), c is first scaled by 2^64 into the normal range.
    The result goes to out if given, which may be c itself.
    """
    if np.max(inv_abs, initial=0.0) < np.inf:
        return np.multiply(c, inv_abs, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        tiny = np.isinf(inv_abs)
        ct = c[tiny] * 2.0**64  # read before out overwrites c
        u = np.multiply(c, inv_abs, out=out)  # not finite where inv_abs is not, replaced below
        u[tiny] = np.where(ct == 0, 1.0, ct * (1.0 / np.abs(ct)))
    return u


class ZeroKind(enum.Enum):
    NONE = "none"
    SINGLE = "single"
    PAIR = "pair"
    DOUBLE = "double"  # l1 = l3 = l2/2: the two zeros collide at 1/2


@dataclass(frozen=True)
class ZeroStructure:
    """Zeros of c as alpha-independent offsets: each zero is offset - alpha/2."""

    kind: ZeroKind
    offsets: tuple

    def positions(self, alpha: float) -> list:
        return [wrap01(o - 0.5 * alpha) for o in self.offsets]


def zero_structure(coupling: CouplingTriple) -> ZeroStructure:
    """Classify the zero set of c on the circle.

    Writing z = e^{2 pi i (theta + alpha/2)}, zeros solve
    l3 z^2 + l2 z + l1 = 0 on |z| = 1: no roots there unless l1 + l3 = l2
    (z = -1) or l1 = l3 > l2/2 (a conjugate pair).  Scaling the coupling
    moves no zero, so each equality is read within BOUNDARY_TOL times
    max(l1, l2, l3).
    """
    l1, l2, l3 = coupling.astuple()
    tol = BOUNDARY_TOL * max(l1, l2, l3)
    if abs(l1 + l3 - l2) <= tol:
        if abs(l1 - l3) <= tol:
            return ZeroStructure(ZeroKind.DOUBLE, (0.5,))
        return ZeroStructure(ZeroKind.SINGLE, (0.5,))
    if abs(l1 - l3) <= tol and l1 > 0.5 * l2 + tol:
        a = math.acos(max(-1.0, min(1.0, -l2 / (2.0 * l1)))) / (2.0 * math.pi)
        return ZeroStructure(ZeroKind.PAIR, (a, wrap01(-a)))
    return ZeroStructure(ZeroKind.NONE, ())


def c_zeros(coupling: CouplingTriple) -> list:
    """Offsets o with c(o - alpha/2) = 0, for every alpha at once (zero_structure)."""
    return list(zero_structure(coupling).offsets)


def zero_offsets(coupling: CouplingTriple) -> list:
    """zero_structure's offsets as exact Fractions, for delta_exponent.

    A single or double zero sits at 1/2; a pair at +-arccos(-l2/(2 l1))/(2 pi)
    of zero_structure's float quotient, kept to OFFSET_PRECISION digits
    (mpmath, imported on first use).  No zeros: [].
    """
    zs = zero_structure(coupling)
    if zs.kind is ZeroKind.NONE:
        return []
    if zs.kind is not ZeroKind.PAIR:
        return [Fraction(1, 2)]
    import mpmath

    with mpmath.workdps(OFFSET_PRECISION + 10):
        a = mpmath.acos(-coupling.lambda2 / (2 * coupling.lambda1)) / (2 * mpmath.pi)
        off = Fraction(mpmath.nstr(a, OFFSET_PRECISION, strip_zeros=False))
    return [off, -off]


def _guard(coupling, alpha: float, x, *, on_singular) -> np.ndarray:
    """The one zero guard: which phases x lie within ZERO_GUARD of a zero of c.

    Every experiment that divides by c reads its phases through this, the
    one reader of ZERO_GUARD (looked up at call time); the zeros sit at
    zero_structure's positions for the float frequency alpha, and distances
    are taken on the circle.  Returns a mask of x's shape under
    on_singular="exclude".  Under "raise" the first masked phase in C order
    (of (sites, lanes): the earliest site, then the lowest lane) raises
    SingularSamplingPoint instead.
    """
    x = np.asarray(x, dtype=np.float64)
    dist = np.full(x.shape, np.inf)
    for z in zero_structure(coupling).positions(alpha):
        d = x - z + 0.5
        d -= np.floor(d)  # == d % 1.0 bit for bit (fmod is exact), and cheaper
        dist = np.minimum(dist, np.abs(d - 0.5))
    bad = dist < ZERO_GUARD
    if on_singular == "raise" and bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SingularSamplingPoint(float(x[i]), float(dist[i]))
    return bad


# -- samples, orbits, truncations -------------------------------------------


def orbit_phases(
    theta: Union[float, Fraction],
    alpha: Fraction,
    start: int,
    count: int,
) -> np.ndarray:
    """Phases (theta + n*alpha) mod 1 for n = start..start+count-1.

    The orbit runs in 64-bit fixed point: (theta + start*alpha) mod 1 and
    alpha mod 1 are each rounded once, from exact integers, to a multiple
    of 2^-64, and phase n is first + (n - start)*step in wrapping uint64
    arithmetic, so sums of phases are exact mod 1.  Before its one rounding
    to float, phase n lies within (n - start)*2^-65 + 2^-64 of the exact
    value.  Returns exactly count phases: a count numpy cannot hold raises
    MemoryError.
    """
    t = Fraction(theta)
    a = Fraction(alpha)
    den = t.denominator * a.denominator
    tn, an = t.numerator * a.denominator, a.numerator * t.denominator

    def fixed(num):  # num/den mod 1 to the nearest multiple of 2^-64, as an int below 2^64
        return ((num % den << 65) + den) // (2 * den) % 2**64

    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    try:  # numpy refuses an array past the bytes an index reaches, and sizes an
        # arange in floats, so one of 2^63 - 512 sites or more comes back empty
        fx = np.arange(count, dtype=np.uint64)
        if len(fx) != count:
            raise ValueError("array is too big")
    except ValueError:
        raise MemoryError(f"numpy cannot hold an array of {count} phases") from None
    fx *= fixed(an)  # uint64 arrays wrap mod 2^64 (a numpy scalar would warn)
    fx += fixed(tn + start * an)
    out = fx.view(np.float64)
    out[...] = fx  # in place: a 1-D assignment casts each element before it is overwritten
    out *= 2.0**-64
    return out


def _alpha_proxy(alpha: FrequencyLike) -> Fraction:
    """The one rational stand-in p/q for a frequency, read by every layer.

    A ContinuedFraction gives its first convergent with q >= 2^60
    (contfrac.PROXY_MIN_Q, the one float(alpha) rounds), or its deepest one
    when the stream ends first; any other frequency is Fraction(alpha).  An
    orbit of n sites then drifts from alpha's by at most n/q^2.
    """
    if isinstance(alpha, ContinuedFraction):
        return alpha.fraction(min_q=contfrac.PROXY_MIN_Q)
    return Fraction(alpha)


@dataclass(frozen=True)
class OperatorSample:
    """One operator of the family: coupling, frequency handle, phase."""

    coupling: CouplingTriple
    alpha: FrequencyLike
    theta: Union[float, Fraction] = 0.0

    def __post_init__(self):
        if not isinstance(self.coupling, CouplingTriple):
            raise TypeError(
                f"OperatorSample.coupling must be a CouplingTriple, got {self.coupling!r}"
            )

    def alpha_fraction(self) -> Fraction:
        """The rational proxy p/q of alpha (_alpha_proxy) that orbits and c read.

        For a digit stream: its first convergent with q >= 2^60, or its
        deepest.  A lazily forged stream whose convergents stop below 2^60
        is forged further when this is read, or sets .truncated at its digit
        cap.
        """
        return _alpha_proxy(self.alpha)

    @property
    def alpha_float(self) -> float:
        return float(self.alpha_fraction())

    def phases(self, start: int, count: int) -> np.ndarray:
        return orbit_phases(self.theta, self.alpha_fraction(), start, count)


@dataclass(frozen=True)
class Truncation:
    """Restriction to [x1, x2] with zero boundary conditions.

    phases[i] = theta + (x1+i) alpha mod 1 (the orbit), diag[i] = 2 cos 2 pi
    phases[i]; offdiag[i] couples sites x1+i and x1+i+1 and equals
    c(phases[i]); the sub-diagonal is its conjugate, so H is Hermitian.
    """

    sample: OperatorSample
    x1: int
    x2: int
    diag: np.ndarray
    offdiag: np.ndarray
    phases: np.ndarray

    @property
    def size(self) -> int:
        return self.x2 - self.x1 + 1

    def gauge_symmetric(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag, |offdiag|): the unitarily equivalent real symmetric matrix."""
        return self.diag, np.abs(self.offdiag)

    def dense(self) -> np.ndarray:
        """Dense Hermitian matrix (for oracles and small windows)."""
        m = self.size
        h = np.zeros((m, m), dtype=np.complex128)
        np.fill_diagonal(h, self.diag)
        for i in range(m - 1):
            h[i, i + 1] = self.offdiag[i]
            h[i + 1, i] = np.conj(self.offdiag[i])
        return h


def build_truncation(sample: OperatorSample, x1: int, x2: int) -> Truncation:
    if x1 > x2:
        raise WindowEmpty(f"window [{x1}, {x2}] is empty")
    m = x2 - x1 + 1
    try:
        phases = sample.phases(x1, m)
        diag = 2.0 * np.cos(2.0 * np.pi * phases)
        offdiag = np.asarray(
            c_function(sample.coupling, sample.alpha_float, phases[:-1]), dtype=np.complex128
        ).reshape(-1)
    except MemoryError:
        raise WindowTooLarge(
            f"the phases and entries of the size-{m} window [{x1}, {x2}] need at least "
            f"32 m = {32 * m} bytes ({32 * m / 2**30:.3g} GiB)"
        ) from None
    return Truncation(sample, x1, x2, diag, offdiag, phases)


def green_function(trunc: Truncation, energy: float, x: int, y: int) -> complex:
    """Resolvent entry (H[x1,x2] - E)^(-1)(x, y) by Cramer's rule.

    For i <= j (window rows) the entry of the gauge-equivalent real symmetric
    matrix is (-1)^(i+j) b_i..b_{j-1} det[x1, i-1] det[j+1, x2] / det[x1, x2],
    read from the nested minors swept in from both ends of the window (in
    log form, so entries far below eps never underflow in between); the
    result is then re-phased by the unit phases of c_i .. c_{j-1}
    (unit_phase).  No dense inversion.  Raises ResolventSingular when E is
    within RESOLVENT_GUARD of an eigenvalue (the eigenvalue count changes
    across E -+ RESOLVENT_GUARD).
    """
    if not (trunc.x1 <= x <= trunc.x2 and trunc.x1 <= y <= trunc.x2):
        raise IndexError("sites outside the truncation window")
    diag, absoff = trunc.gauge_symmetric()
    off2 = absoff * absoff
    shifts = [energy - RESOLVENT_GUARD, energy, energy + RESOLVENT_GUARD]
    fwd, fneg = log_minors(diag, off2, shifts)
    if fneg[-1, 0] != fneg[-1, 2]:
        raise ResolventSingular(
            f"E={energy} within {RESOLVENT_GUARD} of an eigenvalue of the window"
        )
    i, j = x - trunc.x1, y - trunc.x1
    swapped = i > j
    if swapped:
        i, j = j, i
    bwd, bneg = log_minors(diag[j + 1 :], off2[j + 1 :], [energy], reverse=True)
    left = (fwd[i - 1, 1], fneg[i - 1, 1]) if i > 0 else (0.0, 0)
    right = (bwd[0, 0], bneg[0, 0]) if len(bwd) else (0.0, 0)
    with np.errstate(divide="ignore", over="ignore"):
        logb = float(np.sum(np.log(absoff[i:j])))
        turn = np.prod(unit_phase(trunc.offdiag[i:j], 1.0 / absoff[i:j]))
    logmag = logb + left[0] + right[0] - fwd[-1, 1]
    flips = (i + j) + left[1] + right[1] + fneg[-1, 1]
    g = (-1.0 if flips % 2 else 1.0) * math.exp(logmag) * turn
    if swapped:
        g = np.conj(g)
    return complex(g)


def _edge_green_logs(trunc: Truncation, energy: float, y: int, x1s, x2s):
    """Edge Green's functions of many windows [x1, x2] about one site y.

    Every window must lie in the truncation with x1 < y < x2.  Returns
    (log|G(y, x1)|, log|G(y, x2)|, singular), one entry per window, where
    singular marks windows with an eigenvalue within RESOLVENT_GUARD of E.

    Expanding det[x1, x2] along row y gives det[x1, y-1] det[y+1, x2] S with
    the Schur complement S = (a_y - E) - b_{y-1}^2 det[x1, y-2] / det[x1, y-1]
    - b_y^2 det[y+2, x2] / det[y+1, x2], so by Cramer's rule
    |G(y, x1)| = b_{x1}..b_{y-1} / |S det[x1, y-1]| and the mirror image for
    x2.  The four families of minors are nested about y, so four sweeps that
    start next to y give them for every window at once; the eigenvalue count
    of a window is, by inertia, the negative pivots of its two sides plus
    one when S < 0.
    """
    diag, absoff = trunc.gauge_symmetric()
    off2 = absoff * absoff
    n, c = trunc.size, y - trunc.x1
    left = np.asarray(x1s) - trunc.x1  # row of x1
    right = np.asarray(x2s) - y - 1  # row of x2, counted from row y+1
    shifts = np.array([energy - RESOLVENT_GUARD, energy, energy + RESOLVENT_GUARD])

    def minors(a, b, reverse):
        """Nested minors of rows [a, b), grown from the end next to y."""
        return log_minors(diag[a:b], off2[a : max(b - 1, a)], shifts, reverse)

    empty = np.zeros((1, 3), dtype=np.int64)  # the empty minor: det 1
    l1, ln1 = minors(0, c, True)  # det[i, y-1]
    l2, ln2 = (np.concatenate([m, empty]) for m in minors(0, c - 1, True))  # det[i, y-2]
    r1, rn1 = minors(c + 1, n, False)  # det[y+1, j]
    r2, rn2 = (np.concatenate([empty, m]) for m in minors(c + 2, n, False))  # det[y+2, j]
    l1, ln1, l2, ln2 = l1[left], ln1[left], l2[left], ln2[left]
    r1, rn1, r2, rn2 = r1[right], rn1[right], r2[right], rn2[right]
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_l = np.where((ln1 + ln2) % 2, -1.0, 1.0) * np.exp(l2 - l1)
        ratio_r = np.where((rn1 + rn2) % 2, -1.0, 1.0) * np.exp(r2 - r1)
        schur = (diag[c] - shifts) - off2[c - 1] * ratio_l - off2[c] * ratio_r
    count = ln1 + rn1 + (schur < 0)
    singular = (count[:, 0] != count[:, 2]) | (schur[:, 1] == 0.0)
    with np.errstate(divide="ignore"):
        logb = np.log(absoff)
        logs = np.log(np.abs(schur[:, 1]))
    left_b = np.cumsum(logb[:c][::-1])[::-1]  # sum of log b_j over x1 <= j < y
    right_b = np.cumsum(logb[c:])  # sum of log b_j over y <= j < x2
    lg1 = left_b[left] - logs - l1[:, 1]
    lg2 = right_b[right] - logs - r1[:, 1]
    return lg1, lg2, singular
