"""Transfer-matrix cocycles over the circle.

Raw and normalized transfer matrices, long matrix-product sweeps with
renormalization, the closed-form and Birkhoff Lyapunov exponents, fibered
rotation numbers, topological degree, conjugation residuals, the
small-divisor cohomological solver, and the commutant divisor scan.

One builder (_sweep_cells) yields every sweep's entries: real companion
matrices R_k and the unit phases (or moduli) of c.  A diagonal unitary
conjugacy takes each raw matrix to R_k times a unit phase, and each
normalized matrix is a positive multiple of the same R_k, so one real
product serves both (_product_sweep).  Rotation numbers scan R_k itself, as
a positive factor moves no angle (_scan_vectors).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .contfrac import (
    ContinuedFraction,
    _check_floor,
    _clears_floor,
    _index_blocks,
    _screen_norms,
    norm_numerator,
)
from .errors import (
    BranchAmbiguity,
    DivisorFloorViolated,
    GridTooCoarse,
    FloatRangeExceeded,
    ResonantDivisor,
    TooManyExclusions,
)
from .model import (
    MAX_EXCLUDED,
    CouplingTriple,
    OperatorSample,
    _alpha_proxy,
    _guard,
    c_function,
    orbit_phases,
    unit_phase,
    wrap01,
    zero_structure,
)

__all__ = [
    "Cocycle",
    "LyapunovEstimate",
    "RotationEstimate",
    "NormReport",
    "CommutantReport",
    "two_norm",
    "constant_rotation",
    "rotation_matrix",
    "transfer",
    "n_step",
    "lyapunov_formula",
    "lyapunov_numeric",
    "rotation_number",
    "rotation_number_map",
    "degree",
    "conjugation_residual",
    "solve_cohomological",
    "commutant_rigidity_check",
    "fourier_to_json",
    "fourier_from_json",
]

# cells (sites x lanes) a sweep chunk holds at once
SWEEP_CELLS = 2**15
SCAN_BLOCK = 16  # sites per block of the product reduction and the rotation scan
TABLE_BLOCK = 64  # sites between re-anchorings of the sweep's rotation table
BRANCH_TOL = 1e-9  # a lift increment this close to +-1/2 is ambiguous
RESONANCE_TOL = 1e-14  # ||k alpha|| below this is a resonant divisor


def two_norm(m: np.ndarray) -> float:
    """Operator 2-norm (largest singular value) of a 2x2 matrix."""
    return float(np.linalg.norm(m, 2))


def rotation_matrix(x: float) -> np.ndarray:
    """R_x: rotation by angle 2 pi x."""
    c, s = math.cos(2 * math.pi * x), math.sin(2 * math.pi * x)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Cocycle:
    """A circle cocycle: rotation by alpha paired with a matrix map."""

    alpha: float
    matrix: Callable[[float], np.ndarray]


def constant_rotation(alpha: float, rho: float) -> Cocycle:
    m = rotation_matrix(rho)
    return Cocycle(alpha, lambda theta, _m=m: _m)


def transfer(
    sample: OperatorSample,
    energy: float,
    theta: float,
    kind: str = "raw",
) -> np.ndarray:
    """One transfer matrix at phase theta: a one-site chunk of the product sweep.

    kind="raw" gives the complex matrix (1/c) [[E-2cos, -c~(.-a)], [c, 0]];
    kind="normalized" its real unit-determinant cousin built from |c|.  A
    phase (or, for "normalized", its predecessor) within model.ZERO_GUARD
    of a zero of c raises SingularSamplingPoint, and an entry past the
    float64 range FloatRangeExceeded.
    """
    thetas = np.array([wrap01(float(theta))])
    a, b, s, s0, _ = next(_sweep_cells(sample, energy, thetas, 1, kind, "raise"))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises
        m = _transfer_matrices(a, b, s, s0, kind)[:, :, 0, 0]
    if not np.isfinite(m).all():
        raise _overflow(sample, energy)
    return m


def _mul(a, b):
    """a @ b for stacks of 2x2 matrices laid out as (2, 2, ...) arrays."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _normalize(m):
    """Scale each real (2, 2, ...) matrix to unit Frobenius norm; returns its log."""
    f2 = np.sum(m**2, axis=(0, 1))
    m /= np.sqrt(f2)
    return 0.5 * np.log(f2)


def _reduce_sites(m):
    """Product A_{K-1}...A_0 of a (2, 2, K, g) stack by pairwise levels.

    Returns the (2, 2, g) product, the stack and each level scaled to unit
    norm, and the accumulated log-scale.
    """
    logs = np.sum(_normalize(m), axis=0)
    while m.shape[2] > 1:
        half = m.shape[2] // 2
        p = _mul(m[:, :, 1 : 2 * half : 2], m[:, :, 0 : 2 * half : 2])
        if m.shape[2] % 2:
            p[:, :, -1] = _mul(m[:, :, -1], p[:, :, -1])
        logs += np.sum(_normalize(p), axis=0)
        m = p
    return m[:, :, 0], logs


def _sweep_cells(sample, energy, thetas, n, kind, on_singular):
    """The transfer entries of the sweep th, ..., th+(n-1)a, chunk by chunk.

    Yields (a, b, s, s0, alive) per chunk of K sites x g lanes with
    K g <= SWEEP_CELLS: a_k = d_k/|c_k| and b_k = -|c_{k-1}|/|c_k|, for
    d_k = E - 2cos 2pi x_k, of R_k = [[a_k, b_k], [1, 0]]; s = c/|c| (raw;
    1 where c = 0) or |c| (normalized), and s0 its row at the site before;
    alive the lanes alive after the chunk.  |c| is np.abs(c) (hypot) for
    both kinds, so a and b do not depend on the kind, bit for bit.  A lane
    whose orbit (or, for "normalized", predecessor phase) enters the zero
    guard dies, and its entries from then on mean nothing and may be
    non-finite; with on_singular="raise" the earliest such site (then the
    lowest lane) raises SingularSamplingPoint instead.  The yielded arrays
    are buffers the next chunk overwrites.  A non-finite energy raises
    ValueError.

    A rotation table stands in for per-cell trigonometry.  With ka the
    orbit_phases of the sweep and B = TABLE_BLOCK (or K, if shorter), site
    k = mB + j reads e^{2 pi i x_k} = u_m T_x[j] and c's e^{i phi_k} =
    u_m T_phi[j], phi = 2pi(x + a/2), with the block anchor u_m =
    e^{2 pi i ka[mB]}.  T holds the direct expressions (np.cos and np.sin,
    as the diagonal and _c_parts read them) at the first B sites.  The
    orbit is summed in fixed point, so ka[mB] + ka[j] is ka[k] up to float
    rounding: the table is re-anchored every B sites on the very phases the
    direct evaluation reads, its error does not grow along the orbit, and
    d_k and c_k stay within 32 eps max(|E| + 2, l1 + l2 + l3) of the direct
    expressions at x_k.  The first anchor is exactly 1 + 0j, so a sweep of
    at most B sites (every one-site transfer) reads the table's own bits:
    the direct evaluation bit for bit.  The zero guard reads x_k itself.
    """
    if kind not in ("raw", "normalized"):
        raise ValueError(f"unknown cocycle kind {kind!r}")
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got E={energy!r}")
    if n < 1:
        return
    g = len(thetas)
    alpha_frac = sample.alpha_fraction()
    alpha_f = float(alpha_frac)
    has_zeros = bool(zero_structure(sample.coupling).offsets)
    ka = orbit_phases(0.0, alpha_frac, 0, n)
    xm = thetas - alpha_f
    xm -= np.floor(xm)
    prev = c_function(sample.coupling, alpha_f, xm)
    alive = np.ones(g, dtype=bool)
    if has_zeros and kind == "normalized":
        bad = _guard(sample.coupling, alpha_f, xm[None, :], on_singular=on_singular)
        alive = ~bad[0]
    prev_abs = np.abs(prev)
    with np.errstate(divide="ignore", over="ignore"):
        s0 = unit_phase(prev, 1.0 / prev_abs) if kind == "raw" else prev_abs
    chunk = min(n, max(1, SWEEP_CELLS // g))
    block = min(chunk, TABLE_BLOCK)
    # one trig pass over the anchors ka[mB] past the first, then x and x + a/2 at the first B sites
    anchors = -(-n // block)
    x0 = ka[:block, None] + thetas
    x0 -= np.floor(x0)
    turns = np.concatenate((ka[block::block], x0.ravel(), x0.ravel() + 0.5 * alpha_f))
    turns *= 2.0 * np.pi
    cis = np.empty(len(turns) + 1, dtype=np.complex128)  # cos + i sin, each np.cos or np.sin itself
    cis[0] = 1.0  # the anchor of the first block, ka[0] = 0
    np.cos(turns, out=cis.real[1:])
    np.sin(turns, out=cis.imag[1:])
    coarse, table = cis[:anchors, None, None], cis[anchors:].reshape(2, block, g)
    # a chunk's sites sit at an offset below B in whole table blocks
    rows = min(anchors, -(-chunk // block) + 1) * block
    l1, l2, l3 = sample.coupling.astuple()
    abuf, bbuf, mbuf = np.empty((rows, g)), np.empty((rows, g)), np.empty((rows, g))
    cbuf = np.empty((rows, g), dtype=np.complex128)
    xbuf = np.empty((chunk, g)) if has_zeros else None
    for k0 in range(0, n, chunk):
        k = min(chunk, n - k0)
        first, end = k0 // block, -(-(k0 + k) // block)
        off = k0 - first * block
        a, b, m = abuf[off : off + k], bbuf[off : off + k], mbuf[off : off + k]
        if has_zeros:
            x = xbuf[:k]
            np.add(thetas, ka[k0 : k0 + k, None], out=x)
            x -= np.floor(x, out=a)  # a is scratch until d is written
            bad = _guard(sample.coupling, alpha_f, x, on_singular=on_singular)
            alive = alive & ~bad.any(axis=0)
        u = coarse[first:end]  # the anchors of the chunk's table blocks
        span = slice(0, (end - first) * block)  # the rows of those blocks; the chunk's from off on
        cos_x = np.multiply(u.real, table[0].real, out=abuf[span].reshape(-1, block, g))
        cos_x -= np.multiply(u.imag, table[0].imag, out=bbuf[span].reshape(-1, block, g))
        np.subtract(energy, np.multiply(a, 2.0, out=b), out=a)  # d = E - 2 Re(u T_x)
        np.multiply(u, table[1], out=cbuf[span].reshape(-1, block, g))  # e^{i phi}, made c below
        c = cbuf[off : off + k]
        re, im = c.real, c.imag
        re *= l1 + l3
        re += l2
        im *= l3 - l1
        im += 0.0  # c_function's re + 1j * im reads -0 as +0
        np.abs(c, out=m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = np.divide(1.0, m, out=b)
            a *= inv
            s = unit_phase(c, inv, out=c) if kind == "raw" else m
            b[1:] *= m[:-1]  # b = -|c_prev| / |c|, in 1/|c|'s buffer
            b[0] *= prev_abs
            np.negative(b, out=b)
        prev_abs = m[-1].copy()
        yield a, b, s, s0, alive
        s0 = s[-1].copy()


def _companion(a, b):
    """Companion matrices [[a, b], [1, 0]] as a (2, 2, *a.shape) array."""
    m = np.empty((2, 2, *a.shape), dtype=np.result_type(a, b))
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = a, b, 1.0, 0.0
    return m


def _transfer_matrices(a, b, s, s0, kind):
    """Explicit transfer matrices, (2, 2, K, g), from one _sweep_cells chunk.

    Raw: [[a_k w_k, b_k w_k w_{k-1}], [1, 0]] with w = c~/|c|; normalized:
    sqrt(|c_k|/|c_{k-1}|) R_k.
    """
    s_prev = np.concatenate([s0[None], s[:-1]])
    if kind == "raw":
        w = np.conj(s)
        return _companion(a * w, b * w * np.conj(s_prev))
    m = _companion(a, b)
    m *= np.sqrt(s / s_prev)
    return m


def _companion_blocks(a, b):
    """Products of R_k = [[a_k, b_k], [1, 0]] over blocks of SCAN_BLOCK sites.

    a and b are (K, g).  A ragged tail past the whole blocks is reduced as a
    short block of its own, and a stack shorter than SCAN_BLOCK is one
    block.  Returns the (2, 2, blocks, g) block products, unnormalized; on
    an excluded lane they mean nothing and may be non-finite.  P_j =
    R_j P_{j-1} takes a new top row a_j top + b_j bottom, and its old top
    row moves down, so a step is four products and two sums per block.
    """
    k, g = a.shape
    size = min(k, SCAN_BLOCK)
    nb = k // size
    whole = nb * size
    ab, bb = a[:whole].reshape(nb, size, g), b[:whole].reshape(nb, size, g)
    x1, y1 = np.ones((nb, g)), np.zeros((nb, g))  # top row of P_j
    x0, y0 = np.zeros((nb, g)), np.ones((nb, g))  # its bottom row
    for j in range(size):
        aj, bj = ab[:, j], bb[:, j]
        x0, y0, x1, y1 = x1, y1, aj * x1 + bj * x0, aj * y1 + bj * y0
    blocks = np.array([[x1, y1], [x0, y0]])
    if whole < k:
        blocks = np.concatenate([blocks, _companion_blocks(a[whole:], b[whole:])], axis=2)
    return blocks


def _overflow(sample, energy):
    return FloatRangeExceeded(f"the product at E={energy!r} for {sample.coupling} overflows")


def _product_sweep(
    sample: OperatorSample,
    energy: float,
    thetas: np.ndarray,
    n: int,
    kind: str,
    on_singular: str = "exclude",
):
    """Products A(th+(n-1)a)...A(th) over a batch of phases, at unit norm.

    Both kinds reduce the same real matrices, bit for bit, as both read |c|
    as np.abs(c): with w = arg c (0 where c = 0) and
    d_k = E - 2cos 2pi(th+ka), R_k = [[d_k/|c_k|, -|c_{k-1}|/|c_k|], [1, 0]].
    The raw matrix is A_k = e^{-i w_k} D_{k+1} R_k D_k^-1 for
    D_k = diag(1, e^{i w_{k-1}}), so
    A_{n-1}...A_0 = e^{-i sum w_k} D_n R_{n-1}...R_0 D_0^-1, and comes back
    from the two boundary phases and one running unit phase per lane.
    The normalized matrix is sqrt(|c_k|/|c_{k-1}|) R_k, so its product is
    the real one scaled by sqrt(|c_{n-1}|/|c_{-1}|).  Returns (matrices,
    lognorms, alive): exact product = matrix * e^lognorm per live lane; an
    excluded lane's matrix and lognorm mean nothing and may be non-finite.
    """
    g = len(thetas)
    mats = np.repeat(np.eye(2)[:, :, None], g, axis=2)
    lognorm = np.zeros(g)
    alive = np.ones(g, dtype=bool)
    turn = np.ones(g, dtype=np.complex128)  # prod of e^{i w_k} over the sites
    first = last = np.ones(g)  # unit phase (or |c|) before the orbit and at its last site
    cells = _sweep_cells(sample, energy, thetas, n, kind, on_singular)
    for i, (a, b, s, s0, alive) in enumerate(cells):
        if i == 0:
            first = s0
        last = s[-1].copy()
        if kind == "raw":
            turn *= np.prod(s, axis=0)
        with np.errstate(all="ignore"):  # an overflow is caught below
            p, logs = _reduce_sites(_companion_blocks(a, b))
            mats = _mul(p, mats)
            lognorm += logs + _normalize(mats)
    if not np.isfinite(lognorm[alive]).all():
        raise _overflow(sample, energy)
    if kind != "raw":
        with np.errstate(divide="ignore", invalid="ignore"):  # on excluded lanes
            lognorm += 0.5 * np.log(last / first)
        return np.moveaxis(mats, 2, 0).copy(), lognorm, alive
    phase = np.conj(turn) / np.abs(turn)
    left = np.stack([np.ones(g), last])
    right = np.stack([np.ones(g), np.conj(first)])
    out = phase * left[:, None] * mats * right[None, :]
    return np.moveaxis(out, 2, 0).copy(), lognorm, alive


def n_step(
    sample: OperatorSample,
    energy: float,
    theta: float,
    n: int,
    kind: str = "raw",
) -> tuple[np.ndarray, float]:
    """n-step product and its absorbed log-scale: exact = matrix * e^lognorm.

    The product is reduced in real arithmetic (_product_sweep); for
    kind="raw" the complex matrix is rebuilt exactly from the real product,
    the phases of c before the orbit and at its last site, and the running
    unit phase prod c_k/|c_k|.  The earliest orbit phase (or, for
    "normalized", the predecessor phase) within model.ZERO_GUARD of a zero
    of c raises SingularSamplingPoint; past float64 it raises
    FloatRangeExceeded.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    thetas = np.array([wrap01(float(theta))])
    mats, lognorm, _ = _product_sweep(sample, energy, thetas, n, kind, on_singular="raise")
    return mats[0], float(lognorm[0])


def lyapunov_formula(coupling: CouplingTriple) -> float:
    """Closed-form Lyapunov exponent on the spectrum.

    Positive only in the interior of region I; identically zero elsewhere
    (the formula itself vanishes on the boundary lines).
    """
    l1, l2, l3 = coupling.astuple()
    m = max(l1 + l3, l2)
    if m >= 1.0:
        return 0.0
    cross = 4.0 * l1 * l3
    num = 1.0 + math.sqrt(max(1.0 - cross, 0.0))
    den = m + math.sqrt(max(m * m - cross, 0.0))
    return math.log(num / den)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Birkhoff estimate of the Lyapunov exponent (nats per site)."""

    value: float
    n_steps: int
    theta_grid: int
    stderr: float
    excluded_fraction: float
    kind: str


def lyapunov_numeric(
    sample: OperatorSample,
    energy: float,
    n_steps: int = 100_000,
    theta_grid: int = 64,
    kind: str = "raw",
) -> LyapunovEstimate:
    """Phase-averaged (1/n) log ||A_n|| over an equispaced theta grid.

    Grid points whose orbit (or, for "normalized", predecessor phase) comes
    within model.ZERO_GUARD of a zero of c are excluded, counted in
    excluded_fraction, and their products are not kept.  A share above
    model.MAX_EXCLUDED, or every point, aborts with TooManyExclusions, and
    a product past the float64 range with FloatRangeExceeded.
    """
    if n_steps < 1000:
        raise ValueError("n_steps must be >= 1000")
    if theta_grid < 1:
        raise ValueError("theta_grid must be >= 1")
    thetas = (np.arange(theta_grid) + 0.5) / theta_grid
    mats, lognorm, alive = _product_sweep(sample, energy, thetas, n_steps, kind)
    excluded = 1.0 - float(np.count_nonzero(alive)) / theta_grid
    if excluded > MAX_EXCLUDED or not alive.any():
        raise TooManyExclusions(
            f"{excluded:.1%} of grid orbits entered the zero guard"
        )
    # a unit-Frobenius product of invertible matrices has 2-norm >= 1/sqrt(2)
    vals = (lognorm[alive] + np.log(np.linalg.norm(mats[alive], 2, axis=(1, 2)))) / n_steps
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return LyapunovEstimate(
        value=value,
        n_steps=n_steps,
        theta_grid=theta_grid,
        stderr=stderr,
        excluded_fraction=excluded,
        kind=kind,
    )


# -- rotation number and degree ---------------------------------------------


@dataclass(frozen=True)
class RotationEstimate:
    """Birkhoff average of projective lift increments, reported mod 1."""

    value: float
    stderr: float
    n_steps: int
    y0: float
    nonergodic_flag: bool = False


def _scan_vectors(m, v):
    """Vectors A_k...A_0 v, up to scale, for a (2, 2, K) stack, as (2, K).

    A blocked scan: prefix products inside blocks of B = SCAN_BLOCK sites
    (the last block padded with identities), the same scan over the
    unit-norm block totals, which hands each block the vector entering it,
    and one matrix-vector apply.  That is about (1 + 1/B) K matrix products
    and K half ones, against K log2 K for a Hillis-Steele scan.
    """
    k = m.shape[2]
    whole, tail = divmod(k, SCAN_BLOCK)
    nb = whole + (tail > 0)
    # (2, 2, site in block, block): one scan step is one row of blocks; filled
    # in place, the last block padded with identities
    q = np.empty((2, 2, SCAN_BLOCK, nb))
    q[:, :, :, :whole] = m[:, :, : k - tail].reshape(2, 2, whole, SCAN_BLOCK).swapaxes(2, 3)
    if tail:
        q[:, :, :tail, -1] = m[:, :, k - tail :]
        q[:, :, tail:, -1] = np.eye(2)[:, :, None]
    for j in range(1, SCAN_BLOCK):
        q[:, :, j] = _mul(q[:, :, j], q[:, :, j - 1])
    vin = v[:, None]
    if nb > 1:
        totals = q[:, :, -1, :-1].copy()
        _normalize(totals)
        w = _scan_vectors(totals, v)
        vin = np.concatenate([vin, w / np.hypot(w[0], w[1])], axis=1)
    q[:, 0] *= vin[0]
    q[:, 1] *= vin[1]
    w = q[:, 0] + q[:, 1]
    del q  # freed before w is copied into site order
    return w.swapaxes(1, 2).reshape(2, -1)[:, :k]


def _lift_increments(chunks, y0, overflow):
    """Birkhoff average of lift increments along (2, 2, K) matrix chunks.

    _scan_vectors moves the unit vector carried from the previous chunk
    through each chunk, so y_k = arg(A_k...A_0 v0) / 2 pi with v0 at angle
    y0.  The lift increment is the principal branch |y_k - y_{k-1}| < 1/2;
    the first one within BRANCH_TOL of the cut raises BranchAmbiguity, and
    a product past the float64 range raises the exception ``overflow``.
    """
    y = float(y0)
    v = np.array([math.cos(2 * math.pi * y), math.sin(2 * math.pi * y)])
    parts = []
    for m in chunks:
        with np.errstate(all="ignore"):  # an overflow is caught below
            w = _scan_vectors(m, v)
            ys = np.arctan2(w[1], w[0]) / (2 * math.pi)
            parts.append(np.diff(ys, prepend=y))
            y = ys[-1]
            v = w[:, -1] / math.hypot(w[0, -1], w[1, -1])
        # drop this chunk before the builder makes the next: one chunk at a time
        del m, w, ys
    incs = np.concatenate(parts)
    if not np.isfinite(incs).all():
        raise overflow
    incs -= np.floor(incs + 0.5)  # principal branch in [-1/2, 1/2)
    bad = np.abs(np.abs(incs) - 0.5) < BRANCH_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise BranchAmbiguity(
            f"lift increment {incs[k]:.12f} at step {k} sits on the branch cut"
        )
    n_steps = len(incs)
    value = wrap01(float(np.mean(incs)))
    stderr = float(np.std(incs, ddof=1) / math.sqrt(n_steps))
    half = float(np.mean(incs[: n_steps // 2]))
    flag = abs(half - float(np.mean(incs))) > 5.0 * max(stderr, 1e-15)
    return RotationEstimate(value, stderr, n_steps, float(y0), flag)


def rotation_number_map(
    matrix_map: Callable[[float], np.ndarray],
    alpha: Union[float, Fraction, ContinuedFraction],
    n_steps: int = 100_000,
    theta0: float = 0.0,
    y0: float = 0.0,
) -> RotationEstimate:
    """Fibered rotation number of a cocycle given by an explicit matrix map.

    The orbit runs at alpha's rational proxy (model._alpha_proxy).  The lift
    increment at each step is the principal branch |phi| < 1/2; landing
    within BRANCH_TOL of the cut raises BranchAmbiguity; a complex matrix
    (no projective circle action) raises TypeError.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    xs = orbit_phases(theta0, _alpha_proxy(alpha), 0, n_steps)
    m = np.moveaxis(np.array([matrix_map(x) for x in xs]), 0, 2)
    if np.iscomplexobj(m):
        raise TypeError("rotation_number_map needs a real matrix map")
    chunks = (m[:, :, k : k + SWEEP_CELLS] for k in range(0, n_steps, SWEEP_CELLS))
    return _lift_increments(chunks, y0, FloatRangeExceeded("the map's product overflows"))


def rotation_number(
    sample: OperatorSample,
    energy: float,
    n_steps: int = 100_000,
    theta0: float = 0.0,
    y0: float = 0.0,
) -> RotationEstimate:
    """Rotation number of the normalized transfer cocycle.

    It scans the companion matrices R_k, positive multiples of the normalized
    ones, from _sweep_cells: the earliest orbit or predecessor phase within
    model.ZERO_GUARD of a zero of c raises SingularSamplingPoint, a product
    past float64 FloatRangeExceeded.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    thetas = np.array([wrap01(float(theta0))])
    cells = _sweep_cells(sample, energy, thetas, n_steps, "normalized", "raise")
    chunks = (_companion(a[:, 0], b[:, 0]) for a, b, *_ in cells)
    return _lift_increments(chunks, y0, _overflow(sample, energy))


def _polar_angles(matrix_map, thetas):
    out = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        m = matrix_map(th)
        out[i] = math.atan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1])
    return out


def degree(
    matrix_map: Callable[[float], np.ndarray],
    grid: int = 256,
    max_refinements: int = 12,
) -> int:
    """Topological degree: winding of the polar rotation angle, in half-turns.

    The convention matches the defining family theta -> R_{k theta / 2}
    having degree k.  The grid doubles until two successive refinements
    agree and every angular step stays below a quarter turn.
    """
    prev = None
    g = max(grid, 8)
    for _ in range(max_refinements):
        thetas = np.arange(g + 1) / g
        ang = _polar_angles(matrix_map, thetas)
        d = np.diff(ang)
        d = (d + math.pi / 2) % math.pi - math.pi / 2
        if np.max(np.abs(d)) < math.pi / 2 - 1e-6:
            k = round(float(np.sum(d)) / math.pi)
            if prev is not None and prev == k:
                return k
            prev = k
        else:
            prev = None
        g *= 2
    raise GridTooCoarse(
        f"degree did not stabilize after {max_refinements} refinements"
    )


def conjugation_residual(
    b_map: Callable[[float], np.ndarray],
    cocycle_a: Cocycle,
    cocycle_b: Cocycle,
    grid: int = 512,
) -> float:
    """max over the grid of ||B(th+a) A1(th) B(th)^-1 - A2(th)||_2."""
    worst = 0.0
    for i in range(grid):
        th = i / grid
        lhs = b_map(wrap01(th + cocycle_a.alpha)) @ cocycle_a.matrix(th) @ np.linalg.inv(b_map(th))
        worst = max(worst, two_norm(lhs - cocycle_b.matrix(th)))
    return worst


# -- cohomological equation --------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """C^s-norm surrogates of the solved conjugation function.

    totals[j] = sum_k |k|^j |psi_hat(k)| for j = 0..s_max.  When block
    bounds (k1, k2) are known the same sums split into modes |k| < k1,
    k1 <= |k| < k2, and |k| >= k2, mirroring the three denominator regimes
    of the small-divisor estimate.
    """

    s_max: int
    totals: list
    block_bounds: Optional[tuple] = None
    block_sums: Optional[list] = None
    min_divisor: float = float("inf")


def solve_cohomological(
    phi_hat: Union[np.ndarray, Sequence[complex], dict],
    alpha: Union[float, Fraction, ContinuedFraction],
    s_max: int = 3,
) -> tuple[np.ndarray, NormReport]:
    """Solve psi(th + alpha) - psi(th) = phi(th) mode by mode.

    phi_hat holds Fourier coefficients indexed -K..K (array of length 2K+1,
    or {k: coeff} dict), all finite; the mean phi_hat(0) must vanish
    (ValueError otherwise).  Returns psi_hat in the same layout, with
    psi_hat(k) = phi_hat(k)/(e^{2 pi i k alpha}-1) at alpha's rational
    proxy (model._alpha_proxy), and a report of weighted coefficient sums
    for j = 0..s_max (s_max < 0 raises ValueError).  For a ContinuedFraction
    alpha the sums are also split into three blocks at (q_{n-1}, q_n), n the
    level of the largest materialized digit (n >= 2).  A divisor with
    ||k alpha|| < RESONANCE_TOL under a nonzero phi_hat(k) raises
    ResonantDivisor.

    The turns t = r/q = frac(k p/q) come without big-integer division:
    with A = floor(frac(p/q) 2^w), w = 80 + bitlength(K), and n = k A mod
    2^w, r/q lies between n/2^w and (n + k)/2^w.  When the bracket does not
    wrap and its two ends round to the same float, that float is r/q
    rounded, and the resonance test is read from the bracket of
    ||k alpha|| the same way; otherwise t and the test take the exact
    residue k p mod q.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    if isinstance(phi_hat, dict):
        K = max(abs(k) for k in phi_hat) if phi_hat else 0
        arr = np.zeros(2 * K + 1, dtype=np.complex128)
        for k, v in phi_hat.items():
            arr[k + K] = v
        phi = arr
    else:
        phi = np.asarray(phi_hat, dtype=np.complex128)
        if phi.ndim != 1 or len(phi) % 2 == 0:
            raise ValueError("phi_hat must have odd length 2K+1, indexed -K..K")
        K = (len(phi) - 1) // 2
    if not np.isfinite(phi).all():
        k = int(np.flatnonzero(~np.isfinite(phi))[0]) - K
        raise ValueError(f"phi_hat must be finite, got phi_hat({k}) = {phi[k + K]}")
    scale = float(np.max(np.abs(phi))) if len(phi) else 0.0
    if abs(phi[K]) > 1e-13 * max(scale, 1.0):
        raise ValueError("phi_hat(0) must vanish (mean-zero right-hand side)")
    a = _alpha_proxy(alpha)
    p, q = a.numerator, a.denominator
    w = 80 + K.bit_length()
    one = 1 << w
    frac_a = ((p % q) << w) // q  # frac(alpha) 2^w, rounded down
    psi = np.zeros_like(phi)
    min_div = float("inf")
    for k in range(-K, K + 1):
        if k == 0:
            continue
        # k alpha mod 1 = r/q lies in [lo, hi] / 2^w unless the bracket wraps
        n = k * frac_a % one
        lo, hi = (n, n + k) if k > 0 else (n + k, n)
        t = math.ldexp(lo, -w)
        norm_lo = math.ldexp(min(lo, one - hi), -w)
        norm_hi = math.ldexp(min(hi, one - lo), -w)
        if (lo < 0 or hi > one or t != math.ldexp(hi, -w)
                or norm_lo < RESONANCE_TOL <= norm_hi):
            r = k * p % q  # the bracket cannot tell: read r/q exactly
            t = r / q
            resonant = norm_numerator(r, q) / q < RESONANCE_TOL
        else:
            resonant = norm_hi < RESONANCE_TOL
        if resonant:
            if abs(phi[k + K]) > 0:
                raise ResonantDivisor(k)
            continue
        div = complex(math.cos(2 * math.pi * t) - 1.0, math.sin(2 * math.pi * t))
        min_div = min(min_div, abs(div))
        psi[k + K] = phi[k + K] / div
    ks = np.abs(np.arange(-K, K + 1))
    kf = ks.astype(np.float64)  # |k|^j in float64: int64 powers wrap past 2^63
    mags = np.abs(psi)
    totals = [float(np.sum(kf**j * mags)) for j in range(s_max + 1)]
    block_bounds = block_sums = None
    if isinstance(alpha, ContinuedFraction):
        # burst level = largest digit within the materialized stream
        depth = alpha.depth
        if depth >= 2:
            n = max(range(1, depth + 1), key=lambda i: alpha.digit(i))
            if n >= 2:
                block_bounds = (alpha.q(n - 1), alpha.q(n))
    if block_bounds is not None:
        k1, k2 = block_bounds
        low, mid, high = ks < k1, (ks >= k1) & (ks < k2), ks >= k2
        block_sums = [
            (
                float(np.sum(kf[low] ** j * mags[low])),
                float(np.sum(kf[mid] ** j * mags[mid])),
                float(np.sum(kf[high] ** j * mags[high])),
            )
            for j in range(s_max + 1)
        ]
    report = NormReport(
        s_max=s_max,
        totals=totals,
        block_bounds=block_bounds,
        block_sums=block_sums,
        min_divisor=min_div,
    )
    return psi, report


# -- commutant rigidity -------------------------------------------------------


@dataclass(frozen=True)
class CommutantReport:
    """Outcome of the commutant divisor scan.

    For every mode |k| <= bandwidth and both off-diagonal equations, the
    divisor |e^{2 pi i k alpha} - e^{+-4 pi i rho}| stayed above the
    Diophantine floor 2 sin(pi gamma / (|k|+1)^tau), so all off-diagonal
    Fourier modes are forced to vanish and the commutant is diagonal-
    constant.  unconstrained_modes lists the degenerate (k=0, 2 rho integer)
    cases where constants remain free.
    """

    bandwidth: int
    tau: float
    gamma: float
    min_divisor: float
    argmin_k: Optional[int]  # None, with min_divisor inf, when no mode was compared
    argmin_sign: Optional[int]
    modes_checked: int
    unconstrained_modes: list = field(default_factory=list)


def commutant_rigidity_check(
    rho: Union[float, Fraction],
    alpha: Union[float, Fraction, ContinuedFraction],
    bandwidth: int = 1000,
    tau: float = 2.0,
    gamma: float = 1e-3,
) -> CommutantReport:
    """Scan the divisors forcing a commuting conjugation to be constant.

    A matrix commuting with the rotation by rho has off-diagonal Fourier
    modes killed whenever ||k alpha -+ 2 rho|| > 0 (alpha read at its
    rational proxy, model._alpha_proxy); this verifies the quantitative
    floor 2 sin(pi gamma/(|k|+1)^tau) on the divisor 2 sin(pi t), t =
    ||k alpha -+ 2 rho||, up to the bandwidth and raises
    DivisorFloorViolated at the first failing mode.  A floor whose power
    leaves the float range is 0.  The diagonal (k=0, phase-free) modes
    always remain and are reported, not flagged.  A negative bandwidth or
    tau, a gamma <= 0 (a floor every divisor passes), a NaN tau, an
    infinite gamma and a bandwidth of 2^52 or more raise ValueError.

    Modes run in blocks of SCREEN_BLOCK k's (contfrac._index_blocks shifted
    by -bandwidth), and t is screened in float64 for both signs
    (contfrac._screen_norms, error eps).  2 sin(pi t) rises on [0, 1/2],
    so a mode whose screened t clears gamma/(|k|+1)^tau
    (contfrac._clears_floor) cannot violate its floor.  The exact loop then
    runs, in scan order (k from -bandwidth up, sign +1 before -1), over
    every mode the rule does not clear (k = 0 included) and every mode
    within twice the first block's eps (the largest) of the least screened
    t so far (k != 0), which holds the first exact minimum.  So the first
    violation, min_divisor, the argmin and modes_checked are those of the
    exact scan.
    """
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    _check_floor(tau, gamma, bandwidth, "bandwidth")
    a = _alpha_proxy(alpha)
    two_rho = 2 * Fraction(rho)
    # k*alpha -+ 2 rho = (k*p*s -+ r*q)/(q*s) with alpha = p/q, 2 rho = r/s
    ps = a.numerator * two_rho.denominator
    rq = two_rho.numerator * a.denominator
    qs = a.denominator * two_rho.denominator
    min_div, arg_k, arg_s = float("inf"), None, None
    unconstrained = [(0, "diagonal")]  # b(th+a)=b(th): constants always pass
    screened_min, margin = float("inf"), None
    for j in _index_blocks(2 * bandwidth + 1):
        ks = j - bandwidth
        (plus, eps), (minus, _) = (
            _screen_norms(a.numerator, a.denominator, ks, sign * two_rho) for sign in (+1, -1))
        norms = np.stack((plus, minus))
        if margin is None:  # the first block holds k = -bandwidth, whose eps is the largest
            margin = eps
        screened_min = min(screened_min, float(np.min(norms[:, ks != 0], initial=np.inf)))
        recheck = ~_clears_floor(norms, eps, ks, tau, gamma) | (norms <= screened_min + 2 * margin)
        for i in np.flatnonzero(recheck[0] | recheck[1]):
            k = int(ks[i])
            for sign, todo in zip((+1, -1), recheck[:, i]):
                if not todo:
                    continue
                t = norm_numerator(k * ps - sign * rq, qs) / qs
                div = 2.0 * math.sin(math.pi * t)
                if k == 0 and t < RESONANCE_TOL:
                    # 2 rho integer: the k=0 off-diagonal equation degenerates
                    # to b=b and constants survive (enlarged commutant).
                    unconstrained.append((0, f"off-diagonal sign {sign:+d}"))
                    continue
                try:
                    floor = 2.0 * math.sin(math.pi * gamma / (abs(k) + 1) ** tau)
                except OverflowError:  # (|k|+1)^tau past the float range
                    floor = 0.0
                if div < floor * (1.0 - 1e-12):
                    raise DivisorFloorViolated(k, div, floor)
                if div < min_div:
                    min_div, arg_k, arg_s = div, k, sign
    return CommutantReport(
        bandwidth=bandwidth,
        tau=tau,
        gamma=gamma,
        min_divisor=min_div,
        argmin_k=arg_k,
        argmin_sign=arg_s,
        modes_checked=2 * (2 * bandwidth + 1) - len(unconstrained) + 1,
        unconstrained_modes=unconstrained,
    )


# -- Fourier coefficient serialization ---------------------------------------


def fourier_to_json(coeffs: np.ndarray) -> str:
    """JSON array of [re, im] pairs, indexed -K..K."""
    return json.dumps([[float(c.real), float(c.imag)] for c in np.asarray(coeffs)])


def fourier_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)
