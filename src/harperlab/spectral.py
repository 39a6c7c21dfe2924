"""Finite-truncation spectral experiments.

LAPACK truncation spectra, the Aubry duality identity, the arithmetic exponent
delta(alpha, theta), window-mass (badness) scans, frequency-perturbation
stability, Green's-function regularity, and eigenfunction decay fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._tridiag import (
    FULL_DRIVER,
    _eig_index,
    bisect_eigenvalues,
    eigenpairs,
    sturm_count,
)
from .cocycle import _sweep_cells, _transfer_matrices, lyapunov_formula
from .contfrac import (
    ContinuedFraction,
    beta_exponent,
    div_by_big,
    norm_numerator,
)
from .errors import FloatRangeExceeded, NoBulkSpectrum, PoorlyLocalized
from .model import (
    CouplingTriple,
    OperatorSample,
    _edge_green_logs,
    _guard,
    build_truncation,
    duality,
    zero_offsets,
)

__all__ = [
    "SpectrumApproximation",
    "DualityReport",
    "BadnessReport",
    "PerturbationReport",
    "RegularityResult",
    "DecayFit",
    "truncated_spectrum",
    "hausdorff_sorted",
    "duality_check",
    "delta_exponent",
    "badness_scan",
    "perturbation_experiment",
    "regularity_test",
    "decay_fit",
]

EDGE_FRAC = 0.05  # share of a duality window at each end that counts as its edge
EDGE_MASS_MAX = 0.25  # an eigenvector with more of its mass in the edges is a boundary mode
DECAY_FLOOR_REL = 1e-12  # decay_fit drops |phi| below this times its peak
DECAY_R2_MIN = 0.9  # decay_fit's r^2 below this raises PoorlyLocalized


@dataclass(frozen=True)
class SpectrumApproximation:
    """Sorted eigenvalues of finite truncations, possibly phase-aggregated."""

    eigenvalues: np.ndarray
    size: int
    phases: list
    method: str = FULL_DRIVER  # the LAPACK driver behind the eigenvalues


def _map_phases(sample, size, theta_list, fn):
    """[fn(diag, absoff)] over the window [0, size-1] re-phased at each theta."""

    def one(theta):
        s = OperatorSample(sample.coupling, sample.alpha, theta)
        return fn(*build_truncation(s, 0, size - 1).gauge_symmetric())

    return [one(th) for th in theta_list]


def _mass(rows):
    """Per column, the sum of squares of ``rows`` of an eigenvector array."""
    return np.einsum("ij,ij->j", rows, rows)


def truncated_spectrum(
    sample: OperatorSample,
    size: int,
    phases: Optional[Sequence[float]] = None,
) -> SpectrumApproximation:
    """Eigenvalues of the window [0, size-1].

    With ``phases`` given, the truncation is re-phased at each theta and the
    eigenvalue lists are merged (sorted); otherwise the sample's own phase
    is used.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    theta_list = [sample.theta] if phases is None else list(phases)
    if not theta_list:
        raise ValueError("phases must hold at least one phase")
    parts = _map_phases(sample, size, theta_list, bisect_eigenvalues)
    eigs = np.sort(np.concatenate(parts))
    return SpectrumApproximation(
        eigenvalues=eigs, size=size, phases=[float(t) for t in theta_list]
    )


def _phase_grid(theta0: float, count: int) -> list:
    """The equispaced phases (theta0 + (k + 1/2)/count) mod 1, k = 0..count-1."""
    return list((theta0 + (np.arange(count) + 0.5) / count) % 1.0)


def hausdorff_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted point sets on the line."""

    def one_sided(u, v):
        idx = np.searchsorted(v, u)
        left = np.abs(u - v[np.clip(idx - 1, 0, len(v) - 1)])
        right = np.abs(u - v[np.clip(idx, 0, len(v) - 1)])
        return float(np.max(np.minimum(left, right)))

    return max(one_sided(a, b), one_sided(b, a))


@dataclass(frozen=True)
class DualityReport:
    distance: float
    size: int
    phases: list
    coupling: tuple
    dual_coupling: tuple
    scale: float  # lambda2, the factor relating the two spectra
    boundary_filtered: tuple = (0, 0)  # edge states dropped on each side


def _aggregate_bulk_spectrum(sample, size, theta_list, zone):
    """Phase-aggregated truncation eigenvalues, boundary modes removed.

    Zero-boundary windows bind states inside spectral gaps; an eigenvalue
    whose eigenvector carries more than EDGE_MASS_MAX of its mass within
    the outer ``zone`` rows at either end is such a boundary mode and is
    dropped from the aggregate (counted in the second return value).  Each
    phase's eigenpairs come from one ?STEVD call (_tridiag.eigenpairs), which
    holds two size-by-size arrays, eigenvectors and workspace, while it runs.
    """

    def bulk(diag, absoff):
        vals, vecs = eigenpairs(diag, absoff)
        edge = _mass(vecs[:zone]) + _mass(vecs[-zone:])
        kept = vals[edge <= EDGE_MASS_MAX]
        return kept, size - len(kept)

    parts = _map_phases(sample, size, theta_list, bulk)
    eigs = np.sort(np.concatenate([p[0] for p in parts]))
    return eigs, sum(p[1] for p in parts)


def duality_check(
    coupling: CouplingTriple,
    alpha,
    size: int,
    phases: Union[int, Sequence[float]] = 16,
    theta0: float = 0.0,
    seed: Optional[int] = None,
) -> tuple[float, DualityReport]:
    """Hausdorff distance between Spec(lambda) and lambda2 * Spec(dual).

    Both phase-aggregated truncation spectra use the same phase list; an
    integer ``phases`` means that many equispaced points (or seeded uniform
    draws when ``seed`` is given) shifted by theta0.  Boundary modes of the
    zero-boundary windows (in-gap pollution that no finite phase grid can
    match across the two sides) are filtered before the comparison: an
    eigenvalue goes when its eigenvector has more than EDGE_MASS_MAX of its
    mass in the edge zones.  The edge zones span the outer EDGE_FRAC of the
    window, at least 10 rows each, so ``size`` must exceed the two of them;
    NoBulkSpectrum is raised when every eigenvalue of one side is filtered.
    """
    dual = duality(coupling)  # raises Lambda2Zero when undefined
    l2 = coupling.lambda2
    zone = max(10, int(size * EDGE_FRAC))
    if size <= 2 * zone:
        raise ValueError(f"size must exceed its two {zone}-row edge zones, got size={size}")
    if isinstance(phases, int):
        if phases < 1:
            raise ValueError(f"phases must be >= 1, got phases={phases}")
        if seed is not None:
            rng = np.random.default_rng(seed)
            theta_list = list((theta0 + rng.random(phases)) % 1.0)
        else:
            theta_list = _phase_grid(theta0, phases)
    else:
        theta_list = list(phases)
        if not theta_list:
            raise ValueError("phases must hold at least one phase")
    ea, da = _aggregate_bulk_spectrum(
        OperatorSample(coupling, alpha, theta0), size, theta_list, zone
    )
    eb, db = _aggregate_bulk_spectrum(OperatorSample(dual, alpha, theta0), size, theta_list, zone)
    if len(ea) == 0 or len(eb) == 0:
        raise NoBulkSpectrum(
            f"every eigenvalue of the {'dual' if len(ea) else 'given'} side has more than "
            f"EDGE_MASS_MAX={EDGE_MASS_MAX} of its mass in the edge zones"
        )
    dist = hausdorff_sorted(ea, l2 * eb)
    report = DualityReport(
        distance=dist,
        size=size,
        phases=[float(t) for t in theta_list],
        coupling=coupling.astuple(),
        dual_coupling=dual.astuple(),
        scale=l2,
        boundary_filtered=(da, db),
    )
    return dist, report


# -- the arithmetic exponent delta ------------------------------------------


def delta_exponent(
    coupling: CouplingTriple,
    cf: ContinuedFraction,
    theta: Union[float, Fraction],
    depth: int,
    warmup: int = 1,
) -> tuple[float, list]:
    """Finite-depth surrogate of the zero-corrected growth exponent.

    Per level n the value is (sum_zeros ln||q_n (theta - theta_zero)|| +
    ln q_{n+1}) / q_n; with no zeros of c this reduces to the plain
    denominator exponent level by level.  The orbit distances are evaluated
    in exact rational arithmetic against the deepest convergent of alpha and
    the exact zero offsets of model.zero_offsets.
    """
    fe = beta_exponent(cf, depth, warmup)
    offsets = zero_offsets(coupling)
    if not offsets:
        return fe.beta_estimate, list(fe.per_level)
    cf.ensure(depth)
    half_alpha = Fraction(*cf.convergent(depth)) / 2
    xs = [Fraction(theta) - off + half_alpha for off in offsets]
    per_level = []
    for n in range(1, depth):
        qn = cf.q(n)
        total = math.log(cf.q(n + 1))
        for x in xs:
            # ||q_n x|| = m/den in lowest terms, as x is
            g = math.gcd(qn, x.denominator)
            den = x.denominator // g
            m = norm_numerator(qn // g * x.numerator, den)
            total += math.log(m) - math.log(den) if m else float("-inf")
        per_level.append((n, div_by_big(total, qn)))
    tail = [v for n, v in per_level if n >= warmup]
    return max(tail), per_level


# -- (C, N)-badness -----------------------------------------------------------


@dataclass(frozen=True)
class BadnessReport:
    """Window-mass scan outcome.

    min_mass is the smallest of sum_{|k|<=N} |u(k)|^2 over the energy grid
    and the normalized initial data (u(0), u(-1)) = (cos 2 pi phi, sin 2 pi
    phi): the first minimum over phi = j/angles, or with refine the exact
    infimum over all phi at each energy.  Verdict "bad" means no solution
    below C^2 was found (the energy quantifier is discretized, so this is
    evidence, not proof).
    """

    C: float
    N: int
    E_grid: list
    min_mass: float
    verdict: str
    witness_E: Optional[float]
    witness_angle: Optional[float]
    angles: int
    trunc_size: int
    note: str


def _window_size(N: int) -> int:
    """The one window-size rule: an N-site experiment (badness_scan,
    perturbation_experiment) draws its energies from the eigenvalues of the
    window [0, max(4N, 256) - 1]."""
    return max(4 * N, 256)


def _basis_solutions(trunc, energies):
    """Solutions grown from the basis initial data (u(0), u(-1)) = e1, e2.

    trunc is the window [-N-1, N].  Returns U of shape (len(energies),
    2N+2, 2) with u(k) = U[:, k+N+1] @ (u(0), u(-1)) for k in [-N-1, N]:
    the three-term recurrence of the window's rows runs N steps forward and
    N steps backward, with energies x basis vectors as lanes.  Raises
    SingularSamplingPoint at the earliest phase it reads c at (sites
    -N-1 .. N-1) that lies within model.ZERO_GUARD of a zero of c, the
    guard of every transfer product, and ValueError at a non-finite energy.
    """
    N, c, s = trunc.x2, trunc.offdiag, trunc.sample
    e = np.asarray(energies, dtype=np.float64)
    if not np.isfinite(e).all():
        raise ValueError(f"energies must be finite, got E={float(e[~np.isfinite(e)][0])!r}")
    _guard(s.coupling, s.alpha_float, trunc.phases[:-1], on_singular="raise")
    d = e[:, None, None] - trunc.diag[:, None]
    U = np.zeros((len(energies), 2 * N + 2, 2), dtype=np.complex128)
    o = N + 1  # index of site 0, in U and in the window
    U[:, o, 0] = U[:, o - 1, 1] = 1.0
    for j in range(N):
        f, b = o + j, o - 1 - j  # sites n = j (forward) and n = -1-j (backward)
        U[:, f + 1] = (d[:, f] * U[:, f] - np.conj(c[f - 1]) * U[:, f - 1]) / c[f]
        U[:, b - 1] = (d[:, b] * U[:, b] - c[b] * U[:, b + 1]) / np.conj(c[b - 1])
    return U


def badness_scan(
    sample: OperatorSample,
    C: float,
    N: int,
    E_count: int = 8,
    angles: int = 64,
    energies: Optional[Sequence[float]] = None,
    refine: bool = False,
) -> BadnessReport:
    """Scan energies and normalized initial data for window mass below C^2.

    The energy grid is E_count eigenvalues spread evenly over the spectrum
    of the window [0, _window_size(N) - 1] (or supplied explicitly via
    ``energies``, e.g. eigenvalues whose eigenvectors sit near the origin).
    A solution is linear in its initial data v, so its mass over |k| <= N
    is 1 + ||A v||^2, where the rows of A are the real and imaginary parts
    of the two basis solutions (_basis_solutions over the window [-N-1, N])
    at k != 0, -1.  Without ``refine`` each energy takes the first minimum
    over ``angles`` equispaced phi; with ``refine`` it takes the exact infimum
    over all normalized initial data, 1 + sigma_min(A)^2, and the witness
    angle (in [0, 1/2), as u and -u carry the same mass) from the right
    singular vector.  The Gram matrix A^T A is never formed: its entries
    reach e^(2 L N), which swamps the O(1) minimum.  A window phase within
    model.ZERO_GUARD of a zero of c raises SingularSamplingPoint, and a mass
    past the float64 range FloatRangeExceeded.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if angles < 1:
        raise ValueError(f"angles must be >= 1, got angles={angles}")
    size = _window_size(N)
    if energies is None:
        if E_count < 1:
            raise ValueError(f"E_count must be >= 1, got E_count={E_count}")
        spec = truncated_spectrum(sample, size)
        idx = np.unique(np.round(np.linspace(0, size - 1, E_count)).astype(int))
        e_grid = [float(spec.eigenvalues[i]) for i in idx]
    else:
        e_grid = [float(e) for e in energies]
    if not e_grid:
        raise ValueError("badness_scan needs at least one energy")
    overflow = FloatRangeExceeded(f"a window mass at N={N} leaves the float64 range")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mass raises
        U = _basis_solutions(build_truncation(sample, -N - 1, N), e_grid)
        W = np.concatenate([U[:, 1:N], U[:, N + 2 :]], axis=1)  # k in [-N, N] \ {0, -1}
        A = np.concatenate([W.real, W.imag], axis=1)
        if not np.isfinite(A).all():
            raise overflow
        if refine:
            _, s, vh = np.linalg.svd(A, full_matrices=False)
            masses = 1.0 + s[:, -1] ** 2
            phis = (np.arctan2(vh[:, -1, 1], vh[:, -1, 0]) / (2 * np.pi)) % 0.5
        else:
            grid = np.arange(angles) / angles
            v = np.stack([np.cos(2 * np.pi * grid), np.sin(2 * np.pi * grid)])
            mass_grid = 1.0 + np.sum((A @ v) ** 2, axis=1)
            j = np.argmin(mass_grid, axis=1)
            masses, phis = mass_grid[np.arange(len(e_grid)), j], grid[j]
    if not np.isfinite(masses).all():
        raise overflow
    i = int(np.argmin(masses))
    min_mass, we, wa = float(masses[i]), e_grid[i], float(phis[i])
    bad = min_mass >= C * C
    return BadnessReport(
        C=C,
        N=N,
        E_grid=e_grid,
        min_mass=min_mass,
        verdict="bad" if bad else "not_bad",
        witness_E=None if bad else we,
        witness_angle=None if bad else wa,
        angles=angles,
        trunc_size=size,
        note=(
            "no solution below C^2 found at this energy/angle resolution"
            if bad
            else "witness solution found"
        ),
    )


# -- frequency perturbation ----------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    epsilon: float
    energy: float
    energy_prime: float
    matrix_deviation: float
    solution_deviation: float
    N: int
    trunc_size: int


def _nearest_eig(diag, absoff, target):
    j = int(sturm_count(diag, absoff * absoff, target))
    vals = [bisect_eigenvalues(diag, absoff, i) for i in (j - 1, j) if 0 <= i < len(diag)]
    return min(vals, key=lambda v: abs(v - target))


def perturbation_experiment(
    coupling: CouplingTriple,
    alpha,
    alpha_prime,
    theta: float,
    N: int,
    trunc_size: Optional[int] = None,
    eig_index: Union[int, str] = "median",
) -> PerturbationReport:
    """Compare transfer matrices and solutions at two nearby frequencies.

    E' is an eigenvalue of the truncated operator at alpha' (by sorted
    index, 0 <= eig_index < size, else IndexError) on the window [0, size -
    1], where size is trunc_size or else _window_size(N), E the nearest
    eigenvalue of the matched truncation at alpha; the deviations are the
    maxima over |m| <= N of the transfer-matrix difference and of the
    solution-vector difference grown over the window [-N-1, N] from the
    same initial data (u(0), u(-1)) = (1, 0).  A phase either frequency's
    window reads c at within model.ZERO_GUARD of a zero of c raises
    SingularSamplingPoint, and a transfer matrix or deviation past the
    float64 range FloatRangeExceeded.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got N={N}")
    size = trunc_size if trunc_size is not None else _window_size(N)
    sample = OperatorSample(coupling, alpha, theta)
    sample_p = OperatorSample(coupling, alpha_prime, theta)
    eps = abs(float(sample.alpha_fraction() - sample_p.alpha_fraction()))
    index = _eig_index(size // 2 if eig_index == "median" else eig_index, size)
    e_prime = bisect_eigenvalues(*build_truncation(sample_p, 0, size - 1).gauge_symmetric(), index)
    energy = _nearest_eig(*build_truncation(sample, 0, size - 1).gauge_symmetric(), e_prime)

    def matrices(s, e):  # the 2N+1 raw transfer matrices from site -N on
        cells = _sweep_cells(s, e, s.phases(-N, 1), 2 * N + 1, "raw", "raise")
        return (_transfer_matrices(a, b, u, u0, "raw") for a, b, u, u0, _ in cells)

    def solution(s, e):  # u(k) at sites -N-1..N from (u(0), u(-1)) = (1, 0)
        return _basis_solutions(build_truncation(s, -N - 1, N), [e])[0, :, 0]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation raises
        diffs = [m1 - m2 for m1, m2 in zip(matrices(sample, energy), matrices(sample_p, e_prime))]
        w = np.abs(solution(sample, energy) - solution(sample_p, e_prime))
        dev_s = float(np.max(np.hypot(w[1:], w[:-1])))  # pairs (u(k), u(k-1)), |k| <= N
    if not (math.isfinite(dev_s) and all(np.isfinite(m).all() for m in diffs)):
        raise FloatRangeExceeded(f"a deviation at N={N} leaves the float64 range")
    dev_m = max(float(np.max(np.linalg.norm(m, 2, axis=(0, 1)))) for m in diffs)
    return PerturbationReport(
        epsilon=eps,
        energy=energy,
        energy_prime=e_prime,
        matrix_deviation=dev_m,
        solution_deviation=dev_s,
        N=N,
        trunc_size=size,
    )


# -- (m, k)-regularity ----------------------------------------------------------


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    window: Optional[tuple] = None
    skipped: list = field(default_factory=list)


def regularity_test(
    sample: OperatorSample,
    energy: float,
    y: int,
    m: float,
    k: int,
) -> RegularityResult:
    """Search windows of length k around y with decaying edge Green values.

    A window [x1, x1+k-1] qualifies when dist(y, x_i) >= ceil(k/9) for both
    edges and |G(y, x_i)| < e^{-m |y - x_i|} at both; windows are scanned by
    increasing x1 and the first qualifying one is returned.  Windows whose
    resolvent is singular at this energy are skipped and recorded.  All
    windows are read from one truncation covering them, by sweeps that start
    next to y (model._edge_green_logs), so the scan costs O(k) steps.
    """
    if k < 9:
        raise ValueError("k must be >= 9 so that dist >= k/9 is satisfiable")
    d = -(-k // 9)  # ceil
    x1 = np.arange(y + d - k + 1, y - d + 1)  # every window, in scan order
    x2 = x1 + k - 1
    trunc = build_truncation(sample, int(x1[0]), int(x2[-1]))
    lg1, lg2, singular = _edge_green_logs(trunc, energy, y, x1, x2)
    hits = np.flatnonzero(~singular & (lg1 < -m * (y - x1)) & (lg2 < -m * (x2 - y)))
    first = int(hits[0]) if len(hits) else len(x1)
    skipped = [
        (int(a), int(b)) for a, b, s in zip(x1[:first], x2[:first], singular[:first]) if s
    ]
    if first < len(x1):
        return RegularityResult(True, (int(x1[first]), int(x2[first])), skipped)
    return RegularityResult(False, None, skipped)


# -- eigenfunction decay ---------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay rate of a localized truncation eigenvector."""

    eigenvalue: float
    window: tuple
    slope: float
    r2: float
    target: float

    def __post_init__(self):
        if self.slope > 0:
            raise PoorlyLocalized(f"positive decay slope {self.slope:.4f}")


def decay_fit(
    sample: OperatorSample,
    size: int,
    which_eigenvector: Union[int, str] = "auto",
) -> DecayFit:
    """Fit the exponential decay rate of a localized eigenvector.

    The truncation window is centered at the origin.  With "auto", the
    eigenvalue whose eigenvector carries maximal mass in the middle third
    is fitted; an integer picks that index (0 <= index < size, else
    IndexError).  Masses are rounded to 1e-9 first: in a localized window many
    eigenvectors carry middle-third mass 1 - O(1e-15), and among such tied
    maxima the lower median by eigenvalue (index T[len(T) // 2] of the
    ascending tied set T) is taken, so the pick does not hang on rounding.
    The eigenvalues and unit eigenvectors come from one ?STEVD call
    (_tridiag.eigenpairs), which holds two size-by-size arrays, eigenvectors
    and workspace, while it runs: 10 MB at size 800 (the CLI's default).  The fit
    regresses (1/2) ln(phi(n)^2 + phi(n+1)^2) on -|n - peak|, excluding the
    outer 10% of the window and everything below the relative noise floor
    DECAY_FLOOR_REL; r^2 below DECAY_R2_MIN raises PoorlyLocalized.  The
    peak is the lowest site among the maxima of phi^2 rounded to 1e-9 of
    the largest, and only the side of the peak away from the window centre
    (the origin) is fitted.  On a window symmetric about the origin (theta =
    0) localized eigenvectors come in pairs split below LAPACK's resolution,
    so the picked one can carry two mirrored peaks, equal to rounding: the
    pick must not hang on which one LAPACK makes larger, and the fit must
    not read the mirror peak across the centre.
    """
    if size < 400:
        raise ValueError("size must be >= 400 for a stable fit")
    x1 = -(size // 2)
    trunc = build_truncation(sample, x1, x1 + size - 1)
    diag, absoff = trunc.gauge_symmetric()
    vals, vecs = eigenpairs(diag, absoff)
    if which_eigenvector == "auto":
        third = size // 3
        mass = np.round(_mass(vecs[third : 2 * third]), 9)
        tied = np.flatnonzero(mass == mass.max())
        index = int(tied[len(tied) // 2])
    else:
        index = _eig_index(which_eigenvector, size)
    energy = float(vals[index])
    phi2 = vecs[:, index] ** 2
    peak = int(np.argmax(np.round(phi2 / np.max(phi2), 9)))  # the first, lowest, tied site
    pair = phi2[:-1] + phi2[1:]
    ys = 0.5 * np.log(np.maximum(pair, 1e-320))
    ts = (np.arange(size - 1) - peak).astype(float)
    edge = max(1, size // 10)
    mask = np.zeros(size - 1, dtype=bool)
    mask[edge : size - 1 - edge] = True
    mask &= ts * (peak - size // 2) >= 0  # the side of the peak away from the centre
    ts = np.abs(ts)
    mask &= pair > DECAY_FLOOR_REL**2 * phi2[peak]
    if int(np.count_nonzero(mask)) < 10:
        raise PoorlyLocalized("fewer than 10 usable points in the fit window")
    t, yv = ts[mask], ys[mask]
    a = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(a, yv, rcond=None)
    pred = a @ np.array([slope, intercept])
    ss_res = float(np.sum((yv - pred) ** 2))
    ss_tot = float(np.sum((yv - np.mean(yv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < DECAY_R2_MIN:
        raise PoorlyLocalized(f"decay fit r^2 = {r2:.3f} < {DECAY_R2_MIN}")
    window = (float(np.min(t)), float(np.max(t)))
    target = lyapunov_formula(sample.coupling)
    return DecayFit(
        eigenvalue=energy, window=window, slope=float(slope), r2=r2, target=target
    )
