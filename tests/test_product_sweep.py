"""Property tests for the chunked transfer-product sweep against a sequential walk."""

import contextlib
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harperlab import cocycle, model
from harperlab.cocycle import (
    SCAN_BLOCK,
    SWEEP_CELLS,
    TABLE_BLOCK,
    _normalize,
    _product_sweep,
    _sweep_cells,
    constant_rotation,
    lyapunov_numeric,
    n_step,
    rotation_matrix,
    rotation_number,
    rotation_number_map,
    transfer,
)
from harperlab.contfrac import golden
from harperlab.errors import (
    BranchAmbiguity,
    FloatRangeExceeded,
    SingularSamplingPoint,
    TooManyExclusions,
)
from harperlab.model import (
    MAX_EXCLUDED,
    ZERO_GUARD,
    CouplingTriple,
    OperatorSample,
    _alpha_proxy,
    abs_c_function,
    c_function,
    orbit_phases,
    wrap01,
    zero_structure,
)
from harperlab.spectral import badness_scan, perturbation_experiment

# deterministic examples, so the suite gives the same verdict on every run
examples = settings(deadline=None, derandomize=True, max_examples=20)

KINDS = st.sampled_from(["raw", "normalized"])
# c has zeros on the circle: a single one, and a conjugate pair
ZERO_COUPLINGS = st.sampled_from([(0.25, 0.5, 0.25), (0.3, 0.4, 0.3), (0.2, 0.7, 0.5)])
# l2 > l1 + l3: c has no zero on the circle
ZERO_FREE = st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.05, 1.0)).map(
    lambda t: (t[0], t[0] + t[1] + t[2], t[1])
)


@contextlib.contextmanager
def library_guard(zero_guard, max_excluded=MAX_EXCLUDED):
    """The guard constants the sweeps read, set to a drawn value.

    No sweep takes a guard: model._guard reads model.ZERO_GUARD at call time,
    and lyapunov_numeric reads MAX_EXCLUDED by name in cocycle, so a test
    patches them there.
    """
    with mock.patch.object(model, "ZERO_GUARD", zero_guard):
        with mock.patch.object(cocycle, "MAX_EXCLUDED", max_excluded):
            yield


def guarded_sweep(sample, energy, thetas, n, kind, zero_guard, on_singular="exclude"):
    """_product_sweep under the drawn guard zero_guard."""
    with library_guard(zero_guard):
        return _product_sweep(sample, energy, thetas, n, kind, on_singular)


def zero_distance(coupling, alpha_f, x):
    pos = zero_structure(coupling).positions(alpha_f)
    d = np.full(np.shape(x), np.inf)
    for z in pos:
        d = np.minimum(d, np.abs((x - z + 0.5) % 1.0 - 0.5))
    return d


def sequential(sample, energy, thetas, n, kind, zero_guard):
    """One site at a time: build A_k for every lane, np.matmul, renormalize.

    Returns (growth = log of the exact product's 2-norm, unit-norm product,
    alive); a lane is the identity from its first guarded site on.
    """
    coupling = sample.coupling
    alpha = sample.alpha_fraction()
    af = float(alpha)
    ka = orbit_phases(0.0, alpha, 0, n)
    g = len(thetas)
    dtype = np.complex128 if kind == "raw" else np.float64
    mats = np.tile(np.eye(2, dtype=dtype), (g, 1, 1))
    logs = np.zeros(g)
    xm = (thetas - af) % 1.0
    dead = np.zeros(g, dtype=bool)
    if kind == "normalized":
        dead |= zero_distance(coupling, af, xm) < zero_guard
    for k in range(n):
        x = (thetas + ka[k]) % 1.0
        dead |= zero_distance(coupling, af, x) < zero_guard
        a = np.zeros((g, 2, 2), dtype=dtype)
        diag = energy - 2.0 * np.cos(2.0 * np.pi * x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind == "raw":
                c, cm = c_function(coupling, af, x), c_function(coupling, af, xm)
                a[:, 0, 0], a[:, 0, 1], a[:, 1, 0] = diag / c, -np.conj(cm) / c, 1.0
            else:
                c, cm = abs_c_function(coupling, af, x), abs_c_function(coupling, af, xm)
                s = np.sqrt(c * cm)
                a[:, 0, 0], a[:, 0, 1], a[:, 1, 0] = diag / s, -cm / s, c / s
        a[dead] = np.eye(2)
        mats = np.matmul(a, mats)
        nrm = np.linalg.norm(mats, axis=(1, 2))
        mats /= nrm[:, None, None]
        logs += np.log(nrm)
        xm = x
    growth = logs + np.log(np.linalg.norm(mats, 2, axis=(1, 2)))
    return growth, mats, ~dead


def assert_products_match(sample, energy, thetas, n, kind, zero_guard):
    # an excluded lane's product means nothing: only live lanes are compared
    mats, lognorm, alive = guarded_sweep(sample, energy, thetas, n, kind, zero_guard)
    growth, ref_mats, ref_alive = sequential(sample, energy, thetas, n, kind, zero_guard)
    assert np.array_equal(alive, ref_alive)
    mats, lognorm, ref_mats = mats[alive], lognorm[alive], ref_mats[alive]
    got = lognorm + np.log(np.linalg.norm(mats, 2, axis=(1, 2)))
    assert np.all(np.abs(got - growth[alive]) / np.maximum(1.0, np.abs(growth[alive])) <= 1e-9)
    unit = mats / np.linalg.norm(mats, 2, axis=(1, 2))[:, None, None]
    ref_unit = ref_mats / np.linalg.norm(ref_mats, 2, axis=(1, 2))[:, None, None]
    assert np.all(np.abs(unit - ref_unit) <= 1e-7)
    return alive, growth


lanes_and_sites = st.integers(40, 64).flatmap(
    lambda g: st.tuples(
        st.just(g),
        # two to three whole chunks plus a partial one
        st.integers(2, 3).flatmap(
            lambda j: st.integers(1, SWEEP_CELLS // g - 1).map(
                lambda r: j * (SWEEP_CELLS // g) + r
            )
        ),
    )
)


@examples
@given(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.5), st.floats(0.0, 1.0)),
    st.floats(-4.0, 4.0),
    lanes_and_sites,
    st.floats(0.0, 1.0),
    KINDS,
)
def test_chunked_products_match_sequential(triple, energy, gn, theta0, kind):
    g, n = gn
    assert n % (SWEEP_CELLS // g) != 0
    sample = OperatorSample(CouplingTriple(*triple), golden())
    thetas = (theta0 + np.arange(g) / g) % 1.0
    assert_products_match(sample, energy, thetas, n, kind, 1e-7)


@examples
@given(ZERO_FREE, st.floats(-4.0, 4.0), lanes_and_sites, st.floats(0.0, 1.0))
def test_raw_and_normalized_growths_differ_by_the_end_couplings(triple, energy, gn, theta0):
    # A_norm(th) = sqrt(|c(th)| / |c(th - a)|) * (A_raw(th) up to unitary factors), so
    # over n sites the growths differ by 1/2 log(|c(th - a)| / |c(th + (n-1)a)|)
    g, n = gn
    sample = OperatorSample(CouplingTriple(*triple), golden())
    thetas = (theta0 + np.arange(g) / g) % 1.0
    growth = {}
    for kind in ("raw", "normalized"):
        mats, lognorm, alive = guarded_sweep(sample, energy, thetas, n, kind, 1e-7)
        assert alive.all()
        growth[kind] = lognorm + np.log(np.linalg.norm(mats, 2, axis=(1, 2)))
    alpha = sample.alpha_fraction()
    af = float(alpha)
    before = abs_c_function(sample.coupling, af, (thetas - af) % 1.0)
    end = abs_c_function(sample.coupling, af, (thetas + orbit_phases(0.0, alpha, n - 1, 1)) % 1.0)
    gap = growth["raw"] - growth["normalized"]
    scale = np.maximum(1.0, np.abs(growth["raw"]))
    assert np.max(np.abs(gap - 0.5 * np.log(before / end)) / scale) <= 1e-9


@examples
@given(
    ZERO_COUPLINGS,
    st.floats(-3.0, 3.0),
    st.integers(1000, 1500),
    # about the spread of the lanes' closest approach to a zero over n sites
    st.floats(2e-5, 3e-4),
    KINDS,
)
def test_exclusion_path_matches_sequential(triple, energy, n, zero_guard, kind):
    sample = OperatorSample(CouplingTriple(*triple), golden())
    g = 64
    thetas = (np.arange(g) + 0.5) / g
    alive, growth = assert_products_match(sample, energy, thetas, n, kind, zero_guard)
    excluded = 1.0 - np.count_nonzero(alive) / g
    est = None
    if alive.any():
        with library_guard(zero_guard, max_excluded=1.0):
            est = lyapunov_numeric(sample, energy, n, g, kind)
        assert est.excluded_fraction == excluded
        assert est.value == pytest.approx(float(np.mean(growth[alive])) / n, rel=1e-9)
    with library_guard(zero_guard):
        if excluded > MAX_EXCLUDED or est is None:
            with pytest.raises(TooManyExclusions):
                lyapunov_numeric(sample, energy, n, g, kind)
        else:
            assert lyapunov_numeric(sample, energy, n, g, kind) == est


def test_chunks_shorter_than_a_block_match_sequential():
    # 4096 lanes make chunks of 8 sites, each reduced as one short block; some lanes die
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    thetas = (np.arange(4096) + 0.5) / 4096
    assert SWEEP_CELLS // len(thetas) < SCAN_BLOCK
    for kind in ("raw", "normalized"):
        alive, _ = assert_products_match(sample, 0.3, thetas, 20, kind, 1e-3)
        assert 0 < np.count_nonzero(alive) < len(thetas)


def test_exclusions_present_and_all_lanes_dead_raises():
    # the strategies above must actually reach both sides of the exclusion path
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    thetas = (np.arange(64) + 0.5) / 64
    _, _, alive = guarded_sweep(sample, 0.3, thetas, 1200, "raw", 1.5e-4)
    assert 0 < np.count_nonzero(alive) < 64
    with library_guard(0.05), pytest.raises(TooManyExclusions):
        lyapunov_numeric(sample, 0.3, 1200, 64)


def test_every_lane_excluded_raises_whatever_max_excluded():
    # no lane lives to average over, so there is no estimate to return
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    with library_guard(1e-3, max_excluded=1.0), pytest.raises(TooManyExclusions):
        lyapunov_numeric(sample, 0.3, 1000, 4096)


def test_too_many_exclusions_exactly_past_max_excluded():
    # guards from 1e-6 to 1e-3 exclude from none to all of 64 grid orbits, among them
    # 6 (9.4%) and 7 (10.9%): the estimate is refused exactly past MAX_EXCLUDED = 10%
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    thetas = (np.arange(64) + 0.5) / 64
    shares = []
    for zero_guard in np.geomspace(1e-6, 1e-3, 31):
        _, _, alive = guarded_sweep(sample, 0.3, thetas, 1000, "raw", zero_guard)
        excluded = 1.0 - np.count_nonzero(alive) / 64
        shares.append(excluded)
        with library_guard(zero_guard):
            if excluded > MAX_EXCLUDED:
                with pytest.raises(TooManyExclusions):
                    lyapunov_numeric(sample, 0.3, 1000, 64)
            else:
                assert lyapunov_numeric(sample, 0.3, 1000, 64).excluded_fraction == excluded
    # both sides of the bound are reached, and a share just below and just above it
    assert min(shares) == 0.0 and max(shares) > 2 * MAX_EXCLUDED
    assert any(MAX_EXCLUDED - 1 / 64 < x <= MAX_EXCLUDED for x in shares)
    assert any(MAX_EXCLUDED < x < MAX_EXCLUDED + 1 / 64 for x in shares)


@pytest.mark.parametrize("g", [7, 40, 64])
@pytest.mark.parametrize("kind", ["raw", "normalized"])
@pytest.mark.parametrize("triple", [(0.25, 0.5, 0.25), (0.3, 0.4, 0.3), (0.2, 0.7, 0.5)])
def test_a_live_lane_does_not_depend_on_the_guard(triple, kind, g):
    # lanes are independent: a lane the guard spares is reduced bit for bit as if no
    # lane had been excluded, over two whole chunks and a tail of ragged scan blocks
    sample = OperatorSample(CouplingTriple(*triple), golden())
    n = 2 * (SWEEP_CELLS // g) + 37
    assert n % (SWEEP_CELLS // g) % SCAN_BLOCK != 0
    thetas = (np.arange(g) + 0.5) / g
    mats, lognorm, alive = guarded_sweep(sample, 0.3, thetas, n, kind, 1e-12)
    cut_mats, cut_lognorm, cut_alive = guarded_sweep(sample, 0.3, thetas, n, kind, 0.1 / n)
    if (triple, kind, g) == ((0.25, 0.5, 0.25), "raw", 64):
        assert 0 < np.count_nonzero(cut_alive) < g
    both = alive & cut_alive
    assert np.array_equal(mats[both], cut_mats[both])
    assert np.array_equal(lognorm[both], cut_lognorm[both])


def first_guarded_phase(sample, thetas, n, kind, zero_guard):
    """The phase a site-by-site walk stops at: earliest site, then lowest lane."""
    alpha = sample.alpha_fraction()
    af = float(alpha)
    rows = [(thetas - af) % 1.0] if kind == "normalized" else []
    rows += [(thetas + k) % 1.0 for k in orbit_phases(0.0, alpha, 0, n)]
    for x in rows:
        bad = zero_distance(sample.coupling, af, x) < zero_guard
        if bad.any():
            return float(x[int(np.argmax(bad))])
    return None


@examples
@given(
    ZERO_COUPLINGS,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.integers(1, 3000),
    st.floats(1e-5, 1e-2),
    KINDS,
)
def test_raise_reports_the_per_site_phase(triple, thetas, n, zero_guard, kind):
    sample = OperatorSample(CouplingTriple(*triple), golden())
    thetas = np.array(thetas) % 1.0
    expect = first_guarded_phase(sample, thetas, n, kind, zero_guard)
    if expect is None:
        guarded_sweep(sample, 0.3, thetas, n, kind, zero_guard, on_singular="raise")
        return
    with pytest.raises(SingularSamplingPoint) as err:
        guarded_sweep(sample, 0.3, thetas, n, kind, zero_guard, on_singular="raise")
    assert err.value.theta == expect
    if len(thetas) == 1:
        with library_guard(zero_guard), pytest.raises(SingularSamplingPoint) as err:
            n_step(sample, 0.3, float(thetas[0]), n, kind)
        assert err.value.theta == expect
    if len(thetas) == 1 and kind == "normalized" and n >= 2:
        with library_guard(zero_guard), pytest.raises(SingularSamplingPoint) as err:
            rotation_number(sample, 0.3, n, float(thetas[0]))
        assert err.value.theta == expect


def test_n_step_growth_single_lane_spans_chunks():
    # one lane: the whole orbit is one chunk of up to SWEEP_CELLS sites
    sample = OperatorSample(CouplingTriple(0.1, 0.5, 0.2), golden())
    n = SWEEP_CELLS + 77
    m, lognorm = n_step(sample, 2.9, 0.25, n)
    growth, _, _ = sequential(sample, 2.9, np.array([0.25]), n, "raw", 1e-7)
    assert abs(lognorm + math.log(np.linalg.norm(m, 2)) - growth[0]) <= 1e-9 * growth[0]


def test_phases_on_a_zero_of_c():
    # c vanishes at theta - alpha for lane 0 and at theta for lane 1.  The raw kind
    # guards only the orbit, so lane 0 lives and its boundary phase is 1; the
    # normalized kind excludes it.  Both exclude lane 1.
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    af = sample.alpha_float
    zero = zero_structure(sample.coupling).positions(af)[0]
    thetas = np.array([wrap01(zero + af), zero, 0.3])
    assert not c_function(sample.coupling, af, (thetas[:2] - [af, 0.0]) % 1.0).any()
    for kind, lives in (("raw", [True, False, True]), ("normalized", [False, False, True])):
        alive, _ = assert_products_match(sample, 0.3, thetas, 50, kind, 1e-9)
        assert alive.tolist() == lives


def test_one_patch_of_model_zero_guard_moves_every_guard():
    # the guard is read in one place: patching model.ZERO_GUARD alone, to a value above
    # one grid lane's closest approach to a zero of c, reaches every experiment that divides by c
    sample = OperatorSample(CouplingTriple(0.25, 0.5, 0.25), golden())
    alpha = sample.alpha_fraction()
    g, n = 64, 1000
    thetas = (np.arange(g) + 0.5) / g
    x = (thetas + orbit_phases(0.0, alpha, 0, n)[:, None]) % 1.0
    dist = zero_distance(sample.coupling, float(alpha), x)
    near, second = np.sort(dist.min(axis=0))[:2]
    assert ZERO_GUARD < near < second
    theta = float(x.flat[np.argmin(dist)])
    at = OperatorSample(sample.coupling, sample.alpha, theta)
    calls = {
        "transfer": lambda: transfer(at, 0.3, theta),
        "n_step": lambda: n_step(at, 0.3, theta, 10),
        "rotation_number": lambda: rotation_number(at, 0.3, 10, theta, 0.25),
        "badness_scan": lambda: badness_scan(at, 2.0, 4),
        "perturbation_experiment": lambda: perturbation_experiment(
            at.coupling, at.alpha, Fraction(987, 1597), theta, 4
        ),
    }
    assert lyapunov_numeric(sample, 0.3, n, g).excluded_fraction == 0.0
    for call in calls.values():
        call()  # the library's guard spares the phase
    with mock.patch.object(model, "ZERO_GUARD", math.sqrt(near * second)):
        assert lyapunov_numeric(sample, 0.3, n, g).excluded_fraction == 1 / g
        for call in calls.values():
            with pytest.raises(SingularSamplingPoint):
                call()


# -- the rotation table against the direct evaluation ----------------------------


@pytest.mark.parametrize("chunks", [0, 2])
@pytest.mark.parametrize("kind", ["raw", "normalized"])
@pytest.mark.parametrize("g", [1, 64])
@pytest.mark.parametrize(
    "triple, energy", [((0.1, 0.5, 0.2), 0.3), ((0.3, 0.4, 0.3), -1.1), ((0.1, 2.0, 0.1), 2.5)]
)
def test_rotation_table_matches_the_direct_evaluation(triple, energy, g, kind, chunks):
    # the bound of _sweep_cells' docstring: d_k and c_k within 32 eps M of the direct
    # expressions at the orbit phases, so to first order a, b and c/|c| within
    # that times (1 + |entry|) / |c_k| (b reads c_{k-1} too) and |c| within it
    sample = OperatorSample(CouplingTriple(*triple), golden())
    coupling, af = sample.coupling, sample.alpha_float
    # whole chunks and a ragged tail of 37 sites; alone, the tail is one table block
    n = chunks * (SWEEP_CELLS // g) + 37
    thetas = (np.arange(g) + 0.37) / g
    f = c_function if kind == "raw" else abs_c_function
    ka = orbit_phases(0.0, sample.alpha_fraction(), 0, n)
    x = (thetas + ka[:, None]) % 1.0
    c, c_before = f(coupling, af, x), f(coupling, af, (thetas - af) % 1.0)
    mod = np.abs(c)
    inv = 1.0 / mod
    want = {
        "a": (energy - 2.0 * np.cos(2.0 * np.pi * x)) * inv,
        "b": -np.concatenate([np.abs(c_before)[None], mod[:-1]]) * inv,
        "s": c * inv if kind == "raw" else c,
    }
    # no guard: the cells next to the zeros of (0.3, 0.4, 0.3) are compared too
    with library_guard(0.0):
        cells = _sweep_cells(sample, energy, thetas, n, kind, "exclude")
        chunks = [(a.copy(), b.copy(), s.copy()) for a, b, s, *_ in cells]  # buffers are reused
    got = dict(zip("abs", (np.concatenate(parts) for parts in zip(*chunks))))
    eps = np.finfo(float).eps
    tol = 32 * eps * max(abs(energy) + 2, sum(triple))
    for key in "abs":
        # the first table block is the direct evaluation itself
        assert got[key][:TABLE_BLOCK].tobytes() == want[key][:TABLE_BLOCK].tobytes()
        scale = (1 + np.abs(want[key])) * inv if key != "s" or kind == "raw" else 1.0
        assert np.all(np.abs(got[key] - want[key]) <= tol * scale), key


@pytest.mark.parametrize("g", [1, 5])
@pytest.mark.parametrize("n", [1, 37, TABLE_BLOCK, "chunk"])
@pytest.mark.parametrize("triple", [(0.1, 0.5, 0.2), (0.25, 0.5, 0.25), (0.3, 0.4, 0.3)])
def test_both_kinds_build_the_same_companion_entries(triple, n, g):
    # one modulus, np.abs(c), for both kinds: raw and normalized sweeps reduce
    # the same R_k bit for bit; no guard, so the cells next to the zeros of c compare too
    sample = OperatorSample(CouplingTriple(*triple), golden())
    if n == "chunk":  # one whole chunk and 37 sites of the next
        n = SWEEP_CELLS // g + 37
    thetas = (np.arange(g) + 0.37) / g
    raw = _sweep_cells(sample, 0.3, thetas, n, "raw", "exclude")
    normalized = _sweep_cells(sample, 0.3, thetas, n, "normalized", "exclude")
    chunks = 0
    with library_guard(0.0):
        for (a, b, *_), (na, nb, *_) in zip(raw, normalized, strict=True):
            assert a.tobytes() == na.tobytes() and b.tobytes() == nb.tobytes()
            chunks += 1
    assert chunks == -(-n // (SWEEP_CELLS // g))


# -- rotation numbers against the sitewise angle walk ---------------------------

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def angle_walk(m, y0, branch_tol=1e-9):
    """Sitewise projective walk y -> arg(A_k (cos 2 pi y, sin 2 pi y)) / 2 pi.

    m is an (n, 2, 2) stack.  Returns (value mod 1, stderr) of the principal
    lift increments; one within branch_tol of the cut raises BranchAmbiguity.
    """
    y = float(y0)
    incs = []
    for k, ((a00, a01), (a10, a11)) in enumerate(m.tolist()):
        cy, sy = math.cos(2 * math.pi * y), math.sin(2 * math.pi * y)
        phi = math.atan2(a10 * cy + a11 * sy, a00 * cy + a01 * sy) / (2 * math.pi) - y
        phi -= math.floor(phi + 0.5)
        if abs(abs(phi) - 0.5) < branch_tol:
            raise BranchAmbiguity(f"increment {phi:.12f} at step {k} sits on the branch cut")
        incs.append(phi)
        y = (y + phi) % 1.0
    return float(np.mean(incs)) % 1.0, float(np.std(incs, ddof=1) / math.sqrt(len(incs)))


def branch_step(call):
    """The step index the BranchAmbiguity raised by call() names."""
    with pytest.raises(BranchAmbiguity) as err:
        call()
    return int(re.search(r"at step (\d+) ", str(err.value)).group(1))


def normalized_orbit(sample, energy, theta0, n):
    """Normalized transfer matrices at theta0 + k alpha, k < n, as an (n, 2, 2) stack."""
    alpha = sample.alpha_fraction()
    af = float(alpha)
    x = orbit_phases(theta0, alpha, 0, n)
    c = abs_c_function(sample.coupling, af, x)
    cm = abs_c_function(sample.coupling, af, (x - af) % 1.0)
    s = np.sqrt(c * cm)
    m = np.zeros((n, 2, 2))
    m[:, 0, 0] = (energy - 2.0 * np.cos(2.0 * np.pi * x)) / s
    m[:, 0, 1], m[:, 1, 0] = -cm / s, c / s
    return m


@settings(deadline=None, derandomize=True, max_examples=8)
@given(
    ZERO_FREE,
    st.floats(-4.0, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    # past one chunk of a single lane
    st.integers(SWEEP_CELLS + 1, 2 * SWEEP_CELLS + 100),
)
def test_rotation_number_matches_the_angle_walk(triple, energy, theta0, y0, n):
    sample = OperatorSample(CouplingTriple(*triple), golden())
    assert not zero_structure(sample.coupling).offsets
    m = normalized_orbit(sample, energy, theta0, n)
    try:
        value, stderr = angle_walk(m, y0)
    except BranchAmbiguity:
        walk_step = branch_step(lambda: angle_walk(m, y0))
        assert branch_step(lambda: rotation_number(sample, energy, n, theta0, y0)) == walk_step
        return
    est = rotation_number(sample, energy, n, theta0, y0)
    assert abs((est.value - value + 0.5) % 1.0 - 0.5) <= 1e-12
    assert est.stderr == pytest.approx(stderr, rel=1e-9)


def test_blocked_scan_matches_the_angle_walk_at_ragged_lengths():
    # every length up to three scan blocks and one, and one just past a chunk
    sample = OperatorSample(CouplingTriple(0.1, 0.5, 0.2), golden())
    energy, theta0, y0 = 0.3, 0.135, 0.3

    def schroedinger(theta):
        return np.array([[energy - 2.0 * math.cos(2.0 * math.pi * theta), -1.0], [1.0, 0.0]])

    alpha = _alpha_proxy(golden())
    for n in [*range(2, 3 * SCAN_BLOCK + 2), SWEEP_CELLS + 5]:
        walks = [
            (normalized_orbit(sample, energy, theta0, n),
             lambda: rotation_number(sample, energy, n, theta0, y0)),
            (np.array([schroedinger(x) for x in orbit_phases(theta0, alpha, 0, n)]),
             lambda: rotation_number_map(schroedinger, golden(), n, theta0, y0)),
        ]
        for m, estimate in walks:
            value, stderr = angle_walk(m, y0)
            est = estimate()
            assert abs((est.value - value + 0.5) % 1.0 - 0.5) <= 1e-12, n
            assert est.stderr == pytest.approx(stderr, rel=1e-9), n


@examples
@given(st.floats(0.0, 1.0), st.integers(2, SWEEP_CELLS + 100))
def test_half_turn_branch_step_matches_the_angle_walk(y0, n):
    cocycle = constant_rotation(GOLD, 0.5)
    m = np.array([cocycle.matrix(0.0)] * n)
    step = branch_step(lambda: angle_walk(m, y0))
    assert branch_step(lambda: rotation_number_map(cocycle.matrix, golden(), n, y0=y0)) == step


def test_rotation_number_map_refuses_a_complex_map():
    with pytest.raises(TypeError, match="real"):
        rotation_number_map(lambda theta: np.diag([1j, 1.0]), golden(), 10)


def test_branch_step_counts_sites_across_chunks():
    # a half turn on a short arc, which the orbit from 0 first enters past two chunks
    def half_turn_on_arc(theta):
        return rotation_matrix(0.5 if abs(theta - 0.3) < 8e-6 else 0.2)

    n = 70_000
    alpha = _alpha_proxy(golden())
    m = np.array([half_turn_on_arc(x) for x in orbit_phases(0.0, alpha, 0, n)])
    step = branch_step(lambda: angle_walk(m, 0.0))
    assert step > 2 * SWEEP_CELLS
    assert branch_step(lambda: rotation_number_map(half_turn_on_arc, golden(), n)) == step


@pytest.mark.parametrize("energy", [1e3, 1e4, 1e6, 1e8])
def test_large_energies_match_the_sitewise_oracles(energy):
    # entries reach |E| / |c| = 5e8 here: each block product is rescaled before the
    # blocks are paired, so neither it nor its square leaves the float64 range
    sample = OperatorSample(CouplingTriple(0.1, 0.5, 0.2), golden())
    thetas = (np.arange(4) + 0.5) / 4
    for kind in ("raw", "normalized"):
        _, growth = assert_products_match(sample, energy, thetas, 1000, kind, 1e-7)
        m, lognorm = n_step(sample, energy, float(thetas[0]), 1000, kind)
        assert abs(lognorm + math.log(np.linalg.norm(m, 2)) - growth[0]) <= 1e-9 * growth[0]
        est = lyapunov_numeric(sample, energy, 1000, len(thetas), kind)
        assert est.value == pytest.approx(float(np.mean(growth)) / 1000, rel=1e-9)
    value, stderr = angle_walk(normalized_orbit(sample, energy, 0.125, 1000), 0.3)
    est = rotation_number(sample, energy, 1000, 0.125, 0.3)
    assert abs((est.value - value + 0.5) % 1.0 - 0.5) <= 1e-12
    assert est.stderr == pytest.approx(stderr, rel=1e-9)


@pytest.mark.parametrize(
    "triple, energy",
    [((0.1, 0.5, 0.2), 1e10), ((1e-300, 1e-300, 1e-300), 0.3),
     # a subnormal |c|: 1/|c| overflows, and no numpy warning may leak
     ((0, 1e-310, 0), 0.0), ((1e-320, 1e-320, 1e-320), 0.0)],
)
def test_products_past_the_float_range_raise(triple, energy):
    sample = OperatorSample(CouplingTriple(*triple), golden())
    calls = [
        lambda: lyapunov_numeric(sample, energy, 1000, 2, "raw"),
        lambda: lyapunov_numeric(sample, energy, 1000, 2, "normalized"),
        lambda: n_step(sample, energy, 0.25, 1000),
        lambda: rotation_number(sample, energy, 1000),
    ]
    for call in calls:
        with pytest.raises(FloatRangeExceeded, match=rf"E={energy!r} for .*lambda1={triple[0]!r}"):
            call()


# -- one transfer matrix ------------------------------------------------------------


def test_an_unknown_kind_is_refused():
    sample = OperatorSample(CouplingTriple(0.1, 0.5, 0.2), golden())
    with pytest.raises(ValueError, match="unknown cocycle kind 'complex'"):
        transfer(sample, 0.3, 0.3, "complex")


@pytest.mark.parametrize("kind", ["raw", "normalized"])
def test_transfer_past_the_float_range_raises(kind):
    # E/|c| near 1e310: no numpy warning escapes and no inf or NaN entry comes back
    sample = OperatorSample(CouplingTriple(1e-300, 1e-300, 1e-300), golden())
    with pytest.raises(FloatRangeExceeded, match=r"E=10000000000.0 for .*lambda1=1e-300"):
        transfer(sample, 1e10, 0.3, kind)


@pytest.mark.parametrize("kind", ["raw", "normalized"])
@pytest.mark.parametrize("triple", [(0, 1e-310, 0), (1e-320, 1e-320, 1e-320)])
def test_transfer_at_a_subnormal_coupling_raises(triple, kind):
    # 1/|c| overflows; the warning gate turns a leaked numpy warning into an error
    sample = OperatorSample(CouplingTriple(*triple), golden())
    with pytest.raises(FloatRangeExceeded, match=r"E=0.0 for .*lambda2="):
        transfer(sample, 0.0, 0.3, kind)



def phase_and_predecessor(sample, theta):
    """The phase in [0, 1) a transfer matrix is built at, and the one before it."""
    x = wrap01(theta) % 1.0
    return x, (x - sample.alpha_float) % 1.0


def transfer_oracle(sample, energy, theta, kind):
    """A(theta) by the companion formulas, from c at one phase and its predecessor.

    With a = d/|c| and b = -|c_prev|/|c| for d = E - 2cos 2pi theta: raw is
    [[a w, b w w_prev], [1, 0]] with w = c~/|c|, normalized is
    sqrt(|c|/|c_prev|) [[a, b], [1, 0]].  Each quotient by |c| is a product
    with 1/|c|, as in the sweep, so the two agree bit for bit.
    """
    af = sample.alpha_float
    f = c_function if kind == "raw" else abs_c_function
    x, xm = (np.array([p]) for p in phase_and_predecessor(sample, theta))
    cur, prev = f(sample.coupling, af, x), f(sample.coupling, af, xm)
    mod, mod_prev = np.abs(cur), np.abs(prev)
    inv = 1.0 / mod
    a = (energy - 2.0 * np.cos(2.0 * np.pi * x)) * inv
    b = -mod_prev * inv
    if kind == "raw":
        w, w_prev = np.conj(cur * inv), np.conj(prev * (1.0 / mod_prev))
        m = [[a * w, b * w * w_prev], [np.ones(1, complex), np.zeros(1, complex)]]
    else:
        scale = np.sqrt(mod / mod_prev)
        m = [[scale * a, scale * b], [scale, np.zeros(1)]]
    return np.array(m)[:, :, 0]


@examples
@given(
    st.one_of(ZERO_COUPLINGS, st.just((0.1, 0.5, 0.2)), st.just((0.0, 0.9, 0.0))),
    st.floats(-1.0, 2.0, exclude_max=True),
    st.floats(-4.0, 4.0),
    KINDS,
)
def test_transfer_is_the_per_phase_oracle(triple, theta, energy, kind):
    sample = OperatorSample(CouplingTriple(*triple), golden())
    try:
        m = transfer(sample, energy, theta, kind)
    except SingularSamplingPoint:
        assume(False)
    want = transfer_oracle(sample, energy, theta, kind)
    assert m.dtype == want.dtype and m.shape == (2, 2)
    assert m.tobytes() == want.tobytes()


@examples
@given(
    ZERO_COUPLINGS,
    st.integers(0, 1),
    st.floats(-0.99, 0.99),
    st.integers(-1, 1),
    st.booleans(),
    KINDS,
)
def test_transfer_raises_at_the_oracle_phase(triple, which, offset, turns, on_predecessor, kind):
    # a phase (or its predecessor) a fraction of the guard away from a zero of c
    sample = OperatorSample(CouplingTriple(*triple), golden())
    af = sample.alpha_float
    zeros = zero_structure(sample.coupling).positions(af)
    z = zeros[which % len(zeros)]
    theta = z + offset * ZERO_GUARD + (af if on_predecessor else 0.0) + turns
    x, xm = phase_and_predecessor(sample, theta)
    guarded = [xm, x] if kind == "normalized" else [x]  # the predecessor first
    hits = [p for p in guarded if zero_distance(sample.coupling, af, p) < ZERO_GUARD]
    if not hits:
        assert transfer(sample, 1.0, theta, kind).tobytes() == transfer_oracle(
            sample, 1.0, theta, kind
        ).tobytes()
        return
    with pytest.raises(SingularSamplingPoint) as exc:
        transfer(sample, 1.0, theta, kind)
    assert exc.value.theta == hits[0]


# -- kernel forms pinned to the expressions they replaced -----------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0,
           1 - 2**-53, -(1 - 2**-53), 3.75, -3.75, 2**52 + 0.5, -(2**52 + 0.5), 1e300, -1e300]


def _random_floats(rng, n):
    return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)


def test_floor_wrap_is_mod_one_bit_for_bit():
    # fmod is exact, so x - floor(x) rounds the same exact value that x % 1.0 does
    x = np.concatenate([SPECIAL, _random_floats(np.random.default_rng(5), 4000)])
    assert (x - np.floor(x)).tobytes() == (x % 1.0).tobytes()
    assert (x - np.floor(x))[1] == 0.0 and not np.signbit((x - np.floor(x))[1])  # -0 -> +0


def test_normalize_matches_division_by_the_norm():
    rng = np.random.default_rng(6)
    parts = np.concatenate([SPECIAL, _random_floats(rng, 4000 - len(SPECIAL))])
    real = rng.permutation(parts).reshape(2, 2, 1000)
    # every stack the sweeps normalize is real, and keeps the division itself
    old, new = real.copy(), real.copy()
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        f2 = np.sum(old**2, axis=(0, 1))
        old /= np.sqrt(f2)
        logs = _normalize(new)
    assert new.tobytes() == old.tobytes()
    assert logs.tobytes() == (0.5 * np.log(f2)).tobytes()
