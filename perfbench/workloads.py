"""The three benchmark workloads: seeded inputs, op lists, reference checks.

``setup(name, seed, workdir)`` generates a workload's inputs (forged digit
streams and files, on-spectrum energies, seeded phases and indices) and the
references its checks compare against, and returns the op list.  An op runs
one experiment, through ``harperlab.cli.run(ExperimentConfig)`` where a
subcommand reaches it and by direct call where none does, and its check
raises ``CheckMiss`` when the result misses its reference.  Checks only read
values computed here or in set-up, so they add no traced calls.

Every library call goes through a module attribute (``spectral.decay_fit``,
never a name imported into this file), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from harperlab import cli, cocycle, contfrac, model, spectral

ExperimentConfig = cli.ExperimentConfig

GOLD_ALPHA = contfrac.golden().fraction(min_q=10**14)
EHM = (0.1, 0.5, 0.2)  # the README's extended-Harper coupling
SINGLE_ZERO = (0.25, 0.5, 0.25)
PAIR_ZERO = (0.3, 0.4, 0.3)
DELTA_THETA = 0.135


class CheckMiss(Exception):
    """An op's result missed its reference."""


class CliExit(Exception):
    """The harperlab CLI exited with a nonzero code."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]
    payload: Optional[str] = None  # file the op writes, for cli.payload_bytes
    # a known program defect makes this op fail; its failure is counted in
    # failed_frac but is not a check miss (any other op that raises is one)
    known_defect: Optional[str] = None


def need(cond, msg):
    if not cond:
        raise CheckMiss(msg)


def run_config(**kw):
    return cli.run(ExperimentConfig(**kw))


# -- canonical digests of results ------------------------------------------------


def canonical(obj):
    """JSON-ready form of any op result; big ints as hex (no decimal limit)."""
    import dataclasses

    if isinstance(obj, contfrac.ContinuedFraction):
        return {"digits": [hex(d) for d in obj.digits(obj.depth)],
                "truncated": obj.truncated}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, Fraction):
        return [hex(obj.numerator), hex(obj.denominator)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj) if abs(int(obj)) < 1 << 60 else hex(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def digest_of(result):
    import hashlib

    if isinstance(result, dict) and "result" in result and "meta" in result:
        result = result["result"]  # a cli.run record: meta holds wall time
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- shared helpers ------------------------------------------------------------


def cli_main(argv):
    """Run the harperlab CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_delta_levels(per_level_beta, per_level_delta, label):
    """delta <= beta at every level and within 15% at the deepest (test_05)."""
    for (n, b), (_, d) in zip(per_level_beta, per_level_delta):
        need(d <= b + 1e-12, f"{label}: delta {d} > beta {b} at level {n}")
    b, d = per_level_beta[-1][1], per_level_delta[-1][1]
    need(abs(d - b) <= 0.15 * b, f"{label}: deepest |delta-beta| {abs(d - b):.3g} > 15% of {b:.3g}")


def write_readme_freq(workdir):
    """The README's `forge --base golden --n0 5 --beta 0.5 --levels 3 --out freq.json`."""
    path = os.path.join(workdir, "freq.json")
    run_config(experiment="forge", params={"n0": 5, "beta": 0.5, "levels": 3}, out=path)
    return path


def sample(coupling, alpha, theta=0.0):
    return model.OperatorSample(model.CouplingTriple(*coupling), alpha, theta)


# -- spectra -------------------------------------------------------------------

DUALITY_SIZE, DUALITY_PHASES = 256, 4
DECAY_SIZE = 800
SPECTRUM_SIZE = 512
PERTURB_LEVEL = 15  # window 2*q_15 = 1974 sites
REGULARITY_K = 150


def setup_spectra(rng, workdir):
    from scipy.linalg import eigvalsh_tridiagonal

    freq = write_readme_freq(workdir)
    spec_csv = os.path.join(workdir, "spec.csv")
    theta_dual = float(rng.random())
    g = contfrac.golden()
    p, q = g.convergent(PERTURB_LEVEL)
    size = 2 * q  # window matched to the approximant period, as in test_10
    eig_index = int(rng.integers(size // 4, 3 * size // 4))
    freq_prime = repr(p / q)
    # LAPACK references for the perturbation op's two eigenvalue picks
    tr_p = model.build_truncation(sample(EHM, float(freq_prime), 0.135), 0, size - 1)
    d_p, o_p = tr_p.gauge_symmetric()
    ref_e_prime = float(
        eigvalsh_tridiagonal(d_p, o_p, select="i", select_range=(eig_index, eig_index))[0]
    )
    tr_a = model.build_truncation(sample(EHM, contfrac.golden(), 0.135), 0, size - 1)
    d_a, o_a = tr_a.gauge_symmetric()
    ref_eigs_alpha = eigvalsh_tridiagonal(d_a, o_a)
    ref_eps = abs(float(GOLD_ALPHA - Fraction(float(freq_prime))))

    def duality_cfg(coupling, size, phases, theta, threads=1):
        return dict(experiment="duality", coupling=list(coupling), frequency="golden",
                    theta=theta, threads=threads, params={"size": size, "phases": phases})

    def check_duality(rec, ctx):
        need(rec["result"]["distance"] <= 0.05, f"duality distance {rec['result']['distance']}")

    def check_duality_t2(rec, ctx):
        check_duality(rec, ctx)
        need(rec["result"] == ctx["duality"]["result"], "--threads 2 differs from --threads 1")

    def check_self_dual(rec, ctx):
        need(rec["result"]["distance"] == 0.0, f"self-dual distance {rec['result']['distance']}")

    def check_decay(coupling):
        target = cocycle.lyapunov_formula(model.CouplingTriple(*coupling))

        def check(rec, ctx):
            r = rec["result"]
            need(abs(-r["slope"] - target) <= 0.10 * target, f"decay slope {r['slope']} vs {target}")
            need(r["r2"] >= 0.95, f"decay r2 {r['r2']}")

        return check

    def check_spectrum(count, path=None):
        bound = 2.0 + 2.0 * 0.5

        def check(rec, ctx):
            r = rec["result"]
            need(r["count"] == count, f"spectrum count {r['count']} != {count}")
            need(-bound <= r["min"] <= r["max"] <= bound, "spectrum outside Gershgorin bound")
            if path is not None:
                with open(path) as fh:
                    rows = fh.read().splitlines()
                need(len(rows) == count + 1 and rows[0] == "index,eigenvalue", "bad CSV payload")
            else:
                one = ctx["spectrum"]["result"]
                need(abs(r["min"] - one["min"]) <= 0.05 and abs(r["max"] - one["max"]) <= 0.05,
                     "phase-aggregated spectrum edges drift from the single-phase ones")

        return check

    def check_perturb(rec, ctx):
        r = rec["result"]
        need(abs(r["energy_prime"] - ref_e_prime) <= 1e-8, "E' differs from the LAPACK pick")
        nearest = ref_eigs_alpha[np.argmin(np.abs(ref_eigs_alpha - r["energy_prime"]))]
        need(abs(r["energy"] - nearest) <= 1e-8, "E is not the eigenvalue nearest E'")
        need(abs(r["epsilon"] - ref_eps) <= 1e-6 * ref_eps, "epsilon differs from |alpha - alpha'|")
        need(r["trunc_size"] == size and 0 < r["solution_deviation"] < math.inf,
             "solution deviation not positive and finite")

    reg_sample = sample((0.0, 0.5, 0.0), contfrac.golden(), 0.135)

    def check_regularity(res, ctx):
        need(not res.regular and res.skipped == [], "unattainable rate met, or windows skipped")

    readme_spec = dict(experiment="spectrum", coupling=[0.0, 0.5, 0.0], frequency=freq,
                       params={"size": SPECTRUM_SIZE}, format="csv", out=spec_csv)
    phased_spec = dict(readme_spec, params={"size": SPECTRUM_SIZE, "phases": 8}, out=None)
    return [
        Op("duality", "duality",
           lambda: run_config(**duality_cfg(EHM, DUALITY_SIZE, DUALITY_PHASES, theta_dual)),
           check_duality),
        Op("duality_t2", "duality_t2",
           lambda: run_config(**duality_cfg(EHM, DUALITY_SIZE, DUALITY_PHASES, theta_dual, 2)),
           check_duality_t2),
        Op("duality_self_dual", "duality",
           lambda: run_config(**duality_cfg((0.0, 1.0, 0.0), 128, 2, theta_dual)),
           check_self_dual),
        Op("decay_amo", "decay",
           lambda: run_config(experiment="decay", coupling=[0.0, 0.4, 0.0], theta=0.135,
                              params={"size": DECAY_SIZE}),
           check_decay((0.0, 0.4, 0.0))),
        Op("decay_ehm", "decay",
           lambda: run_config(experiment="decay", coupling=list(EHM), theta=0.135,
                              params={"size": DECAY_SIZE}),
           check_decay(EHM)),
        Op("spectrum", "spectrum", lambda: run_config(**readme_spec),
           check_spectrum(SPECTRUM_SIZE, spec_csv), payload=spec_csv),
        Op("spectrum_phases8", "spectrum", lambda: run_config(**phased_spec),
           check_spectrum(8 * SPECTRUM_SIZE)),
        Op("perturb", "perturb",
           lambda: run_config(experiment="perturb", coupling=list(EHM), theta=0.135,
                              params={"freq_prime": freq_prime, "N": 20, "size": size,
                                      "eig_index": eig_index}),
           check_perturb),
        Op("regularity", "regularity",
           lambda: spectral.regularity_test(reg_sample, 0.3, 0, 50.0, REGULARITY_K),
           check_regularity),
    ]


# -- cocycles ------------------------------------------------------------------

LE_STEPS, LE_LANES = 30000, 64
LE_ZERO_STEPS, LE_ZERO_LANES = 20000, 32
NSTEP_STEPS = 20000
ROTATION_STEPS = 100000
BADNESS_N = 32


def _median_energy(coupling, alpha, theta=0.0, size=512):
    """The CLI's `--E auto`: the median eigenvalue of a size-512 truncation."""
    spec = spectral.truncated_spectrum(sample(coupling, alpha, theta), size)
    return float(spec.eigenvalues[size // 2])


def setup_cocycles(rng, workdir):
    freq = write_readme_freq(workdir)
    with open(freq) as fh:
        readme_cf = contfrac.ContinuedFraction.from_json(fh.read())
    e_ehm = _median_energy(EHM, contfrac.golden())
    e_zero = _median_energy((0.25, 1.0, 0.25), contfrac.golden())
    y0_readme = [float(v) for v in rng.random(2)]
    y0_sweep = [float(v) for v in rng.random(8)]
    # badness energies: the grid badness_scan would draw (README config) ...
    bad_sample = sample((0.0, 0.5, 0.0), readme_cf)
    size = max(4 * BADNESS_N, 256)
    spec = spectral.truncated_spectrum(bad_sample, size).eigenvalues
    idx = np.unique(np.round(np.linspace(0, size - 1, 8)).astype(int))
    grid = [float(spec[i]) for i in idx]
    # ... and test_09's golden eigenvalues whose eigenvectors sit at the origin
    loc_sample = sample((0.0, 0.5, 0.0), contfrac.golden(), 0.135)
    tr = model.build_truncation(loc_sample, -256, 255)
    d, b = tr.gauge_symmetric()
    from scipy.linalg import eigh_tridiagonal

    vals, vecs = eigh_tridiagonal(d, b)
    near = [float(vals[i]) for i in range(len(vals))
            if abs(int(np.argmax(np.abs(vecs[:, i]))) + tr.x1) <= 2][:2]
    l_ehm = cocycle.lyapunov_formula(model.CouplingTriple(*EHM))

    def check_le(rec, ctx):
        v, f = rec["result"]["estimate"]["value"], rec["result"]["formula"]
        need(abs(v - f) <= 0.02 * f, f"le {v} vs formula {f}")

    def check_le_boundary(rec, ctx):
        need(rec["result"]["formula"] == 0.0, "boundary formula not exactly 0")
        need(rec["result"]["estimate"]["value"] <= 0.05, "boundary le above 0.05")

    def run_n_step():
        return cocycle.n_step(sample(EHM, contfrac.golden()), e_ehm, 0.0, NSTEP_STEPS)

    def check_n_step(res, ctx):
        mat, lognorm = res
        v = (lognorm + math.log(np.linalg.norm(mat, 2))) / NSTEP_STEPS
        need(abs(v - l_ehm) <= 0.02 * l_ehm, f"n_step growth {v} vs formula {l_ehm}")

    def rotation_readme(y0):
        return run_config(experiment="rotation", coupling=[0.1, 2.0, 0.1],
                          params={"E": 1.0, "n": ROTATION_STEPS, "y0": y0})

    def check_rotation_pair(rec, ctx):
        a, b = ctx["rotation_a"]["result"], rec["result"]
        spread = abs(a["value"] - b["value"])
        need(spread <= 3 * max(a["stderr"], b["stderr"]), f"README rotation y0 spread {spread}")

    def run_rotation_sweep():
        s = sample((0.1, 2.0, 0.1), contfrac.golden(), 0.135)
        return [cocycle.rotation_number(s, 1.667, n_steps=20000, y0=y) for y in y0_sweep]

    def check_rotation_sweep(ests, ctx):
        spread = max(e.value for e in ests) - min(e.value for e in ests)
        need(spread <= 3 * max(e.stderr for e in ests), f"test_08 y0 spread {spread}")

    def check_badness_min(rep, ctx):
        need(rep.min_mass >= 1.0, f"window mass {rep.min_mass} < 1")

    def check_badness_golden(rep, ctx):
        need(rep.verdict == "not_bad" and rep.min_mass < 9.0, "golden near-origin turned bad")

    return [
        Op("le", "le",
           lambda: run_config(experiment="le", coupling=list(EHM),
                              params={"E": e_ehm, "n": LE_STEPS, "grid": LE_LANES}),
           check_le),
        Op("le_zero_normalized", "le",
           lambda: run_config(experiment="le", coupling=[0.25, 1.0, 0.25],
                              params={"E": e_zero, "n": LE_ZERO_STEPS, "grid": LE_ZERO_LANES,
                                      "kind": "normalized"}),
           check_le_boundary),
        Op("n_step", "n_step", run_n_step, check_n_step),
        Op("rotation_a", "rotation", lambda: rotation_readme(y0_readme[0]), lambda r, c: None),
        Op("rotation_b", "rotation", lambda: rotation_readme(y0_readme[1]), check_rotation_pair),
        Op("rotation_sweep", "rotation", run_rotation_sweep, check_rotation_sweep),
        Op("badness", "badness",
           lambda: spectral.badness_scan(bad_sample, C=3.0, N=BADNESS_N, energies=grid,
                                         refine=True),
           check_badness_min),
        Op("badness_golden", "badness",
           lambda: spectral.badness_scan(loc_sample, C=3.0, N=BADNESS_N, energies=near,
                                         refine=True),
           check_badness_golden),
    ]


# -- arithmetic ----------------------------------------------------------------

# (label, n0, beta, cohomology?, commutant bandwidth, DC scan K); the scans
# shrink as q grows so that each costs about the same
STREAMS = [
    ("readme", 5, 0.5, True, 10_000, 1000),
    ("n0_20", 20, 0.5, True, 500, 500),
    ("n0_24", 24, 0.5, True, 30, 50),
    ("n0_26", 26, 0.5, False, 5, 15),
]
# the CLI cannot write or read a digit above this many decimal places
CLI_DIGIT_LIMIT = 10**4300
COHOMOLOGY_K = 200
ROUND_TRIPS = [("readme", 5, 0.5), ("n0_20", 20, 0.5), ("n0_22", 22, 1.0)]


def _divisors(cf):
    """e^{2 pi i k alpha} - 1 for |k| <= K at the solver's rational proxy, exactly reduced."""
    a = cf.fraction(min_q=max(10**9, 100 * COHOMOLOGY_K))
    ks = range(-COHOMOLOGY_K, COHOMOLOGY_K + 1)
    turns = np.array([float(k * a - math.floor(k * a)) for k in ks])
    return np.exp(2j * np.pi * turns) - 1.0


def _phi_modes(K):
    phi = np.exp(-0.4 * np.abs(np.arange(-K, K + 1))).astype(complex)
    phi[K] = 0.0
    return phi


def setup_arithmetic(rng, workdir):
    rho = float(contfrac.silver().fraction(10**9)) / 2
    phi = _phi_modes(COHOMOLOGY_K)
    phi_path = os.path.join(workdir, "phi.json")
    with open(phi_path, "w") as fh:
        fh.write(cocycle.fourier_to_json(phi))
    ops = []
    for label, n0, beta, cohom, bandwidth, dc_k in STREAMS:
        sched = contfrac.ConstantBeta(beta)
        cf = contfrac.forge(contfrac.golden(), n0=n0, schedule=sched, levels=3)
        digits = cf.digits(cf.depth)
        depth = cf.depth
        path = None
        if max(digits) < CLI_DIGIT_LIMIT:
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w") as fh:
                fh.write(cf.to_json())
        divisors = _divisors(cf) if cohom else None
        ops += _stream_ops(label, n0, beta, digits, depth, path, cohom, bandwidth, dc_k,
                           rho, phi, phi_path, divisors)
    for label, n0, beta in ROUND_TRIPS:
        cf = contfrac.forge(contfrac.golden(), n0=n0, schedule=contfrac.ConstantBeta(beta),
                            levels=3)
        ops.append(_round_trip_op(label, n0, beta, cf.depth, max(cf.digits(cf.depth)), workdir))
    return ops


def _circle_dist(t):
    return np.abs(t - np.round(t))


def _dc_reference(alpha, shift, ks, tau=2.0, gamma=0.05):
    """(holds, first violating k) of a DC scan over ks, in floating point."""
    ks = np.asarray(ks)
    bad = np.flatnonzero(_circle_dist(shift - ks * alpha) < gamma / (np.abs(ks) + 1.0) ** tau)
    return (True, None) if len(bad) == 0 else (False, int(ks[bad[0]]))


def _commutant_reference(alpha, rho, bandwidth):
    """Smallest divisor 2 sin(pi ||k alpha -+ 2 rho||) over |k| <= bandwidth."""
    ks = np.arange(-bandwidth, bandwidth + 1)
    return float(min(np.min(2.0 * np.sin(np.pi * _circle_dist(ks * alpha - s * 2 * rho)))
                     for s in (+1, -1)))


def _check_forged(digits, n0, beta):
    """First n0 digits golden; each forged digit is floor(e^(beta q_{n-1}))."""
    q_prev, q_cur = 0, 1
    for n, a in enumerate(digits, start=1):
        if n <= n0:
            need(a == 1, f"base digit a_{n} = {a} is not golden")
        else:
            t = beta * q_cur
            slack = 1e-12 * t
            need(math.log(a) <= t + slack and math.log(a + 1) >= t - slack,
                 f"forged digit a_{n} is not floor(e^(beta q_{n - 1}))")
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def _stream_ops(label, n0, beta, digits, depth, path, cohom, bandwidth, dc_k,
                rho, phi, phi_path, divisors):
    def fresh():
        return contfrac.from_digits(digits, origin=label)

    def check_forge_record(rec, ctx):
        got = [int(s) for s in rec["result"]["digits"]]
        need(got == digits, f"{label}: forged digits differ from set-up")
        _check_forged(got, n0, beta)

    def check_forge_cf(cf, ctx):
        need(cf.digits(cf.depth) == digits, f"{label}: forged digits differ from set-up")
        _check_forged(cf.digits(cf.depth), n0, beta)

    def check_delta_record(rec, ctx):
        rows = rec["result"]["per_level"]
        check_delta_levels([(r["level"], r["beta"]) for r in rows],
                           [(r["level"], r["delta"]) for r in rows], label)

    def check_delta_direct(res, ctx):
        (_, dlevels), fe = res
        check_delta_levels(fe.per_level, dlevels, label)

    def check_cohomology(psi):
        back = np.asarray(psi) * divisors
        err = float(np.max(np.abs(back - phi)) / np.max(np.abs(phi)))
        need(err <= 1e-12, f"{label}: cohomological round trip {err:.2e}")

    alpha = float(contfrac.from_digits(digits).fraction(min_q=10**20))
    ref_min_divisor = _commutant_reference(alpha, rho, bandwidth)
    ref_dc = _dc_reference(alpha, 0.0, range(1, dc_k + 1))
    ref_dca = _dc_reference(alpha, 2 * DELTA_THETA, sorted(range(-dc_k, dc_k + 1), key=abs))

    def check_commutant(rep):
        rep = rep if isinstance(rep, dict) else rep.__dict__
        need(rep["modes_checked"] == 2 * (2 * bandwidth + 1), f"{label}: commutant scan incomplete")
        need(abs(rep["min_divisor"] - ref_min_divisor) <= 1e-6 * ref_min_divisor,
             f"{label}: commutant min divisor {rep['min_divisor']} vs {ref_min_divisor}")

    def check_dc(res, ctx):
        dc, dca = res
        need((dc.holds, dc.k) == ref_dc, f"{label}: DC verdict {dc} vs {ref_dc}")
        need((dca.holds, dca.k) == ref_dca, f"{label}: DC_alpha verdict {dca} vs {ref_dca}")

    ops = []
    couplings = [("single_zero", SINGLE_ZERO), ("pair_zero", PAIR_ZERO)]
    if path is not None:
        ops.append(Op(f"forge_{label}", "forge",
                      lambda: run_config(experiment="forge",
                                         params={"n0": n0, "beta": beta, "levels": 3}),
                      check_forge_record))
        for cname, cpl in couplings:
            ops.append(Op(f"delta_{label}_{cname}", "delta",
                          lambda cpl=cpl: run_config(experiment="delta", coupling=list(cpl),
                                                     frequency=path, theta=DELTA_THETA,
                                                     params={"depth": depth}),
                          check_delta_record))
        if cohom:
            ops.append(Op(f"cohomology_{label}", "cohomology",
                          lambda: run_config(experiment="cohomology", frequency=path,
                                             params={"phi": phi_path, "smax": 3}),
                          lambda rec, ctx: check_cohomology(
                              [complex(re, im) for re, im in rec["result"]["psi_hat"]])))
        ops.append(Op(f"commutant_{label}", "commutant",
                      lambda: run_config(experiment="commutant", frequency=path,
                                         params={"rho": "silver/2", "bandwidth": bandwidth,
                                                 "gamma": 0.05}),
                      lambda rec, ctx: check_commutant(rec["result"])))
    else:
        ops.append(Op(f"forge_{label}", "forge",
                      lambda: contfrac.forge(contfrac.golden(), n0=n0,
                                             schedule=contfrac.ConstantBeta(beta), levels=3),
                      check_forge_cf))
        for cname, cpl in couplings:
            def run_delta(cpl=cpl):
                cf = fresh()
                c = model.CouplingTriple(*cpl)
                return (spectral.delta_exponent(c, cf, DELTA_THETA, depth),
                        contfrac.beta_exponent(cf, depth))

            ops.append(Op(f"delta_{label}_{cname}", "delta", run_delta, check_delta_direct))
        if cohom:
            ops.append(Op(f"cohomology_{label}", "cohomology",
                          lambda: cocycle.solve_cohomological(phi, fresh(), s_max=3),
                          lambda res, ctx: check_cohomology(res[0])))
        ops.append(Op(f"commutant_{label}", "commutant",
                      lambda: cocycle.commutant_rigidity_check(rho, fresh(), bandwidth=bandwidth,
                                                               tau=2.0, gamma=0.05),
                      lambda rep, ctx: check_commutant(rep)))

    def run_dc():
        cf = fresh()
        return (contfrac.dc_membership(cf, 2.0, 0.05, dc_k),
                contfrac.dc_alpha_membership(DELTA_THETA, cf, 2.0, 0.05, dc_k))

    ops.append(Op(f"dc_{label}", "dc", run_dc, check_dc))
    return ops


def _round_trip_op(label, n0, beta, depth, max_digit, workdir):
    """`forge --out file` then `delta --freq file`, through the CLI parser."""
    path = os.path.join(workdir, f"roundtrip_{label}.json")

    def run():
        if os.path.exists(path):
            os.remove(path)
        rc, _, err = cli_main(["forge", "--n0", str(n0), "--beta", str(beta),
                               "--levels", "3", "--out", path])
        if rc != 0:
            raise CliExit(f"forge exit {rc}: {err.strip()}")
        rc, out, err = cli_main(["delta", "--coupling", ",".join(map(str, SINGLE_ZERO)),
                                 "--freq", path, "--theta", str(DELTA_THETA),
                                 "--depth", str(depth)])
        if rc != 0:
            raise CliExit(f"delta exit {rc}: {err.strip()}")
        return json.loads(out)

    def check(rec, ctx):
        rows = rec["result"]["per_level"]
        check_delta_levels([(r["level"], r["beta"]) for r in rows],
                           [(r["level"], r["delta"]) for r in rows], f"roundtrip {label}")

    # a digit above 4300 decimal places trips Python's int<->str conversion
    # limit inside the CLI: `forge --out` exits 2 with a "validation error"
    defect = "CLI int/str conversion limit (4300 digits)" if max_digit >= CLI_DIGIT_LIMIT else None
    return Op(f"roundtrip_{label}", "cli_roundtrip", run, check, payload=path,
              known_defect=defect)


SETUPS = {
    "spectra": setup_spectra,
    "cocycles": setup_cocycles,
    "arithmetic": setup_arithmetic,
}


def setup(name, seed, workdir):
    rng = np.random.default_rng(seed)
    return SETUPS[name](rng, workdir)
