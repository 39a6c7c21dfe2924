"""Experiment driver: declarative configs, reproducible runs, verify suites.

Every experiment of the library is reachable as a subcommand; runs emit a
deterministic result record (JSON) plus an optional payload file (CSV or
JSON).  ``verify`` replays a suite of configs against expected values with
tolerances and reports a PASS/FAIL table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__, cocycle, contfrac, model, spectral
from .errors import HarperlabError, InvalidCoupling

EXPERIMENTS = (
    "le",
    "spectrum",
    "duality",
    "forge",
    "delta",
    "badness",
    "decay",
    "rotation",
    "perturb",
    "cohomology",
    "commutant",
)

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Stable byte-identical JSON: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class ExperimentConfig:
    """Declarative description of one run; round-trips byte-identically."""

    experiment: str
    coupling: Optional[list] = None
    frequency: str = "golden"
    theta: float = 0.0
    params: dict = field(default_factory=dict)
    out: Optional[str] = None
    format: str = "json"
    seed: int = 0
    threads: int = 1
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        return cls(**data)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidCoupling(f"unknown experiment {self.experiment!r}")
        if self.format not in ("csv", "json"):
            raise InvalidCoupling(f"unknown format {self.format!r}")
        if self.threads < 1:
            raise InvalidCoupling("threads must be >= 1")


def sweep_seeds(seed: int, count: int) -> list:
    """Expand one 64-bit seed into per-sweep seeds, counter-based (Philox)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]


def resolve_frequency_spec(spec: str):
    """--freq argument: decimal literal, named constant, or digit-file path."""
    if spec == "golden":
        return contfrac.golden()
    if spec == "silver":
        return contfrac.silver()
    try:
        val = float(spec)
    except ValueError:
        with open(spec) as fh:
            return contfrac.ContinuedFraction.from_json(fh.read(), origin=spec)
    if not 0 < val < 1:
        raise InvalidCoupling(f"frequency literal {spec} outside (0,1)")
    return val


def _coupling(cfg: ExperimentConfig) -> model.CouplingTriple:
    if cfg.coupling is None:
        raise InvalidCoupling("experiment requires --coupling l1,l2,l3")
    return model.CouplingTriple(*cfg.coupling)


def _sample(cfg: ExperimentConfig) -> model.OperatorSample:
    return model.OperatorSample(
        _coupling(cfg), resolve_frequency_spec(cfg.frequency), cfg.theta
    )


def _auto_energy(sample: model.OperatorSample, size: int = 512) -> float:
    """Mid-spectrum proxy: the median eigenvalue of a size-512 truncation."""
    spec = spectral.truncated_spectrum(sample, size)
    return float(spec.eigenvalues[size // 2])


# -- experiment runners (name -> (result dict, payload rows or None)) ---------


def _run_le(cfg):
    p = cfg.params
    sample = _sample(cfg)
    energy = p.get("E", "auto")
    energy = _auto_energy(sample) if energy == "auto" else float(energy)
    est = cocycle.lyapunov_numeric(
        sample,
        energy,
        n_steps=int(p.get("n", 100000)),
        theta_grid=int(p.get("grid", 64)),
        kind=p.get("kind", "raw"),
    )
    formula = cocycle.lyapunov_formula(sample.coupling)
    l1, l2, l3 = sample.coupling.astuple()
    row = {
        "lambda1": l1,
        "lambda2": l2,
        "lambda3": l3,
        "alpha": sample.alpha_float,
        "E": energy,
        "n": est.n_steps,
        "grid": est.theta_grid,
        "value": est.value,
        "stderr": est.stderr,
        "excluded": est.excluded_fraction,
    }
    warnings = []
    if est.excluded_fraction >= 0.01:
        warnings.append(f"zero-guard exclusions at {est.excluded_fraction:.2%}")
    return {"estimate": row, "formula": formula}, [row], warnings


def _run_spectrum(cfg):
    p = cfg.params
    sample = _sample(cfg)
    size = int(p.get("size", 512))
    nphases = int(p.get("phases", 1))
    phases = None if nphases <= 1 else list((np.arange(nphases) + 0.5) / nphases)
    spec = spectral.truncated_spectrum(sample, size, phases, threads=cfg.threads)
    rows = [
        {"index": i, "eigenvalue": float(v)} for i, v in enumerate(spec.eigenvalues)
    ]
    result = {
        "size": spec.size,
        "count": len(spec.eigenvalues),
        "phases": spec.phases,
        "method": spec.method,
        "min": float(spec.eigenvalues[0]),
        "max": float(spec.eigenvalues[-1]),
        "median": float(spec.eigenvalues[len(spec.eigenvalues) // 2]),
    }
    return result, rows, []


def _run_duality(cfg):
    p = cfg.params
    dist, rep = spectral.duality_check(
        _coupling(cfg),
        resolve_frequency_spec(cfg.frequency),
        size=int(p.get("size", 512)),
        phases=int(p.get("phases", 16)),
        theta0=cfg.theta,
        seed=cfg.seed if p.get("seeded_phases") else None,
        threads=cfg.threads,
    )
    result = {
        "distance": dist,
        "size": rep.size,
        "phases": len(rep.phases),
        "dual_coupling": list(rep.dual_coupling),
        "scale": rep.scale,
        "boundary_filtered": list(rep.boundary_filtered),
    }
    return result, None, []


def _run_forge(cfg):
    p = cfg.params
    base = resolve_frequency_spec(p.get("base", "golden"))
    if not isinstance(base, contfrac.ContinuedFraction):
        base = contfrac.expand(base, max_depth=int(p.get("base_depth", 40)))
    kind = p.get("schedule", "constant")
    beta = float(p.get("beta", 0.5))
    if kind == "constant":
        schedule = contfrac.ConstantBeta(beta)
    elif kind == "burst":
        schedule = contfrac.SingleBurst(beta, tail=int(p.get("tail", 1)))
    else:
        raise InvalidCoupling(f"unknown schedule {kind!r}")
    cf = contfrac.forge(
        base,
        n0=int(p.get("n0", 5)),
        schedule=schedule,
        levels=int(p.get("levels", 3)),
        cap_decimal=int(p.get("cap", contfrac.DIGIT_CAP_DECIMAL)),
    )
    digits = [contfrac.int_to_decimal(a) for a in cf.digits(cf.depth)]
    result = {
        "digits": digits,
        "depth": cf.depth,
        "truncated": cf.truncated,
        "q_tail_log": contfrac.log_of_int(cf.q(cf.depth)),
    }
    warnings = ["digit cap reached; stream truncated"] if cf.truncated else []
    return result, digits, warnings


def _run_delta(cfg):
    p = cfg.params
    cpl = _coupling(cfg)
    freq = resolve_frequency_spec(cfg.frequency)
    if not isinstance(freq, contfrac.ContinuedFraction):
        freq = contfrac.expand(freq, max_depth=int(p.get("depth", 20)) + 1, partial=True)
    depth = int(p.get("depth", min(freq.depth, 20)))
    warnings = []
    try:
        freq.ensure(depth)
    except HarperlabError:
        warnings.append(
            f"digit stream ends at depth {freq.depth}; clamped from {depth}"
        )
        depth = freq.depth
    warmup = int(p.get("warmup", 1))
    dest, dlevels = spectral.delta_exponent(cpl, freq, cfg.theta, depth, warmup)
    fe = contfrac.beta_exponent(freq, depth, warmup)
    rows = [
        {"level": n, "beta": b, "delta": d}
        for (n, b), (_, d) in zip(fe.per_level, dlevels)
    ]
    result = {
        "delta_estimate": dest,
        "beta_estimate": fe.beta_estimate,
        "depth": depth,
        "warmup": warmup,
        "per_level": rows,
    }
    return result, rows, warnings


def _run_badness(cfg):
    p = cfg.params
    rep = spectral.badness_scan(
        _sample(cfg),
        C=float(p.get("C", 3.0)),
        N=int(p.get("N", 16)),
        E_count=int(p.get("E_count", 8)),
        angles=int(p.get("angles", 64)),
        refine=bool(p.get("refine", False)),
    )
    return asdict(rep), None, []


def _run_decay(cfg):
    p = cfg.params
    fit = spectral.decay_fit(
        _sample(cfg),
        size=int(p.get("size", 800)),
        which_eigenvector=p.get("which", "auto"),
    )
    return asdict(fit), None, []


def _run_rotation(cfg):
    p = cfg.params
    sample = _sample(cfg)
    energy = p.get("E", "auto")
    energy = _auto_energy(sample) if energy == "auto" else float(energy)
    est = cocycle.rotation_number(
        sample,
        energy,
        n_steps=int(p.get("n", 100000)),
        theta0=float(p.get("theta0", cfg.theta)),
        y0=float(p.get("y0", 0.0)),
    )
    warnings = ["Birkhoff averages not decaying like n^-1/2"] if est.nonergodic_flag else []
    return {"E": energy, **asdict(est)}, None, warnings


def _run_perturb(cfg):
    p = cfg.params
    rep = spectral.perturbation_experiment(
        _coupling(cfg),
        resolve_frequency_spec(cfg.frequency),
        resolve_frequency_spec(str(p.get("freq_prime"))),
        cfg.theta,
        N=int(p.get("N", 20)),
        trunc_size=int(p["size"]) if "size" in p else None,
        eig_index=p.get("eig_index", "median"),
    )
    return asdict(rep), None, []


def _run_cohomology(cfg):
    p = cfg.params
    phi_spec = p.get("phi", "cos")
    if phi_spec == "cos":
        phi = np.array([0.5, 0.0, 0.5], dtype=complex)  # cos(2 pi theta)
    else:
        with open(phi_spec) as fh:
            phi = cocycle.fourier_from_json(fh.read())
    psi, report = cocycle.solve_cohomological(
        phi,
        resolve_frequency_spec(cfg.frequency),
        s_max=int(p.get("smax", 3)),
    )
    result = {
        "psi_hat": json.loads(cocycle.fourier_to_json(psi)),
        "norm_totals": report.totals,
        "block_bounds": report.block_bounds,
        "block_sums": report.block_sums,
        "min_divisor": report.min_divisor,
    }
    return result, None, []


def _run_commutant(cfg):
    p = cfg.params
    rho_spec = str(p.get("rho", "0.25"))
    if rho_spec.endswith("/2"):
        base = resolve_frequency_spec(rho_spec[:-2])
        if isinstance(base, contfrac.ContinuedFraction):
            rho = base.fraction(min_q=10**9) / 2
        else:
            rho = float(base) / 2
    else:
        rho = float(rho_spec)
    rep = cocycle.commutant_rigidity_check(
        rho,
        resolve_frequency_spec(cfg.frequency),
        bandwidth=int(p.get("bandwidth", 1000)),
        tau=float(p.get("tau", 2.0)),
        gamma=float(p.get("gamma", 1e-3)),
    )
    return asdict(rep), None, []


_RUNNERS = {
    "le": _run_le,
    "spectrum": _run_spectrum,
    "duality": _run_duality,
    "forge": _run_forge,
    "delta": _run_delta,
    "badness": _run_badness,
    "decay": _run_decay,
    "rotation": _run_rotation,
    "perturb": _run_perturb,
    "cohomology": _run_cohomology,
    "commutant": _run_commutant,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns the full result record."""
    config.validate()
    t0 = time.perf_counter()
    result, payload, warnings = _RUNNERS[config.experiment](config)
    record = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config.config_hash(),
        "version": __version__,
        "experiment": config.experiment,
        "config": json.loads(config.to_json()),
        "result": result,
        "warnings": warnings,
        "meta": {"wall_time_s": time.perf_counter() - t0},
    }
    if config.out:
        _write_payload(config, result, payload)
    return record


def _write_payload(config, result, payload):
    if config.experiment == "forge":
        # digit streams are always JSON arrays of decimal strings
        with open(config.out, "w") as fh:
            fh.write(json.dumps(payload))
        return
    if config.format == "csv" and payload is not None:
        cols = list(payload[0].keys())
        lines = [",".join(cols)]
        for row in payload:
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
        with open(config.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        with open(config.out, "w") as fh:
            fh.write(canonical_json(result))


# -- verify suites -------------------------------------------------------------


def _lookup(record: dict, path: str):
    cur = record
    for part in path.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        else:
            cur = cur[part]
    return cur


def verify(suite_path: str, stream=None) -> int:
    """Run a suite of configs with expectations; return count of failures."""
    if stream is None:
        stream = sys.stdout
    with open(suite_path) as fh:
        suite = json.load(fh)
    entries = suite.get("suite", [])
    if not entries:
        stream.write("WARNING: empty suite, vacuous PASS\n")
        return 0
    failures = 0
    width = max(len(e.get("name", "?")) for e in entries)
    for entry in entries:
        name = entry.get("name", "?")
        cfg = ExperimentConfig(**entry["config"])
        try:
            record = run(cfg)
        except HarperlabError as exc:
            expected_error = entry.get("expect_error")
            if expected_error and type(exc).__name__ == expected_error:
                stream.write(f"PASS  {name:<{width}}  raised {expected_error}\n")
                continue
            stream.write(f"FAIL  {name:<{width}}  error {type(exc).__name__}: {exc}\n")
            failures += 1
            continue
        ok = True
        notes = []
        for path, expect in entry.get("expect", {}).items():
            got = _lookup(record, path)
            if "equals" in expect:
                good = got == expect["equals"]
            else:
                good = abs(float(got) - float(expect["value"])) <= float(
                    expect.get("tol", 0.0)
                )
            notes.append(f"{path}={got!r}")
            ok &= good
        stream.write(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {'; '.join(notes)}\n")
        failures += 0 if ok else 1
    return failures


# -- argument parsing ------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--coupling", help="l1,l2,l3")
    sp.add_argument("--freq", default="golden", help="decimal, golden, silver, or digit-file path")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--out", help="payload output path")
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)


def _param_args(sp, names):
    for name, kwargs in names.items():
        sp.add_argument(f"--{name}", **kwargs)


_PARAM_SPECS = {
    "le": {"E": {"default": "auto"}, "n": {"type": int, "default": 100000},
           "grid": {"type": int, "default": 64}, "kind": {"default": "raw"}},
    "spectrum": {"size": {"type": int, "default": 512}, "phases": {"type": int, "default": 1}},
    "duality": {"size": {"type": int, "default": 512}, "phases": {"type": int, "default": 16},
                "seeded-phases": {"action": "store_true", "dest": "seeded_phases"}},
    "forge": {"base": {"default": "golden"}, "n0": {"type": int, "default": 5},
              "schedule": {"default": "constant"}, "beta": {"type": float, "default": 0.5},
              "levels": {"type": int, "default": 3}, "tail": {"type": int, "default": 1},
              "cap": {"type": int}},
    "delta": {"depth": {"type": int, "default": 12}, "warmup": {"type": int, "default": 1}},
    "badness": {"C": {"type": float, "default": 3.0}, "N": {"type": int, "default": 16},
                "E-count": {"type": int, "default": 8, "dest": "E_count"},
                "angles": {"type": int, "default": 64},
                "refine": {"action": "store_true"}},
    "decay": {"size": {"type": int, "default": 800}, "which": {"default": "auto"}},
    "rotation": {"E": {"default": "auto"}, "n": {"type": int, "default": 100000},
                 "theta0": {"type": float, "default": 0.0}, "y0": {"type": float, "default": 0.0}},
    "perturb": {"freq-prime": {"dest": "freq_prime", "required": True},
                "N": {"type": int, "default": 20}, "size": {"type": int},
                "eig-index": {"dest": "eig_index", "default": "median"}},
    "cohomology": {"phi": {"default": "cos"}, "smax": {"type": int, "default": 3}},
    "commutant": {"rho": {"default": "0.25"}, "bandwidth": {"type": int, "default": 1000},
                  "tau": {"type": float, "default": 2.0}, "gamma": {"type": float, "default": 1e-3}},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harperlab",
        description="extended Harper model experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        _add_common(sp)
        _param_args(sp, _PARAM_SPECS.get(name, {}))
    vp = sub.add_parser("verify")
    vp.add_argument("suite", help="JSON suite of configs with expectations")
    rp = sub.add_parser("run-config")
    rp.add_argument("config", help="JSON ExperimentConfig file")
    return parser


def config_from_args(args) -> ExperimentConfig:
    known = {"command", "coupling", "freq", "theta", "out", "format", "seed", "threads"}
    params = {
        k: v for k, v in vars(args).items() if k not in known and v is not None
    }
    coupling = None
    if args.coupling:
        coupling = [float(x) for x in args.coupling.split(",")]
    return ExperimentConfig(
        experiment=args.command,
        coupling=coupling,
        frequency=args.freq,
        theta=args.theta,
        params=params,
        out=args.out,
        format=args.format,
        seed=args.seed,
        threads=args.threads,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        try:
            failures = verify(args.suite)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"suite error: {exc}", file=sys.stderr)
            return 2
        return 1 if failures else 0
    try:
        if args.command == "run-config":
            with open(args.config) as fh:
                config = ExperimentConfig.from_json(fh.read())
        else:
            config = config_from_args(args)
        record = run(config)
    except (InvalidCoupling, ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except HarperlabError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
