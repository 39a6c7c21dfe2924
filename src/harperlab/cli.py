"""Experiment driver: declarative configs, reproducible runs, verify suites.

Every experiment of the library is reachable as a subcommand; runs emit a
deterministic result record (JSON) plus an optional payload file (CSV or
JSON).  ``verify`` replays a suite of configs against expected values with
tolerances and reports a PASS/FAIL table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__, cocycle, contfrac, model, spectral
from .errors import DepthInsufficient, HarperlabError, InvalidCoupling, SingularSamplingPoint

SCHEMA_VERSION = 1
FORMATS = ("csv", "json")


def canonical_json(obj) -> str:
    """Stable byte-identical JSON: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# the JSON types each config key accepts (a null only where the default is None)
_FIELD_TYPES = {
    "experiment": str, "coupling": (list, type(None)), "frequency": str,
    "theta": (int, float), "params": dict, "out": (str, type(None)), "format": str,
    "seed": int, "threads": int, "schema_version": int,
}


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
    threads: int = 1  # read and hashed with a recorded config; it has no effect
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidCoupling(f"a config is a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(_FIELD_TYPES))
        if unknown:
            raise InvalidCoupling(f"unknown config keys {unknown}")
        if "experiment" not in data:
            raise InvalidCoupling("config names no 'experiment'")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[key]):
                raise InvalidCoupling(f"config key {key!r} has the wrong type: {value!r}")
        return cls(**data)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidCoupling(f"unknown experiment {self.experiment!r}")
        if self.format not in FORMATS:
            raise InvalidCoupling(f"unknown format {self.format!r}")
        if self.threads < 1:
            raise InvalidCoupling("threads must be >= 1")
        if self.schema_version != SCHEMA_VERSION:
            raise InvalidCoupling(f"config key 'schema_version' must be {SCHEMA_VERSION}")
        if not isinstance(self.theta, (int, float)) or not math.isfinite(self.theta):
            raise InvalidCoupling(f"theta must be a finite number, got {self.theta!r}")


def resolve_frequency_spec(spec: str, param: str = "frequency"):
    """A frequency param: decimal literal, named constant, or digit-file path.

    ``param`` names the param in the InvalidCoupling raised for a literal
    outside (0, 1) or a path that does not read as a digit file.
    """
    if spec == "golden":
        return contfrac.golden()
    if spec == "silver":
        return contfrac.silver()
    try:
        val = float(spec)
    except ValueError:
        try:
            with open(spec) as fh:
                return contfrac.ContinuedFraction.from_json(fh.read(), origin=spec)
        except (OSError, ValueError) as exc:
            raise InvalidCoupling(f"{param} {spec!r} is no number, name or digit file: {exc}") from None
    if not 0 < val < 1:
        raise InvalidCoupling(f"{param} literal {spec} outside (0,1)")
    return val


def _coupling(cfg: ExperimentConfig) -> model.CouplingTriple:
    if cfg.coupling is None:
        raise InvalidCoupling("experiment requires --coupling l1,l2,l3")
    if len(cfg.coupling) != 3 or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in cfg.coupling
    ):
        raise InvalidCoupling(f"expected coupling [l1, l2, l3] of numbers, got {cfg.coupling!r}")
    return model.CouplingTriple(*cfg.coupling)


def _sample(cfg: ExperimentConfig) -> model.OperatorSample:
    return model.OperatorSample(
        _coupling(cfg), resolve_frequency_spec(cfg.frequency), cfg.theta
    )


def _energy(sample: model.OperatorSample, energy) -> float:
    """The E param; "auto" is the median eigenvalue of a truncation of `spectrum`'s default size."""
    if energy != "auto":
        return energy
    size = _EXPERIMENTS["spectrum"][1]["size"][1]
    spec = spectral.truncated_spectrum(sample, size)
    return float(spec.eigenvalues[size // 2])


# -- experiment runners: (config, resolved params) -> (result, payload, warnings)


def _run_le(cfg, p):
    sample = _sample(cfg)
    energy = _energy(sample, p["E"])
    est = cocycle.lyapunov_numeric(
        sample, energy, n_steps=p["n"], theta_grid=p["grid"], kind=p["kind"]
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


def _run_spectrum(cfg, p):
    sample = _sample(cfg)
    size, nphases = p["size"], p["phases"]
    phases = None if nphases == 1 else spectral._phase_grid(cfg.theta, nphases)  # duality's grid
    spec = spectral.truncated_spectrum(sample, size, phases)
    rows = None
    if cfg.out:  # a payload only for a file to write it to
        rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(spec.eigenvalues)]
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


def _run_duality(cfg, p):
    dist, rep = spectral.duality_check(
        _coupling(cfg),
        resolve_frequency_spec(cfg.frequency),
        size=p["size"],
        phases=p["phases"],
        theta0=cfg.theta,
        seed=cfg.seed if p["seeded_phases"] else None,
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


FORGE_BASE_DEPTH = 40  # digits of a decimal `forge --base` expanded before forging


def _run_forge(cfg, p):
    base = resolve_frequency_spec(p["base"], "base")
    if not isinstance(base, contfrac.ContinuedFraction):
        base = contfrac.expand(base, max_depth=FORGE_BASE_DEPTH)
    if p["schedule"] == "constant":
        schedule = contfrac.ConstantBeta(p["beta"])
    elif p["schedule"] == "burst":
        schedule = contfrac.SingleBurst(p["beta"], tail=p["tail"])
    else:
        raise InvalidCoupling(f"unknown schedule {p['schedule']!r}")
    cf = contfrac.forge(
        base, n0=p["n0"], schedule=schedule, levels=p["levels"], cap_decimal=p["cap"]
    )
    digits = [contfrac.int_to_decimal(a) for a in cf.digits(cf.depth)]
    result = {
        "digits": digits,
        "depth": cf.depth,
        "truncated": cf.truncated,
        "q_tail_log": math.log(cf.q(cf.depth)),
    }
    warnings = ["digit cap reached; stream truncated"] if cf.truncated else []
    return result, digits, warnings


def _run_delta(cfg, p):
    cpl = _coupling(cfg)
    freq = resolve_frequency_spec(cfg.frequency)
    depth, warmup = p["depth"], p["warmup"]
    if not isinstance(freq, contfrac.ContinuedFraction):
        freq = contfrac.expand(freq, max_depth=depth + 1, partial=True)
    warnings = []
    try:
        freq.ensure(depth)
    except HarperlabError:
        if freq.depth < 2:  # a rational literal such as 0.5
            raise DepthInsufficient(
                f"frequency {cfg.frequency!r} ends at depth {freq.depth}; delta needs depth >= 2"
            ) from None
        warnings.append(
            f"digit stream ends at depth {freq.depth}; clamped from {depth}"
        )
        depth = freq.depth
    dest, dlevels = spectral.delta_exponent(cpl, freq, cfg.theta, depth, warmup)
    for n, d in dlevels:
        if d == -math.inf:  # ||q_n (theta - theta_zero)|| = 0: ln 0 at this level
            err = SingularSamplingPoint(cfg.theta, 0.0)
            err.args = (f"delta level {n}: the orbit of theta={cfg.theta!r} under "
                        f"p_{n}/q_{n} meets a zero of c",)
            raise err
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


def _run_badness(cfg, p):
    rep = spectral.badness_scan(
        _sample(cfg),
        C=p["C"],
        N=p["N"],
        E_count=p["E_count"],
        angles=p["angles"],
        refine=p["refine"],
    )
    return asdict(rep), None, []


def _run_decay(cfg, p):
    try:
        fit = spectral.decay_fit(_sample(cfg), size=p["size"], which_eigenvector=p["which"])
    except IndexError as exc:
        raise InvalidCoupling(f"which={p['which']}: {exc}") from None
    return asdict(fit), None, []


def _run_rotation(cfg, p):
    sample = _sample(cfg)
    energy = _energy(sample, p["E"])
    est = cocycle.rotation_number(
        sample, energy, n_steps=p["n"], theta0=cfg.theta, y0=p["y0"]
    )
    warnings = ["Birkhoff averages not decaying like n^-1/2"] if est.nonergodic_flag else []
    return {"E": energy, **asdict(est)}, None, warnings


def _run_perturb(cfg, p):
    try:
        rep = spectral.perturbation_experiment(
            _coupling(cfg),
            resolve_frequency_spec(cfg.frequency),
            resolve_frequency_spec(p["freq_prime"], "freq_prime"),
            cfg.theta,
            N=p["N"],
            trunc_size=p["size"],
            eig_index=p["eig_index"],
        )
    except IndexError as exc:
        raise InvalidCoupling(f"eig_index={p['eig_index']}: {exc}") from None
    return asdict(rep), None, []


def _run_cohomology(cfg, p):
    if p["smax"] < 0:
        raise InvalidCoupling(f"cohomology param 'smax' must be >= 0, got {p['smax']}")
    if p["phi"] == "cos":
        phi = np.array([0.5, 0.0, 0.5], dtype=complex)  # cos(2 pi theta)
    else:
        try:
            with open(p["phi"]) as fh:
                phi = cocycle.fourier_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise InvalidCoupling(f"cohomology param 'phi': {exc}") from None
    psi, report = cocycle.solve_cohomological(
        phi,
        resolve_frequency_spec(cfg.frequency),
        s_max=p["smax"],
    )
    result = {
        "psi_hat": json.loads(cocycle.fourier_to_json(psi)),
        "norm_totals": report.totals,
        "block_bounds": report.block_bounds,
        "block_sums": report.block_sums,
        "min_divisor": _minimum(report.min_divisor),
    }
    return result, None, []


def _run_commutant(cfg, p):
    rho_spec = p["rho"]
    if rho_spec.endswith("/2"):
        rho = model._alpha_proxy(resolve_frequency_spec(rho_spec[:-2], "rho")) / 2
    else:
        try:
            rho = _finite(rho_spec)
        except ValueError as exc:
            raise InvalidCoupling(f"commutant param 'rho': {exc}") from None
    rep = cocycle.commutant_rigidity_check(
        rho,
        resolve_frequency_spec(cfg.frequency),
        bandwidth=p["bandwidth"],
        tau=p["tau"],
        gamma=p["gamma"],
    )
    return {**asdict(rep), "min_divisor": _minimum(rep.min_divisor)}, None, []


def _minimum(value: float):
    """A minimum as the record holds it: null (None) when it ran over no value."""
    return None if value == math.inf else value


# -- the parameter table ---------------------------------------------------------


def _finite(value) -> float:
    """Param type: a float that is neither nan nor infinite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


_finite.__name__ = "finite float"  # argparse names the type in its errors


def _or(word: str, number):
    """Param type: the keyword ``word`` or a number of type ``number``."""
    def convert(value):
        return word if value == word else number(value)
    convert.__name__ = number.__name__  # argparse names the type in its errors
    return convert


_REQUIRED = object()  # default of a param that must be given


def _default(fn, keyword: str):
    """The default of fn's keyword: a param a runner passes on to it takes it from there."""
    return inspect.signature(fn).parameters[keyword].default


# experiment -> (runner, {param: (type, default)}).  The one source of every
# param: argparse builds its flags from it (`_` becomes `-`), and run()
# checks, coerces and completes config params against it.  A param that a
# runner passes on to a library keyword reads its default from that
# keyword's signature (_default); the table sets only the CLI's own.  A bool
# is a flag; a None default stays None when the param is absent.
_EXPERIMENTS = {
    "le": (_run_le, {"E": (_or("auto", _finite), "auto"),
                     "n": (int, _default(cocycle.lyapunov_numeric, "n_steps")),
                     "grid": (int, _default(cocycle.lyapunov_numeric, "theta_grid")),
                     "kind": (str, _default(cocycle.lyapunov_numeric, "kind"))}),
    "spectrum": (_run_spectrum, {"size": (int, 512), "phases": (int, 1)}),
    "duality": (_run_duality, {"size": (int, 512),
                               "phases": (int, _default(spectral.duality_check, "phases")),
                               "seeded_phases": (bool, False)}),
    "forge": (_run_forge, {"base": (str, "golden"), "n0": (int, 5),
                           "schedule": (str, "constant"), "beta": (_finite, 0.5),
                           "levels": (int, 3), "tail": (int, _default(contfrac.SingleBurst, "tail")),
                           "cap": (int, _default(contfrac.forge, "cap_decimal"))}),
    "delta": (_run_delta, {"depth": (int, 12),
                           "warmup": (int, _default(spectral.delta_exponent, "warmup"))}),
    "badness": (_run_badness, {"C": (_finite, 3.0), "N": (int, 16),
                               "E_count": (int, _default(spectral.badness_scan, "E_count")),
                               "angles": (int, _default(spectral.badness_scan, "angles")),
                               "refine": (bool, _default(spectral.badness_scan, "refine"))}),
    "decay": (_run_decay, {"size": (int, 800), "which": (
        _or("auto", int), _default(spectral.decay_fit, "which_eigenvector"))}),
    "rotation": (_run_rotation, {"E": (_or("auto", _finite), "auto"),
                                 "n": (int, _default(cocycle.rotation_number, "n_steps")),
                                 "y0": (_finite, _default(cocycle.rotation_number, "y0"))}),
    "perturb": (_run_perturb, {
        "freq_prime": (str, _REQUIRED), "N": (int, 20),
        "size": (int, _default(spectral.perturbation_experiment, "trunc_size")),
        "eig_index": (_or("median", int), _default(spectral.perturbation_experiment, "eig_index"))}),
    "cohomology": (_run_cohomology, {
        "phi": (str, "cos"), "smax": (int, _default(cocycle.solve_cohomological, "s_max"))}),
    "commutant": (_run_commutant, {
        "rho": (str, "0.25"),
        "bandwidth": (int, _default(cocycle.commutant_rigidity_check, "bandwidth")),
        "tau": (_finite, _default(cocycle.commutant_rigidity_check, "tau")),
        "gamma": (_finite, _default(cocycle.commutant_rigidity_check, "gamma"))}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _param(kind, value):
    """One param value as its table type, without coercing a JSON value of another type.

    A string is read by kind, as argparse reads a flag's.  Otherwise only a
    flag takes a bool, and a flag takes nothing else; an int param (or an
    _or of an int, named "int") takes no fractional number, and none of
    magnitude 2^63 or more, which no numpy integer holds.
    """
    if isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{value!r} is no {kind.__name__}")
    if kind.__name__ == "int" and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is no integer")
    value = kind(value)
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 2**63:
        raise ValueError(f"|value| >= 2^{abs(value).bit_length() - 1} is out of range: "
                         "an int param must stay below 2^63")
    return value


def resolve_params(experiment: str, params: dict) -> dict:
    """Check params against the table, coerce each to its type, fill defaults."""
    table = _EXPERIMENTS[experiment][1]
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise InvalidCoupling(f"unknown {experiment} params {unknown}")
    resolved = {}
    for key, (kind, default) in table.items():
        value = params[key] if key in params else default
        if value is _REQUIRED:
            raise InvalidCoupling(f"{experiment} requires param {key!r}")
        if value is not None or default is not None:
            try:
                value = _param(kind, value)
            except (TypeError, ValueError) as exc:
                raise InvalidCoupling(f"{experiment} param {key!r}: {exc}") from None
        resolved[key] = value
    return resolved


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns the full result record."""
    config.validate()
    params = resolve_params(config.experiment, config.params)
    t0 = time.perf_counter()
    result, payload, warnings = _EXPERIMENTS[config.experiment][0](config, params)
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


def verify(suite_path: str) -> int:
    """Run a suite of configs with expectations, print a PASS/FAIL table; return the failures."""
    with open(suite_path) as fh:
        suite = json.load(fh)
    entries = suite.get("suite", []) if isinstance(suite, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("a suite is a JSON object whose 'suite' is a list of objects")
    for i, entry in enumerate(entries):
        for key, kind, what in (("name", str, "a string"), ("expect", dict, "an object")):
            if not isinstance(entry.get(key, kind()), kind):
                raise ValueError(f"suite entry {i}: {key!r} must be {what}, got {entry[key]!r}")
    if not entries:
        print("WARNING: empty suite, vacuous PASS")
        return 0
    failures = 0
    width = max(len(e.get("name", "?")) for e in entries)
    for entry in entries:
        name = entry.get("name", "?")
        try:
            record = run(ExperimentConfig.from_dict(entry.get("config", {})))
        except (HarperlabError, ValueError, OSError) as exc:
            if type(exc).__name__ == entry.get("expect_error"):
                print(f"PASS  {name:<{width}}  raised {type(exc).__name__}")
                continue
            print(f"FAIL  {name:<{width}}  error {type(exc).__name__}: {exc}")
            failures += 1
            continue
        ok = True
        notes = []
        for path, expect in entry.get("expect", {}).items():
            try:
                got = _lookup(record, path)
                if "equals" in expect:
                    good = got == expect["equals"]
                else:
                    good = abs(float(got) - float(expect["value"])) <= float(
                        expect.get("tol", 0.0)
                    )
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                notes.append(f"{path}: {type(exc).__name__} {exc}")
                ok = False
                continue
            notes.append(f"{path}={got!r}")
            ok &= good
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {'; '.join(notes)}")
        failures += 0 if ok else 1
    return failures


# -- argument parsing ------------------------------------------------------------


def _add_common(sp):
    default = {f.name: f.default for f in fields(ExperimentConfig)}
    sp.add_argument("--coupling", help="l1,l2,l3")
    sp.add_argument("--freq", default=default["frequency"],
                    help="decimal, golden, silver, or digit-file path")
    sp.add_argument("--theta", type=_finite, default=default["theta"])
    sp.add_argument("--out", help="payload output path")
    sp.add_argument("--format", choices=FORMATS, default=default["format"])
    sp.add_argument("--seed", type=int, default=default["seed"])


def _add_params(sp, table):
    for key, (kind, default) in table.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            sp.add_argument(flag, action="store_true", default=default)
        elif default is _REQUIRED:
            sp.add_argument(flag, type=kind, required=True)
        else:
            sp.add_argument(flag, type=kind, default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from _EXPERIMENTS."""
    parser = argparse.ArgumentParser(
        prog="harperlab",
        description="extended Harper model experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in _EXPERIMENTS.items():
        sp = sub.add_parser(name)
        _add_common(sp)
        _add_params(sp, table)
    vp = sub.add_parser("verify")
    vp.add_argument("suite", help="JSON suite of configs with expectations")
    rp = sub.add_parser("run-config")
    rp.add_argument("config", help="JSON ExperimentConfig file")
    return parser


def config_from_args(args) -> ExperimentConfig:
    coupling = None
    if args.coupling is not None:
        coupling = list(model.CouplingTriple.parse(args.coupling).astuple())
    return ExperimentConfig(
        experiment=args.command,
        coupling=coupling,
        frequency=args.freq,
        theta=args.theta,
        params={key: getattr(args, key) for key in _EXPERIMENTS[args.command][1]},
        out=args.out,
        format=args.format,
        seed=args.seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        try:
            failures = verify(args.suite)
        except (OSError, ValueError) as exc:
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
    except (HarperlabError, MemoryError) as exc:  # an array that cannot be held is numeric
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity is not JSON
        print(f"numeric error: the record holds a non-finite number: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
