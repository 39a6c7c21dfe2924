import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harperlab import cli as cli_module
from harperlab import cocycle, contfrac, spectral
from harperlab.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    canonical_json,
    config_from_args,
    build_parser,
    main,
    resolve_params,
    run,
    verify,
)
from harperlab.contfrac import golden
from harperlab.errors import InvalidCoupling
from harperlab.model import CouplingTriple, OperatorSample, zero_structure


def exit_code(argv):
    """main()'s exit code, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_round_trip_byte_identical():
    cfg = ExperimentConfig(
        experiment="le",
        coupling=[0.1, 0.5, 0.2],
        frequency="golden",
        theta=0.135,
        params={"n": 2000, "grid": 8, "E": 0.3},
        seed=7,
    )
    text = cfg.to_json()
    back = ExperimentConfig.from_json(text)
    assert back.to_json() == text
    assert back.config_hash() == cfg.config_hash()


def test_spectrum_csv_export(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--coupling", "0.1,0.5,0.2", "--size", "4", "--format", "csv",
            "--out", str(out)]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == record["result"]["min"]


def test_spectrum_json_export(tmp_path, capsys):
    out = tmp_path / "spec.json"
    argv = ["spectrum", "--coupling", "0.1,0.5,0.2", "--size", "4", "--format", "json",
            "--out", str(out)]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert out.read_text() == canonical_json(record["result"])


def test_forge_out_writes_the_digit_file(tmp_path, capsys):
    out = tmp_path / "freq.json"
    argv = ["forge", "--base", "golden", "--n0", "5", "--beta", "0.5", "--levels", "3",
            "--out", str(out)]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    cf = contfrac.forge(golden(), 5, contfrac.ConstantBeta(0.5), 3)
    assert out.read_bytes() == cf.to_json().encode()
    back = cli_module.resolve_frequency_spec(str(out))
    assert [contfrac.int_to_decimal(a) for a in back.digits(back.depth)] == \
        record["result"]["digits"]


def test_le_command_matches_formula(tmp_path, capsys):
    out = tmp_path / "le.csv"
    argv = ["le", "--coupling", "0,0.5,0", "--freq", "golden", "--E", "0.0065", "--n", "5000",
            "--grid", "8", "--format", "csv", "--out", str(out)]
    code = exit_code(argv)
    stdout, stderr = capsys.readouterr()
    assert code == 0, stderr
    record = json.loads(stdout)
    assert record["result"]["formula"] == pytest.approx(math.log(2))
    assert record["result"]["estimate"]["value"] == pytest.approx(math.log(2), rel=0.05)
    header, row = out.read_text().strip().split("\n")
    assert header.startswith("lambda1,lambda2,lambda3,alpha,E,n,grid,value")


def test_forge_rerun_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["forge", "--base", "golden", "--n0", "5", "--beta", "0.5", "--levels", "3"]
    assert exit_code([*args, "--out", str(f1)]) == 0
    assert exit_code([*args, "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    digits = json.loads(f1.read_text())
    assert all(isinstance(d, str) for d in digits)


def test_forged_file_usable_as_frequency(tmp_path, capsys):
    f = tmp_path / "freq.json"
    assert exit_code(["forge", "--base", "golden", "--n0", "4", "--beta", "0.4", "--levels", "2",
                      "--out", str(f)]) == 0
    capsys.readouterr()
    assert exit_code(["spectrum", "--coupling", "0,0.5,0", "--freq", str(f), "--size", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == 16


def test_duality_self_dual_distance_zero(capsys):
    argv = ["duality", "--coupling", "0,1,0", "--freq", "golden", "--size", "64", "--phases", "2"]
    assert exit_code(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["distance"] == 0.0


def test_validation_error_exit_2():
    assert exit_code(["le", "--coupling", "0.1,-0.5,0.2", "--E", "1.0", "--n", "1000",
                      "--grid", "2"]) == 2


def test_numeric_error_exit_3(capsys):
    argv = ["commutant", "--coupling", "0,0.5,0", "--freq", "golden", "--rho", "golden/2",
            "--bandwidth", "10"]
    assert exit_code(argv) == 3
    assert "DivisorFloorViolated" in capsys.readouterr().err


def test_record_determinism_and_recorded_threads():
    # `threads` stays a config key so that recorded configs load and hash as
    # before; it has no effect on the run
    base = dict(
        experiment="duality",
        coupling=[0.1, 0.5, 0.2],
        frequency="golden",
        params={"size": 48, "phases": 3},
    )
    r1 = run(ExperimentConfig(**base))
    recorded = ExperimentConfig.from_json(json.dumps(dict(base, threads=2)))
    r2 = run(recorded)
    assert (r1["config_hash"], r2["config_hash"]) == ("f38e94dc7c98ac69", "8b5a011c92d4244c")
    assert r2["config"]["threads"] == 2
    for r in (r1, r2):
        del r["meta"], r["config"], r["config_hash"]
    assert canonical_json(r1) == canonical_json(r2)


def test_verify_suite_pass_fail_empty(tmp_path, capsys):
    good = {
        "suite": [
            {
                "name": "selfdual",
                "config": {
                    "experiment": "duality",
                    "coupling": [0, 1, 0],
                    "frequency": "golden",
                    "params": {"size": 32, "phases": 2},
                },
                "expect": {"result.distance": {"value": 0.0, "tol": 1e-12}},
            }
        ]
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(good))
    assert main(["verify", str(p)]) == 0

    bad = json.loads(json.dumps(good))
    bad["suite"][0]["expect"]["result.distance"]["value"] = 0.7
    p.write_text(json.dumps(bad))
    assert main(["verify", str(p)]) == 1

    p.write_text(json.dumps({"suite": []}))
    assert main(["verify", str(p)]) == 0
    assert "empty suite" in capsys.readouterr().out


def test_verify_expected_error_rows(tmp_path):
    suite = {
        "suite": [
            {
                "name": "resonant-commutant",
                "config": {
                    "experiment": "commutant",
                    "frequency": "golden",
                    "params": {"rho": "golden/2", "bandwidth": 8},
                },
                "expect_error": "DivisorFloorViolated",
            }
        ]
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    assert main(["verify", str(p)]) == 0


def test_run_config_file(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment="spectrum",
        coupling=[0, 1, 0],
        frequency="silver",
        params={"size": 8},
    )
    p = tmp_path / "cfg.json"
    p.write_text(cfg.to_json())
    assert exit_code(["run-config", str(p)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["config_hash"] == cfg.config_hash()
    assert rec["result"]["count"] == 8


def test_parser_covers_all_experiments():
    parser = build_parser()
    args = parser.parse_args(["le", "--coupling", "0,0.5,0"])
    cfg = config_from_args(args)
    assert cfg.experiment == "le"
    assert cfg.params["n"] == 100000


def test_bundled_acceptance_suite_passes(capsys):
    import harperlab

    suite = harperlab.__path__[0] + "/data/acceptance_suite.json"
    code = exit_code(["verify", suite])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_module_warnings_surface_in_record():
    rec = run(
        ExperimentConfig(
            experiment="forge",
            frequency="golden",
            params={"base": "golden", "n0": 4, "beta": 2.0, "levels": 8,
                    "schedule": "constant", "cap": 60},
        )
    )
    assert rec["result"]["truncated"] is True
    assert any("digit cap" in w for w in rec["warnings"])


# the first forged digit, a_(n0+1), with its decimal length and the first 16 hex
# digits of the sha256 of its decimal digits
@pytest.mark.parametrize("n0, beta, levels, length, digest", [
    # at beta = 1, past the 4300-digit default of Python's int <-> str conversion limit
    (22, "1.0", 3, 12446, "843886924fe597c9"),
    # q_24 = 75025: floor(e^(q/2)), forged by the integer ladder whose products go
    # through the FFT
    (24, "0.5", 3, 16292, "e29a16a7365f2e5a"),
    # t = (2/3) q_24 is neither whole nor half: the ladder on e^(1/d) for d = 2^m
    (24, "0.6666666666666666", 1, 21722, "1d21d519436ce036"),
    # q_26 = 196418: the largest digit the arithmetic benchmark forges, from ladder
    # products at 2^a 3^b transform lengths
    (26, "0.5", 1, 42652, "82ee05b329270f26"),
])
def test_forge_and_delta_past_int_str_limit(n0, beta, levels, length, digest, tmp_path, capsys):
    # `forge --out` writes the library's stream, and `delta` reads its deepest
    # level back from the file
    from harperlab.contfrac import ConstantBeta, forge, int_to_decimal
    from harperlab.spectral import delta_exponent

    f = tmp_path / "f.json"
    code = exit_code(["forge", "--n0", str(n0), "--beta", beta, "--levels", str(levels),
                      "--out", str(f)])
    out, err = capsys.readouterr()
    assert code == 0, err
    digit = json.loads(f.read_text())[n0]
    assert len(digit) == length
    assert hashlib.sha256(digit.encode()).hexdigest()[:16] == digest
    cf = forge(golden(), n0=n0, schedule=ConstantBeta(float(beta)), levels=levels)
    digits = [int_to_decimal(a) for a in cf.digits(cf.depth)]
    assert json.loads(f.read_text()) == digits
    assert json.loads(out)["result"]["digits"] == digits
    code = exit_code(["delta", "--coupling", "0.25,0.5,0.25", "--freq", str(f),
                      "--theta", "0.135", "--depth", str(n0 + 1)])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = json.loads(out, parse_constant=_reject_constant)["result"]["per_level"]
    assert rows[-1]["level"] == n0
    _, levels = delta_exponent(CouplingTriple(0.25, 0.5, 0.25), cf, 0.135, n0 + 1)
    assert [(r["level"], r["delta"]) for r in rows] == levels


# -- one parameter table behind every entry point ------------------------------

REQUIRED_PARAMS = {"perturb": {"freq_prime": "0.618034"}}


def run_config_main(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return exit_code(["run-config", str(path)])


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_cli_and_run_config_resolve_the_same_params(name, monkeypatch):
    required = REQUIRED_PARAMS.get(name, {})
    argv = [name]
    for key, value in required.items():
        argv += ["--" + key.replace("_", "-"), value]
    from_cli = config_from_args(build_parser().parse_args(argv)).params

    seen = []

    def runner(cfg, p):  # records the params run() hands to the experiment
        seen.append(p)
        return {}, None, []

    table = cli_module._EXPERIMENTS[name][1]
    monkeypatch.setitem(cli_module._EXPERIMENTS, name, (runner, table))
    run(ExperimentConfig(experiment=name, params=dict(required)))
    assert seen == [from_cli]
    assert len(EXPERIMENTS) == 11


# the library callables each runner passes params on to
LIBRARY_CALLS = {
    "le": [(spectral, "truncated_spectrum"), (cocycle, "lyapunov_numeric")],
    "spectrum": [(spectral, "truncated_spectrum")],
    "duality": [(spectral, "duality_check")],
    "forge": [(contfrac, "forge")],
    "forge-burst": [(contfrac, "SingleBurst"), (contfrac, "forge")],
    "delta": [(spectral, "delta_exponent"), (contfrac, "beta_exponent")],
    "badness": [(spectral, "badness_scan")],
    "decay": [(spectral, "decay_fit")],
    "rotation": [(spectral, "truncated_spectrum"), (cocycle, "rotation_number")],
    "perturb": [(spectral, "perturbation_experiment")],
    "cohomology": [(cocycle, "solve_cohomological")],
    "commutant": [(cocycle, "commutant_rigidity_check")],
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CALLS))
def test_runner_defaults_are_the_library_defaults(case, monkeypatch):
    # with only its required params, a run hands every library keyword that
    # has a default exactly that default: the CLI and the Python API agree
    name = case.split("-")[0]
    params = {"schedule": "burst"} if case == "forge-burst" else REQUIRED_PARAMS.get(name, {})
    calls = []
    for owner, attr in LIBRARY_CALLS[case]:
        fn = getattr(owner, attr)

        def spy(*args, _fn=fn, _attr=attr, **kwargs):
            calls.append((_attr, inspect.signature(_fn).bind(*args, **kwargs)))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    run(ExperimentConfig(experiment=name, coupling=[0, 0.4, 0], params=params))
    assert sorted({attr for attr, _ in calls}) == sorted(attr for _, attr in LIBRARY_CALLS[case])
    for attr, bound in calls:
        for key, value in bound.arguments.items():
            default = bound.signature.parameters[key].default
            if default is not inspect.Parameter.empty:
                assert (type(value), value) == (type(default), default), (attr, key)


def test_rotation_starts_at_theta(tmp_path, capsys):
    flags = ["--coupling", "0.1,2.0,0.1", "--E", "1.0", "--n", "2000"]
    config = {"experiment": "rotation", "coupling": [0.1, 2.0, 0.1],
              "params": {"E": 1.0, "n": 2000}}
    assert main(["rotation", *flags, "--theta", "0.3"]) == 0
    from_cli = canonical_json(json.loads(capsys.readouterr().out)["result"])
    assert run_config_main(tmp_path, dict(config, theta=0.3)) == 0
    from_file = canonical_json(json.loads(capsys.readouterr().out)["result"])
    at_zero = canonical_json(run(ExperimentConfig(**config))["result"])
    assert from_cli == from_file != at_zero


def test_run_config_delta_depth_default_matches_cli(tmp_path, capsys):
    config = {"experiment": "delta", "coupling": [0.25, 0.5, 0.25], "theta": 0.135}
    assert run_config_main(tmp_path, config) == 0
    from_file = json.loads(capsys.readouterr().out)["result"]
    assert main(["delta", "--coupling", "0.25,0.5,0.25", "--theta", "0.135"]) == 0
    from_cli = json.loads(capsys.readouterr().out)["result"]
    assert from_file["depth"] == 12
    assert canonical_json(from_file) == canonical_json(from_cli)


def test_delta_clamps_its_depth_to_a_short_digit_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(["1", "1", "2"]))
    assert main(["delta", "--coupling", "0.1,0.5,0.2", "--freq", str(path), "--depth", "12"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["depth"] == 3
    assert record["warnings"] == ["digit stream ends at depth 3; clamped from 12"]


SPECTRUM = {"experiment": "spectrum", "coupling": [0, 1, 0], "params": {"size": 8}}
DEGENERATE = [
    # (offending name, CLI argv, run-config file)
    ("sise", ["spectrum", "--coupling", "0,1,0", "--sise", "8"],
     dict(SPECTRUM, params={"sise": 8})),
    ("freq_prime", ["perturb", "--coupling", "0,0.9,0"],
     {"experiment": "perturb", "coupling": [0, 0.9, 0]}),
    ("coupling", ["spectrum", "--coupling", "0.1,0.5", "--size", "8"],
     dict(SPECTRUM, coupling=[0, 1])),
    ("colour", ["spectrum", "--coupling", "0,1,0", "--colour", "1"],
     dict(SPECTRUM, colour=1)),
    ("n_steps", ["rotation", "--coupling", "0.1,2.0,0.1", "--freq", "golden", "--E", "1.0",
                 "--n", "1"],
     {"experiment": "rotation", "coupling": [0.1, 2.0, 0.1], "params": {"E": 1.0, "n": 1}}),
    # non-finite and out-of-range numbers
    ("E", ["le", "--coupling", "0.1,0.5,0.2", "--E", "nan", "--n", "1000", "--grid", "2"],
     {"experiment": "le", "coupling": [0.1, 0.5, 0.2],
      "params": {"E": math.nan, "n": 1000, "grid": 2}}),
    ("y0", ["rotation", "--coupling", "0.1,2.0,0.1", "--E", "1.0", "--n", "100", "--y0", "nan"],
     {"experiment": "rotation", "coupling": [0.1, 2.0, 0.1],
      "params": {"E": 1.0, "n": 100, "y0": math.nan}}),
    ("theta", ["le", "--coupling", "0.1,0.5,0.2", "--E", "0.3", "--n", "1000", "--grid", "2",
               "--theta", "inf"],
     {"experiment": "le", "coupling": [0.1, 0.5, 0.2], "theta": math.inf,
      "params": {"E": 0.3, "n": 1000, "grid": 2}}),
    ("bandwidth", ["commutant", "--freq", "golden", "--rho", "0.25", "--bandwidth", "-1"],
     {"experiment": "commutant", "params": {"rho": "0.25", "bandwidth": -1}}),
    ("tail", ["forge", "--schedule", "burst", "--tail", "0"],
     {"experiment": "forge", "params": {"schedule": "burst", "tail": 0}}),
    ("smax", ["cohomology", "--freq", "golden", "--phi", "cos", "--smax", "-1"],
     {"experiment": "cohomology", "params": {"phi": "cos", "smax": -1}}),
    ("rho", ["commutant", "--freq", "golden", "--rho", "nan"],
     {"experiment": "commutant", "params": {"rho": "nan"}}),
    # eigenvalue indices: 0 <= index < size, no negative indexing
    ("eig_index", ["perturb", "--coupling", "0.1,0.5,0.2", "--freq-prime", "0.62", "--N", "4",
                   "--size", "16", "--eig-index", "-1"],
     {"experiment": "perturb", "coupling": [0.1, 0.5, 0.2],
      "params": {"freq_prime": "0.62", "N": 4, "size": 16, "eig_index": -1}}),
    ("eig_index", ["perturb", "--coupling", "0.1,0.5,0.2", "--freq-prime", "0.62", "--N", "4",
                   "--size", "16", "--eig-index", "16"],
     {"experiment": "perturb", "coupling": [0.1, 0.5, 0.2],
      "params": {"freq_prime": "0.62", "N": 4, "size": 16, "eig_index": 16}}),
    ("which", ["decay", "--coupling", "0,0.4,0", "--size", "400", "--which", "-400"],
     {"experiment": "decay", "coupling": [0, 0.4, 0], "params": {"size": 400, "which": -400}}),
    # phase counts below one and duality windows covered by their edge zones
    ("size", ["duality", "--coupling", "0.1,0.5,0.2", "--size", "20"],
     {"experiment": "duality", "coupling": [0.1, 0.5, 0.2], "params": {"size": 20}}),
    ("phases", ["duality", "--coupling", "0.1,0.5,0.2", "--size", "64", "--phases", "0"],
     {"experiment": "duality", "coupling": [0.1, 0.5, 0.2], "params": {"size": 64, "phases": 0}}),
    ("phases", ["spectrum", "--coupling", "0,1,0", "--size", "8", "--phases", "-5"],
     dict(SPECTRUM, params={"size": 8, "phases": -5})),
    # found by the table-driven test below
    ("E_count", ["badness", "--coupling", "0.1,0.5,0.2", "--N", "4", "--E-count", "0"],
     {"experiment": "badness", "coupling": [0.1, 0.5, 0.2], "params": {"N": 4, "E_count": 0}}),
    ("angles", ["badness", "--coupling", "0.1,0.5,0.2", "--N", "4", "--angles", "0"],
     {"experiment": "badness", "coupling": [0.1, 0.5, 0.2], "params": {"N": 4, "angles": 0}}),
    ("N", ["perturb", "--coupling", "0.1,0.5,0.2", "--freq-prime", "0.62", "--N", "-1"],
     {"experiment": "perturb", "coupling": [0.1, 0.5, 0.2],
      "params": {"freq_prime": "0.62", "N": -1}}),
    ("tau", ["commutant", "--freq", "golden", "--rho", "0.25", "--tau", "-1"],
     {"experiment": "commutant", "params": {"rho": "0.25", "tau": -1.0}}),
    ("gamma", ["commutant", "--freq", "golden", "--rho", "0.25", "--gamma", "0"],
     {"experiment": "commutant", "params": {"rho": "0.25", "gamma": -1.0}}),
    ("phi", ["cohomology", "--freq", "golden", "--phi", "no-such-file.json"],
     {"experiment": "cohomology", "params": {"phi": "no-such-file.json"}}),
    ("base", ["forge", "--base", "no-such-file.json"],
     {"experiment": "forge", "params": {"base": "no-such-file.json"}}),
    ("frequency", ["spectrum", "--coupling", "0,1,0", "--size", "8", "--freq", "no-such-file.json"],
     dict(SPECTRUM, frequency="no-such-file.json")),
    # a run-config value of the wrong JSON type, refused rather than coerced
    # (the error quotes the key)
    ("'refine'", ["badness", "--coupling", "0,0.5,0", "--N", "4", "--refine", "false"],
     {"experiment": "badness", "coupling": [0, 0.5, 0], "params": {"N": 4, "refine": "false"}}),
    ("'size'", ["spectrum", "--coupling", "0,1,0", "--size", "true"],
     dict(SPECTRUM, params={"size": True})),
    ("'n'", ["rotation", "--coupling", "0.1,2.0,0.1", "--E", "1.0", "--n", "1000.7"],
     {"experiment": "rotation", "coupling": [0.1, 2.0, 0.1], "params": {"E": 1.0, "n": 1000.7}}),
    ("'grid'", ["le", "--coupling", "0.1,0.5,0.2", "--E", "0.3", "--n", "1000", "--grid", "inf"],
     {"experiment": "le", "coupling": [0.1, 0.5, 0.2],
      "params": {"E": 0.3, "n": 1000, "grid": math.inf}}),
    ("'E'", ["le", "--coupling", "0.1,0.5,0.2", "--E", "true", "--n", "1000", "--grid", "2"],
     {"experiment": "le", "coupling": [0.1, 0.5, 0.2],
      "params": {"E": True, "n": 1000, "grid": 2}}),
    ("'eig_index'", ["perturb", "--coupling", "0.1,0.5,0.2", "--freq-prime", "0.62", "--N", "4",
                     "--size", "16", "--eig-index", "3.5"],
     {"experiment": "perturb", "coupling": [0.1, 0.5, 0.2],
      "params": {"freq_prime": "0.62", "N": 4, "size": 16, "eig_index": 3.5}}),
    ("'theta'", ["spectrum", "--coupling", "0,1,0", "--size", "8", "--theta", "true"],
     dict(SPECTRUM, theta=True)),
    ("'seed'", ["spectrum", "--coupling", "0,1,0", "--size", "8", "--seed", "false"],
     dict(SPECTRUM, seed=False)),
    ("'threads'", ["spectrum", "--coupling", "0,1,0", "--size", "8", "--threads", "true"],
     dict(SPECTRUM, threads=True)),
]


@pytest.mark.parametrize("name,argv,config", DEGENERATE, ids=[d[0] for d in DEGENERATE])
def test_degenerate_input_exits_2(name, argv, config, tmp_path, capsys):
    assert exit_code(argv) == 2
    capsys.readouterr()
    assert run_config_main(tmp_path, config) == 2
    assert name in capsys.readouterr().err


# -- degenerate inputs drawn from the parameter table -------------------------

# the largest value drawn for a size-like int param, and the value the base
# config puts in place of a larger default; any other int param draws from -3..3
SIZE_CAPS = {"n": 3000, "size": 400, "phases": 4, "grid": 8, "N": 16, "E_count": 4,
             "angles": 16, "bandwidth": 64, "n0": 12, "levels": 4, "depth": 12}
BASE_COUPLING = [0.1, 0.5, 0.2]
FLOATS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 0.5, 1e6]
# the config keys outside the table, each with the values it may take
COMMON = {
    "coupling": st.sampled_from([[0, 0, 0], [0, 1, 0], [0.3, 0, 0.3], [1, 0, 1], [0.1, 0.5],
                                 [0, 1e-310, 0], [1e-320, 1e-320, 1e-320]]),
    "frequency": st.sampled_from(["silver", "0.5", "1e-9", "0.999999", "1", "x"]),
    "theta": st.sampled_from(FLOATS),
}


def _values(key, kind, default):
    """Strategy for one param from its table type (and default)."""
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(-3, SIZE_CAPS.get(key, 3))
    if kind is str:
        known = [] if default is cli_module._REQUIRED else [default]
        return st.sampled_from(["", "x", "nan", "0.5"] + known)
    # a finite float, or an _or(word, number) type (named after its number
    # type) whose default is its word
    number = _values(key, int, default) if kind.__name__ == "int" else st.sampled_from(FLOATS)
    return st.one_of(st.just(default), number)


def _base_params(name):
    """The table's defaults with size caps, and its required params filled in."""
    base = dict(REQUIRED_PARAMS.get(name, {}))
    for key, (_, default) in cli_module._EXPERIMENTS[name][1].items():
        if isinstance(default, int) and not isinstance(default, bool) and key in SIZE_CAPS:
            base[key] = min(default, SIZE_CAPS[key])
    return base


@st.composite
def degenerate_configs(draw):
    """A base config with one or two of its keys drawn from the table's types."""
    name = draw(st.sampled_from(EXPERIMENTS))
    table = cli_module._EXPERIMENTS[name][1]
    config = {"experiment": name, "coupling": BASE_COUPLING, "params": _base_params(name)}
    keys = draw(st.lists(st.sampled_from(sorted(table) + sorted(COMMON)), min_size=1,
                         max_size=2, unique=True))
    for key in keys:
        if key in COMMON:
            config[key] = draw(COMMON[key])
        else:
            config["params"][key] = draw(_values(key, *table[key]))
    return config, keys


def _argv(config):
    argv = [config["experiment"], "--coupling", ",".join(map(repr, config["coupling"]))]
    if "frequency" in config:
        argv += ["--freq", config["frequency"]]
    if "theta" in config:
        argv += ["--theta", repr(config["theta"])]
    for key, value in config["params"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, value if isinstance(value, str) else repr(value)]
    return argv


def _reject_constant(token):
    raise ValueError(f"record holds {token}")


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_size_capped_base_config_runs(name, tmp_path, capsys):
    config = {"experiment": name, "coupling": BASE_COUPLING, "params": _base_params(name)}
    assert exit_code(_argv(config)) == 0, capsys.readouterr().err
    assert run_config_main(tmp_path, config) == 0, capsys.readouterr().err


@settings(deadline=None, derandomize=True, max_examples=150)
@given(degenerate_configs())
def test_drawn_degenerate_config_exits_cleanly(drawn):
    # main and run-config exit 0, 2 or 3 (never a traceback); an exit 2 names a
    # drawn key (its config name or its flag); a 0-exit record is strict JSON
    config, keys = drawn
    names = {k: ("freq" if k == "frequency" else k.replace("_", "-")) for k in keys}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for argv in (_argv(config), ["run-config", path]):
            code, out, err = _run_main(argv)
            assert code in (0, 2, 3), (argv, code, err)
            if code == 2:
                assert any(k in err or v in err for k, v in names.items()), (argv, err)
            if code == 0:
                json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("bad", [dict(SPECTRUM, params={"size": 0}),
                                 {"experiment": "spectrum", "parms": {"size": 8}}])
def test_verify_bad_entry_fails_and_suite_goes_on(bad, tmp_path, capsys):
    suite = {"suite": [
        {"name": "bad", "config": bad, "expect": {"result.count": {"equals": 8}}},
        {"name": "good", "config": SPECTRUM, "expect": {"result.count": {"equals": 8}}},
    ]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["FAIL", "bad"], ["PASS", "good"]]


def test_rotation_predecessor_on_a_zero_exits_3(capsys):
    # theta - alpha sits 1e-9 from a zero of c: the first transfer matrix divides by |c| there
    sample = OperatorSample(CouplingTriple(0.3, 0.5, 0.3), golden())
    af = float(sample.alpha_fraction())
    theta = (zero_structure(sample.coupling).positions(af)[0] + af + 1e-9) % 1.0
    argv = ["rotation", "--coupling", "0.3,0.5,0.3", "--freq", "golden", "--E", "1.0",
            "--n", "2000", "--theta", repr(theta)]
    assert exit_code(argv) == 3
    assert "SingularSamplingPoint" in capsys.readouterr().err


# badness, perturb and rotation each read c at site 0 of the orbit and divide by it
GUARDED = [["badness", "--N", "16"], ["perturb", "--freq-prime", "0.618034", "--N", "20"],
           ["rotation", "--E", "0.3", "--n", "1000"]]


@pytest.mark.parametrize("coupling", ["0.3,0.5,0.2", "0.3,0.4,0.3"])  # a single zero, a pair
@pytest.mark.parametrize("offset, refused", [(0.0, True), (5e-8, True), (-5e-8, True),
                                             (2e-7, False), (-2e-7, False)])
def test_badness_perturb_and_rotation_refuse_the_same_phases(coupling, offset, refused, capsys):
    # one zero guard: a phase within model.ZERO_GUARD = 1e-7 of a zero of c exits 3 in
    # every experiment that reads it, and a phase twice as far runs in all of them
    sample = OperatorSample(CouplingTriple.parse(coupling), golden())
    zeros = zero_structure(sample.coupling).positions(sample.alpha_float)
    for zero in zeros:
        theta = (zero + offset) % 1.0
        for argv in GUARDED:
            code = exit_code([*argv, "--coupling", coupling, "--freq", "golden",
                              "--theta", repr(theta)])
            err = capsys.readouterr().err
            assert code == (3 if refused else 0), (argv, theta, err)
            assert ("SingularSamplingPoint" in err) == refused


@pytest.mark.parametrize(
    "argv, named",
    [
        (["le", "--E", "1e10", "--coupling", "0.1,0.5,0.2", "--grid", "2", "--n", "1000"],
         ["E=10000000000.0", "lambda1=0.1, lambda2=0.5, lambda3=0.2"]),
        (["rotation", "--E", "1e10", "--coupling", "0.1,0.5,0.2", "--n", "1000"],
         ["E=10000000000.0", "lambda1=0.1, lambda2=0.5, lambda3=0.2"]),
        (["le", "--E", "0.3", "--coupling", "1e-300,1e-300,1e-300", "--grid", "2", "--n", "1000"],
         ["E=0.3", "lambda1=1e-300, lambda2=1e-300, lambda3=1e-300"]),
        (["rotation", "--E", "0.3", "--coupling", "1e-300,1e-300,1e-300", "--n", "1000"],
         ["E=0.3", "lambda1=1e-300, lambda2=1e-300, lambda3=1e-300"]),
        (["badness", "--coupling", "0.05,0.2,0.05", "--N", "1000"], ["N=1000"]),
        (["badness", "--coupling", "0.05,0.2,0.05", "--N", "400"], ["N=400"]),
        (["badness", "--coupling", "1e-300,1e-300,1e-300", "--N", "4"], ["N=4"]),
        (["perturb", "--coupling", "0.05,0.2,0.05", "--freq", "golden",
          "--freq-prime", "0.618034", "--N", "600"], ["N=600"]),
        # a subnormal |c|: 1/|c| overflows, with no numpy warning leaking
        (["le", "--coupling", "0,1e-310,0", "--E", "0", "--n", "1000", "--grid", "2"],
         ["E=0.0", "lambda1=0.0, lambda2=1e-310, lambda3=0.0"]),
        (["rotation", "--coupling", "0,1e-310,0", "--E", "0", "--n", "1000"],
         ["E=0.0", "lambda1=0.0, lambda2=1e-310, lambda3=0.0"]),
        (["perturb", "--coupling", "0,1e-310,0", "--freq-prime", "0.6180339", "--N", "3"],
         ["N=3"]),
        (["badness", "--coupling", "0,1e-310,0", "--N", "4"], ["N=4"]),
        (["le", "--kind", "normalized", "--coupling", "0,1e-310,0", "--E", "0", "--n", "1000",
          "--grid", "2"],
         ["E=0.0", "lambda1=0.0, lambda2=1e-310, lambda3=0.0"]),
    ],
)
def test_past_the_float_range_exits_3_naming_the_cause(argv, named, capsys):
    # a product, window mass or solution past float64 is a numeric error, never a NaN
    assert exit_code(argv) == 3
    err = capsys.readouterr().err
    assert "FloatRangeExceeded" in err
    assert all(name in err for name in named)


def test_le_at_a_large_energy_exits_0_with_a_finite_value(capsys):
    argv = ["le", "--coupling", "0.1,0.5,0.2", "--E", "1e4", "--n", "1000", "--grid", "2"]
    assert exit_code(argv) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["result"]["estimate"]["value"])


def test_delta_on_a_rational_literal_exits_3(capsys):
    # 0.5 = [0; 2] ends at depth 1, below the two levels a delta estimate needs
    argv = ["delta", "--coupling", "0.1,0.5,0.2", "--freq", "0.5"]
    assert exit_code(argv) == 3
    assert "DepthInsufficient" in capsys.readouterr().err


def test_commutant_floor_past_the_float_range_exits_0(capsys):
    # (|k|+1)^tau overflows a float for tau = 1e6: the floor is 0, and every mode passes
    argv = ["commutant", "--freq", "golden", "--rho", "0.25", "--bandwidth", "64", "--tau", "1e6"]
    assert exit_code(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["modes_checked"] == 4 * 64 + 2


def test_delta_level_on_a_zero_exits_3_naming_the_level(tmp_path, capsys):
    # alpha = [0; 3, 1] = 1/4 and theta = 1/2 - alpha/2: the orbit sits on c's zero
    path = tmp_path / "d.json"
    path.write_text('["3", "1"]')
    argv = ["delta", "--coupling", "0.25,0.5,0.25", "--freq", str(path), "--theta", "0.375",
            "--depth", "2"]
    assert exit_code(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "SingularSamplingPoint" in err and "delta level 1" in err


@pytest.mark.parametrize(
    "argv, phi",
    [
        (["commutant", "--rho", "0.5", "--bandwidth", "0"], None),  # every mode unconstrained
        (["cohomology"], "[[0, 0]]"),  # phi has no mode k != 0
    ],
)
def test_an_empty_minimum_reads_null(argv, phi, tmp_path, capsys):
    if phi is not None:
        path = tmp_path / "phi.json"
        path.write_text(phi)
        argv = argv + ["--phi", str(path)]
    assert exit_code(argv) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert record["result"]["min_divisor"] is None


def test_an_empty_commutant_minimum_names_no_mode(capsys):
    # every mode is unconstrained at 2 rho = 1 and bandwidth 0, so none was compared
    assert exit_code(["commutant", "--rho", "0.5", "--bandwidth", "0"]) == 0
    result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["result"]
    assert (result["min_divisor"], result["argmin_k"], result["argmin_sign"]) == (None, None, None)
    assert result["modes_checked"] == 0


@pytest.mark.parametrize("tau", ["2", "80", "1e6"])
def test_commutant_screen_over_several_blocks(tau, capsys):
    # 600 001 k's span 586 screen blocks; at tau 80 numpy's pow overflows inside the
    # screen, and at tau 1e6 every floor past k = 0 leaves the float range and reads 0
    argv = ["commutant", "--freq", "golden", "--rho", "silver/2", "--bandwidth", "300000",
            "--gamma", "0.05", "--tau", tau]
    assert exit_code(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["argmin_k"] == -73207


def test_le_with_excluded_lanes_gives_a_finite_value(capsys):
    # c has a zero on the circle at (0.3, 0.5, 0.2): 2 of the 64 grid orbits enter
    # the zero guard and are dropped, and the rest give a finite estimate
    assert exit_code(["le", "--coupling", "0.3,0.5,0.2", "--E", "0.3"]) == 0
    estimate = json.loads(capsys.readouterr().out)["result"]["estimate"]
    assert estimate["excluded"] == 0.03125 and math.isfinite(estimate["value"])


def test_readme_duality_meets_the_acceptance_distance(capsys):
    # the README's duality command, as printed there, meets criterion 3's gate
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = next(line for line in readme.splitlines() if line.startswith("harperlab duality "))
    assert exit_code(command.split()[1:]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["distance"] <= 0.05


# the experiments whose orbit or window grows with a param, each with the flag that
# sets a frequency it reads and the span the rule names
PERIODIC = [
    (["le", "--coupling", "0.1,0.5,0.2", "--E", "0.3"], "--freq", "orbit of 100000 sites"),
    (["rotation", "--coupling", "0.1,0.5,0.2", "--E", "0.3"], "--freq", "orbit of 100000 sites"),
    (["badness", "--coupling", "0.05,0.2,0.05", "--N", "50"], "--freq", "window of 101 sites"),
    (["perturb", "--coupling", "0.05,0.2,0.05", "--N", "50", "--freq-prime", "0.618034"],
     "--freq", "window of 101 sites"),
    (["perturb", "--coupling", "0.05,0.2,0.05", "--N", "50", "--freq", "0.618034"],
     "--freq-prime", "window of 101 sites"),
]


@pytest.mark.parametrize("argv, flag, span", PERIODIC,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in PERIODIC])
def test_a_rational_frequency_warns_once_its_period_is_reached(argv, flag, span, capsys):
    # at alpha = 1/2 the orbit repeats from 2 sites on; 0.618034 reads as p/q with
    # q near 2^52, which no orbit here reaches
    said = []
    for alpha in ("0.5", "0.618034"):
        code = exit_code([*argv, flag, alpha])
        out, err = capsys.readouterr()
        assert code == 0, err
        said.append([w for w in json.loads(out)["warnings"] if "period" in w])
    assert said == [[f"the {span} reaches the period q = 2 of the rational frequency 1/2"], []]


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--coupling", "0,0.4,0", "--theta", "0.135", "--size", "400"],
        ["duality", "--coupling", "0.1,0.5,0.2", "--size", "64", "--phases", "2"],
    ],
)
def test_eigenvectors_past_memory_exit_3(argv, monkeypatch, capsys):
    # the eigensolve's allocation fails: a numeric error naming the window, not a traceback
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
    assert exit_code(argv) == 3
    out, err = capsys.readouterr()
    size = argv[argv.index("--size") + 1]
    assert out == ""
    assert "WindowTooLarge" in err and f"size-{size} window" in err


def test_a_window_past_memory_exits_3(monkeypatch, capsys):
    # the window's phases cannot be allocated: a numeric error naming it, not a traceback
    import harperlab.model as model_module

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(model_module, "orbit_phases", refuse)
    assert exit_code(["decay", "--coupling", "0,0.4,0", "--size", "10000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "WindowTooLarge" in err and "size-10000000000 window" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["spectrum", "--coupling", "0,1,0", "--size", str(2**63 - 1)],
         f"WindowTooLarge: the phases and entries of the size-{2**63 - 1} window"),
        (["spectrum", "--coupling", "0,1,0", "--size", str(2**62)],
         f"WindowTooLarge: the phases and entries of the size-{2**62} window"),
        (["le", "--coupling", "0.1,0.5,0.2", "--E", "0", "--n", str(2**63 - 1)],
         f"MemoryError: numpy cannot hold an array of {2**63 - 1} phases"),
        (["rotation", "--coupling", "0.1,0.5,0.2", "--E", "0", "--n", str(2**62)],
         f"MemoryError: numpy cannot hold an array of {2**62} phases"),
    ],
)
def test_an_orbit_numpy_cannot_hold_exits_3(argv, error, capsys):
    # numpy cannot even index these arrays: a numeric error naming the window or the
    # orbit, where numpy's ValueError, or an empty orbit at 2^63 - 1, exited 2
    assert exit_code(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert error in err


@pytest.mark.parametrize("value", [2**63, -(2**63), 10**20, 1e300])
def test_an_int_param_past_int64_is_refused_by_name(value, tmp_path, capsys):
    # at both entry points, before numpy sees it
    config = {"experiment": "spectrum", "coupling": [0, 1, 0], "params": {"size": value}}
    assert run_config_main(tmp_path, config) == 2
    if isinstance(value, int):
        assert exit_code(["spectrum", "--coupling", "0,1,0", "--size", str(value)]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: spectrum param 'size'") == (2 if isinstance(value, int) else 1)
    assert "2^63" in err


def test_int_params_up_to_int64_resolve():
    for value in (2**63 - 1, -(2**63) + 1):
        assert resolve_params("spectrum", {"size": value})["size"] == value


def test_the_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    helps = []
    for _ in range(2):  # a cached parser parses and prints help as a fresh one does
        assert exit_code(["forge", "--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--n0" in helps[0]
    assert config_from_args(build_parser().parse_args(["forge", "--n0", "7"])).params["n0"] == 7
    assert config_from_args(build_parser().parse_args(["forge"])).params["n0"] == 5


def test_a_non_finite_record_exits_3(monkeypatch, capsys):
    # main prints strict JSON only: a NaN or an infinity in a record is a numeric error
    monkeypatch.setattr(cli_module, "run", lambda config: {"result": {"value": math.nan}})
    assert exit_code(["spectrum", "--coupling", "0.1,0.5,0.2", "--size", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "non-finite" in err


def test_spectrum_phase_grid_starts_at_theta(capsys):
    argv = ["spectrum", "--coupling", "0.1,0.5,0.2", "--size", "16", "--phases", "2"]
    assert main(argv) == 0
    at_zero = json.loads(capsys.readouterr().out)["result"]
    assert main(argv + ["--theta", "0.3"]) == 0
    shifted = json.loads(capsys.readouterr().out)["result"]
    assert at_zero["phases"] == [0.25, 0.75]
    assert shifted["phases"] == pytest.approx([0.55, 0.05])
    assert shifted["min"] != at_zero["min"] and shifted["max"] != at_zero["max"]


def test_duality_with_every_mode_on_the_edges_exits_3(capsys):
    # size 21: the two 10-row edge zones leave one bulk row
    argv = ["duality", "--coupling", "0.1,0.5,0.2", "--size", "21", "--phases", "1"]
    assert exit_code(argv) == 3
    assert "NoBulkSpectrum" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_fourier_file_exits_2(bad, tmp_path, capsys):
    # json reads NaN and Infinity; the record would print them as non-JSON
    path = tmp_path / "f.json"
    path.write_text(f"[[{bad}, 0], [0, 0], [{bad}, 0]]")
    assert exit_code(["cohomology", "--freq", "golden", "--phi", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "phi" in err


def test_decay_index_out_of_range_exits_2(capsys):
    argv = ["decay", "--coupling", "0,0.4,0", "--size", "400", "--which", "5000"]
    assert exit_code(argv) == 2
    assert "which=5000" in capsys.readouterr().err


def test_run_config_non_number_coupling_exits_2(tmp_path, capsys):
    assert run_config_main(tmp_path, dict(SPECTRUM, coupling=["a", 1, 0])) == 2
    assert "coupling" in capsys.readouterr().err


def test_run_config_bool_coupling_exits_2(tmp_path, capsys):
    assert run_config_main(tmp_path, dict(SPECTRUM, coupling=[True, 1, 0])) == 2
    assert "coupling" in capsys.readouterr().err


@pytest.mark.parametrize("expect", [{"result.cnt": {"equals": 8}}, {"result.count": {"tol": 1}}])
def test_verify_unusable_expectation_fails_and_suite_goes_on(expect, tmp_path, capsys):
    suite = {"suite": [
        {"name": "typo", "config": SPECTRUM, "expect": expect},
        {"name": "good", "config": SPECTRUM, "expect": {"result.count": {"equals": 8}}},
    ]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["FAIL", "typo"], ["PASS", "good"]]
    assert next(iter(expect)) in rows[0]


@pytest.mark.parametrize("top", [[SPECTRUM], {"suite": [1, 2]}, {"suite": "x"}])
def test_verify_malformed_suite_exits_2(top, tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(top))
    assert main(["verify", str(path)]) == 2
    assert "suite error" in capsys.readouterr().err


MALFORMED = [
    # (key the error names, command, JSON file content)
    ("config", "run-config", 5),
    ("params", "run-config", dict(SPECTRUM, params=5)),
    ("coupling", "run-config", dict(SPECTRUM, coupling=5)),
    ("out", "run-config", dict(SPECTRUM, out=["x"])),
    ("name", "verify", {"suite": [{"name": 5, "config": SPECTRUM}]}),
    ("expect", "verify", {"suite": [{"name": "x", "config": SPECTRUM, "expect": [1]}]}),
]


@pytest.mark.parametrize("key,command,content", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_json_exits_2_naming_the_key(key, command, content, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert main([command, str(path)]) == 2
    assert key in capsys.readouterr().err


def test_another_schema_version_is_refused(tmp_path, capsys):
    config = dict(SPECTRUM, schema_version=7)
    assert run_config_main(tmp_path, config) == 2
    assert "schema_version" in capsys.readouterr().err
    suite = {"suite": [{"name": "v7", "config": config, "expect_error": "InvalidCoupling"}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.split()[:4] == ["PASS", "v7", "raised", "InvalidCoupling"]
    with pytest.raises(InvalidCoupling, match="schema_version"):
        run(ExperimentConfig(experiment="spectrum", coupling=[0, 1, 0], schema_version=7))
    assert run_config_main(tmp_path, dict(SPECTRUM, schema_version=1)) == 0


def test_every_config_field_has_a_json_type():
    assert set(cli_module._FIELD_TYPES) == {f.name for f in fields(ExperimentConfig)}


def test_cli_import_loads_neither_scipy_nor_mpmath():
    # both load on first use, so importing the package stays cheap
    code = ("import sys, harperlab.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
