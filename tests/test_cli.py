import json
import math
import subprocess
import sys

import pytest

from harperlab import cli as cli_module
from harperlab.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    canonical_json,
    config_from_args,
    build_parser,
    main,
    run,
    sweep_seeds,
    verify,
)
from harperlab.contfrac import golden
from harperlab.model import CouplingTriple, OperatorSample, zero_structure


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "harperlab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


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


def test_sweep_seeds_deterministic():
    assert sweep_seeds(42, 5) == sweep_seeds(42, 5)
    assert sweep_seeds(42, 5) != sweep_seeds(43, 5)


def test_le_command_matches_formula(tmp_path):
    out = tmp_path / "le.csv"
    proc = cli(
        "le",
        "--coupling",
        "0,0.5,0",
        "--freq",
        "golden",
        "--E",
        "0.0065",
        "--n",
        "5000",
        "--grid",
        "8",
        "--format",
        "csv",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["result"]["formula"] == pytest.approx(math.log(2))
    assert record["result"]["estimate"]["value"] == pytest.approx(math.log(2), rel=0.05)
    header, row = out.read_text().strip().split("\n")
    assert header.startswith("lambda1,lambda2,lambda3,alpha,E,n,grid,value")


def test_forge_rerun_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["forge", "--base", "golden", "--n0", "5", "--beta", "0.5", "--levels", "3"]
    assert cli(*args, "--out", str(f1)).returncode == 0
    assert cli(*args, "--out", str(f2)).returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    digits = json.loads(f1.read_text())
    assert all(isinstance(d, str) for d in digits)


def test_forged_file_usable_as_frequency(tmp_path):
    f = tmp_path / "freq.json"
    cli("forge", "--base", "golden", "--n0", "4", "--beta", "0.4", "--levels", "2", "--out", str(f))
    proc = cli("spectrum", "--coupling", "0,0.5,0", "--freq", str(f), "--size", "16")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["count"] == 16


def test_duality_self_dual_distance_zero():
    proc = cli(
        "duality", "--coupling", "0,1,0", "--freq", "golden", "--size", "64", "--phases", "2"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["distance"] == 0.0


def test_validation_error_exit_2():
    proc = cli("le", "--coupling", "0.1,-0.5,0.2", "--E", "1.0", "--n", "1000", "--grid", "2")
    assert proc.returncode == 2


def test_numeric_error_exit_3():
    proc = cli(
        "commutant",
        "--coupling",
        "0,0.5,0",
        "--freq",
        "golden",
        "--rho",
        "golden/2",
        "--bandwidth",
        "10",
    )
    assert proc.returncode == 3
    assert "DivisorFloorViolated" in proc.stderr


def test_record_determinism_and_threads():
    base = dict(
        experiment="duality",
        coupling=[0.1, 0.5, 0.2],
        frequency="golden",
        params={"size": 48, "phases": 3},
    )
    r1 = run(ExperimentConfig(**base, threads=1))
    r2 = run(ExperimentConfig(**base, threads=2))
    del r1["meta"], r2["meta"]
    del r1["config"], r2["config"]  # differ only in the threads knob
    r1.pop("config_hash"), r2.pop("config_hash")
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


def test_run_config_file(tmp_path):
    cfg = ExperimentConfig(
        experiment="spectrum",
        coupling=[0, 1, 0],
        frequency="silver",
        params={"size": 8},
    )
    p = tmp_path / "cfg.json"
    p.write_text(cfg.to_json())
    proc = cli("run-config", str(p))
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["config_hash"] == cfg.config_hash()
    assert rec["result"]["count"] == 8


def test_parser_covers_all_experiments():
    parser = build_parser()
    args = parser.parse_args(["le", "--coupling", "0,0.5,0"])
    cfg = config_from_args(args)
    assert cfg.experiment == "le"
    assert cfg.params["n"] == 100000


def test_bundled_acceptance_suite_passes():
    import harperlab

    suite = harperlab.__path__[0] + "/data/acceptance_suite.json"
    proc = cli("verify", suite)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 7
    assert "FAIL" not in proc.stdout


def test_convergent_serialization():
    from harperlab.contfrac import golden

    data = json.loads(golden().convergents_to_json(5))
    assert data[0] == ["0", "1"]
    assert data[5] == ["5", "8"]


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


def test_forge_and_delta_past_int_str_limit(tmp_path):
    # n0=22, beta=1: the forged digit a_23 has about 12 400 decimal places,
    # past the 4300-digit default of Python's int <-> str conversion limit
    from harperlab.contfrac import ConstantBeta, forge, golden, int_to_decimal
    from harperlab.model import CouplingTriple
    from harperlab.spectral import delta_exponent

    f = tmp_path / "big.json"
    forged = cli("forge", "--n0", "22", "--beta", "1.0", "--levels", "3", "--out", str(f))
    assert forged.returncode == 0, forged.stderr
    cf = forge(golden(), n0=22, schedule=ConstantBeta(1.0), levels=3)
    digits = [int_to_decimal(a) for a in cf.digits(cf.depth)]
    assert max(len(d) for d in digits) > 12000
    assert json.loads(f.read_text()) == digits
    assert json.loads(forged.stdout)["result"]["digits"] == digits
    proc = cli("delta", "--coupling", "0.25,0.5,0.25", "--freq", str(f), "--theta", "0.135",
               "--depth", str(cf.depth))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["result"]["per_level"]
    _, levels = delta_exponent(CouplingTriple(0.25, 0.5, 0.25), cf, 0.135, cf.depth)
    assert [(r["level"], r["delta"]) for r in rows] == levels


# -- one parameter table behind every entry point ------------------------------

REQUIRED_PARAMS = {"perturb": {"freq_prime": "0.618034"}}


def exit_code(argv):
    """main()'s exit code, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
]


@pytest.mark.parametrize("name,argv,config", DEGENERATE, ids=[d[0] for d in DEGENERATE])
def test_degenerate_input_exits_2(name, argv, config, tmp_path, capsys):
    assert exit_code(argv) == 2
    capsys.readouterr()
    assert run_config_main(tmp_path, config) == 2
    assert name in capsys.readouterr().err


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


def test_duality_with_every_mode_on_the_edges_exits_3(capsys):
    # size 21: the two 10-row edge zones leave one bulk row
    argv = ["duality", "--coupling", "0.1,0.5,0.2", "--size", "21", "--phases", "1"]
    assert exit_code(argv) == 3
    assert "NoBulkSpectrum" in capsys.readouterr().err


def test_decay_index_out_of_range_exits_2(capsys):
    argv = ["decay", "--coupling", "0,0.4,0", "--size", "400", "--which", "5000"]
    assert exit_code(argv) == 2
    assert "which=5000" in capsys.readouterr().err


def test_run_config_non_number_coupling_exits_2(tmp_path, capsys):
    assert run_config_main(tmp_path, dict(SPECTRUM, coupling=["a", 1, 0])) == 2
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
