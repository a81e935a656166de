import json

import pytest

from patchalg.cli import ConfigError, RunConfig, main, run


def strip_timing(report: dict) -> dict:
    clean = json.loads(json.dumps(report))
    for rec in clean["records"]:
        rec.pop("elapsed_ms", None)
    return clean


def test_certificate_suite_exit_zero():
    report, code = run(RunConfig(suites=["certificate"]))
    assert code == 0
    assert report["summary"]["fail"] == 0
    assert report["schema_version"] == 1
    records = {r["case"]: r for r in report["records"]}
    assert records["division-algebra"]["status"] == "pass"
    cert = records["division-algebra"]["details"]
    assert cert["verdict"] == "certified"
    assert cert["valuation_table"]["v_r(b)"]["computed"] == 1


def test_tampered_certificate_exit_one():
    report, code = run(RunConfig(suites=["certificate"], tamper_b=True))
    assert code == 1
    records = {r["case"]: r for r in report["records"]}
    assert records["division-algebra"]["status"] == "fail"
    assert records["division-algebra"]["details"]["verdict"] == "refuted"


def test_duplicate_centers_rejected():
    rc = RunConfig(centers=["0", "1", "1"], suites=["certificate"])
    with pytest.raises(ConfigError, match="centers must be distinct"):
        run(rc)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        run(RunConfig(suites=["nope"]))


def test_bad_precision_rejected():
    with pytest.raises(ConfigError):
        run(RunConfig(precision=2, suites=["certificate"]))


def test_bad_scenario_rejected():
    for scenario in (
        {"i": 1, "j": 1},
        {"i": 7},
        {"q": 3},  # no symbol algebra of degree 3
        {"k": 20},  # the t^(k-1) terms lie past precision 16
        {"k": "3"},
        {"qprme": 4},  # misspelt key
    ):
        with pytest.raises(ConfigError):
            run(RunConfig(scenario=scenario, suites=["certificate"]))


def test_scenario_exponent_near_precision_runs():
    """k = 12 at N = 16 passes the scenario check, so every kummer and
    certificate case raises its fixed precision to k + 1 and passes."""
    report, code = run(RunConfig(scenario={"k": 12}, suites=["kummer", "certificate"]))
    assert code == 0, [r["case"] for r in report["records"] if r["status"] != "pass"]


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"bogus": 1})


def test_determinism_modulo_timing():
    r1, _ = run(RunConfig(suites=["certificate"], seed=7))
    r2, _ = run(RunConfig(suites=["certificate"], seed=7))
    assert strip_timing(r1) == strip_timing(r2)


def test_main_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps({
        "centers": ["0", "1", "2"],
        "precision": 16,
        "suites": ["certificate"],
        "seed": 5,
    }))
    code = main(["--config", str(cfg_path), "--output", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["fail"] == 0
    assert report["config"]["seed"] == 5


def test_main_duplicate_centers_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"centers": ["1", "1"]}))
    code = main(["--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "centers must be distinct" in err


def test_main_profile_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["--suite", "certificate", "--profile", "--output", str(out_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "Ordered by: cumulative time" in err
    assert "certify_division_algebra" in err
    report = json.loads(out_path.read_text())
    plain, _ = run(RunConfig(suites=["certificate"]))
    assert strip_timing(report) == strip_timing(plain)


def test_main_tamper_flag_exit_1(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["--suite", "certificate", "--tamper-b", "--output", str(out_path)])
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["summary"]["fail"] >= 1


def test_cli_overrides():
    rc = RunConfig.from_dict({"seed": 1})
    assert rc.scenario["k"] == 3
    assert rc.suites == ["all"]
    cfg, names = rc.resolve()
    assert cfg.precision == 16
    assert len(names) == 6


def test_default_config_all_suites_pass():
    # the full default run: every suite green, exit code 0
    report, code = run(RunConfig())
    assert code == 0
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skip"] == 0
    suites_seen = {r["suite"] for r in report["records"]}
    assert suites_seen == {"rings", "split", "intersect", "cartan", "kummer", "certificate"}


@pytest.mark.parametrize("data", [
    5,
    {"centers": 5},
    {"centers": "012"},
    {"centers": [True, 1]},
    {"centers": ["1/0", 1, 2]},
    {"scenario": [1]},
    {"suites": 3},
    {"suites": ["certificate", 1]},
    {"seed": "abc"},
    {"seed": True},
    {"seed": None},
    {"tamper_b": "false"},
    {"verbose": 1},
    {"output": 5},
    {"field": "rationals"},
    {"field": {"kind": "rationals", "n": 4}},
    {"field": {"kind": "cyclotomic", "m": "4"}},
    {"field": {"kind": "cyclotomic", "m": 4.0}},
])
def test_main_wrongly_typed_config_exit_2(tmp_path, capsys, data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_unwritable_output_exit_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    assert main(["--suite", "certificate", "--output", str(out_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out_path.parent.exists()
