import copy
import json
import pathlib
import subprocess
import sys
import time

import pytest

from conjcert import fields
from conjcert.cli import (
    KINDS,
    MAX_FIELD_MODULUS,
    GroupCodec,
    _digest,
    build_report,
    main,
    verify_report,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def sl2v_scenario(elements=None):
    if elements is None:
        elements = [{"x": ["2", "0", "0", "1/2"], "v": ["1", "1", "1"]}]
    return {
        "schema_version": 1,
        "kind": "sl2v",
        "params": {"n": 2, "t": "1"},
        "elements": elements,
    }


def finite_scenario():
    return {
        "schema_version": 1,
        "kind": "finite",
        "params": {"p": 2, "linear_generators": [[["1", "1"], ["0", "1"]],
                                                 [["0", "1"], ["1", "0"]]]},
        "elements": "all",
    }


def run_and_load(tmp_path, capsys, scenario, extra_args=()):
    path = write_json(tmp_path / "scenario.json", scenario)
    code = main(["run", path, *extra_args])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_run_sl2v_report(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    assert report["results"][0]["verdicts"] == {"real": "real", "rational": "rational"}
    certs = report["results"][0]["certificates"]
    assert certs and all(c["verified"] for c in certs)
    assert report["integrity"].startswith("sha256:")


def test_reports_byte_identical(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", sl2v_scenario())
    assert main(["run", path, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", path, "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_run_finite_example(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, finite_scenario())
    assert len(report["results"]) == 24
    assert all(r["verdicts"]["rational"] == "rational" for r in report["results"])


def test_empty_element_list(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario(elements=[]))
    assert report["results"] == []


def test_verify_accepts_fresh_report(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    path = write_json(tmp_path / "report.json", report)
    assert main(["verify", path]) == 0


def test_verify_rejects_witness_tampering(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    tampered = copy.deepcopy(report)
    tampered["results"][0]["certificates"][0]["witness"]["v"][0] = "99"
    path = write_json(tmp_path / "tampered.json", tampered)
    assert main(["verify", path]) == 1


def test_verify_rejects_relation_tampering(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    tampered = copy.deepcopy(report)
    payload = {k: v for k, v in tampered.items() if k != "integrity"}
    payload["results"][0]["certificates"][0]["relation"] = {"power": 2}
    from conjcert.cli import _digest

    tampered = {**payload, "integrity": _digest(payload)}  # forge the digest too
    path = write_json(tmp_path / "tampered.json", tampered)
    assert main(["verify", path]) == 1  # certificate re-multiplication still fails


def test_verify_rejects_any_field_edit(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    tampered = copy.deepcopy(report)
    tampered["results"][0]["verdicts"]["real"] = "not_real"
    path = write_json(tmp_path / "tampered.json", tampered)
    assert main(["verify", path]) == 1


def test_text_output(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", sl2v_scenario())
    assert main(["run", path, "--text"]) == 0
    out = capsys.readouterr().out
    assert "real=real" in out and "integrity" in out


def test_verify_only_flag(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", sl2v_scenario())
    assert main(["run", path, "--verify-only"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"failures": 0, "verified_results": 1}


def test_decimal_scalars_rejected(tmp_path, capsys):
    bad = sl2v_scenario(elements=[{"x": ["2", "0", "0", "0.5"], "v": ["1", "1", "1"]}])
    path = write_json(tmp_path / "scenario.json", bad)
    assert main(["run", path]) == 2


def test_unknown_kind_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json",
                      {"schema_version": 1, "kind": "mystery", "elements": []})
    assert main(["run", path]) == 2


def test_wrong_schema_version_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json",
                      {"schema_version": 99, "kind": "sl2v", "elements": []})
    assert main(["run", path]) == 2


def test_missing_file_rejected(capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 2


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    scenario = {
        "schema_version": 1,
        "kind": "affine",
        "params": {"x": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
                   "order": 3},
        "elements": [{"v": ["1", "-1", "0"]}],
    }
    path = write_json(tmp_path / "scenario.json", scenario)
    monkeypatch.setenv("CONJCERT_SEED", "42")
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42
    assert report["results"][0]["verdicts"]["rational"] == "rational"


def test_heisenberg_scenario(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "kind": "heisenberg",
        "params": {},
        "elements": [{"v": ["1", "2", "3", "4"], "t": "5"},
                     {"v": ["0", "0", "0", "0"], "t": "0"}],
    }
    report = run_and_load(tmp_path, capsys, scenario)
    assert all(r["verdicts"]["real"] == "real" for r in report["results"])
    assert all(c["verified"]
               for r in report["results"] for c in r["certificates"])


def test_solvable_scenario(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "kind": "solvable",
        "params": {},
        "elements": [{"a": "2", "b": "1", "c": "1", "x": -1},
                     {"a": "1", "b": "1", "c": "1", "x": -1},
                     {"a": "1/2+1/2 i", "b": "2", "c": "1/2+1/2 i", "x": -1}],
    }
    report = run_and_load(tmp_path, capsys, scenario)
    verdicts = [r["verdicts"]["real"] for r in report["results"]]
    assert verdicts == ["real", "not_real", "real"]


def test_infinite_order_affine_scenario(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "kind": "affine",
        "params": {"x": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
                   "order": 3},
        "elements": [{"v": ["1", "1", "1"]}],
    }
    report = run_and_load(tmp_path, capsys, scenario)
    assert report["results"][0]["verdicts"]["rational"] == "infinite_order"


def test_build_report_rejects_programmatically():
    with pytest.raises(Exception):
        build_report({"schema_version": 1, "kind": "nope"}, 0, 100)


def test_verify_report_function_detects_missing_integrity(tmp_path, capsys):
    report = run_and_load(tmp_path, capsys, sl2v_scenario())
    del report["integrity"]
    assert verify_report(report)


def test_shipped_scenarios_run_clean(tmp_path, capsys):
    import pathlib

    scenario_dir = pathlib.Path(__file__).parent.parent / "scenarios"
    paths = sorted(scenario_dir.glob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        assert main(["run", str(path)]) == 0, path.name
        report = json.loads(capsys.readouterr().out)
        assert verify_report(report) == []


# -- the kind registry -----------------------------------------------------------

def forge(report, edit):
    """Apply ``edit`` to a copy of ``report`` and recompute its unkeyed digest."""
    payload = {k: v for k, v in copy.deepcopy(report).items() if k != "integrity"}
    edit(payload)
    return {**payload, "integrity": _digest(payload)}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_codec_round_trips_shipped_elements_and_witnesses(path):
    scenario = json.loads(path.read_text())
    report = build_report(scenario, 0, 10_000)
    codec = GroupCodec(scenario["kind"], scenario.get("params", {}))
    payloads = [r["element"] for r in report["results"]]
    payloads += [c["witness"] for r in report["results"] for c in r["certificates"]]
    assert payloads
    for payload in payloads:
        element = codec.decode(payload)
        assert codec.encode(element) == payload
        assert codec.decode(codec.encode(element)) == element


def test_shipped_scenarios_cover_every_kind():
    assert {json.loads(p.read_text())["kind"] for p in SCENARIOS} == set(KINDS)


@pytest.mark.parametrize("edit,message", [
    ({"kind": ["sl2v"]}, "unknown scenario kind"),
    ({"kind": "affine", "params": []}, "params must be an object"),
], ids=["list_kind", "list_params"])
def test_malformed_kind_or_params_rejected(tmp_path, capsys, edit, message):
    scenario = {**sl2v_scenario(elements=[]), **edit}
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert message in capsys.readouterr().err
    report = forge(build_report(sl2v_scenario(), 0, 100),
                   lambda payload: payload["scenario"].update(edit))
    failures = verify_report(report)
    assert len(failures) == 1 and message in failures[0]


HOSTILE_MODULUS = 1_000_000_000_000_000_003
HOSTILE_PARAMS = {
    "finite": {"p": HOSTILE_MODULUS, "linear_generators": [[["1"]]]},
    "affine": {"field": {"type": "Fp", "p": HOSTILE_MODULUS}, "x": [["1"]], "order": 1},
}


@pytest.mark.parametrize("kind", sorted(HOSTILE_PARAMS))
def test_hostile_field_modulus_rejected_quickly(tmp_path, capsys, monkeypatch, kind):
    trial_division = fields.is_prime

    def capped(n):  # fail at once instead of dividing for hours
        assert n <= MAX_FIELD_MODULUS, f"trial division of {n}"
        return trial_division(n)

    monkeypatch.setattr(fields, "is_prime", capped)
    scenario = {"schema_version": 1, "kind": kind, "params": HOSTILE_PARAMS[kind],
                "elements": []}
    started = time.monotonic()
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert "exceeds the sanity cap" in capsys.readouterr().err
    report = {"schema_version": 1, "tool": "conjcert", "scenario": scenario,
              "seed": 0, "bound": 100, "results": []}
    failures = verify_report({**report, "integrity": _digest(report)})
    assert len(failures) == 1 and "exceeds the sanity cap" in failures[0]
    assert time.monotonic() - started < 1.0


def test_verify_rejects_forged_positive_verdicts():
    scenario = json.loads((ROOT / "scenarios" / "sl2v_quadratic.json").read_text())
    report = build_report(scenario, 0, 10_000)
    assert verify_report(report) == []
    assert report["results"][1]["certificates"] == []

    def real(payload):
        payload["results"][1]["verdicts"]["real"] = "real"

    def rational(payload):
        payload["results"][1]["verdicts"]["rational"] = "rational"

    assert verify_report(forge(report, real)) == [
        "result 1: verdict real without an inverse certificate"]
    assert verify_report(forge(report, rational)) == [
        "result 1: verdict rational without a certificate"]


def test_traced_benchmark_sees_every_cli_layer():
    """bench/tracer.py wraps GroupCodec.encode and GroupCodec.decode by name;
    a kind record that the runners or verify_report call past those methods
    leaves a cli metric at zero."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lift_verify",
                           "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout.decode(errors="replace")[-2000:]
    cli = {name: m["value"] for name, m in summary["metrics"].items()
           if name.startswith("cli.")}
    assert cli and all(cli.values()), cli
