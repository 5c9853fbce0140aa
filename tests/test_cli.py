import copy
import functools
import hashlib
import json
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conjcert import cli, fields, heisenberg, semidirect, sl2
from conjcert.cli import (
    DEFAULT_BOUND,
    KINDS,
    MAX_FIELD_MODULUS,
    GroupCodec,
    _digest,
    build_report,
    main,
    verify_report,
)
from conformance_fixtures import bench_module, traced_run

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


STRICT_FIELDS = {"Q": "Q", "Qi": "Qi", "F7": {"type": "Fp", "p": 7}}


def _one_scalar_scenario(field, token):
    return {"schema_version": 1, "kind": "affine",
            "params": {"field": STRICT_FIELDS[field], "x": [["1"]], "order": 1},
            "elements": [{"v": [token]}]}


# "1_0", "٣" (Arabic-Indic three) and "３" (fullwidth three) pass int() and \d;
# "2+-3 i" puts two signs between the real and the imaginary part
@pytest.mark.parametrize("token", ["1.5", "1e3", "1/0", "0x10", "1/-2", "", "1_0", "٣", "３",
                                   "2+-3 i"])
@pytest.mark.parametrize("field", sorted(STRICT_FIELDS))
def test_inexact_scalar_tokens_rejected(tmp_path, capsys, field, token):
    scenario = _one_scalar_scenario(field, token)
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, token, value", [
    ("Q", "+3", "3"), ("Q", " 3 ", "3"), ("Q", "-007/2", "-7/2"),
    ("Qi", "+3", "3+0 i"), ("Qi", " 3 ", "3+0 i"), ("Qi", "2-3 i", "2-3 i"),
    ("Qi", "-i", "0-1 i"),
    ("F7", "+3", "3"), ("F7", " 3 ", "3"), ("F7", "-010", "4"),
])
def test_exact_scalar_tokens_accepted(tmp_path, capsys, field, token, value):
    scenario = _one_scalar_scenario(field, token)
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["element"]["translation"] == [value]


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


def heisenberg_fixed_point_scenario(v, t):
    """x = I, which fixes every quotient vector, with the reality witness
    diag(1, 1, -1, -1) (mu = -1)."""
    return {
        "schema_version": 1,
        "kind": "heisenberg",
        "params": {"x": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                   "witness": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                               ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]},
        "elements": [{"v": v, "t": t}],
    }


def test_heisenberg_fixed_point_is_solved_when_the_witness_equation_is(tmp_path, capsys):
    """Both levels of I - x^-1 are zero; for v = 0 the witness h maps
    (0, t) to (0, -t), so every level's system reads 0 = 0 and (h, e)
    is the certificate."""
    report = run_and_load(tmp_path, capsys,
                          heisenberg_fixed_point_scenario(["0", "0", "0", "0"], "1"))
    result, = report["results"]
    assert result["verdicts"] == {"real": "real"}
    cert, = result["certificates"]
    assert cert["relation"] == "inverse" and cert["verified"]
    assert cert["witness"]["n"] == {"v": ["0", "0", "0", "0"], "t": "0"}


def test_heisenberg_fixed_point_without_a_solution_names_the_level(tmp_path, capsys):
    """For v = (1, 0, 0, 0), h fixes v, so level 0 reads 0 z = (-2, 0, 0, 0)."""
    path = write_json(tmp_path / "scenario.json",
                      heisenberg_fixed_point_scenario(["1", "0", "0", "0"], "0"))
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "level 0's witness equation" in err and "inverse relation" in err
    assert "Traceback" not in err


def test_heisenberg_run_builds_one_presentation_and_one_product(monkeypatch):
    """The heisenberg runner lifts through the codec's group, and the
    solvable runner classifies in it: neither the lifts nor the complex
    Heisenberg case analysis builds a presentation or a SemidirectProduct
    of its own, so each build_report builds one of each."""
    counts = {"builds": 0, "presentations": 0, "products": 0}

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    for cls, key in ((semidirect.CentralSeriesPresentation, "presentations"),
                     (semidirect.SemidirectProduct, "products")):
        monkeypatch.setattr(cls, "__init__", counted(key, cls.__init__))
    for name, builder in (("heisenberg_gsp4", "heisenberg_presentation"),
                          ("solvable_complex_heisenberg", "complex_heisenberg_group")):
        build = counted("builds", getattr(heisenberg, builder))
        for module in (cli, heisenberg):
            monkeypatch.setattr(module, builder, build)
        scenario = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
        counts.update(dict.fromkeys(counts, 0))
        for runs in (1, 2):
            assert len(build_report(scenario, 0, DEFAULT_BOUND)["results"]) > 1
            assert counts == dict.fromkeys(counts, runs), (name, counts)


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


def test_affine_scenario_with_a_non_rational_linear_part(tmp_path, capsys):
    """x = diag(2, 4, 4) over F_7 has order 3, and x^2 = diag(4, 2, 2) has
    another second invariant factor, so every (x, v) is decided
    not_rational, with a note naming k = 2 and the factor that moved."""
    scenario = {
        "schema_version": 1,
        "kind": "affine",
        "params": {"field": {"type": "Fp", "p": 7},
                   "x": [["2", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]],
                   "order": 3},
        "elements": [{"v": ["1", "0", "0"]}, {"v": ["0", "0", "0"]}],
    }
    report = run_and_load(tmp_path, capsys, scenario)
    assert verify_report(report) == []
    for result in report["results"]:
        assert result["verdicts"] == {"rational": "not_rational"}
        assert result["certificates"] == []
        assert result["notes"] == ["x^2 is not conjugate to x: invariant factor 2 is "
                                   "t + 3 for x and t + 5 for x^2"]


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



def _element(i, **fields):
    return lambda payload: payload["results"][i]["element"].update(fields)


@pytest.mark.parametrize("name,edit,message", [
    ("sl2v_quadratic", lambda payload: payload["results"][1].update(certificates=None),
     "result 1: certificates must be a list"),
    ("sl2v_quadratic", lambda payload: payload.update(results=5), "results must be a list"),
    ("sl2v_quadratic", lambda payload: payload.update(results=payload["results"][:1]),
     "4 scenario elements but 1 results"),
    ("sl2v_quadratic", _element(0, h="1001"),
     "result 0: undecodable element (sl2v h must be a list, got '1001')"),
    # iterated, "10" would read as [1, 0], and this forgery would verify
    ("finite_psl2_f2", _element(3, linear=["10", "01"], translation="10"),
     "result 3: undecodable element (matrix row must be a list, got '10')"),
    ("finite_psl2_f2", _element(3, translation="10"),
     "result 3: undecodable element (vector must be a list, got '10')"),
], ids=["null_certificates", "integer_results", "truncated_results", "string_sl2v_h",
        "string_rows", "string_translation"])
def test_verify_rejects_non_list_fields(tmp_path, capsys, name, edit, message):
    scenario = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    report = forge(build_report(scenario, 0, 10_000), edit)
    assert verify_report(report) == [message]
    assert main(["verify", write_json(tmp_path / "report.json", report)]) == 1
    assert f"verification failure: {message}" in capsys.readouterr().err


# -- the per-call decode memo --------------------------------------------------------

def test_decode_memo_keeps_every_refusal():
    """Inside one report, after "1" has been decoded, the tokens true, 1.0 and
    [1] still meet the type checks, a malformed token repeated in two results
    fails in each, and int 1 decodes like "1"."""
    scenario = json.loads((ROOT / "scenarios" / "affine_three_cycle.json").read_text())
    scenario["elements"] = [{"v": ["1", "-1", "0"]}] * 7
    report = build_report(scenario, 0, DEFAULT_BOUND)
    tokens = {1: True, 2: 1.0, 3: [1], 4: "1.5", 5: "1.5", 6: 1}

    def edit(payload):
        for i, token in tokens.items():
            payload["results"][i]["element"]["translation"][0] = token

    forged = forge(report, edit)
    refused = "undecodable element (scalars must be exact strings or integers, got"
    inexact = "undecodable element (not an exact scalar (decimals rejected): '1.5')"
    assert verify_report(forged) == [f"result 1: {refused} True)",
                                     f"result 2: {refused} 1.0)",
                                     f"result 3: {refused} [1])",
                                     f"result 4: {inexact}",
                                     f"result 5: {inexact}"]
    codec = GroupCodec(scenario["kind"], scenario["params"])
    assert (codec.decode(forged["results"][6]["element"])
            == codec.decode(forged["results"][0]["element"]))
    assert codec.scalar(1) == codec.scalar("1") == 1


def test_verify_checks_each_distinct_gsp_matrix_once_per_call(monkeypatch):
    """All results of a heisenberg report share x and the witness's GSp part,
    so one verify_report call runs GSpElement.of once for each of the two;
    the memo dies with the call, so the next call runs it again."""
    rng = random.Random(0)

    def token():
        return str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    scenario = {"schema_version": 1, "kind": "heisenberg", "params": {},
                "elements": [{"v": [token() for _ in range(4)], "t": token()}
                             for _ in range(220)]}
    report = build_report(scenario, 0, DEFAULT_BOUND)
    calls = []
    of = heisenberg.GSpElement.of
    monkeypatch.setattr(heisenberg.GSpElement, "of",
                        staticmethod(lambda g: calls.append(g) or of(g)))
    assert verify_report(report) == []
    assert len(calls) == 2 and calls[0] != calls[1]
    assert verify_report(report) == []
    assert len(calls) == 4 and calls[2:] == calls[:2]
    codec = GroupCodec("heisenberg", {})
    first, last = (codec.decode(result["element"]) for result in report["results"][::219])
    assert first.h is last.h


def test_verify_refuses_a_zero_unit_scalar(tmp_path, capsys):
    """H = Q(i)^x is carried as plain scalars, so the decoder itself refuses
    a witness whose acting part is 0."""
    scenario = json.loads((ROOT / "scenarios" / "solvable_complex_heisenberg.json").read_text())
    report = build_report(scenario, 0, DEFAULT_BOUND)
    assert report["results"][0]["certificates"]

    def zero_h(payload):
        payload["results"][0]["certificates"][0]["witness"]["h"] = "0"

    message = "result 0 certificate 0: unit scalar must be nonzero"
    forged = forge(report, zero_h)
    assert verify_report(forged) == [message]
    assert main(["verify", write_json(tmp_path / "report.json", forged)]) == 1
    err = capsys.readouterr().err
    assert f"verification failure: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("workload", ["finite_gl23", "sl2v_sweep", "affine_kron",
                                      "lift_verify"])
def test_traced_workload_sees_every_mapped_layer(workload):
    """bench/tracer.py wraps route functions, GroupCodec.encode/decode and
    the lift through semidirect.lift_central_series, SemidirectElement.__mul__
    and heisenberg.gsp_act, all by name: a kind record that the runners or
    verify_report call past those methods, or a route taken around them,
    leaves a metric mapped to the workload at zero.  The traced run is
    shared with the linalg and sl2 layer tests (``traced_run``)."""
    proc = traced_run(workload)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    out = proc.stdout.decode(errors="replace")
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"] is True, out[-2000:]
    reference = json.loads((ROOT / "bench" / "fingerprints.json").read_text())[workload]["0"]
    assert re.search(r"\bfingerprint=(\w+)", out).group(1) == reference
    value = {name: metric["value"] for name, metric in summary["metrics"].items()}
    mapped = {name for name, _, nonzero_on in bench_module("tracer").PER_LAYER
              if workload in nonzero_on}
    zero = sorted(name for name in mapped if not value[name])
    assert not zero, zero
    if workload != "lift_verify":
        return
    assert {"semidirect.lift_calls", "semidirect.pair_mults", "heisenberg.gsp_act_calls",
            "cli.encode_s", "cli.decode_s"} <= mapped
    # the lift and the complex Heisenberg solve work in N alone, so every
    # pair product left is one of the two of a certificate's re-multiplication
    checks = value["groups.cert_checks.build"] + value["groups.cert_checks.verify"]
    assert value["semidirect.pair_mults"] == 2 * checks


# -- relations, orders and pinned reports ------------------------------------------

@pytest.mark.parametrize("power", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_verify_rejects_non_integer_powers(power):
    scenario = json.loads((ROOT / "scenarios" / "affine_three_cycle.json").read_text())
    report = build_report(scenario, 0, DEFAULT_BOUND)
    assert report["results"][0]["certificates"][0]["relation"] == {"power": 1}

    def relabel(payload):
        payload["results"][0]["certificates"][0]["relation"] = {"power": power}

    assert verify_report(forge(report, relabel)) == [
        f"result 0 certificate 0: relation power must be an integer, got {power!r}"]


@pytest.mark.parametrize("order", [0, 10 ** 12], ids=["zero", "huge"])
def test_affine_order_outside_the_bound_exits_quickly(tmp_path, capsys, order):
    scenario = {"schema_version": 1, "kind": "affine",
                "params": {"x": [["0", "1"], ["1", "0"]], "order": order},
                "elements": [{"v": ["1", "0"]}]}
    started = time.monotonic()
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert time.monotonic() - started < 1.0
    assert f"order {order} lies outside [1, bound = {DEFAULT_BOUND}]" in capsys.readouterr().err


def test_affine_order_of_the_element_above_the_bound_exits_quickly(tmp_path, capsys):
    """x = [[1]] has order 1, but (x, 1) over F_p has order p: one power
    certificate per k coprime to p would be about 2^31 of them."""
    scenario = {"schema_version": 1, "kind": "affine",
                "params": {"field": {"type": "Fp", "p": 2147483647},
                           "x": [["1"]], "order": 1},
                "elements": [{"v": ["1"]}]}
    started = time.monotonic()
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert time.monotonic() - started < 1.0
    assert (f"order 2147483647 of (x, v) exceeds bound = {DEFAULT_BOUND}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_bound_below_one_is_a_usage_error(capsys, path):
    assert main(["run", str(path), "--bound", "0"]) == 2
    assert "error: bound must be at least 1, got 0" in capsys.readouterr().err


def test_finite_closure_past_its_cap_is_a_usage_error(capsys):
    """--bound 1 caps the closure at 10 elements; PSL(2,2) |x F_2^2 has 24."""
    assert main(["run", str(ROOT / "scenarios" / "finite_psl2_f2.json"), "--bound", "1"]) == 2
    assert "error: closure exceeded cap 10" in capsys.readouterr().err


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_elements_must_be_a_list(tmp_path, capsys, path):
    """Only a finite scenario takes the string "all"; any other string fails
    naming the field, not as a malformed-input TypeError."""
    scenario = json.loads(path.read_text())
    value = "xyz" if scenario["kind"] == "finite" else "all"
    scenario["elements"] = value
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert f"error: scenario elements must be a list, got {value!r}" in capsys.readouterr().err


def test_sl2v_order_two_is_rational_at_bound_one(tmp_path, capsys):
    """(-I, v) with n = 1 has order 2, and --bound does not reach the order
    probe: the element is rational with its power 1 certificate."""
    scenario = {"schema_version": 1, "kind": "sl2v", "params": {"n": 1},
                "elements": [{"x": ["-1", "0", "0", "-1"], "v": ["1", "2"]}]}
    result = run_and_load(tmp_path, capsys, scenario, ["--bound", "1"])["results"][0]
    assert result["verdicts"]["rational"] == "rational"
    powers = [c for c in result["certificates"] if c["relation"] == {"power": 1}]
    assert len(powers) == 1 and powers[0]["verified"]


# Each integer parameter as the one scenario field that a test replaces.
INTEGER_PARAMS = {
    "affine_order": lambda value: {"kind": "affine", "elements": [{"v": ["1", "0"]}],
                                   "params": {"x": [["0", "1"], ["1", "0"]], "order": value}},
    "sl2v_n": lambda value: {"kind": "sl2v", "params": {"n": value, "t": "1"},
                             "elements": [{"x": ["2", "0", "0", "1/2"], "v": ["1", "1", "1"]}]},
    "solvable_x": lambda value: {"kind": "solvable", "params": {},
                                 "elements": [{"a": "1", "b": "2", "c": "1", "x": value}]},
    "finite_p": lambda value: {"kind": "finite", "elements": [],
                               "params": {"p": value, "linear_generators": [[["1"]]]}},
    "field_p": lambda value: {"kind": "affine", "elements": [],
                              "params": {"field": {"type": "Fp", "p": value},
                                         "x": [["1"]], "order": 1}},
    "scenario_seed": lambda value: {"kind": "sl2v", "params": {"n": 2, "t": "1"},
                                    "elements": [], "seed": value},
}


@pytest.mark.parametrize("value", [3.9, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("param", sorted(INTEGER_PARAMS))
def test_integer_params_accept_only_json_integers(tmp_path, capsys, param, value):
    scenario = {"schema_version": 1, **INTEGER_PARAMS[param](value)}
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert f"must be an integer, got {value!r}" in capsys.readouterr().err


# Integrity digests of the shipped scenarios at seed 0 and the default bound.
# A change here changes report bytes: say why in CHANGES.md.
GOLDEN_DIGESTS = {
    "affine_three_cycle":
        "sha256:b8ec792adb816763408be065a3d5b6cfdd7ef2193906eeb209510c9ca2e886e4",
    "finite_psl2_f2":
        "sha256:c376e34db9cc6539aa1ceac2174f2aee25fb43874225025693afc70201f815cf",
    "heisenberg_gsp4":
        "sha256:90cd12bed27ab3fddbbb00575d0b3a17f3f51b0469a348b54347992016d01107",
    "sl2v_quadratic":
        "sha256:e468d98d674359068ea081f4e7d0d436ae4d8cd6496ae98710ad4b7b23904022",
    "solvable_complex_heisenberg":
        "sha256:1429a1c7f8994e3bfb764b90880c77da5f3b78667928f9d0af0c15170871dbe9",
}


def test_golden_digests_cover_the_shipped_scenarios():
    assert set(GOLDEN_DIGESTS) == {p.stem for p in SCENARIOS}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenario_digest_is_pinned(path):
    report = build_report(json.loads(path.read_text()), 0, DEFAULT_BOUND)
    assert report["integrity"] == GOLDEN_DIGESTS[path.stem]


# For each benchmark workload and seed: the SHA-256 of the newline-joined
# integrity digests of its scenarios' reports, built at seed 0 and the
# default bound as bench/run.py builds them.  A change here changes report
# bytes: say why in CHANGES.md.
WORKLOAD_SEEDS = (0, 1, 3, 11)
WORKLOAD_DIGESTS = {
    ("finite_gl23", 0): "8af0768fde7f9a603fec64a9335771bd948282dd08dcf0d7ec7799c631d1268b",
    ("finite_gl23", 1): "ca294244596048c564538b772593137ed83096c56b21dec047609022e4c23270",
    ("finite_gl23", 3): "6e96db9822728cc6d7a437a433390f9582defb993c5fd5ac02f4037a52c301c9",
    ("finite_gl23", 11): "27a12b4ef81edf96514504236a9866c8a49d77b56fd13cd74a2a0d363ae58e9b",
    ("sl2v_sweep", 0): "044868dc061a90554c2cd24a59aeda508cdd777eb83208fb43e2d76b15e1d830",
    ("sl2v_sweep", 1): "5c2f0c5c3c019080301a06aa571d9f259f86c66672519ca344c3d414bdf35b4f",
    ("sl2v_sweep", 3): "20ac87f9acb5abe50970297b00199aa9e7bc3518897dd1355df7a34ef51b846a",
    ("sl2v_sweep", 11): "764b9e158161d873345ba509951a1ba92d166eea5017c9f3bf3342a48d811d3b",
    ("affine_kron", 0): "1d03b9a30d6af5a0b726fcf2bb2ed9dae066fd943bce1fabe2d81b6cd976e97d",
    ("affine_kron", 1): "2697db03bc5e72bf8b67b958dfc15ed7edf0c54c5f84c9fe303bd4608cb3b19e",
    ("affine_kron", 3): "7e6d216e4e90ef6cd0a97cafd4b2bacd0db72d8840ee5c1ae3b032fcf07277b2",
    ("affine_kron", 11): "10110da045b34de030ccfe53316eea579aa0b5d14d689e76f7f66c4381c3de56",
    ("lift_verify", 0): "e27072f8b4a6b932d7e4ba48d63208052dc39f74b913177b659c0a313a388a75",
    ("lift_verify", 1): "0ba108ff5cf228dcebf05ba18faf56f0a5e88819772c464fe538c6412bf12c1a",
    ("lift_verify", 3): "94d89aef8708f073d93dfb7ad0c6bf292634e3fccbf24e3a1773a380bfbbd14a",
    ("lift_verify", 11): "f1398f32e8ecd6cd92e6a2105ee69574603ab7fa94b2003c43e44d5af9fa9a29",
}


def test_workload_digests_cover_every_workload_and_seed():
    assert set(WORKLOAD_DIGESTS) == {(w, seed) for w in bench_module("workloads").WORKLOADS
                                     for seed in WORKLOAD_SEEDS}


@pytest.mark.parametrize("workload,seed", sorted(WORKLOAD_DIGESTS))
def test_workload_reports_are_pinned(workload, seed):
    scenarios, _ = bench_module("workloads").WORKLOADS[workload](seed)
    integrity = "\n".join(build_report(s, 0, DEFAULT_BOUND)["integrity"] for s in scenarios)
    assert hashlib.sha256(integrity.encode()).hexdigest() == WORKLOAD_DIGESTS[workload, seed]


def test_sl2v_classifies_reality_once_per_element(monkeypatch):
    scenario = json.loads((ROOT / "scenarios" / "sl2v_quadratic.json").read_text())
    calls = []
    classify = sl2.classify_real

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(sl2, "classify_real", counted)
    monkeypatch.setattr(cli, "classify_real", counted, raising=False)
    build_report(scenario, 0, DEFAULT_BOUND)
    assert len(calls) == len(scenario["elements"])


# -- typed decoding ------------------------------------------------------------------

def test_sl2v_scenario_refuses_a_string_for_x(tmp_path, capsys):
    """Iterated, "1001" would pass the length check and read as x = I."""
    scenario = sl2v_scenario([{"x": "1001", "v": "000"}])
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    assert "sl2v element x must be a list, got '1001'" in capsys.readouterr().err


@pytest.mark.parametrize("h,message", [
    ([], "a similitude needs a nonempty square matrix"),
    ("1234", "matrix must be a list, got '1234'"),
    ([["0", "1"], ["-1", "0"]], "a heisenberg element needs a 4x4 similitude and a 4-entry v"),
], ids=["empty", "string", "two_by_two"])
def test_verify_refuses_a_malformed_gsp_witness(tmp_path, capsys, h, message):
    """The first two used to raise IndexError out of verify_report; a 2x2
    similitude is one, but H_5 needs GSp(4)."""
    scenario = json.loads((ROOT / "scenarios" / "heisenberg_gsp4.json").read_text())
    report = build_report(scenario, 0, DEFAULT_BOUND)

    def edit(payload):
        payload["results"][0]["certificates"][0]["witness"]["h"] = h

    forged = forge(report, edit)
    assert verify_report(forged) == [f"result 0 certificate 0: {message}"]
    assert main(["verify", write_json(tmp_path / "report.json", forged)]) == 1
    assert f"verification failure: result 0 certificate 0: {message}" in capsys.readouterr().err


SWAP_4X4 = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
ROTATION_2X2 = [["0", "1"], ["-1", "0"]]


@pytest.mark.parametrize("params,element", [
    # diag(2, 1/2) and the quarter rotation are a consistent GSp(2) pair on H_3
    ({"x": [["2", "0"], ["0", "1/2"]], "witness": ROTATION_2X2}, {"v": ["1", "2"], "t": "0"}),
    ({}, {"v": ["1", "2", "3"], "t": "0"}),
    ({"x": SWAP_4X4, "witness": ROTATION_2X2}, {"v": ["1", "2", "3", "4"], "t": "0"}),
], ids=["two_by_two_x", "three_entry_v", "two_by_two_witness"])
def test_heisenberg_scenario_names_the_expected_shape(tmp_path, capsys, params, element):
    """A scenario's x, witness and v are checked the way a report's elements
    are.  Before, each failed inside the arithmetic, with "shape mismatch",
    "4x4 applied to dim 3" and "2x2 times 4x4"."""
    scenario = {"schema_version": 1, "kind": "heisenberg", "params": params,
                "elements": [element]}
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    err = capsys.readouterr().err
    assert "a heisenberg element needs a 4x4 similitude and a 4-entry v" in err
    assert "Traceback" not in err


IDENTITY_4X4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("params,missing", [
    ({"witness": IDENTITY_4X4}, "x"),
    ({"x": IDENTITY_4X4}, "witness"),
], ids=["lone_witness", "lone_x"])
def test_heisenberg_params_name_the_missing_field(tmp_path, capsys, params, missing):
    """x and the witness come together.  Before, a lone witness was ignored
    and the built-in example reported "real", and a lone x failed with
    "malformed input (KeyError('witness'))"."""
    scenario = {"schema_version": 1, "kind": "heisenberg", "params": params,
                "elements": [{"v": ["1", "2", "3", "4"], "t": "0"}]}
    assert main(["run", write_json(tmp_path / "scenario.json", scenario)]) == 2
    err = capsys.readouterr().err
    assert f"heisenberg params give {next(iter(params))} but no {missing}" in err
    assert "KeyError" not in err


def test_verify_refuses_an_sl2v_witness_of_three_entries(tmp_path, capsys):
    """The report decoder reads h as the scenario runner reads x; before, a
    3-entry h failed with "not enough values to unpack"."""
    report = build_report(sl2v_scenario(), 0, DEFAULT_BOUND)

    def edit(payload):
        payload["results"][0]["certificates"][0]["witness"]["h"] = ["0", "1", "-1"]

    message = "result 0 certificate 0: sl2v h must have exactly 4 entries"
    forged = forge(report, edit)
    assert verify_report(forged) == [message]
    assert main(["verify", write_json(tmp_path / "report.json", forged)]) == 1
    assert f"verification failure: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name,builder", [
    ("heisenberg_gsp4", "heisenberg_presentation"),
    ("solvable_complex_heisenberg", "complex_heisenberg_group"),
], ids=["heisenberg", "solvable"])
def test_verify_builds_the_ambient_group_once_per_call(monkeypatch, name, builder):
    """Every decoded element and witness of a pair kind shares the codec's
    group, and the next call builds its own."""
    report = build_report(json.loads((ROOT / "scenarios" / f"{name}.json").read_text()),
                          0, DEFAULT_BOUND)
    assert len(report["results"]) > 1
    calls = []
    build = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda: calls.append(1) or build())
    assert verify_report(report) == []
    assert len(calls) == 1
    assert verify_report(report) == []
    assert len(calls) == 2
    codec = GroupCodec(report["scenario"]["kind"], report["scenario"].get("params", {}))
    first, last = (codec.decode(report["results"][i]["element"]) for i in (0, -1))
    assert first.group is last.group is codec.group


# -- hostile element and witness payloads ----------------------------------------------

# strings of scalar characters as often as any strings: iterated, they decode
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6)
    | st.text("0123456789/-i ", max_size=6) | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)


@functools.lru_cache(maxsize=None)
def shipped_report(path):
    return build_report(json.loads(path.read_text()), 0, DEFAULT_BOUND)


def payloads(report):
    """Every element and witness payload, with its parent and key.  Relations
    are left out: their cost is not bounded yet."""
    for result in report["results"]:
        yield result, "element"
        for cert in result["certificates"]:
            yield cert, "witness"


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_payloads_are_failures_not_crashes(tmp_path_factory, path, data):
    """Any JSON in place of one element or witness payload, or of a node
    inside one, digest recomputed: verify_report returns a list and
    ``conjcert verify`` exits 0, 1 or 2 without raising."""
    def replace(payload):
        parent, key = data.draw(st.sampled_from(list(payloads(payload))))
        # descend a random number of levels, so shallow nodes are drawn as often as leaves
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            node = parent[key]
            parent, key = node, data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
        parent[key] = data.draw(JSON_VALUES)

    forged = forge(shipped_report(path), replace)
    assert isinstance(verify_report(forged), list)
    out = tmp_path_factory.getbasetemp() / f"hostile-{path.stem}.json"
    assert main(["verify", write_json(out, forged)]) in (0, 1, 2)
