"""Scenario-driven command line: run conjugacy analyses and emit
machine-readable certificate reports, or independently re-verify a report.

Reports are deterministic for a fixed (scenario, seed, bound): scalars are
serialized losslessly ("p/q", "p/q+r/s i", residues), keys are sorted, and
a SHA-256 digest of the canonical payload is embedded so that any
single-field tampering is detected.  ``verify`` additionally re-multiplies
every certificate from scratch, so a forged digest alone is never enough.
Each ``build_report`` and ``verify_report`` call decodes through one
``GroupCodec``, which parses each distinct scalar token, checks each
distinct GSp matrix and builds the kind's ambient group once per call;
nothing is cached across calls.

Exit codes: 0 = verdicts produced and verified; 1 = verification failure or
theorem violation (a bug, never expected); 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .affine import classify_affine_rational, rationality_certificates_linear
from .errors import ConjcertError, UsageError
from .fields import Field, GF, QQ, QQI
from .groups import (
    Certificate,
    Inverse,
    Power,
    generate_closure,
    is_rational_bruteforce,
    is_real_bruteforce,
)
from .heisenberg import (
    ComplexHeisenbergElement,
    GSpElement,
    HeisenbergElement,
    complex_heisenberg_group,
    complex_heisenberg_reality,
    heisenberg_presentation,
    standard_gsp_example,
)
from .linalg import Matrix, Vector
from .semidirect import AffineElement, real_witness_via_lift
from .sl2 import SL2Element, SL2VElement, classify_rational_sl2v

SCHEMA_VERSION = 1
SEED_ENV_VAR = "CONJCERT_SEED"
DEFAULT_BOUND = 10_000
CLOSURE_CAP = 50_000
MAX_RELATION_POWER = 10 ** 6
# is_prime is trial division: about 8 ms at this cap, minutes near 10**18
MAX_FIELD_MODULUS = 2 ** 31 - 1


# ---------------------------------------------------------------------------
# scalar / matrix / element codecs
# ---------------------------------------------------------------------------

def _int_in(value, what: str) -> int:
    """A JSON integer; bool, float and str are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _list_in(value, what: str) -> list:
    """A JSON list; a string or an object is refused, not iterated."""
    if type(value) is not list:
        raise UsageError(f"{what} must be a list, got {value!r}")
    return value


def _field_from_descriptor(desc) -> Field:
    if desc == "Q":
        return QQ
    if desc == "Qi":
        return QQI
    if isinstance(desc, dict) and desc.get("type") == "Fp":
        p = _int_in(desc["p"], "field modulus p")
        if p > MAX_FIELD_MODULUS:
            raise UsageError(f"field modulus {p} exceeds the sanity cap {MAX_FIELD_MODULUS}")
        return GF(p)
    raise UsageError(f"unknown field descriptor {desc!r}")


def _str_rows(rows) -> Optional[tuple]:
    """``rows`` as a tuple of tuples when it is a list of lists of str."""
    if type(rows) is list and all(type(row) is list and all(type(v) is str for v in row)
                                  for row in rows):
        return tuple(map(tuple, rows))
    return None


def _matrix_out(m: Matrix) -> list:
    return [[m.field.format(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _vector_out(v: Vector) -> list:
    return [v.field.format(x) for x in v.entries]


def _relation_in(payload):
    if payload == "inverse":
        return Inverse()
    if isinstance(payload, dict) and "power" in payload:
        k = _int_in(payload["power"], "relation power")
        if abs(k) > MAX_RELATION_POWER:
            raise UsageError(f"relation power {k} exceeds the sanity cap")
        return Power(k)
    raise UsageError(f"unknown relation {payload!r}")


def _encode_affine(field: Field, element: AffineElement) -> dict:
    return {"linear": _matrix_out(element.linear),
            "translation": _vector_out(element.translation)}


def _decode_affine(codec: "GroupCodec", payload: dict) -> AffineElement:
    return AffineElement.of(codec.matrix(payload["linear"]),
                            codec.vector(payload["translation"]))


def _encode_sl2v(field: Field, element: SL2VElement) -> dict:
    h = element.h
    return {"h": [field.format(v) for v in (h.a, h.b, h.c, h.d)],
            "v": _vector_out(element.v)}


def _decode_sl2v(codec: "GroupCodec", payload: dict) -> SL2VElement:
    a, b, c, d = (codec.scalar(v) for v in _list_in(payload["h"], "sl2v h"))
    return SL2VElement(SL2Element.of(a, b, c, d), codec.vector(payload["v"]))


def _encode_heisenberg(field: Field, element) -> dict:
    return {"h": _matrix_out(element.h.g),
            "n": {"v": _vector_out(element.n.v), "t": field.format(element.n.t)}}


def _heisenberg_group():
    """H_5 under GSp(4) over Q.  Built per codec, never at import, because
    the presentation holds ``gsp_act`` as it is bound when built."""
    return heisenberg_presentation().semidirect(GSpElement(Matrix.identity_of(QQ, 4), QQ.one()))


def _decode_heisenberg(codec: "GroupCodec", payload: dict):
    g = codec.gsp(payload["h"])
    n = HeisenbergElement.of(QQ, codec.vector(payload["n"]["v"]),
                             codec.scalar(payload["n"]["t"]))
    if g.g.rows != 4 or n.v.dim != 4:
        raise UsageError("a heisenberg element needs a 4x4 similitude and a 4-entry v")
    return codec.group.element(g, n)


def _encode_solvable(field: Field, element) -> dict:
    n = element.n
    return {"h": field.format(element.h),
            "n": {"a": field.format(n.a), "b": field.format(n.b), "c": field.format(n.c)}}


def _decode_solvable(codec: "GroupCodec", payload: dict):
    lam = codec.scalar(payload["h"])
    if not lam:
        raise UsageError("unit scalar must be nonzero")
    n = ComplexHeisenbergElement.of(*(codec.scalar(payload["n"][key])
                                      for key in ("a", "b", "c")))
    return codec.group.element(lam, n)


@dataclass(frozen=True)
class Kind:
    """What a scenario kind is: the scalar field it reads from its params,
    the JSON codec of its elements over that field, its runner, and, for
    the pair kinds, a builder of the ambient ``SemidirectProduct``.  Its
    ``decode`` reads through the ``GroupCodec`` it is given, so that codec's
    memo and group serve every token, matrix and element.  A record holds
    codec bodies, runners and group builders only.  The classifiers stay
    module-level names, the group builders look library names up when
    called, and the codec is reached through ``GroupCodec``'s methods,
    because ``bench/tracer.py`` rebinds module and class attributes: a
    traced function held inside a record would escape it."""

    field: Callable[[dict], Field]
    encode: Callable[[Field, object], dict]
    decode: Callable[["GroupCodec", dict], object]
    run: Callable[..., list]
    group: Callable[[], object] = lambda: None


class GroupCodec:
    """Encode/decode group elements of one scenario's ambient group, as its
    ``Kind`` record says.

    One codec serves one ``build_report`` or ``verify_report`` call, and its
    memo and group live and die with it: each distinct ``str`` token becomes
    a scalar of the codec's field once, and each distinct all-``str`` GSp
    matrix is checked once, so the results that share it share one
    ``GSpElement``.  Only successful decodes enter the memo; a token of any
    other type goes through the type checks every time.  Rows and vectors
    must be JSON lists."""

    def __init__(self, kind: str, params: dict):
        try:
            self.kind = KINDS[kind]
        except (KeyError, TypeError):
            raise UsageError(f"unknown scenario kind {kind!r}") from None
        if not isinstance(params, dict):
            raise UsageError(f"scenario params must be an object, got {params!r}")
        self.field = self.kind.field(params)
        self.group = self.kind.group()
        self._memo = {}

    def scalar(self, token):
        """A JSON string or integer as a scalar of the codec's field; bool,
        float and the rest are refused, not converted."""
        if type(token) is str:
            value = self._memo.get(token)
            if value is None:
                value = self._memo[token] = self.field.parse(token)
            return value
        if isinstance(token, bool) or not isinstance(token, int):
            raise UsageError(f"scalars must be exact strings or integers, got {token!r}")
        return self.field.coerce(token)

    def matrix(self, rows) -> Matrix:
        return Matrix.from_rows(self.field, [[self.scalar(v) for v in _list_in(row, "matrix row")]
                                             for row in _list_in(rows, "matrix")])

    def vector(self, values) -> Vector:
        return Vector(self.field, tuple(self.scalar(v) for v in _list_in(values, "vector")))

    def gsp(self, rows) -> GSpElement:
        """The similitude of ``rows``, its check g^T J g = mu J run once per
        distinct all-``str`` matrix."""
        key = _str_rows(rows)
        g = None if key is None else self._memo.get(key)
        if g is None:
            g = GSpElement.of(self.matrix(rows))
            if key is not None:
                self._memo[key] = g
        return g

    def encode(self, element) -> dict:
        return self.kind.encode(self.field, element)

    def decode(self, payload: dict):
        return self.kind.decode(self, payload)

    def result(self, element, verdicts: dict, certificates, notes=()) -> dict:
        """One report entry: the element, its verdicts, every certificate in
        the given order, and the non-empty notes (the key only if any)."""
        result = {"element": self.encode(element),
                  "verdicts": verdicts,
                  "certificates": [{"relation": ("inverse" if isinstance(c.relation, Inverse)
                                                 else {"power": c.relation.k}),
                                    "witness": self.encode(c.witness),
                                    "verified": bool(c.verified)} for c in certificates]}
        notes = [note for note in notes if note]
        if notes:
            result["notes"] = notes
        return result


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _run_finite(codec: GroupCodec, params: dict, elements, bound: int) -> list:
    field = codec.field
    n = None
    gens = []
    for rows in params["linear_generators"]:
        m = codec.matrix(rows)
        n = m.rows
        gens.append(AffineElement.of(m, Vector.zero(field, n)))
    if n is None:
        raise UsageError("finite scenario needs at least one linear generator")
    ident = Matrix.identity_of(field, n)
    for i in range(n):
        gens.append(AffineElement.of(ident, Vector.unit(field, n, i)))
    G = generate_closure(gens, cap=min(CLOSURE_CAP, bound * 10))

    if elements == "all":
        subjects = list(G)
    else:
        subjects = [codec.decode(p) for p in elements]
        for s in subjects:
            if s not in G:
                raise UsageError(f"element {s!r} is not in the generated group")

    results = []
    for s in subjects:
        real_cert = is_real_bruteforce(G, s)
        rational_certs = is_rational_bruteforce(G, s)
        certs = [] if real_cert is None else [real_cert]
        if rational_certs is not None:
            certs.extend(rational_certs[k] for k in sorted(rational_certs))
        results.append(codec.result(s, {
            "real": "real" if real_cert is not None else "not_real",
            "rational": "rational" if rational_certs is not None else "not_rational",
        }, certs))
    return results


def _run_sl2v(codec: GroupCodec, params: dict, elements, bound: int) -> list:
    t = codec.scalar(params.get("t", "1"))
    n = _int_in(params["n"], "sl2v degree n") if "n" in params else None
    results = []
    for payload in elements:
        entries = _list_in(payload["x"], "sl2v element x")
        if len(entries) != 4:
            raise UsageError("sl2v element x must have exactly 4 entries")
        a, b, c, d = (codec.scalar(v) for v in entries)
        x = SL2Element.of(a, b, c, d)
        v = codec.vector(payload["v"])
        if n is not None and v.dim != n + 1:
            raise UsageError(f"v has dimension {v.dim}, expected n + 1 = {n + 1}")
        rationality = classify_rational_sl2v(x, v, bound=bound, t=t)
        reality = rationality.reality
        certs = [] if reality.certificate is None else [reality.certificate]
        certs.extend(c for _, c in sorted(rationality.certificates.items())
                     if isinstance(c.relation, Power))
        results.append(codec.result(
            SL2VElement(x, v), {"real": reality.verdict, "rational": rationality.verdict},
            certs, (reality.reason, rationality.reason)))
    return results


def _run_affine(codec: GroupCodec, params: dict, elements, bound: int) -> list:
    m = _int_in(params["order"], "affine order")
    if not 1 <= m <= bound:
        raise UsageError(f"order {m} lies outside [1, bound = {bound}]")
    x = codec.matrix(params["x"])
    linear = rationality_certificates_linear(x, m)
    results = []
    for payload in elements:
        v = codec.vector(payload["v"])
        subject = AffineElement.of(x, v)
        outcome = classify_affine_rational(linear, v, bound=bound)
        certs = [outcome.certificates[k] for k in sorted(outcome.certificates)]
        if outcome.reality is not None:
            certs.append(outcome.reality)
        results.append(codec.result(subject, {"rational": outcome.verdict}, certs,
                                    [outcome.note]))
    return results


def _run_heisenberg(codec: GroupCodec, params: dict, elements, bound: int) -> list:
    if "x" in params:
        x = codec.gsp(params["x"])
        y = codec.gsp(params["witness"])
    else:
        x, y = standard_gsp_example()
    pres = heisenberg_presentation()
    results = []
    for payload in elements:
        n = HeisenbergElement.of(QQ, codec.vector(payload["v"]),
                                 codec.scalar(payload["t"]))
        cert = real_witness_via_lift(x, n, pres, y)
        results.append(codec.result(codec.group.element(x, n), {"real": "real"}, [cert]))
    return results


def _run_solvable(codec: GroupCodec, params: dict, elements, bound: int) -> list:
    results = []
    for payload in elements:
        n = ComplexHeisenbergElement.of(codec.scalar(payload["a"]),
                                        codec.scalar(payload["b"]),
                                        codec.scalar(payload["c"]))
        x_sign = _int_in(payload.get("x", -1), "solvable x")
        verdict = complex_heisenberg_reality(n, x_sign)
        subject = codec.group.element(QQI.coerce(x_sign), n)
        results.append(codec.result(subject, {"real": "real" if verdict.real else "not_real"},
                                    verdict.certificates, [verdict.reason]))
    return results


# The one map from a scenario kind's name to its behaviour.
KINDS = {
    "finite": Kind(lambda params: _field_from_descriptor({"type": "Fp", "p": params["p"]}),
                   _encode_affine, _decode_affine, _run_finite),
    "affine": Kind(lambda params: _field_from_descriptor(params.get("field", "Q")),
                   _encode_affine, _decode_affine, _run_affine),
    "sl2v": Kind(lambda params: QQ, _encode_sl2v, _decode_sl2v, _run_sl2v),
    "heisenberg": Kind(lambda params: QQ, _encode_heisenberg, _decode_heisenberg,
                       _run_heisenberg, _heisenberg_group),
    "solvable": Kind(lambda params: QQI, _encode_solvable, _decode_solvable, _run_solvable,
                     lambda: complex_heisenberg_group()),
}


# ---------------------------------------------------------------------------
# report assembly and verification
# ---------------------------------------------------------------------------

def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(_canonical(payload).encode()).hexdigest()


def build_report(scenario: dict, seed: int, bound: int) -> dict:
    if scenario.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"unsupported scenario schema_version "
                         f"{scenario.get('schema_version')!r}")
    params = scenario.get("params", {})
    codec = GroupCodec(scenario.get("kind"), params)
    results = codec.kind.run(codec, params, scenario.get("elements", []), bound)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "conjcert",
        "scenario": scenario,
        "seed": seed,
        "bound": bound,
        "results": results,
    }
    return {**payload, "integrity": _digest(payload)}


def verify_report(report: dict) -> list[str]:
    """Re-check a report from scratch.  Returns a list of failure messages
    (empty = accepted): digest mismatch, a result count that differs from a
    list of scenario elements, undecodable entries, any certificate whose
    relation fails exact re-multiplication, a ``real`` verdict without an
    ``inverse`` certificate, or a ``rational`` verdict without any."""
    failures = []
    payload = {k: v for k, v in report.items() if k != "integrity"}
    if report.get("integrity") != _digest(payload):
        failures.append("integrity digest mismatch")
    try:
        scenario = report["scenario"]
        codec = GroupCodec(scenario["kind"], scenario.get("params", {}))
    except (KeyError, UsageError, TypeError, ValueError) as exc:
        failures.append(f"cannot reconstruct scenario group: {exc}")
        return failures
    results = report.get("results", [])
    if not isinstance(results, list):
        failures.append("results must be a list")
        return failures
    elements = scenario.get("elements")
    if isinstance(elements, list) and len(results) != len(elements):
        failures.append(f"{len(elements)} scenario elements but {len(results)} results")
    for i, result in enumerate(results):
        try:
            subject = codec.decode(result["element"])
        except (ConjcertError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            failures.append(f"result {i}: undecodable element ({exc})")
            continue
        certificates = result.get("certificates", [])
        if not isinstance(certificates, list):
            failures.append(f"result {i}: certificates must be a list")
            continue
        for j, cert in enumerate(certificates):
            try:
                witness = codec.decode(cert["witness"])
                relation = _relation_in(cert["relation"])
                Certificate.make(subject, witness, relation)
            except (ConjcertError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                failures.append(f"result {i} certificate {j}: {exc}")
        verdicts = result.get("verdicts")
        if not isinstance(verdicts, dict):
            failures.append(f"result {i}: verdicts must be an object")
            continue
        if verdicts.get("real") == "real" and not any(
                isinstance(c, dict) and c.get("relation") == "inverse" for c in certificates):
            failures.append(f"result {i}: verdict real without an inverse certificate")
        if verdicts.get("rational") == "rational" and not certificates:
            failures.append(f"result {i}: verdict rational without a certificate")
    return failures


def _render_text(report: dict) -> str:
    lines = [f"conjcert report (kind={report['scenario']['kind']}, "
             f"seed={report['seed']}, bound={report['bound']})"]
    for i, result in enumerate(report["results"]):
        verdicts = ", ".join(f"{k}={v}" for k, v in sorted(result["verdicts"].items()))
        lines.append(f"  element {i}: {verdicts}; "
                     f"certificates={len(result['certificates'])}")
        for note in result.get("notes", []):
            lines.append(f"    note: {note}")
    lines.append(f"integrity: {report['integrity']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_seed(cli_seed: Optional[int], scenario: dict) -> int:
    scenario_seed = _int_in(scenario.get("seed", 0), "scenario seed")
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return scenario_seed


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: top level must be an object")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conjcert",
        description="real/rational conjugacy certificates for semidirect products")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and emit a report")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help=f"the seed recorded in the report; no analysis draws random "
                            f"numbers (also {SEED_ENV_VAR})")
    run_p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                       help="order-detection bound")
    fmt = run_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, dest="as_json")
    fmt.add_argument("--text", action="store_false", dest="as_json")
    run_p.add_argument("--verify-only", action="store_true",
                       help="suppress the report; emit only the verification summary")

    verify_p = sub.add_parser("verify", help="re-verify every certificate in a report")
    verify_p.add_argument("report", help="path to a report JSON file")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            scenario = _load_json(args.scenario)
            seed = _resolve_seed(args.seed, scenario)
            report = build_report(scenario, seed, args.bound)
        else:
            report = _load_json(args.report)
        failures = verify_report(report)
        for f in failures:
            print(f"verification failure: {f}", file=sys.stderr)
        if failures:
            return 1
        if args.command == "verify" or args.verify_only:
            print(json.dumps({"verified_results": len(report.get("results", [])),
                              "failures": 0}, sort_keys=True))
        elif args.as_json:
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            print(_render_text(report))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed input ({exc!r})", file=sys.stderr)
        return 2
    except ConjcertError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
