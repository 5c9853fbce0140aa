"""The finite oracle's class table against an independent plain scan, its
index walks against exact multiplication, its multiplication count, and
byte-identical finite reports across hash seeds."""

import json
import os
import pathlib
import subprocess
import sys
from math import gcd

import pytest

from conjcert.errors import UsageError
from conjcert.fields import GF
from conjcert.groups import (
    element_power,
    generate_closure,
    is_rational_bruteforce,
    is_real_bruteforce,
)
from conjcert.linalg import Matrix
from conjcert.semidirect import AffineElement
from conformance_fixtures import conjugacy_classes, count_calls

ROOT = pathlib.Path(__file__).resolve().parent.parent

GL23_LINEAR = ([[1, 1], [0, 1]], [[0, 2], [1, 0]], [[2, 0], [0, 1]])
PSL22_LINEAR = ([[1, 1], [0, 1]], [[0, 1], [1, 0]])


def affine_group(p, linear_rows):
    """The closure of the linear generators and the coordinate translations."""
    field = GF(p)
    gens = [AffineElement.of(Matrix.from_rows(field, rows), [0, 0]) for rows in linear_rows]
    gens += [AffineElement.of(Matrix.identity_of(field, 2), v) for v in ([1, 0], [0, 1])]
    return generate_closure(gens)


def scan_classes(G):
    """Conjugacy classes by a plain scan: the class of s is every h s h^-1
    over G.elements.  Shares no code with the class table."""
    inverses = [h.inverse() for h in G.elements]
    class_of = {}
    for s in G.elements:
        if s not in class_of:
            cls = frozenset(h * s * h_inv for h, h_inv in zip(G.elements, inverses))
            for y in cls:
                class_of[y] = cls
    return class_of


def scan_verdicts(s, cls):
    """(real, rational key set or None) for s whose class is cls."""
    powers = [s]
    while powers[-1] != s.identity():
        powers.append(powers[-1] * s)
    m = len(powers)
    keys = {k for k in range(1, m) if gcd(k, m) == 1} or {1}
    rational = keys if all(powers[k - 1] in cls for k in keys) else None
    return s.inverse() in cls, rational


@pytest.mark.parametrize("p, linear_rows, size, reals",
                         [(3, GL23_LINEAR, 432, 324), (2, PSL22_LINEAR, 24, 24)])
def test_class_table_matches_plain_scan(p, linear_rows, size, reals):
    G = affine_group(p, linear_rows)
    assert len(G) == size
    class_of = scan_classes(G)
    by_least = sorted(set(class_of.values()), key=lambda c: min(map(G.index, c)))
    assert [frozenset(c) for c in conjugacy_classes(G)] == by_least
    for cls in conjugacy_classes(G):
        assert list(cls) == sorted(cls, key=G.index)

    real_count = 0
    for s in G.elements:
        real, rational = scan_verdicts(s, class_of[s])
        real_cert = is_real_bruteforce(G, s)
        rational_certs = is_rational_bruteforce(G, s)
        assert (real_cert is not None) == real, s
        assert (set(rational_certs) if rational_certs is not None else None) == rational, s
        certs = [real_cert] if real_cert is not None else []
        certs += list(rational_certs.values()) if rational_certs is not None else []
        for cert in certs:
            assert cert.subject == s and cert.verified and cert.check()
        real_count += real
    assert real_count == reals


@pytest.mark.parametrize("p, linear_rows", [(3, GL23_LINEAR), (2, PSL22_LINEAR)])
def test_index_walks_match_exact_multiplication(p, linear_rows):
    """Every table inverse, every power index the rational oracle walks, and
    the conjugator of each element to and from its class representative equal
    the exact products they stand for."""
    G = affine_group(p, linear_rows)
    classes, class_of, transversal = G.class_table()
    for s in G.elements:
        assert G.inverse_of(s) == s.inverse()
        i = G.index(s)
        powers = [i]
        while powers[-1] != 0:
            powers.append(G._times(powers[-1], i))
        for k, power in enumerate(powers, 1):
            assert G.elements[power] == element_power(s, k)
        t_s = G.elements[transversal[i]]
        rep = G.elements[classes[class_of[i]][0]]
        assert G.conjugator(rep, s) == t_s
        assert G.conjugator(s, rep) == t_s.inverse()
        j = G.index(s.inverse())
        real = class_of[j] == class_of[i]
        expected = G.elements[transversal[j]] * t_s.inverse() if real else None
        assert G.conjugator(s, s.inverse()) == expected


def test_class_table_makes_no_inverses(monkeypatch):
    """The closure, the inverse table and the class table run on indices:
    no exact inverse() at all."""
    inverses = count_calls(monkeypatch, AffineElement, "inverse")
    G = affine_group(3, GL23_LINEAR)
    G.class_table()
    for s in G.elements:
        G.inverse_of(s)
    assert inverses == []


def test_class_table_multiplication_budget(monkeypatch):
    """Closure plus both oracles on all 432 elements of GL(2,3) x| F_3^2.
    With inverses, powers and conjugators walked on indices this takes 7,123
    products (10,665 when each was multiplied out); a scan per relation needs
    over 230,000, so a return to scanning fails here without a wall-clock
    budget."""
    calls = [0]
    multiply = AffineElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(AffineElement, "__mul__", counted)
    G = affine_group(3, GL23_LINEAR)
    for s in G.elements:
        is_real_bruteforce(G, s)
        is_rational_bruteforce(G, s)
    assert calls[0] <= 7_800, calls[0]


def _gl23_subjects_scenario():
    elements = [
        ([[1, 1], [0, 1]], [0, 0]),
        ([[0, 2], [1, 0]], [1, 0]),
        ([[2, 0], [0, 1]], [0, 1]),
        ([[1, 1], [0, 1]], [1, 2]),
        ([[0, 1], [2, 2]], [2, 1]),
        ([[2, 0], [0, 2]], [0, 0]),
    ]
    return {
        "schema_version": 1,
        "kind": "finite",
        "params": {"p": 3, "linear_generators": [[[str(v) for v in row] for row in rows]
                                                 for rows in GL23_LINEAR]},
        "elements": [{"linear": [[str(v) for v in row] for row in linear],
                      "translation": [str(v) for v in translation]}
                     for linear, translation in elements],
    }


def test_finite_reports_identical_across_hash_seeds(tmp_path):
    gl23 = tmp_path / "gl23_subjects.json"
    gl23.write_text(json.dumps(_gl23_subjects_scenario()))
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for scenario in (ROOT / "scenarios" / "finite_psl2_f2.json", gl23):
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-m", "conjcert.cli", "run", str(scenario)],
                                  env=env, capture_output=True, timeout=120, check=False)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], scenario.name
        assert json.loads(outputs[0])["results"]


def test_oracles_reject_non_members():
    """An F_3 translation (order 3) lies outside PSL(2,2) x| F_2^2, and an
    F_2 translation (order 2, so no power k > 1 is looked up) outside the
    linear group PSL(2,2)."""
    psl22 = generate_closure([AffineElement.of(Matrix.from_rows(GF(2), rows), [0, 0])
                              for rows in PSL22_LINEAR])
    for G, p in ((affine_group(2, PSL22_LINEAR), 3), (psl22, 2)):
        outsider = AffineElement.of(Matrix.identity_of(GF(p), 2), [1, 0])
        with pytest.raises(UsageError):
            is_real_bruteforce(G, outsider)
        with pytest.raises(UsageError):
            is_rational_bruteforce(G, outsider)
        with pytest.raises(UsageError):
            G.inverse_of(outsider)
        with pytest.raises(UsageError):
            G.conjugator(outsider, G.identity)
        with pytest.raises(UsageError):
            G.conjugator(G.identity, outsider)
