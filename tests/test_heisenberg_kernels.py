"""The integer Heisenberg product against a reference that applies J, the
GSp hash kept by its matrix and its invisibility, and the pair-product and
hashing budgets of the complex Heisenberg solve and of GSp inverses."""

import copy
import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conjcert import heisenberg
from conjcert.errors import DimensionMismatch, TheoremViolation, UsageError
from conjcert.fields import GF, QQ, QQI, GaussianRational
from conjcert.heisenberg import (
    ComplexHeisenbergElement,
    GSpElement,
    HeisenbergElement,
    complex_heisenberg_group,
    complex_heisenberg_reality,
    standard_gsp_example,
    symplectic_form,
)
from conjcert.linalg import Matrix, Vector
from conjcert.semidirect import SemidirectElement

ROOT = pathlib.Path(__file__).resolve().parent.parent

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# Large, mutually different denominators, as for the matrix kernels: where
# one common denominator per vector inflates the integer numerators most.
tall_rationals = st.one_of(
    st.builds(lambda j, k: Fraction(5, 3) ** j * Fraction(-7, 2) ** k,
              st.integers(-24, 24), st.integers(-24, 24)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12),
)
VALUES = {"QQ": small_rationals, "QQtall": tall_rationals}


@st.composite
def heisenberg_elements(draw, values_name, base_dim):
    """(v, t) with roughly half of the entries drawn nonzero."""
    values = VALUES[values_name]

    def entry():
        return draw(values) if draw(st.booleans()) else Fraction(0)

    return HeisenbergElement.of(QQ, [entry() for _ in range(base_dim)], entry())


def reference_product(a, b):
    """(v + w, t + t' + 1/2 v^T J w), J applied by dense loops."""
    n = a.v.dim
    J = symplectic_form(QQ, n)
    Jw = [sum(J[i, j] * b.v[j] for j in range(n)) for i in range(n)]
    omega = sum(x * y for x, y in zip(a.v, Jw))
    return tuple(x + y for x, y in zip(a.v, b.v)), a.t + b.t + omega / 2


@pytest.mark.parametrize("values_name", list(VALUES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_reference(values_name, data):
    base_dim = data.draw(st.sampled_from([2, 4, 6]))
    a, b, c = (data.draw(heisenberg_elements(values_name, base_dim)) for _ in range(3))
    product = a * b
    v, t = reference_product(a, b)
    assert product.v.field is QQ
    assert product.v.entries == v and product.t == t
    assert all(type(x) is Fraction for x in (*product.v, product.t))
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == a.identity() == a.inverse() * a


@pytest.mark.parametrize("left, right, error", [
    (QQ, GF(5), TypeError),
    (GF(5), QQ, TypeError),
    (GF(5), GF(7), UsageError),
    (GF(4099), GF(5), UsageError),
    (GF(5), GF(4099), UsageError),
    (QQI, GF(5), TypeError),
])
@pytest.mark.parametrize("vector", [[1, 2, 3, 4], [0, 0, 0, 0]], ids=["nonzero", "zero"])
def test_operands_over_different_fields_are_refused(left, right, error, vector):
    """H_5 is built over Q only: ``of`` refuses every other field.  Operands
    built directly over two fields are refused with UsageError where they
    meet, even when one vector is zero, rather than half-computed until
    their entries raise ``error``."""
    for field in (left, right):
        if field != QQ:
            with pytest.raises(UsageError, match="over Q only"):
                HeisenbergElement.of(field, vector, 1)
    a = HeisenbergElement(Vector.of(left, vector), left.one())
    b = HeisenbergElement(Vector.of(right, [1, 1, 2, 3]), right.coerce(2))
    with pytest.raises(error):
        a.t + b.t
    with pytest.raises(UsageError, match="two fields"):
        a * b


def test_operands_of_different_dimensions_are_refused():
    with pytest.raises(DimensionMismatch):
        HeisenbergElement.of(QQ, [1, 2], 0) * HeisenbergElement.of(QQ, [1, 2, 3, 4], 0)


# -- the GSp hash, kept by its matrix ----------------------------------------

def _gsp_observation(x):
    return x == standard_gsp_example()[0], hash(x), repr(x), pickle.dumps(x)


def test_cached_gsp_hash_is_invisible():
    x = GSpElement.of(standard_gsp_example()[0].g)
    before = _gsp_observation(x)
    x.inverse()
    assert "_hash" in vars(x.g) and "_hash" not in vars(x)
    assert _gsp_observation(x) == before
    rebuilt = standard_gsp_example()[0]
    assert hash(rebuilt) == hash(x) == hash(x.g)
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert "_hash" not in vars(twin.g)
        assert twin == x and hash(twin) == hash(x)
    # a shallow copy or replace shares x.g; copies of x.g itself are fresh
    for twin in (copy.copy(x.g), dataclasses.replace(x.g)):
        assert "_hash" not in vars(twin) and twin == x.g


def test_unpickled_gsp_element_hashes_in_its_own_process():
    """hash("QQ") is randomised per process, so a pickled hash would differ
    from that of an equal element built in the loading process."""
    x = standard_gsp_example()[0]
    hash(x)
    script = ("import pickle, sys\n"
              "from conjcert.heisenberg import standard_gsp_example\n"
              "x = pickle.loads(sys.stdin.buffer.read())\n"
              "fresh = standard_gsp_example()[0]\n"
              "print(x == fresh, hash(x) == hash(fresh))\n")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(x), env=env,
                              capture_output=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.split() == [b"True", b"True"]


def test_second_gsp_inverse_hashes_no_fraction(monkeypatch):
    x = GSpElement.of(Matrix.from_rows(QQ, [[0, 2, 0, 0], [-1, 0, 0, 0],
                                            [0, 0, 0, 1], [0, 0, -2, 0]]))
    first = x.inverse()
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert x.inverse() is first
    assert first.inverse() == x
    calls.clear()
    x.inverse()
    first.inverse()
    assert calls == []


# -- the complex Heisenberg solve in N ---------------------------------------

def _count_pair_products(monkeypatch):
    counts = {"all": 0, "solve": 0}
    in_solve = []
    multiply = SemidirectElement.__mul__
    solve = heisenberg._solve_conjugation_entries

    def counted_multiply(self, other):
        counts["all"] += 1
        counts["solve"] += bool(in_solve)
        return multiply(self, other)

    def marked_solve(*args):
        in_solve.append(True)
        try:
            return solve(*args)
        finally:
            in_solve.pop()

    monkeypatch.setattr(SemidirectElement, "__mul__", counted_multiply)
    monkeypatch.setattr(heisenberg, "_solve_conjugation_entries", marked_solve)
    return counts


@pytest.mark.parametrize("a, b", [(2, 1), (GaussianRational.of(1, 2), GaussianRational.of(-3, 1))])
def test_reality_multiplies_pairs_only_in_certificates(monkeypatch, a, b):
    n = ComplexHeisenbergElement.of(a, b, QQI.coerce(a) * QQI.coerce(b) / QQI.coerce(2))
    counts = _count_pair_products(monkeypatch)
    verdict = complex_heisenberg_reality(n, -1, complex_heisenberg_group())
    assert verdict.real and len(verdict.certificates) == len(heisenberg.DEFAULT_LAMBDA_GRID)
    assert counts == {"all": 2 * len(verdict.certificates), "solve": 0}


def test_lambda_dependent_mismatch_still_trips_the_invariance_check(monkeypatch):
    solve = heisenberg._solve_conjugation_entries

    def drifting(lam, n, target):
        k, mismatch = solve(lam, n, target)
        return k, mismatch + lam - QQI.one()

    monkeypatch.setattr(heisenberg, "_solve_conjugation_entries", drifting)
    with pytest.raises(TheoremViolation, match="varied with lambda"):
        complex_heisenberg_reality(ComplexHeisenbergElement.of(2, 1, 1), -1,
                                   complex_heisenberg_group())
