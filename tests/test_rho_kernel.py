"""The symmetric-power kernel built from nonzero terms against the full
binomial convolution, its scalar work on the monomial elements the sl2v
classifier uses, and a traced benchmark run that must still see every sl2
layer."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conjcert.sl2 import (
    SL2Element,
    _substitution_matrix,
    antidiagonal_witness,
    rho,
)
from conformance_fixtures import dense_substitution, traced_run


# -- elements ----------------------------------------------------------------

nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
degrees = st.integers(min_value=0, max_value=24)


def conjugated_antidiagonal(s, t):
    d = SL2Element.diagonal(s)
    return d * antidiagonal_witness(t) * d.inverse()


def elementary_product(steps):
    g = SL2Element.identity_element()
    for upper, u in steps:
        g = g * (SL2Element.of(1, u, 0, 1) if upper else SL2Element.of(1, 0, u, 1))
    return g


central = st.sampled_from([SL2Element.of(1, 0, 0, 1), SL2Element.of(-1, 0, 0, -1)])
monomial_elements = st.one_of(
    nonzero.map(SL2Element.diagonal),
    nonzero.map(antidiagonal_witness),
    central,
)
elements = st.one_of(
    monomial_elements,
    st.builds(conjugated_antidiagonal, nonzero, nonzero),
    st.lists(st.tuples(st.booleans(), st.fractions(min_value=-3, max_value=3,
                                                   max_denominator=2)),
             min_size=1, max_size=4).map(elementary_product),
)


@settings(max_examples=150, deadline=None)
@given(elements, degrees)
def test_substitution_matrix_matches_dense_convolution(h, n):
    assert _substitution_matrix(h, n) == dense_substitution(h, n)


@settings(max_examples=60, deadline=None)
@given(monomial_elements, monomial_elements, degrees)
def test_rho_is_multiplicative_on_monomial_elements(g, h, n):
    product = _substitution_matrix(g * h, n)
    assert product == _substitution_matrix(g, n) * _substitution_matrix(h, n)
    assert rho(g * h, n) == product == dense_substitution(g * h, n)


# -- work guard ----------------------------------------------------------------

def test_monomial_rho_multiplication_budget(monkeypatch):
    """rho of a diagonal or antidiagonal h is monomial; the full convolution
    makes 3,575 Fraction multiplications for it at n = 24, the
    nonzero-term build one per column."""
    n = 24
    count = [0]
    multiply = Fraction.__mul__

    def counted(a, b):
        count[0] += 1
        return multiply(a, b)

    for h in (SL2Element.diagonal(Fraction(5, 3)), antidiagonal_witness(Fraction(1, 2))):
        count[0] = 0
        monkeypatch.setattr(Fraction, "__mul__", counted)
        matrix = _substitution_matrix(h, n)
        monkeypatch.undo()
        assert count[0] <= 4 * (n + 1), (h, count[0])
        assert matrix == dense_substitution(h, n)
        assert sum(1 for e in matrix.entries if e) == n + 1


def test_general_rho_still_matches_reference():
    h = SL2Element.of(2, 3, 1, 2)
    assert _substitution_matrix(h, 24) == dense_substitution(h, 24)


# -- tracer smoke test ----------------------------------------------------------

def test_traced_benchmark_sees_every_sl2_layer():
    """bench/tracer.py wraps rho by name and reads rho.cache_info(); a
    refactor that inlines rho, drops its cache or removes the order probe
    leaves an sl2 metric at zero.  The seed-0 sweep misses the rho cache
    71 times since the negation search reads rho(-I) and rho(A(t)) in
    closed form; building them again, 34 antidiagonals for each search
    that finds nothing, took it to 229."""
    proc = traced_run("sl2v_sweep")
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout.decode(errors="replace")[-2000:]
    sl2 = {name: m["value"] for name, m in summary["metrics"].items()
           if name.startswith("sl2.")}
    assert sl2 and all(sl2.values()), sl2
    assert sl2["sl2.rho_misses"] <= 80, sl2
