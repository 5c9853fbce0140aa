import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conformance_fixtures import count_calls, reference_negation_search
from conjcert import sl2
from conjcert.errors import UsageError
from conjcert.fields import QQ
from conjcert.groups import Certificate, Inverse, Power, element_order
from conjcert.linalg import Matrix, Vector
from conjcert.sl2 import (
    SL2Element,
    SL2VElement,
    antidiagonal_witness,
    classify_rational_sl2v,
    classify_real,
    negation_witness_search,
    rho,
)


def vec(values):
    return Vector.of(QQ, values)


def random_sl2(rng):
    # random product of elementary matrices keeps entries small and det = 1
    g = SL2Element.identity_element()
    for _ in range(rng.randint(1, 4)):
        u = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if rng.random() < 0.5:
            g = g * SL2Element.of(1, u, 0, 1)
        else:
            g = g * SL2Element.of(1, 0, u, 1)
    return g


def test_sl2_element_requires_det_one():
    with pytest.raises(UsageError):
        SL2Element.of(1, 0, 0, 2)


def test_rho_identity():
    for n in range(0, 6):
        assert rho(SL2Element.identity_element(), n) == Matrix.identity_of(QQ, n + 1)


def test_rho_is_homomorphism():
    rng = random.Random(10)
    for n in range(1, 6):
        for _ in range(10):
            g, h = random_sl2(rng), random_sl2(rng)
            assert rho(g * h, n) == rho(g, n) * rho(h, n)


def test_rho_diagonal_matches_exponent_ladder():
    for n in range(1, 9):
        for r in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            image = rho(SL2Element.diagonal(r), n)
            for i in range(n + 1):
                for j in range(n + 1):
                    expected = r ** (n - 2 * i) if i == j else Fraction(0)
                    assert image[i, j] == expected


def test_rho_antidiagonal_shape_and_middle_entry():
    for n in range(1, 9):
        for t in (Fraction(1), Fraction(2), Fraction(-1, 3)):
            image = rho(antidiagonal_witness(t), n)
            for i in range(n + 1):
                for j in range(n + 1):
                    if i + j != n:
                        assert image[i, j] == 0
            # top-right entry is t^n, as in the diagonalized witness family
            assert image[0, n] == t ** n
            if n % 2 == 0:
                # the invariant middle monomial (xy)^(n/2) picks up (-1)^(n/2)
                m = n // 2
                assert image[m, m] == (-1) ** m


def test_rho_n2_antidiagonal_explicit():
    t = Fraction(3)
    image = rho(antidiagonal_witness(t), 2)
    assert image[0, 2] == t ** 2
    assert image[1, 1] == -1
    assert image[2, 0] == t ** -2


def test_rho_determinant_one():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(5):
            assert rho(random_sl2(rng), n).det() == 1


def test_rho_even_degree_diagonal_has_fixed_point():
    from conjcert.linalg import has_fixed_point

    for r in (Fraction(2), Fraction(7, 3)):
        assert has_fixed_point(rho(SL2Element.diagonal(r), 4))
        assert not has_fixed_point(rho(SL2Element.diagonal(r), 3))


def test_rho_minus_identity_parity():
    minus = SL2Element.of(-1, 0, 0, -1)
    assert rho(minus, 3) == -Matrix.identity_of(QQ, 4)
    assert rho(minus, 4) == Matrix.identity_of(QQ, 5)


def test_sl2v_group_laws():
    rng = random.Random(12)
    n = 3
    for _ in range(15):
        def rnd():
            return SL2VElement(random_sl2(rng),
                               vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(n + 1)]))
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == a.identity()


def test_classify_real_odd_identity():
    res = classify_real(SL2Element.identity_element(), vec([1, 2, 3, 4]))
    assert res.verdict == "real"
    assert res.certificate.witness.h == SL2Element.of(-1, 0, 0, -1)


def test_classify_real_odd_nonidentity():
    rng = random.Random(13)
    for r in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        x = SL2Element.diagonal(r)
        if r == 1:
            continue
        for _ in range(5):
            v = vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
            res = classify_real(x, v)
            assert res.verdict == "real" and res.certificate.verified


def test_classify_real_even_generic_r():
    x = SL2Element.diagonal(2)
    res = classify_real(x, vec([1, 1, 1]), t=Fraction(1))
    assert res.verdict == "real"
    # forced coordinates with the free middle set to zero
    assert res.certificate.witness.v == vec([Fraction(-5, 3), 0, Fraction(5, 3)])
    assert res.certificate.witness.h == antidiagonal_witness(1)


def test_classify_real_even_free_middle_coordinate():
    x = SL2Element.diagonal(2)
    res = classify_real(x, vec([1, 1, 1]))
    w = res.certificate.witness.v
    for middle in (Fraction(5), Fraction(-7, 2)):
        shifted = SL2VElement(res.certificate.witness.h,
                              vec([w[0], middle, w[2]]))
        assert Certificate.make(res.certificate.subject, shifted, Inverse()).verified


def test_classify_real_even_trivial_rho_cases():
    x = SL2Element.identity_element()
    assert classify_real(x, vec([1, 0, 0])).verdict == "not_real"
    res = classify_real(x, vec([0, 1, 0]))
    assert res.verdict == "real"
    assert res.certificate.witness.h == SL2Element.of(0, 1, -1, 0)


def test_classify_real_even_pure_power_obstruction_any_even_n():
    x = SL2Element.identity_element()
    assert classify_real(x, vec([0, 0, 0, 0, 3])).verdict == "not_real"  # y^4
    assert classify_real(x, vec([2, 0, 0, 0, 0])).verdict == "not_real"  # x^4


def test_classify_real_mod4_middle_obstruction():
    # for n = 0 mod 4 the antidiagonal family fixes the invariant middle
    # coordinate, so a nonzero middle blocks reality
    x = SL2Element.diagonal(2)
    bad = classify_real(x, vec([1, 1, 1, 1, 1]))
    assert bad.verdict == "not_real"
    good = classify_real(x, vec([1, 1, 0, 1, 1]))
    assert good.verdict == "real" and good.certificate.verified
    # n = 0: rho(x) = I although x != +-I, and the middle coordinate is all of v
    assert classify_real(x, vec([1])).verdict == "not_real"
    good = classify_real(x, vec([0]))
    assert good.verdict == "real" and good.certificate.verified


def test_classify_real_n6_always_real():
    rng = random.Random(14)
    x = SL2Element.diagonal(Fraction(-2))
    for _ in range(5):
        v = vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7)])
        res = classify_real(x, v)
        assert res.verdict == "real" and res.certificate.verified


def test_classify_real_usage_errors():
    with pytest.raises(UsageError):
        classify_real(SL2Element.diagonal(2), vec([1, 1, 1]), t=0)
    with pytest.raises(UsageError):
        classify_real(SL2Element.of(1, 1, 0, 1), vec([1, 1, 1]))


def test_negation_search_examples():
    assert negation_witness_search(vec([1, 2, 3, 4]), 3) == SL2Element.of(-1, 0, 0, -1)
    assert negation_witness_search(vec([0, 1, 0]), 2) == SL2Element.of(0, 1, -1, 0)
    assert negation_witness_search(vec([1, 0, 0]), 2) is None


def test_sl2v_reality_witness_is_certified_once(monkeypatch):
    """make_real_witness certifies the SL2VElement pair itself, so classify_real
    makes one Certificate.make and keeps it (an affine certificate of the
    23x23 rho images was made and dropped before)."""
    makes = count_calls(monkeypatch, Certificate, "make", staticmethod)
    x, v = SL2Element.diagonal(2), vec([Fraction(i + 1, 3) for i in range(23)])
    res = classify_real(x, v)
    assert res.verdict == "real" and len(makes) == 1
    cert = res.certificate
    assert cert.subject == SL2VElement(x, v)
    assert isinstance(cert.witness, SL2VElement) and cert.witness.h == antidiagonal_witness(1)
    assert cert.verified and cert.check()


def _negation_vectors(n, rng):
    """A vector negated by a drawn family member (for even n, rho(A(t))^2 = I,
    so u - rho(A(t)) u is negated), each single monomial, and a random vector."""
    t = rng.choice((1, 2, Fraction(1, 2), 3)) ** 2 * rng.choice(sl2.DEFAULT_T_GRID)
    u = vec([rng.randint(-3, 3) for _ in range(n + 1)])
    yield u - rho(antidiagonal_witness(t), n).apply(u)
    for i in range(n + 1):
        yield Vector.unit(QQ, n + 1, i).scale(QQ.coerce(rng.randint(1, 5)))
    yield vec([rng.randint(-3, 3) for _ in range(n + 1)])


def test_negation_search_is_one_antidiagonal_family(monkeypatch):
    """The conjugates d A(t) d^-1 are the antidiagonals A(s^2 t), so the search
    multiplies no SL(2) elements, and it finds the same h as the earlier
    scan of the explicitly conjugated families, in the same order."""
    rng = random.Random(27)
    cases = [(n, v) for n in range(2, 25) for v in _negation_vectors(n, rng)]
    expected = [reference_negation_search(v, n) for n, v in cases]
    # some cases need a conjugated family, and some no family negates
    assert any(h is not None and h.b not in sl2.DEFAULT_T_GRID for h in expected)
    assert None in expected
    products = count_calls(monkeypatch, SL2Element, "__mul__")
    assert [negation_witness_search(v, n) for n, v in cases] == expected
    assert products == []


def test_classify_real_unknown_is_honest():
    # x^2 + y^2 cannot be negated over the reals, but the shipped sound rule
    # only covers pure powers; the bounded search exhausts and reports unknown
    res = classify_real(SL2Element.identity_element(), vec([1, 0, 1]))
    assert res.verdict == "unknown"
    assert res.reason == "no negating element found in the bounded families"


def test_classify_rational_generic_diagonal():
    res = classify_rational_sl2v(SL2Element.diagonal(2), vec([1, 1, 1]))
    assert res.verdict == "rational"
    assert res.reason == "infinite order: rational iff real"
    assert res.certificates[-1].verified


def test_classify_rational_identity_zero():
    res = classify_rational_sl2v(SL2Element.identity_element(), vec([0, 0, 0]))
    assert res.verdict == "rational"
    assert set(res.certificates) == {1} and res.certificates[1].relation == Power(1)


def test_classify_rational_minus_identity_odd():
    x = SL2Element.of(-1, 0, 0, -1)
    res = classify_rational_sl2v(x, vec([3, -2, 1, 5]))
    assert res.verdict == "rational"
    assert set(res.certificates) == {1} and res.certificates[1].relation == Power(1)


def test_classify_rational_minus_identity_even():
    x = SL2Element.of(-1, 0, 0, -1)
    rational = classify_rational_sl2v(x, vec([0, 1, 0]))
    assert rational.verdict == "rational"
    assert rational.reason == "infinite order: rational iff real"
    blocked = classify_rational_sl2v(x, vec([1, 0, 0]))
    assert blocked.verdict == "not_rational"


def test_sl2v_order_matches_structure():
    s = SL2VElement(SL2Element.of(-1, 0, 0, -1), vec([1, 1, 1, 1]))
    assert element_order(s, bound=10).value == 2
    t = SL2VElement(SL2Element.diagonal(2), vec([1, 0, 0]))
    assert not element_order(t, bound=50).is_finite



@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 10),
       r=st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3]), data=st.data())
def test_sl2v_finite_order_is_one_or_two(n, r, data):
    """(x, v) with x = diag(r, 1/r) has order 1, 2 or infinity: a 64-step and
    a 2-step probe agree on finiteness.  Finite order makes k = 1 the only
    generating power, and infinite order makes rational exactly real."""
    v = vec(data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                               min_size=n + 1, max_size=n + 1), label="v"))
    x = SL2Element.diagonal(r)
    order = element_order(SL2VElement(x, v), bound=64)
    assert order.is_finite == element_order(SL2VElement(x, v), bound=2).is_finite
    # rho(-I) = (-1)^n I, so only odd n with x = -I negates the translation
    assert order.is_finite == (r in (1, -1) and (v.is_zero() or (r == -1 and n % 2 == 1)))
    res = classify_rational_sl2v(x, v)
    if order.is_finite:
        assert order.value in (1, 2)
        assert res.verdict == "rational" and set(res.certificates) == {1}
        assert res.certificates[1].verified
    else:
        expected = {"real": "rational", "not_real": "not_rational", "unknown": "unknown"}
        assert res.verdict == expected[res.reality.verdict]


def test_classify_rational_records_the_probed_bound(monkeypatch):
    """Every order probe from sl2 is capped at 2 steps: the order of (x, v)
    is 1, 2 or infinite for each diagonal x."""
    probes = count_calls(monkeypatch, sl2, "element_order")
    minus = SL2Element.of(-1, 0, 0, -1)
    cases = [(SL2Element.diagonal(2), vec([1, 1, 1]), "rational"),
             (minus, vec([1, 2]), "rational"),
             (minus, vec([1, 0, 0]), "not_rational"),
             (SL2Element.identity_element(), vec([0, 0, 0]), "rational")]
    for x, v, verdict in cases:
        assert classify_rational_sl2v(x, v).verdict == verdict
    assert [kwargs["bound"] for _, kwargs in probes] == [2] * len(cases)
