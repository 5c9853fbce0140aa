import random

import pytest

from conjcert.errors import ClosureCapExceeded, UsageError
from conjcert.fields import GF, QQ
from conjcert.groups import (
    Certificate,
    Inverse,
    Power,
    element_order,
    element_power,
    generate_closure,
    is_rational_bruteforce,
    is_real_bruteforce,
)
from conjcert.linalg import Matrix
from conjcert.semidirect import AffineElement
from conformance_fixtures import conjugacy_classes, count_calls, rational_classes


def f2mat(rows):
    return Matrix.from_rows(GF(2), rows)


def sl2_f2():
    return generate_closure([f2mat([[1, 1], [0, 1]]), f2mat([[0, 1], [1, 0]])])


def psl2f2_affine():
    """PSL(2, Z_2) |x F_2^2 as affine pairs; |G| = 24."""
    gens = [
        AffineElement.of(f2mat([[1, 1], [0, 1]]), [0, 0]),
        AffineElement.of(f2mat([[0, 1], [1, 0]]), [0, 0]),
        AffineElement.of(f2mat([[1, 0], [0, 1]]), [1, 0]),
        AffineElement.of(f2mat([[1, 0], [0, 1]]), [0, 1]),
    ]
    return generate_closure(gens)


def test_closure_trivial():
    e = Matrix.identity_of(QQ, 2)
    G = generate_closure([e])
    assert len(G) == 1 and G.identity == e


def test_closure_sl2_f2_order_6():
    assert len(sl2_f2()) == 6


def test_closure_full_semidirect_order_24():
    assert len(psl2f2_affine()) == 24


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        generate_closure([f2mat([[1, 1], [0, 1]]), f2mat([[0, 1], [1, 0]])], cap=3)


def test_element_order_examples():
    e = Matrix.identity_of(QQ, 3)
    assert element_order(e).value == 1
    x = f2mat([[1, 1], [1, 0]])
    assert element_order(x).value == 3
    shift = AffineElement.of(Matrix.identity_of(QQ, 1), [1])
    res = element_order(shift, bound=100)
    assert not res.is_finite


def test_element_order_stops_at_the_bound(monkeypatch):
    """A probe of an element whose order exceeds the bound b makes b - 1
    products: g^b is the last power it tests, and it forms no further one."""
    shift = AffineElement.of(Matrix.identity_of(QQ, 1), [1])
    for bound in (1, 2, 5):
        products = count_calls(monkeypatch, AffineElement, "__mul__")
        assert not element_order(shift, bound=bound).is_finite
        monkeypatch.undo()
        assert len(products) == bound - 1
    x = f2mat([[1, 1], [1, 0]])
    assert element_order(x, bound=3).value == 3
    assert not element_order(x, bound=2).is_finite


def _power_subjects():
    return (Matrix.from_rows(QQ, [[1, 2], [-1, 3]]),
            Matrix.from_rows(GF(5), [[1, 2], [3, 3]]),
            AffineElement.of(Matrix.from_rows(GF(5), [[0, 4], [1, 1]]), [2, 1]))


@pytest.mark.parametrize("g", _power_subjects(), ids=["q", "f5", "affine"])
def test_element_power_matches_repeated_multiplication(g):
    inverse = g.inverse()
    expected = {0: g.identity()}
    for k in range(1, 41):
        expected[k] = expected[k - 1] * g
    for k in range(1, 7):
        expected[-k] = expected[1 - k] * inverse
    for k in range(-6, 41):
        assert element_power(g, k) == expected[k], k


@pytest.mark.parametrize("g", _power_subjects(), ids=["q", "f5", "affine"])
def test_element_power_product_count(monkeypatch, g):
    """Square-and-multiply from g: k.bit_length() - 1 squarings and
    k.bit_count() - 1 multiplications by g, so k = 5 takes 3 products."""
    for k in range(0, 41):
        products = count_calls(monkeypatch, type(g), "__mul__")
        element_power(g, k)
        monkeypatch.undo()
        assert len(products) == (k.bit_length() + k.bit_count() - 2 if k else 0), k


def test_real_bruteforce_identity_and_involution():
    G = sl2_f2()
    cert = is_real_bruteforce(G, G.identity)
    assert cert.witness == G.identity and cert.verified
    invol = f2mat([[1, 1], [0, 1]])
    cert = is_real_bruteforce(G, invol)
    # g = g^-1, so the first witness in enumeration order is the identity
    assert cert.witness == G.identity


def test_real_bruteforce_order3():
    G = sl2_f2()
    x = f2mat([[1, 1], [1, 0]])
    cert = is_real_bruteforce(G, x)
    assert cert is not None and cert.check()


def test_rational_bruteforce_examples():
    G = sl2_f2()
    certs = is_rational_bruteforce(G, G.identity)
    assert set(certs) == {1}
    x = f2mat([[1, 1], [1, 0]])
    certs = is_rational_bruteforce(G, x)
    assert set(certs) == {1, 2}
    assert certs[2].check()


def test_rational_bruteforce_affine_translations():
    G = psl2f2_affine()
    x = f2mat([[1, 1], [1, 0]])
    for v in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        s = AffineElement.of(x, list(v))
        certs = is_rational_bruteforce(G, s)
        assert certs is not None and set(certs) == {1, 2}


def test_rational_implies_real_for_order_gt_2():
    G = psl2f2_affine()
    for g in G:
        m = element_order(g, bound=len(G) + 1).value
        if m > 2 and is_rational_bruteforce(G, g) is not None:
            assert is_real_bruteforce(G, g) is not None


def test_conjugate_elements_same_verdicts():
    G = psl2f2_affine()
    rng = random.Random(0)
    elems = list(G)
    for _ in range(10):
        g = rng.choice(elems)
        h = rng.choice(elems)
        conj = h * g * h.inverse()
        assert (is_real_bruteforce(G, g) is None) == (is_real_bruteforce(G, conj) is None)
        assert (is_rational_bruteforce(G, g) is None) == (is_rational_bruteforce(G, conj) is None)


def test_rational_classes_trivial():
    e = Matrix.identity_of(QQ, 2)
    assert len(rational_classes(generate_closure([e]))) == 1


def test_rational_classes_psl2_f2():
    G = sl2_f2()
    classes = rational_classes(G)
    assert len(classes) == 3
    reps = [
        f2mat([[1, 0], [0, 1]]),
        f2mat([[1, 1], [0, 1]]),
        f2mat([[1, 1], [1, 0]]),
    ]
    for rep in reps:
        assert sum(1 for cls in classes if rep in cls) == 1
    # each stated representative lies in a different class
    homes = [next(i for i, cls in enumerate(classes) if rep in cls) for rep in reps]
    assert len(set(homes)) == 3


def test_rational_classes_f2_squared():
    ident = Matrix.identity_of(GF(2), 2)
    gens = [AffineElement.of(ident, [1, 0]), AffineElement.of(ident, [0, 1])]
    G = generate_closure(gens)
    assert len(G) == 4
    # abelian with exponent 2: only k = 1 is coprime, so nothing merges
    assert len(rational_classes(G)) == 4


def test_rational_classes_coarsen_conjugacy():
    G = psl2f2_affine()
    conj = conjugacy_classes(G)
    rat = rational_classes(G)
    assert len(rat) <= len(conj)
    conj_sets = [frozenset(c) for c in conj]
    for cls in rat:
        members = frozenset(cls)
        merged = [c for c in conj_sets if c <= members]
        assert frozenset().union(*merged) == members


def test_tampered_certificate_is_rejected():
    G = sl2_f2()
    x = f2mat([[1, 1], [1, 0]])
    with pytest.raises(Exception):
        Certificate.make(x, G.identity, Power(2))


def test_certificate_relation_descriptions():
    assert Inverse().describe() == "inverse"
    assert Power(3).describe() == "power 3"


def test_element_order_bad_bound():
    with pytest.raises(UsageError):
        element_order(Matrix.identity_of(QQ, 1), bound=0)
