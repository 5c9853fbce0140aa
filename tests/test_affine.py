import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conjcert import affine, linalg
from conjcert.cli import build_report
from conjcert.errors import TheoremViolation, UsageError
from conjcert.fields import GF, QQ, QQI
from conjcert.groups import Inverse, element_order, generate_closure, is_rational_bruteforce
from conjcert.linalg import Matrix, Vector, kernel_basis
from conjcert.affine import (
    classify_affine_rational,
    rationality_certificates_linear,
    split_at_eigenvalue_one,
)
from conjcert.semidirect import AffineElement
from conformance_fixtures import extract_block_certificate, kron


def mat(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def vec(values, field=QQ):
    return Vector.of(field, values)


THREE_CYCLE = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_three_cycle_sanity():
    assert THREE_CYCLE ** 3 == Matrix.identity_of(QQ, 3)
    assert element_order(THREE_CYCLE).value == 3


def test_linear_certificates_identity():
    res = rationality_certificates_linear(Matrix.identity_of(QQ, 2), 1)
    assert res.complete and res.certificates == {1: Matrix.identity_of(QQ, 2)}


def test_linear_certificates_three_cycle():
    res = rationality_certificates_linear(THREE_CYCLE, 3)
    assert res.complete and set(res.certificates) == {1, 2}
    g = res.certificates[2]
    assert g * THREE_CYCLE * g.inverse() == THREE_CYCLE ** 2


def test_linear_certificates_diag_order_two():
    res = rationality_certificates_linear(mat([[1, 0], [0, -1]]), 2)
    assert res.complete and set(res.certificates) == {1}


def test_linear_certificates_detect_non_rational():
    # 2 generates the cube roots of unity in F_7; [2] and [4] are distinct
    # 1x1 matrices, so x is provably not rational
    x = mat([[2]], GF(7))
    res = rationality_certificates_linear(x, 3)
    assert res.not_rational == (2,)
    assert not res.complete


def test_split_identity():
    s = split_at_eigenvalue_one(Matrix.identity_of(QQ, 2))
    assert s.kernel_dim == 2 and len(s.image) == 0
    assert s.restricted.rows == 0


def test_split_minus_identity():
    s = split_at_eigenvalue_one(-Matrix.identity_of(QQ, 2))
    assert s.kernel_dim == 0 and len(s.image) == 2


def test_split_three_cycle():
    s = split_at_eigenvalue_one(THREE_CYCLE)
    assert s.kernel_dim == 1 and len(s.image) == 2
    k = s.kernel[0]
    assert k[0] == k[1] == k[2] != 0
    for u in s.image:
        assert sum(u.entries, Fraction(0)) == 0
    # restricted block has order 3 and no fixed point
    assert s.restricted ** 3 == Matrix.identity_of(QQ, 2)
    assert (s.restricted - Matrix.identity_of(QQ, 2)).det() != 0


def test_split_rejects_infinite_order():
    with pytest.raises(UsageError):
        split_at_eigenvalue_one(mat([[1, 1], [0, 1]]))


def test_extract_block_three_cycle():
    s = split_at_eigenvalue_one(THREE_CYCLE)
    g = rationality_certificates_linear(THREE_CYCLE, 3).certificates[2]
    block = extract_block_certificate(g, THREE_CYCLE, 2, s)
    assert block * s.restricted * block.inverse() == s.restricted ** 2


def test_extract_block_zero_kernel_is_whole_conjugate():
    x = -Matrix.identity_of(QQ, 2)
    s = split_at_eigenvalue_one(x)
    g = mat([[1, 2], [3, 7]])
    block = extract_block_certificate(g, x, 1, s)
    assert block == g  # change of basis is scalar, so the restriction is g itself


def test_extract_block_identity_empty():
    x = Matrix.identity_of(QQ, 2)
    s = split_at_eigenvalue_one(x)
    g = mat([[2, 1], [1, 1]])
    block = extract_block_certificate(g, x, 1, s)
    assert block.rows == 0 and block.cols == 0


def test_classify_minus_identity():
    x = -Matrix.identity_of(QQ, 2)
    res = classify_affine_rational(rationality_certificates_linear(x, 2), vec([1, 2]))
    assert res.verdict == "rational" and set(res.certificates) == {1}


def test_classify_block_route():
    linear = rationality_certificates_linear(THREE_CYCLE, 3)
    v = vec([1, -1, 0])  # sum zero: no kernel component
    res = classify_affine_rational(linear, v)
    assert res.verdict == "rational"
    cert = res.certificates[2]
    assert cert.verified
    # round trip: the witness's linear part restricts to a block witness
    s = split_at_eigenvalue_one(THREE_CYCLE)
    lifted = cert.witness.linear
    block = extract_block_certificate(lifted, THREE_CYCLE, 2, s)
    assert block * s.restricted * block.inverse() == s.restricted ** 2


def test_classify_infinite_order_route():
    res = classify_affine_rational(rationality_certificates_linear(THREE_CYCLE, 3),
                                   vec([1, 1, 1]))
    assert res.verdict == "infinite_order"
    assert res.kernel_component is not None and not res.kernel_component.is_zero()
    assert len(res.telescope) == 30
    assert res.telescope[4] == res.kernel_component.scale(Fraction(5))
    # the structured search solves the consistency system and finds a witness
    assert res.reality is not None and res.reality.verified


def test_infinite_order_reality_witness_for_pure_translations():
    # (I, v) is real via Y = -I with zero correction
    x = Matrix.identity_of(QQ, 2)
    res = classify_affine_rational(rationality_certificates_linear(x, 1), vec([3, -5]))
    assert res.verdict == "infinite_order"
    assert res.reality is not None and res.reality.verified
    assert res.reality.witness.linear.apply(vec([3, -5])) == vec([-3, 5])


def test_classify_matches_order_detection():
    linear = rationality_certificates_linear(THREE_CYCLE, 3)
    for v, expect_finite in [
        (vec([1, -1, 0]), True),
        (vec([1, 1, 1]), False),
        (vec([2, -1, -1]), True),
        (vec([1, 0, 0]), False),  # kernel component 1/3
    ]:
        res = classify_affine_rational(linear, v)
        subject_order = element_order(AffineElement.of(THREE_CYCLE, v), bound=30)
        assert subject_order.is_finite == expect_finite
        assert (res.verdict == "rational") == expect_finite


def _gl2_f3_affine():
    """GL(2,F_3) and GL(2,F_3) |x F_3^2 as closures of their generators."""
    f3 = GF(3)
    linear_gens = [
        mat([[1, 1], [0, 1]], f3),
        mat([[0, -1], [1, 0]], f3),
        mat([[2, 0], [0, 1]], f3),
    ]
    H = generate_closure(linear_gens, cap=100)
    gens = [AffineElement.of(g, [0, 0]) for g in linear_gens]
    gens += [AffineElement.of(Matrix.identity_of(f3, 2), v) for v in ([1, 0], [0, 1])]
    return H, generate_closure(gens, cap=1000)


def test_classify_finite_characteristic_kernel_component_is_rational():
    """x = I over F_3 and v = (1, 0) outside im(x - I) = 0: (x, v) has order
    3, a multiple of p, and h = k I witnesses each power k in {1, 2}, as
    brute force agrees."""
    f3 = GF(3)
    x = Matrix.identity_of(f3, 2)
    res = classify_affine_rational(rationality_certificates_linear(x, 1), vec([1, 0], f3))
    assert res.verdict == "rational" and res.order == 3
    assert set(res.certificates) == {1, 2}
    assert all(c.verified for c in res.certificates.values())
    assert res.certificates[2].witness.linear == x.scale(f3.coerce(2))
    _, G = _gl2_f3_affine()
    brute = is_rational_bruteforce(G, AffineElement.of(x, vec([1, 0], f3)))
    assert brute is not None and set(brute) == {1, 2}


def test_non_semisimple_translation_in_image_is_rational():
    """x = [[1,1],[0,1]] over F_3 has order 3 and is not semisimple, but
    v = (1, 0) lies in im(x - I), so (x, v) is conjugate to (x, 0) and
    rational, as brute force agrees.  v = (0, 1) lies outside the image, so
    the order of (x, v) is a multiple of 3 (here 3 itself) and h = k g_k
    witnesses each power k, as brute force agrees too."""
    f3 = GF(3)
    x = mat([[1, 1], [0, 1]], f3)
    linear = rationality_certificates_linear(x, 3)
    assert linear.complete
    res = classify_affine_rational(linear, vec([1, 0], f3))
    assert res.verdict == "rational" and set(res.certificates) == {1, 2}
    assert all(c.verified for c in res.certificates.values())
    _, G = _gl2_f3_affine()
    brute = is_rational_bruteforce(G, AffineElement.of(x, vec([1, 0], f3)))
    assert brute is not None and set(brute) == {1, 2}
    res = classify_affine_rational(linear, vec([0, 1], f3))
    assert res.verdict == "rational" and res.order == 3 and set(res.certificates) == {1, 2}
    assert all(c.verified for c in res.certificates.values())
    brute = is_rational_bruteforce(G, AffineElement.of(x, vec([0, 1], f3)))
    assert brute is not None and set(brute) == {1, 2}


def test_image_translation_takes_no_splitting(monkeypatch):
    """v in im(x - I) is certified from the conjugators of x alone; only an
    infinite-order (x, v) splits F^n at the eigenvalue 1, and once."""
    linear = rationality_certificates_linear(THREE_CYCLE, 3)
    split = affine.split_at_eigenvalue_one

    def refuse(*args):
        raise AssertionError("splitting used for v in im(x - I)")

    monkeypatch.setattr(affine, "split_at_eigenvalue_one", refuse)
    res = classify_affine_rational(linear, vec([1, -1, 0]))
    assert res.verdict == "rational" and res.certificates[2].verified
    monkeypatch.undo()

    calls = []

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(affine, "split_at_eigenvalue_one", counted)
    res = classify_affine_rational(linear, vec([1, 1, 1]))
    assert res.verdict == "infinite_order" and res.reality.verified
    assert len(calls) == 1


def test_oracle_agreement_gl2_f3_full_enumeration():
    """Pipeline verdicts and power sets coincide with brute force on every
    element of GL(2,F_3) |x F_3^2."""
    H, G = _gl2_f3_affine()
    assert len(H) == 48
    assert len(G) == 432

    linear_cache = {}
    for x in H:
        m = element_order(x, bound=49).value
        linear_cache[x] = (m, rationality_certificates_linear(x, m))
    rational = not_rational = 0
    for s in G:
        x, v = s.linear, s.translation
        m, linear = linear_cache[x]
        brute = is_rational_bruteforce(G, s)
        if linear.not_rational:
            # x provably not rational in GL(2,F_3): neither is (x, v), since
            # rationality projects onto the linear part
            assert brute is None
            not_rational += 1
            continue
        res = classify_affine_rational(linear, v)
        assert res.verdict == "rational"
        assert brute is not None
        assert set(brute) == set(res.certificates)
        rational += 1
    assert (rational, not_rational) == (324, 108)


def test_oracle_agreement_f3_direct_route():
    """Constructive verdicts match brute force where the pipeline applies."""
    f3 = GF(3)
    x = mat([[0, -1], [1, 0]], f3)  # order 4, no fixed point mod 3
    linear = rationality_certificates_linear(x, 4)
    gens = [
        AffineElement.of(mat([[0, -1], [1, 0]], f3), [0, 0]),
        AffineElement.of(mat([[1, 1], [0, 1]], f3), [0, 0]),
        AffineElement.of(Matrix.identity_of(f3, 2), [1, 0]),
        AffineElement.of(Matrix.identity_of(f3, 2), [0, 1]),
    ]
    G = generate_closure(gens, cap=3000)
    for v in [vec([0, 0], f3), vec([1, 2], f3), vec([2, 2], f3)]:
        res = classify_affine_rational(linear, v)
        assert res.verdict == "rational"
        brute = is_rational_bruteforce(G, AffineElement.of(x, v))
        assert brute is not None
        assert set(brute) == set(res.certificates)


# -- the constructive inverse witness on the infinite-order route -------------

def _bench_linear_part(name):
    """A linear part of the affine benchmark, as a QQ matrix, with its order."""
    root = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    order, blocks = next((order, blocks) for part, order, blocks, _ in
                         workloads.AFFINE_LINEAR_PARTS if part == name)
    rows, _ = workloads._linear_part(order, blocks)
    return Matrix.from_rows(QQ, rows), order


O12_D6, O12_ORDER = _bench_linear_part("o12_d6")
INFINITE_ORDER_CASES = [
    (rationality_certificates_linear(x, m), kernel_basis(x - Matrix.identity_of(QQ, x.rows)))
    for x, m in ((THREE_CYCLE, 3), (O12_D6, O12_ORDER),
                 (Matrix.identity_of(QQ, 2), 1), (mat([[-1, 0], [0, 1]]), 2))
]


def test_infinite_order_route_eliminates_at_most_n_columns(monkeypatch):
    """The inverse witness on the order-12, dimension-6 linear part needs
    only n x n systems; a search over the solution space of Y x = x^-1 Y
    eliminates its n^2 = 36-column kron system."""
    x, m = O12_D6, O12_ORDER
    linear = rationality_certificates_linear(x, m)
    f = kernel_basis(x - Matrix.identity_of(QQ, x.rows))[0]
    v = (x - Matrix.identity_of(QQ, x.rows)).apply(vec([1, 2, 0, -1, 3, 1])) + f
    widest = [0]
    echelon = linalg._echelon

    def recorded(rows, ncols, one):
        widest[0] = max(widest[0], ncols)
        return echelon(rows, ncols, one)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    res = classify_affine_rational(linear, v)
    monkeypatch.undo()
    assert res.verdict == "infinite_order" and res.reality.verified
    assert widest[0] <= x.rows, widest[0]


_small = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(INFINITE_ORDER_CASES), data=st.data())
def test_infinite_order_reality_is_always_constructed(case, data):
    """v = (x - I) u + c f with f in K = ker(x - I) and c != 0 has a nonzero
    kernel component, so (x, v) has infinite order; the paper's construction
    makes it real, with a witness that negates K."""
    linear, kernel = case
    x = linear.x
    n = x.rows
    u = vec(data.draw(st.lists(_small, min_size=n, max_size=n), label="u"))
    coeffs = data.draw(st.lists(_small, min_size=len(kernel), max_size=len(kernel))
                       .filter(any), label="f")
    c = data.draw(_small.filter(bool), label="c")
    f = Vector.zero(QQ, n)
    for a, k in zip(coeffs, kernel):
        f = f + k.scale(a)
    v = (x - Matrix.identity_of(QQ, n)).apply(u) + f.scale(c)

    res = classify_affine_rational(linear, v)
    assert res.verdict == "infinite_order"
    cert = res.reality
    assert cert is not None and cert.verified and isinstance(cert.relation, Inverse)
    assert cert.check()
    g = cert.witness.linear
    for k in kernel:
        assert g.apply(k) == -k
    assert g.apply(f) == -f


# -- Krylov conjugators over Q -------------------------------------------------

# cyclotomic polynomials t^phi(d) + ... + c_0 as (c_0, ..., c_(phi(d)-1))
_CYCLOTOMIC = {1: (-1,), 2: (1,), 3: (1, 1), 4: (1, 0), 5: (1, 1, 1, 1),
               12: (1, 0, -1, 0)}


def _companion_blocks(field, blocks):
    """The block diagonal sum of the companion matrices of the monic
    t^d + c_(d-1) t^(d-1) + ... + c_0, each given as (c_0, ..., c_(d-1))."""
    n = sum(len(c) for c in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for coeffs in blocks:
        size = len(coeffs)
        for i in range(size):
            if i:
                rows[at + i][at + i - 1] = 1
            rows[at + i][at + size - 1] = -coeffs[i]
        at += size
    return mat(rows, field)


def _unit_triangular(entries, n, lower):
    """Unit lower or upper triangular matrix filled from entries."""
    it = iter(entries)
    return mat([[1 if i == j else (next(it) if (i > j) == lower else 0)
                 for j in range(n)] for i in range(n)])


@settings(max_examples=20, deadline=None)
@given(orders=st.sampled_from([(3, 3, 1), (4, 4, 2, 1), (12, 3, 4), (5, 1)]),
       data=st.data())
def test_krylov_conjugators_with_repeated_blocks(orders, data):
    """x = P (companion sum of Phi_d) P^-1 over Q, with repeated d: every
    coprime power gets a conjugator, which keeps ker(x - I) and im(x - I)."""
    c = _companion_blocks(QQ, [_CYCLOTOMIC[d] for d in orders])
    n = c.rows
    m = 1
    for d in orders:
        m = m * d // gcd(m, d)
    small = st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2)
    P = (_unit_triangular(data.draw(small, label="lower"), n, True)
         * _unit_triangular(data.draw(small, label="upper"), n, False))
    x = P * c * P.inverse()
    res = rationality_certificates_linear(x, m)
    assert res.complete and res.order == m
    splitting = split_at_eigenvalue_one(x)
    coprime = [k for k in range(1, m) if gcd(k, m) == 1]
    assert sorted(res.certificates) == coprime
    for k in coprime:
        g = res.certificates[k]
        assert g * x * g.inverse() == x ** k
        block = extract_block_certificate(g, x, k, splitting)
        assert block.rows == len(splitting.image)


def test_linear_certificates_eliminate_at_most_2n_columns(monkeypatch):
    """On the order-12, dimension-8 linear part of the affine benchmark the
    conjugators need n x n eliminations only (the widest is [A | I], 2n
    columns); solving g x = x^k g over the matrix space eliminates an
    n^2 = 64-column kron system."""
    x, m = _bench_linear_part("o12_d8")
    widest = [0]
    echelon = linalg._echelon

    def recorded(rows, ncols, one):
        widest[0] = max(widest[0], ncols, *(len(row) for row in rows[:1]))
        return echelon(rows, ncols, one)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    res = rationality_certificates_linear(x, m)
    monkeypatch.undo()
    assert res.complete and len(res.certificates) == 4
    assert widest[0] <= 2 * x.rows, widest[0]


def test_wrong_conjugator_raises_theorem_violation(monkeypatch):
    """Each conjugator is checked by an explicit g x = x^k g comparison, which
    ``python -O`` keeps, and a failure is a TheoremViolation."""
    monkeypatch.setattr(affine, "_cyclic_conjugators",
                        lambda x: lambda y: (Matrix.identity_of(x.field, x.rows), None))
    with pytest.raises(TheoremViolation):
        rationality_certificates_linear(THREE_CYCLE, 3)


def test_conjugator_moving_the_cokernel_raises_theorem_violation(monkeypatch):
    """g_2 z with z = diag(2, 1, 1) commuting with x still conjugates x to
    x^2, but it scales the fixed line e_1, which spans F^3 / im(x - I), so
    no h = c g_2 could carry the translation e_1: the check at build time
    refuses it."""
    x = mat([[1, 0, 0], [0, 0, -1], [0, 1, -1]])
    moved = (rationality_certificates_linear(x, 3).certificates[2]
             * mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert moved * x * moved.inverse() == x ** 2
    monkeypatch.setattr(affine, "_cyclic_conjugators", lambda x: lambda y: (moved, None))
    with pytest.raises(TheoremViolation, match="k = 2 moves"):
        rationality_certificates_linear(x, 3)


def test_singular_conjugator_raises_theorem_violation(monkeypatch):
    """The zero matrix satisfies g x = x^k g; only the invertibility check
    refuses it."""
    monkeypatch.setattr(affine, "_cyclic_conjugators",
                        lambda x: lambda y: (x - x, None))
    with pytest.raises(TheoremViolation, match="k = 2 is singular"):
        rationality_certificates_linear(THREE_CYCLE, 3)


def test_affine_scenario_derives_x_once(monkeypatch):
    """x is derived once per scenario: one cyclic decomposition and one
    eigenvalue-1 splitting, however many v share x."""
    calls = {"_cyclic_decomposition": 0, "split_at_eigenvalue_one": 0}
    for name in calls:
        def counted(*args, _f=getattr(affine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(affine, name, counted)
    scenario = {
        "schema_version": 1,
        "kind": "affine",
        "params": {"x": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]], "order": 3},
        "elements": [{"v": ["1", "1", "1"]}, {"v": ["1", "0", "0"]},
                     {"v": ["1", "-1", "0"]}, {"v": ["0", "2", "-1"]}],
    }
    report = build_report(scenario, 0, 100)
    assert [r["verdicts"]["rational"] for r in report["results"]] == [
        "infinite_order", "infinite_order", "rational", "infinite_order"]
    assert calls == {"_cyclic_decomposition": 1, "split_at_eigenvalue_one": 1}


# -- cyclic conjugators against an exhaustive scan of the kron system ----------

def _invertible_by_scan(x, y, p):
    """Whether some invertible g has g x = y g: every member of the solution
    space of the flattened system (I (x) x^T - y (x) I) vec(g) = 0 is tried."""
    n = x.rows
    field = x.field
    ident = Matrix.identity_of(field, n)
    basis = [Matrix(field, n, n, vec.entries)
             for vec in kernel_basis(kron(ident, x.transpose()) - kron(y, ident))]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        g = Matrix(field, n, n, (field.zero(),) * (n * n))
        for c, b in zip(coeffs, basis):
            g = g + b.scale(field.coerce(c))
        if g.det():
            return True
    return False


# (p, blocks); (1, -2) is (t - 1)^2, so the unipotent blocks make p | m
SCAN_CASES = [
    # (t - 1)^2 + [2]: order 20, x^k ~ x iff k = 1 mod 4
    pytest.param(5, [(1, -2), (-2,)], id="f5-unipotent2-plus-2"),
    pytest.param(5, [(1, -2), (-1,)], id="f5-unipotent2-plus-1"),  # order 5
    pytest.param(5, [(-2,), (-3,), (-3,)], id="f5-diag-2-3-3"),  # x^3 = diag(3, 2, 2)
    pytest.param(5, [(1, 1), (-1,)], id="f5-t2+t+1-plus-1"),  # irreducible mod 5
    pytest.param(7, [(-2,), (-4,), (-4,)], id="f7-diag-2-4-4"),  # x^2 = diag(4, 2, 2)
    pytest.param(7, [(-1, 3, -3)], id="f7-unipotent3"),  # (t - 1)^3, order 7
    pytest.param(7, [(1, -2), (-3,)], id="f7-unipotent2-plus-3"),  # order 42
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("p, blocks", SCAN_CASES)
def test_cyclic_conjugators_match_exhaustive_scan(p, blocks, seed):
    """x = P C P^-1 with C a sum of companion blocks over F_p and P a seeded
    invertible matrix: a conjugator for k comes back exactly when the kron
    solution space of g x = x^k g holds an invertible member, and otherwise
    k is listed as not rational."""
    field = GF(p)
    c = _companion_blocks(field, blocks)
    n = c.rows
    rng = random.Random(seed)
    while True:
        P = mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)], field)
        if P.det():
            break
    x = P * c * P.inverse()
    m = element_order(x, bound=100).value
    res = rationality_certificates_linear(x, m)
    assert res.order == m
    for k in range(2, m):
        if gcd(k, m) != 1:
            continue
        y = x ** k
        found = _invertible_by_scan(x, y, p)
        assert (k in res.certificates) == found, k
        assert (k in res.not_rational) == (not found), k
        if found:
            g = res.certificates[k]
            assert g * x * g.inverse() == y
    assert res.complete == (res.note == "")


def _gaussian_diagonal(*entries):
    n = len(entries)
    return Matrix(QQI, n, n, tuple(QQI.parse(entries[i]) if i == j else QQI.zero()
                                   for i in range(n) for j in range(n)))


def test_gaussian_rational_conjugators():
    """Over Q(i), diag(i, -i, 1) is conjugate to its cube, and diag(i, i, 1)
    is not: its second invariant factor t - 1 stays, but the first,
    (t - i)(t - 1), becomes (t + i)(t - 1)."""
    x = _gaussian_diagonal("i", "0-1 i", "1")
    res = rationality_certificates_linear(x, 4)
    assert res.complete and sorted(res.certificates) == [1, 3]
    g = res.certificates[3]
    assert g * x * g.inverse() == x ** 3

    x = _gaussian_diagonal("i", "i", "1")
    res = rationality_certificates_linear(x, 4)
    assert res.not_rational == (3,) and sorted(res.certificates) == [1]
    assert res.note.startswith("x^3 is not conjugate to x: invariant factor 1 ")
