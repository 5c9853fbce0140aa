import collections
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conjcert.cli import DEFAULT_BOUND, build_report
from conjcert.errors import FixedPointError, PresentationError, UsageError
from conjcert.fields import GF, QQ
from conjcert.groups import Inverse, Power, element_order
from conjcert import semidirect
from conjcert.heisenberg import (
    GSpElement,
    HeisenbergElement,
    heisenberg_presentation,
    standard_gsp_example,
)
from conjcert.linalg import (
    Matrix,
    RowReduction,
    Vector,
    has_fixed_point,
    kernel_basis,
    solve_linear,
)
from conjcert.semidirect import (
    AffineElement,
    CentralSeriesLevel,
    CentralSeriesPresentation,
    SemidirectElement,
    SemidirectProduct,
    lift_central_series,
    make_power_witness,
    make_real_witness,
    real_witness_via_lift,
    vector_presentation,
)
from conjcert.sl2 import SL2Element, SL2VElement, antidiagonal_witness, rho
from conformance_fixtures import (
    bench_module,
    reduce_translation,
    reference_lift,
    validate_presentation,
)


def mat(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def vec(values, field=QQ):
    return Vector.of(field, values)


def rnd_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def rnd_invertible(rng, n, field=QQ):
    while True:
        if field is QQ:
            m = mat([[rnd_fraction(rng) for _ in range(n)] for _ in range(n)])
        else:
            m = mat([[rng.randrange(field.p) for _ in range(n)] for _ in range(n)], field)
        if m.det():
            return m


def block_matrix(a: AffineElement) -> Matrix:
    n = a.linear.rows
    field = a.linear.field
    rows = []
    for i in range(n):
        rows.append(list(a.linear.row(i)) + [a.translation[i]])
    rows.append([field.zero()] * n + [field.one()])
    return Matrix(field, n + 1, n + 1, tuple(x for row in rows for x in row))


def test_affine_matches_block_matrices():
    rng = random.Random(1)
    for _ in range(20):
        a = AffineElement.of(rnd_invertible(rng, 2), [rnd_fraction(rng) for _ in range(2)])
        b = AffineElement.of(rnd_invertible(rng, 2), [rnd_fraction(rng) for _ in range(2)])
        assert block_matrix(a * b) == block_matrix(a) * block_matrix(b)
        assert block_matrix(a.inverse()) == block_matrix(a).inverse()


def test_affine_rejects_singular_linear_part():
    with pytest.raises(UsageError):
        AffineElement.of(mat([[1, 1], [1, 1]]), [0, 0])


def test_reduce_translation_zero():
    x = mat([[2, 0], [0, "1/2"]])
    assert reduce_translation(x, vec([0, 0])) == vec([0, 0])


def test_reduce_translation_diagonal():
    x = mat([[2, 0], [0, "1/2"]])
    w = reduce_translation(x, vec([1, 1]))
    assert w == vec([1, -2])
    # conjugation by (I, w) really kills the translation
    c = AffineElement.of(Matrix.identity_of(QQ, 2), w)
    s = AffineElement.of(x, [1, 1])
    conj = c * s * c.inverse()
    assert conj == AffineElement.of(x, [0, 0])


def test_reduce_translation_unique_and_deterministic():
    rng = random.Random(2)
    count = 0
    while count < 50:
        x = rnd_invertible(rng, 2)
        if (x - Matrix.identity_of(QQ, 2)).det() == 0:
            continue
        count += 1
        b = vec([rnd_fraction(rng) for _ in range(2)])
        w1 = reduce_translation(x, b)
        w2 = reduce_translation(x, b)
        assert w1 == w2
        b2 = b + vec([1, 0])
        assert reduce_translation(x, b2) != w1


def test_reduce_translation_fixed_point_error_carries_kernel():
    x = mat([[1, 0], [0, 2]])
    with pytest.raises(FixedPointError) as err:
        reduce_translation(x, vec([1, 1]))
    assert err.value.kernel and err.value.kernel[0] == vec([1, 0])



def test_reduce_translation_solves_for_translations_in_the_image():
    # x fixes e_1, but b = (0, 2) lies in im(x - I): w has its free
    # coordinate at zero, and the witness equation is still solvable
    x = mat([[1, 0], [0, -1]])
    b = vec([0, 2])
    assert reduce_translation(x, b) == vec([0, -1])
    assert make_real_witness(x, b, Matrix.identity_of(QQ, 2)).verified
    assert make_power_witness(x, b, Matrix.identity_of(QQ, 2), 3).verified

def test_make_real_witness_zero_translation():
    x = mat([[2, 0], [0, "1/2"]])
    h = mat([[0, 1], [-1, 0]])
    cert = make_real_witness(x, vec([0, 0]), h)
    assert cert.witness == AffineElement.of(h, [0, 0])
    assert cert.verified


def test_make_real_witness_diagonal():
    x = mat([[2, 0], [0, "1/2"]])
    h = mat([[0, 1], [-1, 0]])
    cert = make_real_witness(x, vec([1, 1]), h)
    assert cert.verified and cert.check()
    assert isinstance(cert.relation, Inverse)


def test_make_real_witness_rejects_bad_h():
    x = mat([[2, 0], [0, "1/2"]])
    with pytest.raises(UsageError):
        make_real_witness(x, vec([1, 1]), Matrix.identity_of(QQ, 2))


def test_make_power_witness_trivial():
    x = mat([[2, 0], [0, "1/2"]])
    cert = make_power_witness(x, vec([3, -4]), Matrix.identity_of(QQ, 2), 1)
    assert cert.witness == cert.witness.identity()


def test_make_power_witness_f2_matches_closed_form_conjugator():
    f2 = GF(2)
    x = mat([[1, 1], [1, 0]], f2)
    h = mat([[0, 1], [1, 0]], f2)
    assert h * x * h.inverse() == x ** 2
    for v in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        b = vec(list(v), f2)
        cert = make_power_witness(x, b, h, 2)
        assert cert.verified
        s = AffineElement.of(x, b)
        closed_form = AffineElement.of(h, [v[1], v[1]])
        assert closed_form * s * closed_form.inverse() == s * s


def test_witness_computes_the_relation_target_once(monkeypatch):
    """In either pair group the solve takes the relation's target once, and
    the certificate's check takes it once more, on its own."""
    targets = []
    for relation in (Inverse, Power):
        monkeypatch.setattr(relation, "of", lambda self, s, of=relation.of:
                            targets.append(self) or of(self, s))
    f2 = GF(2)
    make_power_witness(mat([[1, 1], [1, 0]], f2), vec([1, 0], f2), mat([[0, 1], [1, 0]], f2), 2)
    assert targets == [Power(2)] * 2
    targets.clear()
    # n = 4: rho(h) fixes the middle coordinate, so v_mid = 0 keeps the system solvable
    cert = make_real_witness(SL2Element.diagonal(2), vec([1, 2, 0, 4, 5]), antidiagonal_witness(1),
                             SL2VElement, lambda g: rho(g, 4))
    assert targets == [Inverse()] * 2
    assert cert.witness.h == antidiagonal_witness(1) and cert.verified


def test_make_power_witness_minus_identity():
    x = -Matrix.identity_of(QQ, 2)
    cert = make_power_witness(x, vec([5, 7]), Matrix.identity_of(QQ, 2), 1)
    assert cert.verified


def test_make_real_witness_translation_outside_the_image():
    # b = (1, 0) spans ker(x - I), so no translation conjugates (x, b) to
    # (x, 0); the witness equation is solvable all the same, with w = 0
    x = mat([[1, 0], [0, -1]])
    h = mat([[-1, 0], [0, 1]])
    cert = make_real_witness(x, vec([1, 0]), h)
    assert cert.verified and cert.check()
    assert cert.witness == AffineElement.of(h, [0, 0])


def test_inconsistent_witness_equation_carries_the_kernel():
    # y = x^-1 = diag(1, 2, 1/2) fixes e_1, and the e_1 row of
    # (I - y) w = -x^-1 b - h b reads 0 = -2
    x = mat([[1, 0, 0], [0, 2, 0], [0, 0, "1/2"]])
    h = mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(FixedPointError) as err:
        make_real_witness(x, vec([1, 0, 0]), h)
    assert err.value.kernel == [vec([1, 0, 0])]
    with pytest.raises(FixedPointError) as err:
        make_power_witness(x, vec([1, 0, 0]), h, -1)
    assert err.value.kernel == [vec([1, 0, 0])]


def _drawn_invertible(data, field, n, label):
    m = mat([[data.draw(st.integers(-2, 2), label=label) for _ in range(n)]
             for _ in range(n)], field)
    assume(m.det())
    return m


def _drawn_involution(data, field, n, label):
    p = _drawn_invertible(data, field, n, label)
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
                      label=label + " signs")
    d = mat([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)], field)
    return p * d * p.inverse()


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]), n=st.integers(1, 3), data=st.data())
def test_witness_equation_agrees_with_the_translation_frame(field, n, data):
    """x = a b for involutions a, b, so h = a conjugates x to x^-1 (and to
    x^(order - 1) when x has finite order).  With x - I invertible the
    witness is the unique (h, w), the same as c^-1 (h, 0) c for
    c = (I, reduce_translation(x, b)); with b in im(x - I) the equation is
    solvable, so the certificate always verifies."""
    a = _drawn_involution(data, field, n, "a")
    x = a * _drawn_involution(data, field, n, "b")
    order = element_order(x, bound=125)
    k = order.value - 1 if order.is_finite and order.value > 1 else -1
    ident = Matrix.identity_of(field, n)
    u = vec(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="u"), field)
    b = (x - ident).apply(u) if data.draw(st.booleans(), label="in image") else u
    in_image = solve_linear(x - ident, b) is not None
    for make in (lambda: make_real_witness(x, b, a),
                 lambda: make_power_witness(x, b, a, k)):
        try:
            cert = make()
        except FixedPointError:
            assert not in_image
            continue
        assert cert.verified and cert.check()
        if (x - ident).det():
            c = AffineElement(ident, reduce_translation(x, b))
            assert cert.witness == c.inverse() * AffineElement(a, Vector.zero(field, n)) * c


def all_invertible(field, n):
    """GL(n, F_p), in the order of their row-major entries."""
    for entries in itertools.product(range(field.p), repeat=n * n):
        m = Matrix(field, n, n, tuple(field.coerce(e) for e in entries))
        if m.det():
            yield m


def conjugating_triples(field, rng):
    """(x, h, relation) with h x h^-1 = relation(x), for Inverse and for
    Power(k).  Over F_2: every pair of GL(2, 2) and sampled x in GL(3, 2)
    against all of it.  Over Q: x = a b for random involutions a, b, so
    h = a takes x to x^-1, and, when x has order m, to x^(m - 1); and
    h = x^j takes x to x^1."""
    if field.characteristic:
        for n, draws in ((2, None), (3, 8)):
            group = list(all_invertible(field, n))
            xs = group if draws is None else rng.sample(group, draws)
            for x in xs:
                m = element_order(x, bound=len(group)).value
                powers = {k: x ** k for k in range(1, m) if gcd(k, m) == 1}
                for h in group:
                    conj = h * x * h.inverse()
                    if conj == x.inverse():
                        yield x, h, Inverse()
                    for k, power in powers.items():
                        if conj == power:
                            yield x, h, Power(k)
        return
    for n in (2, 3):
        for _ in range(12):
            signs = [[rng.choice([1, -1]) for _ in range(n)] for _ in range(2)]
            a, b = (p * mat([[s[i] if i == j else 0 for j in range(n)] for i in range(n)])
                    * p.inverse() for p, s in zip((rnd_invertible(rng, n),
                                                    rnd_invertible(rng, n)), signs))
            x = a * b
            yield x, a, Inverse()
            order = element_order(x, bound=50)
            if order.is_finite and order.value > 1:
                yield x, a, Power(order.value - 1)
            yield x, x ** rng.randint(-2, 2), Power(1)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_one_level_witness_is_the_particular_solution(field):
    """On one level the solver is the witness equation: the translation is
    solve_linear(I - y, c - h b), free coordinates zero, and the solve
    fails, at level 0 and with ker(I - y), exactly when that system is
    inconsistent."""
    rng = random.Random(41)
    outcomes = collections.Counter()
    for x, h, relation in conjugating_triples(field, rng):
        n = x.rows
        ident = Matrix.identity_of(field, n)
        if field.characteristic:
            translations = [vec(list(v), field) for v in itertools.product((0, 1), repeat=n)]
        else:
            u = vec([rnd_fraction(rng) for _ in range(n)])
            translations = [u, (x - ident).apply(u)]
        for b in translations:
            target = relation.of(AffineElement(x, b))
            fixed = ident - target.linear
            expected = solve_linear(fixed, target.translation - h.apply(b))
            try:
                if relation == Inverse():
                    cert = make_real_witness(x, b, h)
                else:
                    cert = make_power_witness(x, b, h, relation.k)
            except FixedPointError as err:
                assert expected is None
                assert err.level == 0 and err.kernel == kernel_basis(fixed)
                outcomes["failed"] += 1
                continue
            assert cert.verified and cert.witness == AffineElement(h, expected)
            outcomes["fixed" if has_fixed_point(target.linear) else "free"] += 1
    assert outcomes["free"] and outcomes["fixed"] and outcomes["failed"]


def test_semidirect_group_laws():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        pres = vector_presentation(field, 2, lambda h: h)
        G = SemidirectProduct(pres, Matrix.identity_of(field, 2))

        def rnd_elem():
            h = rnd_invertible(rng, 2, field)
            if field is QQ:
                n = vec([rnd_fraction(rng) for _ in range(2)])
            else:
                n = vec([rng.randrange(5) for _ in range(2)], field)
            return G.element(h, n)

        for _ in range(15):
            a, b, c = rnd_elem(), rnd_elem(), rnd_elem()
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == G.identity()
            assert a.inverse() * a == G.identity()


def test_semidirect_consistent_with_affine_via_convention_map():
    rng = random.Random(4)
    pres = vector_presentation(QQ, 2, lambda h: h)
    G = SemidirectProduct(pres, Matrix.identity_of(QQ, 2))
    for _ in range(20):
        h1, h2 = rnd_invertible(rng, 2), rnd_invertible(rng, 2)
        v1 = vec([rnd_fraction(rng) for _ in range(2)])
        v2 = vec([rnd_fraction(rng) for _ in range(2)])
        # the pair h.v is the affine element with translation b = h.v
        a1, a2 = AffineElement(h1, h1.apply(v1)), AffineElement(h2, h2.apply(v2))
        prod = G.element(h1, v1) * G.element(h2, v2)
        assert AffineElement(prod.h, prod.h.apply(prod.n)) == a1 * a2
        back_h, back_v = a1.linear, a1.linear.inverse().apply(a1.translation)
        assert (back_h, back_v) == (h1, v1)


def test_lift_one_level_reduces_to_translation_solve():
    # left coordinates: (h, w) conjugates (x, b) to (y, c) iff (I - y) w = c - h b
    pres = vector_presentation(QQ, 2, lambda h: h)
    x, h = mat([[2, 0], [0, "1/2"]]), mat([[0, 1], [1, 0]])
    b = vec([1, 1])
    target = AffineElement(x, b).inverse()
    fixed = Matrix.identity_of(QQ, 2) - target.linear
    w = lift_central_series(h, b, target.linear, target.translation, pres, Inverse(),
                            (RowReduction.of(fixed),))
    assert w == solve_linear(fixed, target.translation - h.apply(b))
    assert AffineElement(h, w) * AffineElement(x, b) * AffineElement(h, w).inverse() == target


def test_lift_identity_input():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x, h = mat([[2, 0], [0, "1/2"]]), mat([[0, 1], [1, 0]])
    zero = vec([0, 0])
    factors = (RowReduction.of(Matrix.identity_of(QQ, 2) - x.inverse()),)
    assert lift_central_series(h, zero, x.inverse(), zero, pres, Inverse(), factors) == zero


def pairs(pres, x):
    """H x| N for the N of ``pres`` and the H of x."""
    return SemidirectProduct(pres, x.identity())


def lift(pres, x, n, h, relation):
    """lift_central_series on the pair (x, n) of H x| N, in the left
    coordinates (x, act(x, n)) and with the presentation's level
    factorisations, as ``_witness_via_lift`` hands them to it."""
    target = relation.of(pairs(pres, x).element(x, n))
    _, factors = pres.check_witness(x, h, relation)
    return lift_central_series(h, pres.action(x, n), target.h,
                               pres.action(target.h, target.n), pres, relation, factors)


def assert_left_witness(pres, x, n, h, relation, w):
    """(h, w) in left coordinates, the pair (h, act(h^-1, w)), conjugates
    (x, n) to relation((x, n)) in H x| N."""
    G = pairs(pres, x)
    g = G.element(h, pres.action(h.inverse(), w))
    subject = G.element(x, n)
    assert g * subject * g.inverse() == relation.of(subject)


def block_swap():
    """Swaps the coordinates of both levels, so it conjugates diagonal x to x^-1."""
    return mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def two_level_abelian_presentation(field=QQ):
    """F^4 with the chain F^4 > 0+0+F^2 > 0; quotients are coordinate pairs."""

    def act_top(h):
        return mat([[h[0, 0], h[0, 1]], [h[1, 0], h[1, 1]]], field)

    def act_bottom(h):
        return mat([[h[2, 2], h[2, 3]], [h[3, 2], h[3, 3]]], field)

    levels = [
        CentralSeriesLevel(
            dim=2,
            project=lambda n: vec([n[0], n[1]], field),
            section=lambda v: vec([v[0], v[1], 0, 0], field),
            act=act_top,
        ),
        CentralSeriesLevel(
            dim=2,
            project=lambda n: vec([n[2], n[3]], field),
            section=lambda v: vec([0, 0, v[0], v[1]], field),
            act=act_bottom,
        ),
    ]
    return CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(field, 4),
        action=lambda h, n: h.apply(n),
        levels=levels,
    )


def test_two_level_lift_verifies():
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, Fraction(1, 3)],
    ])
    validate_presentation(pres, h_samples=[x, x.inverse()])
    rng = random.Random(5)
    for _ in range(10):
        n = vec([rnd_fraction(rng) for _ in range(4)])
        w = lift(pres, x, n, block_swap(), Inverse())
        assert_left_witness(pres, x, n, block_swap(), Inverse(), w)


def fixed_bottom_x():
    """diag(2, 1/2) on the top quotient and the identity on the bottom one,
    so x^-1 fixes the whole level-1 quotient."""
    return mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


def test_lift_fixed_point_reports_level():
    # with h the top swap and y = x^-1 = I on the bottom, level 1 reads
    # 0 z = project_1(residual) = -2 (n_2, n_3): inconsistent unless n_2 = n_3 = 0
    pres = two_level_abelian_presentation()
    x = fixed_bottom_x()
    h = mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(FixedPointError) as err:
        lift(pres, x, vec([1, 1, 1, 1]), h, Inverse())
    assert err.value.level == 1
    assert "level 1" in str(err.value) and "inverse relation" in str(err.value)
    n = vec([1, 1, 0, 0])
    assert_left_witness(pres, x, n, h, Inverse(), lift(pres, x, n, h, Inverse()))


def count_level_factors(monkeypatch):
    """Count the factorisations of I - Y_j that the solver makes, one per
    level for each (x, h, relation) whose presentation entry it fills."""
    calls = []
    of = RowReduction.of

    class Counted:
        @staticmethod
        def of(matrix):
            calls.append(matrix)
            return of(matrix)

    monkeypatch.setattr(semidirect, "RowReduction", Counted)
    return calls


def test_level_factors_are_built_once_per_x_h_and_relation(monkeypatch):
    calls = count_level_factors(monkeypatch)
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, Fraction(1, 3)],
    ])
    rng = random.Random(11)
    for _ in range(50):
        n = vec([rnd_fraction(rng) for _ in range(4)])
        assert real_witness_via_lift(x, n, pairs(pres, x), block_swap()).verified
    ident = Matrix.identity_of(QQ, 2)
    inverse_factors = [ident - mat([["1/2", 0], [0, 2]]), ident - mat([["1/3", 0], [0, 3]])]
    assert calls == inverse_factors
    # an equal x and an equal h share the entry; another relation of x
    # solves against y = x, another h for the same relation fills its own
    # entry, and so does a new presentation
    equal = mat([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                 [0, 0, 3, 0], [0, 0, 0, Fraction(1, 3)]])
    assert real_witness_via_lift(equal, n, pairs(pres, x), block_swap()).verified
    assert len(calls) == 2
    assert semidirect._witness_via_lift(x, n, pairs(pres, x), x, Power(1)).verified
    assert calls[2:] == [ident - mat([[2, 0], [0, "1/2"]]), ident - mat([[3, 0], [0, "1/3"]])]
    assert real_witness_via_lift(x, n, pairs(pres, x), block_swap().scale(2)).verified
    assert calls[4:] == inverse_factors
    other = two_level_abelian_presentation()
    assert real_witness_via_lift(x, n, pairs(other, x), block_swap()).verified
    assert len(calls) == 8


def test_lift_verify_heisenberg_build_factors_each_level_once(monkeypatch):
    """The seed-1 lift_verify heisenberg scenario lifts every element
    through one x, one h and the inverse relation: two levels, two
    factorisations for the whole report."""
    calls = count_level_factors(monkeypatch)
    scenario = bench_module("workloads").lift_verify(1)[0][0]
    assert scenario["kind"] == "heisenberg"
    assert len(build_report(scenario, 1, DEFAULT_BOUND)["results"]) > 1
    assert len(calls) == 2


def test_make_real_witness_hashes_no_matrix(monkeypatch):
    """The one-level solve factors I - y on the spot; a 25x25 y is never
    hashed, where a per-y cache hashed it twice."""
    X, Y = rho(SL2Element.diagonal(2), 24), rho(antidiagonal_witness(1), 24)
    v = vec([0 if i == 12 else Fraction(i + 1, 3) for i in range(25)])  # solvable middle row
    hashes = []
    matrix_hash = Matrix.__hash__

    def counted(self):
        hashes.append(self)
        return matrix_hash(self)

    monkeypatch.setattr(Matrix, "__hash__", counted)
    assert make_real_witness(X, v, Y).verified
    assert hashes == []


def test_lift_fixed_point_is_reported_on_every_call(monkeypatch):
    calls = count_level_factors(monkeypatch)
    pres = two_level_abelian_presentation()
    x = fixed_bottom_x()
    h = mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert h * x * h.inverse() == x.inverse()
    for attempt in range(3):
        with pytest.raises(FixedPointError) as err:
            lift(pres, x, vec([1, 1, 1, 1]), h, Inverse())
        assert err.value.level == 1
        assert err.value.kernel == [vec([1, 0]), vec([0, 1])]  # in level 1 coordinates
        with pytest.raises(FixedPointError) as err:
            real_witness_via_lift(x, vec([1, 1, 1, 1]), pairs(pres, x), h)
        assert err.value.level == 1
        # a consistent level-1 equation is solved through the same fixed point
        assert real_witness_via_lift(x, vec([1, 1, 0, 0]), pairs(pres, x), h).verified
    # the two factorisations for y = x^-1 are kept; only the solve fails
    assert len(calls) == 2


def test_wrong_h_fails_on_every_call():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    wrong, right = Matrix.identity_of(QQ, 2), mat([[0, 1], [1, 0]])
    for _ in range(3):
        with pytest.raises(UsageError):
            real_witness_via_lift(x, vec([1, 1]), pairs(pres, x), wrong)
    for _ in range(3):
        assert real_witness_via_lift(x, vec([1, 2]), pairs(pres, x), right).verified
        with pytest.raises(UsageError):
            real_witness_via_lift(x, vec([1, 1]), pairs(pres, x), wrong)
        # a check that passed for one relation does not cover another
        with pytest.raises(UsageError):
            semidirect._witness_via_lift(x, vec([1, 1]), pairs(pres, x), right, Power(1))


def test_witnesses_via_lift():
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 2, 0],
        [0, 0, 0, Fraction(1, 2)],
    ])
    swap = mat([[0, 1], [-1, 0]])
    h = mat([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    assert h * x * h.inverse() == x.inverse()
    rng = random.Random(6)
    for _ in range(5):
        n = vec([rnd_fraction(rng) for _ in range(4)])
        cert = real_witness_via_lift(x, n, pairs(pres, x), h)
        assert cert.verified and isinstance(cert.relation, Inverse)
    # trivial n gives the plain embedded witness
    cert = real_witness_via_lift(x, Vector.zero(QQ, 4), pairs(pres, x), h)
    assert cert.witness.h == h and cert.witness.n == Vector.zero(QQ, 4)
    assert swap * mat([[2, 0], [0, "1/2"]]) * swap.inverse() == mat([["1/2", 0], [0, 2]])


def test_rational_witness_via_lift_f2():
    f2 = GF(2)
    pres = vector_presentation(f2, 2, lambda h: h)
    x = mat([[1, 1], [1, 0]], f2)
    h = mat([[0, 1], [1, 0]], f2)
    for v in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        cert = semidirect._witness_via_lift(x, vec(list(v), f2), pairs(pres, x), h, Power(2))
        assert cert.verified and cert.relation == Power(2)


def test_lift_rejects_wrong_witness():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    with pytest.raises(UsageError):
        real_witness_via_lift(x, vec([1, 1]), pairs(pres, x), Matrix.identity_of(QQ, 2))


def test_any_set_theoretic_section_is_accepted():
    # sections only need project(section(v)) = v; junk in lower levels is
    # mopped up by the later solves and the final verification
    field = QQ
    levels = [
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[0]]),
            section=lambda v: vec([v[0], 1]),
            act=lambda h: mat([[h[0, 0]]]),
        ),
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[1]]),
            section=lambda v: vec([0, v[0]]),
            act=lambda h: mat([[h[1, 1]]]),
        ),
    ]
    pres = CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(field, 2),
        action=lambda h, n: h.apply(n),
        levels=levels,
    )
    x = mat([[2, 0], [0, 3]])
    # h = x commutes with x, so it witnesses x ~ x^1
    w = lift(pres, x, vec([1, 1]), x, Power(1))
    assert_left_witness(pres, x, vec([1, 1]), x, Power(1), w)


def test_presentation_descent_check_detects_inconsistent_action():
    # a quotient action that does not match the carrier action leaves a
    # residual that fails to descend
    field = QQ
    bad_levels = [
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[0]]),
            section=lambda v: vec([v[0], 0]),
            act=lambda h: mat([[h[1, 1]]]),  # wrong block
        ),
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[1]]),
            section=lambda v: vec([0, v[0]]),
            act=lambda h: mat([[h[1, 1]]]),
        ),
    ]
    pres = CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(field, 2),
        action=lambda h, n: h.apply(n),
        levels=bad_levels,
    )
    x = mat([[2, 0], [0, 3]])
    with pytest.raises(PresentationError, match="fails to descend past level 0"):
        lift(pres, x, vec([1, 1]), x, Power(1))


def test_inconsistent_last_section_fails_the_final_comparison():
    # project_1(section_1(v)) = v, but section_1 also writes into the level-0
    # coordinate, which no later level can see: every descent check passes
    # and only the exact comparison of w . act(h, a) with c . act(y, w) is
    # left to fail
    field = QQ
    levels = [
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[0]]),
            section=lambda v: vec([v[0], 0]),
            act=lambda h: mat([[h[0, 0]]]),
        ),
        CentralSeriesLevel(
            dim=1,
            project=lambda n: vec([n[1]]),
            section=lambda v: vec([1, v[0]]),
            act=lambda h: mat([[h[1, 1]]]),
        ),
    ]
    pres = CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(field, 2),
        action=lambda h, n: h.apply(n),
        levels=levels,
    )
    x = mat([[2, 0], [0, 3]])
    with pytest.raises(PresentationError, match="failed exact verification"):
        lift(pres, x, vec([1, 1]), x, Power(1))


# -- the lift in N against products in the full group -----------------------------

def assert_lift_matches_full_group(pres, x, n, h, relation) -> bool:
    """Solve (x, n) for h and redo the conjugation with products in
    H x| N.  A solve may fail only with ``FixedPointError``, at a level
    where y = relation(x) fixes a nonzero vector, since only a singular
    I - Y_j makes a level's system inconsistent.  With no such level the
    witness is the one the reference (e, u) lift composes,
    (e,u) (h,e) (e,u)^-1.  Returns "failed", "fixed" (solved through a
    fixed point of y) or "free"."""
    y = relation.of(x)
    fixed = [j for j, lvl in enumerate(pres.levels) if has_fixed_point(lvl.act(y))]
    try:
        w = lift(pres, x, n, h, relation)
    except FixedPointError as err:
        assert err.level in fixed
        return "failed"
    assert_left_witness(pres, x, n, h, relation, w)
    cert = semidirect._witness_via_lift(x, n, pairs(pres, x), h, relation)
    assert cert.verified
    if not fixed:
        G = pairs(pres, x)
        u_el = G.element(G.h_identity, reference_lift(x, n, pres))
        assert cert.witness == u_el * G.element(h, pres.identity) * u_el.inverse()
    return "fixed" if fixed else "free"


def rnd_scalar(rng, field):
    return rnd_fraction(rng) if field is QQ else rng.randrange(field.p)


def rnd_matrix(rng, n, field):
    """An invertible n x n matrix; over QQ one in three is unipotent upper
    triangular, so that fixed points occur there too."""
    if field is QQ and rng.randrange(3) == 0:
        return mat([[1 if i == j else (rnd_fraction(rng) if j > i else 0)
                     for j in range(n)] for i in range(n)])
    return rnd_invertible(rng, n, field)


def rnd_two_level(rng, field):
    """[[A, 0], [C, B]]: preserves 0+0+F^2 and acts by A and B on the quotients."""
    a, b = rnd_matrix(rng, 2, field), rnd_matrix(rng, 2, field)
    c = [[rnd_scalar(rng, field) for _ in range(2)] for _ in range(2)]
    return mat([list(a.row(0)) + [0, 0], list(a.row(1)) + [0, 0],
                c[0] + list(b.row(0)), c[1] + list(b.row(1))], field)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("shape", ["vector", "two_level"])
def test_lift_agrees_with_the_full_group(shape, field):
    rng = random.Random(23)
    if shape == "vector":
        pres, dim = vector_presentation(field, 3, lambda h: h), 3
    else:
        pres, dim = two_level_abelian_presentation(field), 4
    outcomes = collections.Counter()
    for _ in range(40):
        x = rnd_matrix(rng, 3, field) if shape == "vector" else rnd_two_level(rng, field)
        n = vec([rnd_scalar(rng, field) for _ in range(dim)], field)
        # any power of x commutes with x, so it witnesses x ~ x^1
        h = x ** rng.randint(-2, 2)
        outcomes[assert_lift_matches_full_group(pres, x, n, h, Power(1))] += 1
    assert outcomes["free"] and outcomes["fixed"]
    # one level reads (I - x) w = (I - x^j) b, and I - x^j = (I - x) p(x) for
    # a polynomial p, so that system is consistent through every fixed point;
    # two levels take the free coordinates of level 0 at zero, and the
    # level-1 system that this leaves can be inconsistent
    assert bool(outcomes["failed"]) == (shape == "two_level")


def rnd_gsp_word(rng, letters, length):
    word = letters[0].identity()
    for _ in range(length):
        letter = rng.choice(letters)
        word = word * (letter if rng.randrange(2) else letter.inverse())
    return word


def gsp_letters(rng):
    """x and y of the standard example, a similitude with mu = 2 and the
    symplectic shears [[I, S], [0, I]] and [[I, 0], [S, I]], S symmetric."""
    x, y = standard_gsp_example()
    scale = GSpElement.of(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]))
    letters = [x, y, scale]
    for _ in range(2):
        p, q, r = (rng.randint(-2, 2) for _ in range(3))
        letters.append(GSpElement.of(mat([[1, 0, p, q], [0, 1, q, r],
                                          [0, 0, 1, 0], [0, 0, 0, 1]])))
        letters.append(GSpElement.of(mat([[1, 0, 0, 0], [0, 1, 0, 0],
                                          [p, q, 1, 0], [q, r, 0, 1]])))
    return x, y, letters


def rnd_h5(rng):
    return HeisenbergElement.of(QQ, [rnd_fraction(rng) for _ in range(4)], rnd_fraction(rng))


def test_heisenberg_lift_agrees_with_the_full_group():
    rng = random.Random(31)
    pres = heisenberg_presentation()
    x, y, letters = gsp_letters(rng)
    outcomes = collections.Counter()
    for _ in range(25):
        # a conjugate g x g^-1 is real through g y g^-1 ...
        g = rnd_gsp_word(rng, letters, rng.randint(1, 3))
        g_inv = g.inverse()
        assert assert_lift_matches_full_group(pres, g * x * g_inv, rnd_h5(rng),
                                              g * y * g_inv, Inverse()) == "free"
        # ... and a random word w is rational through its own powers
        w = rnd_gsp_word(rng, letters, rng.randint(1, 4))
        h = w * w if rng.randrange(2) else w.inverse()
        outcomes[assert_lift_matches_full_group(pres, w, rnd_h5(rng), h, Power(1))] += 1
    assert outcomes["free"] and outcomes["fixed"] and outcomes["failed"]


@pytest.mark.parametrize("shape", ["two_level-QQ", "two_level-GF2", "H5"])
def test_fixed_point_free_witness_matches_the_reference_lift(shape):
    """With no level action of y fixing a nonzero vector each level's
    system has exactly one solution, so the witness is the one composed
    from the reference (e, u) lift: (h, act(h^-1, u) . u^-1)."""
    rng = random.Random(43)
    if shape == "H5":
        pres = heisenberg_presentation()
        x, y, letters = gsp_letters(rng)
        cases = [(x, y, Inverse())]
        for _ in range(4):
            g = rnd_gsp_word(rng, letters, rng.randint(1, 3))
            g_inv = g.inverse()
            cases.append((g * x * g_inv, g * y * g_inv, Inverse()))
        draws = [(case, rnd_h5(rng)) for case in cases for _ in range(5)]
        draws.append((cases[0], pres.identity))
    else:
        field = QQ if shape == "two_level-QQ" else GF(2)
        pres = two_level_abelian_presentation(field)
        draws = []
        while len(draws) < 25:
            x = rnd_two_level(rng, field)
            if any(has_fixed_point(lvl.act(x)) for lvl in pres.levels):
                continue
            n = vec([rnd_scalar(rng, field) for _ in range(4)], field)
            draws.append(((x, x ** rng.randint(-2, 2), Power(1)), n))
        diagonal = mat([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                        [0, 0, 3, 0], [0, 0, 0, Fraction(1, 3)]])
        if field is QQ:
            draws.append(((diagonal, block_swap(), Inverse()), vec([1, -2, 3, 5])))
    for (x, h, relation), n in draws:
        cert = semidirect._witness_via_lift(x, n, pairs(pres, x), h, relation)
        u = reference_lift(x, n, pres)
        assert cert.verified and cert.witness.h == h
        assert cert.witness.n == pres.multiply(pres.action(h.inverse(), u), pres.inverse(u))


def test_heisenberg_lift_makes_only_the_certificate_products(monkeypatch):
    """A lifted certificate multiplies pairs only in Certificate.check:
    the lift, its witnessed (x, h, relation) entry and the composed witness
    work in H and N."""
    pres = heisenberg_presentation()
    x, y = standard_gsp_example()
    n = HeisenbergElement.of(QQ, [1, Fraction(-2, 3), 0, 5], Fraction(7, 2))
    calls = []
    multiply = SemidirectElement.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(SemidirectElement, "__mul__", counted)
    assert real_witness_via_lift(x, n, pairs(pres, x), y).verified
    assert len(calls) <= 2
