import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from conjcert.linalg import Matrix, Vector, has_fixed_point, solve_linear
from conjcert.semidirect import (
    AffineElement,
    CentralSeriesLevel,
    CentralSeriesPresentation,
    SemidirectElement,
    lift_central_series,
    make_power_witness,
    make_real_witness,
    real_witness_via_lift,
    reduce_translation,
    vector_presentation,
)
from conformance_fixtures import validate_presentation


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


def test_semidirect_group_laws():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        pres = vector_presentation(field, 2, lambda h: h)
        G = pres.semidirect(Matrix.identity_of(field, 2))

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
    G = pres.semidirect(Matrix.identity_of(QQ, 2))
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
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    v = vec([1, 1])
    u = lift_central_series(x, v, pres)
    # pair convention: (e,u)(x,e)(e,u)^-1 = (x,v) iff (x - I) u = -x v
    assert u == reduce_translation(x, -(x.apply(v)))


def test_lift_identity_input():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    assert lift_central_series(x, vec([0, 0]), pres) == vec([0, 0])


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
        u = lift_central_series(x, n, pres)
        G = pres.semidirect(x.identity())
        u_el, x_el = G.element(G.h_identity, u), G.element(x, pres.identity)
        assert u_el * x_el * u_el.inverse() == G.element(x, n)


def test_lift_fixed_point_reports_level():
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])
    with pytest.raises(FixedPointError) as err:
        lift_central_series(x, vec([1, 1, 1, 1]), pres)
    assert err.value.level == 1


def count_level_solvers(monkeypatch):
    """Count the fixed-point checks, one per lift plan built."""
    calls = []
    build = semidirect._level_solvers

    def counted(x, pres):
        calls.append(pres)
        return build(x, pres)

    monkeypatch.setattr(semidirect, "_level_solvers", counted)
    return calls


def test_lift_plan_is_built_once_per_x_and_presentation(monkeypatch):
    calls = count_level_solvers(monkeypatch)
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, Fraction(1, 3)],
    ])
    G = pres.semidirect(x.identity())
    rng = random.Random(11)
    for _ in range(50):
        n = vec([rnd_fraction(rng) for _ in range(4)])
        u_el = G.element(G.h_identity, lift_central_series(x, n, pres))
        assert u_el * G.element(x, pres.identity) * u_el.inverse() == G.element(x, n)
    assert calls == [pres]
    # an equal x is the same plan; a new presentation builds its own
    lift_central_series(mat([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                             [0, 0, 3, 0], [0, 0, 0, Fraction(1, 3)]]), n, pres)
    other = two_level_abelian_presentation()
    lift_central_series(x, n, other)
    assert calls == [pres, other]


def test_lift_fixed_point_is_reported_on_every_call(monkeypatch):
    calls = count_level_solvers(monkeypatch)
    pres = two_level_abelian_presentation()
    x = mat([
        [2, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])
    h = mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert h * x * h.inverse() == x.inverse()
    for attempt in range(3):
        with pytest.raises(FixedPointError) as err:
            lift_central_series(x, vec([1, 1, 1, 1]), pres)
        assert err.value.level == 1
        assert err.value.kernel == [vec([1, 0]), vec([0, 1])]  # in level 1 coordinates
        with pytest.raises(FixedPointError) as err:
            real_witness_via_lift(x, vec([1, 1, 1, 1]), pres, h)
        assert err.value.level == 1
    assert len(calls) == 6


def test_wrong_h_fails_on_every_call():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    wrong, right = Matrix.identity_of(QQ, 2), mat([[0, 1], [1, 0]])
    for _ in range(3):
        with pytest.raises(UsageError):
            real_witness_via_lift(x, vec([1, 1]), pres, wrong)
    for _ in range(3):
        assert real_witness_via_lift(x, vec([1, 2]), pres, right).verified
        with pytest.raises(UsageError):
            real_witness_via_lift(x, vec([1, 1]), pres, wrong)
        # a check that passed for one relation does not cover another
        with pytest.raises(UsageError):
            semidirect._witness_via_lift(x, vec([1, 1]), pres, right, Power(1))


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
        cert = real_witness_via_lift(x, n, pres, h)
        assert cert.verified and isinstance(cert.relation, Inverse)
    # trivial n gives the plain embedded witness
    cert = real_witness_via_lift(x, Vector.zero(QQ, 4), pres, h)
    assert cert.witness.h == h and cert.witness.n == Vector.zero(QQ, 4)
    assert swap * mat([[2, 0], [0, "1/2"]]) * swap.inverse() == mat([["1/2", 0], [0, 2]])


def test_rational_witness_via_lift_f2():
    f2 = GF(2)
    pres = vector_presentation(f2, 2, lambda h: h)
    x = mat([[1, 1], [1, 0]], f2)
    h = mat([[0, 1], [1, 0]], f2)
    for v in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        cert = semidirect._witness_via_lift(x, vec(list(v), f2), pres, h, Power(2))
        assert cert.verified and cert.relation == Power(2)


def test_lift_rejects_wrong_witness():
    pres = vector_presentation(QQ, 2, lambda h: h)
    x = mat([[2, 0], [0, "1/2"]])
    with pytest.raises(UsageError):
        real_witness_via_lift(x, vec([1, 1]), pres, Matrix.identity_of(QQ, 2))


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
    u = lift_central_series(x, vec([1, 1]), pres)
    G = pres.semidirect(x.identity())
    u_el = G.element(G.h_identity, u)
    assert u_el * G.element(x, pres.identity) * u_el.inverse() == G.element(x, vec([1, 1]))


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
    with pytest.raises(PresentationError):
        lift_central_series(x, vec([1, 1]), pres)


def test_inconsistent_last_section_fails_the_final_comparison():
    # project_1(section_1(v)) = v, but section_1 also writes into the level-0
    # coordinate, which no later level can see: every descent check passes
    # and only the exact comparison of the conjugate with n is left to fail
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
        lift_central_series(x, vec([1, 1]), pres)


# -- the lift in N against products in the full group -----------------------------

def assert_lift_matches_full_group(pres, x, n, h, relation) -> bool:
    """Lift (x, n) and compose the witness for h, then redo both with
    products in H x| N.  A lift may fail only with ``FixedPointError`` and
    only when some level action of x fixes a nonzero vector.  Returns
    whether the lift succeeded."""
    fixed = any(has_fixed_point(lvl.act(x)) for lvl in pres.levels)
    try:
        u = lift_central_series(x, n, pres)
    except FixedPointError:
        assert fixed
        return False
    assert not fixed
    G = pres.semidirect(x.identity())
    u_el = G.element(G.h_identity, u)
    assert u_el * G.element(x, pres.identity) * u_el.inverse() == G.element(x, n)
    cert = semidirect._witness_via_lift(x, n, pres, h, relation)
    assert cert.verified
    assert cert.witness == u_el * G.element(h, pres.identity) * u_el.inverse()
    return True


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
    lifted = failed = 0
    for _ in range(40):
        x = rnd_matrix(rng, 3, field) if shape == "vector" else rnd_two_level(rng, field)
        n = vec([rnd_scalar(rng, field) for _ in range(dim)], field)
        # any power of x commutes with x, so it witnesses x ~ x^1
        h = x ** rng.randint(-2, 2)
        if assert_lift_matches_full_group(pres, x, n, h, Power(1)):
            lifted += 1
        else:
            failed += 1
    assert lifted and failed


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
    lifted = failed = 0
    for _ in range(25):
        # a conjugate g x g^-1 is real through g y g^-1 ...
        g = rnd_gsp_word(rng, letters, rng.randint(1, 3))
        g_inv = g.inverse()
        assert assert_lift_matches_full_group(pres, g * x * g_inv, rnd_h5(rng),
                                              g * y * g_inv, Inverse())
        # ... and a random word w is rational through its own powers
        w = rnd_gsp_word(rng, letters, rng.randint(1, 4))
        h = w * w if rng.randrange(2) else w.inverse()
        if assert_lift_matches_full_group(pres, w, rnd_h5(rng), h, Power(1)):
            lifted += 1
        else:
            failed += 1
    assert lifted and failed


def test_heisenberg_lift_makes_only_the_certificate_products(monkeypatch):
    """With its plan built, a lifted certificate multiplies pairs only in
    Certificate.check: the lift and the composed witness work in N."""
    pres = heisenberg_presentation()
    x, y = standard_gsp_example()
    n = HeisenbergElement.of(QQ, [1, Fraction(-2, 3), 0, 5], Fraction(7, 2))
    pres.lift_plan(x)
    calls = []
    multiply = SemidirectElement.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(SemidirectElement, "__mul__", counted)
    assert real_witness_via_lift(x, n, pres, y).verified
    assert len(calls) <= 2
