import random
from fractions import Fraction

import pytest

from conjcert.errors import FixedPointError, UsageError
from conjcert.fields import GaussianRational, QQ, QQI
from conjcert.groups import Certificate, Inverse
from conjcert.linalg import Matrix, Vector, has_fixed_point
from conjcert.heisenberg import (
    DEFAULT_LAMBDA_GRID,
    ComplexHeisenbergElement,
    GSpElement,
    HeisenbergElement,
    complex_heisenberg_group,
    complex_heisenberg_reality,
    gsp_act,
    heisenberg_presentation,
    standard_gsp_example,
    symplectic_form,
)
from conjcert.semidirect import SemidirectProduct, real_witness_via_lift, vector_presentation
from conformance_fixtures import (
    SolvableInstance,
    bench_module,
    check_center_rigidity,
    check_square_law,
    check_strong_reality,
    minus_identity_two_level_instance,
    rotation_instance,
    torus_on_heisenberg_instance,
    validate_presentation,
)
def rnd_heis(rng, base_dim=4):
    v = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(base_dim)]
    t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return HeisenbergElement.of(QQ, v, t)


def test_heisenberg_group_axioms():
    rng = random.Random(20)
    for _ in range(25):
        a, b, c = rnd_heis(rng), rnd_heis(rng), rnd_heis(rng)
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == a.identity()
        assert a.inverse().inverse() == a


def test_symplectic_form_layout():
    J = symplectic_form(QQ, 4)
    assert J == Matrix.from_rows(QQ, [
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def test_gsp_standard_example():
    x, y = standard_gsp_example()
    J = symplectic_form(QQ, 4)
    assert x.g.transpose() * J * x.g == J.scale(Fraction(-1))
    assert x.mu == -1 and y.mu == -1
    assert y.g * x.g * y.g.inverse() == x.g.inverse()
    assert (y * x * y.inverse()).g == x.inverse().g


def test_gsp_rejects_non_similitude():
    with pytest.raises(UsageError):
        GSpElement.of(Matrix.from_rows(QQ, [
            [1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]))


def test_gsp_act_is_automorphism():
    rng = random.Random(21)
    x, y = standard_gsp_example()
    for g in (x, y, x * y):
        for _ in range(10):
            h1, h2 = rnd_heis(rng), rnd_heis(rng)
            assert gsp_act(g, h1 * h2) == gsp_act(g, h1) * gsp_act(g, h2)
    for _ in range(5):
        h = rnd_heis(rng)
        assert gsp_act(x * y, h) == gsp_act(x, gsp_act(y, h))


def test_presentation_round_trips_and_actions():
    pres = heisenberg_presentation()
    x, y = standard_gsp_example()
    validate_presentation(pres, h_samples=[x, y, x * y])
    n = HeisenbergElement.of(QQ, [1, 2, 3, 4], 5)
    lvl0, lvl1 = pres.levels
    assert lvl0.project(lvl0.section(Vector.of(QQ, [1, 2, 3, 4]))) == Vector.of(QQ, [1, 2, 3, 4])
    assert lvl0.project(n) == Vector.of(QQ, [1, 2, 3, 4])
    assert lvl1.project(HeisenbergElement.of(QQ, [0, 0, 0, 0], 5)) == Vector.of(QQ, [5])
    assert not has_fixed_point(lvl0.act(x))
    assert lvl1.act(x) == Matrix.from_rows(QQ, [[-1]])
    assert not has_fixed_point(lvl1.act(x))


def test_demo_gsp_heisenberg_specific_and_random():
    """Reality certificates for (x, n) over named and sampled n in H_5, via
    the two-level lift with the block-swap witness."""
    x, y = standard_gsp_example()
    G = SemidirectProduct(heisenberg_presentation(), x.identity())
    named = [
        HeisenbergElement.of(QQ, [0, 0, 0, 0], 0),
        HeisenbergElement.of(QQ, [1, 0, 0, 0], 0),
        HeisenbergElement.of(QQ, [1, 2, 3, 4], 5),
    ]
    certs = [real_witness_via_lift(x, n, G, y) for n in named]
    assert all(c.verified for c in certs)
    assert certs[0].witness.h == y and certs[0].witness.n == named[0].identity()
    rng = random.Random(3)
    sampled = []
    for _ in range(20):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        sampled.append(HeisenbergElement.of(QQ, v, t))
    certs = [real_witness_via_lift(x, n, G, y) for n in sampled]
    assert len(certs) == 20 and all(c.verified for c in certs)


def test_square_law_rotation_instance():
    inst = rotation_instance()
    report = check_square_law(inst)
    assert report["witnessed"] > 0


def test_square_law_torus_instance():
    inst = torus_on_heisenberg_instance()
    report = check_square_law(inst)
    assert report["witnessed"] > 0


def test_rotation_halfturn_witness_matches_structure():
    inst = rotation_instance()
    G = inst.group
    half = inst.acting_sample[2]  # marker R(pi): acts trivially, order two
    assert half.plane_action == Matrix.identity_of(QQ, 2)
    assert half * half == half.identity()
    quarter = inst.acting_sample[1]
    for v in inst.n_sample:
        subject = G.element(half, v)
        witness = G.element(quarter, Vector.zero(QQ, 2))
        cert = Certificate.make(subject, witness, Inverse())
        assert cert.verified


def test_strong_reality_two_level_instance():
    inst = minus_identity_two_level_instance()
    minus = inst.acting_sample[1]
    cert = check_strong_reality(inst, minus, Vector.of(QQ, [3, -7, 2, 5]))
    assert cert.verified


def test_strong_reality_plane_flip():
    minus = -Matrix.identity_of(QQ, 2)
    group = SemidirectProduct(vector_presentation(QQ, 2, lambda h: h),
                              Matrix.identity_of(QQ, 2))
    inst = SolvableInstance("plane-flip", group, [minus], [Vector.of(QQ, [3, -7])], [])
    cert = check_strong_reality(inst, minus, Vector.of(QQ, [3, -7]))
    assert cert.verified


def test_strong_reality_rejects_fixed_point_action():
    inst = torus_on_heisenberg_instance()
    minus = GSpElement.of(-Matrix.identity_of(QQ, 2))
    # -I in Sp(2) has mu = 1: the center level has a fixed point
    with pytest.raises(UsageError):
        check_strong_reality(inst, minus, HeisenbergElement.of(QQ, [1, 2], 3))


def test_no_gsp4_involution_is_fixed_point_free_on_both_levels():
    # x^2 = I and no fixed point on Q^4 forces x = -I, whose similitude
    # factor is +1; so the center level always has a fixed point
    samples = [
        standard_gsp_example()[1],  # block swap, order 2
        GSpElement.of(-Matrix.identity_of(QQ, 4)),
        GSpElement.of(Matrix.from_rows(QQ, [
            [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
    ]
    for g in samples:
        assert g * g == g.identity()
        base_fpf = not has_fixed_point(g.g)
        center_fpf = g.mu != 1
        assert not (base_fpf and center_fpf)


def test_heisenberg_needs_odd_or_zero_characteristic():
    # H_5 is built over Q only; the F_2 analog in particular has no 1/2, and
    # the 2t = 0 rigidity argument would fail anyway because of torsion
    from conjcert.fields import GF

    with pytest.raises(UsageError):
        HeisenbergElement.of(GF(2), [0, 0], 1)


def test_center_rigidity_torus_instance():
    inst = torus_on_heisenberg_instance()
    central = [HeisenbergElement.of(QQ, [0, 0], t) for t in (1, -2, Fraction(1, 2))]
    report = check_center_rigidity(inst, central, lambda n: n.v.is_zero())
    assert report["refuted"] == len(central) * len(inst.acting_sample)


def test_complex_heisenberg_group_axioms():
    rng = random.Random(22)
    G = complex_heisenberg_group()

    def rnd():
        lam = QQI.zero()
        while not lam:
            lam = GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3))
        n = ComplexHeisenbergElement.of(
            GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)),
            GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)),
            GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)))
        return G.element(lam, n)

    for _ in range(20):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == G.identity()


def test_complex_heisenberg_real_when_ab_equals_2c():
    n = ComplexHeisenbergElement.of(2, 1, 1)  # a b = 2 c
    verdict = complex_heisenberg_reality(n, -1, complex_heisenberg_group())
    assert verdict.real and not verdict.reason
    assert all(c.verified for c in verdict.certificates)
    assert len(verdict.certificates) == 6  # every grid lambda verifies


def test_complex_heisenberg_not_real_when_ab_differs():
    n = ComplexHeisenbergElement.of(1, 1, 1)
    verdict = complex_heisenberg_reality(n, -1, complex_heisenberg_group())
    assert not verdict.real
    assert verdict.reason.endswith(f"a b - 2 c = {QQI.coerce(-1)}, which is nonzero")


def test_complex_heisenberg_case_x_plus_one():
    G = complex_heisenberg_group()
    # non-central: explicit single-entry witness
    for n in (ComplexHeisenbergElement.of(1, 1, 1),
              ComplexHeisenbergElement.of(0, 2, GaussianRational.of(1, 1)),
              ComplexHeisenbergElement.of(GaussianRational.of(0, 1), 0, 3)):
        verdict = complex_heisenberg_reality(n, 1, G)
        assert verdict.real and verdict.certificates[0].verified
    # central, nonzero: rigid
    central = ComplexHeisenbergElement.of(0, 0, 5)
    verdict = complex_heisenberg_reality(central, 1, G)
    assert not verdict.real
    # identity
    assert complex_heisenberg_reality(ComplexHeisenbergElement.of(0, 0, 0), 1, G).real


def test_complex_heisenberg_verdict_matches_predicate_random():
    rng = random.Random(23)
    G = complex_heisenberg_group()
    for _ in range(60):
        a = GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
        b = GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
        if rng.random() < 0.5:
            c = a * b / QQI.coerce(2)
        else:
            c = GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
        n = ComplexHeisenbergElement(a, b, c)
        verdict = complex_heisenberg_reality(n, -1, G)
        assert verdict.real == (a * b == QQI.coerce(2) * c)


def test_complex_heisenberg_witness_ignores_center_entry():
    # the central coordinate of the conjugator never shows up
    G = complex_heisenberg_group()
    n = ComplexHeisenbergElement.of(2, 1, 1)
    subject = G.element(QQI.coerce(-1), n)
    verdict = complex_heisenberg_reality(n, -1, G)
    base = verdict.certificates[2]  # lambda = i
    k = base.witness.n
    for z in (QQI.coerce(7), GaussianRational.of(1, -2)):
        shifted = G.element(base.witness.h, ComplexHeisenbergElement(k.a, k.b, z))
        assert Certificate.make(subject, shifted, Inverse()).verified


# -- the complex Heisenberg presentation: an oracle for the lift ----------------

def test_complex_heisenberg_presentation_is_valid():
    """N > Z(N) > {e}: the (a, b) plane under diag(lambda, 1/lambda) and the
    center line under the identity, and the level actions agree with
    ``scaled_by`` on N."""
    pres = complex_heisenberg_group().presentation
    validate_presentation(pres, h_samples=DEFAULT_LAMBDA_GRID)
    n = ComplexHeisenbergElement.of(GaussianRational.of(1, -2), 3, GaussianRational.of(0, 5))
    for lam in DEFAULT_LAMBDA_GRID:
        moved = pres.action(lam, n)
        for lvl in pres.levels:
            assert lvl.project(moved) == lvl.act(lam).apply(lvl.project(n))
    assert pres.levels[1].act(GaussianRational.of(1, 1)) == Matrix.identity_of(QQI, 1)


def test_lift_agrees_with_the_case_analysis_on_the_lift_verify_scenario():
    """For every x = -1 element of the seed-1 lift_verify solvable scenario
    and every lambda of DEFAULT_LAMBDA_GRID, the lift on the complex
    Heisenberg presentation returns a verified certificate with the case
    analysis's witness exactly where the case analysis says real, and
    fails at level 1 exactly where it says not_real."""
    scenario = next(s for s in bench_module("workloads").lift_verify(1)[0]
                    if s["kind"] == "solvable")
    G = complex_heisenberg_group()
    minus = QQI.coerce(-1)
    verdicts = []
    for payload in scenario["elements"]:
        if payload.get("x", -1) != -1:
            continue
        n = ComplexHeisenbergElement.of(*(QQI.parse(payload[key]) for key in "abc"))
        verdict = complex_heisenberg_reality(n, -1, G)
        verdicts.append(verdict.real)
        certificates = iter(verdict.certificates)
        for lam in DEFAULT_LAMBDA_GRID:
            if verdict.real:
                cert = real_witness_via_lift(minus, n, G, lam)
                assert cert.verified and cert.witness == next(certificates).witness
            else:
                with pytest.raises(FixedPointError) as err:
                    real_witness_via_lift(minus, n, G, lam)
                assert err.value.level == 1
        assert next(certificates, None) is None
    assert True in verdicts and False in verdicts
