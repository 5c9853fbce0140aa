"""Concrete fixtures: GSp(4) acting on the 5-dimensional Heisenberg group,
solvable-group conformance checks, and the complex Heisenberg family.

The Heisenberg group H_{2m+1} is carried as pairs (v, t) with
(v,t)(v',t') = (v+v', t+t'+ w(v,v')/2) for the standard symplectic form
w(v,v') = v^T J v'.  Similitudes act by (v,t) |-> (g v, mu(g) t).

The conformance checkers are contrapositive bug detectors: whenever a
reality witness is actually FOUND and verified, the structural consequence
(x^2 = e, squares of lifts, center rigidity) is asserted exactly.  They
never claim non-existence of witnesses over infinite groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .errors import TheoremViolation, UsageError
from .fields import GaussianRational, QQ, QQI
from .groups import Certificate, Inverse
from .linalg import Matrix, Vector, _from_ints, _scaled, has_fixed_point
from .semidirect import (
    CentralSeriesLevel,
    CentralSeriesPresentation,
    SemidirectProduct,
    real_witness_via_lift,
)

__all__ = [
    "symplectic_form",
    "HeisenbergElement",
    "GSpElement",
    "gsp_act",
    "heisenberg_presentation",
    "standard_gsp_example",
    "demo_gsp_heisenberg",
    "SolvableInstance",
    "rotation_instance",
    "torus_on_heisenberg_instance",
    "minus_identity_two_level_instance",
    "check_square_law",
    "check_strong_reality",
    "check_center_rigidity",
    "ComplexHeisenbergElement",
    "UnitScalar",
    "complex_heisenberg_group",
    "complex_heisenberg_reality",
    "DEFAULT_LAMBDA_GRID",
]


@lru_cache(maxsize=64)
def symplectic_form(field, base_dim: int) -> Matrix:
    """J = [[0, I], [-I, 0]] on F^base_dim (base_dim even); built once per
    (field, base_dim), since every ``GSpElement.of`` reads it."""
    if base_dim % 2:
        raise UsageError("symplectic form needs an even dimension")
    m = base_dim // 2
    z, o = field.zero(), field.one()
    entries = []
    for i in range(base_dim):
        for j in range(base_dim):
            if i < m and j == i + m:
                entries.append(o)
            elif i >= m and j == i - m:
                entries.append(-o)
            else:
                entries.append(z)
    return Matrix(field, base_dim, base_dim, tuple(entries))


@lru_cache(maxsize=64)
def _half(field):
    """1/2 in field and its integer view (D, [n]) from ``linalg._scaled``
    (None without an integer kernel), computed once per field."""
    one = field.one()
    half = one / (one + one)
    return half, _scaled(field, (half,))


@dataclass(frozen=True)
class HeisenbergElement:
    """(v, t) in H_{2m+1}; the center is {(0, t)}."""

    v: Vector
    t: object

    @staticmethod
    def of(field, v, t) -> "HeisenbergElement":
        if field.characteristic == 2:
            raise UsageError("Heisenberg multiplication needs 1/2")
        vector = v if isinstance(v, Vector) else Vector.of(field, v)
        return HeisenbergElement(vector, field.coerce(t))

    @property
    def field(self):
        return self.v.field

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """(v, t)(v', t') = (v + v', t + t' + omega/2), with omega = v^T J v'
        in its block form sum_{i<m} (v_i v'_{i+m} - v_{i+m} v'_i), so no J
        is applied.  Over Q and F_p with a residue table each operand's
        (v, t) is read as integers once (``linalg._scaled``) and each output
        entry normalised once; other fields, and operands over different
        fields, run the same formula on scalars."""
        field = self.v.field
        self.v._same_shape(other.v)
        m = self.v.dim // 2
        half, half_ints = _half(field)
        if half_ints is not None and other.v.field == field:
            dv, a = _scaled(field, self.v.entries + (self.t,))
            dw, b = _scaled(field, other.v.entries + (other.t,))
            hd, (hn,) = half_ints
            omega = sum([a[i] * b[i + m] - a[i + m] * b[i] for i in range(m)])
            sums = [x * dw + y * dv for x, y in zip(a, b)]
            t = _from_ints(field, hd * dv * dw, [sums.pop() * hd + hn * omega])[0]
            return HeisenbergElement(Vector(field, _from_ints(field, dv * dw, sums)), t)
        v = self.v + other.v
        vs, ws = self.v.entries, other.v.entries
        omega = field.zero()
        for i in range(m):
            j = i + m
            if vs[i] and ws[j]:
                omega = omega + vs[i] * ws[j]
            if vs[j] and ws[i]:
                omega = omega - vs[j] * ws[i]
        return HeisenbergElement(v, self.t + other.t + half * omega)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.v, -self.t)

    def identity(self) -> "HeisenbergElement":
        return HeisenbergElement(Vector.zero(self.field, self.v.dim), self.field.zero())

    def is_central(self) -> bool:
        return self.v.is_zero()

    def __repr__(self):
        return f"H({self.v!r}, {self.t})"


@dataclass(frozen=True)
class GSpElement:
    """g in GSp(2m) together with its similitude factor mu: g^T J g = mu J."""

    g: Matrix
    mu: object

    @staticmethod
    def of(g: Matrix) -> "GSpElement":
        J = symplectic_form(g.field, g.rows)
        m = g.rows // 2
        form = g.transpose() * J * g
        mu = form[0, m]
        if not mu or form != J.scale(mu):
            raise UsageError("matrix does not satisfy g^T J g = mu J")
        return GSpElement(g, mu)

    def __mul__(self, other: "GSpElement") -> "GSpElement":
        return GSpElement(self.g * other.g, self.mu * other.mu)

    def inverse(self) -> "GSpElement":
        return _gsp_inverse(self)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of (g, mu), computed once per instance, so the
        ``_gsp_inverse`` and lift-plan lookups of one element rehash no
        matrix.  Kept in the instance dict, which ``==`` and ``repr`` never
        read and ``__getstate__`` leaves out: the field's hash differs
        between processes, so a pickled hash would be wrong."""
        return hash((self.g, self.mu))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def identity(self) -> "GSpElement":
        field = self.g.field
        return GSpElement(Matrix.identity_of(field, self.g.rows), field.one())

    def __repr__(self):
        return f"GSp({self.g!r}, mu={self.mu})"


@lru_cache(maxsize=1024)
def _gsp_inverse(x: GSpElement) -> GSpElement:
    """Inverses memoised by value: every semidirect product inverts its
    right factor's GSp part, and a run re-inverts the same few elements,
    whose hashes are kept on the instance."""
    return GSpElement(x.g.inverse(), x.g.field.one() / x.mu)


def gsp_act(g: GSpElement, h: HeisenbergElement) -> HeisenbergElement:
    """The automorphism (v, t) |-> (g v, mu t)."""
    return HeisenbergElement(g.g.apply(h.v), g.mu * h.t)


def heisenberg_presentation(field=QQ, base_dim: int = 4) -> CentralSeriesPresentation:
    """Two-level central series: H > Z(H) > {e} with quotients F^base_dim
    and the center line."""
    zero = HeisenbergElement.of(field, [0] * base_dim, 0)
    levels = [
        CentralSeriesLevel(
            dim=base_dim,
            project=lambda n: n.v,
            section=lambda vec: HeisenbergElement(vec, field.zero()),
            act=lambda g: g.g,
        ),
        CentralSeriesLevel(
            dim=1,
            project=lambda n: Vector(field, (n.t,)),
            section=lambda vec: HeisenbergElement(Vector.zero(field, base_dim), vec[0]),
            act=lambda g: Matrix(field, 1, 1, (g.mu,)),
        ),
    ]
    return CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a * b,
        inverse=lambda a: a.inverse(),
        identity=zero,
        action=gsp_act,
        levels=levels,
        name=f"H{base_dim + 1}",
    )


def standard_gsp_example(field=QQ) -> tuple[GSpElement, GSpElement]:
    """x = diag(P, P^-1) with P the quarter rotation (mu = -1), and the
    block swap y = [[0, I], [I, 0]] conjugating x to its inverse."""
    x = GSpElement.of(Matrix.from_rows(field, [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]))
    y = GSpElement.of(Matrix.from_rows(field, [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]))
    return x, y


def demo_gsp_heisenberg(samples, seed: int = 0) -> list[Certificate]:
    """Reality certificates for (x, n) over sampled n in H_5, via the
    two-level lift with the block-swap witness."""
    pres = heisenberg_presentation()
    x, y = standard_gsp_example()
    if isinstance(samples, int):
        rng = random.Random(seed)
        pool = []
        for _ in range(samples):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            pool.append(HeisenbergElement.of(QQ, v, t))
    else:
        pool = list(samples)
    return [real_witness_via_lift(x, n, pres, y) for n in pool]


# ---------------------------------------------------------------------------
# Solvable-group conformance fixtures
# ---------------------------------------------------------------------------

@dataclass
class SolvableInstance:
    """An A |x N fixture with finite candidate pools for bounded searches."""

    name: str
    group: SemidirectProduct
    acting_sample: list          # sample of A
    n_sample: list               # sample of N
    candidates: list             # finite pool of candidate conjugators in G
    presentation: Optional[CentralSeriesPresentation] = None

    def element(self, a, n):
        return self.group.element(a, n)


@dataclass(frozen=True)
class RotationMarker:
    """S^1 sampled at quarter turns: the marker block R(t) determines the
    element; it acts on the plane through R(2t) = marker^2."""

    marker: Matrix

    def __mul__(self, other: "RotationMarker") -> "RotationMarker":
        return RotationMarker(self.marker * other.marker)

    def inverse(self) -> "RotationMarker":
        return RotationMarker(self.marker.inverse())

    def identity(self) -> "RotationMarker":
        return RotationMarker(self.marker.identity())

    @property
    def plane_action(self) -> Matrix:
        return self.marker * self.marker


def rotation_instance() -> SolvableInstance:
    """The double-speed rotation example: the quarter-turn marker group
    acting on Q^2 through the squared rotation, so the half-turn element
    has order two yet acts trivially."""
    quarter = RotationMarker(Matrix.from_rows(QQ, [[0, -1], [1, 0]]))
    markers = [quarter.identity(), quarter, quarter * quarter,
               quarter * quarter * quarter]
    group = SemidirectProduct(
        action=lambda a, v: a.plane_action.apply(v),
        n_multiply=lambda u, w: u + w,
        n_inverse=lambda u: -u,
        n_identity=Vector.zero(QQ, 2),
        h_identity=quarter.identity(),
        name="quarter-turns on Q^2",
    )
    grid = [Vector.of(QQ, [a, b])
            for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)]
    candidates = [group.element(m, v) for m in markers for v in grid]
    return SolvableInstance("rotation", group, markers,
                            [Vector.of(QQ, [3, -7]), Vector.of(QQ, [1, 0]),
                             Vector.zero(QQ, 2)],
                            candidates)


def torus_on_heisenberg_instance() -> SolvableInstance:
    """diag(s, 1/s) inside Sp(2) = SL(2) acting on the 3-dimensional
    Heisenberg group (the similitude factor is 1, so the center is fixed)."""
    def torus(s):
        return GSpElement.of(Matrix.from_rows(QQ, [[s, 0], [0, Fraction(1, 1) / Fraction(s)]]))

    acting = [torus(1), torus(-1), torus(2), torus(Fraction(1, 2)), torus(3)]
    pres = heisenberg_presentation(QQ, base_dim=2)
    group = pres.semidirect(acting[0].identity())
    n_sample = [
        HeisenbergElement.of(QQ, [1, 2], Fraction(1, 2)),
        HeisenbergElement.of(QQ, [0, 0], 1),
        HeisenbergElement.of(QQ, [-3, 5], 0),
    ]
    center_grid = [HeisenbergElement.of(QQ, [0, 0], t) for t in (-2, -1, 0, 1, 2)]
    base_grid = [HeisenbergElement.of(QQ, [a, b], 0)
                 for a in (-1, 0, 1) for b in (-1, 0, 1)]
    candidates = [group.element(a, z * w)
                  for a in acting for z in center_grid for w in base_grid]
    return SolvableInstance("torus-on-H3", group, acting, n_sample, candidates,
                            presentation=pres)


def minus_identity_two_level_instance() -> SolvableInstance:
    """-I on Q^4 presented with the two-level chain Q^4 > 0+Q^2 > 0; the
    action is fixed-point-free on both quotients and squares to e."""
    minus = -Matrix.identity_of(QQ, 4)
    ident = Matrix.identity_of(QQ, 4)
    levels = [
        CentralSeriesLevel(
            dim=2,
            project=lambda n: Vector(QQ, (n[0], n[1])),
            section=lambda v: Vector(QQ, (v[0], v[1], Fraction(0), Fraction(0))),
            act=lambda h: Matrix(QQ, 2, 2, (h[0, 0], h[0, 1], h[1, 0], h[1, 1])),
        ),
        CentralSeriesLevel(
            dim=2,
            project=lambda n: Vector(QQ, (n[2], n[3])),
            section=lambda v: Vector(QQ, (Fraction(0), Fraction(0), v[0], v[1])),
            act=lambda h: Matrix(QQ, 2, 2, (h[2, 2], h[2, 3], h[3, 2], h[3, 3])),
        ),
    ]
    pres = CentralSeriesPresentation(
        QQ,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(QQ, 4),
        action=lambda h, n: h.apply(n),
        levels=levels,
        name="Q4-sign-flip",
    )
    group = pres.semidirect(ident)
    grid = [Vector.of(QQ, [a, b, c, d])
            for a in (-1, 0, 1) for b in (-1, 0, 1)
            for c in (-1, 0, 1) for d in (-1, 0, 1)]
    candidates = [group.element(h, v) for h in (ident, minus) for v in grid[:20]]
    return SolvableInstance("sign-flip-Q4", group, [ident, minus],
                            [Vector.of(QQ, [3, -7, 2, 5]), Vector.zero(QQ, 4)],
                            candidates, presentation=pres)


def _bounded_witness(instance: SolvableInstance, subject) -> Optional[Certificate]:
    target = subject.inverse()
    for g in instance.candidates:
        if g * subject * g.inverse() == target:
            return Certificate.make(subject, g, Inverse())
    return None


def check_square_law(instance: SolvableInstance) -> dict:
    """Theorem conformance, contrapositively: every reality witness found
    for x (or x n) in the bounded pools implies x^2 = e exactly."""
    G = instance.group
    found = 0
    checked = 0
    for a in instance.acting_sample:
        for n in [G.n_identity] + list(instance.n_sample):
            subject = G.element(a, n)
            cert = _bounded_witness(instance, subject)
            checked += 1
            if cert is None:
                continue
            found += 1
            if a * a != a.identity():
                raise TheoremViolation(
                    f"{instance.name}: witness found for {subject!r} "
                    f"but the acting part does not square to e")
    return {"instance": instance.name, "subjects": checked, "witnessed": found}


def check_strong_reality(instance: SolvableInstance, x, n) -> Certificate:
    """Under x^2 = e and fixed-point-free quotient actions, the element
    (x, n) is its own inverse; asserted by exact multiplication."""
    if instance.presentation is None:
        raise UsageError("strong-reality check needs a central-series presentation")
    if x * x != x.identity():
        raise UsageError("x must be an involution")
    for j, lvl in enumerate(instance.presentation.levels):
        if has_fixed_point(lvl.act(x)):
            raise UsageError(f"action of x on level {j} has a fixed point")
    subject = instance.group.element(x, n)
    if subject * subject != instance.group.identity():
        raise TheoremViolation(
            f"{instance.name}: ({x!r}, {n!r}) fails to square to the identity")
    return Certificate.make(subject, subject, Inverse())


def check_center_rigidity(instance: SolvableInstance, central_sample: Sequence,
                          is_central: Callable) -> dict:
    """With A acting trivially on Z(N), no (x, n) with central n != e is
    real in A Z(N): the conjugacy class is a singleton and n = n^-1 forces
    2 t = 0, impossible in characteristic zero."""
    G = instance.group
    field = instance.presentation.field if instance.presentation else QQ
    if field.characteristic != 0:
        raise UsageError("center rigidity needs characteristic zero "
                         "(torsion breaks the 2t = 0 argument)")
    for a in instance.acting_sample:
        for z in central_sample:
            if G.action(a, z) != z:
                raise UsageError(f"action of {a!r} is not trivial on the center")
    az_candidates = [g for g in instance.candidates if is_central(g.n)]
    refuted = 0
    for a in instance.acting_sample:
        for n in central_sample:
            if n == G.n_identity:
                continue
            subject = G.element(a, n)
            # inside A Z(N) the conjugacy class of (a, n) is a singleton
            for g in az_candidates:
                if g * subject * g.inverse() != subject:
                    raise TheoremViolation(
                        f"{instance.name}: conjugation inside A Z(N) moved {subject!r}")
            # ... so reality would force n = n^-1, i.e. 2t = 0
            if subject == subject.inverse():
                raise TheoremViolation(
                    f"{instance.name}: nontrivial central element {n!r} is "
                    f"self-inverse over characteristic zero")
            refuted += 1
    return {"instance": instance.name, "refuted": refuted}


# ---------------------------------------------------------------------------
# The complex Heisenberg family (upper unitriangular over Q(i))
# ---------------------------------------------------------------------------

DEFAULT_LAMBDA_GRID = (
    GaussianRational.of(1, 0),
    GaussianRational.of(-1, 0),
    GaussianRational.of(0, 1),
    GaussianRational.of(2, 0),
    GaussianRational.of("1/2", 0),
    GaussianRational.of(1, 1),
)


@dataclass(frozen=True)
class ComplexHeisenbergElement:
    """Upper unitriangular [[1, a, c], [0, 1, b], [0, 0, 1]] over Q(i)."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational

    @staticmethod
    def of(a, b, c) -> "ComplexHeisenbergElement":
        return ComplexHeisenbergElement(QQI.coerce(a), QQI.coerce(b), QQI.coerce(c))

    def __mul__(self, other: "ComplexHeisenbergElement") -> "ComplexHeisenbergElement":
        return ComplexHeisenbergElement(
            self.a + other.a, self.b + other.b, self.c + other.c + self.a * other.b
        )

    def inverse(self) -> "ComplexHeisenbergElement":
        return ComplexHeisenbergElement(-self.a, -self.b, -self.c + self.a * self.b)

    def identity(self) -> "ComplexHeisenbergElement":
        zero = QQI.zero()
        return ComplexHeisenbergElement(zero, zero, zero)

    def scaled_by(self, lam: GaussianRational) -> "ComplexHeisenbergElement":
        return ComplexHeisenbergElement(lam * self.a, self.b / lam, self.c)

    def __repr__(self):
        return f"CH(a={self.a}, b={self.b}, c={self.c})"


@dataclass(frozen=True)
class UnitScalar:
    """Nonzero scalar of Q(i) as a multiplicative group element."""

    value: GaussianRational

    @staticmethod
    def of(value) -> "UnitScalar":
        v = QQI.coerce(value)
        if not v:
            raise UsageError("unit scalar must be nonzero")
        return UnitScalar(v)

    def __mul__(self, other: "UnitScalar") -> "UnitScalar":
        return UnitScalar(self.value * other.value)

    def inverse(self) -> "UnitScalar":
        return UnitScalar(self.value.inverse())

    def identity(self) -> "UnitScalar":
        return UnitScalar(QQI.one())

    def __repr__(self):
        return f"<{self.value}>"


def complex_heisenberg_group() -> SemidirectProduct:
    zero = QQI.zero()
    return SemidirectProduct(
        action=lambda lam, n: n.scaled_by(lam.value),
        n_multiply=lambda a, b: a * b,
        n_inverse=lambda a: a.inverse(),
        n_identity=ComplexHeisenbergElement(zero, zero, zero),
        h_identity=UnitScalar(QQI.one()),
        name="C* on complex Heisenberg",
    )


@dataclass(frozen=True)
class ComplexHeisenbergVerdict:
    real: bool
    certificates: tuple
    residual: GaussianRational  # a b - 2 c, the lambda-free obstruction
    reason: str = ""


def _solve_conjugation_entries(lam: GaussianRational, n: ComplexHeisenbergElement,
                               target: ComplexHeisenbergElement):
    """The forced unitriangular conjugator k = (p, q, 0) for (-1, n) and
    lam, solved from the two linear matrix entries, and the (1,3)
    mismatch with target, the N part of (-1, n)^-1, which must vanish.
    H = Q(i)^x is abelian, so (lam, k) (x, n) (lam, k)^-1 is
    (x, act(lam, act(x^-1, k) n k^-1)) and the conjugate is formed in N."""
    two = QQI.coerce(2)
    # the (1,2) and (2,3) comparisons are linear in p and q
    k = ComplexHeisenbergElement((n.a - n.a / lam) / two, (n.b - lam * n.b) / two,
                                 QQI.zero())
    conj = (k.scaled_by(-QQI.one()) * n * k.inverse()).scaled_by(lam)
    if conj.a != target.a or conj.b != target.b:
        raise TheoremViolation("forced entries failed the linear comparisons")
    return k, conj.c - target.c


def complex_heisenberg_reality(n: ComplexHeisenbergElement, x_sign: int,
                               lambda_grid: Sequence = DEFAULT_LAMBDA_GRID
                               ) -> ComplexHeisenbergVerdict:
    """Case analysis for (x, n) with x in {1, -1} acting by
    (a, b, c) |-> (lambda a, b / lambda, c).

    x = 1: real iff n is non-central (explicit one-entry witnesses) or n = e.
    x = -1: real iff a b = 2 c; the obstruction is independent of lambda,
    checked on the whole grid, which must be non-empty and free of 0,
    after solving the forced entries."""
    if x_sign not in (1, -1):
        raise UsageError("x must be 1 or -1")
    lambda_grid = tuple(QQI.coerce(lam) for lam in lambda_grid)
    if not lambda_grid:
        raise UsageError("lambda grid must not be empty")
    if not all(lambda_grid):
        raise UsageError("lambda grid must not contain 0")
    G = complex_heisenberg_group()
    two = QQI.coerce(2)
    residual = n.a * n.b - two * n.c
    subject = G.element(UnitScalar.of(QQI.coerce(x_sign)), n)

    if x_sign == 1:
        if not n.a and not n.b:
            if not n.c:
                cert = Certificate.make(subject, G.identity(), Inverse())
                return ComplexHeisenbergVerdict(True, (cert,), residual,
                                                reason="identity element")
            return ComplexHeisenbergVerdict(
                False, (), residual,
                reason="central n: every conjugate of (1, n) equals itself and "
                       "n = n^-1 forces 2c = 0")
        if n.a:
            m = ComplexHeisenbergElement(QQI.zero(), (two * n.c - n.a * n.b) / n.a,
                                         QQI.zero())
        else:
            m = ComplexHeisenbergElement((n.a * n.b - two * n.c) / n.b, QQI.zero(),
                                         QQI.zero())
        witness = G.element(UnitScalar.of(QQI.coerce(-1)), m)
        cert = Certificate.make(subject, witness, Inverse())
        return ComplexHeisenbergVerdict(True, (cert,), residual)

    # x = -1
    target = subject.inverse().n
    mismatches = []
    certs = []
    for lam in lambda_grid:
        k, mismatch = _solve_conjugation_entries(lam, n, target)
        mismatches.append(mismatch)
        if not mismatch:
            witness = G.element(UnitScalar.of(lam), k)
            certs.append(Certificate.make(subject, witness, Inverse()))
    if len(set(mismatches)) != 1:
        raise TheoremViolation("the (1,3) obstruction varied with lambda")
    if residual == QQI.zero():
        if not certs:
            raise TheoremViolation("a b = 2 c but no witness verified")
        return ComplexHeisenbergVerdict(True, tuple(certs), residual)
    return ComplexHeisenbergVerdict(
        False, (), residual,
        reason="the (1,3) comparison leaves the lambda-free residual "
               f"a b - 2 c = {residual}, which is nonzero")
