"""Semidirect products H x| N and the constructive conjugator machinery.

Two realizations are used throughout:

* ``AffineElement`` (A, b), the block matrix [[A, b], [0, 1]].  This is the
  canonical convention: a pair multiplies as (A,b)(C,d) = (AC, Ad + b).
* ``SemidirectElement`` (h, n), the group product h.n with
  (h1,n1)(h2,n2) = (h1 h2, act(h2^-1)(n1) . n2).

They are intertwined by the documented change of variable b = h.v: the map
(h, v) -> (h, h.v) is an isomorphism onto the affine picture for vector N.

For a vector group every witness comes from one equation: (h, w)
conjugates (x, b) to t = (y, c) exactly when h x h^-1 = y and
(I - y) w = c - h b, so given the linear witness h the translation w is one
linear solve.  The multi-level lift walks a central series, solving one
quotient equation per level, and works in N alone: conjugating (x, e) by
(e, u) gives (x, act(x^-1, u) . u^-1), so each level costs one action of
x^-1 and a few N products, and the accumulated conjugate is compared with
n exactly at the end.  What the lifts of one x share is its lift plan,
built once and kept on the presentation: x^-1, the fixed-point check, which
is one elimination of I - a per level, the solve operator (I - a)^-1 a that
it yields, and the H-level relation checks that have passed with the
inverses of their witnesses.  The certificate re-multiplies the composed
witness in the full group, so its soundness does not rest on this algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from .errors import FixedPointError, PresentationError, SingularMatrixError, UsageError
from .fields import Field
from .groups import Certificate, Inverse, Power
from .linalg import Matrix, Vector, kernel_basis, solve_linear

__all__ = [
    "AffineElement",
    "SemidirectProduct",
    "SemidirectElement",
    "CentralSeriesLevel",
    "CentralSeriesPresentation",
    "LiftPlan",
    "vector_presentation",
    "reduce_translation",
    "make_real_witness",
    "make_power_witness",
    "lift_central_series",
    "real_witness_via_lift",
]


@dataclass(frozen=True)
class AffineElement:
    """Pair (linear, translation) realizing [[A, b], [0, 1]]."""

    linear: Matrix
    translation: Vector

    @staticmethod
    def of(linear: Matrix, translation) -> "AffineElement":
        if not linear.is_square:
            raise UsageError("linear part must be square")
        if not linear.det():
            raise UsageError("linear part must be invertible")
        if not isinstance(translation, Vector):
            translation = Vector.of(linear.field, translation)
        return AffineElement(linear, translation)

    def __post_init__(self):
        if self.linear.rows != self.translation.dim:
            raise UsageError("translation dimension does not match linear part")

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(self.linear * other.linear,
                             self.linear.apply(other.translation) + self.translation)

    def inverse(self) -> "AffineElement":
        inv = self.linear.inverse()
        return AffineElement(inv, -inv.apply(self.translation))

    def identity(self) -> "AffineElement":
        n = self.linear.rows
        return AffineElement(Matrix.identity_of(self.linear.field, n),
                             Vector.zero(self.linear.field, n))

    def __repr__(self):
        return f"Affine({self.linear!r} | {self.translation!r})"


class SemidirectProduct:
    """Group on pairs (h, n); the action is conjugation of H on N."""

    def __init__(self, action: Callable, n_multiply: Callable, n_inverse: Callable,
                 n_identity, h_identity):
        self.action = action
        self.n_multiply = n_multiply
        self.n_inverse = n_inverse
        self.n_identity = n_identity
        self.h_identity = h_identity

    def element(self, h, n) -> "SemidirectElement":
        return SemidirectElement(self, h, n)

    def identity(self) -> "SemidirectElement":
        return SemidirectElement(self, self.h_identity, self.n_identity)


@dataclass(frozen=True)
class SemidirectElement:
    group: SemidirectProduct = dc_field(compare=False, repr=False)
    h: object
    n: object

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        G = self.group
        h2_inv = other.h.inverse()
        return SemidirectElement(
            G, self.h * other.h, G.n_multiply(G.action(h2_inv, self.n), other.n)
        )

    def inverse(self) -> "SemidirectElement":
        G = self.group
        return SemidirectElement(G, self.h.inverse(), G.action(self.h, G.n_inverse(self.n)))

    def identity(self) -> "SemidirectElement":
        return self.group.identity()

    def __repr__(self):
        return f"({self.h!r}, {self.n!r})"


# ---------------------------------------------------------------------------
# One-level (vector group) conjugators
# ---------------------------------------------------------------------------

def reduce_translation(x: Matrix, b: Vector) -> Vector:
    """A w with (I,w) (x,b) (I,w)^-1 = (x,0), i.e. (x - I) w = b.

    Solvable exactly when b lies in im(x - I); free coordinates are set to
    zero, so w is deterministic, and unique when x has no nonzero fixed
    point.  Otherwise raises ``FixedPointError`` carrying ker(x - I)."""
    x._require_square("reduce_translation")
    if x.rows != b.dim:
        raise UsageError("translation dimension does not match x")
    shifted = x - Matrix.identity_of(x.field, x.rows)
    w = solve_linear(shifted, b)
    if w is None:
        raise FixedPointError("translation lies outside im(x - I); no conjugator "
                              "to (x, 0)", kernel=kernel_basis(shifted))
    return w


def _vector_witness(x: Matrix, b: Vector, h: Matrix, relation) -> Certificate:
    """Certificate (h, w) (x, b) (h, w)^-1 = t for the relation's target
    t = (y, c).  The product is (h x h^-1, (I - y) w + h b), so it is t
    exactly when h x = y h and (I - y) w = c - h b; ``FixedPointError``
    carries ker(I - y) when that system has no solution."""
    subject = AffineElement(x, b)
    target = relation.of(subject)
    y = target.linear
    if h * x != y * h:
        raise UsageError(f"h does not witness the {relation.describe()} relation for x")
    fixed = Matrix.identity_of(x.field, x.rows) - y
    w = solve_linear(fixed, target.translation - h.apply(b))
    if w is None:
        raise FixedPointError(f"(I - y) w = c - h b has no solution for the "
                              f"{relation.describe()} relation", kernel=kernel_basis(fixed))
    return Certificate.make(subject, AffineElement(h, w), relation)


def make_real_witness(x: Matrix, b: Vector, h: Matrix) -> Certificate:
    """Certificate (h, w) (x,b) (h, w)^-1 = (x,b)^-1 for h x h^-1 = x^-1:
    w solves (I - x^-1) w = -x^-1 b - h b (free coordinates zero), which
    has a solution whenever b lies in im(x - I)."""
    return _vector_witness(x, b, h, Inverse())


def make_power_witness(x: Matrix, b: Vector, h: Matrix, k: int) -> Certificate:
    """Certificate (h, w) (x,b) (h, w)^-1 = (x,b)^k for h x h^-1 = x^k:
    w solves (I - x^k) w = c - h b, c the translation of (x,b)^k."""
    return _vector_witness(x, b, h, Power(k))


# ---------------------------------------------------------------------------
# Central-series presentations and the lifting algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralSeriesLevel:
    """Quotient data for one level N_j / N_{j+1}."""

    dim: int
    project: Callable  # N_j element -> Vector (class in the quotient)
    section: Callable  # Vector -> N_j element (any set-theoretic lift)
    act: Callable      # acting element -> dim x dim Matrix


class CentralSeriesPresentation:
    """A nilpotent group N given by carrier operations, a conjugation action
    of H on N, and per-level quotient data for the central series."""

    def __init__(self, field: Field, multiply: Callable, inverse: Callable, identity,
                 action: Callable, levels: Sequence[CentralSeriesLevel]):
        self.field = field
        self.multiply = multiply
        self.inverse = inverse
        self.identity = identity
        self.action = action
        self.levels = tuple(levels)
        self._plans: dict = {}

    def lift_plan(self, x) -> "LiftPlan":
        """The lift plan of x, built on first use and kept on this instance.
        Building it is the fixed-point check: ``FixedPointError`` is raised,
        and nothing is kept, when x fixes a nonzero quotient vector."""
        plan = self._plans.get(x)
        if plan is None:
            plan = self._plans[x] = LiftPlan(x, _level_solvers(x, self))
        return plan

    def semidirect(self, h_identity) -> SemidirectProduct:
        return SemidirectProduct(self.action, self.multiply, self.inverse,
                                 self.identity, h_identity)


def vector_presentation(field: Field, dim: int, matrix_of: Callable) -> CentralSeriesPresentation:
    """The one-level presentation of a vector group V under a linear action."""
    level = CentralSeriesLevel(
        dim=dim,
        project=lambda v: v,
        section=lambda v: v,
        act=matrix_of,
    )
    return CentralSeriesPresentation(
        field,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(field, dim),
        action=lambda h, v: matrix_of(h).apply(v),
        levels=[level],
    )


class LiftPlan:
    """What every lift of one x through one presentation shares: x^-1, per
    level the solve operator (I - a)^-1 a for x's quotient action a, and
    the (h, relation) pairs whose H-level relation h x h^-1 = relation(x)
    has passed, each with h^-1.  Only a passed check is recorded, so a
    wrong h fails every time."""

    def __init__(self, x, solvers: tuple):
        self.x = x
        self.x_inverse = x.inverse()
        self.solvers = solvers
        self._witnessed: dict = {}

    def check_witness(self, h, relation):
        """h^-1, once h x h^-1 = relation(x) has been checked."""
        h_inverse = self._witnessed.get((h, relation))
        if h_inverse is None:
            h_inverse = h.inverse()
            if h * self.x * h_inverse != relation.of(self.x):
                raise UsageError(f"h does not witness the {relation.describe()} relation for x")
            self._witnessed[(h, relation)] = h_inverse
        return h_inverse


def _level_solvers(x, pres: CentralSeriesPresentation) -> tuple:
    """(I - a)^-1 a for each level's action a of x: one elimination of
    I - a per level, and I - a is singular exactly when a fixes a nonzero
    vector, which fails fast with the offending level."""
    solvers = []
    for j, lvl in enumerate(pres.levels):
        a = lvl.act(x)
        ident = Matrix.identity_of(pres.field, lvl.dim)
        try:
            solvers.append((ident - a).inverse() * a)
        except SingularMatrixError:
            raise FixedPointError(
                f"action of x on level {j} quotient has a nonzero fixed point",
                kernel=kernel_basis(a - ident), level=j) from None
    return tuple(solvers)


def lift_central_series(x, n, pres: CentralSeriesPresentation):
    """u in N with (e,u) (x,e) (e,u)^-1 = (x,n), by descending the series.

    From (h1,n1)(h2,n2) = (h1 h2, act(h2^-1, n1) . n2):
    (e,u) (x,e) (e,u)^-1 = (x, c) with c = act(x^-1, u) . u^-1, and
    (x,c)^-1 (x,n) = (e, c^-1 . n), so the lift never leaves N.  At each
    level the quotient equation (act^-1 - I) w = project(residual) is solved
    in the inverse-free form w = (I - act)^-1 act project(residual) with the
    operator from x's lift plan, the solution lifted through the section
    and multiplied into u, and the residual c^-1 . n must then vanish in
    that level's quotient; after the last level c is compared with n
    exactly."""
    plan = pres.lift_plan(x)
    u = conjugate = pres.identity
    residual = n
    for j, (lvl, solver) in enumerate(zip(pres.levels, plan.solvers)):
        u = pres.multiply(lvl.section(solver.apply(lvl.project(residual))), u)
        conjugate = pres.multiply(pres.action(plan.x_inverse, u), pres.inverse(u))
        residual = pres.multiply(pres.inverse(conjugate), n)
        if not lvl.project(residual).is_zero():
            raise PresentationError(
                f"residual fails to descend past level {j}: "
                f"project_{j} = {lvl.project(residual)!r}")
    if conjugate != n:
        raise PresentationError("lifted conjugator failed exact verification")
    return u


def _witness_via_lift(x, n, pres: CentralSeriesPresentation, h, relation) -> Certificate:
    """(e,u) (h,e) (e,u)^-1 = (h, act(h^-1, u) . u^-1) for the lifted u,
    checked by the certificate in the full group."""
    h_inverse = pres.lift_plan(x).check_witness(h, relation)
    u = lift_central_series(x, n, pres)
    G = pres.semidirect(x.identity())
    g = G.element(h, pres.multiply(pres.action(h_inverse, u), pres.inverse(u)))
    return Certificate.make(G.element(x, n), g, relation)


def real_witness_via_lift(x, n, pres: CentralSeriesPresentation, h) -> Certificate:
    """Certificate for (x,n) ~ (x,n)^-1 in H x| N, composed from the lifted
    conjugator and an H-level reality witness."""
    return _witness_via_lift(x, n, pres, h, Inverse())
