"""Semidirect products H x| N and the one witness solver.

``AffineElement`` (A, b) is the block matrix [[A, b], [0, 1]], the product
b . A in left coordinates: (A,b)(C,d) = (AC, Ad + b).  ``SemidirectElement``
(h, n) is h . n in right coordinates: (h1,n1)(h2,n2) = (h1 h2,
act(h2^-1, n1) . n2).  As h . n = act(h, n) . h, the map
(h, n) -> (h, act(h, n)) takes right coordinates to left ones; for vector N
it is the change of variable b = h v onto the affine picture.

Every witness comes from one equation.  In left coordinates
(h1,a1)(h2,a2) = (h1 h2, a1 . act(h1, a2)), so (h, w) conjugates (x, a) to
(y, w . act(h, a) . act(y, w)^-1) with y = h x h^-1: to a relation's target
(y, c) exactly when w . act(h, a) = c . act(y, w).  ``lift_central_series``
solves this down a central series N = N_0 > N_1 > ..., N_j / N_{j+1}
central in N / N_{j+1}.  With w fixed above level j the residual
r = (w . act(h, a))^-1 . c . act(y, w) lies in N_j, and multiplying
s = section_j(z) into w makes it s^-1 . r . act(y, s) modulo N_{j+1}, of
class project_j(r) - (I - Y_j) z for the level action Y_j of y.  So level j
solves (I - Y_j) z = project_j(r), free coordinates zero, and fails only
when that system is inconsistent.  A vector group has one level, with the
system (I - Y) w = c - H b of ``make_real_witness`` and
``make_power_witness`` on the matrix images Y, H of y, h; the reality
witness is certified in the caller's pair group (``AffineElement`` and the
identity map by default, ``SL2VElement`` and rho(., n) for sl2v).
``real_witness_via_lift`` maps a pair of the caller's ``SemidirectProduct``
and its target to left coordinates and the solved (h, w) back to
(h, act(h^-1, w)).
When no Y_j fixes a nonzero vector each level has one solution, so the
witness is the only one with this h: the (h, act(h^-1, u) . u^-1) of the
earlier (e, u) lift, where (e, u) conjugates (x, e) to
(x, act(x^-1, u) . u^-1).  The certificate re-multiplies the witness in
the full group, so its soundness does not rest on this algebra.  A
``CentralSeriesPresentation`` describes N once, and every ``SemidirectProduct``
reads N's operations and the action from its presentation.  The presentation
also keeps the witnessed (x, h, relation) cache: h^-1 and the factorisations
of I - Y_j for each h that passed h x h^-1 = relation(x).  A one-level
witness factors I - y on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Sequence

from .errors import FixedPointError, PresentationError, UsageError
from .fields import Field
from .groups import Certificate, Inverse, Power
from .linalg import Matrix, RowReduction, Vector, kernel_basis

__all__ = [
    "AffineElement",
    "SemidirectProduct",
    "SemidirectElement",
    "CentralSeriesLevel",
    "CentralSeriesPresentation",
    "vector_presentation",
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
    """H x| N on pairs (h, n): ``presentation`` describes N and the
    conjugation action of H on it, and ``h_identity`` is the identity of H."""

    def __init__(self, presentation: "CentralSeriesPresentation", h_identity):
        self.presentation = presentation
        self.h_identity = h_identity

    def element(self, h, n) -> "SemidirectElement":
        return SemidirectElement(self, h, n)

    def identity(self) -> "SemidirectElement":
        return SemidirectElement(self, self.h_identity, self.presentation.identity)


@dataclass(frozen=True)
class SemidirectElement:
    group: SemidirectProduct = dc_field(compare=False, repr=False)
    h: object
    n: object

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        N = self.group.presentation
        return SemidirectElement(self.group, self.h * other.h,
                                 N.multiply(N.action(other.h.inverse(), self.n), other.n))

    def inverse(self) -> "SemidirectElement":
        N = self.group.presentation
        return SemidirectElement(self.group, self.h.inverse(),
                                 N.action(self.h, N.inverse(self.n)))

    def identity(self) -> "SemidirectElement":
        return self.group.identity()

    def __repr__(self):
        return f"({self.h!r}, {self.n!r})"


# ---------------------------------------------------------------------------
# Central-series presentations and the witness solver
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
        self._witnessed: dict = {}

    def check_witness(self, x, h, relation) -> tuple:
        """(h^-1, ``_level_factors`` of y = relation(x)), once
        h x h^-1 = y has been checked.  Only a passed check is recorded,
        so a wrong h fails every time."""
        entry = self._witnessed.get((x, h, relation))
        if entry is None:
            h_inverse, y = h.inverse(), relation.of(x)
            if h * x * h_inverse != y:
                raise UsageError(f"h does not witness the {relation.describe()} relation for x")
            entry = self._witnessed[(x, h, relation)] = (h_inverse, _level_factors(self, y))
        return entry


def vector_presentation(field: Field, dim: int, matrix_of: Callable) -> CentralSeriesPresentation:
    """The one-level presentation of a vector group V under a linear action."""
    level = CentralSeriesLevel(dim, project=lambda v: v, section=lambda v: v, act=matrix_of)
    return CentralSeriesPresentation(field, lambda a, b: a + b, lambda a: -a,
                                     Vector.zero(field, dim),
                                     lambda h, v: matrix_of(h).apply(v), [level])


def _level_factors(pres: CentralSeriesPresentation, y) -> tuple:
    """Each level's ``RowReduction`` of I - Y_j for the level actions Y_j of y."""
    return tuple(RowReduction.of(Matrix.identity_of(pres.field, lvl.dim) - lvl.act(y))
                 for lvl in pres.levels)


def lift_central_series(h, a, y, c, pres: CentralSeriesPresentation, relation, factors):
    """The w in N with w . act(h, a) = c . act(y, w), level by level as the
    module docstring derives, on the caller's ``_level_factors(pres, y)``.
    After level j the residual must vanish in its quotient, and after the
    last it must be e.  ``FixedPointError``: level j's system has no solution."""
    moved = pres.action(h, a)
    w = None
    residual = pres.multiply(pres.inverse(moved), c)
    for j, (lvl, factor) in enumerate(zip(pres.levels, factors)):
        z = factor.solve(lvl.project(residual))
        if z is None:
            raise FixedPointError(
                f"level {j}'s witness equation (I - Y_{j}) z = project_{j}(residual) has no "
                f"solution for this h and the {relation.describe()} relation",
                kernel=kernel_basis(factor.matrix), level=j)
        w = lvl.section(z) if w is None else pres.multiply(w, lvl.section(z))
        residual = pres.multiply(pres.inverse(pres.multiply(w, moved)),
                                 pres.multiply(c, pres.action(y, w)))
        if not lvl.project(residual).is_zero():
            raise PresentationError(
                f"residual fails to descend past level {j}: "
                f"project_{j} = {lvl.project(residual)!r}")
    if residual != pres.identity:
        raise PresentationError("lifted conjugator failed exact verification")
    return w


def _vector_witness(x, b: Vector, h, relation, pair, matrix_of) -> Certificate:
    """Certificate pair(h, w) pair(x, b) pair(h, w)^-1 = t, made in the
    caller's pair group, for the relation's target t = pair(y, c): h must
    conjugate x to y, and w solves (I - Y) w = c - H b on the images
    Y, H = matrix_of(y), matrix_of(h), the one level of ``vector_presentation``."""
    subject = pair(x, b)
    target = relation.of(subject)
    y, c = (getattr(target, f.name) for f in fields(pair))
    if h * x != y * h:
        raise UsageError(f"h does not witness the {relation.describe()} relation for x")
    pres = vector_presentation(b.field, b.dim, matrix_of)
    w = lift_central_series(h, b, y, c, pres, relation, _level_factors(pres, y))
    return Certificate.make(subject, pair(h, w), relation)


def make_real_witness(x, b: Vector, h, pair=AffineElement, matrix_of=lambda g: g) -> Certificate:
    """Certificate (h, w) (x,b) (h, w)^-1 = (x,b)^-1 for h x h^-1 = x^-1:
    w solves (I - X^-1) w = -X^-1 b - H b (free coordinates zero), which
    has a solution whenever b lies in im(X - I).  Affine pairs by default;
    sl2v passes ``SL2VElement`` and rho(., n)."""
    return _vector_witness(x, b, h, Inverse(), pair, matrix_of)


def make_power_witness(x: Matrix, b: Vector, h: Matrix, k: int) -> Certificate:
    """Certificate (h, w) (x,b) (h, w)^-1 = (x,b)^k for affine (x,b) and
    h x h^-1 = x^k: w solves (I - X^k) w = c - H b, c the translation of (x,b)^k."""
    return _vector_witness(x, b, h, Power(k), AffineElement, lambda g: g)


def _witness_via_lift(x, n, G: SemidirectProduct, h, relation) -> Certificate:
    """The pair (x, n) of G is (x, act(x, n)) in left coordinates and its
    target (y, m) is (y, act(y, m)); the solved (h, w) is the pair
    (h, act(h^-1, w)), checked by the certificate in G."""
    pres = G.presentation
    h_inverse, factors = pres.check_witness(x, h, relation)
    subject = G.element(x, n)
    target = relation.of(subject)
    w = lift_central_series(h, pres.action(x, n), target.h,
                            pres.action(target.h, target.n), pres, relation, factors)
    return Certificate.make(subject, G.element(h, pres.action(h_inverse, w)), relation)


def real_witness_via_lift(x, n, G: SemidirectProduct, h) -> Certificate:
    """Certificate for (x,n) ~ (x,n)^-1 in the caller's H x| N from the
    level-by-level solve and an H-level reality witness h."""
    return _witness_via_lift(x, n, G, h, Inverse())
