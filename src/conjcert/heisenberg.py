"""Concrete groups: GSp(4) acting on the 5-dimensional Heisenberg group, and
the complex Heisenberg family.

The Heisenberg group H_{2m+1} over Q is carried as pairs (v, t) with
(v,t)(v',t') = (v+v', t+t'+ w(v,v')/2) for the standard symplectic form
w(v,v') = v^T J v'.  Similitudes act by (v,t) |-> (g v, mu(g) t).  A GSp
element hashes through its matrix, which keeps its hash, and
``_gsp_inverse`` stays keyed by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import TheoremViolation, UsageError
from .fields import GaussianRational, QQ, QQI
from .groups import Certificate, Inverse
from .linalg import Matrix, Vector, _from_ints, _scaled
from .semidirect import (
    CentralSeriesLevel,
    CentralSeriesPresentation,
    SemidirectProduct,
)

__all__ = [
    "symplectic_form",
    "HeisenbergElement",
    "GSpElement",
    "gsp_act",
    "heisenberg_presentation",
    "standard_gsp_example",
    "ComplexHeisenbergElement",
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


@dataclass(frozen=True)
class HeisenbergElement:
    """(v, t) in H_{2m+1} over Q; the center is {(0, t)}."""

    v: Vector
    t: object

    @staticmethod
    def of(field, v, t) -> "HeisenbergElement":
        """(v, t) with entries coerced into ``field``, which must be Q."""
        if field != QQ:
            raise UsageError(f"the Heisenberg group is built over Q only, not {field!r}")
        return HeisenbergElement(Vector.of(QQ, v), QQ.coerce(t))

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """(v, t)(v', t') = (v + v', t + t' + omega/2), with omega = v^T J v'
        in its block form sum_{i<m} (v_i v'_{i+m} - v_{i+m} v'_i), so no J
        is applied.  Each operand's (v, t) is read as integers over one
        denominator once (``linalg._scaled``) and each output entry
        normalised once."""
        self.v._same_shape(other.v)
        m = self.v.dim // 2
        dv, a = _scaled(QQ, self.v.entries + (self.t,))
        dw, b = _scaled(QQ, other.v.entries + (other.t,))
        omega = sum([a[i] * b[i + m] - a[i + m] * b[i] for i in range(m)])
        sums = [x * dw + y * dv for x, y in zip(a, b)]
        t = _from_ints(QQ, 2 * dv * dw, [2 * sums.pop() + omega])[0]
        return HeisenbergElement(Vector(QQ, _from_ints(QQ, dv * dw, sums)), t)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.v, -self.t)

    def identity(self) -> "HeisenbergElement":
        return HeisenbergElement(Vector.zero(QQ, self.v.dim), QQ.zero())

    def __repr__(self):
        return f"H({self.v!r}, {self.t})"


@dataclass(frozen=True)
class GSpElement:
    """g in GSp(2m) together with its similitude factor mu: g^T J g = mu J."""

    g: Matrix
    mu: object

    @staticmethod
    def of(g: Matrix) -> "GSpElement":
        if not g.rows or not g.is_square:
            raise UsageError("a similitude needs a nonempty square matrix")
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
        return hash(self.g)  # g determines mu, and the matrix keeps its hash

    def identity(self) -> "GSpElement":
        field = self.g.field
        return GSpElement(Matrix.identity_of(field, self.g.rows), field.one())

    def __repr__(self):
        return f"GSp({self.g!r}, mu={self.mu})"


@lru_cache(maxsize=1024)
def _gsp_inverse(x: GSpElement) -> GSpElement:
    """Inverses memoised by value: every semidirect product inverts its right
    factor's GSp part, and a run re-inverts the same few elements."""
    return GSpElement(x.g.inverse(), x.g.field.one() / x.mu)


def gsp_act(g: GSpElement, h: HeisenbergElement) -> HeisenbergElement:
    """The automorphism (v, t) |-> (g v, mu t)."""
    return HeisenbergElement(g.g.apply(h.v), g.mu * h.t)


def heisenberg_presentation() -> CentralSeriesPresentation:
    """Two-level central series of H_5 over Q: H > Z(H) > {e} with
    quotients Q^4 and the center line."""
    zero = HeisenbergElement.of(QQ, [0] * 4, 0)
    levels = [
        CentralSeriesLevel(4, project=lambda n: n.v,
                           section=lambda vec: HeisenbergElement(vec, QQ.zero()),
                           act=lambda g: g.g),
        CentralSeriesLevel(1, project=lambda n: Vector(QQ, (n.t,)),
                           section=lambda vec: HeisenbergElement(zero.v, vec[0]),
                           act=lambda g: Matrix(QQ, 1, 1, (g.mu,))),
    ]
    return CentralSeriesPresentation(QQ, lambda a, b: a * b, lambda a: a.inverse(), zero,
                                     gsp_act, levels)


def standard_gsp_example() -> tuple[GSpElement, GSpElement]:
    """x = diag(P, P^-1) with P the quarter rotation (mu = -1), and the
    block swap y = [[0, I], [I, 0]] conjugating x to its inverse."""
    x = GSpElement.of(Matrix.from_rows(QQ, [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]))
    y = GSpElement.of(Matrix.from_rows(QQ, [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]))
    return x, y


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


def complex_heisenberg_group() -> SemidirectProduct:
    """Q(i)^x, as nonzero ``GaussianRational`` scalars, acting on the complex
    Heisenberg group N by ``scaled_by``, with N presented by its two-level
    central series N > Z(N) > {e} over Q(i): the (a, b) plane, on which
    lambda acts by diag(lambda, 1/lambda), and the center line c, on which
    it acts trivially."""
    zero, one = QQI.zero(), QQI.one()
    levels = [
        CentralSeriesLevel(2, project=lambda n: Vector(QQI, (n.a, n.b)),
                           section=lambda vec: ComplexHeisenbergElement(vec[0], vec[1], zero),
                           act=lambda lam: Matrix(QQI, 2, 2, (lam, zero, zero, one / lam))),
        CentralSeriesLevel(1, project=lambda n: Vector(QQI, (n.c,)),
                           section=lambda vec: ComplexHeisenbergElement(zero, zero, vec[0]),
                           act=lambda lam: Matrix(QQI, 1, 1, (one,))),
    ]
    pres = CentralSeriesPresentation(QQI, lambda a, b: a * b, lambda a: a.inverse(),
                                     ComplexHeisenbergElement(zero, zero, zero),
                                     lambda lam, n: n.scaled_by(lam), levels)
    return SemidirectProduct(pres, one)


@dataclass(frozen=True)
class ComplexHeisenbergVerdict:
    real: bool
    certificates: tuple
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
                               G: SemidirectProduct) -> ComplexHeisenbergVerdict:
    """Case analysis for (x, n) in the caller's ``complex_heisenberg_group()``
    G, with x in {1, -1} acting by (a, b, c) |-> (lambda a, b / lambda, c).

    x = 1: real iff n is non-central (explicit one-entry witnesses) or n = e.
    x = -1: real iff a b = 2 c; the obstruction is independent of lambda,
    checked on every lambda of DEFAULT_LAMBDA_GRID after solving the forced
    entries."""
    if x_sign not in (1, -1):
        raise UsageError("x must be 1 or -1")
    two = QQI.coerce(2)
    subject = G.element(QQI.coerce(x_sign), n)

    if x_sign == 1:
        if not n.a and not n.b:
            if not n.c:
                cert = Certificate.make(subject, G.identity(), Inverse())
                return ComplexHeisenbergVerdict(True, (cert,), reason="identity element")
            return ComplexHeisenbergVerdict(
                False, (), reason="central n: every conjugate of (1, n) equals itself and "
                                  "n = n^-1 forces 2c = 0")
        if n.a:
            m = ComplexHeisenbergElement(QQI.zero(), (two * n.c - n.a * n.b) / n.a,
                                         QQI.zero())
        else:
            m = ComplexHeisenbergElement((n.a * n.b - two * n.c) / n.b, QQI.zero(),
                                         QQI.zero())
        witness = G.element(QQI.coerce(-1), m)
        cert = Certificate.make(subject, witness, Inverse())
        return ComplexHeisenbergVerdict(True, (cert,))

    # x = -1
    residual = n.a * n.b - two * n.c
    target = subject.inverse().n
    mismatches = []
    certs = []
    for lam in DEFAULT_LAMBDA_GRID:
        k, mismatch = _solve_conjugation_entries(lam, n, target)
        mismatches.append(mismatch)
        if not mismatch:
            witness = G.element(lam, k)
            certs.append(Certificate.make(subject, witness, Inverse()))
    if len(set(mismatches)) != 1:
        raise TheoremViolation("the (1,3) obstruction varied with lambda")
    if residual == QQI.zero():
        if not certs:
            raise TheoremViolation("a b = 2 c but no witness verified")
        return ComplexHeisenbergVerdict(True, tuple(certs))
    return ComplexHeisenbergVerdict(
        False, (), reason="the (1,3) comparison leaves the lambda-free residual "
                          f"a b - 2 c = {residual}, which is nonzero")
