"""The degree-n symmetric power of SL(2,Q) on binary forms and the full
reality/rationality classifier for SL(2,Q) |x V_n.

V_n is the space of homogeneous degree-n polynomials in x, y with the
monomial basis x^n, x^(n-1) y, ..., y^n (coefficient a_i on x^(n-i) y^i).
g = [[a, b], [c, d]] acts by p |-> p((x, y) g) = p(ax + cy, bx + dy).  This
order of substitution is a homomorphism: rho(g) rho(h) p = (rho(h) p)((x, y) g)
= p((x, y) g h) = rho(gh) p.  Under it diag(r, 1/r) maps to
diag(r^n, r^(n-2), ..., r^-n) and the antidiagonal witnesses
[[0, t], [-1/t, 0]] map to antidiagonal matrices whose middle entry for
even n is (-1)^(n/2) -- the sign that decides solvability of the
conjugation system on the invariant middle coordinate.  That system is
``semidirect``'s one witness equation on the images rho(x), rho(h), and
its certificate is made in SL(2,Q) |x V_n itself.  The negation search
scans one antidiagonal family: diag(s, 1/s) conjugates [[0, t], [-1/t, 0]]
to [[0, s^2 t], [-1/(s^2 t), 0]], so no conjugate is multiplied out.
The order of (x, v) is 1, 2 or infinite, decided by one two-step probe.

rho(h) is built column by column from the nonzero terms of the two
binomial expansions only: a linear form with a zero coefficient expands
to a single monomial.  So rho of a diagonal or antidiagonal h -- the
monomial matrices the classifier uses -- costs one product per column,
and a general h costs the full convolution.  Q is exact and only terms
that are exactly zero are dropped, so every entry is the same sum as
the full convolution gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

from .errors import UsageError
from .fields import QQ
from .groups import Certificate, Inverse, Power, element_order
from .linalg import Matrix, Vector
from .semidirect import make_real_witness

__all__ = [
    "SL2Element",
    "SL2VElement",
    "RealityResult",
    "RationalityResult",
    "rho",
    "antidiagonal_witness",
    "classify_real",
    "negation_witness_search",
    "classify_rational_sl2v",
    "DEFAULT_T_GRID",
]

DEFAULT_T_GRID = tuple(
    Fraction(t) for t in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2),
                          3, -3, Fraction(1, 3), Fraction(-1, 3))
)
_DIAG_GRID = tuple(Fraction(s) for s in (1, 2, Fraction(1, 2), 3))


@dataclass(frozen=True)
class SL2Element:
    """Matrix [[a, b], [c, d]] with ad - bc = 1, over Q."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(a, b, c, d) -> "SL2Element":
        a, b, c, d = (QQ.coerce(v) for v in (a, b, c, d))
        if a * d - b * c != 1:
            raise UsageError("determinant must be exactly 1")
        return SL2Element(a, b, c, d)

    @staticmethod
    def identity_element() -> "SL2Element":
        return SL2Element.of(1, 0, 0, 1)

    @staticmethod
    def diagonal(r) -> "SL2Element":
        r = QQ.coerce(r)
        if not r:
            raise UsageError("diagonal entry must be nonzero")
        return SL2Element.of(r, 0, 0, 1 / r)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    def identity(self) -> "SL2Element":
        return SL2Element.identity_element()

    @property
    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    def to_matrix(self) -> Matrix:
        return Matrix.from_rows(QQ, [[self.a, self.b], [self.c, self.d]])

    def __repr__(self):
        return f"SL2[{self.a} {self.b}; {self.c} {self.d}]"


def antidiagonal_witness(t) -> SL2Element:
    """[[0, t], [-1/t, 0]]: the elements conjugating diag(r, 1/r) to its
    inverse are exactly these."""
    t = QQ.coerce(t)
    if not t:
        raise UsageError("t must be nonzero")
    return SL2Element.of(0, t, -1 / t, 0)


def _binomial_expansion(p, q, e: int) -> list[tuple[int, Fraction]]:
    """Nonzero terms (j, c) of (p x + q y)^e, c the coefficient on x^(e-j) y^j."""
    if not p:
        return [(e, q ** e)]
    if not q:
        return [(0, p ** e)]
    return [(j, comb(e, j) * p ** (e - j) * q ** j) for j in range(e + 1)]


def _substitution_matrix(g: SL2Element, n: int) -> Matrix:
    """Matrix of p |-> p(ax + cy, bx + dy) in the monomial basis."""
    cols = []
    for i in range(n + 1):
        lhs = _binomial_expansion(g.a, g.c, n - i)
        rhs = _binomial_expansion(g.b, g.d, i)
        out = [Fraction(0)] * (n + 1)
        for j1, c1 in lhs:
            for j2, c2 in rhs:
                out[j1 + j2] += c1 * c2
        cols.append(out)
    return Matrix(QQ, n + 1, n + 1,
                  tuple(cols[i][j] for j in range(n + 1) for i in range(n + 1)))


@lru_cache(maxsize=4096)
def rho(g: SL2Element, n: int) -> Matrix:
    """The (n+1)-dimensional symmetric-power image of g, exact over Q."""
    if n < 0:
        raise UsageError("degree must be nonnegative")
    return _substitution_matrix(g, n)


@dataclass(frozen=True)
class SL2VElement:
    """Pair (h, v) in SL(2,Q) |x V_n, realized as [[rho(h), v], [0, 1]].

    The SL(2) component is kept exactly (not just its rho-image), so the
    two-fold kernel of rho for even n is never collapsed."""

    h: SL2Element
    v: Vector

    @property
    def degree(self) -> int:
        return self.v.dim - 1

    def __mul__(self, other: "SL2VElement") -> "SL2VElement":
        return SL2VElement(self.h * other.h,
                           rho(self.h, self.degree).apply(other.v) + self.v)

    def inverse(self) -> "SL2VElement":
        inv = self.h.inverse()
        return SL2VElement(inv, -(rho(inv, self.degree).apply(self.v)))

    def identity(self) -> "SL2VElement":
        return SL2VElement(SL2Element.identity_element(), Vector.zero(QQ, self.v.dim))

    def __repr__(self):
        return f"({self.h!r}, {self.v!r})"


@dataclass(frozen=True)
class RealityResult:
    verdict: str  # "real" | "not_real" | "unknown"
    certificate: Optional[Certificate] = None
    reason: str = ""


@dataclass(frozen=True)
class RationalityResult:
    """Rationality verdict with the ``classify_real`` result it used."""

    verdict: str  # "rational" | "not_rational" | "unknown"
    certificates: dict
    reality: RealityResult
    reason: str = ""


def negation_witness_search(v: Vector, n: int) -> Optional[SL2Element]:
    """First h from the searched families with rho(h) v = -v, if any.

    Families: -I, then the antidiagonals [[0,u],[-1/u,0]] over
    DEFAULT_T_GRID conjugated by diag(s, 1/s) over _DIAG_GRID (s = 1
    first).  Such a conjugate is the antidiagonal of t = s^2 u, so the scan
    is one antidiagonal family, each distinct t tried once, in that order."""
    target = -v
    ts = dict.fromkeys(s * s * u for s in _DIAG_GRID for u in DEFAULT_T_GRID)
    for h in (SL2Element.of(-1, 0, 0, -1), *map(antidiagonal_witness, ts)):
        if rho(h, n).apply(v) == target:
            return h
    return None


def _forced_not_real(v: Vector, n: int) -> Optional[str]:
    """The sound obstruction for even n with trivial rho(x): a vector
    supported purely on x^n (or y^n) cannot be negated, because
    rho(h) sends it to a scaled n-th power of a linear form and
    L^n = -x^n has no real solution for even n."""
    if n % 2:
        return None
    nonzero = [i for i, c in enumerate(v.entries) if c]
    if len(nonzero) == 1 and nonzero[0] in (0, n):
        mono = "x^n" if nonzero[0] == 0 else "y^n"
        return (f"v is supported on the pure {mono} coordinate; rho(h)v is a "
                f"scaled n-th power of a linear form and cannot equal -v for even n")
    return None


def classify_real(x: SL2Element, v: Vector, t=Fraction(1)) -> RealityResult:
    """Decide whether (x, v) is conjugate to its inverse in SL(2,Q) |x V_n.

    x must already be diagonal (conjugate it into diag(r, 1/r) first).  If
    x = +-I and rho(x) = I, the witness is (h, 0) for a negating rho(h)
    from ``negation_witness_search``.  Otherwise (also for x != +-I at
    n = 0, where rho is trivial) h is the antidiagonal [[0, t], [-1/t, 0]]
    and ``make_real_witness`` solves for the translation and certifies the
    ``SL2VElement`` pair it makes; for even n only the middle row can be
    inconsistent."""
    t = QQ.coerce(t)
    if not t:
        raise UsageError("t must be nonzero")
    if not x.is_diagonal:
        raise UsageError("x must be diagonal; conjugate into diag(r, 1/r) first")
    n = v.dim - 1
    if x.a in (1, -1) and rho(x, n).is_identity():
        h = negation_witness_search(v, n)
        if h is not None:
            witness = SL2VElement(h, Vector.zero(QQ, v.dim))
            return RealityResult("real", Certificate.make(SL2VElement(x, v), witness, Inverse()))
        forced = _forced_not_real(v, n)
        if forced is not None:
            return RealityResult("not_real", reason=forced)
        return RealityResult("unknown",
                             reason="no negating element found in the bounded families")

    h = antidiagonal_witness(t)
    Y = rho(h, n)
    m = n // 2
    if n % 2 == 0 and (Y[m, m] + QQ.one()) * v[m] != 0:
        return RealityResult("not_real", reason=(
            "every element conjugating diag(r,1/r) to its inverse is an antidiagonal "
            "[[0,t],[-1/t,0]], whose symmetric power scales the invariant middle "
            f"coordinate by {Y[m, m]}; the middle row of the conjugation system reads "
            f"0 = -({Y[m, m]} + 1) v_mid with v_mid = {v[m]}, which is unsolvable"))
    return RealityResult("real", make_real_witness(x, v, h, SL2VElement, lambda g: rho(g, n)))


def classify_rational_sl2v(x: SL2Element, v: Vector, t=Fraction(1)) -> RationalityResult:
    """Rationality of (x, v): conjugacy onto every generating power.

    Reality is classified first and returned in ``reality``.  The order of
    (x, v) is 1, 2 or infinite, so one two-step probe decides it:
    - x = diag(r, 1/r) with r != +-1 has infinite order;
    - x = +-I gives (x, v)^2 = (I, (rho(x) + I) v), which is e or a nonzero
      translation, whose powers telescope and never return to e.
    This rests on ``classify_real`` refusing a non-diagonal x before the
    probe runs; an elliptic x, of order 3, 4 or 6, must revisit it.  Order
    1 or 2 leaves k = 1 the only generating power; infinite order leaves
    k = -1, so rationality is exactly reality and reuses its certificate."""
    reality = classify_real(x, v, t)
    subject = SL2VElement(x, v)
    if element_order(subject, bound=2).is_finite:
        return RationalityResult(
            "rational", {1: Certificate.make(subject, subject.identity(), Power(1))}, reality)
    if reality.verdict == "real":
        return RationalityResult("rational", {-1: reality.certificate}, reality,
                                 reason="infinite order: rational iff real")
    if reality.verdict == "not_real":
        return RationalityResult("not_rational", {}, reality,
                                 reason="infinite order and not real: " + reality.reason)
    return RationalityResult("unknown", {}, reality, reason=reality.reason)
