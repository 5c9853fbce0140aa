"""Generic group machinery: closure enumeration, element orders, and the
finite reality/rationality oracle.

Group elements are duck-typed: anything hashable with ``__mul__``,
``inverse()`` and ``identity()`` works (matrices, affine elements,
semidirect pairs, ...).  A ``FiniteGroup`` walks the orbits of conjugation
by its generators once, on element indices, into a class table holding each
element's class and a transversal t_y with t_y r t_y^-1 = y for the class
representative r (Holt, Eick & O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 4).  Oracle verdicts are lookups in that table; every
certificate surfaced from this module is re-verified by exact multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd
from typing import Optional

from .errors import CertificateError, ClosureCapExceeded, UsageError

__all__ = [
    "Inverse",
    "Power",
    "Certificate",
    "OrderResult",
    "FiniteGroup",
    "generate_closure",
    "element_order",
    "element_power",
    "is_real_bruteforce",
    "is_rational_bruteforce",
]

DEFAULT_ORDER_BOUND = 10_000


@dataclass(frozen=True)
class Inverse:
    """The relation g s g^-1 = s^-1."""

    def describe(self) -> str:
        return "inverse"

    def of(self, s):
        return s.inverse()


@dataclass(frozen=True)
class Power:
    """The relation g s g^-1 = s^k."""

    k: int

    def describe(self) -> str:
        return f"power {self.k}"

    def of(self, s):
        return element_power(s, self.k)


def element_power(g, k: int):
    """g**k by square-and-multiply; negative k via inverse()."""
    if k < 0:
        return element_power(g.inverse(), -k)
    result = g.identity()
    base = g
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


@dataclass(frozen=True)
class Certificate:
    """A witness g together with the verified relation g s g^-1 = s^-1 or s^k."""

    subject: object
    witness: object
    relation: object
    verified: bool = dc_field(default=False, compare=False)

    @staticmethod
    def make(subject, witness, relation) -> "Certificate":
        cert = Certificate(subject, witness, relation, verified=False)
        if not cert.check():
            raise CertificateError(
                f"witness fails relation {relation.describe()} for {subject!r}"
            )
        return Certificate(subject, witness, relation, verified=True)

    def target(self):
        return self.relation.of(self.subject)

    def check(self) -> bool:
        """Re-multiply from scratch; independent of the construction path."""
        conj = self.witness * self.subject * self.witness.inverse()
        return conj == self.target()


@dataclass(frozen=True)
class OrderResult:
    """Either Finite(m) with g^m = e minimal, or ExceedsBound(bound)."""

    value: Optional[int]
    bound: int

    @staticmethod
    def finite(m: int, bound: int) -> "OrderResult":
        return OrderResult(m, bound)

    @staticmethod
    def exceeds(bound: int) -> "OrderResult":
        return OrderResult(None, bound)

    @property
    def is_finite(self) -> bool:
        return self.value is not None


class FiniteGroup:
    """A finite group as an explicit element list in deterministic (breadth-first
    closure) order; ``right[i][j]`` is the index of elements[i] * generators[j]."""

    def __init__(self, elements, generators, right):
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self._right = right
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._inverses: dict = {}
        self._table: Optional[tuple] = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._index

    def index(self, g) -> int:
        return self._index[g]

    @property
    def identity(self):
        return self.elements[0]

    def inverse_of(self, g):
        inv = self._inverses.get(g)
        if inv is None:
            inv = self._inverses[g] = g.inverse()
        return inv

    def class_table(self) -> tuple:
        """(classes, class_of, transversal) on indices, built once: orbits of
        conjugation by the generators, each walked breadth first from its least
        member r, members sorted; transversal[y] is t_y with t_y r t_y^-1 = y."""
        if self._table is None:
            inv, right = [self.index(self.inverse_of(g)) for g in self.elements], self._right
            class_of, transversal, classes = [-1] * len(inv), [0] * len(inv), []
            for r in range(len(inv)):
                if class_of[r] < 0:
                    class_of[r] = len(classes)
                    orbit = [r]
                    for y in orbit:  # grows while walked: breadth first
                        for j in range(len(self.generators)):
                            z = inv[right[inv[right[y][j]]][j]]  # g^-1 y g
                            if class_of[z] < 0:
                                class_of[z] = len(classes)
                                transversal[z] = inv[right[inv[transversal[y]]][j]]
                                orbit.append(z)
                    classes.append(sorted(orbit))
            self._table = (classes, class_of, transversal)
        return self._table

    def conjugator(self, s, target):
        """t_target t_s^-1 when s and target share a class, else None."""
        if s not in self:
            raise UsageError(f"{s!r} is not in the group")
        _, class_of, transversal = self.class_table()
        i, j = self.index(s), self.index(target)
        if class_of[i] != class_of[j]:
            return None
        return self.elements[transversal[j]] * self.inverse_of(self.elements[transversal[i]])


def generate_closure(generators, cap: int = 100_000) -> FiniteGroup:
    """Breadth-first closure of the generators; raises if it grows past cap."""
    generators = list(generators)
    if not generators:
        raise UsageError("generate_closure needs at least one generator")
    order = [generators[0].identity()]
    index = {order[0]: 0}
    right = []
    for cur in order:  # grows while walked: breadth first
        row = []
        for gen in generators:
            cand = cur * gen
            if cand not in index:
                index[cand] = len(order)
                order.append(cand)
                if len(order) > cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
            row.append(index[cand])
        right.append(row)
    return FiniteGroup(order, generators, right)


def element_order(g, bound: int = DEFAULT_ORDER_BOUND) -> OrderResult:
    """Order by iterated multiplication; no eigenvalue shortcuts.

    Each step multiplies g on the left, g * g^m rather than g^m * g: the
    power is the same, but a product acts by its left factor, so the action
    of g (for ``SL2VElement`` the cached ``rho(g.h)``) is reused at every
    step instead of the action of g^m being built afresh."""
    if bound < 1:
        raise UsageError("bound must be >= 1")
    identity = g.identity()
    acc = g
    for m in range(1, bound + 1):
        if acc == identity:
            return OrderResult.finite(m, bound)
        acc = g * acc
    return OrderResult.exceeds(bound)


def is_real_bruteforce(G: FiniteGroup, g) -> Optional[Certificate]:
    """g is real iff g^-1 lies in its class; the certified witness is the
    class-table conjugator t_{g^-1} t_g^-1 (the identity for an involution)."""
    h = G.conjugator(g, G.inverse_of(g))
    return None if h is None else Certificate.make(g, h, Inverse())


def is_rational_bruteforce(G: FiniteGroup, g) -> Optional[dict]:
    """Certificates {k: h_k} for every k coprime to Ord(g), or None if some
    such g^k lies outside the class of g.  h_1 = e; every other h_k is the
    class-table conjugator t_{g^k} t_g^-1."""
    if g not in G:
        raise UsageError(f"{g!r} is not in the group")
    m = element_order(g, bound=len(G)).value
    certs = {1: Certificate.make(g, G.identity, Power(1))}
    power = g
    for k in range(2, m):
        power = power * g
        if gcd(k, m) != 1:
            continue
        h = G.conjugator(g, power)
        if h is None:
            return None
        certs[k] = Certificate.make(g, h, Power(k))
    return certs
