"""Generic group machinery: closure enumeration, element orders, and the
finite reality/rationality oracle.

Group elements are duck-typed: anything hashable with ``__mul__``,
``inverse()`` and ``identity()`` works (matrices, affine elements,
semidirect pairs, ...).  ``generate_closure`` keeps its breadth-first
Schreier tree: each element's parent and the generator that reaches it, so
every element is a word in the generators and a product with it is a walk
through the right-multiplication table.  A ``FiniteGroup`` reads its
inverses off that tree and walks the orbits of conjugation by its
generators once, on element indices, into a class table holding each
element's class and a transversal t_y with t_y r t_y^-1 = y for the class
representative r (Holt, Eick & O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 4).  Inverses, powers and conjugators are index walks;
exact multiplication is left to the closure and to ``Certificate.check``,
which re-verifies every certificate surfaced from this module.
``element_power`` is the one square-and-multiply, also behind ``Matrix.__pow__``.
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
    """g**k by left-to-right square-and-multiply from g itself (Knuth, *TAOCP*
    vol. 2, 4.6.3): k.bit_length() + k.bit_count() - 2 products for k >= 1,
    none for k = 0; negative k via inverse()."""
    if k < 0:
        return element_power(g.inverse(), -k)
    if k == 0:
        return g.identity()
    result = g
    for bit in bin(k)[3:]:  # the bits below the top one
        result = result * result
        if bit == "1":
            result = result * g
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
    """value is the least m with g^m = e, or None when it exceeds the bound."""

    value: Optional[int]

    @property
    def is_finite(self) -> bool:
        return self.value is not None


class FiniteGroup:
    """A finite group as an explicit element list in deterministic (breadth-first
    closure) order; ``right[i][j]`` is the index of elements[i] * generators[j],
    and elements[i] = elements[parent[i]] * generators[column[i]] for i > 0 (the
    closure's Schreier tree).  ``index`` maps each element to its position."""

    def __init__(self, index: dict, generators, right, parent, column):
        self.elements = tuple(index)
        self.generators = tuple(generators)
        self._index = index
        self._right = right
        self._parent, self._column = parent, column
        self._inverse = self._inverse_table()
        self._table: Optional[tuple] = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._index

    def index(self, g) -> int:
        """The position of g in elements; a non-member is a UsageError."""
        i = self._index.get(g)
        if i is None:
            raise UsageError(f"{g!r} is not in the group")
        return i

    @property
    def identity(self):
        return self.elements[0]

    def _inverse_table(self) -> list:
        """inverse[i] is the index of elements[i]^-1.  For the word
        s_1 ... s_L of elements[i] (s_L = column[i], its parent spells the
        rest) that is the walk from the identity through the inverse
        generator permutations s_L^-1, ..., s_1^-1, read up the tree."""
        undo = [[0] * len(self._right) for _ in self.generators]
        for i, row in enumerate(self._right):
            for j, k in enumerate(row):
                undo[j][k] = i  # elements[k] * generators[j]^-1 = elements[i]
        parent, column = self._parent, self._column
        inverse = []
        for x in range(len(self._right)):
            y = 0
            while x:
                y, x = undo[column[x]][y], parent[x]
            inverse.append(y)
        return inverse

    def _times(self, a: int, b: int) -> int:
        """The index of elements[a] * elements[b]: a walk from a through
        ``right`` along the word of b, read down the tree."""
        word = []
        while b:
            word.append(self._column[b])
            b = self._parent[b]
        right = self._right
        for j in reversed(word):
            a = right[a][j]
        return a

    def inverse_of(self, g):
        return self.elements[self._inverse[self.index(g)]]

    def class_table(self) -> tuple:
        """(classes, class_of, transversal) on indices, built once: orbits of
        conjugation by the generators, each walked breadth first from its least
        member r, members sorted; transversal[y] is t_y with t_y r t_y^-1 = y."""
        if self._table is None:
            inv, right = self._inverse, self._right
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

    def _conjugating(self, i: int, j: int) -> Optional[int]:
        """The index of t_j t_i^-1, which conjugates elements[i] to
        elements[j], when the two share a class, else None."""
        _, class_of, transversal = self.class_table()
        if class_of[i] != class_of[j]:
            return None
        return self._times(transversal[j], self._inverse[transversal[i]])

    def conjugator(self, s, target):
        """t_target t_s^-1 when s and target share a class, else None."""
        h = self._conjugating(self.index(s), self.index(target))
        return None if h is None else self.elements[h]


def generate_closure(generators, cap: int = 100_000) -> FiniteGroup:
    """Breadth-first closure of the generators; raises if it grows past cap."""
    generators = list(generators)
    if not generators:
        raise UsageError("generate_closure needs at least one generator")
    order = [generators[0].identity()]
    index = {order[0]: 0}
    right, parent, column = [], [0], [0]
    for i, cur in enumerate(order):  # grows while walked: breadth first
        row = []
        for j, gen in enumerate(generators):
            cand = cur * gen
            k = index.get(cand)
            if k is None:
                k = index[cand] = len(order)
                order.append(cand)
                parent.append(i)
                column.append(j)
                if len(order) > cap:
                    raise ClosureCapExceeded(f"closure exceeded cap {cap}")
            row.append(k)
        right.append(row)
    return FiniteGroup(index, generators, right, parent, column)


def element_order(g, bound: int = DEFAULT_ORDER_BOUND) -> OrderResult:
    """Order by iterated multiplication; no eigenvalue shortcuts.  g^bound
    is the last power formed, so an order above the bound costs bound - 1
    products.

    Each step multiplies g on the left, g * g^m rather than g^m * g: the
    power is the same, but a product acts by its left factor, so the action
    of g (for ``SL2VElement`` the cached ``rho(g.h)``) is reused at every
    step instead of the action of g^m being built afresh."""
    if bound < 1:
        raise UsageError("bound must be >= 1")
    identity = g.identity()
    acc, m = g, 1
    while acc != identity:
        if m == bound:
            return OrderResult(None)
        acc, m = g * acc, m + 1
    return OrderResult(m)


def is_real_bruteforce(G: FiniteGroup, g) -> Optional[Certificate]:
    """g is real iff g^-1 lies in its class; the certified witness is the
    class-table conjugator t_{g^-1} t_g^-1 (the identity for an involution)."""
    h = G.conjugator(g, G.inverse_of(g))
    return None if h is None else Certificate.make(g, h, Inverse())


def is_rational_bruteforce(G: FiniteGroup, g) -> Optional[dict]:
    """Certificates {k: h_k} for every k coprime to Ord(g), or None if some
    such g^k lies outside the class of g.  h_1 = e; every other h_k is the
    class-table conjugator t_{g^k} t_g^-1.  The powers g^k are walked on
    indices."""
    i = G.index(g)
    m = element_order(g, bound=len(G)).value
    certs = {1: Certificate.make(g, G.identity, Power(1))}
    power = i
    for k in range(2, m):
        power = G._times(power, i)
        if gcd(k, m) != 1:
            continue
        h = G._conjugating(i, power)
        if h is None:
            return None
        certs[k] = Certificate.make(g, G.elements[h], Power(k))
    return certs
