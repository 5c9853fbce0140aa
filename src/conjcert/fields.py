"""Exact scalar fields: the rationals, the Gaussian rationals and prime fields.

Every scalar is an immutable value with exact arithmetic; nothing in this
package ever touches floating point.  Rationals are ``Fraction``; a Gaussian
rational is one reduced integer triple (a + b i) / d with a common
denominator, so its arithmetic is integer products and one gcd rather than
normalised Fraction pairs; a residue mod p is boxed with its modulus.  A
small ``Field`` object bundles the zero/one constants, coercion and the
lossless string round-trip used by the scenario/report formats ("p/q",
"p/q+r/s i", plain residues mod p).

These scalar operators are what elimination and ``dot`` run on.
Matrix products and ``apply`` over ℚ and 𝔽_p leave them: the integer kernels
of :mod:`conjcert.linalg` multiply and add plain ``int`` numerators or
residues, and box each result entry once, as a ``Fraction`` or as the shared
element of ``PrimeField.residues`` (tabulated for p up to
``RESIDUE_TABLE_MAX``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import UsageError

# ASCII digits only: int() also takes "_" separators, and both int() and \d
# take the digits of other scripts, such as "٣" and "３".  Each token is
# matched once and its groups read by int(), which then sees only ASCII digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
# a + b i: an optionally signed real part, then exactly one sign and an
# unsigned imaginary part; or a pure imaginary term with its own optional
# sign.  An omitted imaginary coefficient means 1.
_GAUSSIAN_RE = re.compile(
    r"(?P<a>[+-]?[0-9]+)(?:/(?P<ad>[1-9][0-9]*))?"
    r"(?:\s*(?P<s>[+-])\s*(?:(?P<b>[0-9]+)(?:/(?P<bd>[1-9][0-9]*))?\s*)?i)?"
    r"|(?P<t>[+-]?)(?:(?P<c>[0-9]+)(?:/(?P<cd>[1-9][0-9]*))?\s*)?i")

__all__ = [
    "Field",
    "RationalField",
    "GaussianRationalField",
    "PrimeField",
    "GaussianRational",
    "FpElement",
    "QQ",
    "QQI",
    "GF",
    "is_prime",
]

RESIDUE_TABLE_MAX = 1 << 12  # largest p whose elements PrimeField.residues tabulates


def is_prime(n: int) -> bool:
    """Trial division; moduli in this package are tiny."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GaussianRational:
    """Element (a + b i) / d of Q(i), kept as one reduced integer triple:
    d > 0 and gcd(a, b, d) = 1, so equal values have equal triples.  An
    operation costs a few integer products and one gcd.  ``re`` and ``im``
    read the value back as Fractions, and a value with im = 0 equals and
    hashes like its Fraction.

    Instances are immutable: the slots are filled by their C-level
    descriptors in ``_reduced``, so construction runs no Python-level
    ``__setattr__``, while assignment from outside raises."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re, im):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _reduced(re.numerator * (d // re.denominator),
                        im.numerator * (d // im.denominator), d)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __add__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        return _reduced(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return _reduced(a * d, -b * d, norm)

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient((self._a, self._b, self._d), o)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient(o, (self._a, self._b, self._d))

    def __eq__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # Rational values must hash like their Fraction counterpart so that
        # GaussianRational(3, 0) == Fraction(3) stays consistent.
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)} i"


_new_gaussian = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new_gaussian(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _triple(value):
    """The triple (a, b, d) of a Q(i) operand, or None for a foreign type."""
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


def _quotient(x, y) -> GaussianRational:
    """(a + b i)/d divided by (c + e i)/f: multiply through by f (c - e i)."""
    a, b, d = x
    c, e, f = y
    norm = c * c + e * e
    if not norm:
        raise ZeroDivisionError("division by 0 in Q(i)")
    return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * norm)


def _strict_fraction(token: str, original: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise UsageError(f"not an exact scalar (decimals rejected): {original!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


@dataclass(frozen=True)
class FpElement:
    """Residue in the prime field F_p."""

    value: int
    p: int

    def _check(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise UsageError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other % self.p, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement((self.value + other.value) % self.p, self.p)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(-self.value % self.p, self.p)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement((self.value - other.value) % self.p, self.p)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement((self.value * other.value) % self.p, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.p}")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


class Field:
    """Common interface: constants, coercion and string round-trip."""

    characteristic: int = 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, value) -> str:
        return str(value)


class RationalField(Field):
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, GaussianRational) and value.im == 0:
            return value.re
        raise UsageError(f"cannot coerce {value!r} into Q")

    def parse(self, text: str):
        return _strict_fraction(text.strip(), text)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class GaussianRationalField(Field):
    characteristic = 0

    def zero(self):
        return _reduced(0, 0, 1)

    def one(self):
        return _reduced(1, 0, 1)

    def coerce(self, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value, 0)
        if isinstance(value, str):
            return self.parse(value)
        raise UsageError(f"cannot coerce {value!r} into Q(i)")

    def parse(self, text: str):
        """Reads "p/q", "p/q+r/s i", "p/q-r/s i" and "r/s i" (the space
        before i is optional, and "i" alone is 1 i) straight into the reduced
        triple."""
        match = _GAUSSIAN_RE.fullmatch(text.strip())
        if match is None:
            raise UsageError(f"not an exact scalar (decimals rejected): {text!r}")
        a, ad, sign, b, bd, pure_sign, c, cd = match.groups()
        if a is None:  # a pure imaginary term
            a, sign, b, bd = "0", pure_sign or "+", c, cd
        im = (int(b) if b else 1) if sign else 0
        if sign == "-":
            im = -im
        ad = int(ad) if ad else 1
        bd = int(bd) if bd else 1
        return _reduced(int(a) * bd, im * ad, ad * bd)

    def format(self, value) -> str:
        value = self.coerce(value)
        return str(value)

    def __repr__(self):
        return "QQi"

    def __eq__(self, other):
        return isinstance(other, GaussianRationalField)

    def __hash__(self):
        return hash("QQi")


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    @cached_property
    def residues(self):
        """All p elements as a tuple indexed by residue, one shared instance
        each, or None for p above RESIDUE_TABLE_MAX.  The integer kernels of
        :mod:`conjcert.linalg` box their results from it."""
        if self.p > RESIDUE_TABLE_MAX:
            return None
        return tuple(FpElement(r, self.p) for r in range(self.p))

    def coerce(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise UsageError(f"element of F_{value.p} used in F_{self.p}")
            return value
        if isinstance(value, int):
            return FpElement(value % self.p, self.p)
        if isinstance(value, str):
            return self.parse(value)
        raise UsageError(f"cannot coerce {value!r} into F_{self.p}")

    def parse(self, text: str):
        token = text.strip()
        if not _INTEGER_RE.fullmatch(token):
            raise UsageError(f"not a residue mod {self.p}: {text!r}")
        return FpElement(int(token) % self.p, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __reduce__(self):
        return GF, (self.p,)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()
QQI = GaussianRationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field F_p (instances cached per modulus)."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field
