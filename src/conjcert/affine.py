"""Rationality in affine groups GL(n, F) |x F^n from a finite-order linear
part, over every field.

The conjugators g_k x g_k^-1 = x^k of the linear part come from one cyclic
decomposition F^n = Z(u_1) + ... + Z(u_r) of x, with invariant factors
f_r | ... | f_1 (Hoffman & Kunze, *Linear Algebra*, 7.2).  It needs only
polynomial gcds and division, no factoring, so it is the same over Q, Q(i)
and F_p, and for p | m, where x is not semisimple.  For k coprime to the
order of x, y = x^k and x are polynomials in each other, so each Z(u_i) is
y-cyclic too and the same seeds decompose y, with invariant factors the
minimal polynomials of the u_i under y.  So x and y are conjugate exactly
when f_i(y) u_i = 0 for every i: then g_k = B_y B_x^-1 sends x^j u_i to
y^j u_i, and otherwise the first i that fails names the invariant factor
that moved, a proof that x is not rational.  Each g_k is the identity on
Q = F^n / im(x - I), since x^(kj) u = x^j u = u there.

Everything about x is derived once per x, by
``rationality_certificates_linear``: the order of x, the conjugators g_k,
the functionals that cut out im(x - I), and, on the first v outside
im(x - I) in characteristic 0, the eigenvalue-1 splitting.  Each g_k is
checked there to be invertible, to conjugate x to x^k and to fix Q.
``classify_affine_rational`` reads that result for each v; when x is not
rational, it decides every (x, v) not rational.

Every certificate for (x, v) is h = c g_k, completed by the translation w
that ``semidirect``'s witness equation (I - y) w = t - h v solves, t the
translation of the target.  The power (x, v)^k has translation
S_k v = (I + x + ... + x^(k-1)) v, and S_k acts on Q as k, so the equation
is consistent exactly when c v = k v in Q:

- v in im(x - I): c = 1; (x, v) is conjugate to (x, 0) and has the order
  of x.
- characteristic 0, v outside im(x - I): the kernel component of v
  telescopes, so (x, v) has infinite order and rational and real coincide;
  the inverse witness takes h = -g_(m-1) (h = -I when m <= 2).
- characteristic p, v outside im(x - I): the order N of (x, v) is m or p m,
  a multiple of p, so each k coprime to N is a unit and h = k g_(k mod m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional

from .errors import SingularMatrixError, TheoremViolation, UsageError
from .groups import Certificate, Power, element_power
from .linalg import Matrix, Vector, column_space_basis, kernel_basis, solve_linear
from .semidirect import AffineElement, make_power_witness, make_real_witness

__all__ = [
    "EigenOneSplitting",
    "LinearRationalityResult",
    "AffineRationalityResult",
    "split_at_eigenvalue_one",
    "rationality_certificates_linear",
    "classify_affine_rational",
]

TELESCOPE_STEPS = 30


@dataclass(frozen=True)
class EigenOneSplitting:
    """Basis-adapted decomposition F^n = ker(x - I) + im(x - I)."""

    kernel: tuple
    image: tuple
    change_of_basis: Matrix
    inverse_basis: Matrix
    restricted: Matrix  # x on the image block, in the image basis

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def split_at_eigenvalue_one(x: Matrix) -> EigenOneSplitting:
    """Validated splitting at the eigenvalue 1; the caller has checked that
    x has finite order."""
    x._require_square("split_at_eigenvalue_one")
    n = x.rows
    shifted = x - Matrix.identity_of(x.field, n)
    kernel = kernel_basis(shifted)
    image = column_space_basis(shifted)
    if len(kernel) + len(image) != n:
        raise UsageError("kernel and image dimensions do not add up; "
                         "x is not semisimple at 1")
    P = Matrix.from_columns(x.field, list(kernel) + list(image))
    if not P.det():
        raise UsageError("kernel and image intersect nontrivially; "
                         "x is not semisimple at 1")
    P_inv = P.inverse()
    adapted = P_inv * x * P
    d = len(kernel)
    for i in range(n):
        for j in range(n):
            expected_identity = i < d and j < d
            if expected_identity and adapted[i, j] != (x.field.one() if i == j else x.field.zero()):
                raise UsageError("x does not act as the identity on its fixed space")
            if (i < d) != (j < d) and adapted[i, j] != x.field.zero():
                raise UsageError("splitting is not x-invariant")
    restricted = Matrix(x.field, n - d, n - d,
                        tuple(adapted[i, j] for i in range(d, n) for j in range(d, n)))
    return EigenOneSplitting(tuple(kernel), tuple(image), P, P_inv, restricted)


@dataclass(frozen=True)
class LinearRationalityResult:
    """What (x, v) needs to know about x, derived once per x: its order,
    conjugators g_k with g_k x g_k^-1 = x^k for the generating powers, each
    the identity on F^n / im(x - I), and the functionals ``cokernel`` whose
    common kernel is im(x - I).  ``not_rational`` lists the k for which x^k
    has other invariant factors than x, a proof that x is not rational;
    ``note`` names the first such k and the factor that moved."""

    x: Matrix
    order: int
    certificates: dict
    cokernel: tuple
    not_rational: tuple
    note: str = ""

    @property
    def complete(self) -> bool:
        return not self.not_rational

    @cached_property
    def splitting(self) -> EigenOneSplitting:
        """The eigenvalue-1 splitting of x, built on first use."""
        return split_at_eigenvalue_one(self.x)


# -- polynomials: lists of field scalars, lowest degree first ----------------

def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by the monic b."""
    rem = list(a)
    quotient = []
    for i in reversed(range(len(a) - len(b) + 1)):
        c = rem[i + len(b) - 1]
        quotient.append(c)
        if c:
            for j, coeff in enumerate(b):
                rem[i + j] = rem[i + j] - c * coeff
    rem = rem[:len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quotient[::-1], rem


def _gcd(a: list, b: list) -> list:
    """Monic gcd of the monic a and b, by Euclid."""
    while b:
        b = [c / b[-1] for c in b]
        a, b = b, _divmod(a, b)[1]
    return a


def _mul(a: list, b: list) -> list:
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = out[i + j] + c * d
    return out


def _coprime_split(a: list, b: list) -> tuple[list, list]:
    """Coprime a' | a and b' | b with a' b' = lcm(a, b), from gcds alone:
    start from (a, b / gcd(a, b)) and move common factors from a' to b'.
    Prime by prime, a' keeps the power of a where a has the larger one."""
    a_part, b_part = a, _divmod(b, _gcd(a, b))[0]
    while True:
        common = _gcd(a_part, b_part)
        if len(common) == 1:
            return a_part, b_part
        a_part, b_part = _divmod(a_part, common)[0], _mul(b_part, common)


def _format_poly(field, p: list) -> str:
    """p in the variable t, highest degree first, as in "t^2 + (6)t + 1"."""
    terms = []
    for j in reversed(range(len(p))):
        if p[j]:
            coeff = field.format(p[j])
            mono = "" if j == 0 else "t" if j == 1 else f"t^{j}"
            terms.append(coeff if not mono else mono if p[j] == field.one()
                         else f"({coeff}){mono}")
    return " + ".join(terms)


# -- the cyclic decomposition -------------------------------------------------

def _krylov_block(a: Matrix, u: Vector, length: int) -> list[Vector]:
    """u, a u, ..., a^(length-1) u."""
    block = [u]
    for _ in range(length - 1):
        block.append(a.apply(block[-1]))
    return block


def _combine(coeffs: list, vectors: list[Vector]) -> Vector:
    total = vectors[0].scale(coeffs[0])
    for c, v in zip(coeffs[1:], vectors[1:]):
        total = total + v.scale(c)
    return total


def _poly_apply(p: list, a: Matrix, u: Vector) -> Vector:
    """p(a) u."""
    return _combine(p, _krylov_block(a, u, len(p)))


def _annihilator(a: Matrix, u: Vector, limit: int) -> list:
    """The minimal polynomial of the nonzero u under a, of degree d at most
    limit: columns d, ..., limit of [u, a u, ..., a^limit u] are the free
    ones, and the first kernel vector, cut after its 1 at d, gives the
    first dependency."""
    krylov = Matrix.from_columns(a.field, _krylov_block(a, u, limit + 1))
    kernel = kernel_basis(krylov)
    return list(kernel[0].entries[:limit + 2 - len(kernel)])


def _cyclic_decomposition(x: Matrix) -> list[tuple[Vector, list]]:
    """Seeds (u_i, f_i) of a cyclic decomposition of x, f_i the minimal
    polynomial of u_i, with f_(i+1) | f_i.

    On the x-invariant W that Z(u_1), ..., Z(u_(i-1)) leave (F^n at first),
    u_i merges basis vectors of W until its minimal polynomial f is that of
    x on W: w with f(x) w != 0 and minimal polynomial g is merged through
    the coprime split a b = lcm(f, g), as (f/a)(x) u + (g/b)(x) w.  The next
    W is {w in W : lam(x^j w) = 0 for j < deg f}, with lam(x^j u) = 1 at
    j = deg f - 1 and 0 below: it is x-invariant because f(x) = 0 on W, and
    it meets Z(u) trivially because lam(x^(i+j) u) is triangular."""
    field, n = x.field, x.rows
    rest = [Vector.unit(field, n, i) for i in range(n)]
    seeds = []
    while rest:
        u, f = rest[0], _annihilator(x, rest[0], len(rest))
        for w in rest[1:]:
            if len(f) > len(rest):  # deg f = dim W: u already spans W
                break
            if _poly_apply(f, x, w).is_zero():
                continue
            g = _annihilator(x, w, len(rest))
            a, b = _coprime_split(f, g)
            u = _poly_apply(_divmod(f, a)[0], x, u) + _poly_apply(_divmod(g, b)[0], x, w)
            f = _mul(a, b)
        seeds.append((u, f))
        d = len(f) - 1
        krylov = Matrix.from_columns(field, _krylov_block(x, u, d))
        lam = solve_linear(krylov.transpose(), Vector.unit(field, d, d - 1))
        functionals = Matrix.from_rows(
            field, [row.entries for row in _krylov_block(x.transpose(), lam, d)])
        W = Matrix.from_columns(field, rest)
        rest = [W.apply(c) for c in kernel_basis(functionals * W)]
    return seeds


def _cyclic_conjugators(x: Matrix):
    """A map y -> (g, None) with g x = y g, for y = x^k and k coprime to the
    order of x, or y -> (None, (i, f_i, g_i)) when the i-th invariant factor
    f_i of x is g_i for y, so that y is not conjugate to x."""
    seeds = _cyclic_decomposition(x)
    basis_inv = Matrix.from_columns(
        x.field, [v for u, f in seeds for v in _krylov_block(x, u, len(f) - 1)]).inverse()

    def conjugator(y: Matrix):
        images = []
        for i, (u, f) in enumerate(seeds):
            block = _krylov_block(y, u, len(f))
            if not _combine(f, block).is_zero():
                return None, (i, f, _annihilator(y, u, len(f) - 1))
            images += block[:-1]
        return Matrix.from_columns(x.field, images) * basis_inv, None

    return conjugator


def rationality_certificates_linear(x: Matrix, m: int) -> LinearRationalityResult:
    """Conjugators g x g^-1 = x^k for every generating power k, read off one
    cyclic decomposition of x, or the k for which none exists.  Each g is
    checked here, once per x, to be invertible, to conjugate x to x^k and to
    fix every functional on F^n / im(x - I); a failure is a
    TheoremViolation."""
    x._require_square("rationality_certificates_linear")
    ident = Matrix.identity_of(x.field, x.rows)
    if x ** m != ident:
        raise UsageError(f"x^{m} != I")
    powers = [ident]  # x^0, ..., x^(order - 1), by one running product
    power = x
    while power != ident:
        powers.append(power)
        power = power * x
    order = len(powers)
    # g is the identity on F^n / im(x - I) iff g^T fixes these functionals
    cokernel = tuple(kernel_basis((x - ident).transpose()))
    conjugator = _cyclic_conjugators(x) if order > 2 else None
    certs = {1: ident}
    not_rational = []
    note = ""
    for k, target in enumerate(powers[2:], start=2):
        if gcd(k, order) != 1:
            continue
        g, moved = conjugator(target)
        if moved is not None:
            i, f, g_i = moved
            not_rational.append(k)
            note = note or (f"x^{k} is not conjugate to x: invariant factor {i + 1} is "
                            f"{_format_poly(x.field, f)} for x and "
                            f"{_format_poly(x.field, g_i)} for x^{k}")
            continue
        try:
            g.inverse()
        except SingularMatrixError:
            raise TheoremViolation(f"cyclic-basis conjugator for k = {k} is singular") from None
        if g * x != target * g:
            raise TheoremViolation(f"cyclic-basis conjugator fails g x = x^{k} g")
        if any(g.transpose().apply(phi) != phi for phi in cokernel):
            raise TheoremViolation(f"cyclic-basis conjugator for k = {k} moves "
                                   f"F^n / im(x - I)")
        certs[k] = g
    return LinearRationalityResult(x, order, certs, cokernel, tuple(not_rational), note)


@dataclass(frozen=True)
class AffineRationalityResult:
    """Verdict on (x, v).  "rational" carries a power certificate for every
    k coprime to the order of (x, v).  For "infinite_order" (characteristic
    0, v outside im(x - I)), ``reality`` is the inverse certificate, since
    rational and real coincide there; ``kernel_component`` and
    ``telescope`` are set on that route only.  "not_rational" carries no
    certificate: x itself is not rational, and the note says why."""

    verdict: str  # "rational" | "infinite_order" | "not_rational"
    order: Optional[int]
    certificates: dict
    kernel_component: Optional[Vector] = None
    telescope: tuple = ()
    reality: Optional[Certificate] = None
    note: str = ""


def classify_affine_rational(linear: LinearRationalityResult, v: Vector,
                             bound: Optional[int] = None) -> AffineRationalityResult:
    """Rationality of (x, v) from what ``rationality_certificates_linear``
    derived about x; an order of (x, v) above ``bound`` is refused.  If x is
    not rational, neither is (x, v), since (x, v)^k ~ (x, v) would make
    x^k ~ x.  Otherwise each certificate is h = c g_k with the translation
    from the witness equation, c as in the module docstring; on the
    infinite-order route the eigenvalue-1 splitting gives the kernel
    component of v, and each telescoped step is checked to grow it
    linearly."""
    if not linear.complete:
        return AffineRationalityResult("not_rational", None, {}, note=linear.note)
    x, order, certs = linear.x, linear.order, linear.certificates
    field = x.field
    subject = AffineElement(x, v)
    in_image = all(not phi.dot(v) for phi in linear.cokernel)
    if not in_image and field.characteristic == 0:
        # x has finite order, so it is semisimple and the splitting exists;
        # v outside im(x - I) has a nonzero kernel component
        splitting = linear.splitting
        d = splitting.kernel_dim
        v_kernel = Vector(field, splitting.inverse_basis.apply(v).entries[:d])
        telescope = []
        tele = Vector.zero(field, v.dim)
        for l in range(1, TELESCOPE_STEPS + 1):
            tele = x.apply(tele) + v  # S_l v = (I + x + ... + x^(l-1)) v
            tele_kernel = Vector(field, splitting.inverse_basis.apply(tele).entries[:d])
            expected = v_kernel.scale(field.coerce(l))
            if tele_kernel != expected:
                raise TheoremViolation(
                    f"telescoped kernel coordinate at step {l} is {tele_kernel!r}, "
                    f"expected {expected!r}")
            telescope.append(tele_kernel)
        h = -(certs[order - 1] if order > 2 else certs[1])
        return AffineRationalityResult(
            "infinite_order", None, {}, kernel_component=v_kernel,
            telescope=tuple(telescope), reality=make_real_witness(x, v, h),
            note="kernel component grows linearly, so (x, v) has infinite order; "
                 "rational iff real")

    finite = element_power(subject, order) == subject.identity()
    if in_image and not finite:
        raise TheoremViolation(f"(x, v)^{order} != e although v lies in im(x - I)")
    p = field.characteristic
    n_order = order if finite else order * p
    if bound is not None and n_order > bound:
        raise UsageError(f"order {n_order} of (x, v) exceeds bound = {bound}")
    certificates = {1: Certificate.make(subject, subject.identity(), Power(1))}
    for k in range(2, n_order):
        if gcd(k, n_order) == 1:
            h = certs[k % order] if k % order > 1 else certs[1]
            if not in_image:
                h = h.scale(field.coerce(k))
            certificates[k] = make_power_witness(x, v, h, k)
    note = ("v in im(x - I), so (x, v) is conjugate to (x, 0)" if in_image else
            f"v outside im(x - I) in characteristic {p}: (x, v) has order "
            f"{n_order}, a multiple of {p}, and h = k g_k is the witness for each power k")
    return AffineRationalityResult("rational", n_order, certificates, note=note)
