"""Rationality in affine groups GL(n) |x F^n from a rational finite-order
linear part.

In characteristic zero a finite-order x is semisimple, so
F^n = ker(x - I) + im(x - I) splits exactly and stays computable over Q;
no Jordan form over R is needed.
Over Q the conjugators g x g^-1 = x^k of the linear part are read off
cyclic (Krylov) bases: each primary component ker Phi_d(x) is a sum of
cyclic subspaces with minimal polynomial Phi_d, and the same seeds span
them for x and for x^k, so every finite-order x over Q is rational.  Over
other fields the conjugators come from the solution space of g x = x^k g.
Every certificate for (x, v) pairs a conjugator h of the linear part with
the translation w that ``semidirect``'s one witness equation
(I - y) w = c - h v solves.  If v lies in im(x - I), then (x, v) is
conjugate to (x, 0) by a pure translation, so it has the order of x and
every conjugator of x carries over.  Otherwise (characteristic zero) the
kernel component of v telescopes, so (x, v) has infinite order, and its
inverse witness takes h = -1 on the kernel and the block conjugator of
x -> x^-1 on the image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import (ConjcertError, FixedPointError, SingularMatrixError, TheoremViolation,
                     UsageError)
from .fields import QQ
from .groups import Certificate, Power, element_order, element_power
from .linalg import (
    Matrix,
    Vector,
    column_space_basis,
    kernel_basis,
    kron,
    solve_linear,
)
from .semidirect import AffineElement, make_power_witness, make_real_witness

__all__ = [
    "EigenOneSplitting",
    "LinearRationalityResult",
    "AffineRationalityResult",
    "split_at_eigenvalue_one",
    "rationality_certificates_linear",
    "extract_block_certificate",
    "classify_affine_rational",
    "telescoped_translation",
]

DEFAULT_RETRIES = 64
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

    @property
    def image_dim(self) -> int:
        return len(self.image)


def split_at_eigenvalue_one(x: Matrix, m: int) -> EigenOneSplitting:
    """Validated splitting at the eigenvalue 1 for x with x^m = I."""
    x._require_square("split_at_eigenvalue_one")
    n = x.rows
    ident = Matrix.identity_of(x.field, n)
    if x ** m != ident:
        raise UsageError(f"x^{m} != I; not a finite-order input")
    shifted = x - ident
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
    """Conjugators g_k with g_k x g_k^-1 = x^k for the generating powers.

    Over Q the result is always complete.  Over other fields
    ``not_rational`` lists k whose conjugation equation has no solution at
    all (a proof that x is not rational); ``inconclusive`` lists k where a
    solution space exists but no invertible member was found within the
    retry budget."""

    order: int
    certificates: dict
    not_rational: tuple
    inconclusive: tuple

    @property
    def complete(self) -> bool:
        return not self.not_rational and not self.inconclusive


def _divide_monic(p: list, q: list) -> list:
    """Quotient of the integer polynomial p by the monic q, both lowest
    degree first; the division is exact wherever it is used here."""
    p = list(p)
    quotient = [0] * (len(p) - len(q) + 1)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = p[i + len(q) - 1]
        for j, b in enumerate(q):
            p[i + j] -= c * b
    return quotient


def _cyclotomic_polynomials(m: int) -> dict:
    """Phi_d for every d | m, lowest degree first: t^d - 1 divided by the
    Phi_e of its proper divisors e."""
    phis = {}
    for d in range(1, m + 1):
        if m % d == 0:
            poly = [-1] + [0] * (d - 1) + [1]
            for e, q in phis.items():
                if d % e == 0:
                    poly = _divide_monic(poly, q)
            phis[d] = poly
    return phis


def _poly_at(coeffs: list, x: Matrix) -> Matrix:
    """The integer polynomial with the given coefficients at x (Horner)."""
    ident = Matrix.identity_of(x.field, x.rows)
    result = Matrix.zero_of(x.field, x.rows, x.cols)
    for c in reversed(coeffs):
        result = result * x + ident.scale(c)
    return result


def _krylov_block(a: Matrix, u: Vector, length: int) -> list[Vector]:
    """u, a u, ..., a^(length-1) u."""
    block = [u]
    for _ in range(length - 1):
        block.append(a.apply(block[-1]))
    return block


def _krylov_conjugators(x: Matrix, order: int):
    """A map y -> g with g x g^-1 = y, for y = x^k and k coprime to order.

    x is semisimple over Q, and on V_d = ker Phi_d(x) its minimal
    polynomial is the irreducible Phi_d, so each nonzero u in V_d spans a
    cyclic subspace Z(u) of dimension phi(d), and Z(u) either meets a sum
    of such subspaces trivially or lies inside it, as u does.  Seeds kept
    greedily from a basis of each V_d therefore give a basis B_x of Q^n
    from their Krylov blocks.  y = x^k is a polynomial in x with the same
    minimal polynomial Phi_d on V_d, so the Krylov blocks of y from the
    same seeds give a basis B_y, and g = B_y B_x^-1 sends x^j u to y^j u,
    hence g x = y g."""
    seeds, columns = [], []
    for phi in _cyclotomic_polynomials(order).values():
        length = len(phi) - 1
        basis = kernel_basis(_poly_at(phi, x))
        kept = []
        for u in basis:
            if len(kept) == len(basis):
                break
            if kept and solve_linear(Matrix.from_columns(x.field, kept), u) is not None:
                continue
            seeds.append((u, length))
            kept += _krylov_block(x, u, length)
        columns += kept
    basis_inv = Matrix.from_columns(x.field, columns).inverse()

    def conjugator(y: Matrix) -> Matrix:
        images = []
        for u, length in seeds:
            images += _krylov_block(y, u, length)
        return Matrix.from_columns(x.field, images) * basis_inv

    return conjugator


def _coprime_powers(x: Matrix, order: int):
    """(k, x^k) for 1 < k < order coprime to order, by one running product."""
    power = x
    for k in range(2, order):
        power = power * x
        if gcd(k, order) == 1:
            yield k, power


def _conjugation_solution_space(x: Matrix, target: Matrix) -> list[Matrix]:
    """Basis of {g : g x = target g} as matrices (row-major flattening)."""
    n = x.rows
    ident = Matrix.identity_of(x.field, n)
    op = kron(ident, x.transpose()) - kron(target, ident)
    return [Matrix(x.field, n, n, tuple(vec.entries)) for vec in kernel_basis(op)]


def _invertible_combination(basis: list[Matrix], rng: random.Random,
                            retries: int) -> Optional[Matrix]:
    for g in basis:
        if g.det():
            return g
    field = basis[0].field
    for _ in range(retries):
        combo = Matrix.zero_of(field, basis[0].rows, basis[0].cols)
        for g in basis:
            combo = combo + g.scale(field.coerce(rng.randint(-3, 3)))
        if combo.det():
            return combo
    return None


def rationality_certificates_linear(x: Matrix, m: int, seed: int = 0,
                                    retries: int = DEFAULT_RETRIES) -> LinearRationalityResult:
    """Conjugators g x g^-1 = x^k for every generating power k.

    Over Q each g is built from cyclic (Krylov) bases, so the result is
    always complete.  Over other fields g is solved from g x = x^k g over
    the matrix space, and an invertible solution is picked
    deterministically: basis elements first, then seeded random
    small-coefficient combinations; ``seed`` and ``retries`` only matter
    there."""
    x._require_square("rationality_certificates_linear")
    ident = Matrix.identity_of(x.field, x.rows)
    if x ** m != ident:
        raise UsageError(f"x^{m} != I")
    order = element_order(x, bound=m + 1).value
    krylov = _krylov_conjugators(x, order) if x.field is QQ and order > 2 else None
    rng = random.Random(seed)
    certs = {1: ident}
    not_rational = []
    inconclusive = []
    for k, target in _coprime_powers(x, order):
        if krylov is not None:
            g = krylov(target)
        else:
            basis = _conjugation_solution_space(x, target)
            if not basis:
                not_rational.append(k)
                continue
            g = _invertible_combination(basis, rng, retries)
            if g is None:
                inconclusive.append(k)
                continue
        assert g * x * g.inverse() == target
        certs[k] = g
    return LinearRationalityResult(order, certs, tuple(not_rational), tuple(inconclusive))


def extract_block_certificate(g: Matrix, x: Matrix, k: int,
                              splitting: EigenOneSplitting) -> Matrix:
    """Restrict a conjugator g x g^-1 = x^k to the image block.

    In the adapted basis the block of g mapping the kernel summand into the
    image summand must vanish (the image action has no eigenvalue 1); a
    violation is reported entry by entry since it would contradict the
    restriction argument."""
    if g * x * g.inverse() != x ** k:
        raise UsageError("g does not conjugate x to x^k")
    d = splitting.kernel_dim
    n = x.rows
    adapted = splitting.inverse_basis * g * splitting.change_of_basis
    offending = [(i, j, adapted[i, j])
                 for i in range(d, n) for j in range(d)
                 if adapted[i, j] != x.field.zero()]
    if offending:
        raise ConjcertError(f"mixing block failed to vanish at {offending}")
    block = Matrix(x.field, n - d, n - d,
                   tuple(adapted[i, j] for i in range(d, n) for j in range(d, n)))
    try:
        block_inv = block.inverse()
    except SingularMatrixError:
        raise ConjcertError("restricted block is singular") from None
    if block * splitting.restricted * block_inv != splitting.restricted ** k:
        raise ConjcertError("restricted block fails the conjugation relation")
    return block


def telescoped_translation(x: Matrix, v: Vector, l: int) -> Vector:
    """(x^(l-1) + ... + x + I) v, the translation part of (x, v)^l, built
    by the step t -> x t + v from t = 0."""
    total = Vector.zero(x.field, v.dim)
    for _ in range(l):
        total = x.apply(total) + v
    return total


@dataclass(frozen=True)
class AffineRationalityResult:
    """Verdict on (x, v).  For "infinite_order", ``reality`` is the inverse
    certificate built from the kernel/image splitting; rational and real
    coincide there, and ``reality_refuted`` is always False.
    ``kernel_component`` and ``telescope`` are set on that route only."""

    verdict: str  # "rational" | "infinite_order" | "inconclusive"
    order: Optional[int]
    certificates: dict
    kernel_component: Optional[Vector] = None
    telescope: tuple = ()
    reality: Optional[Certificate] = None
    reality_refuted: bool = False
    note: str = ""


def _block_diagonal(splitting: EigenOneSplitting, c, block: Matrix) -> Matrix:
    """P (c I_K + block) P^-1: c on the kernel summand, block on the image."""
    field = splitting.restricted.field
    d = splitting.kernel_dim
    n = d + splitting.image_dim
    z = field.zero()
    entries = []
    for i in range(n):
        for j in range(n):
            if i < d or j < d:
                entries.append(c if i == j else z)
            else:
                entries.append(block[i - d, j - d])
    return (splitting.change_of_basis * Matrix(field, n, n, tuple(entries))
            * splitting.inverse_basis)


def _inverse_witness(x: Matrix, v: Vector, order: int, certs: dict,
                     splitting: EigenOneSplitting) -> Certificate:
    """Certificate g (x, v) g^-1 = (x, v)^-1 for any v.

    The linear part is h = P (-I_K + g_I) P^-1, where g_I conjugates x to
    x^-1 on the image (the identity when order <= 2, where x is -1 there),
    so h x h^-1 = x^-1.  The translation equation (I - x^-1) w = -x^-1 v - h v
    is always consistent: x^-1 fixes and h negates the kernel component of
    v, so its kernel rows vanish."""
    field = x.field
    if order <= 2:
        block = Matrix.identity_of(field, splitting.image_dim)
    else:
        block = extract_block_certificate(certs[order - 1], x, order - 1, splitting)
    h = _block_diagonal(splitting, -field.one(), block)
    try:
        return make_real_witness(x, v, h)
    except FixedPointError:
        raise TheoremViolation("inverse witness translation equation is inconsistent") from None


def classify_affine_rational(x: Matrix, v: Vector, m: int, certs: dict,
                             telescope_steps: int = TELESCOPE_STEPS) -> AffineRationalityResult:
    """Rationality of (x, v) given conjugators for the linear part.

    If v lies in im(x - I), say v = (x - I) w, then c = (I, w) gives
    (x, v) = c^-1 (x, 0) c, so (x, v) has the order of x (checked once) and
    ``make_power_witness`` completes each conjugator g_k of x to a witness.
    Otherwise, in characteristic zero, (x, v) has infinite order: its
    kernel component telescopes linearly, rational and real coincide, and
    the inverse witness is constructed from the splitting and the
    k = order - 1 conjugator.  Over finite characteristic that case is
    inconclusive."""
    x._require_square("classify_affine_rational")
    ident = Matrix.identity_of(x.field, x.rows)
    if x ** m != ident:
        raise UsageError(f"x^{m} != I")
    order = element_order(x, bound=m + 1).value
    needed = []
    for k, power in _coprime_powers(x, order):
        g = certs.get(k)
        if g is None:
            raise UsageError(f"missing conjugator for k = {k}")
        try:
            g_inv = g.inverse()
        except SingularMatrixError:
            g_inv = None
        if g_inv is None or g * x * g_inv != power:
            raise UsageError(f"supplied conjugator for k = {k} fails verification")
        needed.append(k)

    subject = AffineElement(x, v)
    if solve_linear(x - ident, v) is not None:
        if element_power(subject, order) != subject.identity():
            raise TheoremViolation(f"(x, v)^{order} != e although v lies in im(x - I)")
        certificates = {1: Certificate.make(subject, subject.identity(), Power(1))}
        for k in needed:
            certificates[k] = make_power_witness(x, v, certs[k], k)
        return AffineRationalityResult(
            "rational", order, certificates,
            note="v in im(x - I), so (x, v) is conjugate to (x, 0)")

    if x.field.characteristic != 0:
        return AffineRationalityResult(
            "inconclusive", None, {},
            note="v outside im(x - I) over finite characteristic: the "
                 "telescoping order argument needs characteristic zero")

    # characteristic zero: x has finite order, so it is semisimple and the
    # splitting exists; v outside im(x - I) has a nonzero kernel component
    splitting = split_at_eigenvalue_one(x, order)
    d = splitting.kernel_dim
    v_kernel = Vector(x.field, splitting.inverse_basis.apply(v).entries[:d])
    telescope = []
    tele = Vector.zero(x.field, v.dim)
    for l in range(1, telescope_steps + 1):
        tele = x.apply(tele) + v  # telescoped_translation(x, v, l), one step on
        tele_kernel = Vector(x.field, splitting.inverse_basis.apply(tele).entries[:d])
        expected = v_kernel.scale(x.field.coerce(l))
        if tele_kernel != expected:
            raise TheoremViolation(
                f"telescoped kernel coordinate at step {l} is {tele_kernel!r}, "
                f"expected {expected!r}")
        telescope.append(tele_kernel)
    return AffineRationalityResult(
        "infinite_order", None, {}, kernel_component=v_kernel,
        telescope=tuple(telescope),
        reality=_inverse_witness(x, v, order, certs, splitting),
        note="kernel component grows linearly, so (x, v) has infinite order; "
             "rational iff real")
