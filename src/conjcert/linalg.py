"""Exact linear algebra over the scalar fields in :mod:`conjcert.fields`.

Matrices and vectors are immutable value types with structural equality.
Every elimination goes through one routine, :func:`_echelon`: Gauss-Jordan
reduction to reduced row echelon form with the first nonzero pivot in
column order (exact scalars need no magnitude-based pivoting), which also
returns the determinant as the product of the pivots, negated once per row
swap.  ``Matrix.det``, ``kernel_basis``, ``column_space_basis`` and
``RowReduction`` read it; ``RowReduction`` keeps the row operations of
[A | I], which give ``Matrix.inverse`` and solve A w = b
(``solve_linear``) for many b at one product each.

Products and ``apply`` over ℚ and 𝔽_p run on integers.  Each matrix keeps,
computed once on first use, its nonzero entries per row as plain ``int``:
over ℚ scaled by one common denominator D (the lcm of the entry
denominators), over 𝔽_p the residues.  An output entry is accumulated in
``int`` and normalised once, as ``Fraction(s, D_A * D_B)`` or as the shared
residue-table element for s mod p; ``apply`` scales the vector the same way
once per call.  So a product makes no ``Fraction`` or ``FpElement``
arithmetic, where a scalar loop would normalise every ``+`` and ``*``.  The
view is kept on the instance outside ``==``, ``hash``, ``repr`` and the
pickled state, and so is the hash, cached the same way so that a matrix
looked up again rehashes no entry.  ``**`` is ``groups.element_power``.
ℚ(i), and 𝔽_p for p above ``fields.RESIDUE_TABLE_MAX``, take the scalar
loop, their only path.  ``*``, ``apply``, ``+``, ``-`` and ``dot``
refuse operands over two fields with ``UsageError``.

The other kernels skip zeros rather than multiply them out: the row update
runs over the nonzero entries of the pivot row and passes over rows whose
factor is zero; the scalar product loop runs over the nonzero entries of
both factors; ``dot`` skips zero factors.  The matrices met here
are mostly zero, so this removes most of the scalar operations.  The results
are the same as those of a dense loop: every field is exact, so a skipped
term is exactly zero, and the reduced row echelon form of a matrix is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Optional

from .errors import DimensionMismatch, SingularMatrixError, UsageError
from .fields import Field, PrimeField, RationalField
from .groups import element_power

__all__ = [
    "Matrix",
    "Vector",
    "RowReduction",
    "solve_linear",
    "kernel_basis",
    "has_fixed_point",
    "column_space_basis",
]


@dataclass(frozen=True)
class Vector:
    field: Field = dc_field(repr=False)
    entries: tuple

    @staticmethod
    def of(field: Field, values: Iterable) -> "Vector":
        return Vector(field, tuple(field.coerce(v) for v in values))

    @staticmethod
    def zero(field: Field, dim: int) -> "Vector":
        z = field.zero()
        return Vector(field, (z,) * dim)

    @staticmethod
    def unit(field: Field, dim: int, i: int) -> "Vector":
        z, o = field.zero(), field.one()
        return Vector(field, tuple(o if j == i else z for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        self._same_shape(other)
        return Vector(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._same_shape(other)
        return Vector(self.field, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, tuple(-a for a in self.entries))

    def scale(self, c) -> "Vector":
        c = self.field.coerce(c)
        return Vector(self.field, tuple(c * a for a in self.entries))

    def dot(self, other: "Vector"):
        self._same_shape(other)
        total = self.field.zero()
        for a, b in zip(self.entries, other.entries):
            if a and b:
                total = total + a * b
        return total

    def is_zero(self) -> bool:
        return all(not a for a in self.entries)

    def _same_shape(self, other):
        if not isinstance(other, Vector) or other.dim != self.dim:
            raise DimensionMismatch(f"vector dims {self.dim} vs {getattr(other, 'dim', '?')}")
        if other.field is not self.field:
            _same_field(self.field, other.field)

    def __repr__(self):
        return "Vector(" + ", ".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class Matrix:
    field: Field = dc_field(repr=False)
    rows: int
    cols: int
    entries: tuple  # row-major

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "Matrix":
        data = [tuple(field.coerce(v) for v in row) for row in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatch("ragged rows")
        return Matrix(field, nrows, ncols, tuple(v for row in data for v in row))

    @staticmethod
    def identity_of(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def from_columns(field: Field, columns: Iterable[Vector]) -> "Matrix":
        cols = list(columns)
        if not cols:
            return Matrix(field, 0, 0, ())
        n = cols[0].dim
        if any(c.dim != n for c in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix(field, n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols))))

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match shape")

    def __getitem__(self, ij) -> object:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(self.entries[i * self.cols + j] for i in range(self.rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def identity(self) -> "Matrix":
        """Identity of the same shape; lets matrices act as group elements."""
        self._require_square("identity")
        return Matrix.identity_of(self.field, self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            if other.field is not self.field:
                _same_field(self.field, other.field)
            m = other.cols
            if self._ints is not None:
                da, a_cols, a_vals = self._ints
                db, b_cols, b_vals = other._ints
                sums = []
                for cols, vals in zip(a_cols, a_vals):
                    acc = [0] * m
                    for t, x in zip(cols, vals):
                        for j, y in zip(b_cols[t], b_vals[t]):
                            acc[j] += x * y
                    sums += acc
                return Matrix(self.field, self.rows, m, _from_ints(self.field, da * db, sums))
            zero = self.field.zero()
            b_rows = [_nonzeros(other.row(t)) for t in range(other.rows)]
            out = []
            for i in range(self.rows):
                acc = [zero] * m
                for t, x in _nonzeros(self.row(i)):
                    for j, y in b_rows[t]:
                        acc[j] = acc[j] + x * y
                out += acc
            return Matrix(self.field, self.rows, m, tuple(out))
        if isinstance(other, Vector):
            return self.apply(other)
        return NotImplemented

    def apply(self, v: Vector) -> Vector:
        if self.cols != v.dim:
            raise DimensionMismatch(f"{self.rows}x{self.cols} applied to dim {v.dim}")
        if v.field is not self.field:
            _same_field(self.field, v.field)
        if self._ints is not None:
            da, a_cols, a_vals = self._ints
            dv, w = _scaled(self.field, v.entries)
            sums = [sum(map(mul, vals, map(w.__getitem__, cols)))
                    for cols, vals in zip(a_cols, a_vals)]
            return Vector(self.field, _from_ints(self.field, da * dv, sums))
        zero = self.field.zero()
        terms = _nonzeros(v.entries)
        out = []
        for i in range(self.rows):
            total = zero
            row = self.row(i)
            for t, y in terms:
                x = row[t]
                if x:
                    total = total + x * y
            out.append(total)
        return Vector(self.field, tuple(out))

    @cached_property
    def _ints(self) -> Optional[tuple[int, list, list]]:
        """(D, cols, vals): the tuples cols[i] and vals[i] list the nonzero
        entries of row i as column indices and ints, each entry being int / D (see
        ``_scaled``); None over the fields without an integer kernel.
        Computed on first use and kept in the instance dict, which ``==``,
        ``hash`` and ``repr`` never read and ``__getstate__`` leaves out."""
        scaled = _scaled(self.field, self.entries)
        if scaled is None:
            return None
        scale, ints = scaled
        c = self.cols
        cols, vals = [], []
        for i in range(self.rows):
            row = ints[i * c:(i + 1) * c]
            nonzero = tuple([j for j, x in enumerate(row) if x])
            cols.append(nonzero)
            vals.append(tuple([row[j] for j in nonzero]))
        return scale, cols, vals

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, kept like ``_ints``; the field's hash differs
        between processes, so ``__getstate__`` leaves both out."""
        return hash((self.field, self.rows, self.cols, self.entries))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_ints", None)
        state.pop("_hash", None)
        return state

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(self.entries[j * self.cols + i]
                            for i in range(self.cols) for j in range(self.rows)))

    def det(self):
        self._require_square("det")
        rows = [list(self.row(i)) for i in range(self.rows)]
        _, pivots, det = _echelon(rows, self.cols, self.field.one())
        return det if len(pivots) == self.rows else self.field.zero()

    def inverse(self) -> "Matrix":
        """Row-reduces [A | I] to [I | A^-1]."""
        self._require_square("inverse")
        reduced = RowReduction.of(self)
        if len(reduced.pivots) < self.rows:
            raise SingularMatrixError("matrix is singular")
        return reduced.transform

    def __pow__(self, k: int) -> "Matrix":
        self._require_square("power")
        return element_power(self, k)

    def is_identity(self) -> bool:
        return self.is_square and self == Matrix.identity_of(self.field, self.rows)

    def _same_shape(self, other):
        if not isinstance(other, Matrix) or (other.rows, other.cols) != (self.rows, self.cols):
            raise DimensionMismatch("shape mismatch")
        if other.field is not self.field:
            _same_field(self.field, other.field)

    def _require_square(self, what: str):
        if not self.is_square:
            raise UsageError(f"{what} requires a square matrix, got {self.rows}x{self.cols}")

    def __repr__(self):
        rows = [" ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)]
        return "Matrix[" + "; ".join(rows) + "]"


def _same_field(field: Field, other: Field) -> None:
    """Refuse two fields; callers test ``is`` first, so one field costs no call."""
    if other != field:
        raise UsageError(f"operands over two fields: {field!r} and {other!r}")


def _nonzeros(entries) -> list:
    """The (index, value) pairs of the nonzero entries."""
    return [(j, x) for j, x in enumerate(entries) if x]


def _scaled(field: Field, entries) -> Optional[tuple[int, list[int]]]:
    """(D, ints) with entries[k] = ints[k] / D: over Q, D is the lcm of the
    denominators; over F_p, D = 1 and ints are the residues.  None over the
    fields without an integer kernel: Q(i), and F_p above RESIDUE_TABLE_MAX."""
    if isinstance(field, RationalField):
        ratios = [x.as_integer_ratio() for x in entries]
        scale = lcm(*[d for _, d in ratios])
        return scale, [n * (scale // d) for n, d in ratios]
    if not isinstance(field, PrimeField) or field.residues is None:
        return None
    p = field.p
    for x in entries:
        if x.p != p:
            raise UsageError(f"mixed moduli {p} and {x.p}")
    return 1, [x.value for x in entries]


def _from_ints(field: Field, scale: int, sums: list[int]) -> tuple:
    """The field elements s / scale for the integer sums s, each normalised
    once; zero sums share one zero."""
    if isinstance(field, PrimeField):
        table, p = field.residues, field.p
        return tuple([table[s % p] for s in sums])
    zero = Fraction(0)
    if scale == 1:
        return tuple([Fraction(s) if s else zero for s in sums])
    return tuple([Fraction(s, scale) if s else zero for s in sums])


def _echelon(rows: list[list], ncols: int, one) -> tuple[list[list], list[int], object]:
    """In-place reduced row echelon form, pivoting in the first ncols columns.

    Returns (rows, pivot_columns, det), where det is the product of the
    pivots, negated once per row swap: the determinant when rows is square
    and every column has a pivot.  Only the nonzero entries of the pivot row
    enter the row update, and rows with a zero factor are left alone."""
    pivots: list[int] = []
    det = one
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        prow = rows[r]
        pivot = prow[col]
        det = det * pivot
        # entries left of col are zero: earlier columns are already reduced
        terms = [(col + j, x / pivot) for j, x in _nonzeros(prow[col:])]
        for j, x in terms:
            prow[j] = x
        for i, row in enumerate(rows):
            factor = row[col]
            if i != r and factor:
                for j, y in terms:
                    row[j] = row[j] - factor * y
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, det


@dataclass(frozen=True)
class RowReduction:
    """E A = R for the reduced row echelon form R of A, with R's pivot
    columns, from one elimination of [A | I]: E b is the last column of the
    reduced [A | b], so a system solved for many b is eliminated once."""

    matrix: Matrix
    pivots: tuple
    transform: Matrix

    @staticmethod
    def of(A: Matrix) -> "RowReduction":
        m, n = A.rows, A.cols
        z, o = A.field.zero(), A.field.one()
        aug = [list(A.row(i)) + [o if i == j else z for j in range(m)] for i in range(m)]
        aug, pivots, _ = _echelon(aug, n, o)
        return RowReduction(A, tuple(pivots),
                            Matrix(A.field, m, m, tuple(x for row in aug for x in row[n:])))

    def solve(self, b: Vector) -> Optional[Vector]:
        """The solution of A w = b with free coordinates zero, or None when
        E b is nonzero on a zero row of R."""
        reduced = self.transform.apply(b).entries
        if any(reduced[len(self.pivots):]):
            return None
        sol = [self.matrix.field.zero()] * self.matrix.cols
        for r, col in enumerate(self.pivots):
            sol[col] = reduced[r]
        return Vector(self.matrix.field, tuple(sol))


def solve_linear(A: Matrix, b: Vector) -> Optional[Vector]:
    """A particular solution of A w = b, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic."""
    if A.rows != b.dim:
        raise DimensionMismatch(f"{A.rows}x{A.cols} system with rhs dim {b.dim}")
    return RowReduction.of(A).solve(b)


def kernel_basis(A: Matrix) -> list[Vector]:
    """Exact basis of the null space; empty iff A is injective."""
    n = A.cols
    rows = [list(A.row(i)) for i in range(A.rows)]
    rows, pivots, _ = _echelon(rows, n, A.field.one())
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [A.field.zero()] * n
        vec[free] = A.field.one()
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(Vector(A.field, tuple(vec)))
    return basis


def column_space_basis(A: Matrix) -> list[Vector]:
    """Basis of the column space: the columns at the pivot positions."""
    rows = [list(A.row(i)) for i in range(A.rows)]
    _, pivots, _ = _echelon(rows, A.cols, A.field.one())
    return [A.column(j) for j in pivots]


def has_fixed_point(A: Matrix) -> bool:
    """Whether A fixes a nonzero vector, i.e. det(A - I) = 0."""
    A._require_square("has_fixed_point")
    return not (A - Matrix.identity_of(A.field, A.rows)).det()
