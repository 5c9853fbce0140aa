"""The zero-skipping elimination and products against a dense reference, the
scalar work of one large kron system, and a traced benchmark run that must
still see every linalg layer."""

import importlib.util
import itertools
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conjcert.errors import SingularMatrixError
from conjcert.fields import GF, QQ, QQI, FpElement, GaussianRational
from conjcert.linalg import Matrix, Vector, kernel_basis, kron, solve_linear

ROOT = pathlib.Path(__file__).resolve().parent.parent

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
FIELDS = {
    "QQ": (QQ, small_rationals),
    "GF5": (GF(5), st.integers(min_value=1, max_value=4).map(lambda v: FpElement(v, 5))),
    "QQI": (QQI, st.builds(GaussianRational, small_rationals, small_rationals)),
}
sizes = st.integers(min_value=1, max_value=6)


@st.composite
def sparse_matrices(draw, field_name, rows=None, cols=None):
    """A rows x cols matrix with roughly 30 % of its entries drawn nonzero."""
    field, values = FIELDS[field_name]
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    entries = tuple(draw(values) if draw(st.integers(0, 9)) < 3 else field.zero()
                    for _ in range(rows * cols))
    return Matrix(field, rows, cols, entries)


# -- dense reference: textbook loops over every entry, zeros included --------

def dense_rows(A):
    return [[A[i, j] for j in range(A.cols)] for i in range(A.rows)]


def dense_dot(field, u, w):
    total = field.zero()
    for a, b in zip(u, w):
        total = total + a * b
    return total


def dense_apply(A, w):
    return [dense_dot(A.field, row, w) for row in dense_rows(A)]


def leibniz_det(A):
    total = A.field.zero()
    for perm in itertools.permutations(range(A.rows)):
        term = A.field.one()
        for i, j in enumerate(perm):
            term = term * A[i, j]
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total = total - term if inversions % 2 else total + term
    return total


def dense_rank(rows):
    """Rank by forward elimination that updates every entry of every row."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- differential tests -------------------------------------------------------

@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_and_inverse_match_dense_reference(field_name, data):
    n = data.draw(sizes)
    A = data.draw(sparse_matrices(field_name, n, n))
    det = leibniz_det(A)
    assert A.det() == det
    if det:
        assert A * A.inverse() == Matrix.identity_of(A.field, n)
    else:
        with pytest.raises(SingularMatrixError):
            A.inverse()


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_and_solve_match_dense_reference(field_name, data):
    A = data.draw(sparse_matrices(field_name))
    field = A.field
    rank = dense_rank(dense_rows(A))

    basis = kernel_basis(A)
    assert len(basis) == A.cols - rank
    for w in basis:
        assert not any(dense_apply(A, w.entries))
    assert dense_rank([w.entries for w in basis]) == len(basis)

    b = data.draw(sparse_matrices(field_name, A.rows, 1))
    rhs = Vector(field, b.entries)
    augmented_rank = dense_rank([row + [c] for row, c in zip(dense_rows(A), rhs)])
    w = solve_linear(A, rhs)
    assert (w is not None) == (augmented_rank == rank)
    if w is not None:
        assert dense_apply(A, w.entries) == list(rhs.entries)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_match_dense_reference(field_name, data):
    A = data.draw(sparse_matrices(field_name))
    B = data.draw(sparse_matrices(field_name, A.cols))
    columns = [[B[t, j] for t in range(B.rows)] for j in range(B.cols)]
    product = A * B
    for j, column in enumerate(columns):
        assert [product[i, j] for i in range(A.rows)] == dense_apply(A, column)
        assert A.apply(Vector(A.field, tuple(column))).entries == tuple(dense_apply(A, column))
    u, w = dense_rows(A)[0], columns[0]
    assert Vector(A.field, tuple(u)).dot(Vector(A.field, tuple(w))) == dense_dot(A.field, u, w)
    K = kron(A, B)
    assert all(K[ia * B.rows + ib, ja * B.cols + jb] == A[ia, ja] * B[ib, jb]
               for ia, ib, ja, jb in itertools.product(range(A.rows), range(B.rows),
                                                       range(A.cols), range(B.cols)))


# -- work guard ---------------------------------------------------------------

def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_basis_multiplication_budget(monkeypatch):
    """The 64x64 system kron(I, x^T) - kron(x^5, I) for the order-12,
    dimension-8 linear part of the affine benchmark has 518 nonzeros.  A
    dense elimination makes 109,056 Fraction multiplications on it; the
    zero-skipping one makes about 21,400."""
    workloads = _bench_workloads()
    order, blocks = next((order, blocks) for name, order, blocks, _ in
                         workloads.AFFINE_LINEAR_PARTS if name == "o12_d8")
    rows, _ = workloads._linear_part(order, blocks)
    x = Matrix.from_rows(QQ, rows)
    ident = Matrix.identity_of(QQ, x.rows)
    op = kron(ident, x.transpose()) - kron(x ** 5, ident)
    assert op.rows == op.cols == 64

    count = [0]
    multiply = Fraction.__mul__

    def counted(a, b):
        count[0] += 1
        return multiply(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    basis = kernel_basis(op)
    monkeypatch.undo()
    assert count[0] <= 30_000, count[0]
    for w in basis:
        assert not any(dense_apply(op, w.entries))


# -- tracer smoke test ----------------------------------------------------------

def test_traced_benchmark_sees_every_linalg_layer():
    """bench/tracer.py wraps Matrix.det, Matrix.inverse, solve_linear,
    kernel_basis and column_space_basis by name; a refactor that routes
    elimination past those names leaves a linalg metric at zero."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "affine_kron",
                           "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout.decode(errors="replace")[-2000:]
    linalg = {name: m["value"] for name, m in summary["metrics"].items()
              if name.startswith("linalg.")}
    assert linalg and all(linalg.values()), linalg
