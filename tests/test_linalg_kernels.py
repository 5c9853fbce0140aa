"""The zero-skipping elimination and the integer product kernels against a
dense reference, the cached integer view's invisibility, the scalar work of
one large kron system, of one matrix power and of one finite closure, and
the hashing of one finite build, and traced benchmark runs that must still
see every linalg layer."""

import copy
import dataclasses
import itertools
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conjcert.cli import DEFAULT_BOUND, build_report
from conjcert.errors import SingularMatrixError, UsageError
from conjcert.fields import GF, QQ, QQI, FpElement, GaussianRational
from conjcert.groups import generate_closure
from conjcert.linalg import Matrix, Vector, kernel_basis, solve_linear
from conjcert.semidirect import AffineElement
from conformance_fixtures import bench_module, count_calls, kron, traced_run

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
FIELDS = {
    "QQ": (QQ, small_rationals),
    "GF5": (GF(5), st.integers(min_value=1, max_value=4).map(lambda v: FpElement(v, 5))),
    "QQI": (QQI, st.builds(GaussianRational, small_rationals, small_rationals)),
}
sizes = st.integers(min_value=1, max_value=6)

# Large, mutually different denominators: where one common denominator per
# matrix inflates the integer numerators most.  (5/3)^k and (-7/2)^k reach
# the heights of rho's entries at degree 24; the rest go up to 10^12.
tall_rationals = st.one_of(
    st.builds(lambda j, k: Fraction(5, 3) ** j * Fraction(-7, 2) ** k,
              st.integers(-24, 24), st.integers(-24, 24)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12),
)
PRODUCT_FIELDS = {**FIELDS, "QQtall": (QQ, tall_rationals)}


@st.composite
def sparse_matrices(draw, field_name, rows=None, cols=None):
    """A rows x cols matrix with roughly 30 % of its entries drawn nonzero."""
    field, values = PRODUCT_FIELDS[field_name]
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


def _zero_line(M, data, axis):
    """M with one drawn row (axis 0) or column (axis 1) set to zero, or M."""
    count = M.rows if axis == 0 else M.cols
    line = data.draw(st.one_of(st.none(), st.integers(0, count - 1)))
    if line is None:
        return M
    zero = M.field.zero()
    return Matrix(M.field, M.rows, M.cols,
                  tuple(zero if (i, j)[axis] == line else M[i, j]
                        for i in range(M.rows) for j in range(M.cols)))


@pytest.mark.parametrize("field_name", sorted(PRODUCT_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_match_dense_reference(field_name, data):
    one_or_more = st.one_of(st.just(1), sizes)  # 1 x 1 shapes come up often
    rows, inner, cols = (data.draw(one_or_more) for _ in range(3))
    A = _zero_line(data.draw(sparse_matrices(field_name, rows, inner)), data, 0)
    B = _zero_line(data.draw(sparse_matrices(field_name, inner, cols)), data, 1)
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


def test_mixed_moduli_still_raise_where_nonzero_entries_meet():
    """An F_5 entry inside a matrix or vector labelled F_3 passes the field
    check, and the integer kernel refuses it where it meets a nonzero."""
    stray = Matrix(GF(3), 1, 1, (FpElement(1, 5),))
    with pytest.raises(UsageError, match="mixed moduli"):
        stray * Matrix.from_rows(GF(3), [[1]])
    with pytest.raises(UsageError, match="mixed moduli"):
        Matrix.from_rows(GF(3), [[1]]).apply(Vector(GF(3), (FpElement(1, 5),)))


# Each operation once over two fields, where the nonzero entries meet and
# where they never do (disjoint supports): all are refused alike.
_i = GaussianRational.of(0, 1)
_A3 = Matrix.from_rows(GF(3), [[1, 0], [0, 0]])
TWO_FIELD_OPERATIONS = {
    "QQ*QQI": lambda: Matrix.from_rows(QQ, [[1, Fraction(1, 2)]])
    * Matrix.from_rows(QQI, [[_i], [2]]),
    "QQ.apply(QQI)": lambda: Matrix.from_rows(QQ, [[1, Fraction(1, 2)]]).apply(
        Vector.of(QQI, [_i, 2])),
    "GF3*GF5": lambda: _A3 * Matrix.from_rows(GF(5), [[1, 2], [3, 4]]),
    "GF3*GF5-disjoint": lambda: _A3 * Matrix.from_rows(GF(5), [[0, 0], [3, 4]]),
    "GF3.apply(GF5)-disjoint": lambda: _A3.apply(Vector.of(GF(5), [0, 2])),
    "GF4099*GF4111": lambda: Matrix.identity_of(GF(4099), 2) * Matrix.identity_of(GF(4111), 2),
    "QQ+QQI-vector": lambda: Vector.of(QQ, [1, 2]) + Vector.of(QQI, [_i, 2]),
    "GF3-GF5-vector": lambda: Vector.of(GF(3), [1, 0]) - Vector.of(GF(5), [0, 1]),
    "QQ.dot(QQI)": lambda: Vector.of(QQ, [1, 2]).dot(Vector.of(QQI, [_i, 2])),
    "QQ+QQI-matrix": lambda: Matrix.identity_of(QQ, 2) + Matrix.identity_of(QQI, 2),
    "GF3-GF5-matrix": lambda: _A3 - Matrix.from_rows(GF(5), [[0, 0], [0, 0]]),
}


@pytest.mark.parametrize("operation", TWO_FIELD_OPERATIONS.values(), ids=TWO_FIELD_OPERATIONS)
def test_operands_over_two_fields_are_refused(operation):
    with pytest.raises(UsageError, match="two fields"):
        operation()


@pytest.mark.parametrize("field", [QQ, GF(5), QQI], ids=["QQ", "GF5", "QQI"])
def test_products_with_an_empty_dimension(field):
    empty_inner = Matrix(field, 2, 0, ()) * Matrix(field, 0, 3, ())
    assert empty_inner == Matrix.from_rows(field, [[0, 0, 0], [0, 0, 0]])
    assert Matrix(field, 2, 0, ()).apply(Vector(field, ())) == Vector.zero(field, 2)
    assert Matrix(field, 0, 2, ()) * Matrix.identity_of(field, 2) == Matrix(field, 0, 2, ())
    assert Matrix(field, 0, 2, ()).apply(Vector.zero(field, 2)) == Vector(field, ())


@pytest.mark.parametrize("field, rows", [
    (QQ, [[Fraction(1, 2), 0, Fraction(-7, 3)], [0, 0, 0], [5, Fraction(2, 9), 1]]),
    (GF(5), [[1, 0, 4], [0, 0, 0], [2, 3, 1]]),
    (QQI, [["1/2+1 i", 0, 3], [0, 0, 0], ["-2 i", 1, "1/3"]]),
], ids=["QQ", "GF5", "QQI"])
def test_cached_integer_view_is_invisible(field, rows):
    """A product leaves the matrix comparing, hashing, printing, pickling,
    copying and replacing exactly as before it.  The hash is kept on the
    instance like the integer view, and no pickle or copy carries either."""
    A = Matrix.from_rows(field, rows)

    def observe(M):
        return (M == Matrix.from_rows(field, rows), hash(M), repr(M), pickle.dumps(M),
                pickle.dumps(copy.copy(M)), pickle.dumps(copy.deepcopy(M)),
                pickle.dumps(dataclasses.replace(M)))

    before = observe(A)
    assert "_hash" in vars(A)
    square = A * A
    image = A.apply(Vector.of(field, [1, 2, 3]))
    assert observe(A) == before
    for twin in (pickle.loads(pickle.dumps(A)), copy.copy(A), copy.deepcopy(A),
                 dataclasses.replace(A)):
        assert "_hash" not in vars(twin) and "_ints" not in vars(twin)
        assert twin == A and twin * twin == square
        assert twin.apply(Vector.of(field, [1, 2, 3])) == image
    rebuilt = Matrix.from_rows(field, rows)
    assert rebuilt == A and A == rebuilt and hash(rebuilt) == hash(A)
    assert {A: 1}[rebuilt] == 1


# -- work guard ---------------------------------------------------------------

def test_kernel_basis_multiplication_budget(monkeypatch):
    """The 64x64 system kron(I, x^T) - kron(x^5, I) for the order-12,
    dimension-8 linear part of the affine benchmark has 518 nonzeros.  A
    dense elimination makes 109,056 Fraction multiplications on it; the
    zero-skipping one makes about 21,400."""
    workloads = bench_module("workloads")
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


def test_integer_products_make_no_scalar_arithmetic(monkeypatch):
    """x ** 12 for the order-12, dimension-8 linear part of the affine
    benchmark: a scalar product loop makes 655 Fraction.__mul__ and 655
    Fraction.__add__ calls on it, the integer kernel none."""
    workloads = bench_module("workloads")
    order, blocks = next((order, blocks) for name, order, blocks, _ in
                         workloads.AFFINE_LINEAR_PARTS if name == "o12_d8")
    rows, _ = workloads._linear_part(order, blocks)
    x = Matrix.from_rows(QQ, rows)
    calls = [count_calls(monkeypatch, Fraction, name)
             for name in ("__mul__", "__rmul__", "__add__", "__radd__")]
    power = x ** 12
    monkeypatch.undo()
    assert list(map(len, calls)) == [0, 0, 0, 0]
    assert power.is_identity()


def test_finite_closure_multiplication_budget(monkeypatch):
    """One closure of GL(2,3) x| F_3^2: 432 elements, 2,160 products of
    affine elements.  Scalar product loops make 8,424 FpElement.__mul__
    calls in it and the integer kernels none; the budget of 500 leaves room
    for scalar work outside the products, not for a scalar product loop."""
    workloads = bench_module("workloads")
    field = GF(3)
    gens = [AffineElement.of(Matrix.from_rows(field, rows), [0, 0])
            for rows in workloads.GL23_GENERATORS]
    gens += [AffineElement.of(Matrix.identity_of(field, 2), v) for v in ([1, 0], [0, 1])]
    calls = [count_calls(monkeypatch, FpElement, name) for name in ("__mul__", "__rmul__")]
    G = generate_closure(gens)
    monkeypatch.undo()
    assert len(G.elements) == 432
    assert sum(map(len, calls)) <= 500, list(map(len, calls))


def test_finite_build_hashing_budget(monkeypatch):
    """One seed-1 finite_gl23 build.  Each matrix computes its hash once, so
    the lookups of the closure, the class table and the oracle rehash no
    matrix entry; the 2x2 translations are still rehashed per lookup.  The
    build made 48,498 FpElement.__hash__ calls when every lookup rehashed
    its matrix too, 27,778 when inverses and powers were multiplied out and
    looked up, and makes 15,858 now that they are index walks."""
    scenario = bench_module("workloads").finite_gl23(1)[0][0]
    hashes = count_calls(monkeypatch, FpElement, "__hash__")
    report = build_report(scenario, 1, DEFAULT_BOUND)
    monkeypatch.undo()
    assert len(report["results"]) == len(scenario["elements"])
    assert len(hashes) <= 17_500, len(hashes)


# -- tracer smoke test ----------------------------------------------------------

KERNEL_METRICS = ("linalg.matmul_calls", "linalg.matmul_s", "linalg.apply_calls",
                  "linalg.apply_s")


@pytest.mark.parametrize("workload", ["affine_kron", "finite_gl23", "sl2v_sweep", "lift_verify"])
def test_traced_benchmark_sees_every_linalg_layer(workload):
    """bench/tracer.py wraps Matrix.__mul__, Matrix.apply, Matrix.det,
    Matrix.inverse, solve_linear, kernel_basis and column_space_basis by
    name, and counts the scalar operators of each field.  A kernel that
    routes products past those names, or leaves a metric the tracer maps
    to the workload (fields.q_ops on affine_kron, fields.fp_ops on
    finite_gl23, sl2.order_probe_mults on sl2v_sweep, semidirect.lift_calls
    on lift_verify, ...) at zero, fails here.  The linalg kernel metrics are
    required where matrices are multiplied: on affine_kron and finite_gl23."""
    proc = traced_run(workload)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout.decode(errors="replace")[-2000:]
    values = {name: m["value"] for name, m in summary["metrics"].items()}
    required = {name for name, _, nonzero_on in bench_module("tracer").PER_LAYER
                if workload in nonzero_on}
    if workload in ("affine_kron", "finite_gl23"):
        required.update(KERNEL_METRICS)
    assert {"fields.q_ops", "fields.fp_ops", "fields.qqi_ops"} & required
    zero = sorted(name for name in required if not values[name])
    assert not zero, {name: values[name] for name in sorted(required)}
