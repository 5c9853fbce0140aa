import random
from fractions import Fraction

import pytest

from conjcert.errors import DimensionMismatch, SingularMatrixError
from conjcert.fields import GF, QQ
from conjcert.linalg import (
    Matrix,
    Vector,
    column_space_basis,
    has_fixed_point,
    kernel_basis,
    solve_linear,
)
from conformance_fixtures import kron


def mat(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def vec(values, field=QQ):
    return Vector.of(field, values)


def random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_invertible(rng, n, field=QQ):
    while True:
        if field is QQ:
            m = mat([[random_rational(rng) for _ in range(n)] for _ in range(n)])
        else:
            m = mat([[rng.randrange(field.p) for _ in range(n)] for _ in range(n)], field)
        if m.det():
            return m


def test_solve_identity():
    assert solve_linear(Matrix.identity_of(QQ, 2), vec([3, -1])) == vec([3, -1])


def test_solve_diagonal():
    A = mat([[2, 0], [0, "1/2"]])
    assert solve_linear(A, vec([1, 1])) == vec(["1/2", 2])


def test_solve_inconsistent():
    A = mat([[1, 1], [2, 2]])
    assert solve_linear(A, vec([1, 3])) is None
    # consistent singular system still yields a particular solution
    w = solve_linear(A, vec([1, 2]))
    assert w is not None and A.apply(w) == vec([1, 2])


def test_solve_shape_error():
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.identity_of(QQ, 2), vec([1, 2, 3]))


def test_kernel_zero_matrix_is_full_space():
    A = Matrix.zero_of(QQ, 3, 3)
    basis = kernel_basis(A)
    assert len(basis) == 3


def test_kernel_invertible_is_empty():
    assert kernel_basis(mat([[2, 1], [1, 1]])) == []


def test_kernel_rank_one():
    assert kernel_basis(mat([[0, 0], [0, 1]])) == [vec([1, 0])]


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(20):
        A = mat([[random_rational(rng) for _ in range(3)] for _ in range(3)])
        for k in kernel_basis(A):
            assert A.apply(k).is_zero()


def test_has_fixed_point():
    assert not has_fixed_point(mat([[2, 0], [0, "1/2"]]))
    assert has_fixed_point(Matrix.identity_of(QQ, 4))


def test_power_examples():
    A = mat([[1, 1], [0, 1]])
    assert A ** 0 == Matrix.identity_of(QQ, 2)
    assert A ** 3 == mat([[1, 3], [0, 1]])
    B = mat([[1, 1], [1, 0]], GF(2))
    assert B ** 3 == Matrix.identity_of(GF(2), 2)


def test_power_negative_and_additivity():
    rng = random.Random(3)
    for _ in range(10):
        A = random_invertible(rng, 2)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        assert A ** (m + n) == A ** m * A ** n


def test_inverse_exact_roundtrip():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for _ in range(15):
            A = random_invertible(rng, 3, field)
            assert A * A.inverse() == Matrix.identity_of(field, 3)
            b = (vec([random_rational(rng) for _ in range(3)]) if field is QQ
                 else vec([rng.randrange(5) for _ in range(3)], field))
            w = solve_linear(A, b)
            assert A.apply(w) == b


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        mat([[1, 1], [2, 2]]).inverse()


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        A = random_invertible(rng, 3)
        B = random_invertible(rng, 3)
        assert (A * B).det() == A.det() * B.det()


def test_column_space_basis():
    A = mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = column_space_basis(A)
    assert len(basis) == 2
    assert basis[0] == vec([1, 2, 0])


def test_kron_flattens_conjugation():
    # vec(A X B) = (A kron B^T) vec(X) for row-major vec
    rng = random.Random(9)
    A = random_invertible(rng, 2)
    B = random_invertible(rng, 2)
    X = mat([[random_rational(rng) for _ in range(2)] for _ in range(2)])
    lhs = A * X * B
    op = kron(A, B.transpose())
    flat = op.apply(Vector(QQ, X.entries))
    assert flat == Vector(QQ, lhs.entries)


def test_empty_matrix_degenerate_ops():
    E = Matrix(QQ, 0, 0, ())
    assert E.det() == 1
    assert E.inverse() == E
    assert E * E == E
