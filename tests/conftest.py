import pytest

from tlschur.linalg import Matrix, unflatten


@pytest.fixture(scope="session")
def dense_intertwiners():
    """The full-system solve of a X = X b: the reference the weight-graded solvers must match bit for bit.

    vec(a X - X b) = (a kron I - I kron b^T) vec(X) row-major, one block per
    pair, stacked and solved through kernel_basis_matrix on all m*n unknowns.
    """

    def solve(left, right):
        f = left[0].field
        m, n = left[0].nrows, right[0].nrows
        eye_m, eye_n = Matrix.identity(f, m), Matrix.identity(f, n)
        system = Matrix.vstack([a.kron(eye_n) - eye_m.kron(b.transpose()) for a, b in zip(left, right)])
        return unflatten(system.kernel_basis_matrix(), m, n)

    return solve
