import pytest

from tlschur import oracle
from tlschur.linalg import Matrix, flatten, unflatten


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


@pytest.fixture(scope="session")
def dense_split():
    """The flat split test: Hom(Q, M) from hom_space and the full (dim M)^2 retraction system.

    The reference the weight-diagonal split test in the oracle must agree
    with: some combination of F_k o X_j over the slots k and a hom basis X_j
    equals the identity.  None when dim Q * dim M exceeds the split limit.
    """

    def split(f_components, cur, q):
        if q.dim * cur.dim > oracle._SPLIT_LIMIT:
            return None
        hom_back = oracle.hom_space(q, cur, verify=False)
        if not hom_back:
            return False
        system = flatten(F @ B.matrix for F in f_components for B in hom_back).transpose()
        ident = flatten([Matrix.identity(cur.algebra.field, cur.dim)]).transpose()
        return system.solve_many(ident) is not None

    return split
