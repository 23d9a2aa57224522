import numpy as np
import pytest

from tlschur import _kernels
from tlschur.linalg import Matrix, unflatten


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # compile jitted kernels once so timed tests measure compute, not codegen
    a = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int64)
    packed = _kernels.pack_rows(a.astype(np.uint8))
    _kernels.gf2_rref(packed.copy(), 3)
    out = np.zeros_like(packed)
    _kernels.gf2_matmul(packed, 3, packed, out)
    _kernels.unpack_rows(packed, 3)
    for p in (2, 3, 5):
        inv = np.zeros(p, dtype=np.int64)
        for x in range(1, p):
            inv[x] = pow(x, p - 2, p)
        _kernels.gfp_rref(a % p, p, inv)
        _kernels.gfp_charpoly(a % p, p, inv)


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
