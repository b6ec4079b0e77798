import numpy as np
import pytest
from scipy.linalg import expm as mat_exp

from logconnect import commuting, sylvester_solve
from logconnect.algebra import simultaneous_eigenbasis
from logconnect.errors import DimensionMismatch, ResonantSpectrum, SingularMatrix

from conftest import mat_log_normalized


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        A = np.diag([2j * np.pi * 0.25, 0.0])
        assert np.allclose(mat_exp(A), np.diag([1j, 1.0]), atol=1e-12)

    def test_nilpotent(self):
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(mat_exp(N), np.eye(2) + N, atol=1e-14)


class TestMatLogNormalized:
    def test_identity(self):
        assert np.allclose(mat_log_normalized(np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_diag_minus_one(self):
        A = mat_log_normalized(np.diag([1.0, -1.0]))
        assert np.allclose(A, np.diag([0.0, 0.5]), atol=1e-10)

    def test_swap_matrix(self):
        # eigenbasis-conjugate of diag(0, 1/2): verify exp(2 pi i A) = M
        M = np.array([[0, 1], [1, 0]], dtype=complex)
        A = mat_log_normalized(M)
        assert np.allclose(mat_exp(2j * np.pi * A), M, atol=1e-10)
        assert np.allclose(sorted(np.linalg.eigvals(A).real), [0.0, 0.5], atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            mat_log_normalized(np.array([[1, 0], [0, 0]], dtype=complex))

    def test_strip_and_roundtrip_random(self, nprng):
        for _ in range(50):
            m = int(nprng.integers(2, 6))
            M = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            A = mat_log_normalized(M)
            assert np.linalg.norm(mat_exp(2j * np.pi * A) - M) < 1e-9 * np.linalg.norm(M)
            re = np.linalg.eigvals(A).real
            assert np.all(re >= -1e-9) and np.all(re < 1.0)

    def test_jordan_block(self):
        M = np.array([[-1, 1], [0, -1]], dtype=complex)
        A = mat_log_normalized(M)
        assert np.allclose(mat_exp(2j * np.pi * A), M, atol=1e-9)
        assert np.allclose(np.linalg.eigvals(A).real, [0.5, 0.5], atol=1e-9)


class TestSylvester:
    def test_decoupled_diagonal(self):
        X = sylvester_solve(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.eye(2))
        assert np.allclose(X, np.diag([1.0, 0.5]), atol=1e-12)

    def test_shifted_identity(self):
        X = sylvester_solve(np.zeros((2, 2)), -np.eye(2), np.eye(2))
        assert np.allclose(X, np.eye(2), atol=1e-12)

    def test_kronecker_oracle(self, nprng):
        # independent oracle: vectorized solve of (I (x) A - B^T (x) I) x = c
        for _ in range(10):
            A = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3))
            B = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3)) + 10.0 * np.eye(3)
            C = nprng.normal(size=(3, 3)) + 1j * nprng.normal(size=(3, 3))
            K = np.kron(np.eye(3), A) - np.kron(B.T, np.eye(3))
            X_oracle = np.linalg.solve(K, C.reshape(-1, order="F")).reshape((3, 3), order="F")
            X = sylvester_solve(A, B, C)
            assert np.allclose(X, X_oracle, atol=1e-8 * np.linalg.norm(X_oracle))

    def test_residual_bound_many(self, nprng):
        for _ in range(1000):
            m = int(nprng.integers(1, 7))
            A = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            B = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m)) + 8.0 * np.eye(m)
            C = nprng.normal(size=(m, m)) + 1j * nprng.normal(size=(m, m))
            X = sylvester_solve(A, B, C)
            res = np.linalg.norm(A @ X - X @ B - C)
            bound = 1e-9 * (np.linalg.norm(A) + np.linalg.norm(B)) * max(np.linalg.norm(X), 1.0)
            assert res < bound

    def test_resonant_rejected(self):
        with pytest.raises(ResonantSpectrum):
            sylvester_solve(np.diag([1.0, 2.0]), np.diag([2.0, 5.0]), np.eye(2))


class TestCommuting:
    def test_diagonal(self):
        assert commuting([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])

    def test_nilpotent_pair(self):
        N1 = np.array([[0, 1], [0, 0]], dtype=float)
        N2 = np.array([[0, 0], [1, 0]], dtype=float)
        assert not commuting([N1, N2])

    def test_polynomials_commute(self, nprng):
        A = nprng.normal(size=(4, 4)) + 1j * nprng.normal(size=(4, 4))
        assert commuting([A, A @ A, A + np.eye(4)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commuting([np.eye(2), np.eye(3)])


def diagonal_in(V, rows):
    """The family V diag(d) V^-1, one matrix per row d."""
    return [V @ np.diag(d) @ np.linalg.inv(V) for d in rows]


class TestSimultaneousEigenbasis:
    V = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25j], [0.3, 0.0, 1.0]])
    FAMILY = diagonal_in(V, [[1.0, 2.0, 3.0], [1j, -1.0, 1j]])

    @staticmethod
    def search(family, first=None):
        return simultaneous_eigenbasis(family, lambda kappa: 1e-10, 1e8, first)

    def test_a_search_is_stateless(self, nprng):
        # bitwise the same basis on every call, whatever ran before it: no generator
        # state, global or seeded, enters the search
        before = self.search(self.FAMILY)
        np.random.seed(5)
        nprng.normal(size=100)
        self.search(diagonal_in(np.eye(2) + 0.5j, [[1.0, 2.0]]))
        after = self.search(self.FAMILY)
        assert all(np.array_equal(a, b) for a, b in zip(before, after, strict=True))

    def test_a_known_basis_is_tried_first(self):
        # a basis the family is diagonal in is taken as it is; one it is not diagonal in
        # falls through to the same combinations as a search given none
        W = 2.0 * self.V
        assert self.search(self.FAMILY, W)[0] is W
        fallback, plain = self.search(self.FAMILY, np.eye(3)), self.search(self.FAMILY)
        assert all(np.array_equal(a, b) for a, b in zip(fallback, plain, strict=True))
