import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmb.errors import DerivativeNotTraceless, NonHermitianInput, SingularState
from qmb.general import density_spectrum, rld_solve, sld_solve, state_eigensystem
from qmb.linalg import adjugate, entry_sum, raise_first_failure, small_matmul, trace_norm

from conftest import op_norm_inf, random_density, random_traceless_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestEigHermitian:
    """The eigensystem of a density matrix (`state_eigensystem`): descending
    order, reconstruction, the phase convention, the characteristic roots
    and the rejection of a non-Hermitian input."""

    def test_diagonal(self):
        vals, vecs = state_eigensystem(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(vals, [0.75, 0.25])
        assert np.allclose(vecs, np.eye(2)[:, ::-1])

    def test_pauli_x(self):
        vals, vecs = state_eigensystem(0.5 * (np.eye(2) + 0.5 * SX))
        assert np.allclose(vals, [0.75, 0.25])
        assert np.allclose(vecs[:, 0], np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(vecs[:, 1], np.array([1, -1]) / np.sqrt(2))

    def test_reconstruction_seed42(self):
        rho = random_density(np.random.default_rng(42), 3)
        vals, vecs = state_eigensystem(rho)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - rho)) <= 1e-10 * np.max(np.abs(rho))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(3))) <= 1e-10

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_density(rng, 4)
            _, v1 = state_eigensystem(rho)
            _, v2 = state_eigensystem(rho * np.float64(1.0))
            assert np.allclose(v1, v2)
            for k in range(4):
                idx = int(np.argmax(np.abs(v1[:, k])))
                pivot = v1[idx, k]
                assert abs(pivot.imag) <= 1e-12 and pivot.real > 0

    def test_matches_characteristic_roots_2x2(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(rng, 2)
            tr = np.trace(rho).real
            det = np.linalg.det(rho).real
            disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
            roots = np.array([tr / 2 + disc, tr / 2 - disc])
            vals, _ = state_eigensystem(rho)
            assert np.max(np.abs(vals - roots)) <= 1e-10 * max(1.0, np.max(np.abs(roots)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            state_eigensystem(np.array([[0.5, 0.5], [0.0, 0.5]]))


class TestNorms:
    def test_trace_norm_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_trace_norm_antisymmetric(self):
        a = np.array([[0.0, 0.125], [-0.125, 0.0]])
        assert trace_norm(a) == pytest.approx(0.25, abs=1e-14)

    def test_trace_norm_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_trace_norm_unitary_invariance(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            w, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            assert trace_norm(v @ a @ w) == pytest.approx(trace_norm(a), abs=1e-10)

    def test_op_norm_diag(self):
        assert op_norm_inf(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_op_norm_spectral_radius(self):
        a = np.array([[0.0, 0.5j], [-0.25j, 0.0]])
        assert op_norm_inf(a) == pytest.approx(1.0 / np.sqrt(8.0), abs=1e-12)

    def test_op_norm_zero(self):
        assert op_norm_inf(np.zeros((2, 2))) == 0.0

    def test_trace_norm_dominates_spectral_radius(self, rng):
        for _ in range(30):
            h = random_traceless_hermitian(rng, 3)
            assert trace_norm(h) >= op_norm_inf(h) - 1e-12

    def test_trace_norm_equality_iff_rank_one(self, rng):
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = np.outer(v, v.conj())
            assert trace_norm(a) == pytest.approx(op_norm_inf(a), abs=1e-10)


class TestSldSolve:
    def test_mixed_example(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        drho = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        assert np.allclose(sld_solve(rho, drho), SX, atol=1e-12)

    def test_zero_derivative(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        assert np.allclose(sld_solve(rho, np.zeros((2, 2))), 0.0)

    def test_pure_state_support_convention(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        l_op = sld_solve(rho, drho)
        assert np.allclose(l_op, SX, atol=1e-12)

    def test_defining_equation_and_mean(self, rng):
        for n in (2, 3):
            for _ in range(20):
                rho = random_density(rng, n)
                drho = random_traceless_hermitian(rng, n)
                l_op = sld_solve(rho, drho)
                resid = 0.5 * (l_op @ rho + rho @ l_op) - drho
                assert np.max(np.abs(resid)) <= 1e-8
                assert abs(np.trace(rho @ l_op)) <= 1e-10

    def test_rejects_traceful_derivative(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(DerivativeNotTraceless):
            sld_solve(rho, np.eye(2, dtype=complex))


class TestRldSolve:
    def test_example(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        drho = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        expected = np.array([[0.0, 2.0 / 3.0], [2.0, 0.0]])
        got = rld_solve(rho, drho)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.max(np.abs(rho @ got - drho)) <= 1e-8

    def test_zero(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(rld_solve(rho, np.zeros((2, 2))), 0.0)

    def test_pure_state_rejected(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        with pytest.raises(SingularState):
            rld_solve(rho, drho)


class TestDensityValidation:
    def test_accepts_valid(self):
        density_spectrum(np.diag([0.5, 0.5]).astype(complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(NonHermitianInput):
            density_spectrum(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NonHermitianInput):
            density_spectrum(np.diag([1.2, -0.2]).astype(complex))


class TestSmallMatmul:
    @given(
        n=st.integers(1, 5),
        batch=st.integers(1, 4),
        d=st.integers(1, 3),
        dtype=st.sampled_from([float, complex]),
        nested=st.booleans(),
        swap=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # a complex n = 1 draw whose (1, 1, 1) stack numpy rounds 1-2 ulp away
    # from the (1, 1) row alone: it is held to @, not to its row
    @example(n=1, batch=1, d=1, dtype=complex, nested=False, swap=False, seed=525)
    def test_matches_matmul_and_is_batch_invariant(self, n, batch, d, dtype, nested, swap, seed):
        # (n, n) with (B, n, n), or (B, 1, n, n) with (B, d, n, n), in either order
        rng = np.random.default_rng(seed)
        shapes = [(batch, 1, n, n), (batch, d, n, n)] if nested else [(n, n), (batch, n, n)]
        a, b = (rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
                for shape in (shapes[::-1] if swap else shapes))
        got, want = small_matmul(a, b), np.matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= 8 * n * eps * np.max(np.abs(a)) * np.max(np.abs(b))
        if n == 1 and dtype is complex:  # one complex multiply, rounded by shape
            return
        a_rows, b_rows = (np.broadcast_to(x, got.shape) for x in (a, b))
        for index in np.ndindex(got.shape[:-2]):
            assert np.array_equal(got[index], small_matmul(a_rows[index], b_rows[index]))


class TestAdjugate:
    @pytest.mark.parametrize("n", [2, 3])
    def test_adjugate_times_matrix_is_det(self, rng, n):
        # adj(A) A = A adj(A) = det(A) I on a stack of general matrices
        a = rng.normal(size=(7, n, n))
        det = np.linalg.det(a)[:, None, None] * np.eye(n)
        scale = 1e-13 * np.max(np.abs(a)) ** n
        np.testing.assert_allclose(adjugate(a) @ a, det, rtol=0, atol=scale)
        np.testing.assert_allclose(a @ adjugate(a), det, rtol=0, atol=scale)


class TestEntrySum:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_numpy_sum_to_the_bit(self, rng, dtype):
        # the elementwise adds round as numpy's reduction of the same
        # contiguous terms, over one trailing axis or two, whatever the
        # count: index order, pairs from 8 real terms, numpy's own beyond
        shapes = [((50, n), 1) for n in range(1, 21)]
        shapes += [((50, 3, n, m), 2) for n in range(1, 5) for m in range(1, 6)]
        for shape, axes in shapes:
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            if dtype is complex:
                a = a + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            got = np.ascontiguousarray(entry_sum(a, axes))
            want = a.sum(axis=tuple(range(-axes, 0)))
            assert got.shape == want.shape, shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), shape


class TestRaiseFirstFailure:
    @pytest.mark.parametrize("masks, raised", [
        # a Python bool is the check of a value shared by every entry, so it
        # fails at entry 0, before an array failing later
        ((np.array([False, True, True]), True), "b at 0"),
        ((True, np.array([False, True])), "a at 0"),
        # within one entry the checks keep their order
        ((np.array([[False, True], [True, True]]), np.array([[False, True], [False, False]])),
         "a at 1"),
        ((False, np.array([False, False, True])), "b at 2"),
        ((False, np.array([[False], [True]]), True), "c at 0"),
        ((False, False), None),
        ((np.zeros(3, bool), False), None),
    ])
    def test_first_failure_in_c_order(self, masks, raised):
        checks = [(mask, lambda i, name=name: ValueError(f"{name} at {i}"))
                  for mask, name in zip(masks, "abc")]
        if raised is None:
            raise_first_failure(*checks)
        else:
            with pytest.raises(ValueError, match=f"^{raised}$"):
                raise_first_failure(*checks)
