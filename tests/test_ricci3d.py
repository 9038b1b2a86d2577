import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hesslab import ricci3d
from hesslab.curvature import RicciTensor, curvature_basis, CurvTensor, ricci
from hesslab.hessmap import rho2
from hesslab.rng import rational_at
from hesslab.tensor import Sym3Tensor, Tensor
from tensor_helpers import sym3_combine, sym3_from_dense


def permute_sym3_reference(A, perm):
    """_permute_sym3 read off the dense tensor, index by index."""
    dense = A.to_dense().data
    arr = np.empty_like(dense)
    for idx in itertools.product(range(3), repeat=3):
        arr[idx] = dense[tuple(perm[i] for i in idx)]
    return sym3_from_dense(Tensor(3, arr))


def test_permute_sym3_matches_dense_relabeling():
    for seed in range(30):
        A = Sym3Tensor.random(3, seed=seed)
        for perm in itertools.permutations(range(3)):
            assert ricci3d._permute_sym3(A, perm) == permute_sym3_reference(A, perm)


def ansatz_ricci_scaled(a1, a3, b13, b31):
    """(alpha, beta, gamma, delta) = 72 * the nonzero entries of rho2(ansatz).

    alpha, beta, gamma are the diagonal entries and delta the (1,3) entry,
    each scaled by 1/RHO2_DISPLAY_SCALE.  The e2-cube coefficient a2 drops
    out entirely.
    """
    a1, a3, b13, b31 = map(Fraction, (a1, a3, b13, b31))
    alpha = 8 * (1 - (1 + 3 * a3) * b13 + b13 ** 2 + b31 ** 2 - 3 * a1 * (1 + b31))
    beta = -8 * (-2 + 3 * a1 + 3 * a3 + b13 + b31)
    gamma = 8 * (1 + b13 ** 2 - 3 * a3 * (1 + b13) - b31 - 3 * a1 * b31 + b31 ** 2)
    delta = -8 * (-1 + b13 + b31)
    return alpha, beta, gamma, delta


def diag(l1, l2, l3):
    return RicciTensor.from_rows([[l1, 0, 0], [0, l2, 0], [0, 0, l3]])


class TestClosedForms:
    def test_frozen_coefficients_at_123(self):
        a1, a2, a3, b13, b31 = ricci3d.ansatz_coefficients(1, 2, 3)
        assert (a1, a2, a3, b13, b31) == (
            Fraction(1, 6), Fraction(1), Fraction(1, 12),
            Fraction(1, 2), Fraction(1, 2))

    def test_requires_distinct_outer_values(self):
        with pytest.raises(ValueError):
            ricci3d.ansatz_coefficients(2, 5, 2)

    def test_alpha_minus_gamma_is_affine(self):
        # second difference of an affine function vanishes identically
        def ag(u):
            alpha, _, gamma, _ = ansatz_ricci_scaled(*u)
            return alpha - gamma

        zero = (Fraction(0),) * 4
        for seed in range(5):
            u = tuple(rational_at("affine", seed, i, 9) for i in range(4))
            v = tuple(rational_at("affine", seed, 4 + i, 9) for i in range(4))
            uv = tuple(a + b for a, b in zip(u, v))
            assert ag(uv) + ag(zero) == ag(u) + ag(v)

    def test_delta_component_vanishes(self):
        coeffs = ricci3d.ansatz_coefficients(1, 2, 3)
        _, _, _, delta = ansatz_ricci_scaled(
            coeffs[0], coeffs[2], coeffs[3], coeffs[4])
        assert delta == 0

    def test_scaled_ricci_matches_direct_evaluation(self):
        vals = [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(1, 5)]
        a1, a3, b13, b31 = vals
        A = ricci3d.build_ansatz(a1, Fraction(1), a3, b13, b31)
        r = rho2(A)
        alpha, beta, gamma, delta = ansatz_ricci_scaled(a1, a3, b13, b31)
        scale = ricci3d.RHO2_DISPLAY_SCALE
        assert r[0, 0] == scale * alpha
        assert r[1, 1] == scale * beta
        assert r[2, 2] == scale * gamma
        assert r[0, 2] == scale * delta


class TestSolveFromEigenvalues:
    def test_hundred_random_distinct_triples(self):
        count = 0
        seed = 0
        while count < 100:
            lams = tuple(rational_at("triples", seed, i, 12) for i in range(3))
            seed += 1
            if lams[0] == lams[2]:
                continue
            A = ricci3d.solve_from_eigenvalues(*lams)
            assert rho2(A) == diag(*lams)
            count += 1

    def test_equal_outer_values_resolved_by_permutation(self):
        A = ricci3d.solve_from_eigenvalues(2, 5, 2)
        assert rho2(A) == diag(2, 5, 2)

    def test_fully_isotropic_dispatch(self):
        A = ricci3d.solve_from_eigenvalues(4, 4, 4)
        assert rho2(A) == diag(4, 4, 4)


class TestIsotropic:
    @pytest.mark.parametrize("lam", [0, 4, Fraction(-7, 3)])
    def test_oracle_verified_values(self, lam):
        A = ricci3d.solve_from_eigenvalues(lam, lam, lam)
        assert rho2(A) == diag(lam, lam, lam)

    def test_flat_curvature_from_nonzero_tensor(self):
        A = ricci3d.solve_from_eigenvalues(0, 0, 0)
        assert not A.is_zero()
        assert rho2(A).is_zero()

    def test_display_coefficient_vanishes_at_4(self):
        coeffs = ricci3d.isotropic_coefficients(4)
        assert coeffs[(2, 2, 0)] == 0
        assert coeffs[(0, 0, 0)] == Fraction(1, 3)

    def test_scaling_cannot_replace_branch(self):
        # homogeneity: scaling one solution scales the Ricci by c^2, so the
        # one-parameter family genuinely needs the formula, not a rescaling
        A = ricci3d.solve_from_eigenvalues(4, 4, 4)
        c = Fraction(2)
        scaled = rho2(sym3_combine((c, A)))
        assert scaled == diag(16, 16, 16)  # c^2 * 4, not c * 4


def quaternion_rotation(a, b, c, d):
    """Rational orthogonal 3x3 matrix from an integer quaternion."""
    n = a * a + b * b + c * c + d * d
    f = Fraction(1, n)
    return [
        [f * (a * a + b * b - c * c - d * d), f * 2 * (b * c - a * d), f * 2 * (b * d + a * c)],
        [f * 2 * (b * c + a * d), f * (a * a - b * b + c * c - d * d), f * 2 * (c * d - a * b)],
        [f * 2 * (b * d - a * c), f * 2 * (c * d + a * b), f * (a * a - b * b - c * c + d * d)],
    ]


def conjugated(Q, d):
    """The exact 3x3 product Q d Q^T."""
    return [[sum(Q[i][k] * d[k][m] * Q[j][m] for k in range(3) for m in range(3))
             for j in range(3)] for i in range(3)]


class TestSolveFromRicci:
    def test_diagonal_input_identity_rotation(self):
        rot, A, _ = ricci3d.solve_from_ricci(diag(1, 2, 3))
        assert np.allclose(np.abs(rot), np.eye(3))
        assert rho2(A) == diag(1, 2, 3)

    def test_residual_is_measured_in_float_mode(self):
        assert ricci3d.solve_from_ricci(diag(1, 2, 3))[2] == 0
        rows = [[1, 1, 0], [1, 2, 0], [0, 0, 3]]
        resid = ricci3d.solve_from_ricci(rows, mode="float", tol=0.5)[2]
        assert 0 <= resid < 1e-12

    def test_zero_matrix_isotropic_branch(self):
        rot, A, _ = ricci3d.solve_from_ricci(diag(0, 0, 0))
        assert rho2(A).is_zero()

    def test_quarter_turn_example(self):
        rows = [[2, 1, 0], [1, 2, 0], [0, 0, 5]]
        rot, A, _ = ricci3d.solve_from_ricci(rows)
        # eigenvalues 1, 3, 5; the plane rotation has entries +-1/sqrt(2)
        lams = sorted(abs(x) for x in np.linalg.eigvalsh(np.array(rows, float)))
        assert np.allclose(lams, [1, 3, 5])
        r = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=float)
        w = np.array(sorted([1.0, 3.0, 5.0]))
        back = rot @ np.diag(np.linalg.eigvalsh(r)) @ rot.T
        assert np.allclose(back, r)
        assert math.isclose(abs(rot[0, 0]), 1 / math.sqrt(2), rel_tol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            ricci3d.solve_from_ricci([[1, 2, 0], [0, 1, 0], [0, 0, 1]])

    def test_rejects_a_non_square_list_through_ricci_tensor(self):
        with pytest.raises(ValueError, match="n x n"):
            ricci3d.solve_from_ricci([[1, 2, 0], [2, 1, 0], [0, 0]])
        with pytest.raises(ValueError, match="3x3"):
            ricci3d.solve_from_ricci([[1, 2], [2, 1]])

    def test_rejects_a_ricci_tensor_of_another_dimension(self):
        # a 4 x 4 RicciTensor skipped the 3 x 3 check and raised TypeError
        r = RicciTensor.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
        with pytest.raises(ValueError, match="3x3"):
            ricci3d.solve_from_ricci(r, mode="float")

    @pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_float_mode_refuses_entries_past_float_range(self, big):
        with pytest.raises(ValueError, match="float range"):
            ricci3d.solve_from_ricci([[big, 0, 0], [0, 2, 0], [0, 0, 3]], mode="float")
        rot, A, residual = ricci3d.solve_from_ricci([[big, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert rho2(A) == diag(2, 3, big) and residual == 0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_unusable_tol(self, tol):
        # with tol = nan, "resid > tol" was never true and any residual passed
        with pytest.raises(ValueError, match="tol"):
            ricci3d.solve_from_ricci([[1, 0, 0], [0, 2, 0], [0, 0, 3]], mode="float", tol=tol)

    def test_zero_tol_refuses_a_nonzero_float_residual(self):
        # the irrational eigenvectors of this matrix cannot round-trip exactly
        with pytest.raises(ricci3d.VerificationError, match="residual"):
            ricci3d.solve_from_ricci([[1, 1, 0], [1, 2, 0], [0, 0, 3]], mode="float", tol=0)

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="unknown mode 'fuzzy'"):
            ricci3d.solve_from_ricci([[1, 0, 0], [0, 2, 0], [0, 0, 3]], mode="fuzzy")

    def test_exact_eigenvectors_are_scaled_into_float_range(self):
        rows = [[1, 10 ** 200, 0], [10 ** 200, 10 ** 400, 0], [0, 0, 0]]
        for v in ricci3d._exact_eigenvectors(rows, ricci3d._rational_eigenvalues(rows)):
            assert Fraction(1, 2) < max(map(abs, v)) < 2

    def test_irrational_spectrum_needs_float_mode(self):
        rows = [[1, 1, 0], [1, 2, 0], [0, 0, 3]]
        with pytest.raises(ValueError):
            ricci3d.solve_from_ricci(rows, mode="exact")
        rot, A, _ = ricci3d.solve_from_ricci(rows, mode="float", tol=1e-9)
        sym = np.array(rows, dtype=float)
        w = np.linalg.eigvalsh(sym)
        back = rot @ np.diag(w) @ rot.T
        assert np.allclose(back, sym)

    @pytest.mark.parametrize("lams", [(Fraction(1, 3 ** 40), 2, 3),
                                      (0, -1, Fraction(1, 4))])
    def test_rational_spectrum_is_found_exactly(self, lams):
        # a float eigenvalue rationalized with a small denominator lands on
        # the wrong root here: 1/3**40 is not found, 1/4 rounds to the root 0
        Q = quaternion_rotation(1, 2, 3, 4)
        d = diag(*lams).data.tolist()
        conjugate = conjugated(Q, d)
        for rows in (d, conjugate):
            assert ricci3d._rational_eigenvalues(rows) == sorted(map(Fraction, lams))
            rot, A, residual = ricci3d.solve_from_ricci(rows)
            assert rho2(A) == diag(*sorted(lams)) and residual == 0

    def test_root_bracketed_next_to_an_integer_is_rejected(self):
        # bisection stops at 2, next to the root 3 - sqrt(2); dividing by
        # y - 2 would leave a quadratic with a perfect-square discriminant
        with pytest.raises(ValueError):
            ricci3d._rational_eigenvalues([[4, -1, 0], [-1, 2, 0], [0, 0, 4]])

    def test_conjugated_rational_spectrum_exact(self):
        Q = quaternion_rotation(1, 2, 3, 4)
        lams = (Fraction(2), Fraction(3), Fraction(5))
        d = [[lams[i] if i == j else Fraction(0) for j in range(3)]
             for i in range(3)]
        r = conjugated(Q, d)
        rot, A, _ = ricci3d.solve_from_ricci(r)  # internal exact round-trip oracle
        back = rot @ np.diag(sorted(float(x) for x in lams)) @ rot.T
        assert np.allclose(back, np.array(r, dtype=float))


class TestVerificationGuards:
    """The exact checks that guard every 3D solution refuse a wrong one."""

    @pytest.mark.parametrize("solve, args", [
        (ricci3d.solve_from_eigenvalues, (1, 2, 3)),
        (ricci3d.solve_from_eigenvalues, (4, 4, 4)),
    ], ids=["closed-form", "isotropic"])
    def test_wrong_ricci_image_refused(self, monkeypatch, solve, args):
        monkeypatch.setattr(ricci3d, "rho2", lambda A: diag(0, 0, 1))
        with pytest.raises(ricci3d.VerificationError, match="rho2 = "):
            solve(*args)

    def test_wrong_eigenvectors_refused(self, monkeypatch):
        # the identity is symmetric: the same vectors read by row or by column
        monkeypatch.setattr(ricci3d, "_exact_eigenvectors",
                            lambda rows, lams: [[int(i == j) for j in range(3)] for i in range(3)])
        with pytest.raises(ricci3d.VerificationError, match="round-trip failed"):
            ricci3d.solve_from_ricci([[2, 1, 0], [1, 2, 0], [0, 0, 5]])


class TestSurjectivityWitness:
    def test_every_sampled_3d_curvature_has_a_preimage(self):
        # in dimension 3 the curvature tensor is determined by its Ricci
        # contraction, so matching Ricci exactly witnesses surjectivity
        for seed in range(10):
            coeffs = [rational_at("surj", seed, i, 6) for i in range(6)]
            acc = None
            for c, b in zip(coeffs, curvature_basis(3)):
                term = b.data * c
                acc = term if acc is None else acc + term
            from hesslab.tensor import Tensor
            R = CurvTensor(Tensor(3, acc))
            r = ricci(R)
            # generic rational Ricci has an irrational spectrum: float mode
            rot, A, _ = ricci3d.solve_from_ricci(r, mode="float", tol=1e-8)
            got = rho2(A)
            back = rot @ np.diag([float(got[i, i]) for i in range(3)]) @ rot.T
            target = np.array([[float(x) for x in row] for row in r.data.tolist()])
            assert np.allclose(back, target, atol=1e-8)
