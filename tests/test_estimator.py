import numpy as np
import pytest
import scipy.sparse as sp

from mapdyn.dynamics import ConstraintAssembler, DynLayout, rnea
from mapdyn.estimator import (
    EstimatorError,
    GaussianBelief,
    MapProblem,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    SparseCholeskySolver,
    complex_step_bias_jacobians,
    finite_difference_bias_jacobians,
    gls_solve,
    incremental_fusion,
    lmmse_forms_check,
    map_as_gls,
    map_solve,
    map_solve_augmented,
    posterior_precision_terms,
    shape_prior,
    sparse_cholesky_solve,
)
from mapdyn.sensors import MeasurementAssembler
from mapdyn.simharness import random_state


def random_spd(rng, n, density=0.2):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(3), format="csc")
    m = a @ a.T + sp.identity(n) * (0.5 + n / 10)
    return sp.csc_matrix((m + m.T) / 2)


class TestSparseCholesky:
    def test_identity(self, rng):
        rhs = rng.normal(0, 1, 12)
        assert np.allclose(sparse_cholesky_solve(sp.identity(12, format="csc"), rhs), rhs)

    def test_matches_dense(self, rng):
        mat = random_spd(rng, 50)
        rhs = rng.normal(0, 1, 50)
        x = sparse_cholesky_solve(mat, rhs)
        xd = np.linalg.solve(mat.toarray(), rhs)
        assert np.abs(x - xd).max() < 1e-10 * (1 + np.abs(xd).max())

    def test_ordering_reduces_fill_on_48dof_pattern(self, human_model_foot, rng):
        from mapdyn.sensors import default_sensor_specs

        casm = ConstraintAssembler(human_model_foot)
        masm = MeasurementAssembler(human_model_foot, default_sensor_specs(human_model_foot))
        q, qd, _ = random_state(human_model_foot, rng, 0.2, 0.3, 0.3)
        mat_d, b_d = casm.assemble(q, qd)
        mat_y, b_y = masm.assemble(q, qd)
        problem = MapProblem(mat_d, b_d, mat_y, b_y, np.zeros(masm.dim), sigma_y=masm.variances)
        precision, _ = posterior_precision_terms(problem)
        ordered = SparseCholeskySolver(precision, use_permutation=True).factorize(precision)
        natural = SparseCholeskySolver(precision, use_permutation=False).factorize(precision)
        assert ordered.factor_nnz <= natural.factor_nnz
        assert ordered.bandwidth < natural.bandwidth

    def test_permuted_equals_unpermuted(self, rng):
        mat = random_spd(rng, 80)
        rhs = rng.normal(0, 1, 80)
        x_perm = sparse_cholesky_solve(mat, rhs, SparseCholeskySolver(mat, use_permutation=True))
        x_nat = sparse_cholesky_solve(mat, rhs, SparseCholeskySolver(mat, use_permutation=False))
        r_perm = np.linalg.norm(mat @ x_perm - rhs)
        r_nat = np.linalg.norm(mat @ x_nat - rhs)
        assert abs(r_perm - r_nat) <= 1e-12 * (1 + max(r_perm, r_nat))

    def test_non_positive_definite_reports_pivot(self):
        mat = sp.csc_matrix(np.diag([1.0, 1.0, -2.0, 1.0]))
        solver = SparseCholeskySolver(mat)
        with pytest.raises(NotPositiveDefiniteError) as err:
            solver.factorize(mat)
        assert err.value.pivot_index == 2

    def test_non_positive_definite_reports_failing_minor(self):
        # every diagonal entry is positive; the leading minor of order 4 is not
        dense = np.eye(5)
        dense[2, 3] = dense[3, 2] = 2.0
        mat = sp.csc_matrix(dense)
        solver = SparseCholeskySolver(mat, use_permutation=False)
        with pytest.raises(NotPositiveDefiniteError) as err:
            solver.factorize(mat)
        assert err.value.pivot_index == 3

    def test_tiny_pivot_is_failure_not_silent_jitter(self):
        mat = sp.csc_matrix(np.diag([1.0, 1e-16, 1.0]))
        solver = SparseCholeskySolver(mat)
        with pytest.raises(NotPositiveDefiniteError):
            solver.factorize(mat)
        # explicit jitter opt-in succeeds
        solver.factorize(mat, jitter=1e-8)
        assert np.isfinite(solver.solve(np.ones(3))).all()

    def test_marginal_variances_match_dense_inverse(self, rng):
        mat = random_spd(rng, 40)
        solver = SparseCholeskySolver(mat).factorize(mat)
        dense = np.linalg.inv(mat.toarray())
        idx = np.array([0, 7, 13, 39])
        assert np.allclose(solver.marginal_variances(idx), np.diag(dense)[idx], rtol=1e-10)


class TestShapePrior:
    def test_constraint_dominated_prior_satisfies_constraints(self, two_link_problem):
        # prior variance high enough to be negligible while keeping the
        # smallest pivot above the SPD tolerance
        problem, d_star, _ = two_link_problem
        loose = MapProblem(
            problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y,
            sigma_D=1e-4, sigma_y=problem.sigma_y, sigma_d=1e6,
        )
        belief = shape_prior(loose)
        res = np.abs(problem.D @ belief.mean + problem.b_D).max()
        assert res < 1e-6

    def test_no_constraints_returns_prior(self, rng):
        dim = 8
        mu = rng.normal(0, 1, dim)
        problem = MapProblem(
            sp.csc_matrix((0, dim)), np.zeros(0),
            sp.identity(dim, format="csc"), np.zeros(dim), np.zeros(dim),
            sigma_y=1.0, mu_d=mu, sigma_d=2.5,
        )
        belief = shape_prior(problem)
        assert np.allclose(belief.mean, mu, atol=1e-12)
        cov = np.linalg.inv(belief.precision.toarray())
        assert np.allclose(cov, np.diag([2.5] * dim), atol=1e-10)

    def test_against_dense_inverse_oracle(self, two_link_problem):
        # comparison against an explicit 52x52 inversion needs a moderately
        # conditioned instance: at the default 1e4/1e-4 weight spread two
        # backward-stable solvers only agree to cond * eps
        problem, _, _ = two_link_problem
        moderate = MapProblem(
            problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y,
            sigma_D=1e-2, sigma_y=problem.sigma_y, sigma_d=1e2,
        )
        belief = shape_prior(moderate)
        d_mat = moderate.D.toarray()
        w = np.diag(1.0 / moderate.sigma_D)
        precision = d_mat.T @ w @ d_mat + np.diag(1.0 / moderate.sigma_d)
        mean = np.linalg.solve(
            precision, moderate.mu_d / moderate.sigma_d - d_mat.T @ w @ moderate.b_D
        )
        assert precision.shape == (52, 52)
        assert np.abs(belief.mean - mean).max() < 1e-9 * (1 + np.abs(mean).max())
        assert np.abs((belief.precision.toarray() - precision)).max() < 1e-9
        # at the default spread the solve is still backward stable: the
        # residual matches the dense solve's
        belief_default = shape_prior(problem)
        from mapdyn.estimator import prior_precision_terms

        prec, rhs = prior_precision_terms(problem)
        res = np.abs(prec @ belief_default.mean - rhs).max()
        dense = np.linalg.solve(prec.toarray(), rhs)
        res_dense = np.abs(prec @ dense - rhs).max()
        assert res <= 10 * res_dense + 1e-12


class TestMapSolve:
    def test_recovers_truth_with_tight_measurements(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        d_star = rnea(two_link_model, q, qd, qdd)
        casm = ConstraintAssembler(two_link_model)
        mat_d, b_d = casm.assemble(q, qd)
        dim = d_star.size
        problem = MapProblem(
            mat_d, b_d,
            sp.identity(dim, format="csc"), np.zeros(dim), d_star,
            sigma_y=1e-12, sigma_d=1e4,
        )
        belief = map_solve(problem)
        assert np.abs(belief.mean - d_star).max() < 1e-6

    def test_useless_sensors_return_shaped_prior(self, two_link_problem):
        problem, _, _ = two_link_problem
        huge = MapProblem(
            problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y,
            sigma_D=1e-2, sigma_y=1e18, sigma_d=1e2,
        )
        like_prior = MapProblem(
            problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y,
            sigma_D=1e-2, sigma_y=problem.sigma_y, sigma_d=1e2,
        )
        posterior = map_solve(huge)
        prior = shape_prior(like_prior)
        assert np.abs(posterior.mean - prior.mean).max() < 1e-8 * (1 + np.abs(prior.mean).max())

    def test_matches_gls_closed_form(self, two_link_problem):
        problem, _, _ = two_link_problem
        mean = map_solve(problem).mean
        gls = map_as_gls(problem)
        assert np.abs(mean - gls).max() <= 1e-8 * (1 + np.abs(mean).max())

    def test_posterior_precision_identity(self, two_link_problem):
        problem, _, _ = two_link_problem
        posterior = map_solve(problem)
        prior_precision, _ = __import__("mapdyn.estimator", fromlist=["prior_precision_terms"]).prior_precision_terms(problem)
        y = problem.Y.toarray()
        info = y.T @ np.diag(1.0 / problem.sigma_y) @ y
        gap = posterior.precision.toarray() - prior_precision.toarray() - info
        denom = np.linalg.norm(posterior.precision.toarray())
        assert np.linalg.norm(gap) / denom < 1e-10

    def test_rank_deficiency_reports_dimension(self):
        dim = 6
        # only 4 of 6 directions observed, no constraints
        y = sp.csc_matrix(np.eye(dim)[:4])
        problem = MapProblem(
            sp.csc_matrix((0, dim)), np.zeros(0), y, np.zeros(4), np.zeros(4),
            sigma_y=1.0, sigma_d=1e4,
        )
        assert problem.stacked_rank_deficiency() == 2
        with pytest.raises(RankDeficiencyError, match="2"):
            problem.check_rank()

    def test_marginal_variances_exposed(self, two_link_problem):
        problem, _, _ = two_link_problem
        belief = map_solve(problem)
        dense = np.linalg.inv(belief.precision.toarray())
        idx = np.array([18, 44])  # torque slots of both links
        assert np.allclose(belief.marginal_variance(idx), np.diag(dense)[idx], rtol=1e-9)


class TestGls:
    def test_identity_weights_match_pseudoinverse(self, rng):
        a = rng.normal(0, 1, (12, 5))
        b = rng.normal(0, 1, 12)
        x = gls_solve(a, b, np.ones(12))
        assert np.allclose(x, np.linalg.pinv(a) @ b, atol=1e-10)

    def test_square_invertible_exact(self, rng):
        a = rng.normal(0, 1, (6, 6)) + 3 * np.eye(6)
        b = rng.normal(0, 1, 6)
        assert np.allclose(gls_solve(a, b, np.full(6, 2.0)), np.linalg.solve(a, b), atol=1e-9)

    def test_block_weights(self, rng):
        a = rng.normal(0, 1, (9, 4))
        b = rng.normal(0, 1, 9)
        x1 = gls_solve(a, b, [np.ones(3) * 2.0, np.ones(6) * 0.5])
        x2 = gls_solve(a, b, np.concatenate([np.full(3, 2.0), np.full(6, 0.5)]))
        assert np.allclose(x1, x2)

    def test_rank_deficient_raises(self, rng):
        a = np.zeros((5, 3))
        a[:, 0] = rng.normal(0, 1, 5)
        with pytest.raises(RankDeficiencyError):
            gls_solve(a, np.zeros(5), np.ones(5))


class TestLmmseForms:
    def test_scalar_bayes_fusion(self):
        sigma_x, sigma_e, mu, y = 2.0, 0.5, 1.0, 3.0
        (m1, c1), (m2, c2) = lmmse_forms_check(
            np.array([[1.0]]), np.array([[sigma_x]]), np.array([[sigma_e]]), [mu], [y]
        )
        expected = (sigma_e * mu + sigma_x * y) / (sigma_x + sigma_e)
        assert m1[0] == pytest.approx(expected)
        assert m2[0] == pytest.approx(expected)

    def test_forms_agree_on_random_regressor(self, rng):
        c = rng.normal(0, 1, (10, 6))
        sx = rng.uniform(0.5, 2.0, 6)
        se = rng.uniform(0.1, 1.0, 10)
        mu = rng.normal(0, 1, 6)
        y = rng.normal(0, 1, 10)
        (m1, c1), (m2, c2) = lmmse_forms_check(c, sx, se, mu, y)
        assert np.abs(m1 - m2).max() < 1e-9
        assert np.abs(c1 - c2).max() < 1e-9

    def test_reliable_prior_limit(self, rng):
        c = rng.normal(0, 1, (8, 4))
        mu = rng.normal(0, 1, 4)
        y = rng.normal(0, 1, 8)
        (m1, _), (m2, _) = lmmse_forms_check(c, np.full(4, 1e-12), np.ones(8), mu, y)
        assert np.linalg.norm(m1 - mu) < 1e-6
        assert np.linalg.norm(m2 - mu) < 1e-6

    def test_unreliable_prior_limit(self, rng):
        c = rng.normal(0, 1, (8, 4))
        mu = rng.normal(0, 1, 4)
        y = rng.normal(0, 1, 8)
        se = rng.uniform(0.2, 0.8, 8)
        (m1, _), (m2, _) = lmmse_forms_check(c, np.full(4, 1e8), se, mu, y)
        w = np.diag(1.0 / se)
        expected = np.linalg.solve(c.T @ w @ c, c.T @ w @ y)
        assert np.linalg.norm(m1 - expected) < 1e-6
        assert np.linalg.norm(m2 - expected) < 1e-6


class TestIncrementalFusion:
    def test_zero_information_group(self, two_link_problem):
        problem, _, _ = two_link_problem
        idx = np.arange(problem.dim_d)
        group = (problem.Y, problem.b_Y, np.full(problem.Y.shape[0], np.inf), problem.y)
        stages = incremental_fusion(problem, [group], idx)
        assert np.allclose(stages[0].marginal_variances, stages[1].marginal_variances, rtol=1e-12)

    def test_final_stage_equals_one_shot(self, two_link_problem):
        problem, _, _ = two_link_problem
        idx = np.arange(problem.dim_d)
        half = problem.Y.shape[0] // 2
        groups = [
            (problem.Y[:half], problem.b_Y[:half], problem.sigma_y[:half], problem.y[:half]),
            (problem.Y[half:], problem.b_Y[half:], problem.sigma_y[half:], problem.y[half:]),
        ]
        stages = incremental_fusion(problem, groups, idx)
        one_shot = map_solve(problem)
        assert np.abs(stages[-1].mean - one_shot.mean).max() < 1e-9 * (1 + np.abs(one_shot.mean).max())
        gap = (stages[-1].precision - one_shot.precision).toarray()
        assert np.abs(gap).max() < 1e-9 * (1 + np.abs(one_shot.precision.toarray()).max())

    def test_information_monotone(self, two_link_problem):
        base, _, _ = two_link_problem
        # moderate prior keeps the stage-0 covariance invertible to full
        # precision so the Loewner check is meaningful at every stage
        problem = MapProblem(
            base.D, base.b_D, base.Y, base.b_Y, base.y,
            sigma_D=1e-2, sigma_y=base.sigma_y, sigma_d=1e2,
        )
        idx = np.arange(problem.dim_d)
        half = problem.Y.shape[0] // 2
        groups = [
            (problem.Y[:half], problem.b_Y[:half], problem.sigma_y[:half], problem.y[:half]),
            (problem.Y[half:], problem.b_Y[half:], problem.sigma_y[half:], problem.y[half:]),
        ]
        stages = incremental_fusion(problem, groups, idx)
        for earlier, later in zip(stages, stages[1:]):
            assert np.all(later.marginal_variances <= earlier.marginal_variances + 1e-12)
            cov_e = np.linalg.inv(earlier.precision.toarray())
            cov_l = np.linalg.inv(later.precision.toarray())
            # Loewner order: the covariance difference stays PSD up to the
            # inversion noise floor (jitter scaled to covariance magnitude)
            jitter = 1e-8 * (1.0 + float(np.abs(cov_e).max()))
            np.linalg.cholesky(cov_e - cov_l + jitter * np.eye(cov_e.shape[0]))


class TestAugmentedSolve:
    def _affine_system(self, rng, dim_d=5, dim_x=3, m=12):
        y0 = rng.normal(0, 1, (m, dim_d))
        bmat = rng.normal(0, 1, (m, dim_x))
        b0 = rng.normal(0, 1, m)

        def build(x):
            x = np.asarray(x)
            bias = bmat @ x + b0
            return sp.csc_matrix(y0), bias, sp.csc_matrix((0, dim_d)), np.zeros(0, dtype=x.dtype)

        return build, y0, bmat, b0

    def test_jacobians_match_finite_differences(self, two_link_model, rng):
        from mapdyn.sensors import default_sensor_specs

        casm = ConstraintAssembler(two_link_model)
        specs = default_sensor_specs(two_link_model)
        masm = MeasurementAssembler(two_link_model, specs)
        n = two_link_model.n_dof
        q, qd, qdd = random_state(two_link_model, rng)
        d_bar = rnea(two_link_model, q, qd, qdd)
        x_bar = np.concatenate([q, qd])

        def build(x):
            dtype = x.dtype
            mat_y, b_y = masm.assemble(x[:n], x[n:], dtype=dtype)
            mat_d, b_d = casm.assemble(x[:n], x[n:], dtype=dtype)
            return mat_y, b_y, mat_d, b_d

        dby_cs, dbd_cs = complex_step_bias_jacobians(build, x_bar, d_bar)
        dby_fd, dbd_fd = finite_difference_bias_jacobians(build, x_bar, d_bar, step=1e-6)
        scale_y = np.abs(dby_fd).max()
        scale_d = np.abs(dbd_fd).max()
        assert np.abs(dby_cs - dby_fd).max() < 1e-5 * (1 + scale_y)
        assert np.abs(dbd_cs - dbd_fd).max() < 1e-5 * (1 + scale_d)

    def test_vanishing_state_uncertainty_reduces_to_plain_map(self, two_link_model, rng):
        from mapdyn.sensors import default_sensor_specs

        casm = ConstraintAssembler(two_link_model)
        masm = MeasurementAssembler(two_link_model, default_sensor_specs(two_link_model))
        n = two_link_model.n_dof
        q, qd, qdd = random_state(two_link_model, rng)
        d_star = rnea(two_link_model, q, qd, qdd)
        x_bar = np.concatenate([q, qd])
        mat_d, b_d = casm.assemble(q, qd)
        mat_y, b_y = masm.assemble(q, qd)
        y = mat_y @ d_star + b_y
        problem = MapProblem(mat_d, b_d, mat_y, b_y, y, sigma_y=masm.variances)

        def build(x):
            dtype = x.dtype
            ymat, by = masm.assemble(x[:n], x[n:], dtype=dtype)
            dmat, bd = casm.assemble(x[:n], x[n:], dtype=dtype)
            return ymat, by, dmat, bd

        def jac(d_bar, xb):
            return complex_step_bias_jacobians(build, xb, d_bar)

        result = map_solve_augmented(problem, mu_x=x_bar, sigma_x=1e-12, x_bar=x_bar, d_bar=d_star, jacobians=jac)
        plain = map_solve(problem)
        assert np.abs(result.d_mean - plain.mean).max() < 1e-6 * (1 + np.abs(plain.mean).max())
        assert np.abs(result.x_mean - x_bar).max() < 1e-6

    def test_affine_system_recovered_in_one_solve(self, rng):
        build, y0, bmat, b0 = self._affine_system(rng)
        d_star = rng.normal(0, 1, 5)
        x_star = rng.normal(0, 1, 3)
        _, bias_star, _, _ = build(x_star)
        y = y0 @ d_star + bias_star

        # linearization point away from the truth; the system is exactly
        # affine in x, so one augmented solve lands on it
        x_bar = rng.normal(0, 0.5, 3)
        _, bias_bar, _, _ = build(x_bar)
        problem = MapProblem(
            sp.csc_matrix((0, 5)), np.zeros(0), sp.csc_matrix(y0), bias_bar, y,
            sigma_y=1e-10, sigma_d=1e8,
        )

        def jac(d_bar, xb):
            return complex_step_bias_jacobians(build, xb, d_bar)

        result = map_solve_augmented(
            problem,
            mu_x=np.zeros(3), sigma_x=1e8,
            x_bar=x_bar, d_bar=np.zeros(5),
            jacobians=jac,
        )
        assert np.abs(result.d_mean - d_star).max() < 1e-6
        assert np.abs(result.x_mean - x_star).max() < 1e-6


class TestGaussianBelief:
    def test_requires_exactly_one_representation(self):
        with pytest.raises(EstimatorError):
            GaussianBelief(np.zeros(3))
        with pytest.raises(EstimatorError):
            GaussianBelief(np.zeros(3), covariance=np.eye(3), precision=sp.identity(3))

    def test_dense_covariance_guard(self):
        n = 300
        belief = GaussianBelief(np.zeros(n), precision=sp.identity(n, format="csc"))
        with pytest.raises(EstimatorError, match="marginal"):
            belief.dense_covariance()
