import numpy as np
import pytest
import scipy.sparse as sp

from mapdyn.dynamics import ConstraintAssembler, DynLayout, rnea
from mapdyn.estimator import (
    EstimatorError,
    MapProblem,
    NotPositiveDefiniteError,
    PrecisionPlan,
    RankDeficiencyError,
    SparseCholeskySolver,
    complex_step_bias_jacobians,
    map_solve,
    map_solve_augmented,
    shape_prior,
    unobserved_dimension,
)
from mapdyn.sensors import MeasurementAssembler

from oracles import (
    block_values,
    finite_difference_bias_jacobians,
    factorized,
    gls_solve,
    lmmse_forms_check,
    map_as_gls,
    one_state,
    one_state_system,
    posterior_precision_terms,
    prior_precision_terms,
    stacked_rank_deficiency,
)
from random_models import random_chain_model, random_state, random_tree_model


def stack_terms(plan, samples):
    """``plan.terms`` of a stack of (D, b_D, Y, b_Y, y) samples, as the assemblers hand them over."""
    mats_d, bs_d, mats_y, bs_y, ys = zip(*samples)
    return plan.terms(
        np.stack([m.data for m in mats_d]), np.stack(bs_d), np.stack([m.data for m in mats_y]), np.stack(bs_y),
        np.stack(ys),
    )


def one_sample_terms(plan, problem, y=None):
    """(values, rhs) of one problem's sample."""
    y = problem.y if y is None else y
    values, rhs = stack_terms(plan, [(problem.D, problem.b_D, problem.Y, problem.b_Y, y)])
    return values[0], rhs[0]


def random_spd(rng, n, density=0.2):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(3), format="csc")
    m = a @ a.T + sp.identity(n) * (0.5 + n / 10)
    return sp.csc_matrix((m + m.T) / 2)


class TestSparseCholesky:
    def test_identity(self, rng):
        rhs = rng.normal(0, 1, 12)
        solver, stack = factorized(sp.identity(12, format="csc"))
        assert np.allclose(solver.solve(stack, rhs[None])[0], rhs)

    def test_matches_dense(self, rng):
        mat = random_spd(rng, 50)
        rhs = rng.normal(0, 1, 50)
        solver, stack = factorized(mat)
        x = solver.solve(stack, rhs[None])[0]
        xd = np.linalg.solve(mat.toarray(), rhs)
        assert np.abs(x - xd).max() < 1e-10 * (1 + np.abs(xd).max())

    def test_ordering_reduces_fill_on_48dof_pattern(self, human_model_foot, rng):
        from mapdyn.sensors import default_sensor_specs

        casm = ConstraintAssembler(human_model_foot)
        masm = MeasurementAssembler(human_model_foot, default_sensor_specs(human_model_foot))
        q, qd, _ = random_state(human_model_foot, rng, 0.2, 0.3, 0.3)
        mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
        problem = MapProblem(mat_d, b_d, mat_y, b_y, np.zeros(masm.dim), sigma_y=masm.variances)
        precision, _ = posterior_precision_terms(problem)
        solver = problem.plan().solver
        # 48 link blocks, eliminated without fill: every block of the factor
        # below the diagonal couples two links in the precision (a parent and
        # a child, or two siblings)
        assert list(solver.widths) == [26] * 48
        assert sum(len(below) for below in solver.below) == 51
        blocks = sp.coo_matrix(precision)
        coupled = set(zip(solver.iperm[blocks.row] // 26, solver.iperm[blocks.col] // 26))
        assert all((q, p) in coupled for p, below in enumerate(solver.below) for q in below)

    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_plan_solver_has_the_blocks_of_the_oracle_precision(self, make_model):
        """The plan builds its solver from its own pairs of entries: the same blocks,
        in the same order, as a solver on the pattern of the precision by sparse products."""
        for problem in random_model_problems(make_model, np.random.default_rng(35)):
            solver = problem.plan().solver
            precision = sp.coo_matrix(posterior_precision_terms(problem)[0])
            reference = SparseCholeskySolver(precision.row, precision.col, precision.shape[0])
            np.testing.assert_array_equal(solver.perm, reference.perm)
            np.testing.assert_array_equal(solver.widths, reference.widths)
            assert solver.below == reference.below

    def test_permuted_equals_unpermuted(self, rng):
        mat = random_spd(rng, 80)
        rhs = rng.normal(0, 1, 80)
        # the reversed matrix puts other columns into each block and orders the blocks otherwise
        rev = np.arange(80)[::-1]
        mat_rev = sp.csc_matrix(mat.toarray()[np.ix_(rev, rev)])
        solver, stack = factorized(mat)
        x_perm = solver.solve(stack, rhs[None])[0]
        solver, stack = factorized(mat_rev)
        x_nat = solver.solve(stack, rhs[rev][None])[0][np.argsort(rev)]
        r_perm = np.linalg.norm(mat @ x_perm - rhs)
        r_nat = np.linalg.norm(mat @ x_nat - rhs)
        assert abs(r_perm - r_nat) <= 1e-12 * (1 + max(r_perm, r_nat))

    def test_non_positive_definite_reports_pivot(self):
        mat = sp.csc_matrix(np.diag([1.0, 1.0, -2.0, 1.0]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            factorized(mat)
        assert err.value.pivot_index == 2

    def test_non_positive_definite_reports_failing_minor(self):
        # every diagonal entry is positive; the leading minor of order 4 is not
        dense = np.eye(5)
        dense[2, 3] = dense[3, 2] = 2.0
        mat = sp.csc_matrix(dense)
        with pytest.raises(NotPositiveDefiniteError) as err:
            factorized(mat)
        assert err.value.pivot_index == 3

    def test_tiny_pivot_is_failure_not_silent_jitter(self):
        mat = sp.csc_matrix(np.diag([1.0, 1e-16, 1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            factorized(mat)

    def test_marginal_variances_match_dense_inverse(self, rng):
        mat = random_spd(rng, 40)
        solver, stack = factorized(mat)
        dense = np.linalg.inv(mat.toarray())
        idx = np.array([0, 7, 13, 39])
        assert np.allclose(solver.selected_inverse(stack)[0][idx], np.diag(dense)[idx], rtol=1e-10)


def random_band_spd(rng, n, bandwidth):
    """Symmetric positive definite matrix with every entry of its band drawn.

    The off-diagonal entries are as large as the diagonal allows, so a
    recurrence that drops any block of the factor is visibly wrong.
    """
    lower = np.tril(rng.normal(0.0, 1.0, (n, n)), -1)
    lower[np.subtract.outer(np.arange(n), np.arange(n)) > bandwidth] = 0.0
    mat = lower + lower.T
    mat += np.diag(np.abs(mat).sum(axis=1) + 0.05)
    return sp.csc_matrix(mat)


def human_posterior(model, rng):
    from mapdyn.sensors import default_sensor_specs

    casm = ConstraintAssembler(model)
    masm = MeasurementAssembler(model, default_sensor_specs(model))
    q, qd, _ = random_state(model, rng, 0.2, 0.3, 0.3)
    mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
    return MapProblem(mat_d, b_d, mat_y, b_y, rng.normal(0.0, 1.0, masm.dim), sigma_y=masm.variances)


class TestSelectedInversion:
    @pytest.mark.parametrize(
        "n, bandwidth",
        [
            (1, 0),
            (30, 0),  # diagonal: blocks of one column
            (8, 7),  # the whole matrix is one block
            (21, 7),  # three full blocks
            (40, 7),  # a short last block
            (45, 1),
            (90, 30),  # four blocks, each coupled to the next two
        ],
    )
    def test_matches_dense_inverse_on_band_matrices(self, rng, n, bandwidth):
        mat = random_band_spd(rng, n, bandwidth)
        solver, stack = factorized(mat)
        assert sorted(solver.widths) == sorted([26] * (n // 26) + ([n % 26] if n % 26 else []))
        expected = np.diag(np.linalg.inv(mat.toarray()))
        variances = solver.selected_inverse(stack)[0]
        np.testing.assert_allclose(variances, expected, rtol=1e-10)
        idx = np.array([n - 1, 0, n // 2])
        np.testing.assert_allclose(variances[idx], expected[idx], rtol=1e-10)

    def test_48dof_posterior_matches_dense_inverse(self, human_model_foot, rng):
        precision, _ = posterior_precision_terms(human_posterior(human_model_foot, rng))
        solver, stack = factorized(precision)
        expected = np.diag(np.linalg.inv(precision.toarray()))
        np.testing.assert_allclose(solver.selected_inverse(stack)[0], expected, rtol=1e-10)

    def test_all_marginals_of_48dof_posterior_allocate_under_4mb(self, human_model_foot, rng):
        import tracemalloc

        precision, _ = posterior_precision_terms(human_posterior(human_model_foot, rng))
        solver, stack = factorized(precision)
        assert solver.n == 1248
        tracemalloc.start()
        try:
            solver.selected_inverse(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPrecisionPlan:
    def _check(self, problem):
        plan = problem.plan()
        band, rhs = one_sample_terms(plan, problem)
        precision, expected_rhs = posterior_precision_terms(problem)
        expected = block_values(plan.solver, precision)
        np.testing.assert_allclose(band, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())
        np.testing.assert_allclose(rhs, expected_rhs, rtol=1e-13, atol=1e-13 * np.abs(expected_rhs).max())

    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_band_matches_posterior_terms_on_random_models(self, make_model):
        from mapdyn.sensors import default_sensor_specs

        rng = np.random.default_rng(31)
        for _ in range(4):
            model = make_model(int(rng.integers(2, 9)), rng)
            casm = ConstraintAssembler(model)
            masm = MeasurementAssembler(model, default_sensor_specs(model, contact_links=["link1"]))
            q, qd, _ = random_state(model, rng)
            mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
            dim = casm.layout.size
            self._check(MapProblem(
                mat_d, b_d, mat_y, b_y, rng.normal(0.0, 1.0, masm.dim),
                sigma_D=rng.uniform(1e-5, 1e-3, casm.n_rows),
                sigma_y=masm.variances * rng.uniform(0.5, 2.0, masm.dim),
                mu_d=rng.normal(0.0, 1.0, dim),
                sigma_d=rng.uniform(1e3, 1e5, dim),
            ))

    def test_band_matches_posterior_terms_on_48dof_model(self, human_model_foot, rng):
        self._check(human_posterior(human_model_foot, rng))

    def test_assembler_patterns_give_the_plan_of_the_csc_matrices(self, human_model_foot, rng):
        """`estimate`'s plan, from the assemblers' index arrays, equals `map_solve`'s, from CSC matrices."""
        from mapdyn.sensors import assemble_system, default_sensor_specs

        model = human_model_foot
        casm = ConstraintAssembler(model)
        masm = MeasurementAssembler(model, default_sensor_specs(model))
        q, qd = rng.uniform(-0.2, 0.2, (3, model.n_dof)), rng.normal(0.0, 0.3, (3, model.n_dof))
        system = assemble_system(casm, masm, q, qd)
        y = rng.normal(0.0, 1.0, (3, masm.dim))
        ours = PrecisionPlan(casm.pattern, masm.pattern, 1e-4, masm.variances)
        theirs = MapProblem(
            casm.matrix(system[0][0]), system[1][0], masm.matrix(system[2][0]), system[3][0], y[0],
            sigma_y=masm.variances,
        ).plan()
        for a, b in zip(ours.terms(*system, y), theirs.terms(*system, y)):
            assert a.tobytes() == b.tobytes()

    def test_missing_reading_equals_deleted_row(self, two_link_problem):
        problem, _, _ = two_link_problem
        y = problem.y.copy()
        y[2] = np.nan
        plan = problem.plan()
        band, rhs = one_sample_terms(plan, problem, y)
        assert np.isfinite(band).all() and np.isfinite(rhs).all()
        stack = band[None]
        plan.solver.factorize_blocks(stack)
        mean = plan.solver.solve(stack, rhs[None])[0]
        keep = np.arange(problem.Y.shape[0]) != 2
        expected = map_solve(MapProblem(
            problem.D, problem.b_D, problem.Y[keep], problem.b_Y[keep], problem.y[keep],
            sigma_D=problem.sigma_D, sigma_y=problem.sigma_y[keep], mu_d=problem.mu_d, sigma_d=problem.sigma_d,
        ))
        assert np.abs(mean - expected.mean).max() <= 1e-10 * np.abs(expected.mean).max()
        idx = np.arange(problem.dim_d)
        np.testing.assert_allclose(
            plan.solver.selected_inverse(stack)[0][idx], expected.variances[idx], rtol=1e-10
        )

    def test_non_finite_bias_names_its_sample(self, two_link_problem):
        """A non-finite bias would pass the factor and give a NaN mean: an error instead."""
        problem, _, _ = two_link_problem
        problem.b_D[0] = np.inf
        with pytest.raises(EstimatorError, match="sample 0 of 1: b_D or b_Y is not finite"):
            map_solve(problem)

    def test_missing_reading_ignores_its_bias(self, two_link_problem):
        problem, _, _ = two_link_problem
        plan = problem.plan()
        y = problem.y.copy()
        y[2] = np.nan
        b_y = problem.b_Y.copy()
        b_y[2] = np.inf
        ours = stack_terms(plan, [(problem.D, problem.b_D, problem.Y, b_y, y)])
        finite_bias = stack_terms(plan, [(problem.D, problem.b_D, problem.Y, problem.b_Y, y)])
        for a, b in zip(ours, finite_bias):
            assert a.tobytes() == b.tobytes()

    def test_problem_without_stored_entries_gives_float_band(self, rng):
        dim = 4
        sigma_d = rng.uniform(1.0, 3.0, dim)
        mu = rng.normal(0.0, 1.0, dim)
        empty = sp.csc_matrix((0, dim))
        problem = MapProblem(empty, np.zeros(0), empty, np.zeros(0), np.zeros(0), mu_d=mu, sigma_d=sigma_d)
        plan = problem.plan()
        band, rhs = one_sample_terms(plan, problem)
        assert band.dtype == np.float64
        expected = np.zeros(plan.solver.size)
        expected[plan.solver.diag_slots] = (1.0 / sigma_d)[plan.solver.perm]
        np.testing.assert_array_equal(band, expected)
        np.testing.assert_array_equal(rhs, mu / sigma_d)

    def test_rejects_other_layout(self, two_link_problem):
        problem, _, _ = two_link_problem
        plan = problem.plan()
        with pytest.raises(EstimatorError):
            plan.terms(
                problem.D[:, :-1].data[None], problem.b_D[None], problem.Y.data[None], problem.b_Y[None], problem.y[None]
            )


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
        precision, _ = prior_precision_terms(problem)
        cov = np.linalg.inv(precision.toarray())
        assert np.allclose(cov, np.diag([2.5] * dim), atol=1e-10)
        assert np.allclose(belief.variances[np.arange(dim)], np.diag(cov), atol=1e-10)

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
        cov = np.linalg.inv(precision)
        assert np.abs(belief.variances[np.arange(52)] - np.diag(cov)).max() < 1e-9
        # at the default spread the solve is still backward stable: the
        # residual matches the dense solve's
        belief_default = shape_prior(problem)
        prec, rhs = prior_precision_terms(problem)
        res = np.abs(prec @ belief_default.mean - rhs).max()
        dense = np.linalg.solve(prec.toarray(), rhs)
        res_dense = np.abs(prec @ dense - rhs).max()
        assert res <= 10 * res_dense + 1e-12


class TestMapSolve:
    def test_recovers_truth_with_tight_measurements(self, two_link_model, rng):
        q, qd, qdd = random_state(two_link_model, rng)
        d_star = rnea(two_link_model, q, qd, qdd)
        mat_d, b_d = one_state(ConstraintAssembler(two_link_model), q, qd)
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
        posterior_precision, _ = posterior_precision_terms(problem)
        prior_precision, _ = prior_precision_terms(problem)
        y = problem.Y.toarray()
        info = y.T @ np.diag(1.0 / problem.sigma_y) @ y
        gap = posterior_precision.toarray() - prior_precision.toarray() - info
        denom = np.linalg.norm(posterior_precision.toarray())
        assert np.linalg.norm(gap) / denom < 1e-10
        dense = np.linalg.inv(prior_precision.toarray() + info)
        idx = np.array([18, 44])  # torque slots of both links
        assert np.allclose(map_solve(problem).variances[idx], np.diag(dense)[idx], rtol=1e-9)

    def test_rank_deficiency_reports_dimension(self):
        dim = 6
        # only 4 of 6 directions observed, no constraints
        y = sp.csc_matrix(np.eye(dim)[:4])
        problem = MapProblem(
            sp.csc_matrix((0, dim)), np.zeros(0), y, np.zeros(4), np.zeros(4),
            sigma_y=1.0, sigma_d=1e4,
        )
        assert stacked_rank_deficiency(problem) == 2
        u = unobserved_dimension(map_solve(problem).variances[np.arange(dim)], problem.sigma_d)
        assert round(u) == 2
        assert abs(u - 2) < 1e-3

    def test_marginal_variances_exposed(self, two_link_problem):
        problem, _, _ = two_link_problem
        belief = map_solve(problem)
        dense = np.linalg.inv(posterior_precision_terms(problem)[0].toarray())
        idx = np.array([18, 44])  # torque slots of both links
        assert np.allclose(belief.variances[idx], np.diag(dense)[idx], rtol=1e-9)


def masked_variances(plan, problem, dropped):
    """All posterior variances with the ``dropped`` readings missing (NaN)."""
    y = np.where(dropped, np.nan, problem.y)
    band, _ = one_sample_terms(plan, problem, y)
    stack = band[None]
    plan.solver.factorize_blocks(stack)
    return plan.solver.selected_inverse(stack)[0]


def random_model_problems(make_model, rng, count=6):
    from mapdyn.sensors import default_sensor_specs

    for _ in range(count):
        model = make_model(int(rng.integers(2, 9)), rng)
        casm = ConstraintAssembler(model)
        masm = MeasurementAssembler(model, default_sensor_specs(model, contact_links=["link1"]))
        q, qd, _ = random_state(model, rng)
        mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
        yield MapProblem(mat_d, b_d, mat_y, b_y, rng.normal(0.0, 1.0, masm.dim), sigma_y=masm.variances)


class TestUnobservedDimension:
    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_matches_rank_deficiency_on_random_models(self, make_model):
        """``u = sum_i 1 / (1 + lambda_i)`` over the data information relative to
        the prior; where no ``lambda_i`` lies near 1, ``round(u)`` is the SVD
        rank deficiency of the stacked ``[Y; D]`` under the mask."""
        rng = np.random.default_rng(31)
        cases = separated = 0
        for problem in random_model_problems(make_model, rng):
            plan = problem.plan()
            stack = sp.vstack([problem.D, problem.Y]).toarray() * np.sqrt(problem.sigma_d)
            for fraction in (0.0, 0.05, 0.2, 0.5, 0.9):
                dropped = rng.random(problem.Y.shape[0]) < fraction
                u = unobserved_dimension(masked_variances(plan, problem, dropped), problem.sigma_d)
                weights = np.concatenate([1.0 / problem.sigma_D, np.where(dropped, 0.0, 1.0 / problem.sigma_y)])
                lam = np.clip(np.linalg.eigvalsh(stack.T @ (stack * weights[:, None])), 0.0, None)
                assert u == pytest.approx(np.sum(1.0 / (1.0 + lam)), abs=1e-3)
                cases += 1
                # a direction the data determine only about as well as the prior
                # counts in part in u but in full in the rank
                if not np.any((lam > 1e-2) & (lam < 1e2)):
                    separated += 1
                    assert round(u) == stacked_rank_deficiency(problem, keep=~dropped)
        assert separated >= 0.9 * cases

    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_dropping_channels_never_lowers_variance_or_u(self, make_model):
        rng = np.random.default_rng(32)
        for problem in random_model_problems(make_model, rng):
            plan = problem.plan()
            dropped = np.zeros(problem.Y.shape[0], dtype=bool)
            before = masked_variances(plan, problem, dropped)
            u_before = unobserved_dimension(before, problem.sigma_d)
            for _ in range(4):
                dropped |= rng.random(dropped.size) < 0.15
                after = masked_variances(plan, problem, dropped)
                u_after = unobserved_dimension(after, problem.sigma_d)
                # these posteriors reach a condition number of about 1e10, so a
                # variance is good to about cond * eps ~ 2e-6 relative: the
                # exact inverses of two such rounded precisions can already
                # differ the wrong way by 6e-9 relative
                assert np.all(after >= before * (1 - 1e-6))
                assert u_after >= u_before * (1 - 1e-12)
                before, u_before = after, u_after


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
    """Adding a sensor group to a problem, each stage solved on its own."""

    def test_zero_information_group(self, two_link_problem):
        problem, _, _ = two_link_problem
        idx = np.arange(problem.dim_d)
        silent = MapProblem(
            problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y,
            sigma_D=problem.sigma_D, sigma_y=np.inf, mu_d=problem.mu_d, sigma_d=problem.sigma_d,
        )
        np.testing.assert_allclose(
            map_solve(silent).variances[idx], shape_prior(problem).variances[idx], rtol=1e-12
        )

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
        first_half = MapProblem(
            problem.D, problem.b_D, problem.Y[:half], problem.b_Y[:half], problem.y[:half],
            sigma_D=problem.sigma_D, sigma_y=problem.sigma_y[:half], sigma_d=problem.sigma_d,
        )
        stages = [shape_prior(problem), map_solve(first_half), map_solve(problem)]
        variances = [belief.variances[idx] for belief in stages]
        precisions = [prior_precision_terms(problem)[0]] + [
            posterior_precision_terms(p)[0] for p in (first_half, problem)
        ]
        covariances = [np.linalg.inv(p.toarray()) for p in precisions]
        for k in (1, 2):
            assert np.all(variances[k] <= variances[k - 1] + 1e-12)
            cov_e, cov_l = covariances[k - 1], covariances[k]
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
            mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, x[:n], x[n:])
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
        mat_d, b_d, mat_y, b_y = one_state_system(casm, masm, q, qd)
        y = mat_y @ d_star + b_y
        problem = MapProblem(mat_d, b_d, mat_y, b_y, y, sigma_y=masm.variances)

        def build(x):
            dmat, bd, ymat, by = one_state_system(casm, masm, x[:n], x[n:])
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


def solve_stack(plan, samples):
    """Means and all variances of a stack of (D, b_D, Y, b_Y, y) samples, as ``estimate`` runs a batch."""
    solver = plan.solver
    stack, rhs = stack_terms(plan, samples)
    solver.factorize_blocks(stack)
    return solver.solve(stack, rhs), solver.selected_inverse(stack)


def human_samples(model, rng, count):
    from mapdyn.sensors import default_sensor_specs

    casm = ConstraintAssembler(model)
    masm = MeasurementAssembler(model, default_sensor_specs(model, contact_links=["RightFoot"]))
    samples = []
    for _ in range(count):
        q, qd, _ = random_state(model, rng, 0.2, 0.3, 0.3)
        samples.append((*one_state_system(casm, masm, q, qd), rng.normal(0.0, 1.0, masm.dim)))
    return samples, masm.variances


class TestBlockSolver:
    def _check_against_dense(self, problem):
        plan = problem.plan()
        mean, variances = solve_stack(plan, [(problem.D, problem.b_D, problem.Y, problem.b_Y, problem.y)])
        precision, rhs = posterior_precision_terms(problem)
        dense_mean = np.linalg.solve(precision.toarray(), rhs)
        assert np.abs(mean[0] - dense_mean).max() <= 1e-9 * (1 + np.abs(dense_mean).max())
        np.testing.assert_allclose(variances[0], np.diag(np.linalg.inv(precision.toarray())), rtol=1e-10)
        return plan.solver

    @pytest.mark.parametrize("make_model", [random_chain_model, random_tree_model])
    def test_means_and_marginals_match_dense_on_random_models(self, make_model):
        for problem in random_model_problems(make_model, np.random.default_rng(33)):
            self._check_against_dense(problem)

    def test_augmented_border_block_is_eliminated_last(self, rng):
        """An augmented state couples to every link: it forms a trailing block, eliminated last."""
        problem = next(random_model_problems(random_tree_model, np.random.default_rng(34)))
        dim_x = 5
        border_d = rng.normal(0.0, 1.0, (problem.D.shape[0], dim_x))
        border_y = rng.normal(0.0, 1.0, (problem.Y.shape[0], dim_x))
        aug = MapProblem(
            sp.hstack([problem.D, sp.csc_matrix(border_d)]).tocsc(), problem.b_D,
            sp.hstack([problem.Y, sp.csc_matrix(border_y)]).tocsc(), problem.b_Y, problem.y,
            sigma_D=problem.sigma_D, sigma_y=problem.sigma_y,
            sigma_d=np.concatenate([problem.sigma_d, np.full(dim_x, 10.0)]),
        )
        solver = self._check_against_dense(aug)
        assert solver.widths[-1] == dim_x
        assert all(len(solver.below) - 1 in below for below in solver.below[:-1])

    def test_block_cycle_fills_one_block(self, rng):
        """Four blocks coupled in a ring: eliminating any block joins its two neighbours."""
        dense = np.zeros((104, 104))
        for k in range(4):
            nxt = (k + 1) % 4
            dense[26 * k: 26 * k + 26, 26 * nxt: 26 * nxt + 26] = rng.normal(0.0, 0.1, (26, 26))
        dense += dense.T + np.diag(np.abs(dense).sum(axis=1) + 1.0)
        mat = sp.csc_matrix(dense)
        solver, stack = factorized(mat)
        assert sum(len(below) for below in solver.below) == 5  # the ring's 4 couplings and 1 fill
        rhs = rng.normal(0.0, 1.0, 104)
        expected = np.linalg.solve(dense, rhs)
        assert np.abs(solver.solve(stack, rhs[None])[0] - expected).max() <= 1e-12 * (1 + np.abs(expected).max())
        expected = np.diag(np.linalg.inv(dense))
        np.testing.assert_allclose(solver.selected_inverse(stack)[0], expected, rtol=1e-10)

    def test_stack_position_does_not_change_a_sample(self, human_model_foot, rng):
        samples, variances = human_samples(human_model_foot, rng, 8)
        plan = MapProblem(*samples[0], sigma_y=variances).plan()
        alone = [solve_stack(plan, [sample]) for sample in samples]
        for shift in range(len(samples)):
            order = np.roll(np.arange(len(samples)), shift)
            means, marginals = solve_stack(plan, [samples[k] for k in order])
            for position, k in enumerate(order):
                assert means[position].tobytes() == alone[k][0][0].tobytes()
                assert marginals[position].tobytes() == alone[k][1][0].tobytes()

    def test_two_stacks_in_flight_each_get_their_own_bytes(self, human_model_foot, rng):
        """The solver holds no numbers: factorize stack A, factorize stack B,
        then solve and invert both, and each gives the bytes it gets alone."""
        samples, variances = human_samples(human_model_foot, rng, 6)
        plan = MapProblem(*samples[0], sigma_y=variances).plan()
        solver = plan.solver

        def alone(part):
            stack, rhs = stack_terms(plan, part)
            ratio = solver.factorize_blocks(stack)
            return ratio, solver.solve(stack, rhs), solver.selected_inverse(stack)

        expected = [alone(samples[:4]), alone(samples[4:])]
        (stack_a, rhs_a), (stack_b, rhs_b) = stack_terms(plan, samples[:4]), stack_terms(plan, samples[4:])
        ratio_a = solver.factorize_blocks(stack_a)
        ratio_b = solver.factorize_blocks(stack_b)
        mean_a, mean_b = solver.solve(stack_a, rhs_a), solver.solve(stack_b, rhs_b)
        variances_b, variances_a = solver.selected_inverse(stack_b), solver.selected_inverse(stack_a)
        for got, ref in zip([(ratio_a, mean_a, variances_a), (ratio_b, mean_b, variances_b)], expected):
            for part, reference in zip(got, ref):
                assert part.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", ["one-dimensional", "not C-contiguous", "float32"])
    def test_stack_that_would_be_copied_is_an_error(self, rng, kind):
        """The numeric phase works in place: a stack it would have to copy raises."""
        mat = random_spd(rng, 30)
        coo = sp.coo_matrix(mat)
        solver = SparseCholeskySolver(coo.row, coo.col, 30)
        values = block_values(solver, mat)
        stack = {
            "one-dimensional": values,
            "not C-contiguous": np.asfortranarray(np.stack([values, values])),
            "float32": values[None].astype(np.float32),
        }[kind]
        before = stack.copy()
        for call in (solver.factorize_blocks, solver.selected_inverse, lambda s: solver.solve(s, np.ones((2, 30)))):
            with pytest.raises(EstimatorError, match="C-contiguous float64"):
                call(stack)
        assert stack.tobytes() == before.tobytes()

    def test_failing_sample_of_a_stack_names_the_callers_column(self, human_model_foot, rng):
        samples, variances = human_samples(human_model_foot, rng, 4)
        plan = MapProblem(*samples[0], sigma_y=variances).plan()
        solver = plan.solver
        column = DynLayout(human_model_foot).tau(30)
        values, _ = stack_terms(plan, samples)
        values[2, solver.diag_slots[solver.iperm[column]]] = -1.0
        with pytest.raises(NotPositiveDefiniteError, match="sample 2 of 4") as err:
            solver.factorize_blocks(values)
        assert err.value.pivot_index == column

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_angle_fails_its_sample(self, human_model_foot, rng, bad):
        """A non-finite joint angle reaches the factor as a non-finite pivot: an error, not a NaN mean."""
        from mapdyn.sensors import assemble_system, default_sensor_specs

        model = human_model_foot
        casm = ConstraintAssembler(model)
        masm = MeasurementAssembler(model, default_sensor_specs(model))
        plan = PrecisionPlan(casm.pattern, masm.pattern, 1e-4, masm.variances)
        q, qd = rng.uniform(-0.2, 0.2, (8, model.n_dof)), rng.normal(0.0, 0.3, (8, model.n_dof))
        q[3, 10] = bad
        with np.errstate(invalid="ignore"):
            values, _ = plan.terms(*assemble_system(casm, masm, q, qd), np.zeros((8, masm.dim)))
        with pytest.raises(NotPositiveDefiniteError, match="sample 3 of 8"), np.errstate(invalid="ignore"):
            plan.solver.factorize_blocks(values)

    def test_non_finite_velocity_fails_its_sample(self, human_model_foot, rng):
        """A non-finite joint velocity reaches only the biases: ``terms`` names its sample."""
        from mapdyn.sensors import assemble_system, default_sensor_specs

        model = human_model_foot
        casm = ConstraintAssembler(model)
        masm = MeasurementAssembler(model, default_sensor_specs(model))
        plan = PrecisionPlan(casm.pattern, masm.pattern, 1e-4, masm.variances)
        q, qd = rng.uniform(-0.2, 0.2, (8, model.n_dof)), rng.normal(0.0, 0.3, (8, model.n_dof))
        qd[3, 20] = np.inf
        system = assemble_system(casm, masm, q, qd)
        with pytest.raises(EstimatorError, match="sample 3 of 8: b_D or b_Y is not finite"):
            plan.terms(*system, np.zeros((8, masm.dim)))

    def test_one_batch_of_8_allocates_under_1mb_per_sample(self, human_model_foot, rng):
        import tracemalloc

        samples, variances = human_samples(human_model_foot, rng, 8)
        plan = MapProblem(*samples[0], sigma_y=variances).plan()
        solve_stack(plan, samples[:1])  # first-call allocations of numpy and LAPACK
        tracemalloc.start()
        try:
            solve_stack(plan, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_48dof_plan_lists_at_most_41000_pairs(self, human_model_foot, rng):
        samples, variances = human_samples(human_model_foot, rng, 1)
        plan = MapProblem(*samples[0], sigma_y=variances).plan()
        assert plan._slot.size <= 41000


def test_map_estimator_one_sample_at_a_time_gives_the_stack_bytes():
    """On the 48-DoF model, 64 calls of T = 1 give the bytes of one 64-sample call.

    Mean, variances, unobserved dimension and pivot ratio all match. The
    child process imports the library only: ``mapdyn.cli`` stays unloaded.
    """
    import subprocess
    import sys

    from conftest import child_env

    script = """
import sys
import numpy as np
from mapdyn.estimator import MapEstimator
from mapdyn.model import build_human_model, example_landmarks
from mapdyn.sensors import default_sensor_specs

model = build_human_model({"mass_total": 75.9, "landmarks": example_landmarks()}, root="LeftFoot")
estimator = MapEstimator(model, default_sensor_specs(model, contact_links=["RightFoot", "RightToe", "LeftToe"]))
rng = np.random.default_rng(3)
q, qd = rng.uniform(-0.2, 0.2, (64, model.n_dof)), rng.normal(0.0, 0.3, (64, model.n_dof))
y = rng.normal(0.0, 1.0, (64, estimator.measurements.dim))
whole = estimator.estimate(q, qd, y)
single = [estimator.estimate(q[k], qd[k], y[k]) for k in range(64)]
for name, stacked in zip(whole._fields, whole):
    assert stacked.shape[0] == 64, name
    assert stacked.tobytes() == np.concatenate([getattr(p, name) for p in single]).tobytes(), name
assert "mapdyn.cli" not in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert result.returncode == 0, result.stderr
