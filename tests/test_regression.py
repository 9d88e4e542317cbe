import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from alr.regression import (
    SOLVER_KINDS,
    LinearModel,
    SolverConfig,
    coefficient_mae,
    fit,
    parse_solver,
    predict,
    resolve_lambda,
    solver_to_string,
)


def _kkt_residual(X, y, model, l1, l2):
    """Independent subgradient-optimality check of the unscaled objective.

    ||y - Xb - c||^2 + l1*||b||_1 + l2*||b||^2, with c the unpenalized
    intercept, evaluated on centered data as the solvers see it.
    """
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    beta = model.coefficients
    grad = -2.0 * Xc.T @ (yc - Xc @ beta) + 2.0 * l2 * beta
    worst = 0.0
    for j, b in enumerate(beta):
        if b != 0.0:
            worst = max(worst, abs(grad[j] + l1 * math.copysign(1.0, b)))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - l1))
    return worst


def _random_problem(seed, n=40, d=5, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    y = X @ beta + rng.standard_normal(n) * noise + rng.uniform(-1, 1)
    return X, y


class TestOls:
    def test_exact_line(self):
        model = fit([[1.0], [2.0]], [1.0, 2.0], SolverConfig("ols"))
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_minimum_norm(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 5))
        y = rng.standard_normal(3)
        model = fit(X, y, SolverConfig("ols"))
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        expected = np.linalg.pinv(Xc) @ yc
        assert np.allclose(model.coefficients, expected, atol=1e-10)

    def test_mean_residual_zero(self):
        for seed in range(5):
            X, y = _random_problem(seed)
            for cfg in (
                SolverConfig("ols"),
                SolverConfig("ridge", lam=3.0),
                SolverConfig("lasso", lam=0.01),
                SolverConfig("elastic_net", lam=0.01, lam2=0.5),
            ):
                model = fit(X, y, cfg)
                resid = y - predict(model, X)
                assert abs(resid.mean()) < 1e-8


class TestRidge:
    def test_scalar_closed_form(self):
        model = fit([[1.0], [-1.0]], [1.0, -1.0], SolverConfig("ridge", lam=2.0))
        # sum(xy) / (sum(x^2) + lam) = 2 / 4
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-12)

    def test_scalar_closed_form_random(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(9)
            y = rng.standard_normal(9)
            lam = rng.uniform(0.01, 5)
            model = fit(x[:, None], y, SolverConfig("ridge", lam=lam))
            xc = x - x.mean()
            yc = y - y.mean()
            expected = float(xc @ yc) / (float(xc @ xc) + lam)
            assert model.coefficients[0] == pytest.approx(expected, abs=1e-10)

    def test_lam_zero_equals_ols(self):
        for seed in range(10):
            X, y = _random_problem(seed)
            ridge = fit(X, y, SolverConfig("ridge", lam=0.0))
            ols = fit(X, y, SolverConfig("ols"))
            assert np.abs(ridge.coefficients - ols.coefficients).max() < 1e-8

    def test_lambda_over_labeled_count(self):
        X, y = _random_problem(3, n=20)
        dynamic = fit(X, y, SolverConfig("ridge", lam=10.0, lambda_over_k="labeled"))
        fixed = fit(X, y, SolverConfig("ridge", lam=0.5))
        assert np.allclose(dynamic.coefficients, fixed.coefficients, atol=1e-14)

    def test_budget_lambda_needs_resolution(self):
        X, y = _random_problem(0)
        cfg = SolverConfig("ridge", lam=10.0, lambda_over_k="budget")
        with pytest.raises(ValueError, match="resolve"):
            fit(X, y, cfg)
        resolved = resolve_lambda(cfg, budget=40)
        assert resolved.lam == 0.25
        fit(X, y, resolved)


class TestLasso:
    def test_lambda_max_zeroes_everything(self):
        for seed in range(5):
            X, y = _random_problem(seed)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            lam_max = 2.0 * np.abs(Xc.T @ yc).max()
            model = fit(X, y, SolverConfig("lasso", lam=lam_max * 1.000001))
            assert (model.coefficients == 0.0).all()
            below = fit(X, y, SolverConfig("lasso", lam=lam_max * 0.5))
            assert (below.coefficients != 0.0).any()

    def test_subgradient_optimality(self):
        for seed in range(10):
            X, y = _random_problem(seed)
            lam = 0.05 * (1 + seed)
            model = fit(X, y, SolverConfig("lasso", lam=lam))
            assert _kkt_residual(X, y, model, lam, 0.0) < 1e-5

    def test_rank_deficient_design_solved(self):
        # K = d: the centred design has rank K - 1, as at the first VAM-shaped fit
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((46, 46))
            y = X @ rng.standard_normal(46) + 0.1 * rng.standard_normal(46)
            model = fit(X, y, SolverConfig("lasso", lam=1e-3))
            assert model.converged
            assert _kkt_residual(X, y, model, 1e-3, 0.0) < 1e-8

    def test_duplicated_columns(self):
        # a column equal to, or a multiple of, an active one can never enter the active set
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((20, 6))
            X[:, 3] = X[:, 0]
            X[:, 4] = -2.0 * X[:, 1]
            y = X @ rng.standard_normal(6) + 0.3 * rng.standard_normal(20)
            model = fit(X, y, SolverConfig("lasso", lam=1e-3))
            assert model.converged
            assert _kkt_residual(X, y, model, 1e-3, 0.0) < 1e-8

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(60)
        X = np.column_stack([base + 0.01 * rng.standard_normal(60) for _ in range(4)])
        y = X @ np.array([1.0, -2.0, 3.0, -1.0]) + 0.1 * rng.standard_normal(60)
        cfg = SolverConfig("lasso", lam=1e-6, cd_max_iters=1)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            model = fit(X, y, cfg)
        assert not model.converged


class TestElasticNet:
    def test_subgradient_optimality(self):
        for seed in range(10):
            X, y = _random_problem(seed)
            l1, l2 = 0.03 * (1 + seed), 0.4
            model = fit(X, y, SolverConfig("elastic_net", lam=l1, lam2=l2))
            assert _kkt_residual(X, y, model, l1, l2) < 1e-5

    def test_reduces_to_ridge(self):
        X, y = _random_problem(2)
        en = fit(X, y, SolverConfig("elastic_net", lam=0.0, lam2=2.5))
        ridge = fit(X, y, SolverConfig("ridge", lam=2.5))
        assert np.abs(en.coefficients - ridge.coefficients).max() < 1e-6

    def test_reduces_to_lasso(self):
        X, y = _random_problem(5)
        en = fit(X, y, SolverConfig("elastic_net", lam=0.8, lam2=0.0))
        lasso = fit(X, y, SolverConfig("lasso", lam=0.8))
        assert np.abs(en.coefficients - lasso.coefficients).max() < 1e-6


def _lambda_max(X, y):
    """The smallest L1 weight at which every LASSO coefficient is zero."""
    Xc = X - X.mean(axis=0)
    return 2.0 * np.abs(Xc.T @ (y - y.mean())).max()


class TestLassoPathOracle:
    """The exact path solver against plain-Python residual-form coordinate descent."""

    TOL = 1e-6

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        # k <= d gives rank-deficient designs, where coordinate descent may run to its cap
        shape=st.tuples(st.integers(2, 12), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
        zero_column=st.booleans(),
        l2=st.sampled_from((0.0, 0.01, 1.0)),
        # lambda from 1e-5 lambda_max up to just past lambda_max, where
        # coordinates enter and leave the active set along the path
        log_scale=st.floats(-5.0, 0.05),
    )
    def test_random_instances(self, shape, seed, zero_column, l2, log_scale):
        k, d = shape
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((k, d))
        if zero_column:
            X[:, rng.integers(d)] = 0.0
        y = X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(k)
        l1 = _lambda_max(X, y) * 10.0**log_scale
        kind = "elastic_net" if l2 > 0.0 else "lasso"
        model = fit(X, y, SolverConfig(kind, lam=l1, lam2=l2, cd_tolerance=self.TOL, cd_max_iters=300))
        oracle, oracle_converged = bruteforce.coordinate_descent(
            X.tolist(), y.tolist(), l1, l2, self.TOL, 300
        )
        oracle = np.array(oracle)

        assert model.converged
        assert _kkt_residual(X, y, model, l1, l2) <= 1e-9
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()

        def objective(beta):
            return np.sum((yc - Xc @ beta) ** 2) + l1 * np.abs(beta).sum() + l2 * beta @ beta

        assert objective(model.coefficients) <= objective(oracle) * (1.0 + 1e-9)
        if oracle_converged and np.linalg.cond(Xc.T @ Xc + l2 * np.eye(d)) <= 1e6:
            assert np.abs(model.coefficients - oracle).max() <= 10.0 * self.TOL


class TestPredict:
    def test_converged_is_keyword_only(self):
        # a third positional argument (the solver a model once carried) must not bind to converged
        with pytest.raises(TypeError):
            LinearModel([1.0], 0.0, SolverConfig("ols"))
        assert not LinearModel([1.0], 0.0, converged=False).converged

    def test_constant_model(self):
        model = LinearModel([0.0, 0.0], 3.5)
        assert np.array_equal(predict(model, [[1, 2], [8, 9]]), [3.5, 3.5])

    def test_recovers_training_targets(self):
        X, y = _random_problem(7, n=30, d=3, noise=0.0)
        model = fit(X, y, SolverConfig("ols"))
        assert np.abs(predict(model, X) - y).max() < 1e-8

    def test_dot_product(self):
        model = LinearModel([1.0, 2.0], 0.0)
        assert predict(model, [[3.0, 4.0]])[0] == pytest.approx(11.0)

    def test_dimension_mismatch(self):
        model = LinearModel([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="features"):
            predict(model, [[1.0, 2.0, 3.0]])


class TestCoefficientMae:
    def test_identical_models(self):
        coefs = np.array([[1.0, -3.0], [0.5, 2.0]])
        assert coefficient_mae(coefs[0], coefs[0]) == 0.0
        assert np.array_equal(coefficient_mae(coefs, coefs), [0.0, 0.0])

    def test_hand_value(self):
        assert coefficient_mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)
        assert coefficient_mae([[1.0, 2.0], [0.0, 0.0]], [[2.0, 4.0], [0.0, -1.0]]) == pytest.approx([1.5, 0.5])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.standard_normal((2, 3, 4))
            assert np.array_equal(coefficient_mae(a, b), coefficient_mae(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            coefficient_mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="shapes differ"):
            coefficient_mae(np.zeros((3, 2)), np.zeros((2, 2)))


class TestValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fit([[np.nan]], [1.0], SolverConfig("ols"))
        with pytest.raises(ValueError):
            fit([[1.0]], [np.inf], SolverConfig("ols"))

    def test_single_row_fits_intercept_only(self):
        model = fit([[2.0, 3.0]], [7.0], SolverConfig("ridge", lam=1.0))
        assert (model.coefficients == 0.0).all()
        assert model.intercept == pytest.approx(7.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig("sgd")
        with pytest.raises(ValueError):
            SolverConfig("ridge", lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig("lasso", cd_tolerance=0.0)
        for fields in ({"lam": math.nan}, {"lam": math.inf}, {"lam2": math.nan}, {"cd_tolerance": math.nan},
                       {"cd_tolerance": math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                SolverConfig("elastic_net", **fields)
        for kind in ("ols", "ridge"):
            for fields in ({"cd_tolerance": 1e-3}, {"cd_max_iters": 5}):
                with pytest.raises(ValueError, match=f"{kind} takes no tol or max_iters"):
                    SolverConfig(kind, **fields)


# floats of every magnitude, and ones whose shortest repr takes all 17 significant digits
_SEVENTEEN_DIGITS = st.builds(
    lambda m, e: float(f"{m}e{e}"), st.integers(10**16, 10**17 - 1), st.integers(-30, 5)
)
_WEIGHTS = st.floats(min_value=0.0, max_value=1e300) | _SEVENTEEN_DIGITS
_TOLERANCES = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | _SEVENTEEN_DIGITS


@st.composite
def _solver_configs(draw):
    kind = draw(st.sampled_from(SOLVER_KINDS))
    fields = {}
    if kind != "ols":
        fields["lam"] = draw(_WEIGHTS)
        fields["lambda_over_k"] = draw(st.sampled_from(("none", "labeled", "budget")))
    if kind == "elastic_net":
        fields["lam2"] = draw(_WEIGHTS)
    if kind in ("lasso", "elastic_net") and draw(st.booleans()):
        fields["cd_tolerance"] = draw(_TOLERANCES)
    if kind in ("lasso", "elastic_net") and draw(st.booleans()):
        fields["cd_max_iters"] = draw(st.integers(1, 10**9))
    return SolverConfig(kind, **fields)


class TestSolverGrammar:
    def test_defaults(self):
        ridge = parse_solver("ridge")
        assert ridge.lam == 10.0 and ridge.lambda_over_k == "labeled"
        lasso = parse_solver("lasso")
        assert lasso.lam == 0.001 and lasso.lambda_over_k == "none"
        en = parse_solver("elastic_net")
        assert en.lam == 0.0005 and en.lam2 == 0.0005
        assert parse_solver("ols").kind == "ols"

    def test_explicit_options(self):
        cfg = parse_solver("ridge:lambda=0.5")
        assert cfg.lam == 0.5 and cfg.lambda_over_k == "none"
        cfg = parse_solver("ridge:lambda=10/kmax")
        assert cfg.lambda_over_k == "budget"
        cfg = parse_solver("lasso:lambda=0.01,tol=1e-8,max_iters=500")
        assert cfg.cd_tolerance == 1e-8 and cfg.cd_max_iters == 500

    def test_roundtrip(self):
        # includes the benchmark's solvers: their printed specs label every curve row
        for text in ("ols", "ridge:lambda=10/k", "lasso:lambda=0.001", "elastic_net:lambda1=0.0005,lambda2=0.0005"):
            assert solver_to_string(parse_solver(text)) == text

    def test_printed_lambda_keeps_every_digit(self):
        assert solver_to_string(parse_solver("ridge:lambda=0.123456789")) == "ridge:lambda=0.123456789"
        assert solver_to_string(SolverConfig("lasso", lam=0.1 + 0.2)) == "lasso:lambda=0.30000000000000004"
        assert solver_to_string(parse_solver("ridge:lambda=0")) == "ridge:lambda=0"

    @settings(max_examples=300, deadline=None)
    @given(_solver_configs())
    def test_parse_inverts_print(self, cfg):
        assert parse_solver(solver_to_string(cfg)) == cfg

    def test_ignored_options_rejected(self):
        for fields in ({"lam": 2.0}, {"lambda_over_k": "labeled"}, {"lambda_over_k": "budget"}):
            with pytest.raises(ValueError, match="ols takes no lambda"):
                SolverConfig("ols", **fields)
        for kind in ("ols", "ridge", "lasso"):
            with pytest.raises(ValueError, match="takes no lambda2"):
                SolverConfig(kind, lam2=0.5)
        with pytest.raises(ValueError, match="ols takes no lambda"):
            parse_solver("ols:lambda=2")
        with pytest.raises(ValueError, match="lasso takes no lambda2"):
            parse_solver("lasso:lambda2=0.5")
        assert parse_solver("ols:lambda=0") == SolverConfig("ols")

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown solver"):
            parse_solver("svm")
        with pytest.raises(ValueError, match="unknown solver option"):
            parse_solver("ridge:alpha=1")
        with pytest.raises(ValueError, match="malformed"):
            parse_solver("ridge:lambda")
        with pytest.raises(ValueError, match="solver option 'lambda' in 'ridge:lambda=abc' expects a number, got 'abc'"):
            parse_solver("ridge:lambda=abc")
        with pytest.raises(ValueError, match=r"solver option 'max_iters' in 'lasso:max_iters=1\.5' expects an integer"):
            parse_solver("lasso:max_iters=1.5")
