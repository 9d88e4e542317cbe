"""Single-output linear models: OLS, ridge, LASSO, and elastic net.

All solvers minimize a sum-of-squares objective plus an unscaled penalty:

    ols:          ||y - X b||^2
    ridge:        ||y - X b||^2 + lam * ||b||^2
    lasso:        ||y - X b||^2 + lam * ||b||_1
    elastic_net:  ||y - X b||^2 + lam * ||b||_1 + lam2 * ||b||^2

The intercept is fitted by centering X and y before solving and is never
penalized. Ridge is solved in closed form. LASSO and elastic net run cyclic
coordinate descent in covariance form (Friedman, Hastie & Tibshirani,
"Regularization Paths for Generalized Linear Models via Coordinate Descent",
J. Stat. Softw. 2010): on G = XcᵀXc and c = Xcᵀyc, with no residual vector.
While every coordinate keeps its sign from the previous sweep, a sweep is one
triangular solve; a sweep that changes a sign runs coordinate by coordinate.
Descent stops on the max coefficient change, with a subgradient optimality
guard before declaring convergence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrsv

__all__ = [
    "SOLVER_KINDS",
    "SolverConfig",
    "LinearModel",
    "fit",
    "predict",
    "coefficient_mae",
    "resolve_lambda",
    "parse_solver",
    "solver_to_string",
]

SOLVER_KINDS = ("ols", "ridge", "lasso", "elastic_net")
LAMBDA_MODES = ("none", "labeled", "budget")


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and penalty weights.

    `lam` is the L1 weight for lasso/elastic_net and the L2 weight for ridge;
    `lam2` is the extra L2 weight for elastic_net. When `lambda_over_k` is
    "labeled", the effective penalty is lam / k with k the number of training
    rows, recomputed at every fit; "budget" divides by a fixed query budget
    and must be resolved with :func:`resolve_lambda` before fitting.
    """

    kind: str
    lam: float = 0.0
    lam2: float = 0.0
    lambda_over_k: str = "none"
    cd_tolerance: float = 1e-6
    cd_max_iters: int = 10000

    def __post_init__(self) -> None:
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind '{self.kind}', expected one of {SOLVER_KINDS}")
        if self.lam < 0 or self.lam2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.lambda_over_k not in LAMBDA_MODES:
            raise ValueError(f"lambda_over_k must be one of {LAMBDA_MODES}")
        if self.cd_tolerance <= 0:
            raise ValueError("cd_tolerance must be positive")
        if self.cd_max_iters < 1:
            raise ValueError("cd_max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Fitted coefficients and intercept for one task, plus the solver used.

    `solver` records the resolved configuration (any dynamic lambda replaced
    by the effective value actually applied).
    """

    coefficients: np.ndarray
    intercept: float
    solver: SolverConfig
    converged: bool = True

    def __post_init__(self) -> None:
        coef = np.array(self.coefficients, dtype=float).ravel()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))
        if not np.isfinite(coef).all() or not np.isfinite(self.intercept):
            raise ValueError("model parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.coefficients.size


def resolve_lambda(cfg: SolverConfig, *, k: int | None = None, budget: int | None = None) -> SolverConfig:
    """Replace a dynamic lambda with its effective fixed value.

    "labeled" mode needs `k`, the current labeled count; "budget" mode needs
    `budget`. Configs with a fixed lambda pass through unchanged.
    """
    if cfg.lambda_over_k == "none":
        return cfg
    if cfg.lambda_over_k == "labeled":
        if k is None or k < 1:
            raise ValueError("labeled-count lambda needs k >= 1")
        return replace(cfg, lam=cfg.lam / k, lambda_over_k="none")
    if budget is None or budget < 1:
        raise ValueError("budget-scaled lambda needs budget >= 1")
    return replace(cfg, lam=cfg.lam / budget, lambda_over_k="none")


def fit(features, targets, cfg: SolverConfig) -> LinearModel:
    """Fit one linear model to (features, targets) under `cfg`.

    Centering handles the intercept, so the penalty never touches it. OLS on
    a rank-deficient design falls back to the minimum-norm solution. A
    coordinate-descent run that exhausts cd_max_iters returns its best
    iterate with converged=False and emits a warning.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"targets must be 1-D, got shape {y.shape}")
    k, d = X.shape
    if k < 1:
        raise ValueError("need at least one training row")
    if y.size != k:
        raise ValueError(f"{y.size} targets for {k} rows")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValueError("training data must be finite")
    if cfg.lambda_over_k == "budget":
        raise ValueError(
            "budget-scaled lambda must be resolved with resolve_lambda() before fitting"
        )
    cfg = resolve_lambda(cfg, k=k)

    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean

    converged = True
    if cfg.kind == "ols" or (cfg.kind == "ridge" and cfg.lam == 0.0):
        beta = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    elif cfg.kind == "ridge":
        gram = Xc.T @ Xc + cfg.lam * np.eye(d)
        beta = np.linalg.solve(gram, Xc.T @ yc)
    else:
        lam2 = cfg.lam2 if cfg.kind == "elastic_net" else 0.0
        beta, converged = _coordinate_descent(
            Xc, yc, l1=cfg.lam, l2=lam2, tol=cfg.cd_tolerance, max_iters=cfg.cd_max_iters
        )
        if not converged:
            warnings.warn(
                f"coordinate descent did not converge within {cfg.cd_max_iters} sweeps",
                RuntimeWarning,
                stacklevel=2,
            )

    intercept = y_mean - x_mean @ beta
    return LinearModel(coefficients=beta, intercept=intercept, solver=cfg, converged=converged)


def _kkt_violation(gram: np.ndarray, corr: np.ndarray, beta: np.ndarray, l1: float, l2: float) -> float:
    """Max componentwise violation of the subgradient optimality conditions."""
    grad = -2.0 * (corr - gram @ beta) + 2.0 * l2 * beta
    at_zero = beta == 0.0
    violation = np.where(
        at_zero,
        np.maximum(0.0, np.abs(grad) - l1),
        np.abs(grad + l1 * np.sign(beta)),
    )
    return float(violation.max()) if violation.size else 0.0


def _scalar_sweep(
    gram: np.ndarray, corr: np.ndarray, denom: np.ndarray, beta: np.ndarray, half_l1: float
) -> np.ndarray:
    """One cyclic sweep, coordinate by coordinate: the soft-threshold rule in covariance form."""
    beta = beta.copy()
    movable = np.flatnonzero(denom).tolist()
    # Python floats: NumPy scalar arithmetic would double the cost of the loop
    diag, corr, denom = np.diag(gram).tolist(), corr.tolist(), denom.tolist()
    for j in movable:
        rho = corr[j] - float(gram[j] @ beta) + diag[j] * float(beta[j])
        shrunk = abs(rho) - half_l1
        beta[j] = math.copysign(shrunk, rho) / denom[j] if shrunk > 0.0 else 0.0
    return beta


def _coordinate_descent(
    Xc: np.ndarray, yc: np.ndarray, l1: float, l2: float, tol: float, max_iters: int
) -> tuple[np.ndarray, bool]:
    """Cyclic coordinate descent on G = XcᵀXc and c = Xcᵀyc.

    While every coordinate keeps the sign the previous sweep left it with
    (positive, negative or zero), a whole cyclic sweep is one lower-triangular
    solve: rows j with sign s_j != 0 solve

        (tril(G, -1) + diag(G + l2)) β_new = c - (l1/2) s - triu(G, 1) β_old

    and zero rows keep β_new = 0. The solve is accepted only when it is what
    the scalar rule would have done: nonzero coordinates keep their signs and
    every zero coordinate's |ρ_j| stays ≤ l1/2. Otherwise, and on the first
    sweep, a scalar sweep replaces it and sets the pattern for the next one.
    """
    gram = Xc.T @ Xc
    corr = Xc.T @ yc
    denom = np.diag(gram) + l2
    lower = np.tril(gram, -1)
    upper = np.triu(gram, 1)
    half_l1 = l1 / 2.0
    beta = np.zeros(gram.shape[0])
    signs = None
    for _ in range(max_iters):
        new = None
        if signs is not None:
            from_old = upper @ beta
            rhs = target - from_old
            rhs[zero] = 0.0
            # BLAS trsv: scipy.linalg.solve_triangular's checks cost 4x the solve at d = 46
            new = dtrsv(tri, rhs, lower=1)
            if not (np.sign(new) == signs).all() or (
                zero.size and np.abs(corr[zero] - from_old[zero] - lower[zero] @ new).max() > half_l1
            ):
                new = None
        if new is None:
            new = _scalar_sweep(gram, corr, denom, beta, half_l1)
            signs = np.sign(new)
            zero = np.flatnonzero(signs == 0.0)
            target = corr - half_l1 * signs
            tri = lower + np.diag(denom)
            tri[zero] = 0.0
            tri[zero, zero] = 1.0
            tri = np.asfortranarray(tri)  # else dtrsv copies it on every call
        max_delta = np.abs(new - beta).max(initial=0.0)
        beta = new
        if max_delta <= tol and _kkt_violation(gram, corr, beta, l1, l2) <= 10.0 * tol:
            return beta, True
    return beta, False


def predict(model: LinearModel, features) -> np.ndarray:
    """Row-wise model output: features @ coefficients + intercept."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    return X @ model.coefficients + model.intercept


def coefficient_mae(a: LinearModel, b: LinearModel) -> float:
    """Mean absolute difference over coefficients (intercepts excluded)."""
    if a.n_features != b.n_features:
        raise ValueError(
            f"coefficient dimensions differ: {a.n_features} vs {b.n_features}"
        )
    return float(np.mean(np.abs(a.coefficients - b.coefficients)))


_SOLVER_DEFAULTS = {
    "ols": {},
    "ridge": {"lam": 10.0, "lambda_over_k": "labeled"},
    "lasso": {"lam": 0.001},
    "elastic_net": {"lam": 0.0005, "lam2": 0.0005},
}


def parse_solver(text: str) -> SolverConfig:
    """Parse the solver mini-grammar, e.g. "ridge:lambda=10/k" or "lasso:lambda=0.001".

    Bare kinds get their conventional defaults (ridge: lambda=10/k, lasso:
    lambda=0.001, elastic_net: lambda1=lambda2=0.0005). Recognized keys:
    lambda/lambda1, lambda2, tol, max_iters. A lambda of the form "<x>/k"
    divides by the labeled count at each fit; "<x>/kmax" divides by the query
    budget.
    """
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver '{kind}', expected one of {SOLVER_KINDS}")
    opts = dict(_SOLVER_DEFAULTS[kind])
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(f"malformed solver option '{item}' in '{text}'")
            if key in ("lambda", "lambda1"):
                opts.pop("lambda_over_k", None)
                if value.endswith("/kmax"):
                    opts["lam"] = float(value[: -len("/kmax")])
                    opts["lambda_over_k"] = "budget"
                elif value.endswith("/k"):
                    opts["lam"] = float(value[: -len("/k")])
                    opts["lambda_over_k"] = "labeled"
                else:
                    opts["lam"] = float(value)
            elif key == "lambda2":
                opts["lam2"] = float(value)
            elif key == "tol":
                opts["cd_tolerance"] = float(value)
            elif key == "max_iters":
                opts["cd_max_iters"] = int(value)
            else:
                raise ValueError(f"unknown solver option '{key}' in '{text}'")
    return SolverConfig(kind=kind, **opts)


def solver_to_string(cfg: SolverConfig) -> str:
    """Canonical grammar string for a SolverConfig (inverse of parse_solver)."""
    parts = []
    if cfg.kind != "ols" or cfg.lam != 0.0:
        suffix = {"none": "", "labeled": "/k", "budget": "/kmax"}[cfg.lambda_over_k]
        key = "lambda1" if cfg.kind == "elastic_net" else "lambda"
        if not (cfg.kind == "ols" and cfg.lam == 0.0):
            parts.append(f"{key}={cfg.lam:g}{suffix}")
    if cfg.kind == "elastic_net":
        parts.append(f"lambda2={cfg.lam2:g}")
    if cfg.cd_tolerance != 1e-6:
        parts.append(f"tol={cfg.cd_tolerance:g}")
    if cfg.cd_max_iters != 10000:
        parts.append(f"max_iters={cfg.cd_max_iters}")
    return cfg.kind + (":" + ",".join(parts) if parts else "")
