"""Linear models, one per target column or member: OLS, ridge, LASSO, and elastic net.

All solvers minimize a sum-of-squares objective plus an unscaled penalty:

    ols:          ||y - X b||^2
    ridge:        ||y - X b||^2 + lam * ||b||^2
    lasso:        ||y - X b||^2 + lam * ||b||_1
    elastic_net:  ||y - X b||^2 + lam * ||b||_1 + lam2 * ||b||^2

The intercept is fitted by centering X and y before solving and is never
penalized. OLS (and any fit with no penalty) takes the minimum-norm
least-squares solution, and ridge (and elastic net with no L1 weight) is
solved in closed form. LASSO and elastic net follow the exact homotopy path
(Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000) on G = XcᵀXc and
c = Xcᵀyc, which reaches the solution in a finite number of steps even when
the centred design is rank deficient. `tol` is the subgradient optimality
guard: a fit is converged when the KKT residual is at most 10·tol.
`max_iters` caps the path steps.

:func:`fit` follows one shape rule for any number of leading axes: (..., k, d) features with
(..., k) targets give one model per design, and with (..., k, P) targets one per column, P per
design. Leading axes may hold an experiment's runs, a committee's members, or both. Each design
is centred and solved on its own in the same stacked calls, with XcᵀXc formed once for all of
its columns, so every model is bit for bit the 2-D fit to its column of its design alone.
:func:`predict` is the one formula that evaluates a model or a stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

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
_SIDES = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and penalty weights.

    `lam` is the L1 weight for lasso/elastic_net and the L2 weight for ridge
    (ols takes none); `lam2` is the extra L2 weight, for elastic_net only.
    When `lambda_over_k` is "labeled", :func:`fit` applies lam / k with k the
    number of training rows; "budget" divides by a fixed query budget and
    must be resolved with :func:`resolve_lambda` before fitting. The path
    settings `cd_tolerance` and `cd_max_iters` act on lasso and elastic_net
    only, so ols and ridge keep their defaults.
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
        for name, value in (("lambda", self.lam), ("lambda2", self.lam2)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{self.kind} {name} must be finite and nonnegative, got {value}")
        if self.kind == "ols" and (self.lam != 0.0 or self.lambda_over_k != "none"):
            raise ValueError("ols takes no lambda")
        if self.kind != "elastic_net" and self.lam2 != 0.0:
            raise ValueError(f"{self.kind} takes no lambda2; only elastic_net does")
        if self.lambda_over_k not in LAMBDA_MODES:
            raise ValueError(f"lambda_over_k must be one of {LAMBDA_MODES}")
        if not 0.0 < self.cd_tolerance < math.inf:
            raise ValueError(f"{self.kind} tol must be finite and positive, got {self.cd_tolerance}")
        if self.cd_max_iters < 1:
            raise ValueError(f"{self.kind} max_iters must be >= 1")
        if self.kind in ("ols", "ridge") and (self.cd_tolerance, self.cd_max_iters) != (
            SolverConfig.cd_tolerance, SolverConfig.cd_max_iters
        ):
            raise ValueError(f"{self.kind} takes no tol or max_iters; only lasso and elastic_net do")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Coefficients (..., d) and intercepts (...) of one fitted model or a stack of them, and
    the `nonconverged` mask (...) of the problems whose fit failed its KKT check."""

    coefficients: np.ndarray
    intercept: np.ndarray
    nonconverged: np.ndarray = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        coef, intercept = np.array(self.coefficients, dtype=float), np.array(self.intercept, dtype=float)
        if coef.ndim < 1 or intercept.shape != coef.shape[:-1]:
            raise ValueError(f"intercept of shape {intercept.shape} does not match coefficients of shape {coef.shape}")
        if not (np.isfinite(coef).all() and np.isfinite(intercept).all()):
            raise ValueError("model parameters must be finite")
        mask = np.full(intercept.shape, self.nonconverged, dtype=bool)
        for name, value in (("coefficients", coef), ("intercept", intercept), ("nonconverged", mask)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __getitem__(self, index) -> LinearModel:
        """The models at `index` along the leading axes, as read-only views of this model's checked
        arrays (a 0-d intercept stays an array), made without `__post_init__`'s copies and checks."""
        model, key = object.__new__(LinearModel), (*index, ...) if isinstance(index, tuple) else (index, ...)
        for name in ("coefficients", "intercept", "nonconverged"):
            (value := getattr(self, name)[key]).setflags(write=False)  # a fancy index copies
            object.__setattr__(model, name, value)
        return model

    @property
    def converged(self) -> bool:
        return not self.nonconverged.any()

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[-1]


def resolve_lambda(cfg: SolverConfig, *, budget: int) -> SolverConfig:
    """Replace a budget-scaled lambda with its fixed value lam / budget.

    Other configs pass through unchanged: :func:`fit` divides a labeled-count
    lambda by the number of rows it is given.
    """
    if cfg.lambda_over_k != "budget":
        return cfg
    if budget < 1:
        raise ValueError("budget-scaled lambda needs budget >= 1")
    return replace(cfg, lam=cfg.lam / budget, lambda_over_k="none")


def fit(features, targets, cfg: SolverConfig) -> LinearModel:
    """Fit linear models under `cfg` by one shape rule, for any number of leading axes.

    (..., k, d) features with (..., k) targets give one model per design: coefficients
    (..., d) and intercepts (...). Targets (..., k, P) give P models per design, one per
    column: coefficients (..., P, d) and intercepts (..., P). The leading axes may hold
    an experiment's runs or a committee's bootstrap members; each model is bit for bit
    the 2-D fit to its column of its design alone.

    The penalty applied is cfg.lam, or cfg.lam / k on k rows when
    cfg.lambda_over_k is "labeled". Centering handles the intercept, so the
    penalty never touches it. OLS on a rank-deficient design falls back to
    the minimum-norm solution. A LASSO or elastic-net problem whose KKT residual
    exceeds 10·cd_tolerance (its path cut at cd_max_iters steps, say) is marked
    in `nonconverged` and emits a warning.
    """
    X = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if X.ndim < 2 or Y.ndim > X.ndim or Y.shape[:X.ndim - 1] != X.shape[:-1]:
        raise ValueError(f"features (..., k, d) need targets (..., k) or (..., k, P) on the same leading axes "
                         f"and rows, got features {X.shape} and targets {Y.shape}")
    *lead, k, d = X.shape
    if k < 1:
        raise ValueError("need at least one training row")
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise ValueError("training data must be finite")
    if cfg.lambda_over_k == "budget":
        raise ValueError(
            "budget-scaled lambda must be resolved with resolve_lambda() before fitting"
        )
    lam = cfg.lam / k if cfg.lambda_over_k == "labeled" else cfg.lam

    # X as (M, k, d) and Yt as (M, P, k): M designs of P target columns each, one problem per (design, column);
    # each mean and product runs along a contiguous row
    n_designs, n_tasks = math.prod(lead), Y.shape[-1] if Y.ndim == X.ndim else 1
    X = X.reshape(n_designs, k, d)
    Yt = np.ascontiguousarray(Y.reshape(n_designs, k, n_tasks).swapaxes(1, 2))
    y_means = Yt.mean(axis=2)
    x_mean = X.mean(axis=1)
    Xc = X - x_mean[:, None, :]
    Yc = Yt - y_means[:, :, None]

    l1 = lam if cfg.kind in ("lasso", "elastic_net") else 0.0
    l2 = {"ridge": lam, "elastic_net": cfg.lam2}.get(cfg.kind, 0.0)
    nonconverged = np.zeros((n_designs, n_tasks), dtype=bool)
    if l1 == 0.0 and l2 == 0.0:
        B = np.array([np.linalg.lstsq(xc, yc, rcond=None)[0] for xc, ycs in zip(Xc, Yc) for yc in ycs])
        B = B.reshape(n_designs, n_tasks, d)
    else:
        gram = Xc.swapaxes(1, 2) @ Xc  # both operands view one buffer, so each item is a syrk, as 2-D Xc.T @ Xc
        # one right-hand side per task: each rounds as Xc.T @ Yc[p] does, and a (d, P) one would not
        corr = (Yc[:, :, None, :] @ Xc[:, None]).reshape(n_designs, n_tasks, d, 1)
        if l1 == 0.0:
            try:
                B = np.linalg.solve((gram + l2 * np.eye(d))[:, None], corr)[..., 0]
            except np.linalg.LinAlgError:
                raise ValueError(f"{solver_to_string(cfg)} met a singular system at largest |feature| "
                                 f"{np.abs(X).max():.3g}; rescale the features") from None
        else:
            B = np.empty((n_designs, n_tasks, d))
            for m, p in np.ndindex(n_designs, n_tasks):
                c = corr[m, p, :, 0]
                B[m, p] = _lasso_path(gram[m], c, l1, l2, cfg.cd_max_iters)
                violation = _kkt_violation(gram[m], c, B[m, p], l1, l2)
                nonconverged[m, p] = not (violation <= 10.0 * cfg.cd_tolerance)
                if nonconverged[m, p]:
                    warnings.warn(f"LASSO path did not converge: KKT residual {violation:.3g} after at most "
                                  f"{cfg.cd_max_iters} steps", RuntimeWarning, stacklevel=2)

    intercepts = y_means - (B[:, :, None, :] @ x_mean[:, None, :, None])[..., 0, 0]
    shape = Y.shape[:len(lead)] + Y.shape[len(lead) + 1:]  # the targets' shape without the row axis
    return LinearModel(B.reshape(*shape, d), intercepts.reshape(shape), nonconverged=nonconverged.reshape(shape))


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


def _lasso_path(gram: np.ndarray, corr: np.ndarray, l1: float, l2: float, max_iters: int) -> np.ndarray:
    """Follow the exact homotopy (LARS-lasso) path from β = 0 down to μ = l1/2.

    With H = G + l2·I and r = c - Hβ, the solution at penalty μ has r_A = μ·s_A
    on its active set A (signs s) and |r_j| ≤ μ off it. As μ falls, β_A moves
    along δ_A = H_AA⁻¹ s_A until the next event: a free coordinate enters when
    |r_j| reaches μ, or an active one leaves when β_j reaches 0. H_AA⁻¹ is
    bordered by one rank-one term when a coordinate enters and recomputed
    when one leaves. At most max_iters events are followed, and one exact
    solve on the last active set ends the path.
    """
    d = corr.size
    hess = gram + l2 * np.eye(d)
    mu_end = l1 / 2.0
    mu = float(np.abs(corr).max(initial=0.0))
    beta = np.zeros(d)
    signs = np.zeros(d)
    inv = np.zeros((d, d))  # H_AA⁻¹ embedded in d x d, zero off A
    times = np.empty((3, d))  # rows: reach +μ, reach -μ, leave through 0
    dependent = np.zeros(d, dtype=bool)
    for _ in range(max_iters):
        if mu <= mu_end:
            break
        step = inv @ signs
        slope = hess @ step
        resid = corr - hess @ beta
        den = 1.0 - _SIDES * slope
        enter = (den > 0.0) & (signs == 0.0) & ~dependent
        times.fill(np.inf)
        # clamped at 0, so a coordinate rounding pushed just past |r_j| = μ still enters
        np.divide(np.maximum(mu - _SIDES * resid, 0.0), den, out=times[:2], where=enter)
        # an active coordinate leaves where δ_j moves β_j toward 0, clamped the same way
        drift = signs * step
        np.divide(np.maximum(signs * beta, 0.0), -drift, out=times[2], where=drift < 0.0)
        row, j = divmod(int(times.argmin()), d)
        t = float(times[row, j])
        if t >= mu - mu_end:
            break
        beta += t * step
        mu -= t
        if row < 2:
            u = inv @ hess[j]
            schur = hess[j, j] - hess[j] @ u
            if schur <= 1e-10 * hess[j, j]:
                # column j lies in the span of A's (a duplicate, say): it stays
                # on the boundary, and cannot enter until a coordinate leaves
                dependent[j] = True
                continue
            signs[j] = 1.0 if row == 0 else -1.0
            u[j] = -1.0
            inv += np.outer(u, u / schur)
        else:
            dependent[:] = False
            signs[j] = beta[j] = 0.0
            idx = np.flatnonzero(signs)
            inv = np.zeros((d, d))
            inv[np.ix_(idx, idx)] = np.linalg.inv(hess[np.ix_(idx, idx)])
    idx = np.flatnonzero(signs)
    beta = np.zeros(d)
    beta[idx] = np.linalg.solve(hess[np.ix_(idx, idx)], corr[idx] - mu_end * signs[idx])
    # a coordinate that meets μ_end exactly as it enters or leaves solves to ±rounding
    return signs * np.maximum(signs * beta, 0.0)


def predict(model: LinearModel, features) -> np.ndarray:
    """Model output (..., n) on (..., n, d) features, their leading axes broadcast against the stack's; each
    row is a (1, d) @ (d, n) product, bit for bit `features[i] @ coefficients[i] + intercept[i]`."""
    X = np.asarray(features, dtype=float)
    if X.ndim < 2:
        raise ValueError(f"features must be (..., n, d), got shape {X.shape}")
    if X.shape[-1] != model.n_features:
        raise ValueError(f"model expects {model.n_features} features, got {X.shape[-1]}")
    return (model.coefficients[..., None, :] @ X.swapaxes(-1, -2))[..., 0, :] + model.intercept[..., None]


def coefficient_mae(coefs, reference):
    """Mean absolute coefficient difference along the last axis: one number for a pair of
    coefficient vectors, one per task for (tasks, d) stacks. Each row is reduced as a
    contiguous copy, so it equals the 1-D call on that row bit for bit."""
    a, b = np.ascontiguousarray(coefs, dtype=float), np.ascontiguousarray(reference, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"coefficient shapes differ: {a.shape} vs {b.shape}")
    return np.mean(np.abs(a - b), axis=-1)


_SOLVER_DEFAULTS = {
    "ols": {},
    "ridge": {"lam": 10.0, "lambda_over_k": "labeled"},
    "lasso": {"lam": 0.001},
    "elastic_net": {"lam": 0.0005, "lam2": 0.0005},
}
_PATH_OPTIONS = {"tol": "cd_tolerance", "max_iters": "cd_max_iters"}  # grammar key -> SolverConfig field
_LAMBDA_SUFFIXES = {"budget": "/kmax", "labeled": "/k", "none": ""}  # longest suffix first


def _parse_spec(text: str, what: str, converters: dict) -> tuple[str, list[tuple[str, object]]]:
    """Split a `kind[:key=value,...]` spec into its kind and its (key, value) options, each
    value read from its text by `converters[key]`."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    options = []
    for item in rest.split(",") if rest else ():
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or not value:
            raise ValueError(f"malformed {what} option '{item}' in '{text}'")
        if key not in converters:
            raise ValueError(f"unknown {what} option '{key}' in '{text}'")
        if any(key == seen for seen, _ in options):
            raise ValueError(f"{what} option '{key}' is given twice in '{text}'")
        try:
            options.append((key, converters[key](value)))
        except ValueError:
            expected = "an integer" if converters[key] is int else "a number"
            raise ValueError(f"{what} option '{key}' in '{text}' expects {expected}, got '{value}'") from None
    return kind.strip(), options


def _lambda_value(text: str) -> tuple[float, str]:
    """A lambda and its scaling mode: "10/k" reads as (10.0, "labeled")."""
    mode, suffix = next((m, s) for m, s in _LAMBDA_SUFFIXES.items() if text.endswith(s))
    return float(text[: len(text) - len(suffix)]), mode


_SOLVER_OPTIONS = {"lambda": _lambda_value, "lambda1": _lambda_value, "lambda2": float, "tol": float, "max_iters": int}


def _format_number(value) -> str:
    """A float as `:g` when that reads back as the same float, else as repr, which always does."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def _format_spec(cfg, options: dict[str, str], always=()) -> str:
    """The inverse of _parse_spec: `cfg.kind`, the (key, text) pairs in `always`, then each
    field in `options` (grammar key -> field name) that differs from its dataclass default."""
    parts = [f"{key}={text}" for key, text in always]
    parts += [f"{key}={_format_number(getattr(cfg, name))}" for key, name in options.items()
              if getattr(cfg, name) != getattr(type(cfg), name)]
    return cfg.kind + (":" + ",".join(parts) if parts else "")


def parse_solver(text: str) -> SolverConfig:
    """Parse the solver mini-grammar, e.g. "ridge:lambda=10/k" or "lasso:lambda=0.001".

    Bare kinds get their conventional defaults (ridge: lambda=10/k, lasso:
    lambda=0.001, elastic_net: lambda1=lambda2=0.0005). Recognized keys:
    lambda/lambda1, lambda2, tol, max_iters (the last two for lasso and
    elastic_net only). A lambda of the form "<x>/k"
    divides by the labeled count at each fit; "<x>/kmax" divides by the query
    budget.
    """
    kind, options = _parse_spec(text, "solver", _SOLVER_OPTIONS)
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver '{kind}', expected one of {SOLVER_KINDS}")
    if {"lambda", "lambda1"} <= {key for key, _ in options}:
        raise ValueError(f"solver options 'lambda' and 'lambda1' in '{text}' set the same weight; give one")
    fields = dict(_SOLVER_DEFAULTS[kind])
    for key, value in options:
        if key in _PATH_OPTIONS:
            fields[_PATH_OPTIONS[key]] = value
        elif key == "lambda2":
            fields["lam2"] = value
        else:
            fields["lam"], fields["lambda_over_k"] = value
    return SolverConfig(kind=kind, **fields)


def solver_to_string(cfg: SolverConfig) -> str:
    """Canonical grammar string for a SolverConfig; parse_solver reads it back as `cfg`.

    Penalized kinds always print their weights, as a bare kind reads back with the conventional ones.
    """
    weights = []
    if cfg.kind != "ols":
        key = "lambda1" if cfg.kind == "elastic_net" else "lambda"
        weights.append((key, _format_number(cfg.lam) + _LAMBDA_SUFFIXES[cfg.lambda_over_k]))
    if cfg.kind == "elastic_net":
        weights.append(("lambda2", _format_number(cfg.lam2)))
    return _format_spec(cfg, _PATH_OPTIONS, weights)
