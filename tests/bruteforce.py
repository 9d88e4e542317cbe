"""Plain-Python reference implementations of the greedy selection rules and LASSO.

Deliberately loop-based and numpy-free so the library's vectorized path is
checked against an independent computation of the same formulas. The
selection functions take pool-level Python lists and return the chosen pool
index, breaking ties toward the smallest index.
"""

import math


def predict_scalar(coefficients, intercept, row):
    return sum(c * v for c, v in zip(coefficients, row)) + intercept


def euclid(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _argmax_by_score(candidates, score_fn):
    best_idx = None
    best_score = -math.inf
    for n in sorted(candidates):
        s = score_fn(n)
        if s > best_score:
            best_score = s
            best_idx = n
    return best_idx


def gs_input_choice(features, labeled, unlabeled):
    """Max over candidates of the min input-space distance to labeled samples."""

    def score(n):
        return min(euclid(features[n], features[m]) for m in labeled)

    return _argmax_by_score(unlabeled, score)


def gsy_choice(features, labels, labeled, unlabeled, model, task):
    """Max over candidates of the min |prediction - labeled output| for one task."""
    coef, intercept = model

    def score(n):
        pred = predict_scalar(coef, intercept, features[n])
        return min(abs(pred - labels[m][task]) for m in labeled)

    return _argmax_by_score(unlabeled, score)


def mtgsy_choice(features, labels, labeled, unlabeled, models):
    """Max over candidates of the min over labeled samples of the per-task gap product."""

    def score(n):
        preds = [predict_scalar(c, b, features[n]) for c, b in models]
        return min(
            math.prod(abs(p - labels[m][t]) for t, p in enumerate(preds))
            for m in labeled
        )

    return _argmax_by_score(unlabeled, score)


def igs_choice(features, labels, labeled, unlabeled, model, task):
    """Max of the min over labeled samples of input distance times output gap."""
    coef, intercept = model

    def score(n):
        pred = predict_scalar(coef, intercept, features[n])
        return min(
            euclid(features[n], features[m]) * abs(pred - labels[m][task])
            for m in labeled
        )

    return _argmax_by_score(unlabeled, score)


def mtigs_choice(features, labels, labeled, unlabeled, models):
    """Max of the min over labeled samples of input distance times the gap product."""

    def score(n):
        preds = [predict_scalar(c, b, features[n]) for c, b in models]
        return min(
            euclid(features[n], features[m])
            * math.prod(abs(p - labels[m][t]) for t, p in enumerate(preds))
            for m in labeled
        )

    return _argmax_by_score(unlabeled, score)


def coordinate_descent(features, targets, l1, l2, tol, max_iters):
    """Cyclic coordinate descent for ||y - Xb||^2 + l1*||b||_1 + l2*||b||^2, residual form.

    Centers the rows, then sweeps the coordinates in order, keeping the
    residual y - Xb up to date after every change. Stops once a sweep moves
    no coefficient by more than `tol` and the subgradient conditions hold to
    10 * tol; returns (coefficients, converged).
    """
    k, d = len(features), len(features[0])
    x_mean = [sum(row[j] for row in features) / k for j in range(d)]
    y_mean = sum(targets) / k
    cols = [[row[j] - x_mean[j] for row in features] for j in range(d)]
    yc = [v - y_mean for v in targets]
    col_sq = [sum(v * v for v in col) for col in cols]
    beta = [0.0] * d
    resid = list(yc)
    for _ in range(max_iters):
        max_delta = 0.0
        for j in range(d):
            denom = col_sq[j] + l2
            if denom == 0.0:
                continue
            rho = sum(c * r for c, r in zip(cols[j], resid)) + col_sq[j] * beta[j]
            if rho > l1 / 2.0:
                new = (rho - l1 / 2.0) / denom
            elif rho < -l1 / 2.0:
                new = (rho + l1 / 2.0) / denom
            else:
                new = 0.0
            if new != beta[j]:
                resid = [r + c * (beta[j] - new) for c, r in zip(cols[j], resid)]
                max_delta = max(max_delta, abs(new - beta[j]))
                beta[j] = new
        if max_delta <= tol:
            resid = [y - sum(c[i] * b for c, b in zip(cols, beta)) for i, y in enumerate(yc)]
            worst = 0.0
            for j in range(d):
                grad = -2.0 * sum(c * r for c, r in zip(cols[j], resid)) + 2.0 * l2 * beta[j]
                if beta[j] == 0.0:
                    worst = max(worst, abs(grad) - l1)
                else:
                    worst = max(worst, abs(grad + math.copysign(l1, beta[j])))
            if worst <= 10.0 * tol:
                return beta, True
    return beta, False
