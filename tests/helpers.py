"""Shared builders for strategy tests: crafted pool states and random instances."""

import numpy as np

from alr.dataset import Dataset
from alr.regression import LinearModel, SolverConfig, fit
from alr.strategies import PoolState


def make_pool(features, labels):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    if labels.shape[0] != features.shape[0]:
        labels = labels.T
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(f"x{i}" for i in range(features.shape[1])),
        task_names=tuple(f"t{i}" for i in range(labels.shape[1])),
    )


def make_state(features, labels, labeled=(), seed=0):
    state = PoolState(make_pool(features, labels), rng=seed)
    for idx in labeled:
        state.add(idx)
    return state


def random_greedy_instance(seed, max_n=20, max_d=3, max_p=3):
    """A random pool plus a random labeled prefix covering k0..n-1 samples."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_d + 1))
    p = int(rng.integers(1, max_p + 1))
    n = int(rng.integers(d + 2, max_n + 1))
    pool = make_pool(rng.standard_normal((n, d)), rng.standard_normal((n, p)))
    n_labeled = int(rng.integers(d, n))
    labeled = [int(i) for i in rng.permutation(n)[:n_labeled]]
    state = PoolState(pool, rng=seed)
    for idx in labeled:
        state.add(idx)
    state.fit_models(SolverConfig("ridge", lam=1.0))
    return state, rng


def set_models(state, coefficients, intercepts=0.0):
    """Install hand-made task models (row t of `coefficients` for task t) as if fitted on the
    current labeled set."""
    coefficients = np.asarray(coefficients, dtype=float)
    state.models = LinearModel(coefficients, np.broadcast_to(intercepts, coefficients.shape[:-1]))


def oracle_models(state):
    """Model parameters as plain Python lists for the brute-force reference."""
    return [
        ([float(c) for c in coefs], float(intercept))
        for coefs, intercept in zip(state.models.coefficients, state.models.intercept)
    ]


def pool_as_lists(state):
    features = [[float(v) for v in row] for row in state.pool.features]
    labels = [[float(v) for v in row] for row in state.pool.labels]
    return features, labels
