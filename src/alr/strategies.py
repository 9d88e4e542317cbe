"""Pool-based sample-selection rules over a labeled/unlabeled ledger.

Eight selection rules operate on a :class:`PoolState`. The five greedy rules
pick the unlabeled candidate n that maximizes one score, with D_x the
Euclidean input distance and f_t the fitted model of task t:

    score(n) = min over labeled m of  D_x(n, m)^a * prod_{t in T} |f_t(x_n) - y_{m,t}|

    kind    gsx  gsy           igs           mt_gsy     mt_igs
    a       1    0             1             0          1
    T       {}   {focus task}  {focus task}  all tasks  all tasks

gsx is the input-space sampler of Yu & Kim, "Passive Sampling for
Regression" (ICDM 2010); gsy samples one task's output space; igs balances
diversity in both. The product is taken per labeled sample before the min,
so rescaling one task rescales every score alike and no task dominates.
gsx (and the warm-up phase of every greedy kind) reads a nearest-label
distance per pool sample, into which each new label's D_x row is folded once
and not kept. Only igs and mt_igs keep a ledger, which computes each labeled
sample's D_x row once, from their first criterion step on. The model-based
steps build their factors for a cache-sized block of labeled rows at a time
and keep a running min over blocks. Either way every score has the bits of
the min over one labeled x candidates matrix.

The committee rules score the focus task t with B bootstrap refits f_b of
its model (B = committee_size). Each run draws its resamples from its own
stream; the members of all runs at one K are fitted in one stacked fit call,
in cache-sized chunks of runs:

    qbc     score(n) = var_b f_b(x_n)
    emcm    score(n) = mean_b |f_t(x_n) - f_b(x_n)| * ||x_n||

emcm is the expected model change of Cai, Zhang & Zhou (ICDM 2013), with
the bootstrap predictions standing in for the unknown label. `random`
draws uniformly from the unlabeled set.

:func:`select_next` picks for one run (the query loop takes the committee
phase of all its runs in one pass) by the shared phase logic: the first pick
is the sample closest to the feature centroid (greedy kinds) or a random
draw (random/qbc/emcm); picks before the k0 threshold use input-space greedy
sampling or random draws (qbc and emcm also draw at random until two labels
exist, which a bootstrap needs); from then on each rule applies its own
criterion. Ties always break toward the smallest pool index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  NumPy 2 imports it on first use; import it with alr, not in a run

from .dataset import Dataset
from .regression import LinearModel, SolverConfig, _format_spec, _parse_spec, fit, predict

__all__ = [
    "GS_FAMILY",
    "SINGLE_TASK_KINDS",
    "STRATEGY_KINDS",
    "StrategySpec",
    "PoolState",
    "parse_strategy",
    "strategy_to_string",
    "select_next",
]

GS_FAMILY = frozenset({"gsx", "gsy", "igs", "mt_gsy", "mt_igs"})
RANDOM_INIT_KINDS = frozenset({"random", "qbc", "emcm"})
SINGLE_TASK_KINDS = frozenset({"gsy", "igs", "qbc", "emcm"})
STRATEGY_KINDS = tuple(sorted(GS_FAMILY | RANDOM_INIT_KINDS))


@dataclass(frozen=True)
class StrategySpec:
    """Which selection rule to run and its knobs.

    `focus_task` names the task a single-task rule (gsy/igs/qbc/emcm) targets
    on multi-task data; it may stay None for single-task data (task 0) and is
    ignored by the other kinds. `committee_size` is the bootstrap ensemble
    size for qbc/emcm.
    """

    kind: str
    focus_task: int | None = None
    committee_size: int = 4

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind '{self.kind}', expected one of {STRATEGY_KINDS}"
            )
        if self.focus_task is not None and self.focus_task < 0:
            raise ValueError("focus_task must be a nonnegative task index")
        if self.committee_size < 2:
            raise ValueError("committee_size must be >= 2")


_STRATEGY_OPTIONS = {"task": "focus_task", "committee": "committee_size"}  # grammar key -> field
_OPTION_KINDS = {"task": SINGLE_TASK_KINDS, "committee": frozenset({"qbc", "emcm"})}  # grammar key -> kinds reading it


def parse_strategy(text: str) -> StrategySpec:
    """Parse the strategy mini-grammar, e.g. "mt_igs", "gsy:task=1", "qbc:task=0,committee=8";
    an option the kind would ignore (`task=` on gsx, `committee=` on gsy) is rejected."""
    kind, options = _parse_spec(text, "strategy", dict.fromkeys(_STRATEGY_OPTIONS, int))
    spec = StrategySpec(kind, **{_STRATEGY_OPTIONS[key]: value for key, value in options})
    for key, _ in options:
        if kind not in _OPTION_KINDS[key]:
            raise ValueError(f"strategy {kind} takes no '{key}' option; only {', '.join(sorted(_OPTION_KINDS[key]))} do")
    return spec


def strategy_to_string(spec: StrategySpec) -> str:
    """Canonical grammar string for a StrategySpec; options its kind ignores are left out,
    so parse_strategy reads back every printed spec."""
    read = {key: name for key, name in _STRATEGY_OPTIONS.items() if spec.kind in _OPTION_KINDS[key]}
    return _format_spec(spec, read)


class PoolState:
    """The active-learning ledger for one experiment run.

    Tracks the ordered labeled index list, the unlabeled remainder, the
    task models (one :class:`LinearModel` stack, row t for task t) and the
    solver that fitted them, the nearest-label input distances (and for
    igs/mt_igs each labeled sample's) and a seeded random stream
    (random/qbc/emcm). `k0`, the labeled count before model-based
    selection, is the pool's feature count. The query loop sets `solver`
    once and, from k0 on, `models` after every label; `add` drops the
    models, so no pick reads stale ones. Confined to a single run.
    """

    def __init__(self, pool: Dataset, rng=0):
        self.pool = pool
        self.labeled: list[int] = []
        self._is_labeled = np.zeros(pool.n_samples, dtype=bool)
        self.models: LinearModel | None = None
        self.solver: SolverConfig | None = None
        self.rng = np.random.default_rng(rng)
        self.k0 = pool.n_features
        self._features_t = np.ascontiguousarray(pool.features.T)
        self._distances = np.empty((0, pool.n_samples))
        self._n_distances = 0
        self._nearest = np.full(pool.n_samples, np.inf)
        self._n_nearest = 0

    @property
    def n_labeled(self) -> int:
        return len(self.labeled)

    def unlabeled_indices(self) -> np.ndarray:
        """Unlabeled pool indices in ascending order."""
        return np.flatnonzero(~self._is_labeled)

    def add(self, index: int) -> None:
        """Move one index from the unlabeled set to the end of the labeled list."""
        index = int(index)
        if not 0 <= index < self.pool.n_samples:
            raise ValueError(f"index {index} outside pool of size {self.pool.n_samples}")
        if self._is_labeled[index]:
            raise ValueError(f"index {index} is already labeled")
        self.labeled.append(index)
        self._is_labeled[index] = True
        self.models = None

    def _distance_row(self, m: int) -> np.ndarray:
        """Every pool sample's distance to labeled[m]. Summing down the C-contiguous d x n copy adds each
        pair's squares feature by feature; a transposed view would sum them pairwise and change the last bits."""
        diff = self._features_t - self.pool.features[self.labeled[m], :, None]
        return np.sqrt((diff * diff).sum(axis=0))

    def _nearest_distances(self) -> np.ndarray:
        """Every pool sample's distance to its nearest labeled sample. Each new label's row is folded in
        once and not kept (`min` is exact, so the order does not matter)."""
        for m in range(self._n_nearest, self.n_labeled):
            np.minimum(self._nearest, self._distance_row(m), out=self._nearest)
        self._n_nearest = self.n_labeled
        return self._nearest

    def _labeled_distances(self) -> np.ndarray:
        """Row m: every pool sample's distance to labeled[m], computed once, in a buffer doubling with K and
        capped at the pool size. Only the igs and mt_igs criterion steps keep these rows."""
        k, done, n = self.n_labeled, self._n_distances, self.pool.n_samples
        if k > self._distances.shape[0]:
            grown = np.empty((min(max(k, 2 * self._distances.shape[0]), n), n))
            grown[:done] = self._distances[:done]
            self._distances = grown
        for m in range(done, k):
            self._distances[m] = self._distance_row(m)
        self._n_distances = k
        return self._distances[:k]

    def _require_models(self) -> LinearModel:
        if self.models is None:
            raise ValueError("no fitted models, or models stale since the last label")
        return self.models


_GREEDY_BLOCK = 1 << 15  # elements of one labeled x candidates factor block, about 256 KB


def _greedy_scores(state: PoolState, unlabeled: np.ndarray, use_input: bool, tasks) -> np.ndarray:
    """The greedy score of each candidate, as in the module docstring.

    With no tasks the score is the nearest-label distance. Otherwise the factors
    are built for a block of labeled rows x candidates at a time, and each
    block's min is folded into a running one. The task gaps multiply left to
    right, then the input distance; the floating-point scores depend on that order.
    """
    if not tasks:
        return state._nearest_distances()[unlabeled]
    preds = predict(state._require_models(), state.pool.features[unlabeled])
    labels = state.pool.labels[state.labeled]
    ledger = state._labeled_distances() if use_input else None
    best = np.full(unlabeled.size, np.inf)
    step = max(1, _GREEDY_BLOCK // unlabeled.size)
    for i in range(0, state.n_labeled, step):
        scores = None
        for t in tasks:
            gaps = np.subtract(preds[t], labels[i:i + step, t, None])
            np.abs(gaps, out=gaps)
            scores = gaps if scores is None else np.multiply(scores, gaps, out=scores)
        if use_input:
            scores = np.multiply(ledger[i:i + step].take(unlabeled, axis=1), scores, out=scores)
        np.minimum(best, scores.min(axis=0), out=best)
    return best


def _bootstrap_indices(rng: np.random.Generator, k: int) -> np.ndarray:
    # redraw until the resample holds at least 2 distinct rows
    while True:
        idx = rng.integers(0, k, size=k)
        if (idx != idx[0]).any():
            return idx


_COMMITTEE_BLOCK = 1 << 17  # elements of one chunk of runs' bootstrap designs (runs x B x k x d), about 1 MB


def _committee_phase(state: PoolState, spec: StrategySpec) -> bool:
    """Whether a qbc or emcm pick comes from its committee: from max(k0, 2) labels on, as a bootstrap needs two."""
    return spec.kind in ("qbc", "emcm") and state.n_labeled >= max(state.k0, 2)


def _committee_scores(states, unlabeled, spec: StrategySpec, task: int) -> np.ndarray:
    """The (runs, candidates) qbc or emcm scores of runs sharing labeled and candidate counts and a solver.

    Each run draws its resamples from its own stream, in member order, and scores as its own (B, k, d) member
    fit would, bit for bit; one `fit` of the (runs, B, k, d) designs and one `predict` with the (runs, B, d)
    members it returns cover a chunk of runs (`_COMMITTEE_BLOCK`)."""
    models = [state._require_models()[task] for state in states]
    main = LinearModel(np.stack([m.coefficients for m in models]), np.stack([m.intercept for m in models]))
    k, d, size = states[0].n_labeled, states[0].pool.n_features, spec.committee_size
    step, scores = max(1, _COMMITTEE_BLOCK // (size * k * d)), []
    for i in range(0, len(states), step):
        chunk = states[i:i + step]
        rows = [np.asarray(s.labeled)[np.array([_bootstrap_indices(s.rng, k) for _ in range(size)])] for s in chunk]
        X = np.stack([s.pool.features[r] for s, r in zip(chunk, rows)])  # (runs, B, k, d)
        members = fit(X, np.stack([s.pool.labels[r, task] for s, r in zip(chunk, rows)]), chunk[0].solver)
        candidates = np.stack([s.pool.features[u] for s, u in zip(chunk, unlabeled[i:i + step])])
        boot = predict(members, candidates[:, None])
        if spec.kind == "qbc":
            scores.append(boot.var(axis=1))
        else:
            mean_gap = np.abs(predict(main[i:i + step], candidates)[:, None] - boot).mean(axis=1)
            scores.append(mean_gap * np.linalg.norm(candidates, axis=-1))
    return np.concatenate(scores)


def _committee_picks(states, spec: StrategySpec) -> list[int]:
    """One pick per run from one committee pass over all runs, which share their pool shape and labeled count."""
    task = _resolve_focus_task(spec, states[0].pool.n_tasks)
    unlabeled = [state.unlabeled_indices() for state in states]
    return [int(u[np.argmax(s)]) for u, s in zip(unlabeled, _committee_scores(states, unlabeled, spec, task))]


def _resolve_focus_task(spec: StrategySpec, n_tasks: int) -> int:
    task = spec.focus_task
    if task is None:
        if spec.kind in SINGLE_TASK_KINDS and n_tasks > 1:
            raise ValueError(
                f"strategy '{spec.kind}' needs a focus task on {n_tasks}-task data"
            )
        task = 0
    if task >= n_tasks:
        raise ValueError(f"focus_task {task} out of range for {n_tasks} tasks")
    return task


def select_next(state: PoolState, spec: StrategySpec) -> int:
    """Pick the next pool index to label, by the phase logic of the module docstring."""
    unlabeled = state.unlabeled_indices()
    if unlabeled.size == 0:
        raise ValueError("no unlabeled samples left")
    k = state.n_labeled
    if spec.kind in GS_FAMILY:
        if k == 0:
            feats = state.pool.features
            return int(np.argmin(np.linalg.norm(feats - feats.mean(axis=0), axis=1)))
        if k < state.k0 or spec.kind == "gsx":
            use_input, tasks = True, ()
        elif spec.kind in ("mt_gsy", "mt_igs"):
            use_input, tasks = spec.kind == "mt_igs", range(state.pool.n_tasks)
        else:
            use_input, tasks = spec.kind == "igs", (_resolve_focus_task(spec, state.pool.n_tasks),)
        scores = _greedy_scores(state, unlabeled, use_input, tasks)
    elif _committee_phase(state, spec):
        return _committee_picks([state], spec)[0]
    else:
        return int(unlabeled[state.rng.integers(unlabeled.size)])
    return int(unlabeled[np.argmax(scores)])
