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
D_x comes from a ledger that computes each labeled sample's distances once.
gsx (and the warm-up phase of every greedy kind) reads the ledger's running
min, a nearest-label distance per pool sample updated as each row is added;
the other kinds build their factors for a cache-sized block of labeled rows
at a time and keep a running min over blocks. Either way every score has the
bits of the min over one labeled x candidates matrix.

The committee rules score the focus task t with B bootstrap refits f_b of
its model (B = committee_size), fitted together in one stacked fit call:

    qbc     score(n) = var_b f_b(x_n)
    emcm    score(n) = mean_b |f_t(x_n) - f_b(x_n)| * ||x_n||

emcm is the expected model change of Cai, Zhang & Zhou (ICDM 2013), with
the bootstrap predictions standing in for the unknown label. `random`
draws uniformly from the unlabeled set.

:func:`select_next` is the only entry point; it applies the shared phase
logic: the first pick is the sample closest to the feature centroid (greedy
kinds) or a random draw (random/qbc/emcm); picks before the k0 threshold
use input-space greedy sampling or random draws respectively (qbc and emcm
also draw at random until two labels exist, which a bootstrap needs); from
then on each rule applies its own criterion. Ties always break toward the
smallest pool index.
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
    solver that fitted them, the labeled samples' input distances and a
    seeded random stream (random/qbc/emcm). `k0`, the labeled count before
    model-based selection, is the pool's feature count. `add` drops the
    models, so a model-based pick needs `fit_models` after every label.
    Confined to a single run; advance it sequentially.
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

    def fit_models(self, solver: SolverConfig) -> None:
        """Refit all per-task models from scratch on the current labeled set, and keep `solver`."""
        if self.n_labeled < self.k0:
            raise ValueError(
                f"need at least k0={self.k0} labeled samples to fit models, "
                f"have {self.n_labeled}"
            )
        rows = self.labeled
        self.models = fit(self.pool.features[rows], self.pool.labels[rows], solver)
        self.solver = solver

    def _labeled_distances(self) -> np.ndarray:
        """Row m: every pool sample's distance to labeled[m], computed once, in a buffer doubling with K.
        Each new row is folded into `_nearest`, every pool sample's distance to its nearest labeled
        sample (`min` is exact, so the order does not matter).

        Summing down the C-contiguous d x n copy adds each pair's squares feature by feature; a
        transposed view would sum them pairwise and change the last bits.
        """
        k, done = self.n_labeled, self._n_distances
        if k > self._distances.shape[0]:
            grown = np.empty((max(k, 2 * self._distances.shape[0]), self.pool.n_samples))
            grown[:done] = self._distances[:done]
            self._distances = grown
        for m in range(done, k):
            diff = self._features_t - self.pool.features[self.labeled[m], :, None]
            self._distances[m] = np.sqrt((diff * diff).sum(axis=0))
            np.minimum(self._nearest, self._distances[m], out=self._nearest)
        self._n_distances = k
        return self._distances[:k]

    def _require_models(self) -> LinearModel:
        if self.models is None:
            raise ValueError("no fitted models, or models stale since the last label; call fit_models()")
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
        state._labeled_distances()
        return state._nearest[unlabeled]
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


def _committee_scores(state: PoolState, unlabeled: np.ndarray, spec: StrategySpec, task: int) -> np.ndarray:
    """The qbc or emcm score of each candidate, as in the module docstring.

    Committee members are bootstrap refits under the run's solver, `state.solver`.
    """
    models = state._require_models()
    X = state.pool.features[state.labeled]
    y = state.pool.labels[state.labeled, task]
    candidates = state.pool.features[unlabeled]
    idx = np.array([_bootstrap_indices(state.rng, state.n_labeled) for _ in range(spec.committee_size)])
    boot = predict(fit(X[idx], y[idx], state.solver), candidates)
    if spec.kind == "qbc":
        return boot.var(axis=0)
    mean_gap = np.abs(predict(models[task], candidates)[None, :] - boot).mean(axis=0)
    return mean_gap * np.linalg.norm(candidates, axis=1)


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
    elif spec.kind == "random" or k < max(state.k0, 2):  # a bootstrap needs two labels
        return int(unlabeled[state.rng.integers(unlabeled.size)])
    else:
        scores = _committee_scores(state, unlabeled, spec, _resolve_focus_task(spec, state.pool.n_tasks))
    return int(unlabeled[np.argmax(scores)])
