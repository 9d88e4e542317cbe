import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import cdist

import bruteforce
from helpers import fit_state, make_pool, make_state, oracle_models, pool_as_lists, random_greedy_instance, set_models

from alr import strategies
from alr.harness import selection_sequence
from alr.regression import SolverConfig, fit, parse_solver, resolve_lambda
from alr.strategies import (
    SINGLE_TASK_KINDS,
    STRATEGY_KINDS,
    PoolState,
    StrategySpec,
    _committee_picks,
    _committee_scores,
    _greedy_scores,
    parse_strategy,
    select_next,
    strategy_to_string,
)

RIDGE = SolverConfig("ridge", lam=1.0)


class TestInitialCentroid:
    def test_symmetric_line(self):
        state = make_state([[0.0], [1.0], [2.0]], [[0.0], [0.0], [0.0]])
        assert select_next(state, StrategySpec("gsx")) == 1

    def test_identical_points_tie(self):
        state = make_state([[3.0]] * 4, [[0.0]] * 4)
        assert select_next(state, StrategySpec("gsx")) == 0

    def test_hand_distance_table(self):
        # centroid (3,3); (2,0) and (0,2) tie at sqrt(10) -> lower index wins
        state = make_state(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [10.0, 10.0]],
            [[0.0]] * 4,
        )
        assert select_next(state, StrategySpec("gsx")) == 1


class TestGsInput:
    def test_tie_goes_to_smallest_index(self):
        state = make_state([[0.0], [1.0], [2.0]], [[0.0]] * 3, labeled=[1])
        assert select_next(state, StrategySpec("gsx")) == 0

    def test_farthest_selected(self):
        state = make_state([[0.0], [1.0], [5.0]], [[0.0]] * 3, labeled=[1])
        assert select_next(state, StrategySpec("gsx")) == 2

    def test_duplicate_of_labeled_never_chosen(self):
        state = make_state([[1.0], [1.0], [4.0]], [[0.0]] * 3, labeled=[0])
        assert select_next(state, StrategySpec("gsx")) == 2


class TestGsy:
    def _state(self):
        # identity model makes candidate features the predictions
        state = make_state(
            [[10.0], [11.0], [0.4], [2.0], [0.5]],
            [[0.0], [1.0], [0.0], [0.0], [0.0]],
            labeled=[0, 1],
        )
        set_models(state, [[1.0]])
        return state

    def test_hand_min_distance_table(self):
        # labeled outputs {0, 1}; predictions (0.4, 2.0, 0.5) -> gaps (0.4, 1.0, 0.5)
        assert select_next(self._state(), StrategySpec("gsy", focus_task=0)) == 3

    def test_exact_match_scores_zero(self):
        state = make_state(
            [[10.0], [11.0], [1.0], [5.0]],
            [[0.0], [1.0], [0.0], [0.0]],
            labeled=[0, 1],
        )
        set_models(state, [[1.0]])
        # prediction 1.0 duplicates a labeled output, so 5.0 must win
        assert select_next(state, StrategySpec("gsy", focus_task=0)) == 3

    def test_adding_labeled_output_shrinks_gaps(self):
        rng = np.random.default_rng(0)
        preds = rng.standard_normal(6)
        outputs = rng.standard_normal(4)
        before = np.abs(preds[:, None] - outputs[None, :3]).min(axis=1)
        after = np.abs(preds[:, None] - outputs[None, :]).min(axis=1)
        assert (after <= before).all()

    def test_requires_models(self):
        state = make_state([[0.0], [1.0]], [[0.0], [0.0]], labeled=[0])
        with pytest.raises(ValueError, match="models"):
            select_next(state, StrategySpec("gsy", focus_task=0))

    def test_stale_models_rejected(self):
        state = self._state()
        state.add(2)
        assert state.models is None
        with pytest.raises(ValueError, match="stale"):
            select_next(state, StrategySpec("gsy", focus_task=0))


class TestMtGsy:
    def test_reduces_to_gsy_on_single_task(self):
        for seed in range(25):
            state, _ = random_greedy_instance(seed, max_p=1)
            assert select_next(state, StrategySpec("mt_gsy")) == select_next(
                state, StrategySpec("gsy", focus_task=0)
            )

    def test_hand_product_table(self):
        # per-task gaps to the labeled outputs, both (0, 0):
        # a=(1,1)->1, b=(2,0.4)->0.8, c=(0.5,3)->1.5
        state = make_state(
            [[9.0, 9.0], [1.0, 1.0], [2.0, 0.4], [0.5, 3.0], [0.0, 0.0]],
            [[0.0, 0.0]] * 5,
            labeled=[0, 4],
        )
        set_models(state, [[1.0, 0.0], [0.0, 1.0]])
        assert select_next(state, StrategySpec("mt_gsy")) == 3

    def test_task_rescaling_preserves_argmax(self):
        for seed in range(10):
            state, rng = random_greedy_instance(seed, max_p=3)
            if state.pool.n_tasks < 2:
                continue
            choice = select_next(state, StrategySpec("mt_gsy"))
            task = int(rng.integers(state.pool.n_tasks))
            for c in (0.1, 10.0):
                scaled = _scale_task(state, task, c)
                assert select_next(scaled, StrategySpec("mt_gsy")) == choice

    def test_min_of_products_not_product_of_mins(self):
        # two labeled outputs (1,10) and (10,1); candidate predictions
        # (2,2) vs (3,8.5) rank differently under the two combiners
        state = make_state(
            [[0.0], [10.0], [2.0], [3.0]],
            [[1.0, 10.0], [10.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            labeled=[0, 1],
        )
        set_models(state, [[1.0], [6.5]], [0.0, -11.0])
        per_m_products = {
            2: min(abs(2 - 1) * abs(2 - 10), abs(2 - 10) * abs(2 - 1)),
            3: min(abs(3 - 1) * abs(8.5 - 10), abs(3 - 10) * abs(8.5 - 1)),
        }
        product_of_mins = {
            2: min(abs(2 - 1), abs(2 - 10)) * min(abs(2 - 10), abs(2 - 1)),
            3: min(abs(3 - 1), abs(3 - 10)) * min(abs(8.5 - 10), abs(8.5 - 1)),
        }
        assert max(per_m_products, key=per_m_products.get) == 2
        assert max(product_of_mins, key=product_of_mins.get) == 3
        assert select_next(state, StrategySpec("mt_gsy")) == 2


def _scale_task(state, task, c):
    """Clone a state with one task's labels and fitted model scaled by c."""
    labels = state.pool.labels.copy()
    labels[:, task] *= c
    clone = make_state(state.pool.features, labels, labeled=list(state.labeled))
    coefs, intercepts = state.models.coefficients.copy(), state.models.intercept.copy()
    coefs[task] *= c
    intercepts[task] *= c
    set_models(clone, coefs, intercepts)
    return clone


class TestIgs:
    def test_hand_computation(self):
        # scores: 1*1=1 for x=1, 0.5*3=1.5 for x=0.5
        state = make_state([[0.0], [1.0], [0.5]], [[0.0], [0.0], [0.0]], labeled=[0])
        set_models(state, [[-4.0]], [5.0])
        assert select_next(state, StrategySpec("igs", focus_task=0)) == 2

    def test_duplicate_input_scores_zero(self):
        state = make_state([[1.0], [1.0], [3.0]], [[0.5], [0.0], [0.0]], labeled=[0])
        set_models(state, [[1.0]])
        assert select_next(state, StrategySpec("igs", focus_task=0)) == 2

    def test_constant_output_factor_matches_input_greedy(self):
        # all predictions equal, single labeled output: y-factor constant
        state = make_state(
            [[0.0], [2.0], [7.0], [3.0]], [[1.0]] * 4, labeled=[0]
        )
        set_models(state, [[0.0]], [4.0])
        igs_pick = select_next(state, StrategySpec("igs", focus_task=0))
        assert igs_pick == select_next(state, StrategySpec("gsx"))

    def test_min_of_products_not_product_of_mins(self):
        # labeled (x=0,y=0), (x=10,y=10); candidates x=1 (pred 9) and x=2
        # (pred 9.3) rank differently under the two combiners
        state = make_state(
            [[0.0], [10.0], [1.0], [2.0]],
            [[0.0], [10.0], [0.0], [0.0]],
            labeled=[0, 1],
        )
        set_models(state, [[0.3]], [8.7])
        min_of_products = {
            2: min(1 * abs(9 - 0), 9 * abs(9 - 10)),
            3: min(2 * abs(9.3 - 0), 8 * abs(9.3 - 10)),
        }
        product_of_mins = {
            2: min(1, 9) * min(abs(9 - 0), abs(9 - 10)),
            3: min(2, 8) * min(abs(9.3 - 0), abs(9.3 - 10)),
        }
        assert max(min_of_products, key=min_of_products.get) == 2
        assert max(product_of_mins, key=product_of_mins.get) == 3
        assert select_next(state, StrategySpec("igs", focus_task=0)) == 2


class TestMtIgs:
    def test_reduces_to_igs_on_single_task(self):
        for seed in range(25):
            state, _ = random_greedy_instance(seed, max_p=1)
            assert select_next(state, StrategySpec("mt_igs")) == select_next(
                state, StrategySpec("igs", focus_task=0)
            )

    def test_hand_computation(self):
        # scores: 1*1*1=1 for x=1, 0.5*2*1.5=1.5 for x=0.5
        state = make_state(
            [[0.0], [1.0], [0.5]],
            [[0.0, 0.0]] * 3,
            labeled=[0],
        )
        set_models(state, [[-2.0], [-1.0]], [3.0, 2.0])
        assert select_next(state, StrategySpec("mt_igs")) == 2

    def test_task_rescaling_preserves_argmax(self):
        for seed in range(10):
            state, rng = random_greedy_instance(seed, max_p=3)
            if state.pool.n_tasks < 2:
                continue
            choice = select_next(state, StrategySpec("mt_igs"))
            task = int(rng.integers(state.pool.n_tasks))
            for c in (0.1, 10.0):
                assert select_next(_scale_task(state, task, c), StrategySpec("mt_igs")) == choice

    def test_min_of_products_not_product_of_mins(self):
        # equidistant labeled features isolate the output combiner
        state = make_state(
            [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
            [[1.0, 10.0], [10.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            labeled=[0, 1],
        )
        set_models(state, [[-0.5, 0.0], [-3.25, 0.0]], [2.5, 5.25])
        dist = math.sqrt(2.0)
        min_of_products = {
            2: dist * min(abs(2 - 1) * abs(2 - 10), abs(2 - 10) * abs(2 - 1)),
            3: dist * min(abs(3 - 1) * abs(8.5 - 10), abs(3 - 10) * abs(8.5 - 1)),
        }
        product_of_mins = {
            2: dist * min(abs(2 - 1), abs(2 - 10)) * min(abs(2 - 10), abs(2 - 1)),
            3: dist * min(abs(3 - 1), abs(3 - 10)) * min(abs(8.5 - 10), abs(8.5 - 1)),
        }
        assert max(min_of_products, key=min_of_products.get) == 2
        assert max(product_of_mins, key=product_of_mins.get) == 3
        assert select_next(state, StrategySpec("mt_igs")) == 2


class TestOracleEquivalence:
    def test_all_greedy_steps_match_bruteforce(self):
        for seed in range(100):
            state, rng = random_greedy_instance(seed)
            features, labels = pool_as_lists(state)
            labeled = list(state.labeled)
            unlabeled = [int(i) for i in state.unlabeled_indices()]
            models = oracle_models(state)
            task = int(rng.integers(state.pool.n_tasks))

            assert select_next(state, StrategySpec("gsx")) == bruteforce.gs_input_choice(
                features, labeled, unlabeled
            )
            assert select_next(state, StrategySpec("gsy", focus_task=task)) == bruteforce.gsy_choice(
                features, labels, labeled, unlabeled, models[task], task
            )
            assert select_next(state, StrategySpec("igs", focus_task=task)) == bruteforce.igs_choice(
                features, labels, labeled, unlabeled, models[task], task
            )
            assert select_next(state, StrategySpec("mt_gsy")) == bruteforce.mtgsy_choice(
                features, labels, labeled, unlabeled, models
            )
            assert select_next(state, StrategySpec("mt_igs")) == bruteforce.mtigs_choice(
                features, labels, labeled, unlabeled, models
            )


class TestQbc:
    def _degenerate_state(self):
        state = make_state([[2.0, 1.0]] * 5, [[3.0]] * 5, labeled=[0, 1])
        fit_state(state, RIDGE)
        return state

    def test_identical_committee_falls_to_tie_rule(self):
        assert select_next(self._degenerate_state(), StrategySpec("qbc", focus_task=0)) == 2

    def test_seeded_determinism(self):
        picks = set()
        for _ in range(3):
            state, _ = random_greedy_instance(7)
            picks.add(select_next(state, StrategySpec("qbc", focus_task=0)))
        assert len(picks) == 1

    def test_label_shift_does_not_change_selection(self):
        state, _ = random_greedy_instance(11)
        baseline = select_next(state, StrategySpec("qbc", focus_task=0))
        fresh, _ = random_greedy_instance(11)
        labels = fresh.pool.labels.copy()
        labels[:, 0] += 5.0
        clone = make_state(fresh.pool.features, labels, labeled=list(fresh.labeled))
        clone.rng = fresh.rng  # unconsumed stream at the same seed
        fit_state(clone, SolverConfig("ridge", lam=1.0))
        assert select_next(clone, StrategySpec("qbc", focus_task=0)) == baseline

    @pytest.mark.parametrize("kind", ["qbc", "emcm"])
    def test_one_label_draws_at_random(self, kind):
        # at d = k0 = 1 a single label cannot be bootstrapped: the random phase lasts to K = 2
        state = make_state([[1.0], [2.0], [3.0], [4.0]], [[0.0], [1.0], [2.0], [3.0]], labeled=[0], seed=4)
        reference = make_state([[1.0], [2.0], [3.0], [4.0]], [[0.0]] * 4, labeled=[0], seed=4)
        fit_state(state, RIDGE)
        assert select_next(state, StrategySpec(kind, focus_task=0)) == select_next(reference, StrategySpec("random"))


class TestEmcm:
    def test_identical_committee_falls_to_tie_rule(self):
        state = make_state([[2.0, 1.0]] * 5, [[3.0]] * 5, labeled=[0, 1])
        fit_state(state, RIDGE)
        assert select_next(state, StrategySpec("emcm", focus_task=0)) == 2

    def test_zero_feature_vector_scores_zero(self):
        state = make_state(
            [[1.0], [-1.0], [0.0], [0.0]], [[1.0], [-1.0], [0.0], [0.0]], labeled=[0, 1]
        )
        fit_state(state, RIDGE)
        assert select_next(state, StrategySpec("emcm", focus_task=0)) == 2

    def test_label_scaling_preserves_argmax(self):
        state, _ = random_greedy_instance(13)
        baseline = select_next(state, StrategySpec("emcm", focus_task=0))
        fresh, _ = random_greedy_instance(13)
        labels = fresh.pool.labels.copy()
        labels[:, 0] *= 2.0
        clone = make_state(fresh.pool.features, labels, labeled=list(fresh.labeled))
        clone.rng = fresh.rng
        fit_state(clone, SolverConfig("ridge", lam=1.0))
        assert select_next(clone, StrategySpec("emcm", focus_task=0)) == baseline


class TestRandomStep:
    def test_singleton(self):
        state = make_state([[0.0], [1.0]], [[0.0]] * 2, labeled=[0])
        assert select_next(state, StrategySpec("random")) == 1

    def test_seeded_determinism(self):
        seqs = []
        for _ in range(2):
            state = make_state(np.arange(10.0)[:, None], [[0.0]] * 10, seed=42)
            seqs.append([select_next(state, StrategySpec("random")) for _ in range(5)])
        assert seqs[0] == seqs[1]

    def test_empirical_uniformity(self):
        state = make_state(np.arange(10.0)[:, None], [[0.0]] * 10, seed=123)
        draws = np.array([select_next(state, StrategySpec("random")) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=10)
        assert stats.chisquare(counts).pvalue > 0.001


class TestPermutationEquivariance:
    """Relabeling pool rows relabels a greedy selection and changes nothing else."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        kind=st.sampled_from(("gsx", "gsy", "igs", "mt_gsy", "mt_igs")),
        # d >= 2: a one-row fit predicts a constant, so every output gap would tie
        shape=st.tuples(st.integers(4, 16), st.integers(2, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_greedy_selection_follows_row_permutation(self, kind, shape, seed, data):
        n, d, p = shape
        rng = np.random.default_rng(seed)
        features, labels = rng.standard_normal((n, d)), rng.standard_normal((n, p))
        perm = np.array(data.draw(st.permutations(range(n))))
        spec = StrategySpec(kind, focus_task=0 if kind in ("gsy", "igs") else None)
        original = selection_sequence(make_pool(features, labels), spec, RIDGE)
        permuted = selection_sequence(make_pool(features[perm], labels[perm]), spec, RIDGE)
        # row j of the permuted pool is row perm[j] of the original
        assert [int(perm[j]) for j in permuted] == original


def _cdist_greedy_scores(state, unlabeled, use_input, tasks):
    """Greedy scores from scipy's cdist, candidates x labeled, in the kernel's multiplication order."""
    candidates, models = state.pool.features[unlabeled], state.models
    scores = None
    for t in tasks:
        pred = candidates @ models.coefficients[t] + models.intercept[t]
        gaps = np.abs(pred[:, None] - state.pool.labels[state.labeled, t][None, :])
        scores = gaps if scores is None else scores * gaps
    if use_input:
        distances = cdist(candidates, state.pool.features[state.labeled])
        scores = distances if scores is None else distances * scores
    return scores.min(axis=1)


class TestDistanceLedger:
    @pytest.mark.parametrize(
        "seed, d, scale",
        [(0, 1, 1e-150), (1, 1, 1e150), (2, 2, 1.0), (3, 7, 1e-40), (4, 13, 1e90), (5, 29, 3e-7),
         (6, 60, 1e150), (7, 60, 1e-150)],
    )
    def test_scores_equal_cdist_across_queries_and_phases(self, seed, d, scale):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(d + 8, 2001)), int(rng.integers(1, 4))
        pool = make_pool(rng.standard_normal((n, d)) * scale, rng.standard_normal((n, p)))
        for kind, tasks in (("gsx", ()), ("igs", (0,)), ("mt_igs", range(p))):
            spec = StrategySpec(kind, focus_task=0 if kind == "igs" else None)
            state = PoolState(pool, rng=seed)
            state.add(select_next(state, spec))  # the centroid pick
            # warm-up rows of the ledger are reused by the criterion phase after k0
            while state.n_labeled < d + 6:
                phase_tasks = tasks if state.n_labeled >= state.k0 else ()
                if phase_tasks:
                    fit_state(state, RIDGE)
                unlabeled = state.unlabeled_indices()
                pick = select_next(state, spec)
                reference = _cdist_greedy_scores(state, unlabeled, True, phase_tasks)
                assert np.array_equal(_greedy_scores(state, unlabeled, True, phase_tasks), reference)
                assert pick == unlabeled[np.argmax(reference)]
                state.add(pick)


def _unblocked_greedy_scores(state, unlabeled, use_input, tasks):
    """Greedy scores over the whole labeled x candidates matrix at once: the gaps left to right,
    then the input distance, then the min over labeled rows."""
    candidates, models = state.pool.features[unlabeled], state.models
    scores = None
    for t in tasks:
        pred = candidates @ models.coefficients[t] + models.intercept[t]
        gaps = np.abs(pred[None, :] - state.pool.labels[state.labeled, t][:, None])
        scores = gaps if scores is None else scores * gaps
    if use_input:
        distances = state._labeled_distances()[:, unlabeled]
        scores = distances if scores is None else distances * scores
    return scores.min(axis=0)


class TestGreedyBlocks:
    """Blocks of labeled rows and the nearest-label vector keep every score's bits."""

    # element budgets for n candidates: one labeled row per block (the first three),
    # three rows with a shorter last block, and the default
    BUDGETS = {"1": lambda n: 1, "n-1": lambda n: n - 1, "n": lambda n: n, "3n": lambda n: 3 * n,
               "default": lambda n: strategies._GREEDY_BLOCK}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(("gsx", "gsy", "igs", "mt_gsy", "mt_igs")),
        shape=st.tuples(st.integers(10, 40), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from(sorted(BUDGETS)),
    )
    def test_scores_equal_unblocked_reference(self, kind, shape, seed, budget):
        n, d, p = shape
        rng = np.random.default_rng(seed)
        # feature and label magnitudes 1e-150..1e150: products overflow to inf and underflow to 0
        x_exp, y_exp = rng.choice([-150.0, -75.0, 0.0, 75.0, 150.0], size=2)
        pool = make_pool(rng.standard_normal((n, d)) * 10.0**x_exp, rng.standard_normal((n, p)) * 10.0**y_exp)
        spec = StrategySpec(kind, focus_task=0 if kind in SINGLE_TASK_KINDS else None)
        criterion = kind in ("gsx", "igs", "mt_igs"), {"gsx": (), "gsy": (0,), "igs": (0,)}.get(kind, range(p))
        # a penalty on the scale of XᵀX keeps the ridge solve regular at every magnitude
        solver = SolverConfig("ridge", lam=10.0 ** (2 * x_exp))
        state = PoolState(pool, rng=seed)
        state.add(select_next(state, spec))  # the centroid pick
        while state.n_labeled < d + 6:
            use_input, tasks = criterion if state.n_labeled >= state.k0 else (True, ())
            if tasks:
                fit_state(state, solver)
            unlabeled = state.unlabeled_indices()
            with mock.patch.object(strategies, "_GREEDY_BLOCK", self.BUDGETS[budget](unlabeled.size)):
                scores = _greedy_scores(state, unlabeled, use_input, tasks)
                pick = select_next(state, spec)
            reference = _unblocked_greedy_scores(state, unlabeled, use_input, tasks)
            assert np.array_equal(scores, reference, equal_nan=True)
            assert pick == unlabeled[np.argmax(reference)]
            state.add(pick)
            ledger = state._labeled_distances()
            assert np.array_equal(state._nearest_distances(), ledger.min(axis=0))


class TestCommitteeStack:
    @pytest.mark.parametrize("kind", ["qbc", "emcm"])
    @pytest.mark.parametrize(
        "solver",
        [SolverConfig("ols"), RIDGE, SolverConfig("ridge", lam=10.0, lambda_over_k="labeled"),
         SolverConfig("lasso", lam=1e-3), SolverConfig("elastic_net", lam=0.01, lam2=0.1)],
    )
    def test_scores_equal_one_fit_and_predict_per_member(self, kind, solver):
        spec = StrategySpec(kind, focus_task=0, committee_size=5)
        for seed in range(8):
            state, _ = random_greedy_instance(seed, max_n=30, max_d=4)
            fit_state(state, solver)
            rng = copy.deepcopy(state.rng)
            unlabeled = state.unlabeled_indices()
            scores = _committee_scores([state], [unlabeled], spec, 0)[0]
            X, y = state.pool.features[state.labeled], state.pool.labels[state.labeled, 0]
            candidates = state.pool.features[unlabeled]
            boot = []
            while len(boot) < spec.committee_size:
                idx = rng.integers(0, state.n_labeled, size=state.n_labeled)
                if np.unique(idx).size >= 2:  # a resample needs 2 distinct rows
                    member = fit(X[idx], y[idx], solver)
                    boot.append(candidates @ member.coefficients + member.intercept)
            boot = np.array(boot)
            if kind == "qbc":
                reference = boot.var(axis=0)
            else:
                main = candidates @ state.models.coefficients[0] + state.models.intercept[0]
                gap = np.abs(main[None, :] - boot).mean(axis=0)
                reference = gap * np.linalg.norm(candidates, axis=1)
            assert np.array_equal(scores, reference)
            assert rng.bit_generator.state == state.rng.bit_generator.state


def _committee_runs(runs, seed, solver, n=14, d=2, p=2):
    """`runs` states on pools of one shape, each with its own samples, k labels (the same k) and models."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(max(d, 2), n))
    states = []
    for r in range(runs):
        state = PoolState(make_pool(rng.standard_normal((n, d)), rng.standard_normal((n, p))), rng=seed + r)
        for index in rng.permutation(n)[:k]:
            state.add(index)
        fit_state(state, solver)
        states.append(state)
    return states


class TestCommitteeBatch:
    """One committee pass over R runs equals R single-run passes, bit for bit and draw for draw."""

    @pytest.mark.filterwarnings("ignore:LASSO path did not converge:RuntimeWarning")
    @pytest.mark.parametrize("block", ["default", "one run"])
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        runs=st.integers(1, 5),
        kind=st.sampled_from(("qbc", "emcm")),
        size=st.integers(2, 8),
        solver=st.sampled_from(("ols", "ridge:lambda=10/k", "ridge:lambda=10/kmax", "lasso:max_iters=1",
                                "elastic_net")),
        seed=st.integers(0, 2**16),
    )
    def test_each_run_equals_its_own_committee(self, block, runs, kind, size, solver, seed):
        spec = StrategySpec(kind, focus_task=1, committee_size=size)
        states = _committee_runs(runs, seed, resolve_lambda(parse_solver(solver), budget=14))
        scored, alone_scored, alone_picked = (copy.deepcopy(states) for _ in range(3))
        unlabeled = [state.unlabeled_indices() for state in states]
        chunk = strategies._COMMITTEE_BLOCK if block == "default" else 1
        with mock.patch.object(strategies, "_COMMITTEE_BLOCK", chunk):
            scores = _committee_scores(scored, unlabeled, spec, 1)
            picks = _committee_picks(states, spec)
        assert scores.shape == (runs, unlabeled[0].size)
        for r in range(runs):
            assert np.array_equal(scores[r], _committee_scores([alone_scored[r]], [unlabeled[r]], spec, 1)[0])
            assert picks[r] == select_next(alone_picked[r], spec)
            assert scored[r].rng.bit_generator.state == alone_scored[r].rng.bit_generator.state
            assert states[r].rng.bit_generator.state == alone_picked[r].rng.bit_generator.state

    def test_a_run_with_stale_models_fails_the_batch(self):
        fresh, stale = _committee_runs(2, 0, RIDGE)
        for state in (fresh, stale):
            state.add(state.unlabeled_indices()[0])  # drops the run's models
        fit_state(fresh, RIDGE)
        draws = fresh.rng.bit_generator.state
        with pytest.raises(ValueError, match="no fitted models"):
            _committee_picks([fresh, stale], StrategySpec("qbc", focus_task=0))
        assert fresh.rng.bit_generator.state == draws


class TestSelectNext:
    def test_gsx_equals_input_greedy_at_any_stage(self):
        for seed in range(10):
            state, _ = random_greedy_instance(seed)
            unlabeled = [int(i) for i in state.unlabeled_indices()]
            assert select_next(state, StrategySpec("gsx")) == bruteforce.gs_input_choice(
                pool_as_lists(state)[0], list(state.labeled), unlabeled
            )

    def test_gsx_ignores_focus_task(self):
        pool = make_pool(np.random.default_rng(0).standard_normal((12, 2)),
                         np.random.default_rng(1).standard_normal((12, 2)))
        seq_a = selection_sequence(pool, StrategySpec("gsx", focus_task=0), RIDGE)
        seq_b = selection_sequence(pool, StrategySpec("gsx", focus_task=1), RIDGE)
        assert seq_a == seq_b

    def test_first_pick_is_centroid_for_greedy_kinds(self):
        rng = np.random.default_rng(5)
        state = make_state(rng.standard_normal((8, 2)), rng.standard_normal((8, 1)))
        feats = state.pool.features
        expected = int(np.argmin(np.linalg.norm(feats - feats.mean(axis=0), axis=1)))
        for kind in ("gsx", "gsy", "igs", "mt_gsy", "mt_igs"):
            assert select_next(state, StrategySpec(kind)) == expected

    def test_random_init_phase_for_committee_kinds(self):
        rng = np.random.default_rng(6)
        pool = make_pool(rng.standard_normal((10, 3)), rng.standard_normal((10, 1)))
        for kind in ("random", "qbc", "emcm"):
            state = PoolState(pool, rng=9)
            reference = PoolState(pool, rng=9)
            # below k0 every committee kind must follow the random stream
            for _ in range(pool.n_features):
                expected = select_next(reference, StrategySpec("random"))
                assert select_next(state, StrategySpec(kind)) == expected
                state.add(state.unlabeled_indices()[0])
                reference.add(reference.unlabeled_indices()[0])

    def test_gsx_warmup_phase_for_greedy_kinds(self):
        rng = np.random.default_rng(7)
        pool = make_pool(rng.standard_normal((10, 4)), rng.standard_normal((10, 2)))
        for kind in ("gsy", "igs", "mt_gsy", "mt_igs"):
            state, reference = PoolState(pool), PoolState(pool)
            for ledger in (state, reference):
                ledger.add(select_next(ledger, StrategySpec("gsx")))
            # picks 1..k0-1 follow the input-space rule and need no fitted models
            while state.n_labeled < state.k0:
                pick = select_next(state, StrategySpec(kind, focus_task=0))
                assert pick == select_next(reference, StrategySpec("gsx"))
                state.add(pick)
                reference.add(pick)

    def test_multi_task_sequences_match_single_task_on_one_task(self):
        rng = np.random.default_rng(2)
        pool = make_pool(rng.standard_normal((14, 2)), rng.standard_normal((14, 1)))
        assert selection_sequence(pool, StrategySpec("mt_igs"), RIDGE) == selection_sequence(
            pool, StrategySpec("igs"), RIDGE
        )
        assert selection_sequence(pool, StrategySpec("mt_gsy"), RIDGE) == selection_sequence(
            pool, StrategySpec("gsy"), RIDGE
        )

    def test_random_sequence_reproducible(self):
        rng = np.random.default_rng(3)
        pool = make_pool(rng.standard_normal((12, 2)), rng.standard_normal((12, 1)))
        seq_a = selection_sequence(pool, StrategySpec("random"), RIDGE, seed=4)
        seq_b = selection_sequence(pool, StrategySpec("random"), RIDGE, seed=4)
        assert seq_a == seq_b

    def test_deterministic_kinds_repeat_exactly(self):
        rng = np.random.default_rng(8)
        pool = make_pool(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
        for kind in ("gsx", "gsy", "igs", "mt_gsy", "mt_igs"):
            spec = StrategySpec(kind, focus_task=0)
            assert selection_sequence(pool, spec, RIDGE) == selection_sequence(pool, spec, RIDGE)

    def test_single_task_kind_needs_focus_on_multitask_data(self):
        rng = np.random.default_rng(4)
        state = make_state(rng.standard_normal((6, 1)), rng.standard_normal((6, 2)), labeled=[0])
        fit_state(state, RIDGE)
        with pytest.raises(ValueError, match="focus task"):
            select_next(state, StrategySpec("gsy"))

    def test_every_step_returns_unlabeled_and_preserves_partition(self):
        for seed in range(15):
            state, _ = random_greedy_instance(seed)
            n = state.pool.n_samples
            for kind in ("random", "gsx", "gsy", "igs", "mt_gsy", "mt_igs", "qbc", "emcm"):
                spec = StrategySpec(kind, focus_task=0)
                pick = select_next(state, spec)
                assert pick in set(state.unlabeled_indices().tolist())
            state.add(pick)
            assert len(state.labeled) + state.unlabeled_indices().size == n
            assert set(state.labeled).isdisjoint(state.unlabeled_indices().tolist())


class TestPoolStateInvariants:
    def test_add_rejects_labeled_index(self):
        state = make_state([[0.0], [1.0]], [[0.0]] * 2, labeled=[0])
        with pytest.raises(ValueError, match="already labeled"):
            state.add(0)

    def test_add_rejects_out_of_range(self):
        state = make_state([[0.0], [1.0]], [[0.0]] * 2)
        with pytest.raises(ValueError):
            state.add(5)

    def test_select_rejects_a_fully_labeled_pool(self):
        state = make_state([[0.0], [1.0]], [[0.0]] * 2, labeled=[0, 1])
        with pytest.raises(ValueError, match="no unlabeled samples left"):
            select_next(state, StrategySpec("random"))

    def test_spec_rejects_a_negative_focus_task(self):
        with pytest.raises(ValueError, match="focus_task must be a nonnegative task index"):
            StrategySpec("gsy", focus_task=-1)

    def test_default_k0_is_feature_count(self):
        state = make_state(np.zeros((5, 3)), np.zeros((5, 1)))
        assert state.k0 == 3

    def test_distance_ledger_stops_growing_at_the_pool_size(self):
        rng = np.random.default_rng(0)
        state = make_state(rng.standard_normal((5, 2)), rng.standard_normal((5, 1)))
        for index in range(5):
            state.add(index)
            state._labeled_distances()
        assert state._distances.shape == (5, 5)
        features = state.pool.features
        for m in range(5):
            assert np.array_equal(state._distances[m], np.linalg.norm(features - features[m], axis=1))

    @pytest.mark.parametrize("kind", ("gsx", "gsy", "mt_gsy", "igs", "mt_igs"))
    def test_only_igs_criterion_steps_keep_ledger_rows(self, kind):
        rng = np.random.default_rng(5)
        state = make_state(rng.standard_normal((20, 3)), rng.standard_normal((20, 2)))
        spec = StrategySpec(kind, focus_task=0 if kind in SINGLE_TASK_KINDS else None)
        features = state.pool.features
        while state.n_labeled < 12:
            if state.n_labeled >= state.k0:
                fit_state(state, RIDGE)
            pick = select_next(state, spec)
            if kind in ("igs", "mt_igs") and state.n_labeled >= state.k0:
                # the warm-up rows are computed again at the first criterion step
                assert state._n_distances == state.n_labeled
                for m, index in enumerate(state.labeled):
                    assert np.array_equal(state._distances[m], np.linalg.norm(features - features[index], axis=1))
            else:
                assert state._n_distances == 0 and state._distances.shape[0] == 0
            state.add(pick)


class TestStrategyGrammar:
    def test_parse_examples(self):
        assert parse_strategy("mt_igs") == StrategySpec("mt_igs")
        assert parse_strategy("gsy:task=1") == StrategySpec("gsy", focus_task=1)
        assert parse_strategy("qbc:task=0,committee=4") == StrategySpec(
            "qbc", focus_task=0, committee_size=4
        )

    def test_roundtrip(self):
        # the eight c5 benchmark strategies come first: their printed specs label every curve row
        for text in ("random", "gsx", "gsy:task=0", "igs:task=0", "mt_gsy", "mt_igs", "qbc:task=0", "emcm:task=0",
                     "gsy:task=1", "emcm:task=2,committee=6"):
            assert strategy_to_string(parse_strategy(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(STRATEGY_KINDS).flatmap(
            lambda kind: st.builds(
                StrategySpec,
                st.just(kind),
                (st.none() | st.integers(0, 10**6)) if kind in SINGLE_TASK_KINDS else st.none(),
                st.integers(2, 10**6) if kind in ("qbc", "emcm") else st.just(StrategySpec.committee_size),
            )
        )
    )
    def test_parse_inverts_print(self, spec):
        assert parse_strategy(strategy_to_string(spec)) == spec

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            StrategySpec,
            st.sampled_from(STRATEGY_KINDS),
            st.none() | st.integers(0, 10**6),
            st.integers(2, 10**6),
        )
    )
    def test_label_prints_only_options_the_kind_reads(self, spec):
        label = strategy_to_string(spec)
        assert strategy_to_string(parse_strategy(label)) == label
        assert ("task=" in label) <= (spec.kind in SINGLE_TASK_KINDS)
        assert ("committee=" in label) <= (spec.kind in ("qbc", "emcm"))

    @pytest.mark.parametrize("kind", sorted(set(STRATEGY_KINDS) - SINGLE_TASK_KINDS))
    def test_task_rejected_where_ignored(self, kind):
        with pytest.raises(ValueError, match=f"strategy {kind} takes no 'task' option"):
            parse_strategy(f"{kind}:task=1")

    @pytest.mark.parametrize("kind", sorted(set(STRATEGY_KINDS) - {"qbc", "emcm"}))
    def test_committee_rejected_where_ignored(self, kind):
        with pytest.raises(ValueError, match=f"strategy {kind} takes no 'committee' option"):
            parse_strategy(f"{kind}:committee=8")

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            parse_strategy("gs")
        with pytest.raises(ValueError, match="unknown strategy option"):
            parse_strategy("gsy:tsak=1")
        with pytest.raises(ValueError, match="committee_size"):
            parse_strategy("qbc:committee=1")
        with pytest.raises(ValueError, match="strategy option 'committee' in 'qbc:task=0,committee=x' expects an integer"):
            parse_strategy("qbc:task=0,committee=x")
