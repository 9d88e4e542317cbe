"""The engine's outputs on the golden experiments equal the committed record (see golden.py)."""

import json

import numpy as np
import pytest

import golden

RECORDED = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_record_covers_every_experiment():
    assert sorted(RECORDED) == sorted(golden.EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(golden.EXPERIMENTS))
def test_outputs_match_the_record(name):
    expected, actual = RECORDED[name], golden.compute(golden.EXPERIMENTS[name])
    for key in ("selections", "ks", "n_runs", "nonconverged"):
        assert actual[key] == expected[key], key
    for key in ("mean", "std"):
        assert sorted(actual[key]) == sorted(expected[key])
        for metric, cells in expected[key].items():
            np.testing.assert_allclose(np.array(actual[key][metric], dtype=float), np.array(cells, dtype=float),
                                       rtol=1e-9, atol=0, equal_nan=True, err_msg=f"{key} of {metric}")
