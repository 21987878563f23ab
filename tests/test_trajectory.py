"""The pinned training trajectory: small stand-in trainings must reproduce
``trajectory.json`` (written by ``make_trajectory.py``). Z and the predicted
classes match exactly; every loss term, norm and logit to 1e-10 relative.
A refactor that is meant to keep the numbers keeps this file."""
import json

import numpy as np
import pytest

from make_trajectory import CASES, PATH, run_case

with open(PATH, encoding="utf-8") as fh:
    PINNED = json.load(fh)


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_matches_the_pinned_trajectory(name):
    got, want = run_case(name), PINNED[name]
    assert got["z_sha256"] == want["z_sha256"]
    assert got["predictions"] == want["predictions"]
    assert len(got["losses"]) == len(want["losses"])
    for key in ("losses", "feature_center_norm", "logits"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-10, atol=0, err_msg=key)
    assert list(got["parameter_norms"]) == list(want["parameter_norms"])
    np.testing.assert_allclose(list(got["parameter_norms"].values()),
                               list(want["parameter_norms"].values()),
                               rtol=1e-10, atol=0, err_msg="parameter_norms")
