"""Pinned-seed example summaries and the frozen data files behind the
`reproduce` subcommand.

Reruns must reproduce the stored JSON byte for byte; any drift here means
either a seed-handling change or a numerical change worth investigating.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncconvex import examples, matkit, xycvx

DATA = Path(examples.__file__).parent / "data"


def load(name):
    return json.loads((DATA / name).read_text())


def test_intro_summary_matches_frozen():
    assert examples.intro_eval_summary() == load("expected_intro_eval.json")


def test_intro_values():
    s = examples.intro_eval_summary()
    assert s["herm_residual"] == 38.0
    flat = [entry[0] for row in s["result"] for entry in row]
    assert flat == [69.0, 99.0, 61.0, 99.0]
    assert all(entry[1] == 0.0 for row in s["result"] for entry in row)


def test_a3_summary_matches_frozen():
    assert examples.example_a3_summary() == load("expected_example_a3.json")


def test_a3_summary_content():
    s = load("expected_example_a3.json")
    assert s["samples"] == 300
    assert s["violations"] == 0
    assert s["min_gap"] >= -1e-8
    wit = s["outside_witness"]
    assert wit["found"]
    assert wit["lambda_min"] < -1e-8
    assert wit["y_norm"] == pytest.approx(0.65)


def test_a4_summary_matches_frozen():
    assert examples.example_a4_summary() == load("expected_example_a4.json")


def test_a4_summary_content():
    s = load("expected_example_a4.json")
    assert s["screen"] == "accepted"
    assert s["inside_scan"]["all_psd"]
    assert s["boundary_witness"]["middle_lambda_min"] == pytest.approx(
        -0.105802225, abs=1e-8)
    assert s["boundary_witness"]["pair_defect_value"] == pytest.approx(
        s["boundary_witness"]["middle_lambda_min"], abs=1e-8)
    assert not s["interior_admissible_witness"]["found"]
    assert s["gram_stage"]["status"] == "not-certifiable-pinned"
    assert s["gram_stage"]["pinned_lambda_min"] == pytest.approx(-1.0)


def test_boundary_witness_rechecks_its_pair(monkeypatch):
    complete = xycvx.mxy_witness_pair

    def flipped(p, wit):
        # the completed pair with the sign of its defect turned around
        pw = complete(p, wit)
        return replace(pw, defect=-pw.defect, value=-pw.value)

    wit, pair = examples.boundary_middle_witness()
    assert pair.recheck() is None
    monkeypatch.setattr(xycvx, "mxy_witness_pair", flipped)
    with pytest.raises(xycvx.PairError, match="h\\* D h"):
        examples.boundary_middle_witness()


def test_norm_bound_value():
    assert examples.NORM_BOUND == pytest.approx(1.0 / np.sqrt(3.0))


def test_sample_in_ball_obeys_radius(rng):
    for _ in range(20):
        M = examples.sample_in_ball(3, 0.4, rng)
        assert np.linalg.norm(M, 2) <= 0.4 + 1e-12
        assert np.allclose(M, M.conj().T)


def test_midpoint_gap_scalar_y_never_violates(rng):
    """With 1 x 1 Y the two cross terms commute and the gap stays PSD."""
    p = examples.square_poly_two_class()
    for _ in range(60):
        Y = examples.sample_in_ball(1, 2.0, rng)
        X1 = examples.sample_in_ball(1, 2.0, rng)
        X2 = examples.sample_in_ball(1, 2.0, rng)
        gap = examples.midpoint_gap_in_x(p, Y, X1, X2)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10


def test_widened_witness_repeatable():
    rng = np.random.default_rng(77)
    wit = examples.widened_region_witness(rng, y_norm=0.7, max_trials=500)
    assert wit["found"]
    assert wit["lambda_min"] < 0


def test_small_norm_sampler_clamps_blocks(rng):
    sampler = examples.small_norm_sampler(0.1)
    d0, d1, b1, b2 = sampler(rng, (2, 3))
    for M in (d0, d1, b1, b2):
        assert np.linalg.norm(M, 2) <= 0.1 + 1e-12
    assert d0.shape == (2, 2) and b2.shape == (3, 3)
    assert d1.shape == (2, 3) and b1.shape == (2, 3)


def test_two_class_and_xy_layouts_agree(rng):
    """Same polynomial through both variable layouts evaluates identically."""
    from ncconvex.ncalg import HermTuple, eval_poly

    p2 = examples.square_poly_two_class()
    pxy = examples.square_poly_xy()
    for _ in range(5):
        X = matkit.sample_herm(2, 0.6, rng)
        Y = matkit.sample_herm(2, 0.6, rng)
        # two-class layout: a-letter is y, x-letter is x
        t2 = HermTuple(2, (Y,), (X,), validate=False)
        # xy layout: both letters in the x class, ordered (x, y)
        txy = HermTuple(2, (), (X, Y), validate=False)
        assert np.allclose(eval_poly(p2, t2), eval_poly(pxy, txy), atol=1e-12)
