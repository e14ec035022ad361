"""Worked examples with pinned-seed summaries.

Three reproducible studies back the command line `reproduce` ids:

intro-eval    evaluates x1 x2 - 17 x2 x1 + 4 at a fixed 2 x 2 pair
example-A3    the biconvex polynomial x^2 + y^2 + x y^2 x + y x^2 y
              + 2 xyxy + 2 yxyx sampled for midpoint convexity in x on the
              region ||X|| <= 1/sqrt(3), ||Y|| <= 1/sqrt(3), plus a
              violation search just outside the bound
example-A4    the same polynomial through the separate-convexity pipeline:
              middle-matrix scan near zero, boundary witness, and the Gram
              stage rejection

Summaries round floats so that a rerun with the same seed reproduces the
stored JSON byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import butterfly, matkit, xycvx
from .ncalg import FreePoly, HermTuple, VarContext, eval_poly

NORM_BOUND = 1.0 / np.sqrt(3.0)


def _round(x, digits=9):
    return float("%.*g" % (digits, float(x)))


def _jmat(M):
    return [[[_round(re, 12), _round(im, 12)] for re, im in row]
            for row in matkit.jmat(M)]


# ---------------------------------------------------------------------------
# intro evaluation

def intro_poly():
    """x1 x2 - 17 x2 x1 + 4 over two x-class letters."""
    ctx = VarContext((), ("x1", "x2"))
    return FreePoly.from_terms(ctx, {(0, 1): 1.0, (1, 0): -17.0, (): 4.0})


def intro_matrices():
    X1 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    X2 = np.array([[-1.0, -1.0], [-1.0, -1.0]], dtype=complex)
    return X1, X2


def intro_eval_summary():
    p = intro_poly()
    X1, X2 = intro_matrices()
    val = eval_poly(p, HermTuple(2, (), (X1, X2), validate=False))
    herm_res = float(np.linalg.norm(val - val.conj().T, 2))
    return {"result": _jmat(val), "herm_residual": _round(herm_res)}


# ---------------------------------------------------------------------------
# the square example polynomial, in both variable layouts

def square_poly_two_class():
    """x^2 + y^2 + x y^2 x + y x^2 y + 2 xyxy + 2 yxyx with y frozen (a-class)."""
    ctx = VarContext(("y",), ("x",))
    y, x = 0, 1
    return FreePoly.from_terms(ctx, {
        (x, x): 1.0, (y, y): 1.0,
        (x, y, y, x): 1.0, (y, x, x, y): 1.0,
        (x, y, x, y): 2.0, (y, x, y, x): 2.0,
    })


def square_poly_xy():
    """The same polynomial over two x-class letters, for the xy pipeline."""
    return xycvx.from_coeffs({"xx": 1.0, "yy": 1.0, "xyyx": 1.0,
                              "yxxy": 1.0, "xyxy": 2.0, "yxyx": 2.0})


def sample_in_ball(n, radius, rng):
    """Hermitian sample with operator norm at most radius."""
    M = matkit.sample_herm(n, 1.0, rng)
    nrm = float(np.linalg.norm(M, 2))
    if nrm > 0:
        M = M * (radius * rng.uniform(0.2, 1.0) / max(nrm, radius))
    return M


def midpoint_gap_in_x(p, Y, X1, X2):
    """(p(Y,X1) + p(Y,X2))/2 - p(Y, (X1+X2)/2), Hermitized."""
    return butterfly.MidpointWitness((Y,), (X1,), (X2,), 0.0).gap(p)


def example_a3_summary(seed=2023, sizes=(1, 2, 3, 4), samples=75,
                       tol=1e-8):
    """Midpoint convexity in x on the bounded region, violation outside."""
    p = square_poly_two_class()
    rng = np.random.default_rng(seed)
    violations = 0
    min_gap = np.inf
    for n in sizes:
        for _ in range(samples):
            Y = sample_in_ball(n, NORM_BOUND, rng)
            X1 = sample_in_ball(n, NORM_BOUND, rng)
            X2 = sample_in_ball(n, NORM_BOUND, rng)
            ev = np.linalg.eigvalsh(midpoint_gap_in_x(p, Y, X1, X2))
            min_gap = min(min_gap, float(ev[0]))
            violations += int(not matkit.psd_mask(ev, tol))
    witness = widened_region_witness(rng)
    return {
        "region": {"norm_bound": _round(NORM_BOUND), "sizes": list(sizes)},
        "samples": len(sizes) * samples,
        "violations": violations,
        "min_gap": _round(min_gap),
        "outside_witness": witness,
    }


def widened_region_witness(rng, y_norm=0.65, max_trials=2000, tol=1e-8):
    """Search just outside the norm bound for a midpoint violation in x."""
    p = square_poly_two_class()
    for trial in range(1, max_trials + 1):
        Y = matkit.sample_herm(2, 1.0, rng)
        Y = Y * (y_norm / float(np.linalg.norm(Y, 2)))
        mid = sample_in_ball(2, NORM_BOUND, rng)
        H = matkit.sample_herm(2, 1.0, rng)
        gap = midpoint_gap_in_x(p, Y, mid + H, mid - H)
        lam = float(np.linalg.eigvalsh(gap)[0])
        if lam < -tol:
            return {"found": True, "trials": trial, "size": 2,
                    "y_norm": _round(y_norm), "lambda_min": _round(lam)}
    return {"found": False, "trials": max_trials, "size": 2,
            "y_norm": _round(y_norm), "lambda_min": None}


# ---------------------------------------------------------------------------
# the same example through the separate-convexity pipeline

def _clamped(M, bound):
    nrm = float(np.linalg.norm(M, 2))
    if nrm > bound:
        M = M * (bound / nrm)
    return M


def small_norm_sampler(bound):
    """Inner-block sampler with every block clamped to the given norm."""

    def sampler(rng, nm):
        n1, n2 = nm
        d0 = matkit.sample_herm(n1, bound, rng)
        b2 = matkit.sample_herm(n2, bound, rng)
        d1 = _clamped((rng.normal(size=(n1, n2))
                       + 1j * rng.normal(size=(n1, n2))) / np.sqrt(2), bound)
        b1 = _clamped((rng.normal(size=(n1, n2))
                       + 1j * rng.normal(size=(n1, n2))) / np.sqrt(2), bound)
        return d0, d1, b1, b2

    return sampler


def boundary_middle_witness(p=None, level=0.65):
    """Deterministic indefinite middle matrix just past the norm bound.

    Scalar inner blocks delta0 = beta2 = level with level > 1/sqrt(3), as
    xycvx.pinned_witness builds them on its one-level ray; the witness is
    completed to a pair where the convexity defect fails, and PairError
    unless that pair passes PairWitness.recheck.
    """
    p = square_poly_xy() if p is None else p
    pl = p if isinstance(p, xycvx.PLPoly) else xycvx.support_screen(p)
    wit = xycvx.pinned_witness(pl, levels=(level,))
    pair = xycvx.mxy_witness_pair(pl, wit)
    reason = pair.recheck()
    if reason is not None:
        raise xycvx.PairError(reason)
    return wit, pair


def example_a4_summary(seed=2024, samples_per_size=100, bound=0.1):
    """Screen, small-norm scan, boundary witness, and Gram stage for A4."""
    p = square_poly_xy()
    pl = xycvx.support_screen(p)
    rng = np.random.default_rng(seed)
    scan = xycvx.middle_matrix_psd_scan(
        pl, sizes=((1, 1), (2, 2)), samples=samples_per_size, rng=rng,
        sampler=small_norm_sampler(bound))
    wit, pair = boundary_middle_witness(pl)
    gram = xycvx.gram_complete_certificate(pl)
    return {
        "screen": "accepted",
        "inside_scan": {
            "block_norm_bound": _round(bound),
            "inputs": scan.samples if not scan.is_witness else None,
            "all_psd": not scan.is_witness,
            "min_lambda": _round(scan.min_lambda)
            if not scan.is_witness else None,
        },
        "boundary_witness": {
            "level": _round(0.65),
            "norm_bound": _round(NORM_BOUND),
            "middle_lambda_min": _round(wit.lambda_min),
            "pair_defect_value": _round(pair.value),
        },
        "interior_admissible_witness": {
            "found": False,
            "note": "PSD holds on the admissible interior; indefiniteness "
                    "needs inner blocks past the norm bound",
        },
        "gram_stage": {
            "status": gram.status,
            "pinned_lambda_min": _round(gram.pinned_lambda_min),
        },
    }
