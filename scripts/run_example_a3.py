"""Midpoint study of p = x^2 + y^2 + xy^2x + yx^2y + 2xyxy + 2yxyx in x.

Inside the ball ||X||, ||Y|| <= 1/sqrt(3) the polynomial is midpoint convex
in x for every frozen Y; just outside (||Y|| ~ 0.65 at size 2) random search
finds a strict midpoint violation.  The script reruns the pinned-seed summary
and then sweeps the Y-norm level to show where violations start to appear.
"""

import argparse
import json

import numpy as np

from ncconvex import examples


def sweep(levels, trials, seed):
    """examples.widened_region_witness at each Y-norm level, each from a
    fresh generator at seed."""
    return [(lvl, examples.widened_region_witness(
        np.random.default_rng(seed), y_norm=lvl, max_trials=trials, tol=1e-10))
        for lvl in levels]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--samples", type=int, default=75, help="samples per size")
    ap.add_argument("--trials", type=int, default=400, help="search trials per sweep level")
    args = ap.parse_args()

    summary = examples.example_a3_summary(seed=args.seed, samples=args.samples)
    print(json.dumps(summary, indent=2, sort_keys=True))
    print()
    print("Y-norm sweep (size 2, midpoint gap in x):")
    levels = [0.50, 0.55, examples.NORM_BOUND, 0.60, 0.65, 0.75]
    for lvl, found in sweep(levels, args.trials, args.seed):
        if not found["found"]:
            print(f"  ||Y|| = {lvl:.4f}: no violation in {args.trials} trials")
        else:
            print(f"  ||Y|| = {lvl:.4f}: violation at trial {found['trials']}, "
                  f"gap {found['lambda_min']:.6e}")


if __name__ == "__main__":
    main()
