"""xy-convexity study of p = x^2 + y^2 + xy^2x + yx^2y + 2xyxy + 2yxyx.

The support screen accepts the polynomial, the middle matrix is PSD on small
inputs, and a boundary witness appears at level 0.65.  The pinned 2x2 block of
any admissible Gram matrix has eigenvalue -1, so no certificate exists; the
reduced feasibility stage reports exactly that.
"""

import argparse
import json

from ncconvex import examples, xycvx


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--samples", type=int, default=100, help="samples per size pair")
    ap.add_argument("--bound", type=float, default=0.1, help="norm bound for the PSD scan")
    args = ap.parse_args()

    summary = examples.example_a4_summary(
        seed=args.seed, samples_per_size=args.samples, bound=args.bound
    )
    print(json.dumps(summary, indent=2, sort_keys=True))

    p = xycvx.support_screen(examples.square_poly_xy())
    res = xycvx.gram_complete_certificate(p)
    print()
    print("gram stage:", res.status)
    print("pinned 2x2 eigenvalue:", res.pinned_lambda_min)
    wit, pair = examples.boundary_middle_witness(level=0.65)
    print("boundary middle-matrix eigenvalue:", wit.lambda_min)
    print("pair completion defect value:", pair.value,
          "(equals the boundary eigenvalue by construction)")
    if abs(pair.value - wit.lambda_min) > 1e-9:
        raise SystemExit("the pair's defect value %r is not the boundary "
                         "eigenvalue %r" % (pair.value, wit.lambda_min))


if __name__ == "__main__":
    main()
