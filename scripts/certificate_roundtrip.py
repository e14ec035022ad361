"""Round-trip study: synthesize certified polynomials, re-certify, compare.

For each seed, draw a random xy-convexity certificate, expand it into the
polynomial it certifies, then solve that polynomial's pinned 4 x 4 Gram from
scratch, read Lambda off the columns of its factor G = F* F, and verify the
reassembled certificate.  Reports the worst structural identity residual
across all rounds.
"""

import argparse
import time

import numpy as np

from ncconvex import xycvx


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-size", type=int, default=4)
    args = ap.parse_args()

    worst = 0.0
    t0 = time.perf_counter()
    for i, ss in enumerate(np.random.SeedSequence(args.seed).spawn(args.rounds)):
        rng = np.random.default_rng(ss)
        N = int(rng.integers(1, args.max_size + 1))
        p, _ = xycvx.synthesize_certified(rng, N=N)
        pl = xycvx.support_screen(p)
        res = xycvx.gram_complete_certificate(pl)
        assert res.is_feasible, f"round {i}: gram stage returned {res.status}"
        cert = xycvx.assemble_certificate(pl, res.F)
        rep = xycvx.verify_certificate(pl, cert, rng=rng, samples=5)
        assert rep.ok, (f"round {i}: verification failed (coefficient "
                        f"residual {rep.max_coeff_residual:.3e}, smallest "
                        f"defect eigenvalue {rep.min_defect_eig:.3e})")
        resid = max(cert.residuals.values())
        worst = max(worst, resid)
        print(f"round {i:2d}  N={N}  status={res.status}  residual={resid:.3e}")
    dt = time.perf_counter() - t0
    print(f"\n{args.rounds} rounds in {dt:.1f}s, worst residual {worst:.3e}")


if __name__ == "__main__":
    main()
