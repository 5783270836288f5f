"""Adaptive decomposition and global sensitivities of the opamp-like stage.

Nine device parameters vary; the screen keeps only interactions whose
variance share clears the threshold.  Prints the term budget against the
non-adaptive count and a ranked sensitivity table for the output node.
"""

import argparse
import math
import sys
import time

import numpy as np

from uqsim import anova
from uqsim.models import builtin_model
from uqsim.stsolver import newton_dc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=0.01)
    ap.add_argument("--output", default="v(out)")
    args = ap.parse_args(argv)

    model = builtin_model("opamp_like")
    j = model.labels.index(args.output)

    def g(x):
        return newton_dc(model, x.T)[:, j]

    t0 = time.perf_counter()
    decomp, exp = anova.adaptive_anova(g, model.distributions, m=args.m,
                                       sigma=args.sigma, order=args.order)
    elapsed = time.perf_counter() - t0
    S, T = anova.sensitivities(exp)

    d = model.d
    full_levels = [math.comb(d, k) for k in range(1, args.m + 1)]
    full_n = anova.sample_count(full_levels, args.order)
    print(f"output {args.output}: d={d} parameters, depth m={args.m}, "
          f"screen sigma={args.sigma:g}, order {args.order}")
    print(f"adaptive levels {decomp.n_by_level} -> "
          f"{1 + len(decomp.terms)} terms, "
          f"{decomp.n_evaluations} model evaluations in {elapsed:.3f}s")
    print(f"non-adaptive depth-{args.m} budget: "
          f"{1 + sum(full_levels)} terms, {full_n} evaluations "
          f"({full_n / decomp.n_evaluations:.1f}x more)")
    print()
    print(f"{'rank':<5} {'input':<8} {'main S':>10} {'total T':>10}")
    for rank, k in enumerate(np.argsort(S)[::-1], start=1):
        print(f"{rank:<5} xi{k:<6} {S[k]:>10.4f} {T[k]:>10.4f}")
    print()
    mean, var = exp.mean_variance()
    print(f"mean {float(mean[0]):.6f}, std {float(np.sqrt(var[0])):.6e}, "
          f"interaction share {1.0 - float(np.sum(S)):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
