"""Stochastic testing versus Monte Carlo on the diode rectifier DC point.

Solves the two-parameter rectifier with a degree-3 spectral expansion
(10 deterministic solves) and with plain Monte Carlo, then reports both
moment sets, the agreement in standard errors, and the solve-count ratio.
"""

import argparse
import sys
import time

import numpy as np

from uqsim.models import builtin_model
from uqsim.montecarlo import run_mc
from uqsim.stsolver import select_testing_points, solve_dc, standard_bases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    model = builtin_model("diode_rectifier")
    labels = model.labels

    t0 = time.perf_counter()
    tps = select_testing_points(standard_bases(model, args.order), args.order)
    exp = solve_dc(model, tps)
    st_time = time.perf_counter() - t0
    st_mean, st_var = exp.mean_variance()
    st_std = np.sqrt(np.maximum(st_var, 0.0))

    t0 = time.perf_counter()
    mc = run_mc(model, "dc", args.samples, args.seed)
    mc_time = time.perf_counter() - t0
    mc_std = np.sqrt(np.maximum(mc.variance, 0.0))

    print(f"spectral: order {args.order}, {tps.n_points} solves, "
          f"{st_time:.3f}s")
    print(f"monte carlo: {mc.n_samples} solves, {mc.n_failed} failed, "
          f"{mc_time:.3f}s")
    print(f"solve ratio: {mc.n_samples / tps.n_points:.0f}x fewer model "
          f"solves for the spectral route")
    print()
    head = (f"{'output':<8} {'st mean':>13} {'mc mean':>13} {'gap/se':>7}"
            f" {'st std':>12} {'mc std':>12} {'gap/se':>7}")
    print(head)
    worst = 0.0
    for j, label in enumerate(labels):
        z_mean = abs(st_mean[j] - mc.mean[j]) / max(mc.stderr[j], 1e-300)
        z_std = abs(st_std[j] - mc_std[j]) / max(mc.stderr_std[j], 1e-300)
        worst = max(worst, z_mean, z_std)
        print(f"{label:<8} {st_mean[j]:>13.6e} {mc.mean[j]:>13.6e} "
              f"{z_mean:>7.2f} {st_std[j]:>12.5e} {mc_std[j]:>12.5e} "
              f"{z_std:>7.2f}")
    print()
    verdict = "AGREE" if worst <= 3.0 else "DISAGREE"
    print(f"largest gap: {worst:.2f} standard errors -> {verdict} "
          f"(3-sigma band)")
    return 0 if worst <= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
