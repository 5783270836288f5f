"""Two-level propagation versus flat Monte Carlo on a rectifier-fed RC.

Level one extracts a spectral surrogate of the rectifier output and
compresses it into a single normalized intermediate variable with a custom
orthogonal basis.  Level two integrates an RC stage whose resistor tracks
that variable.  The flat reference samples the original parameters,
evaluates the surrogate, and uses the closed-form RC step response.
"""

import argparse
import sys
import time

import numpy as np

from uqsim import hier
from uqsim.models import builtin_model
from uqsim.montecarlo import sample_parameters
from uqsim.polychaos import GpcExpansion, total_degree_index_set


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--block-order", type=int, default=3)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--t-end", type=float, default=2e-3)
    ap.add_argument("--spread", type=float, default=0.1)
    args = ap.parse_args(argv)

    block = builtin_model("diode_rectifier")
    t0 = time.perf_counter()
    surrogate = hier.extract_block_surrogate(block, args.block_order,
                                             output="v(2)")
    dens = hier.density_by_quadrature(surrogate)
    basis, _ = hier.build_intermediate_basis(dens, args.order)
    system = hier.demo_system("rc_zeta", [dens], spread=args.spread)
    x0 = GpcExpansion(total_degree_index_set(1, 0), np.zeros((1, system.n)),
                      (basis,))
    sol = hier.propagate_transient(system, (basis,), args.order,
                                   (0.0, args.t_end), x0=x0)
    hier_time = time.perf_counter() - t0
    mean, var = sol.final().mean_variance()
    h_mean, h_std = float(mean[0]), float(np.sqrt(max(var[0], 0.0)))

    # flat reference: sample the block inputs, push through the surrogate,
    # then use v(t) = 1 - exp(-t / (R C)) with R tracking the intermediate
    t0 = time.perf_counter()
    xis = sample_parameters(block.distributions, args.samples, args.seed)
    z = surrogate.zeta.eval_many(xis).ravel()
    r, c = 1e3 * (1.0 + args.spread * z), 1e-6
    v = 1.0 - np.exp(-args.t_end / (r * c))
    flat_time = time.perf_counter() - t0
    f_mean, f_std = float(v.mean()), float(v.std(ddof=1))
    se_mean = f_std / np.sqrt(args.samples)

    print(f"block surrogate: level a={surrogate.a:.6f}, "
          f"spread b={surrogate.b:.6e}")
    print(f"two-level: {hier_time:.3f}s; flat reference "
          f"({args.samples} samples): {flat_time:.3f}s")
    print()
    print(f"{'':<12} {'two-level':>14} {'flat MC':>14} {'rel gap':>10}")
    gap_mean = abs(h_mean - f_mean) / abs(f_mean)
    gap_std = abs(h_std - f_std) / f_std
    print(f"{'mean':<12} {h_mean:>14.7f} {f_mean:>14.7f} {gap_mean:>10.2e}")
    print(f"{'std':<12} {h_std:>14.7f} {f_std:>14.7f} {gap_std:>10.2e}")
    print()
    ok = gap_mean < 0.01 and gap_std < 0.01
    print(f"flat-MC mean standard error: {se_mean:.2e}")
    print("within 1% relative on both moments" if ok
          else "exceeds 1% relative gap")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
