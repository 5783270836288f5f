"""Crossover of the planned stacked LU against numpy's LAPACK solve.

Times both solves of Newton stacks (rows, n, n) taken near the DC point of
a builtin model or a diode-RC ladder, at the stack shapes the benchmark
jobs and the 40- and 60-stage ladders' chunks produce, and prints one line
per shape: the two times (min of --repeats), which is faster, and the
share of rows the planned LU hands back to LAPACK.  stsolver's
PLANNED_LU_MIN_ROWS is chosen from this table.
"""

import argparse
import json
import sys
import time

import numpy as np

from uqsim import netlist, stsolver
from uqsim.models import algebraic_model, builtin_model
from uqsim.montecarlo import sample_parameters
from uqsim.polychaos import Distribution


def ladder(stages: int):
    """Diode-RC ladder with one relative resistor variation per stage."""
    lines = ["V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        lines += [f"R{k} n{k - 1} n{k} 1k variation=relative:uniform(0.9,1.1)",
                  f"D{k} n{k} 0 is=1e-9 nvt=0.02585", f"C{k} n{k} 0 1u"]
    return netlist.elaborate(netlist.parse_netlist("\n".join(lines) + "\n"))


MODELS = {
    1: lambda: algebraic_model(lambda xi: xi, [Distribution.uniform(0, 1)],
                               1),
    2: lambda: builtin_model("plate_actuator"),
    3: lambda: builtin_model("diode_rectifier"),
    8: lambda: builtin_model("opamp_like"),
}


def model_of(n: int):
    return MODELS[n]() if n in MODELS else ladder(n - 2)


# (rows, n): the benchmark jobs' stacks, the 40- and 60-stage ladders' DC
# chunks, then the rows around the cutoff
SHAPES = [(4, 1), (10, 2), (14, 6), (165, 10), (283, 21), (360, 8),
          (1820, 8), (10922, 3), (stsolver._chunk_rows(42), 42),
          (stsolver._chunk_rows(62), 62),
          (32, 3), (64, 3), (128, 3), (32, 8), (64, 8), (128, 8),
          (32, 21), (64, 21), (128, 21)]


def stack(model, rows: int, seed: int = 0):
    """Jacobians and residuals of a DC Newton stack near the nominal
    operating point, rows perturbed by a few percent."""
    P = sample_parameters(model.distributions, rows, seed)
    x0 = stsolver.newton_dc(model, model.nominal_parameters())
    rng = np.random.default_rng(seed)
    X = x0 + 0.05 * rng.normal(size=(rows, model.n)) * (np.abs(x0) + 0.1)
    return (model.jac_f_many(X, P, 0.0),
            model.f_many(X, P, 0.0))


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=50)
    ap.add_argument("--json", action="store_true",
                    help="print the table as one JSON list")
    args = ap.parse_args(argv)
    rows_out = []
    for rows, n in SHAPES:
        model = model_of(n)
        J, R = stack(model, rows)
        lu = stsolver._model_lu(model, True)
        lapack = best_of(lambda: np.linalg.solve(J, -R[..., None]),
                         args.repeats)
        planned = best_of(lambda: lu.solve(J, R), args.repeats)
        flagged = int(np.count_nonzero(lu.solve(J, R)[1]))
        rows_out.append({"shape": [rows, n, n],
                         "lapack_us": round(lapack * 1e6, 1),
                         "planned_us": round(planned * 1e6, 1),
                         "faster": "planned" if planned < lapack else "lapack",
                         "fallback_rows": flagged})
    if args.json:
        print(json.dumps(rows_out))
    else:
        print(f"cutoff PLANNED_LU_MIN_ROWS = {stsolver.PLANNED_LU_MIN_ROWS}")
        for r in rows_out:
            print("({:5d}, {:2d}, {:2d})".format(*r["shape"]),
                  f"lapack {r['lapack_us']:9.1f} us",
                  f"planned {r['planned_us']:9.1f} us",
                  f"{r['faster']:7s} fallback rows {r['fallback_rows']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
