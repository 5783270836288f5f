"""Write every benchmark job's artifacts for one checkout, in this process.

    python3 scripts/job_artifacts.py --src DIR --out OUT [--seeds 0 1] \
        [--workloads spectral hier sampling]

Imports DIR's library (DIR/src) and job lists (DIR/perfbench/workloads.py,
read as it is) and runs each job of each workload and seed through
`uqsim.cli.main`, in list order, into OUT/seed<S>/<workload>/<job id>/.
Each job's exit code and standard output, with its workload's directory
written as `.`, go to OUT/seed<S>/<workload>/<job id>.stdout.  The
inputs go to OUT/seed<S>/<workload>/inputs/ and every path a job sees is
relative to its workload's directory, so two checkouts' trees compare
with `diff -r` byte for byte.  Exits 1 if a job fails.
"""

import argparse
import contextlib
import io
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="checkout root")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--workloads", nargs="+")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "perfbench")]
    import workloads
    from uqsim import cli

    failed = 0
    for seed in args.seeds:
        for name in args.workloads or workloads.WORKLOADS:
            workdir = os.path.join(args.out, f"seed{seed}", name)
            os.makedirs(workdir, exist_ok=True)
            with contextlib.chdir(workdir):
                for job in workloads.build(name, seed, "."):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        rc = cli.main(list(job.argv)
                                      + ["--outdir", os.path.join(".", job.id)])
                    with open(f"{job.id}.stdout", "w") as fh:
                        fh.write(f"exit {rc}\n" + out.getvalue().replace(
                            os.getcwd(), "."))
                    if rc != 0:
                        failed += 1
                        print(f"seed {seed} {name}/{job.id}: exit {rc}: "
                              f"{err.getvalue().strip()}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
