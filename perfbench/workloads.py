"""Seeded workload generator: netlists and `uqsim` job lists.

Every input the program sees comes from here.  The workload seed fixes the
element values of the generated diode-RC ladders and every Monte Carlo or
sampling `--seed`; the number of ladder stages fixes the input dimension d.
Jobs run one after another in list order, so a later job may read the
artifact an earlier one wrote (the hier-propagate jobs read block files).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

WORKLOADS = ("spectral", "hier", "sampling")


@dataclass(frozen=True)
class Job:
    """One `uqsim` invocation; argv excludes the program name and --outdir."""

    id: str
    argv: tuple
    # how results must match the reference at another than the reference
    # seed: "exact" (the job uses no seed), "mc" (within sampling error) or
    # "seed" (not at all; invariants only)
    match: str


def ladder_netlist(stages: int, seed: int, tran: str | None = None) -> str:
    """Diode-RC ladder with one relative resistor variation per stage.

    Element values are drawn in narrow bands so that the solver work (Newton
    iterations, step counts) barely depends on the seed.
    """
    rng = random.Random(f"ladder-{stages}-{seed}")
    lines = [f"* diode-RC ladder, {stages} stages, seed {seed}",
             "V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        r = 1e3 * rng.uniform(0.8, 1.2)
        c = 1e-6 * rng.uniform(0.8, 1.2)
        i_s = 1e-9 * 10 ** rng.uniform(-0.3, 0.3)
        lines.append(f"R{k} n{k - 1} n{k} {r:.6g} "
                     f"variation=relative:uniform(0.9,1.1)")
        lines.append(f"D{k} n{k} 0 is={i_s:.6g} nvt=0.02585")
        lines.append(f"C{k} n{k} 0 {c:.6g}")
    if tran is not None:
        lines.append(f".tran {tran}")
    return "\n".join(lines) + "\n"


def job_seed(seed: int, k: int) -> int:
    """The k-th program seed derived from the workload seed."""
    return random.Random(f"job-{seed}-{k}").randrange(2 ** 31)


def build(name: str, seed: int, workdir: str) -> list[Job]:
    """Writes the input files to workdir/inputs; returns the jobs.

    Paths in the returned argv are absolute.  Each job's --outdir, added by
    the runner, is workdir/<job id>.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)

    def netlist(fname: str, text: str) -> str:
        path = os.path.join(inputs, fname)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def out(job_id: str, fname: str) -> str:
        return os.path.join(workdir, job_id, fname)

    if name == "spectral":
        l8 = netlist("ladder8.cir", ladder_netlist(8, seed))
        l4 = netlist("ladder4t.cir", ladder_netlist(4, seed, tran="10u 2m"))
        return [
            Job("dc-diode", ("dc", "--model", "builtin:diode-rectifier",
                             "--order", "4"), "exact"),
            Job("dc-ladder8", ("dc", "--netlist", l8, "--order", "3"),
                "seed"),
            Job("tran-plate", ("transient", "--model",
                               "builtin:plate-actuator", "--order", "3",
                               "--t-end", "10"), "exact"),
            Job("tran-ladder4", ("transient", "--netlist", l4,
                                 "--order", "2"), "seed"),
        ]
    if name == "hier":
        l4 = netlist("ladder4.cir", ladder_netlist(4, seed))
        ladder_block = out("ext-ladder4", "block.json")
        diode_block = out("ext-diode", "block.json")
        return [
            Job("ext-ladder4", ("hier-extract", "--netlist", l4,
                                "--order", "3", "--output", "v(n4)",
                                "--density", "quadrature"), "seed"),
            Job("ext-diode", ("hier-extract", "--model",
                              "builtin:diode-rectifier", "--order", "3",
                              "--output", "v(2)", "--density", "sampling",
                              "--samples", "100000",
                              "--seed", str(job_seed(seed, 0))), "exact"),
            Job("prop-sum", ("hier-propagate", "--blocks", ladder_block,
                             diode_block, "--system", "sum",
                             "--order", "3"), "seed"),
            Job("prop-rc", ("hier-propagate", "--blocks", diode_block,
                            "--system", "builtin:rc-zeta", "--order", "3",
                            "--t-end", "2e-3", "--x0", "zero"), "seed"),
        ]
    l19 = netlist("ladder19.cir", ladder_netlist(19, seed))
    return [
        Job("mc-diode", ("mc", "--model", "builtin:diode-rectifier",
                         "--samples", "50000",
                         "--seed", str(job_seed(seed, 1))), "mc"),
        Job("mc-opamp", ("mc", "--model", "builtin:opamp-like",
                         "--samples", "5000",
                         "--seed", str(job_seed(seed, 2))), "mc"),
        Job("mc-plate", ("mc", "--model", "builtin:plate-actuator",
                         "--samples", "8", "--t-end", "10",
                         "--seed", str(job_seed(seed, 3))), "mc"),
        Job("sens-opamp", ("sensitivity", "--model", "builtin:opamp-like",
                           "--order", "3", "--m", "2",
                           "--output", "v(out)"), "exact"),
        Job("anova-ladder19", ("anova", "--netlist", l19, "--order", "3",
                               "--m", "2", "--sigma", "0",
                               "--output", "v(n19)"), "seed"),
    ]
