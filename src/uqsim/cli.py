"""Batch driver: parse a job, dispatch one analysis, write artifacts.

One job per process.  The job comes from an optional JSON config file plus
command-line flags; flags win on conflict.  Output files are written via a
temporary name and an atomic rename, so a rerun with the same config and
seed leaves byte-identical files and a crash never leaves partial output.

Exit codes: 0 on success, 1 for configuration and input errors, 2 for
numeric failures inside a solver.  Errors are reported to stderr as a
single JSON line {"error": <category>, "message": <text>}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import anova as anova_mod
from . import hier
from .models import UnknownModelError, builtin_model
from .montecarlo import run_mc
from .netlist import elaborate, parse_netlist
from .polychaos import (DegenerateMeasureError, GpcExpansion,
                        expansion_to_dict, expansion_to_json,
                        monotone_cubic, total_degree_index_set)
from .stsolver import (SolverError, SolverOptions, integrate_transient,
                       newton_dc, select_testing_points, solve_dc,
                       standard_bases)

# A console-script or launcher process runs one job and never frees its
# import-time heap, so keep that heap out of every collection, the one at
# interpreter shutdown included.  This runs at import, not in main(),
# because an in-process caller may call main() many times; such a caller
# only loses the collection of cycles among objects that existed before
# this import.
gc.freeze()

EXIT_OK = 0
EXIT_USER = 1
EXIT_NUMERIC = 2

class UsageError(ValueError):
    """Configuration or input problem attributable to the caller."""


@dataclass
class JobConfig:
    """One resolved analysis job; exactly one analysis per invocation."""

    analysis: str
    netlist: str | None = None
    model: str | None = None
    order: int = 2
    m: int | None = None
    sigma: float = 0.0
    anchor: tuple[float, ...] | None = None
    samples: int = 10_000
    seed: int = 0
    t_end: float | None = None
    output: int | str = 0
    outdir: str = "."
    density: str = "quadrature"
    blocks: tuple[str, ...] = ()
    system: str | None = None
    out: str | None = None
    x0: str = "dc"
    params: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def solver_options(self) -> SolverOptions:
        kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(SolverOptions)}
        bad = set(self.solver) - set(kinds)
        if bad:
            raise UsageError(f"unknown solver option(s): {sorted(bad)}")
        for key, value in self.solver.items():
            _check_type(f"solver.{key}", value, kinds[key])
        return SolverOptions(**self.solver)


# ---------------------------------------------------------------------------
# argument and config handling


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through UsageError
    # so usage problems land on exit code 1 like every other user error
    def error(self, message):
        raise UsageError(message)


def _add_model_flags(p: _Parser) -> None:
    p.add_argument("--netlist", help="netlist file to elaborate")
    p.add_argument("--model",
                   help="builtin model name, e.g. builtin:rc-lowpass")
    p.add_argument("--param", action="append", default=None,
                   metavar="KEY=VALUE", help="builtin model parameter")


def _add_common_flags(p: _Parser, order: bool = True,
                      seed: bool = False) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    if order:
        p.add_argument("--order", type=int, help="total polynomial degree")
    p.add_argument("--outdir", help="directory for output artifacts")
    if seed:
        p.add_argument("--seed", type=int, help="random seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="uqsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="analysis", required=True)

    p = sub.add_parser("dc", help="stochastic DC operating point")
    _add_model_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("transient", help="stochastic transient analysis")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--t-end", type=float, dest="t_end",
                   help="end time; defaults to the netlist .tran stop")

    for name in ("anova", "sensitivity"):
        p = sub.add_parser(name, help="adaptive anchored decomposition"
                           if name == "anova" else "global sensitivities")
        _add_model_flags(p)
        _add_common_flags(p)
        p.add_argument("--m", type=int, help="maximum interaction depth")
        p.add_argument("--sigma", type=float, help="variance screen level")
        p.add_argument("--anchor", help="anchor quantile(s), e.g. 0.75 or "
                       "0.75,0.5,0.5")
        p.add_argument("--output", help="output index or label to analyze")

    p = sub.add_parser("mc", help="Monte Carlo reference")
    _add_model_flags(p)
    _add_common_flags(p, order=False, seed=True)
    p.add_argument("--samples", type=int, help="number of samples")
    p.add_argument("--t-end", type=float, dest="t_end",
                   help="end time; runs a transient MC when given")

    p = sub.add_parser("hier-extract",
                       help="extract a block surrogate and its density")
    _add_model_flags(p)
    _add_common_flags(p, seed=True)
    p.add_argument("--output", help="output index or label to extract")
    p.add_argument("--density", choices=("quadrature", "sampling"),
                   help="density construction route")
    p.add_argument("--samples", type=int,
                   help="sample count for the sampling route")
    p.add_argument("--out", help="artifact filename (default block.json)")

    p = sub.add_parser("hier-propagate",
                       help="propagate intermediate variables through a "
                            "system model")
    _add_common_flags(p)
    p.add_argument("--blocks", nargs="+",
                   help="block artifact files from hier-extract")
    p.add_argument("--system", help="system model, e.g. builtin:rc-zeta")
    p.add_argument("--param", action="append", default=None,
                   metavar="KEY=VALUE", help="system model parameter")
    p.add_argument("--t-end", type=float, dest="t_end",
                   help="end time; runs a transient propagation when given")
    p.add_argument("--x0", choices=("dc", "zero"),
                   help="transient start: DC operating point or zero state")

    return parser


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--param needs KEY=VALUE, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _parse_anchor(value) -> tuple[float, ...] | None:
    if value is None:
        return None
    items = value if isinstance(value, list) else str(value).split(",")
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError) as err:
        raise UsageError(f"bad anchor spec {value!r}: {err}") from err


def _parse_output(value):
    if value is None:
        return 0
    if isinstance(value, bool):
        raise UsageError(f"output must be an index or a label, got "
                         f"{value!r}")
    if isinstance(value, int):
        return value
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


_NONE = type(None)
# the value types of the scalar dataclass fields, by annotation; a field of
# another annotation is checked where it is parsed
_FIELD_KINDS = {
    "int": (int, "an integer"),
    "int | None": ((int, _NONE), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, _NONE), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, _NONE), "a string"),
}


def _check_type(key: str, value, kind) -> None:
    """UsageError naming `key` unless value is of kind (types, what);
    a bool is never an int."""
    types, what = kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"{key} must be {what}, got {value!r}")


def build_config(argv) -> JobConfig:
    ns = build_parser().parse_args(argv)
    # the namespace holds every flag of the analysis, set or not; a config
    # file may give exactly those, and solver options
    allowed = {"params" if k == "param" else k
               for k in vars(ns)} - {"analysis", "config"} | {"solver"}
    flags = {k: v for k, v in vars(ns).items()
             if v is not None and k not in ("analysis", "config")}
    if "param" in flags:
        flags["params"] = _parse_params(flags.pop("param"))

    file_cfg = {}
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read config {ns.config}: {err}") \
                from err
        except json.JSONDecodeError as err:
            raise UsageError(f"config {ns.config} is not valid JSON: {err}") \
                from err
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {ns.config} must hold a JSON object")

    unknown = set(file_cfg) - allowed
    if unknown:
        raise UsageError(f"config key(s) {sorted(unknown)} unknown to "
                         f"{ns.analysis}")
    merged = {**file_cfg, **flags}

    if "anchor" in merged:
        merged["anchor"] = _parse_anchor(merged["anchor"])
    if "output" in merged:
        merged["output"] = _parse_output(merged["output"])
    if "blocks" in merged:
        blocks = merged["blocks"]
        if not (isinstance(blocks, list)
                and all(isinstance(b, str) for b in blocks)):
            raise UsageError(f"blocks must be a list of strings, got "
                             f"{blocks!r}")
        merged["blocks"] = tuple(blocks)
    try:
        cfg = JobConfig(analysis=ns.analysis, **merged)
    except TypeError as err:
        raise UsageError(str(err)) from err

    for f in fields(JobConfig):
        if f.type in _FIELD_KINDS:
            _check_type(f.name, getattr(cfg, f.name), _FIELD_KINDS[f.type])
    if cfg.order < 1:
        raise UsageError(f"order must be at least 1, got {cfg.order}")
    if cfg.samples < 1:
        raise UsageError(f"samples must be positive, got {cfg.samples}")
    if cfg.seed < 0:
        raise UsageError(f"seed must be non-negative, got {cfg.seed}")
    if not isinstance(cfg.params, dict) or not isinstance(cfg.solver, dict):
        raise UsageError("params and solver config entries must be objects")
    if cfg.density not in ("quadrature", "sampling"):
        raise UsageError(f"density must be 'quadrature' or 'sampling', "
                         f"got {cfg.density!r}")
    if cfg.x0 not in ("dc", "zero"):
        raise UsageError(f"x0 must be 'dc' or 'zero', got {cfg.x0!r}")
    # resolve all paths up front so dispatch never touches the cwd again
    if cfg.netlist is not None:
        cfg.netlist = os.path.abspath(cfg.netlist)
    cfg.blocks = tuple(os.path.abspath(b) for b in cfg.blocks)
    cfg.outdir = os.path.abspath(cfg.outdir)
    return cfg


# ---------------------------------------------------------------------------
# model loading and artifact writing


def _load_model(cfg: JobConfig):
    """Returns (model, netlist_or_None)."""
    if (cfg.netlist is None) == (cfg.model is None):
        raise UsageError("exactly one of --netlist or --model is required")
    if cfg.netlist is not None:
        if cfg.params:
            raise UsageError(f"a netlist takes no model parameters, got "
                             f"{sorted(cfg.params)}")
        try:
            with open(cfg.netlist) as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(f"cannot read netlist {cfg.netlist}: {err}") \
                from err
        nl = parse_netlist(text, filename=os.path.basename(cfg.netlist))
        return elaborate(nl), nl
    try:
        return builtin_model(cfg.model, **cfg.params), None
    except UnknownModelError as err:
        # KeyError quotes its payload; unwrap for a clean one-line message
        raise UsageError(err.args[0]) from err


def _input_labels(model, nl) -> tuple[str, ...]:
    if nl is not None and len(nl.variations) == model.d:
        return tuple(f"{v.element}.{v.param}" for v in nl.variations)
    return tuple(f"xi{k}" for k in range(model.d))


def _write(path: str, text: str) -> None:
    """Atomic write through a temporary file unique to this call, so jobs
    sharing an output directory never write into each other's file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _artifact(cfg: JobConfig, name: str) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


def _stats_csv(labels, mean, std, extra=()) -> str:
    head = "output,mean,std"
    cols = [mean, std]
    for name, values in extra:
        head += f",{name}"
        cols.append(values)
    lines = [head]
    for j, label in enumerate(labels):
        row = [label] + [repr(float(c[j])) for c in cols]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _print_stats(labels, mean, std) -> None:
    width = max(len(s) for s in labels)
    print(f"{'output':<{width}}  {'mean':>24}  {'std':>24}")
    for j, label in enumerate(labels):
        print(f"{label:<{width}}  {float(mean[j]):>24.16e}  "
              f"{float(std[j]):>24.16e}")


# ---------------------------------------------------------------------------
# analysis dispatch


def _run_dc(cfg: JobConfig) -> None:
    model, _ = _load_model(cfg)
    opts = cfg.solver_options()
    tps = select_testing_points(standard_bases(model, cfg.order), cfg.order,
                                opts.condition_cap)
    exp = solve_dc(model, tps, opts)
    mean, var = exp.mean_variance()
    std = np.sqrt(var)
    _write(_artifact(cfg, "dc_stats.csv"), _stats_csv(model.labels, mean, std))
    _write(_artifact(cfg, "dc_expansion.json"), expansion_to_json(exp))
    _print_stats(model.labels, mean, std)
    print(f"dc: order {cfg.order}, {tps.n_points} testing points; wrote "
          f"dc_stats.csv, dc_expansion.json in {cfg.outdir}")


def _resolve_t_end(cfg: JobConfig, nl) -> float:
    if cfg.t_end is not None:
        return cfg.t_end
    if nl is not None:
        for a in nl.analyses:
            if a.kind == "tran" and a.args:
                return float(a.args[-1])
    raise UsageError("transient analysis needs --t-end (or a .tran line "
                     "in the netlist)")


def _run_transient(cfg: JobConfig) -> None:
    model, nl = _load_model(cfg)
    t_end = _resolve_t_end(cfg, nl)
    opts = cfg.solver_options()
    tps = select_testing_points(standard_bases(model, cfg.order), cfg.order,
                                opts.condition_cap)
    sol = integrate_transient(model, tps, (0.0, t_end), options=opts)
    _write(_artifact(cfg, "transient_stats.csv"), sol.to_csv())
    _write(_artifact(cfg, "transient_expansions.json"),
           sol.expansions_json())
    mean, var = sol.final().mean_variance()
    _print_stats(model.labels, mean, np.sqrt(var))
    print(f"transient: {len(sol.times)} accepted steps to t={t_end:g}, "
          f"{sol.n_point_solves} point solves; wrote transient_stats.csv, "
          f"transient_expansions.json in {cfg.outdir}")


def _run_decomposition(cfg: JobConfig):
    model, nl = _load_model(cfg)
    if model.d == 0:
        raise UsageError("the model has no random inputs to decompose")
    opts = cfg.solver_options()
    j = model.output_index(cfg.output)
    dists = model.distributions
    anchor = (None if cfg.anchor is None     # one quantile broadcasts
              else anova_mod.anchor_point(dists, cfg.anchor))
    m = cfg.m if cfg.m is not None else min(2, model.d)

    def g(x):
        # every evaluation cold-starts from initial_guess(): the Newton
        # tolerance is absolute, so the converged point depends on the
        # start; a warm start from the nominal solution moves S_0 of a
        # 19-stage diode ladder from 0.011906 to 0.011893
        return newton_dc(model, x.T, options=opts)[:, j]

    decomp, exp = anova_mod.adaptive_anova(
        g, dists, m=m, sigma=cfg.sigma, order=cfg.order, anchor=anchor,
        condition_cap=opts.condition_cap)
    return model, nl, decomp, exp


def _run_anova(cfg: JobConfig) -> None:
    model, nl, decomp, exp = _run_decomposition(cfg)
    report = anova_mod.decomposition_report(decomp, exp)
    _write(_artifact(cfg, "anova_report.json"),
           anova_mod.report_json(report))
    _write(_artifact(cfg, "anova_expansion.json"), expansion_to_json(exp))
    kept = sum(len(s) for s in decomp.active.values())
    print(f"anova: m={decomp.m} sigma={decomp.sigma:g}; "
          f"{1 + len(decomp.terms)} terms "
          f"({kept} past the screen, {len(decomp.pruned)} screened), "
          f"levels {decomp.n_by_level}, {decomp.n_evaluations} model "
          f"evaluations; wrote anova_report.json, anova_expansion.json "
          f"in {cfg.outdir}")


def _run_sensitivity(cfg: JobConfig) -> None:
    model, nl, decomp, exp = _run_decomposition(cfg)
    S, T = anova_mod.sensitivities(exp)
    labels = _input_labels(model, nl)
    _write(_artifact(cfg, "sensitivity.csv"),
           anova_mod.sensitivity_csv(S, T, labels=labels))
    width = max(len(s) for s in labels)
    print(f"{'input':<{width}}  {'main':>12}  {'total':>12}")
    for k, label in enumerate(labels):
        print(f"{label:<{width}}  {float(S[k]):>12.6f}  "
              f"{float(T[k]):>12.6f}")
    print(f"sensitivity: {decomp.n_evaluations} model evaluations; wrote "
          f"sensitivity.csv in {cfg.outdir}")


def _run_mc(cfg: JobConfig) -> None:
    model, nl = _load_model(cfg)
    opts = cfg.solver_options()
    analysis = "transient" if cfg.t_end is not None else "dc"
    result = run_mc(model, analysis, cfg.samples, cfg.seed,
                    t_end=cfg.t_end, options=opts)
    extra = (("stderr_mean", result.stderr),
             ("stderr_std", result.stderr_std))
    _write(_artifact(cfg, "mc_stats.csv"),
           _stats_csv(result.labels, result.mean, result.std, extra))
    lines = ["output,bin_lo,bin_hi,count"]
    for label, (edges, counts) in zip(result.labels, result.histograms):
        for b in range(len(counts)):
            lines.append(f"{label},{float(edges[b])!r},"
                         f"{float(edges[b + 1])!r},{int(counts[b])}")
    _write(_artifact(cfg, "mc_histogram.csv"), "\n".join(lines) + "\n")
    _print_stats(result.labels, result.mean, result.std)
    print(f"mc: {result.n_samples} {analysis} samples, seed {result.seed}, "
          f"{result.n_failed} failed; wrote mc_stats.csv, mc_histogram.csv "
          f"in {cfg.outdir}")


def _density_to_doc(dens: hier.IntermediateDensity) -> dict:
    doc = {"kind": dens.kind,
           "support": [float(dens.support[0]), float(dens.support[1])],
           "cdf_knots": {"x": dens.cdf.x.tolist(),
                         "p": dens.cdf(dens.cdf.x).tolist()}}
    if dens.kind == "quadrature":
        pts, wts = dens.atoms
        doc["atoms"] = {"points": pts.tolist(), "weights": wts.tolist()}
        doc["exact_degree"] = int(dens.exact_degree)
    return doc


def _density_from_doc(doc: dict) -> hier.IntermediateDensity:
    if doc["kind"] == "quadrature" and "cdf_knots" not in doc:
        # a block holding the whole pushforward: compress it as extraction
        # does
        return hier.IntermediateDensity.from_pushforward(
            doc["atoms"]["points"], doc["atoms"]["weights"],
            int(doc["exact_degree"]))
    support = (float(doc["support"][0]), float(doc["support"][1]))
    cdf = monotone_cubic(doc["cdf_knots"]["x"], doc["cdf_knots"]["p"])
    if doc["kind"] == "quadrature":
        atoms = (np.asarray(doc["atoms"]["points"], dtype=float),
                 np.asarray(doc["atoms"]["weights"], dtype=float))
        return hier.IntermediateDensity(
            kind="quadrature", support=support, cdf=cdf, atoms=atoms,
            exact_degree=int(doc["exact_degree"]))
    return hier.IntermediateDensity(kind="sampled", support=support,
                                    cdf=cdf)


def _run_hier_extract(cfg: JobConfig) -> None:
    model, _ = _load_model(cfg)
    opts = cfg.solver_options()
    j = model.output_index(cfg.output)
    surrogate = hier.extract_block_surrogate(model, cfg.order, output=j,
                                             options=opts)
    if cfg.density == "sampling":
        dens = hier.density_by_sampling(surrogate, n_samples=cfg.samples,
                                        seed=cfg.seed)
    else:
        dens = hier.density_by_quadrature(surrogate)
    doc = {
        "schema": "intermediate-block/1",
        "a": float(surrogate.a),
        "b": float(surrogate.b),
        "zeta": expansion_to_dict(surrogate.zeta),
        "density": _density_to_doc(dens),
    }
    name = cfg.out or "block.json"
    _write(_artifact(cfg, name),
           json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"hier-extract: output {model.labels[j]!r}, level "
          f"a={surrogate.a!r}, spread b={surrogate.b!r}, {cfg.density} "
          f"density; wrote {name} in {cfg.outdir}")


def _load_block(path: str) -> tuple[dict, hier.IntermediateDensity]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read block artifact {path}: {err}") \
            from err
    except json.JSONDecodeError as err:
        raise UsageError(f"block artifact {path} is not valid JSON: {err}") \
            from err
    if not isinstance(doc, dict):
        raise UsageError(f"block artifact {path} must hold a JSON object")
    if doc.get("schema") != "intermediate-block/1":
        raise UsageError(f"block artifact {path} has schema "
                         f"{doc.get('schema')!r}, expected "
                         f"'intermediate-block/1'")
    try:
        return doc, _density_from_doc(doc["density"])
    except KeyError as err:
        raise UsageError(f"block artifact {path} has no key {err}") from err
    except (TypeError, IndexError, ValueError) as err:
        raise UsageError(f"block artifact {path} has a malformed density: "
                         f"{err}") from err


def _run_hier_propagate(cfg: JobConfig) -> None:
    if not cfg.blocks:
        raise UsageError("hier-propagate needs at least one --blocks file")
    if cfg.system is None:
        raise UsageError("hier-propagate needs --system")
    densities = [_load_block(path)[1] for path in cfg.blocks]
    try:
        system = hier.demo_system(cfg.system, densities, **cfg.params)
    except KeyError as err:
        raise UsageError(err.args[0]) from err
    opts = cfg.solver_options()
    bases = tuple(hier.build_intermediate_basis(d, cfg.order)[0]
                  for d in densities)
    if cfg.t_end is not None:
        x0 = None
        if cfg.x0 == "zero":   # the constant expansion 0
            x0 = GpcExpansion(total_degree_index_set(len(bases), 0),
                              np.zeros((1, system.n)), bases)
        sol = hier.propagate_transient(system, bases, cfg.order,
                                       (0.0, cfg.t_end), x0=x0,
                                       options=opts)
        exp = sol.final()
        _write(_artifact(cfg, "hier_waveform.csv"), sol.to_csv())
    else:
        exp = hier.propagate_dc(system, bases, cfg.order, options=opts)
    mean, var = exp.mean_variance()
    std = np.sqrt(var)
    _write(_artifact(cfg, "hier_stats.csv"),
           _stats_csv(system.labels, mean, std))
    _write(_artifact(cfg, "hier_expansion.json"), expansion_to_json(exp))
    _print_stats(system.labels, mean, std)
    wrote = "hier_stats.csv, hier_expansion.json"
    if cfg.t_end is not None:
        wrote += ", hier_waveform.csv"
    print(f"hier-propagate: {len(densities)} block(s) through "
          f"{cfg.system}; wrote {wrote} in {cfg.outdir}")


_DISPATCH = {
    "dc": _run_dc,
    "transient": _run_transient,
    "anova": _run_anova,
    "sensitivity": _run_sensitivity,
    "mc": _run_mc,
    "hier-extract": _run_hier_extract,
    "hier-propagate": _run_hier_propagate,
}


def _fail(category: str, err: Exception) -> None:
    message = " ".join(str(err).split())
    print(json.dumps({"error": category, "message": message}),
          file=sys.stderr)


def main(argv=None) -> int:
    try:
        # numpy warnings would reach stderr ahead of the one JSON line;
        # non-finite values surface as solver or check failures instead
        with np.errstate(all="ignore"):
            cfg = build_config(argv)
            _DISPATCH[cfg.analysis](cfg)
        return EXIT_OK
    except (SolverError, DegenerateMeasureError, ArithmeticError,
            np.linalg.LinAlgError) as err:
        _fail("numeric", err)
        return EXIT_NUMERIC
    # UsageError, NetlistError too; MemoryError: inputs too large to hold
    except (OSError, ValueError, MemoryError) as err:
        _fail("config", err)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
