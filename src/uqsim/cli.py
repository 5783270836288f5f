"""Batch driver: parse a job, dispatch one analysis, write artifacts.

One job per process.  The job comes from an optional JSON config file plus
command-line flags; flags win on conflict.  The analysis modules hand back
values; this module alone formats them as artifacts (every CSV through
_csv) and writes them: each runner returns its files' texts and a summary,
and main writes the files, then prints the summary.  Output files are
written via a temporary name and an atomic rename, so a rerun with the
same config and seed leaves byte-identical files and a crash never leaves
partial output.

Exit codes: 0 on success, 1 for configuration and input errors, 2 for
numeric failures inside a solver.  Errors are reported to stderr as a
single JSON line {"error": <category>, "message": <text>}.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import shutil
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
                        monotone_cubic, total_degree_index_set, _dump_json,
                        _mean_variance)
from .stsolver import (SolverError, SolverOptions, StSolution,
                       integrate_transient, newton_dc, select_testing_points,
                       solve_dc, standard_bases)

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


# ---------------------------------------------------------------------------
# config keys: one declaration each


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
    # a bool passes as an int; the model's output_index refuses it
    if value is None:
        return 0
    if isinstance(value, int):
        return value
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_blocks(value) -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(b, str) for b in value):
        return tuple(value)
    raise UsageError(f"blocks must be a list of strings, got {value!r}")


def _key(default=None, help=None, *, only=None, but=(), least=None,
         parse=None, option=None, **flag):
    """A JobConfig field (a callable default is a factory): a config key of
    the analyses `only` (all when None) but those in `but`.  With `help`,
    also their flag `option` (--<key> by default), typed by the field's
    annotation, with add_argument keywords `flag`.  `parse` converts a
    given value; `least` and `flag`'s `choices` bound the resolved one."""
    meta = {"only": only, "but": but, "help": help, "least": least,
            "parse": parse, "option": option, "flag": flag}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class JobConfig:
    """One resolved analysis job; exactly one analysis per invocation.

    Every field but `analysis` is a config key, and every key but `solver`
    a flag too: the parser, the keys each analysis accepts and the checks
    on their values all come from these declarations.
    """

    analysis: str
    netlist: str | None = _key(None, "netlist file to elaborate",
                               but=("hier-propagate",))
    model: str | None = _key(None, "builtin model name, e.g. builtin:rc-"
                             "lowpass", but=("hier-propagate",))
    order: int = _key(2, "total polynomial degree", but=("mc",), least=1)
    m: int | None = _key(None, "maximum interaction depth",
                         only=("anova", "sensitivity"))
    sigma: float = _key(0.0, "variance screen level",
                        only=("anova", "sensitivity"))
    anchor: tuple[float, ...] | None = _key(
        None, "anchor quantile(s), e.g. 0.75 or 0.75,0.5,0.5",
        only=("anova", "sensitivity"), parse=_parse_anchor)
    samples: int = _key(10_000, "number of samples (hier-extract: of the "
                        "sampling route)", only=("mc", "hier-extract"),
                        least=1)
    seed: int = _key(0, "random seed", only=("mc", "hier-extract"), least=0)
    t_end: float | None = _key(
        None, "end time; transient defaults to the netlist .tran stop, mc "
        "and hier-propagate run a transient only when it is given",
        only=("transient", "mc", "hier-propagate"))
    output: int | str = _key(0, "output index or label to analyze or extract",
                             only=("anova", "sensitivity", "hier-extract"),
                             parse=_parse_output)
    outdir: str = _key(".", "directory for output artifacts")
    density: str = _key("quadrature", "density construction route",
                        only=("hier-extract",),
                        choices=("quadrature", "sampling"))
    blocks: tuple[str, ...] = _key((), "block artifact files from "
                                   "hier-extract", only=("hier-propagate",),
                                   parse=_parse_blocks, nargs="+")
    system: str | None = _key(None, "system model, e.g. builtin:rc-zeta",
                              only=("hier-propagate",))
    out: str | None = _key(None, "artifact filename (default block.json)",
                           only=("hier-extract",))
    x0: str = _key("dc", "transient start: DC operating point or zero state",
                   only=("hier-propagate",), choices=("dc", "zero"))
    params: dict = _key(dict, "model parameter (hier-propagate: of the "
                        "system model)", option="--param", action="append",
                        metavar="KEY=VALUE")
    solver: dict = _key(dict)   # config only: see solver_options

    def solver_options(self) -> SolverOptions:
        kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(SolverOptions)}
        bad = set(self.solver) - set(kinds)
        if bad:
            raise UsageError(f"unknown solver option(s): {sorted(bad)}")
        for key, value in self.solver.items():
            _check_type(f"solver.{key}", value, kinds[key])
        return SolverOptions(**self.solver)


_NONE = type(None)
# the value types of the fields, by annotation; a field of another
# annotation is checked where it is parsed
_FIELD_KINDS = {
    "int": (int, "an integer"),
    "int | None": ((int, _NONE), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, _NONE), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, _NONE), "a string"),
    "dict": (dict, "an object"),
}
# a flag's argparse type, by its field's annotation less any "| None"
_FLAG_TYPES = {"int": int, "float": float}


def _check_type(key: str, value, kind) -> None:
    """UsageError naming `key` unless value is of kind (types, what);
    a bool is never an int."""
    types, what = kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"{key} must be {what}, got {value!r}")


# ---------------------------------------------------------------------------
# argument and config handling


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through UsageError
    # so usage problems land on exit code 1 like every other user error
    def error(self, message):
        raise UsageError(message)


def build_parser(analysis: str | None = None) -> _Parser:
    """The `uqsim` parser, with every analysis's subcommand, or with only
    `analysis`'s: a job builds the one it runs.  Flags are spelled in full:
    a prefix of one flag is never read as that flag."""
    # argparse sizes a new help formatter to the terminal in every
    # add_argument; size them all once
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="uqsim", description=__doc__.splitlines()[0],
                     formatter_class=formatter, allow_abbrev=False)
    sub = parser.add_subparsers(dest="analysis", required=True)
    for name in _ANALYSES if analysis is None else (analysis,):
        p = sub.add_parser(name, help=_ANALYSES[name][0],
                           formatter_class=formatter, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in _KEYS[name]:
            meta, kind = f.metadata, f.type.removesuffix(" | None")
            option = meta["option"] or "--" + f.name.replace("_", "-")
            if meta["help"] is not None:   # solver is a config key only
                p.add_argument(option, dest=f.name, type=_FLAG_TYPES.get(kind),
                               help=meta["help"], **meta["flag"])
    return parser


def build_config(argv) -> JobConfig:
    argv = sys.argv[1:] if argv is None else list(argv)
    # not an analysis first: the full parser says what uqsim takes
    name = argv[0] if argv and argv[0] in _ANALYSES else None
    flags = vars(build_parser(name).parse_args(argv))
    analysis, path = flags.pop("analysis"), flags.pop("config")
    flags = {k: v for k, v in flags.items() if v is not None}
    if "params" in flags:
        flags["params"] = _parse_params(flags["params"])
    file_cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise UsageError(f"config {path} is not valid JSON: {err}") \
                from err
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {path} must hold a JSON object")
    keys = _KEYS[analysis]
    unknown = set(file_cfg) - {f.name for f in keys}
    if unknown:
        raise UsageError(f"config key(s) {sorted(unknown)} unknown to "
                         f"{analysis}")
    merged = {**file_cfg, **flags}
    for f in keys:
        if f.metadata["parse"] is not None and f.name in merged:
            merged[f.name] = f.metadata["parse"](merged[f.name])
    cfg = JobConfig(analysis=analysis, **merged)
    for f in keys:
        if f.type in _FIELD_KINDS:
            _check_type(f.name, getattr(cfg, f.name), _FIELD_KINDS[f.type])
    for f in keys:   # each value is of its key's type now
        value, least = getattr(cfg, f.name), f.metadata["least"]
        choices = f.metadata["flag"].get("choices")
        if least is not None and value < least:
            raise UsageError(f"{f.name} must be at least {least}, got {value}")
        if choices is not None and value not in choices:
            names = " or ".join(map(repr, choices))
            raise UsageError(f"{f.name} must be {names}, got {value!r}")
    # resolve all paths up front so dispatch never touches the cwd again
    if cfg.netlist is not None:
        cfg.netlist = os.path.abspath(cfg.netlist)
    cfg.blocks = tuple(os.path.abspath(b) for b in cfg.blocks)
    cfg.outdir = os.path.abspath(cfg.outdir)
    return cfg


# ---------------------------------------------------------------------------
# model loading


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
    return builtin_model(cfg.model, **cfg.params), None


def _input_labels(model, nl) -> tuple[str, ...]:
    if nl is not None and len(nl.variations) == model.d:
        return tuple(f"{v.element}.{v.param}" for v in nl.variations)
    return tuple(f"xi{k}" for k in range(model.d))


# ---------------------------------------------------------------------------
# artifact formats and writing


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


def _csv(header, rows) -> str:
    """The header line, then one line per row: a str cell as it is, a
    number (a Python int or float) by repr, which reads back bit for bit."""
    lines = [",".join(header)]
    lines += (",".join(c if isinstance(c, str) else repr(c) for c in row)
              for row in rows)
    return "\n".join(lines) + "\n"


def _stats_csv(labels, mean, std, **extra) -> str:
    """One row per output: its label, mean, std, then the `extra` columns."""
    cols = [mean, std, *extra.values()]
    return _csv(["output", "mean", "std", *extra],
                zip(labels, *(np.asarray(c, dtype=float).tolist()
                              for c in cols)))


def _stats_table(labels, mean, std) -> str:
    width = max(len(s) for s in labels)
    lines = [f"{'output':<{width}}  {'mean':>24}  {'std':>24}"]
    for j, label in enumerate(labels):
        lines.append(f"{label:<{width}}  {float(mean[j]):>24.16e}  "
                     f"{float(std[j]):>24.16e}")
    return "\n".join(lines)


def _waveform_csv(sol: StSolution) -> str:
    """One row per time: t, then mean and std per output."""
    exps = sol.expansions
    # one stacked call gives each time the bits of its own mean_variance
    mean, var = _mean_variance(exps[0].index_set,
                               np.stack([e.coefficients for e in exps]))
    return _csv(["t", *(f"mean_{l}" for l in sol.labels),
                 *(f"std_{l}" for l in sol.labels)],
                np.column_stack([sol.times, mean, np.sqrt(var)]).tolist())


def _solution_json(sol: StSolution) -> str:
    return _dump_json({
        "schema": "st-solution/1",
        "times": sol.times.tolist(),
        "expansions": [expansion_to_dict(e) for e in sol.expansions],
    })


def _anova_report(decomp: anova_mod.AnovaDecomposition,
                  exp: GpcExpansion) -> str:
    """Anchor constant, terms, S/T and the evaluation count."""
    _, var = exp.mean_variance()
    if float(var[0]) > 0.0:
        S, T = anova_mod.sensitivities(exp)
    else:   # a constant response has no variance to attribute
        S = T = np.zeros(exp.index_set.dimension)
    return json.dumps({
        "g0": decomp.g0,
        "terms": [{"s": list(t.subset), "variance": t.variance,
                   "theta": t.theta} for t in decomp.terms],
        "S": S.tolist(),
        "T": T.tolist(),
        "N_samples": decomp.n_evaluations,
    }, indent=2) + "\n"


def _sensitivity_csv(labels, S, T) -> str:
    return _csv(["input", "main_sensitivity", "total_sensitivity"],
                zip(labels, S.tolist(), T.tolist()))


# ---------------------------------------------------------------------------
# analysis dispatch: each runner returns ({file name: text}, summary)


def _run_dc(cfg: JobConfig):
    model, _ = _load_model(cfg)
    opts = cfg.solver_options()
    tps = select_testing_points(standard_bases(model, cfg.order), cfg.order,
                                opts.condition_cap)
    exp = solve_dc(model, tps, opts)
    mean, var = exp.mean_variance()
    std = np.sqrt(var)
    return ({"dc_stats.csv": _stats_csv(model.labels, mean, std),
             "dc_expansion.json": expansion_to_json(exp)},
            f"{_stats_table(model.labels, mean, std)}\n"
            f"dc: order {cfg.order}, {tps.n_points} testing points")


def _resolve_t_end(cfg: JobConfig, nl) -> float:
    if cfg.t_end is not None:
        return cfg.t_end
    if nl is not None:
        for a in nl.analyses:
            if a.kind == "tran" and a.args:
                return float(a.args[-1])
    raise UsageError("transient analysis needs --t-end (or a .tran line "
                     "in the netlist)")


def _run_transient(cfg: JobConfig):
    model, nl = _load_model(cfg)
    t_end = _resolve_t_end(cfg, nl)
    opts = cfg.solver_options()
    tps = select_testing_points(standard_bases(model, cfg.order), cfg.order,
                                opts.condition_cap)
    sol = integrate_transient(model, tps, (0.0, t_end), options=opts)
    mean, var = sol.final().mean_variance()
    # times holds the start t = 0 ahead of one time per accepted step
    return ({"transient_stats.csv": _waveform_csv(sol),
             "transient_expansions.json": _solution_json(sol)},
            f"{_stats_table(model.labels, mean, np.sqrt(var))}\n"
            f"transient: {len(sol.times) - 1} accepted steps to "
            f"t={t_end:g}, {sol.n_point_solves} point solves")


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


def _run_anova(cfg: JobConfig):
    model, nl, decomp, exp = _run_decomposition(cfg)
    kept = sum(len(s) for s in decomp.active.values())
    return ({"anova_report.json": _anova_report(decomp, exp),
             "anova_expansion.json": expansion_to_json(exp)},
            f"anova: m={decomp.m} sigma={decomp.sigma:g}; "
            f"{1 + len(decomp.terms)} terms "
            f"({kept} past the screen, {len(decomp.pruned)} screened), "
            f"levels {decomp.n_by_level}, {decomp.n_evaluations} model "
            f"evaluations")


def _run_sensitivity(cfg: JobConfig):
    model, nl, decomp, exp = _run_decomposition(cfg)
    S, T = anova_mod.sensitivities(exp)
    labels = _input_labels(model, nl)
    width = max(len(s) for s in labels)
    lines = [f"{'input':<{width}}  {'main':>12}  {'total':>12}"]
    for k, label in enumerate(labels):
        lines.append(f"{label:<{width}}  {float(S[k]):>12.6f}  "
                     f"{float(T[k]):>12.6f}")
    lines.append(f"sensitivity: {decomp.n_evaluations} model evaluations")
    return ({"sensitivity.csv": _sensitivity_csv(labels, S, T)},
            "\n".join(lines))


def _run_mc(cfg: JobConfig):
    model, nl = _load_model(cfg)
    opts = cfg.solver_options()
    analysis = "transient" if cfg.t_end is not None else "dc"
    result = run_mc(model, analysis, cfg.samples, cfg.seed,
                    t_end=cfg.t_end, options=opts)
    bins = [[label, lo, hi, n] for label, (edges, counts)
            in zip(result.labels, result.histograms)
            for lo, hi, n in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                 counts.tolist())]
    return ({"mc_stats.csv": _stats_csv(result.labels, result.mean,
                                        result.std,
                                        stderr_mean=result.stderr,
                                        stderr_std=result.stderr_std),
             "mc_histogram.csv": _csv(["output", "bin_lo", "bin_hi",
                                       "count"], bins)},
            f"{_stats_table(result.labels, result.mean, result.std)}\n"
            f"mc: {result.n_samples} {analysis} samples, seed "
            f"{result.seed}, {result.n_failed} failed")


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


def _run_hier_extract(cfg: JobConfig):
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
    return ({cfg.out or "block.json": _dump_json(doc) + "\n"},
            f"hier-extract: output {model.labels[j]!r}, level "
            f"a={surrogate.a!r}, spread b={surrogate.b!r}, {cfg.density} "
            f"density")


def _load_block(path: str) -> hier.IntermediateDensity:
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
        return _density_from_doc(doc["density"])
    except KeyError as err:
        raise UsageError(f"block artifact {path} has no key {err}") from err
    except (TypeError, IndexError, ValueError) as err:
        raise UsageError(f"block artifact {path} has a malformed density: "
                         f"{err}") from err


def _run_hier_propagate(cfg: JobConfig):
    if not cfg.blocks:
        raise UsageError("hier-propagate needs at least one --blocks file")
    if cfg.system is None:
        raise UsageError("hier-propagate needs --system")
    densities = [_load_block(path) for path in cfg.blocks]
    system = hier.demo_system(cfg.system, densities, **cfg.params)
    opts = cfg.solver_options()
    bases = tuple(hier.build_intermediate_basis(d, cfg.order)[0]
                  for d in densities)
    sol = None
    if cfg.t_end is not None:
        x0 = None
        if cfg.x0 == "zero":   # the constant expansion 0
            x0 = GpcExpansion(total_degree_index_set(len(bases), 0),
                              np.zeros((1, system.n)), bases)
        sol = hier.propagate_transient(system, bases, cfg.order,
                                       (0.0, cfg.t_end), x0=x0,
                                       options=opts)
        exp = sol.final()
    else:
        exp = hier.propagate_dc(system, bases, cfg.order, options=opts)
    mean, var = exp.mean_variance()
    std = np.sqrt(var)
    files = {"hier_stats.csv": _stats_csv(system.labels, mean, std),
             "hier_expansion.json": expansion_to_json(exp)}
    if sol is not None:
        files["hier_waveform.csv"] = _waveform_csv(sol)
    return files, (f"{_stats_table(system.labels, mean, std)}\n"
                   f"hier-propagate: {len(densities)} block(s) through "
                   f"{cfg.system}")


# analysis -> (help, runner), in the order `uqsim --help` lists them
_ANALYSES = {
    "dc": ("stochastic DC operating point", _run_dc),
    "transient": ("stochastic transient analysis", _run_transient),
    "anova": ("adaptive anchored decomposition", _run_anova),
    "sensitivity": ("global sensitivities", _run_sensitivity),
    "mc": ("Monte Carlo reference", _run_mc),
    "hier-extract": ("extract a block surrogate and its density",
                     _run_hier_extract),
    "hier-propagate": ("propagate intermediate variables through a system "
                       "model", _run_hier_propagate),
}
# the keys each analysis accepts, as JobConfig fields in declaration order
_KEYS = {name: tuple(f for f in fields(JobConfig)[1:]
                     if name in (f.metadata["only"] or _ANALYSES)
                     and name not in f.metadata["but"])
         for name in _ANALYSES}


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
            files, summary = _ANALYSES[cfg.analysis][1](cfg)
            os.makedirs(cfg.outdir, exist_ok=True)
            for name, text in files.items():
                _write(os.path.join(cfg.outdir, name), text)
        print(f"{summary}; wrote {', '.join(files)} in {cfg.outdir}")
        return EXIT_OK
    except (SolverError, DegenerateMeasureError, ArithmeticError,
            np.linalg.LinAlgError) as err:
        _fail("numeric", err)
        return EXIT_NUMERIC
    # UsageError, NetlistError too; MemoryError: inputs too large to hold
    except (OSError, ValueError, MemoryError, UnknownModelError) as err:
        _fail("config", err)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
