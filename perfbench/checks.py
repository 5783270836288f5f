"""Correctness checks on one job's artifacts.

`job_stats` reads the files a job wrote, enforces the seed-independent
invariants and returns the job's headline statistics by name:

- every statistic is finite and every standard deviation is >= 0;
- each `*_expansion.json` (and every step of `transient_expansions.json`),
  restored with `expansion_from_json`, reproduces the job's stats CSV;
- block artifacts hold a zeta expansion with mean 0 and variance 1 and a
  density of total mass 1; sensitivities satisfy 0 <= S <= T <= 1; the
  anova expansion reproduces the report's S and T.

`compare` then matches the statistics against `reference.json`, written by
`run.py --write-reference` at the reference seed.  At that seed every job
must agree within RTOL.  At any other seed seed-free jobs must still agree
within RTOL, Monte Carlo jobs within Z_MC combined standard errors, and the
remaining jobs are held to their invariants only.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from uqsim.anova import sensitivities
from uqsim.polychaos import expansion_from_json

RTOL = 1e-7          # relative agreement with the reference
ABS_FLOOR = 1e-6     # |value| below this is compared as if it were this
Z_MC = 6.0           # Monte Carlo agreement, in combined standard errors
INVARIANT_RTOL = 1e-9


class CheckError(ValueError):
    """An artifact is missing, malformed or violates an invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), ABS_FLOOR)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_expansion(path: str):
    with open(path) as fh:
        return expansion_from_json(fh.read())


def _finite_stats(stats: dict) -> dict:
    for key, value in stats.items():
        _require(math.isfinite(value), f"{key} is not finite: {value}")
        if key.startswith(("std:", "se_")):
            _require(value >= 0.0, f"{key} is negative: {value}")
    return stats


def _expansion_matches(exp, mean, std, what: str) -> None:
    m, v = exp.mean_variance()
    s = np.sqrt(np.maximum(v, 0.0))
    for j in range(len(mean)):
        _require(_close(float(m[j]), mean[j], INVARIANT_RTOL)
                 and _close(float(s[j]), std[j], INVARIANT_RTOL),
                 f"{what}: expansion output {j} gives mean {m[j]!r}, std "
                 f"{s[j]!r}; the CSV says {mean[j]!r}, {std[j]!r}")


def _stats_csv(outdir: str, stem: str) -> dict:
    """output,mean,std CSV checked against <stem>_expansion.json."""
    rows = _rows(os.path.join(outdir, f"{stem}_stats.csv"))
    _require(len(rows) > 0, f"{stem}_stats.csv has no rows")
    mean = [float(r["mean"]) for r in rows]
    std = [float(r["std"]) for r in rows]
    exp = _load_expansion(os.path.join(outdir, f"{stem}_expansion.json"))
    _expansion_matches(exp, mean, std, f"{stem}_expansion.json")
    stats = {}
    for r, m, s in zip(rows, mean, std):
        stats[f"mean:{r['output']}"] = m
        stats[f"std:{r['output']}"] = s
    return stats


def _transient(outdir: str) -> dict:
    rows = _rows(os.path.join(outdir, "transient_stats.csv"))
    with open(os.path.join(outdir, "transient_expansions.json")) as fh:
        doc = json.load(fh)
    _require(len(rows) == len(doc["times"]) == len(doc["expansions"]),
             "transient CSV and expansion series differ in length")
    labels = [k[len("mean_"):] for k in rows[0] if k.startswith("mean_")]
    for row, t, edoc in zip(rows, doc["times"], doc["expansions"]):
        _require(float(row["t"]) == t, f"time {row['t']} != {t}")
        exp = expansion_from_json(json.dumps(edoc))
        _expansion_matches(exp, [float(row[f"mean_{l}"]) for l in labels],
                           [float(row[f"std_{l}"]) for l in labels],
                           f"transient step t={t}")
    last = rows[-1]
    stats = {"t_end": float(last["t"])}
    for label in labels:
        stats[f"mean:{label}"] = float(last[f"mean_{label}"])
        stats[f"std:{label}"] = float(last[f"std_{label}"])
    return stats


def _mc(outdir: str) -> dict:
    stats = {}
    for r in _rows(os.path.join(outdir, "mc_stats.csv")):
        out = r["output"]
        stats[f"mean:{out}"] = float(r["mean"])
        stats[f"std:{out}"] = float(r["std"])
        stats[f"se_mean:{out}"] = float(r["stderr_mean"])
        stats[f"se_std:{out}"] = float(r["stderr_std"])
    _require(bool(stats), "mc_stats.csv has no rows")
    totals = {}
    for r in _rows(os.path.join(outdir, "mc_histogram.csv")):
        totals[r["output"]] = totals.get(r["output"], 0) + int(r["count"])
    _require(len(set(totals.values())) == 1,
             f"histograms hold different sample counts: {totals}")
    return stats


def _sensitivity_checked(S, T, what: str) -> None:
    tol = 1e-9
    for k, (s, t) in enumerate(zip(S, T)):
        _require(-tol <= s <= t + tol <= 1.0 + 2 * tol,
                 f"{what}: input {k} has S={s!r}, T={t!r}")


def _sensitivity(outdir: str) -> dict:
    rows = _rows(os.path.join(outdir, "sensitivity.csv"))
    S = [float(r["main_sensitivity"]) for r in rows]
    T = [float(r["total_sensitivity"]) for r in rows]
    _sensitivity_checked(S, T, "sensitivity.csv")
    stats = {}
    for r, s, t in zip(rows, S, T):
        stats[f"S:{r['input']}"] = s
        stats[f"T:{r['input']}"] = t
    return stats


def _anova(outdir: str) -> dict:
    with open(os.path.join(outdir, "anova_report.json")) as fh:
        report = json.load(fh)
    exp = _load_expansion(os.path.join(outdir, "anova_expansion.json"))
    S, T = sensitivities(exp)
    for k in range(len(S)):
        _require(_close(float(S[k]), report["S"][k], INVARIANT_RTOL)
                 and _close(float(T[k]), report["T"][k], INVARIANT_RTOL),
                 f"anova_expansion.json gives S, T for input {k} that "
                 f"differ from the report")
    _sensitivity_checked(report["S"], report["T"], "anova_report.json")
    stats = {"g0": float(report["g0"])}
    for k, (s, t) in enumerate(zip(report["S"], report["T"])):
        stats[f"S:{k}"] = float(s)
        stats[f"T:{k}"] = float(t)
    return stats


def _hier_extract(outdir: str) -> dict:
    with open(os.path.join(outdir, "block.json")) as fh:
        doc = json.load(fh)
    _require(doc.get("schema") == "intermediate-block/1",
             f"block schema is {doc.get('schema')!r}")
    zeta = expansion_from_json(json.dumps(doc["zeta"]))
    m, v = zeta.mean_variance()
    _require(abs(float(m[0])) <= 1e-12 and abs(float(v[0]) - 1.0) <= 1e-9,
             f"zeta has mean {m[0]!r} and variance {v[0]!r}, not 0 and 1")
    dens = doc["density"]
    if dens["kind"] == "quadrature":
        w = np.asarray(dens["atoms"]["weights"], dtype=float)
        _require(np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9,
                 f"density atoms carry mass {w.sum()!r}")
    else:
        p = np.asarray(dens["cdf_knots"]["p"], dtype=float)
        _require(np.all(np.diff(p) >= 0) and abs(p[0]) <= 1e-12
                 and abs(p[-1] - 1.0) <= 1e-12,
                 "sampled CDF knots are not monotone from 0 to 1")
    _require(float(doc["b"]) > 0.0, f"block spread b={doc['b']!r}")
    return {"a": float(doc["a"]), "b": float(doc["b"])}


_READERS = {
    "dc": lambda d: _stats_csv(d, "dc"),
    "transient": _transient,
    "mc": _mc,
    "sensitivity": _sensitivity,
    "anova": _anova,
    "hier-extract": _hier_extract,
    "hier-propagate": lambda d: _stats_csv(d, "hier"),
}


def job_stats(analysis: str, outdir: str) -> dict:
    """Checked statistics of one finished job; raises CheckError."""
    try:
        return _finite_stats(_READERS[analysis](outdir))
    except CheckError:
        raise
    except (OSError, KeyError, ValueError, IndexError) as err:
        raise CheckError(f"{analysis} artifacts in {outdir}: "
                         f"{type(err).__name__}: {err}") from err


def compare(stats: dict, ref: dict, mode: str, at_reference_seed: bool
            ) -> None:
    """Raises CheckError when stats disagree with the reference entry."""
    _require(set(stats) == set(ref),
             f"statistics {sorted(set(stats) ^ set(ref))} appear on one "
             "side only")
    if at_reference_seed or mode == "exact":
        for key, value in stats.items():
            _require(_close(value, ref[key], RTOL),
                     f"{key} = {value!r}, reference {ref[key]!r}")
    elif mode == "mc":
        for key, value in stats.items():
            if key.startswith("se_"):
                continue
            se_key = ("se_mean:" if key.startswith("mean:") else "se_std:") \
                + key.split(":", 1)[1]
            se = math.hypot(stats[se_key], ref[se_key])
            _require(abs(value - ref[key]) <= Z_MC * se + 1e-12 * abs(value),
                     f"{key} = {value!r}, reference {ref[key]!r}, "
                     f"combined standard error {se!r}")


def artifact_bytes(outdir: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(outdir))
