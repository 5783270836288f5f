"""Outside-in tracer: wraps uqsim's functions from the benchmark's side.

`Tracer.installed()` wraps, for the duration of a `with` block,

- every public function of each uqsim module, in every uqsim namespace that
  holds it (so `from .x import f` bindings are traced as well);
- a few private boundaries the per-layer counters need: the damped Newton
  loop (its Jacobian callback counts iterations), the thread-pool map (so
  work in pool threads keeps its parent span), the shared-step integrator
  and its per-point attempt and implicit solve;
- `GpcExpansion.eval_many`, and every model's `f`, `q`, `df_dx` and `dq_dx`
  callables plus the `jac_f`/`jac_q` methods that build Jacobians.

Wrapped functions record spans (name, start, end, parent span, job id) in
memory.  Model callables run far too often for one span each; they add
their count and time to per-thread counters and their time to the span
that called them.  Leaving the block restores every original object.

Nothing under `src/` is modified; all of this is monkey-patching.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import re
import sys
import threading
import time
from collections import defaultdict

MODULES = ("cli", "netlist", "models", "polychaos", "stsolver",
           "montecarlo", "anova", "hier")

# device equations run inside model callables, which the model wrappers
# already cover; a span per call would dominate the trace
SKIP = {"models.shockley_current", "models.mosfet_current"}

MODEL_CALLABLES = ("f", "q", "df_dx", "dq_dx")

SPAN_FIELDS = ("name", "start", "end", "parent", "job", "model_s", "info")
_NAME, _START, _END, _PARENT, _JOB, _MODEL_S, _INFO = range(7)

POINT_SOLVES = ("stsolver.newton_dc",
                "stsolver._PointIntegrator._implicit_solve")


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans: dict[int, list] = {}
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[defaultdict] = []   # one per thread
        self._patches: list[tuple] = []          # (owner, attr, original)

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.depth = 0
            st.counts = defaultdict(float)
            self._counters.append(st.counts)   # list.append is atomic
        return st

    def counts(self) -> dict:
        total = defaultdict(float)
        for c in self._counters:
            for k, v in c.items():
                total[k] += v
        return dict(total)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, pre=None, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else None,
                   tracer.job, 0.0, None]
            tracer.spans[sid] = rec
            if pre is not None:
                args, kwargs = pre(sid, args, kwargs)
            st.stack.append(sid)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                st.stack.pop()
            if post is not None:
                rec[_INFO] = post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _leaf(self, fn, kind):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.depth -= 1
                st.counts[f"{kind}_calls"] += 1
                st.counts[f"{kind}_s"] += dt
                if st.depth == 0 and st.stack:
                    tracer.spans[st.stack[-1]][_MODEL_S] += dt

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _count_calls(self, fn, key):
        tracer = self

        def counted(*args, **kwargs):
            tracer._state().counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks reading arguments and results --------------------------------

    def _newton_pre(self, sid, args, kwargs):
        # the Jacobian callback runs once per Newton iteration
        args = list(args)
        if len(args) > 1:
            args[1] = self._count_calls(args[1], "newton_iters")
        else:
            kwargs["jacobian"] = self._count_calls(kwargs["jacobian"],
                                                   "newton_iters")
        return tuple(args), kwargs

    def _map_pre(self, sid, args, kwargs):
        # pool threads start with an empty span stack; seed it with the
        # span of the map call so their work keeps its parent
        tracer = self
        fn = args[0]

        def in_context(item):
            st = tracer._state()
            saved = st.stack
            st.stack = [sid]
            try:
                return fn(item)
            finally:
                st.stack = saved

        return (in_context,) + tuple(args[1:]), kwargs

    @staticmethod
    def _post_info(name):
        if name == "polychaos.tensor_quadrature":
            return lambda a, k, r: {"points": len(r)}
        if name == "stsolver.select_testing_points":
            return lambda a, k, r: {"points": r.n_points,
                                    "condition": r.condition}
        if name == "stsolver._integrate_points":
            return lambda a, k, r: {
                "accepted": sum(1 for s in r[2] if s[2]),
                "rejected": sum(1 for s in r[2] if not s[2])}
        if name == "montecarlo.run_mc":
            return lambda a, k, r: {"samples": r.n_samples + r.n_failed,
                                    "failed": r.n_failed}
        if name == "anova.adaptive_anova":
            return lambda a, k, r: {"evaluations": r[0].n_evaluations,
                                    "terms": 1 + len(r[0].terms),
                                    "screened": len(r[0].pruned)}
        if name == "hier.density_by_quadrature":
            return lambda a, k, r: {"atoms": len(r.atoms[0])}
        return None

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _targets(self, mods):
        """(owner, attr, span name, pre hook) for every span wrapper."""
        out = []
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    out.append((mod, attr, name, None))
        st = mods["stsolver"]
        out += [
            (st, "_damped_newton", "stsolver._damped_newton",
             self._newton_pre),
            (st, "_map_points", "stsolver._map_points", self._map_pre),
            (st, "_integrate_points", "stsolver._integrate_points", None),
            (st._PointIntegrator, "attempt",
             "stsolver._PointIntegrator.attempt", None),
            (st._PointIntegrator, "_implicit_solve",
             "stsolver._PointIntegrator._implicit_solve", None),
            (mods["polychaos"].GpcExpansion, "eval_many",
             "polychaos.GpcExpansion.eval_many", None),
        ]
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import uqsim.cli  # noqa: F401  (loads every traced module)

        mods = {m: sys.modules[f"uqsim.{m}"] for m in MODULES}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "uqsim" or n.startswith("uqsim.")]
        for owner, attr, name, pre in self._targets(mods):
            original = getattr(owner, attr)
            wrapped = self._span(original, name, pre, self._post_info(name))
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapped)

        dae = mods["models"].StochasticDae
        for attr in ("jac_f", "jac_q"):
            self._set(dae, attr, self._leaf(getattr(dae, attr), "jac"))
        post_init = dae.__post_init__
        tracer = self

        def traced_post_init(model):
            post_init(model)
            for attr in MODEL_CALLABLES:
                fn = getattr(model, attr)
                if fn is not None and not getattr(fn, "_perfbench", False):
                    object.__setattr__(model, attr, tracer._leaf(fn, attr))

        self._set(dae, "__post_init__", traced_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        rows = [[sid] + rec for sid, rec in sorted(self.spans.items())]
        with open(path, "w") as fh:
            json.dump({**extra, "fields": ("id",) + SPAN_FIELDS,
                       "spans": rows, "counters": self.counts()}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        return _Analysis(self.spans, self.counts()).metrics()


class _Analysis:
    """Self times, inclusive layer times and counters over finished spans."""

    def __init__(self, spans: dict, counts: dict):
        self.spans = spans
        self.counts = counts
        self.children = defaultdict(list)
        for sid, rec in spans.items():
            if rec[_PARENT] is not None:
                self.children[rec[_PARENT]].append(sid)

    def _dur(self, sid) -> float:
        rec = self.spans[sid]
        return rec[_END] - rec[_START]

    def self_time(self, sid) -> float:
        """Duration minus the union of child intervals and model time."""
        rec = self.spans[sid]
        covered, cursor = 0.0, rec[_START]
        for s, e in sorted((self.spans[c][_START], self.spans[c][_END])
                           for c in self.children[sid]):
            s, e = max(s, cursor), min(e, rec[_END])
            if e > s:
                covered += e - s
                cursor = e
        return max(0.0, self._dur(sid) - covered - rec[_MODEL_S])

    def _ancestors(self, sid):
        parent = self.spans[sid][_PARENT]
        while parent is not None:
            yield parent
            parent = self.spans[parent][_PARENT]

    def matching(self, names, under=None):
        """Spans named in `names` with no ancestor also in `names`; with
        `under`, only spans below a span of that name."""
        names = set(names)
        out = []
        for sid, rec in self.spans.items():
            if rec[_NAME] not in names:
                continue
            anc = [self.spans[a][_NAME] for a in self._ancestors(sid)]
            if names.intersection(anc):
                continue
            if under is not None and under not in anc:
                continue
            out.append(sid)
        return out

    def time(self, names, under=None) -> float:
        return sum(self._dur(s) for s in self.matching(names, under))

    def count(self, names) -> int:
        return sum(1 for rec in self.spans.values() if rec[_NAME] in names)

    def info(self, name, key, reduce=sum):
        vals = [rec[_INFO][key] for rec in self.spans.values()
                if rec[_NAME] == name and rec[_INFO] is not None]
        return reduce(vals) if vals else 0

    def module_self(self, module) -> float:
        return sum(self.self_time(sid) for sid, rec in self.spans.items()
                   if rec[_NAME].startswith(module + "."))

    def subtree_model_time(self, sid) -> float:
        total, todo = 0.0, [sid]
        while todo:
            s = todo.pop()
            total += self.spans[s][_MODEL_S]
            todo.extend(self.children[s])
        return total

    def metrics(self) -> dict:
        c = self.counts
        point = self.matching(POINT_SOLVES)
        candidates = sum(
            rec[_INFO]["points"] for rec in self.spans.values()
            if rec[_NAME] == "polychaos.tensor_quadrature"
            and rec[_PARENT] is not None
            and self.spans[rec[_PARENT]][_NAME]
            == "stsolver.select_testing_points")
        f_calls = c.get("f_calls", 0)
        accepted = self.info("stsolver._integrate_points", "accepted")
        rejected = self.info("stsolver._integrate_points", "rejected")
        return {
            "cli.self_s": self.module_self("cli"),
            "netlist.parse_s": self.time(["netlist.parse_netlist"]),
            "netlist.elaborate_s": self.time(["netlist.elaborate"]),
            "models.f_calls": int(f_calls),
            "models.jac_calls": int(c.get("jac_calls", 0)),
            "models.q_calls": int(c.get("q_calls", 0)),
            "models.f_s": c.get("f_s", 0.0),
            "models.jac_s": c.get("jac_s", 0.0),
            "models.f_us_per_call":
                1e6 * c.get("f_s", 0.0) / f_calls if f_calls else 0.0,
            "polychaos.basis_s": self.time(["polychaos.make_standard_basis",
                                            "polychaos.stieltjes_basis"]),
            "polychaos.gauss_s": self.time(["polychaos.golub_welsch",
                                            "polychaos.tensor_quadrature"]),
            "polychaos.grid_points":
                self.info("polychaos.tensor_quadrature", "points"),
            "polychaos.eval_s":
                self.time(["polychaos.GpcExpansion.eval_many"]),
            "stsolver.select_s":
                self.time(["stsolver.select_testing_points"]),
            "stsolver.select_candidates": candidates,
            "stsolver.testing_points":
                self.info("stsolver.select_testing_points", "points"),
            "stsolver.cond_max": float(self.info(
                "stsolver.select_testing_points", "condition", max)),
            "stsolver.newton_solves": self.count(["stsolver._damped_newton"]),
            "stsolver.newton_iters": int(c.get("newton_iters", 0)),
            "stsolver.point_solves": self.count(POINT_SOLVES),
            "stsolver.point_solve_self_s": sum(
                self._dur(s) - self.subtree_model_time(s) for s in point),
            "stsolver.recover_calls":
                self.count(["stsolver.recover_coefficients"]),
            "stsolver.recover_s":
                self.time(["stsolver.recover_coefficients"]),
            "stsolver.steps_accepted": accepted,
            "stsolver.steps_rejected": rejected,
            "stsolver.step_accept_ratio":
                accepted / (accepted + rejected) if accepted else 0.0,
            "montecarlo.samples": self.info("montecarlo.run_mc", "samples"),
            "montecarlo.failed": self.info("montecarlo.run_mc", "failed"),
            "montecarlo.sample_s": self.time(
                ["stsolver.newton_dc", "stsolver.integrate_deterministic"],
                under="montecarlo.run_mc"),
            "montecarlo.self_s": self.module_self("montecarlo"),
            "anova.evaluations":
                self.info("anova.adaptive_anova", "evaluations"),
            "anova.terms": self.info("anova.adaptive_anova", "terms"),
            "anova.screened": self.info("anova.adaptive_anova", "screened"),
            "anova.self_s": self.module_self("anova"),
            "hier.extract_s": self.time(["hier.extract_block_surrogate"]),
            "hier.density_s": self.time(["hier.density_by_quadrature",
                                         "hier.density_by_sampling"]),
            "hier.density_atoms":
                self.info("hier.density_by_quadrature", "atoms"),
            "hier.basis_s": self.time(["hier.build_intermediate_basis"]),
            "hier.propagate_s": self.time(["hier.propagate_dc",
                                           "hier.propagate_transient"]),
        }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict:
    """import.* metrics from `python -X importtime` output (self times)."""
    total = scipy = uqsim = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        self_us, name = int(m.group(1)), m.group(2)
        total += self_us
        root = name.split(".", 1)[0]
        if root == "scipy":
            scipy += self_us
        elif root == "uqsim":
            uqsim += self_us
    return {"import.total_s": total * 1e-6, "import.scipy_s": scipy * 1e-6,
            "import.uqsim_self_s": uqsim * 1e-6}
