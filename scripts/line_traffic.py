"""Which statements of the library no run executes, and which only tests do.

    python3 scripts/line_traffic.py [--src DIR] [--tests] [--bench] \
        [--workloads spectral hier sampling]

Imports DIR's library (DIR/src, default: this checkout) and records, with
sys.settrace and threading.settrace, the lines of DIR/src/uqsim/*.py that
run in this process:
  - first, importing every module (counted for every run below);
  - with --tests, the tier-1 suite (pytest on DIR/tests), in this process,
    so statements that a test reaches only in a child process count as
    not run by the tests;
  - with --bench, every benchmark job of the workloads at seed 0, from
    DIR/perfbench/workloads.py read as it is, through scripts/job_artifacts.py
    into a temporary directory.

A statement is an `ast` statement other than a definition, an import, a
docstring or a bare annotation.  It ran when a line event fell on its own
lines: all of a simple statement's, the header of a compound one.  For each
module the report prints three lines, each statement named by its first
line:

    <module>: <N> statements, <A> never run, <B> only by tests
    <module> never run: <line> <line> ...
    <module> only tests: <line> <line> ...

"never run" counts every run recorded.  "only tests" lists the statements
the tests ran and the import and the benchmark jobs did not; it is empty
unless both --tests and --bench are given.
"""

import argparse
import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import threading

SEED = 0
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path: str) -> dict:
    """First line of each counted statement of the module at `path` ->
    the lines whose events mean it ran."""
    out = {}

    def visit(body):
        for k, node in enumerate(body):
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            bare = isinstance(node, ast.AnnAssign) and node.value is None
            children = [getattr(node, f) for f in
                        ("body", "orelse", "finalbody") if getattr(node, f,
                                                                   None)]
            children += [h.body for h in getattr(node, "handlers", ())]
            if not (isinstance(node, SKIPPED) or docstring or bare):
                end = node.end_lineno
                if children:
                    end = max(node.lineno, children[0][0].lineno - 1)
                out[node.lineno] = range(node.lineno, end + 1)
            for child in children:
                visit(child)

    with open(path) as fh:
        visit(ast.parse(fh.read()).body)
    return dict(sorted(out.items()))


class Recorder:
    """Line events of the files in `paths`, into the set `self.lines` of
    (path, line) pairs, which the caller may swap between runs."""

    def __init__(self, paths):
        self.paths = frozenset(paths)
        self.lines = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename in self.paths:
            return self._local
        return None

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def run_tests(src: str) -> None:
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        rc = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors",
                          os.path.join(src, "tests")])
    if rc != 0:
        print(f"the tests exited {int(rc)}", file=sys.stderr)


def run_bench(src: str, names) -> int:
    import job_artifacts

    argv = ["--src", src, "--seeds", str(SEED)]
    argv += ["--workloads", *names] if names else []
    with tempfile.TemporaryDirectory() as tmp:
        return job_artifacts.main(argv + ["--out", tmp])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), help="checkout root")
    ap.add_argument("--tests", action="store_true")
    ap.add_argument("--bench", action="store_true")
    ap.add_argument("--workloads", nargs="+")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    pkg = os.path.join(src, "src", "uqsim")
    files = {name[:-3]: os.path.join(pkg, name)
             for name in sorted(os.listdir(pkg)) if name.endswith(".py")}
    sys.path.insert(0, os.path.join(src, "src"))

    runs = {}
    recorder = Recorder(files.values())
    with recorder:
        for mod in files:
            importlib.import_module("uqsim" if mod == "__init__"
                                    else f"uqsim.{mod}")
        runs["import"] = recorder.lines
        if args.tests:
            recorder.lines = runs["tests"] = set()
            run_tests(src)
        if args.bench:
            recorder.lines = runs["bench"] = set()
            if run_bench(src, args.workloads) != 0:
                return 1

    every = set().union(*runs.values())
    elsewhere = runs["import"] | runs.get("bench", set())
    for mod, path in files.items():
        stmts = statements(path)

        def ran(lines, own):
            return any((path, line) in lines for line in own)

        never = [first for first, own in stmts.items() if not ran(every, own)]
        only = []
        if args.tests and args.bench:
            only = [first for first, own in stmts.items()
                    if ran(runs["tests"], own) and not ran(elsewhere, own)]
        print(f"{mod}.py: {len(stmts)} statements, {len(never)} never run, "
              f"{len(only)} only by tests")
        print(f"{mod}.py never run: {' '.join(map(str, never))}")
        print(f"{mod}.py only tests: {' '.join(map(str, only))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
