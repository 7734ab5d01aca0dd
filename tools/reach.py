#!/usr/bin/env python3
"""Reachability census: which code of ``src/repro`` only tests reach.

Runs two sets of commands, each in a subprocess of its own that records
what executes, and prints per module what the *product* set never
reaches — split into what tier-1 reaches ("tests only") and what
nothing reaches ("unreached")::

    python tools/reach.py                      # function level, all of repro
    python tools/reach.py --lines core net     # line level, named packages

The product set is the layered benchmark's smoke run (all five
workloads, bare and traced), ``python -m repro.experiments --all
--quick``, the two ``chaos --seed 3`` runs CI makes (plain, traced
and then read by ``summarize --strict`` as CI's chaos job does, and
``--rebalance``) and every ``examples/*.py``; the test set is tier-1
(``python -m pytest -q``). Function level records every call with
``sys.setprofile`` (about 3x slower than a bare run); line level
records every executed line with ``sys.settrace``, only inside the
named packages (``core`` and ``repro.core`` name the same one).

The recorder stays installed when the code it watches resets the hook
(a test that measures with ``sys.setprofile`` and then clears it):
clearing puts the recorder back, and a profiler set meanwhile runs
chained behind it.

A function the product does not reach may say why it stays: a comment
block directly above it (above its decorators, if any) holding a line
that starts with ``# reach:`` and a reason::

    # reach: full-size E10 runs random-direction mobility
    def step(self, xs, ys, bx, by):

Function level lists it under "kept", not under "tests only" or
"unreached". Line level ignores the marker.
"""

from __future__ import annotations

import argparse
import ast
import dis
import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")


def product_commands(tmp: str) -> List[List[str]]:
    """The commands a user of the project runs, as argument vectors, in
    order; what one writes for a later one goes under ``tmp``."""
    exp = ["-m", "repro.experiments"]
    trace = os.path.join(tmp, "chaos.jsonl")
    cmds = [
        ["benchmarks/layered/run.py", "--smoke"],
        exp + ["--all", "--quick"],
        exp + ["chaos", "--seed", "3", "--trace", trace],
        exp + ["summarize", "--strict", trace],
        exp + ["chaos", "--seed", "3", "--ticks", "120", "--rebalance"],
    ]
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            cmds.append([os.path.join("examples", name)])
    return cmds


TEST_COMMANDS = [["-m", "pytest", "-q", "-p", "no:cacheprovider"]]


# -- recording (runs inside each child process) --------------------------------


def _keep_installed(setter, hook, chain: bool):
    """Replace ``setter`` (``sys.setprofile`` / ``sys.settrace``) so
    that clearing the hook re-installs ``hook``. Another profiler is
    chained behind ``hook`` (``chain``); another tracer replaces it
    until it is cleared."""
    name = setter.__name__

    def keep(fn):
        if fn is None:
            setter(hook)
        elif chain:
            def both(frame, event, arg):
                hook(frame, event, arg)
                return fn(frame, event, arg)

            setter(both)
        else:
            setter(fn)

    setattr(sys, name, keep)
    setter(hook)
    getattr(threading, name)(hook)


def _record(out: str, lines_of: List[str], argv: List[str]) -> None:
    """Run ``argv`` (a script path or ``-m module`` plus arguments) in
    this process under the recorder, then write what ran to ``out``."""
    hits: Dict[str, Set] = {}
    if lines_of:
        prefixes = tuple(lines_of)
        #: file -> its line recorder, False outside the named packages
        local_of: Dict[str, object] = {}

        def recorder(add):
            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            return local

        def tracer(frame, event, arg):
            fn = frame.f_code.co_filename
            local = local_of.get(fn)
            if local is None:
                local = local_of[fn] = fn.startswith(prefixes) and recorder(
                    hits.setdefault(fn, set()).add
                )
            if not local:
                return None
            hits[fn].add(frame.f_lineno)  # the call: the def line ran
            return local

        setter, hook, chain = sys.settrace, tracer, False
    else:
        codes: Set = set()
        add_code = codes.add

        def profiler(frame, event, arg):
            if event == "call":
                add_code(frame.f_code)

        setter, hook, chain = sys.setprofile, profiler, True
    module = argv[0] == "-m"
    # as ``python -m mod ...`` / ``python script ...`` would set them
    sys.argv = argv[1:] if module else list(argv)
    sys.path[0] = (
        os.getcwd() if module else os.path.dirname(os.path.abspath(argv[0]))
    )
    status = 0
    _keep_installed(setter, hook, chain)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        setter(None)
        getattr(threading, setter.__name__)(None)
    if not lines_of:
        for code in codes:
            if code.co_filename.startswith(PKG):
                hits.setdefault(code.co_filename, set()).add(_key(code))
    with open(out, "w") as f:
        json.dump(
            {
                "status": status,
                "hits": {fn: sorted(v) for fn, v in hits.items()},
            },
            f,
        )


# -- the census (parent process) -----------------------------------------------


def _key(code) -> Tuple[int, str]:
    """A function's census key: first line and qualified name (plain
    name before Python 3.11)."""
    return code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def _codes(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def universe(path: str, lines: bool) -> Set:
    """Every function (``(first line, qualname)``) or every statement
    line of the module at ``path`` that can execute."""
    with open(path) as f:
        source = f.read()
    top = compile(source, path, "exec")
    if not lines:
        return {
            _key(c)
            for c in _codes(top)
            if c.co_flags & inspect.CO_NEWLOCALS
            and (c.co_name == "<lambda>" or not c.co_name.startswith("<"))
        }
    starts = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt)
    }
    code_lines = {
        line for c in _codes(top) for _, line in dis.findlinestarts(c) if line
    }
    return starts & code_lines


MARKER = "# reach:"


def marked(lines: List[str], first: int) -> bool:
    """True if the comment block directly above line ``first`` (1-based;
    a function's first line is its first decorator) holds a line that
    starts with :data:`MARKER`."""
    i = first - 2
    while i >= 0 and lines[i].lstrip().startswith("#"):
        if lines[i].lstrip().startswith(MARKER):
            return True
        i -= 1
    return False


def classify(
    path: str, lines: bool, product: Set, tests: Set
) -> Tuple[Set, Set, Set, Set, Set]:
    """The module's ``(every, product, tests only, kept, unreached)``
    functions or lines, given what each command set reached in it;
    "kept" holds the functions marked ``# reach:`` that the product
    does not reach."""
    every = universe(path, lines)
    prod = every & product
    kept: Set = set()
    if not lines:
        with open(path) as f:
            source = f.read().splitlines()
        kept = {key for key in every - prod if marked(source, key[0])}
    only = (every & tests) - prod - kept
    return every, prod, only, kept, every - prod - only - kept


def run_set(
    commands: List[List[str]], lines_of: List[str], label: str
) -> Dict[str, Set]:
    """Run each command under the recorder; the union of what ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    union: Dict[str, Set] = {}
    for argv in commands:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "hits.json")
            child = [sys.executable, os.path.abspath(__file__), "--record", out]
            child += [arg for p in lines_of for arg in ("--under", p)]
            proc = subprocess.run(
                child + ["--"] + argv,
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if not os.path.exists(out):
                sys.exit(f"{label}: {' '.join(argv)} recorded nothing "
                         f"(exit {proc.returncode})")
            with open(out) as f:
                doc = json.load(f)
        print(f"# {label}: {' '.join(argv)} (exit {doc['status']})",
              file=sys.stderr)
        for fn, hits in doc["hits"].items():
            union.setdefault(fn, set()).update(
                tuple(h) if isinstance(h, list) else h for h in hits
            )
    return union


def _spans(lines: List[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    runs: List[List[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _show(items: Set, lines: bool) -> str:
    if lines:
        return _spans(sorted(items))
    return ", ".join(f"{name}:{line}" for line, name in sorted(items))


def census(lines_of: List[str]) -> None:
    """Run both sets; print the per-module table, then per module what
    only tests reach, what is kept and what nothing reaches."""
    lines = bool(lines_of)
    modules = sorted(
        os.path.join(d, f)
        for root in lines_of or [PKG]
        for d, _, files in os.walk(root)
        for f in files
        if f.endswith(".py")
    )
    with tempfile.TemporaryDirectory() as tmp:
        product = run_set(product_commands(tmp), lines_of, "product")
    tests = run_set(TEST_COMMANDS, lines_of, "tests")
    row = "{:<36} {:>9} {:>8} {:>10} {:>5} {:>9}".format
    print(row("module", "lines" if lines else "functions", "product",
              "tests only", "kept", "unreached"))
    total = [0, 0, 0, 0, 0]
    details = []
    for path in modules:
        sets = classify(
            path, lines, product.get(path, set()), tests.get(path, set())
        )
        if not sets[0]:
            continue
        counts = [len(s) for s in sets]
        total = [t + c for t, c in zip(total, counts)]
        name = os.path.relpath(path, SRC)
        print(row(name, *counts))
        if any(sets[2:]):
            details.append((name, sets[2:]))
    print(row("total", *total))
    for name, groups in details:
        print(f"\n{name}")
        for label, group in zip(("tests only", "kept", "unreached"), groups):
            if group:
                print(f"  {label + ':':<11} {_show(group, lines)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--lines", nargs="+", metavar="PKG", default=[],
        help="line-level census of these packages of repro",
    )
    # the child side: record one command, write the hits to a file
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--under", action="append", default=[],
                        help=argparse.SUPPRESS)
    parser.add_argument("command", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        _record(args.record, args.under, args.command)
        return 0
    packages = []
    for name in args.lines:
        parts = name.split(".")
        if parts[0] == "repro":
            parts = parts[1:]
        path = os.path.join(PKG, *parts)
        if not os.path.isdir(path):
            parser.error(f"no package repro.{'.'.join(parts)}")
        packages.append(path + os.sep)
    census(packages)
    return 0


if __name__ == "__main__":
    sys.exit(main())
