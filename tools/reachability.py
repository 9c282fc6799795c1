"""Reachability ledger: the ``src/repro`` functions nothing a user runs calls.

    python tools/reachability.py run      # record every entry point
    python tools/reachability.py report   # join, print, check the allowlist

``run`` executes every entry point a user has — the ``examples/`` (the
observability scenarios among them: ``scarecrow_tour.py``,
``remediation_tour.py``, ``profile_tour.py``),
``benchmarks/farmbench/run.py --smoke --traced`` (its child interpreters
included) and the paper-figure tests under ``benchmarks/`` — with
``tools/recorder`` on ``PYTHONPATH``, whose ``sitecustomize`` notes
every code object under ``src/repro`` that starts executing and dumps
one file per process into ``--dumps``.  It takes about 17 minutes on 2
vCPUs, 12 of them the figure tests.

``report`` joins the dumps to the ``ast`` ranges of every function under
``src/repro``, matching a code object on its ``def`` line or its first
decorator line.  An unreached function is counted once, at its outermost
unreached ancestor; a module never imported counts whole (its entry is
``module:<module>``).  It prints the unreached functions per module and
their total line count, and exits 1 when an unreached function is
missing from ``tools/reachability_allowlist.txt`` or an allowlisted one
is reached (or gone) — so the list can only shrink.

Each allowlist line is ``module:qualname  bucket [note]``, the bucket one
of ``error``, ``language``, ``protocol``, ``oracle`` or ``pending`` (defined
at the top of the allowlist); a ``pending`` note names the ROADMAP item
that decides it (``pending item 5``), an ``oracle`` note the test file that
needs it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"
RECORDER = REPO / "tools" / "recorder"
DEFAULT_DUMPS = REPO / "tools" / "out" / "reachability"
ALLOWLIST = REPO / "tools" / "reachability_allowlist.txt"

BUCKETS = ("error", "language", "protocol", "oracle", "pending")
MODULE_ENTRY = "<module>"


def entry_points(work: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` for every entry point, run from ``work``."""
    python = sys.executable
    runs = [(f"examples/{path.name}", [python, str(path)])
            for path in sorted((REPO / "examples").glob("*.py"))]
    runs.append(("farmbench --smoke --traced",
                 [python, str(REPO / "benchmarks" / "farmbench" / "run.py"),
                  "--smoke", "--traced",
                  "--out", str(work / "farmbench.json")]))
    runs.append(("paper-figure tests",
                 [python, "-m", "pytest", str(REPO / "benchmarks"),
                  "--ignore", str(REPO / "benchmarks" / "farmbench"),
                  "--benchmark-disable", "-q", "-p", "no:cacheprovider",
                  "--rootdir", str(REPO)]))
    return runs


def record(dumps: Path) -> int:
    """Run every entry point under the recorder; returns the failures."""
    work = dumps / "work"
    work.mkdir(parents=True, exist_ok=True)
    for stale in dumps.glob("calls-*.json"):
        stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(RECORDER), str(SRC), env.get("PYTHONPATH")) if p)
    env["REACHABILITY_DUMPS"] = str(dumps)
    env["REACHABILITY_SRC"] = str(PACKAGE)
    failed = 0
    for label, argv in entry_points(work):
        print(f"[reachability] {label}", flush=True)
        done = subprocess.run(argv, cwd=work, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            failed += 1
            print(f"[reachability] {label} exited {done.returncode}:\n"
                  f"{done.stderr[-2000:]}", file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# Joining the dumps to the source
# ---------------------------------------------------------------------------


class Function(NamedTuple):
    qualname: str
    first: int   # first decorator line, or the def line
    line: int    # the def line
    last: int
    parent: Optional[int]  # index of the enclosing function, if any

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions(path: Path) -> List[Function]:
    """Every ``def`` in ``path`` with its qualname and enclosing def."""
    found: List[Function] = []

    def walk(node: ast.AST, prefix: str, parent: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append(Function(prefix + child.name, first,
                                      child.lineno, child.end_lineno, parent))
                walk(child, f"{prefix}{child.name}.<locals>.",
                     len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(path.read_text(), str(path)), "", None)
    return found


def load_calls(dumps: Path) -> Set[Tuple[str, int, str]]:
    files = sorted(dumps.glob("calls-*.json"))
    if not files:
        raise SystemExit(f"no dumps in {dumps}: run "
                         f"'python tools/reachability.py run' first")
    calls: Set[Tuple[str, int, str]] = set()
    for path in files:
        calls.update(tuple(row) for row in json.loads(path.read_text()))
    return calls


class Unreached(NamedTuple):
    module: str
    qualname: str
    lines: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


class Scan(NamedTuple):
    unreached: List[Unreached]  # outermost only, in source order
    defined: Set[str]           # every function (and module) key
    total_lines: int            # of src/repro


def scan(calls: Set[Tuple[str, int, str]]) -> Scan:
    started: Dict[str, Set[Tuple[int, str]]] = {}
    for filename, first, name in calls:
        started.setdefault(filename, set()).add((first, name))
    out: List[Unreached] = []
    defined: Set[str] = set()
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source_lines = len(path.read_text().splitlines())
        total += source_lines
        module = module_name(path)
        defs = functions(path)
        defined.add(f"{module}:{MODULE_ENTRY}")
        defined.update(f"{module}:{fn.qualname}" for fn in defs)
        seen = started.get(str(path.resolve()), set())
        if (1, MODULE_ENTRY) not in seen:
            out.append(Unreached(module, MODULE_ENTRY, source_lines))
            continue
        dead = [not any((line, fn.qualname.rsplit(".", 1)[-1]) in seen
                        for line in (fn.first, fn.line))
                for fn in defs]
        for index, fn in enumerate(defs):
            if dead[index] and (fn.parent is None or not dead[fn.parent]):
                out.append(Unreached(module, fn.qualname, fn.lines))
    return Scan(out, defined, total)


# ---------------------------------------------------------------------------
# The allowlist
# ---------------------------------------------------------------------------

_LINE = re.compile(r"^(?P<key>[\w.]+:[\w.<>]+)\s+(?P<bucket>\w+)"
                   r"(?:\s+(?P<note>.*))?$")


class Entry(NamedTuple):
    bucket: str
    note: str


def read_allowlist(path: Path) -> Dict[str, Entry]:
    entries: Dict[str, Entry] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        match = _LINE.match(text)
        problem = None
        if match is None:
            problem = "expected 'module:qualname  bucket [note]'"
        elif match["bucket"] not in BUCKETS:
            problem = f"bucket must be one of {', '.join(BUCKETS)}"
        elif match["bucket"] == "pending" and not re.search(
                r"\bitem \d+\b", match["note"] or ""):
            problem = "a pending entry names its ROADMAP item ('item N')"
        elif match["bucket"] == "oracle" and not re.search(
                r"\btests/\S+\.py\b", match["note"] or ""):
            problem = "an oracle entry names its test file (tests/...py)"
        elif match["key"] in entries:
            problem = "duplicate entry"
        if problem:
            raise SystemExit(f"{path.name}:{number}: {problem}: {raw!r}")
        entries[match["key"]] = Entry(match["bucket"], match["note"] or "")
    return entries


def report(dumps: Path, allowlist_path: Path) -> int:
    result = scan(load_calls(dumps))
    allowlist = read_allowlist(allowlist_path)
    by_module: Dict[str, List[Unreached]] = {}
    for item in result.unreached:
        by_module.setdefault(item.module, []).append(item)
    for module, items in by_module.items():
        print(f"{module}  ({len(items)} functions, "
              f"{sum(i.lines for i in items)} lines)")
        for item in items:
            entry = allowlist.get(item.key)
            print(f"  {item.lines:5d}  {item.qualname:<48} "
                  f"{entry.bucket if entry else '-'}")
    lines = sum(item.lines for item in result.unreached)
    buckets: Dict[str, int] = {}
    for item in result.unreached:
        entry = allowlist.get(item.key)
        bucket = entry.bucket if entry else "-"
        buckets[bucket] = buckets.get(bucket, 0) + item.lines
    total = result.total_lines
    print(f"\nunreached: {lines} of {total} src/repro lines "
          f"({100.0 * lines / total:.1f} %) in {len(result.unreached)} "
          f"functions; by bucket: "
          + ", ".join(f"{bucket} {count}"
                      for bucket, count in sorted(buckets.items())))
    keys = {item.key for item in result.unreached}
    missing = sorted(keys - set(allowlist))
    gone = sorted(key for key in allowlist if key not in result.defined)
    reached = sorted(key for key in allowlist
                     if key in result.defined and key not in keys)
    for title, names in (
            ("unreached and not allowlisted (delete it, call it from an "
             "entry point, or allowlist it with a bucket)", missing),
            ("allowlisted but reached now (drop the line)", reached),
            ("allowlisted but no longer defined (drop the line)", gone)):
        if names:
            print(f"\n{title}:")
            for name in names:
                print(f"  {name}")
    return 1 if missing or reached or gone else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("run", "report"))
    parser.add_argument("--dumps", type=Path, default=DEFAULT_DUMPS,
                        help="dump directory (default: tools/out/"
                             "reachability)")
    parser.add_argument("--allowlist", type=Path, default=ALLOWLIST)
    args = parser.parse_args(argv)
    if args.command == "run":
        return 1 if record(args.dumps) else 0
    return report(args.dumps, args.allowlist)


if __name__ == "__main__":
    raise SystemExit(main())
