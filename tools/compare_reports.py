#!/usr/bin/env python3
"""Which benchmark reports and CSVs two source trees write differently.

    python tools/compare_reports.py BASE_SRC HEAD_SRC [--seeds 1 2 3]

BASE_SRC and HEAD_SRC are directories holding a ``phasebound`` package (a
checkout's ``src``).  The scenarios are the benchmark's, from
``perfbench/scenarios.py`` next to this tool: passes 0-1 of every workload,
for seed 1 unless ``--seeds`` names others.  Each tree runs each pass in
its own interpreter through ``phasebound.cli.run_scenario``.  The output
lists every report that differs outside its ``timing`` block, and every CSV
that differs, with the first differing key (or CSV line and column).  For a
differing report it also gives the largest absolute and the largest relative
difference between numbers, each with its key, and lists every other
difference: a string, bool or int, a list length or a missing key.  A pair of
numbers counts as numeric when either is a float, since a float report value
of 0.0 is written as the int 0.
Each tree also runs ``python -m phasebound selftest --out``, and the output
says whether the two ``selftest.json`` differ outside ``timing``.  The exit
status is 0 even when outputs differ (or a self-test check fails), and 1
only if a run crashes: its interpreter fails, a task raises, or the
self-test writes no report.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A report's timing block, the one part that may differ between identical runs.
TIMING = re.compile(r'"timing": \{[^{}]*\}')

# Runs in a child interpreter with PYTHONPATH set to one tree's source:
# argv = scenario directory, output directory, the src directory expected.
RUNNER = """
import json, pathlib, sys, traceback
import phasebound.cli as cli
scen, out, src = (pathlib.Path(a) for a in sys.argv[1:4])
if pathlib.Path(cli.__file__).resolve().parents[1] != src.resolve():
    sys.exit(f"phasebound imported from {cli.__file__}, not from {src}")
crashed = []
for path in sorted(scen.glob("p*.json")):
    try:
        cli.run_scenario(str(path), out_dir=str(out))
    except Exception:
        crashed.append(path.stem)
        (out / f"{path.stem}.error").write_text(traceback.format_exc())
print(json.dumps(crashed))
"""


def _scenarios_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module("scenarios")


def _run(src, scen_dir, out_dir):
    """Run every scenario of scen_dir with the tree at src; how it crashed, or None."""
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-c", RUNNER, str(scen_dir), str(out_dir), str(src)],
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        return "crashed: " + (done.stderr.strip().splitlines() or ["no output"])[-1]
    raised = json.loads(done.stdout.strip().splitlines()[-1])
    return f"raised in {', '.join(raised)}" if raised else None


def _selftest(src, out_dir):
    """Write the self-test report of the tree at src into out_dir; how it crashed, or None."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-m", "phasebound", "selftest", "--out", str(out_dir)],
                          capture_output=True, text=True, env=env, cwd=out_dir)
    if not (out_dir / "selftest.json").exists():
        return "crashed: " + (done.stderr.strip().splitlines() or ["no output"])[-1]
    return None


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


# The value of a key that a report lacks, in leaf_differences.
MISSING = "<missing>"


def leaf_differences(a, b, path=""):
    """Yield (key path, base value, head value) for every leaf at which two JSON
    values differ, in sorted-key order.  A key held on one side only has the
    value MISSING on the other; lists are compared over their common length,
    and then a length that differs is a leaf ``path.length``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            yield from leaf_differences(a.get(key, MISSING), b.get(key, MISSING), sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_differences(x, y, f"{path}[{i}]")
        if len(a) != len(b):
            yield f"{path}.length", len(a), len(b)
    elif not _same(a, b):
        yield path or "<root>", a, b


def _numeric(a, b):
    """Whether two differing leaves are one number moved: both finite numbers, one a float."""
    numbers = [isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in (a, b)]
    return all(numbers) and float in (type(a), type(b))


def summarize(base, head):
    """(largest absolute, largest relative) numeric difference, each (size, key)
    or None, and every other difference as (key, base value, head value)."""
    largest_abs = largest_rel = None
    others = []
    for key, a, b in leaf_differences(base, head):
        if not _numeric(a, b):
            others.append((key, a, b))
            continue
        diff = abs(a - b)
        rel = diff / max(abs(a), abs(b)) if diff else 0.0
        if largest_abs is None or diff > largest_abs[0]:
            largest_abs = (diff, key)
        if largest_rel is None or rel > largest_rel[0]:
            largest_rel = (rel, key)
    return largest_abs, largest_rel, others


def _report_difference(base_file, head_file):
    """None for reports equal outside ``timing``, else (first differing key, summary)."""
    texts = [TIMING.sub('"timing": {}', f.read_text()) for f in (base_file, head_file)]
    if texts[0] == texts[1]:
        return None
    base, head = (json.loads(text) for text in texts)
    first = next(leaf_differences(base, head), ("formatting",))[0]
    return first, summarize(base, head)


def _csv_difference(base_file, head_file):
    base, head = (f.read_text().splitlines() for f in (base_file, head_file))
    header = base[0].split(",") if base else []
    for k, (x, y) in enumerate(zip(base, head)):
        if x != y:
            cols = [i for i, (p, q) in enumerate(zip(x.split(","), y.split(","))) if p != q]
            col = header[cols[0]] if cols and cols[0] < len(header) else "?"
            return f"line {k + 1}, column {col}"
    return None if len(base) == len(head) else f"line {min(len(base), len(head)) + 1}"


def compare(base_out, head_out):
    """(name, what differs) for every output the two directories hold differently."""
    names = sorted({p.name for p in base_out.iterdir()} | {p.name for p in head_out.iterdir()})
    moved = []
    for name in names:
        base_file, head_file = base_out / name, head_out / name
        if not base_file.exists() or not head_file.exists():
            moved.append((name, "only in " + ("head" if head_file.exists() else "base")))
            continue
        if name.endswith(".json"):
            found = _report_difference(base_file, head_file)
            if found is not None:
                moved.append((name, *found))
        else:
            where = _csv_difference(base_file, head_file)
            if where is not None:
                moved.append((name, where, None))
    return moved


def _describe(summary):
    """Markdown lines for a differing report's summary (see summarize)."""
    largest_abs, largest_rel, others = summary
    lines = []
    if largest_abs is not None:
        lines.append(f"largest float difference: {largest_abs[0]:.3g} absolute at "
                     f"`{largest_abs[1]}`, {largest_rel[0]:.3g} relative at `{largest_rel[1]}`")
    if others:
        lines.append(f"{len(others)} non-float differences:")
        lines += [f"  - `{key}`: `{json.dumps(a)}` -> `{json.dumps(b)}`" for key, a, b in others]
    else:
        lines.append("no non-float difference")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args(argv)
    scenarios = _scenarios_module()
    crashed = False
    counts = Counter()
    print(f"Reports and CSVs of `{args.head_src}` against `{args.base_src}`"
          " (reports compared outside `timing`)\n")
    with tempfile.TemporaryDirectory() as tmp:
        passes = itertools.product(scenarios.WORKLOADS, args.seeds, (0, 1))
        for workload, seed, pass_index in passes:
            label = f"{workload} seed {seed} pass {pass_index}"
            work = Path(tmp) / label.replace(" ", "-")
            (work / "scenarios").mkdir(parents=True)
            scenarios.write_pass(workload, seed, pass_index, "full", work / "scenarios")
            crashes = [f"the {side} run {how}"
                       for side, src in (("base", args.base_src), ("head", args.head_src))
                       if (how := _run(src, work / "scenarios", work / side))]
            if crashes:
                crashed = True
                print(f"- {label}: {'; '.join(crashes)}")
                continue
            moved = compare(work / "base", work / "head")
            for kind in (".json", ".csv"):
                counts[kind] += sum(p.suffix == kind for p in (work / "head").iterdir())
                counts["moved" + kind] += sum(name.endswith(kind) for name, _, _ in moved)
            print(f"- {label}: {len(moved)} outputs differ")
            for name, where, summary in moved:
                print(f"  - `{name}`: first difference at `{where}`")
                if summary is not None:
                    counts["non-float"] += len(summary[2])
                    for line in _describe(summary):
                        print(f"    - {line}")
        work = Path(tmp) / "selftest"
        crashes = [f"the {side} self-test {how}"
                   for side, src in (("base", args.base_src), ("head", args.head_src))
                   if (how := _selftest(src, work / side))]
        if crashes:
            crashed = True
            selftest = "; ".join(crashes) + "."
        else:
            found = _report_difference(work / "base" / "selftest.json",
                                       work / "head" / "selftest.json")
            selftest = ("identical outside `timing`." if found is None
                        else "\n".join([f"differs, first at `{found[0]}`."]
                                        + [f"- {line}" for line in _describe(found[1])]))
    print(f"\n{counts['moved.json']} of {counts['.json']} reports and "
          f"{counts['moved.csv']} of {counts['.csv']} CSVs differ; the reports hold "
          f"{counts['non-float']} non-float differences.")
    print(f"`selftest.json`: {selftest}")
    return 1 if crashed else 0


if __name__ == "__main__":
    raise SystemExit(main())
