#!/usr/bin/env python3
"""phasebound benchmark: closed-loop workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload multistart --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
client in one process feeds generated scenario files to
``phasebound.cli.run_scenario`` one after another (a closed loop), in whole
passes of the workload's task mix, starting another pass only while at least
half a pass's time remains of ``--seconds``.  After the loop every output is
checked by the oracle.  The last line of standard output is the JSON result;
the lines before it print every end-to-end metric by name and unit, the run
metadata and each failing task by name.

With ``--trace 1`` the run makes a fixed number of passes instead; each task
runs once untraced and once traced (alternating which goes first), and the
result holds the per-layer metrics, including the tracing overhead.
End-to-end metrics always come from untraced runs.

Scratch files, reports, span traces and result files go to
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
LAYER_MODULES = ("cli", "shooting", "verify", "integrators", "core", "constraints", "systems")
TAIL_BEYOND = 10
# Machine-speed reference.  On small shared machines the same call drifts by
# 20-80 % over tens of seconds, and CPU time drifts with it, so the drift is
# in the hardware, not in scheduling.  A fixed kernel of the same kind of work
# as the program's hot loops (small numpy arrays driven from Python) is timed
# before the first task and after every task, for PROBE_SHARE of the task's
# time.  ``tasks_per_ref_s`` measures each task's time in units of the
# kernel's median time around that task.  The kernel is benchmark code, so no
# change to the program can move it.
PROBE_SHARE = 0.05
PROBE_NOMINAL_S = 0.02
PROBE_FIRST_S = 0.2
# Set-up speed drifts with the machine as well (a set-up took 0.38 s in one
# run and 0.9 s in another), and the reference kernel does not track it.  A
# fresh interpreter importing numpy and scipy.linalg, the same kind of work as
# most of set-up, does: over idle and loaded periods the median ratio of
# set-up to this import moved by 5 % while set-up time moved by 40 %.
REFERENCE_IMPORT = ("import time; start = time.perf_counter(); import numpy, scipy.linalg; "
                    "print(time.perf_counter() - start)")
REFERENCE_IMPORT_NOMINAL_S = 0.25


def end_to_end_units(bench):
    """Unit of every end-to-end metric: from BENCHMARK.json, else from metrics.json."""
    catalogue = json.loads((HERE / "metrics.json").read_text())["end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue if "unit" in m}
    units.update((m["name"], m["unit"]) for m in bench["end_to_end"])
    return units


# ---------------------------------------------------------------------------
# Set-up: import, scenario generation, one warm-up call
# ---------------------------------------------------------------------------

def _import_program():
    cli = importlib.import_module("phasebound.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise ImportError(f"phasebound imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(args, work):
    """Set-up time, its median as timed, the CLI module and pass 0.

    Each of SETUP_REPEATS set-ups runs ``setup_probe.py`` in its own
    interpreter, so every one pays for importing numpy and scipy as a user's
    first call does.  Each is followed by the reference import in another
    fresh interpreter, and ``setup_s`` is the median ratio of the two times
    in seconds at the reference's nominal time.  This process then imports
    the program and makes its own warm-up call, untimed.
    """
    cli = _import_program()
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
               args.size, str(work / "setup")]
    times, ratios = [], []
    for _ in range(SETUP_REPEATS):
        t = _timed_child(command)
        times.append(t)
        ratios.append(t / _timed_child([sys.executable, "-c", REFERENCE_IMPORT]))
    tasks = scenarios.write_pass(args.workload, args.seed, 0, args.size, work / "scenarios")
    warm = work / "scenarios" / "warmup.json"
    warm.write_text(json.dumps(scenarios.warmup_scenario()))
    cli.run_scenario(str(warm), out_dir=str(work / "warmup"))
    setup_s = statistics.median(ratios) * REFERENCE_IMPORT_NOMINAL_S
    return setup_s, statistics.median(times), cli, tasks


def _timed_child(command):
    """The seconds a child interpreter prints as the last word of its output."""
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def run_task(cli, task, work):
    """Wall time and outcome of one call; a raised exception is the outcome."""
    path = work / "scenarios" / f"{task.task_id}.json"
    start = perf_counter()
    try:
        outcome = cli.run_scenario(str(path), out_dir=str(work / "out"))
    except Exception as exc:  # a failing task is recorded and the loop goes on
        exc.perfbench_traceback = traceback.format_exc()
        outcome = exc
    return perf_counter() - start, outcome


def reference_kernel():
    """Seconds taken by one run of the fixed machine-speed reference kernel."""
    start = perf_counter()
    z, eye = np.array([0.3, 0.7]), np.eye(2)
    batch = np.linspace(-1.0, 1.0, 64).reshape(32, 2)
    for _ in range(650):
        u, p = z[:1], z[1:]
        field = np.concatenate([p, -np.sin(u)])
        jac = np.array([[0.0, 1.0], [-np.cos(u[0]), 0.0]])
        z = z + 1e-3 * np.linalg.solve(eye - 1e-3 * jac, field)
        batch = batch + 1e-3 * np.where(np.isfinite(batch), np.roll(batch, 1, axis=1), 0.0)
    return perf_counter() - start


def probe(seconds):
    """Reference-kernel times, run for at least ``seconds`` and at least once."""
    times = [reference_kernel()]
    while sum(times) < seconds:
        times.append(reference_kernel())
    return times


def untraced_loop(args, cli, first_pass, work):
    """Task records, and reference-kernel times before the first and after each task."""
    records, probes = [], [probe(PROBE_FIRST_S)]
    start = perf_counter()
    index, tasks = 0, first_pass
    while True:
        for task in tasks:
            wall, outcome = run_task(cli, task, work)
            records.append((task, wall, outcome))
            probes.append(probe(PROBE_SHARE * wall))
        index += 1
        elapsed = perf_counter() - start
        if args.seconds - elapsed < 0.5 * elapsed / index:
            break
        tasks = scenarios.write_pass(args.workload, args.seed, index, args.size,
                                     work / "scenarios")
    return records, probes


def traced_loop(args, cli, first_pass, work):
    import tracer

    modules = {name: sys.modules[f"phasebound.{name}"] for name in LAYER_MODULES}
    tr = tracer.Tracer()
    records, traced_outcomes = [], {}
    untraced_wall = traced_wall = 0.0
    tasks = first_pass
    for index in range(scenarios.TRACE_PASSES[args.workload]):
        if index:
            tasks = scenarios.write_pass(args.workload, args.seed, index, args.size,
                                         work / "scenarios")
        for k, task in enumerate(tasks):
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tr.task = task.task_id
                    tr.install(modules)
                    try:
                        wall, outcome = run_task(cli, task, work)
                    finally:
                        tr.uninstall()
                    traced_wall += wall
                    traced_outcomes[task.task_id] = outcome
                else:
                    wall, outcome = run_task(cli, task, work)
                    untraced_wall += wall
                    records.append((task, wall, outcome))
    return records, tr, traced_wall - untraced_wall, traced_outcomes


# ---------------------------------------------------------------------------
# Metrics and metadata
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k >= 1:
        return ordered[k - 1], 100.0 * k / n, n
    return ordered[-1], 100.0, n


def end_to_end(setup_s, setup_timed_s, records, probes, verdicts, branch_counts,
               peak_rss_mb):
    walls = [wall for _, wall, _ in records]
    errs = [v.max_err for v in verdicts if v.max_err is not None]
    tail_value, tail_pct, n = tail(walls)
    # Kernel time around task k: the runs just before it and just after it.
    refs = [statistics.median(before + after) for before, after in zip(probes, probes[1:])]
    speed = statistics.median(refs) / PROBE_NOMINAL_S
    return {
        "setup_s": setup_s,
        "tasks_per_s": n / sum(walls),
        "tasks_per_ref_s": n / sum(w * PROBE_NOMINAL_S / r for w, r in zip(walls, refs)),
        "task_s.p50": statistics.median(walls),
        "task_s.tail": tail_value,
        "fail_frac": sum(v.failed for v in verdicts) / len(verdicts),
        "oracle_err.max": max(errs) if errs else 0.0,
        "branches.mean": statistics.fmean(branch_counts) if branch_counts else None,
        "peak_rss_mb": peak_rss_mb,
    }, {"tasks_per_ref_s": f"reference kernel at a median {speed:.3f} x its nominal "
                           f"{PROBE_NOMINAL_S} s, {sum(map(len, probes))} runs",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, at a reference import of "
                   f"{REFERENCE_IMPORT_NOMINAL_S} s; {setup_timed_s:.4f} s as timed",
        "task_s.tail": f"p{tail_pct:.1f} of n={n} tasks",
        "task_s.p50": f"n={n} tasks",
        "branches.mean": f"over {len(branch_counts)} boundary problems"}


def _blas():
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = lib
                return info
    info["threads"] = None
    return info


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "phasebound").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args, pass_len):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "clients": 1,
        "sizes": scenarios.SIZES[args.size][args.workload], "tasks_per_pass": pass_len,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas(), "platform": platform.platform(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(scenarios.SIZES), default="full",
                        help="'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def _fmt(value):
    return "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "phasebound" / "__init__.py").is_file():
        print(f"error: no phasebound sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "scenarios").mkdir(parents=True)
    setup_s, setup_timed_s, cli, first_pass = setup(args, work)

    import oracle

    print(f"phasebound benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} (closed loop, 1 client)", flush=True)
    if args.trace:
        records, tr, overhead_s, traced_outcomes = traced_loop(args, cli, first_pass, work)
    else:
        records, probes = untraced_loop(args, cli, first_pass, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts, counts = [], []
    for task, wall, outcome in records:
        verdict = oracle.check_task(task, outcome)
        if args.trace and not isinstance(outcome, BaseException):
            traced = traced_outcomes[task.task_id]
            same = (not isinstance(traced, BaseException)
                    and traced[0]["results"] == outcome[0]["results"])
            verdict.checks.append(oracle.Check("tracing leaves results unchanged", same))
        verdicts.append(verdict)
        counts += oracle.branch_counts(task, outcome)
        status = "ok" if not verdict.failed else (
            "FAIL" if verdict.unexpected else "FAIL (known defect)")
        print(f"task {task.task_id} {task.template:38s} {wall:9.4f} s  {status}")

    failing = [v for v in verdicts if v.failed]
    for v in failing:
        for c in v.checks:
            if not c.ok:
                tag = f"known defect {c.known_defect}" if c.known_defect else "UNEXPECTED"
                print(f"failing: {v.task_id} {v.template}: {c.name}: {c.detail} [{tag}]")
    for key in sorted({c.known_defect for v in failing for c in v.checks if c.known_defect}):
        print(f"known defect {key}: {oracle.KNOWN_DEFECTS[key]}")
    for task, _, outcome in records:
        if isinstance(outcome, BaseException):
            print(f"traceback of {task.task_id}:\n{outcome.perfbench_traceback}", file=sys.stderr)

    meta = metadata(args, len(first_pass))
    print("meta: " + json.dumps(meta, sort_keys=True))
    correct = not any(v.unexpected for v in verdicts)
    result = {"metadata": meta, "correct": correct, "attempted": len(verdicts),
              "failed": len(failing),
              "failing_tasks": [f"{v.task_id} {v.template}" for v in failing],
              "tasks": [{"id": t.task_id, "template": t.template, "wall_s": w,
                         "checks": [vars(c) for c in v.checks]}
                        for (t, w, _), v in zip(records, verdicts)]}

    if args.trace:
        import tracer

        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tr.write(trace_path)
        values = tracer.layer_metrics(tr, overhead_s)
        wanted = bench["per_layer"]
        for hook in sorted(tr.missing):
            print(f"warning: hook {hook} not found in the program; its metrics read 0")
        for layer, n in tr.info_errors.items():
            print(f"warning: {n} call(s) of {layer} could not be read; its counts are partial")
        print(f"spans: {len(tr.spans)} written to {trace_path}")
        shares = tracer.breakdown(tr, {t.task_id: t.template for t, _, _ in records})
        for kind, parts in shares.items():
            top = sorted(((v, k) for k, v in parts.items() if v >= 0.01), reverse=True)
            print(f"breakdown {kind}: " + (", ".join(f"{k} {v:.3f}" for v, k in top) or "none"))
        result["breakdown"] = shares
        for m in wanted:
            print(f"metric {m['name']} = {_fmt(values[m['name']])} {m['unit']}")
    else:
        values, notes = end_to_end(setup_s, setup_timed_s, records, probes, verdicts, counts,
                                   peak_rss_mb)
        result["reference_kernel_s"] = probes
        units = end_to_end_units(bench)
        for name, value in values.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {_fmt(value)} {units[name]}{note}")
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result["metrics"] = values

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": len(failing),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
