"""Scenario-driven command-line front end.

A scenario is a JSON file naming a registered system, a task, and the task's
parameters; running it emits a JSON report (all numbers at full 17-digit
precision, keys sorted, so identical scenarios and seeds produce identical
bytes outside the timing block) and comma-separated trajectory tables.
Output files are written atomically (temp file, then rename).

Exit codes: 0 success, 2 scenario/schema error (nothing written), 3
task-level failure (e.g. no solution where one was required; the report is
still written when possible).

    phasebound run scenario.json [--out DIR] [--seed N] [--step H]
    phasebound selftest [--strict] [--out DIR]
    phasebound list-examples

The default output directory is $PHASEBOUND_OUT, else the working directory.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys as _sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .constraints import (
    ExtendedState,
    gotay_step,
    integrate_constrained,
    make_constraint,
)
from .core import TimeGrid, action_functional, as_point
from .errors import DimensionMismatchError, PhaseboundError, UnstableConstraintError
from .integrators import IntegratorConfig, energy_drift, integrate_flow, step_count
from .shooting import (
    ShootingConfig,
    classify_theory,
    generating_function_check,
    solve_dirichlet,
)
from .systems import example_names, make_example, topological_limit_study
from .verify import isotropy_defect_bvp, isotropy_defect_flow, sample_phase_points

ENV_OUT_DIR = "PHASEBOUND_OUT"

TOP_KEYS = {"system", "task", "integrator", "shooting", "parameters", "seed", "output"}
INTEGRATOR_KEYS = {"scheme", "step", "newton_tol", "newton_max_iter", "blowup_threshold"}
SHOOTING_KEYS = {"newton_tol", "max_iter", "seeds", "seed_count", "seed_box",
                 "distinctness_radius"}
OUTPUT_KEYS = {"report", "trajectory"}
_number = lambda v: type(v) in (int, float) and -np.inf < v < np.inf
# The rule each of these task parameters must meet, and how it is stated.
PARAM_RULES = {
    "sample_count": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "require_solutions": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "branch": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "fd_step": (lambda v: _number(v) and v > 0, "a positive finite number"),
    "t0": (lambda v: _number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "t1": (lambda v: _number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "probe_radius": (lambda v: _number(v) and v > 0, "a positive finite number"),
    "lambdas": (lambda v: isinstance(v, list) and v and all(_number(x) and x >= 0 for x in v),
                "a non-empty list of numbers >= 0"),
    "box": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)),
            "a pair of numbers"),
    "route": (lambda v: v in ("flow", "bvp"), "'flow' or 'bvp'"),
    "gauge": (lambda v: v == "lambda-zero", "'lambda-zero', the one scenario-selectable gauge"),
}


class ScenarioError(PhaseboundError):
    """Scenario file is malformed; maps to exit code 2."""


class TaskFailure(PhaseboundError):
    """The task ran but its requirement failed; maps to exit code 3."""


# ---------------------------------------------------------------------------
# Full-precision serialization
# ---------------------------------------------------------------------------

def _fmt_float(x):
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def dump_full_precision(obj, indent=0):
    """JSON text with every float at 17 significant digits, keys sorted."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(key))}: '
                         f'{dump_full_precision(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dump_full_precision(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(str(obj))


def to_jsonable(obj):
    """Recursively convert numpy containers to plain Python."""
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _csv_rows(table):
    """The rows of a 2-d float array as CSV lines, every value as _fmt_float writes it:
    a row of finite values by one %-format of the whole row ("%.17g" is the f-string's
    ".17g"), and a row that the mask of non-finite values marks value by value."""
    row_format = ",".join(["%.17g"] * table.shape[1])
    finite = np.isfinite(table).all(axis=1).tolist()
    return [row_format % tuple(row) if ok else ",".join(map(_fmt_float, row))
            for row, ok in zip(table.tolist(), finite)]


def write_trajectory_csv(path, traj):
    r = traj.dim
    header = ["t"] + [f"u_{a}" for a in range(r)] + [f"p_{a}" for a in range(r)]
    table = np.column_stack([traj.grid.nodes, traj.positions, traj.momenta])
    atomic_write(path, "\n".join([",".join(header)] + _csv_rows(table)) + "\n")


# ---------------------------------------------------------------------------
# Scenario loading and validation
# ---------------------------------------------------------------------------

def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be an object, got {mapping!r}")
    if unknown := set(mapping) - allowed:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}; "
                            f"allowed: {sorted(allowed)}")


def load_scenario(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    _reject_unknown(data, TOP_KEYS, "scenario")
    if "system" not in data or "task" not in data:
        raise ScenarioError("scenario needs 'system' and 'task'")
    task = data["task"]
    if not isinstance(task, str) or task not in TASKS:
        raise ScenarioError(f"unknown task {task!r}; known tasks: {', '.join(TASKS)}")
    _reject_unknown(data.get("integrator", {}), INTEGRATOR_KEYS, "integrator")
    _reject_unknown(data.get("shooting", {}), SHOOTING_KEYS, "shooting")
    _reject_unknown(data.get("output", {}), OUTPUT_KEYS, "output")
    for key, name in data.get("output", {}).items():
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
            raise ScenarioError(f"output.{key} must be a plain file name, got {name!r}")
    if "seed" in data and type(data["seed"]) is not int:
        raise ScenarioError(f"seed must be an integer, got {data['seed']!r}")
    params = data.get("parameters", {})
    _, needed, optional = TASKS[task]
    _reject_unknown(params, needed | optional, f"parameters of task {task!r}")
    if missing := needed - params.keys():
        raise ScenarioError(f"task {task!r} needs parameters {sorted(missing)}")
    for key in params.keys() & PARAM_RULES.keys():
        valid, need = PARAM_RULES[key]
        if not valid(params[key]):
            raise ScenarioError(f"parameters.{key} must be {need}, got {params[key]!r}")
    system = data["system"]
    if isinstance(system, str):
        system = {"name": system, "params": {}}
    elif isinstance(system, dict):
        _reject_unknown(system, {"name", "params"}, "system")
        system = {"name": system.get("name"), "params": system.get("params", {})}
    else:
        raise ScenarioError("'system' must be a name or {name, params}")
    if system["name"] not in example_names():
        raise ScenarioError(f"unknown system {system['name']!r}; "
                            f"known: {', '.join(example_names())}")
    values = system["params"].values() if isinstance(system["params"], dict) else ()
    if any(isinstance(x, bool) for v in values for x in (v if isinstance(v, list) else [v])):
        raise ScenarioError("system parameters are numbers or names, never booleans")
    if task == "lambda-study" and system["name"] != "lambda-family":
        raise ScenarioError("lambda-study requires system 'lambda-family'")
    data = dict(data)
    data["system"] = system
    return data


def _built(what, build, *args, **kwargs):
    """build(*args, **kwargs), built from scenario values; the KeyError, TypeError,
    ValueError or PhaseboundError that rejects them is ScenarioError("bad {what}: ...")."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError, PhaseboundError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from exc


def _shooting_config(scenario, icfg, dim):
    """The scenario's ShootingConfig; each explicit seed is one momentum of dimension dim."""
    kwargs = dict(scenario.get("shooting", {}))
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(as_point(s, dim) for s in kwargs["seeds"])
    if "seed_box" in kwargs:
        kwargs["seed_box"] = tuple(kwargs["seed_box"])
    return ShootingConfig(integrator=icfg, **kwargs)


def _points(values, dims, where):
    """One finite point per dimension in dims from a scenario's list of values."""
    try:
        points = tuple(as_point(v, d) for v, d in zip(values, dims, strict=True))
        if not np.isfinite(np.concatenate(points)).all():
            raise ValueError("an entry is not finite")
        return points
    except (TypeError, ValueError, DimensionMismatchError) as exc:
        raise ScenarioError(f"{where} must be {len(dims)} points of dimensions "
                            f"{list(dims)}: {exc}") from exc


def _status_dict(status):
    return {"kind": type(status).__name__, **asdict(status)}


# ---------------------------------------------------------------------------
# Task runners: each returns (results dict, trajectory or None)
# ---------------------------------------------------------------------------

def _task_flow(ex, params, scfg, seed):
    u0, p0 = _points((params["u0"], params["p0"]), (ex.system.dim,) * 2,
                     "parameters u0 and p0")
    t0, t1 = params.get("t0", 0.0), params.get("t1", 1.0)
    if not t0 < t1:
        raise ScenarioError(f"flow task needs t0 < t1, got t0={t0!r}, t1={t1!r}")
    # the flow's grid: t1 may lie too few floats above t0 for its nodes to be distinct
    _built(f"flow span [{t0!r}, {t1!r}]", TimeGrid.uniform,
           step_count(t1 - t0, scfg.integrator.step), t0, t1)
    res = integrate_flow(ex.system, u0, p0, scfg.integrator, t0=t0, t1=t1)
    out = {
        "status": _status_dict(res.status),
        "final_time": float(res.trajectory.grid.nodes[-1]),
        "u_end": res.trajectory.positions[-1],
        "p_end": res.trajectory.momenta[-1],
        "n_nodes": len(res.trajectory.grid),
    }
    if res.completed:
        out["energy_drift"] = energy_drift(ex.system, res.trajectory)
    return out, res.trajectory


def _branch_dict(ex, branch):
    return {
        "p0": branch.p0,
        "p1": branch.p1,
        "u1": branch.u1,
        "residual": branch.residual,
        "jacobian_cond": branch.cond,
        "action": action_functional(ex.system, branch.trajectory),
    }


def _task_bvp(ex, params, scfg, seed):
    u0, u1 = _points(params["endpoints"], (ex.system.dim,) * 2, "parameters.endpoints")
    sols = solve_dirichlet(ex.system, u0, u1, scfg)
    out = {
        "classification": asdict(sols.classification),
        "branches": [_branch_dict(ex, b) for b in sols.solutions],
    }
    required = params.get("require_solutions", 0)
    traj = sols.solutions[0].trajectory if sols.solutions else None
    if len(sols.solutions) < required:
        raise TaskFailure(
            f"required {required} solution(s), found {len(sols.solutions)} "
            f"({sols.classification.kind})", )
    return out, traj


def _point_pairs(ex, params, seed, key="endpoint_pairs", box=(-1.0, 1.0)):
    """The pairs listed under params[key], else sample_count pairs drawn from the box;
    at least one pair either way."""
    if key in params:
        if not isinstance(params[key], list) or not params[key]:
            raise ScenarioError(f"parameters.{key} must be a non-empty list of pairs")
        return [_points(p, (ex.system.dim,) * 2, f"each of parameters.{key}")
                for p in params[key]]
    return sample_phase_points(ex.system.dim, params.get("sample_count", 10),
                               params.get("box", box), seed)


def _task_classify(ex, params, scfg, seed):
    out = asdict(classify_theory(ex.system, _point_pairs(ex, params, seed), scfg,
                                 probe_radius=params.get("probe_radius", 1e-2)))
    out["verdict"] = out.pop("kind")
    out["evidence"] = [dict(zip(("u0", "u1", "kind", "count"), e)) for e in out["evidence"]]
    return out, None


def _task_isotropy(ex, params, scfg, seed):
    if params.get("route", "flow") == "flow":
        points = _point_pairs(ex, params, seed, key="points", box=(-1.5, 1.5))
        report = isotropy_defect_flow(ex.system, points, scfg.integrator, seed=seed)
    else:
        report = isotropy_defect_bvp(ex.system, _point_pairs(ex, params, seed), scfg,
                                     fd_step=params.get("fd_step", 1e-5), seed=seed)
    return asdict(report), None


def _task_generating_function(ex, params, scfg, seed):
    u0, u1 = _points(params["endpoints"], (ex.system.dim,) * 2, "parameters.endpoints")
    return asdict(generating_function_check(ex.system, u0, u1, scfg,
                                            branch=params.get("branch", 0),
                                            fd_step=params.get("fd_step", 1e-5))), None


def _task_lambda_study(ex, params, scfg, seed):
    u0, u1 = _points(params["endpoints"], (ex.system.dim,) * 2, "parameters.endpoints")
    out = asdict(topological_limit_study(params["lambdas"], u0, u1, scfg, ex.facts["field"]))
    out["rows"] = [{"lambda": row.pop("lam"), **row} for row in out["rows"]]
    return out, None


def _constraint_from_params(ex, params):
    """The task's constraint, whose sigma must give momenta of the system's dimension."""
    spec = params.get("constraint")
    if not isinstance(spec, dict) or "name" not in spec:
        raise ScenarioError("constrained/gotay tasks need parameters.constraint = {name, ...}")
    extra = {k: v for k, v in spec.items() if k != "name"}
    spec = _built("constraint parameters", make_constraint, spec["name"], **extra)
    if (shape := spec.sigma_at(np.zeros(spec.k_dim)).shape) != (ex.system.dim,):
        raise ScenarioError(f"constraint {spec.name!r} gives momenta of shape {shape}; "
                            f"the system's dimension is {ex.system.dim}")
    return spec


def _task_constrained(ex, params, scfg, seed):
    spec = _constraint_from_params(ex, params)
    u0, e0 = _points((params["u0"], params["e0"]), (ex.system.dim, spec.k_dim),
                     "parameters u0 and e0")
    if scfg.integrator.scheme != "implicit-midpoint":
        raise ScenarioError(f"bad integrator configuration: the constrained integrator steps "
                            f"with the implicit midpoint rule, not {scfg.integrator.scheme!r}")
    try:
        res = integrate_constrained(ex.system, spec, u0, e0, scfg.integrator)
    except UnstableConstraintError as exc:
        raise TaskFailure(f"constraint unstable at t={exc.t}: tangency residual "
                          f"{exc.residual:.6e}") from exc
    out = {
        "status": _status_dict(res.status),
        "u_end": res.trajectory.positions[-1],
        "p_end": res.trajectory.momenta[-1],
        "e_end": res.e_path[-1],
        "energy_drift": res.energy_drift,
        "max_polar_residual": res.max_polar_residual,
        "max_tangency_residual": res.max_tangency_residual,
        "momentum_constraint_drift": 0.0,  # p = sigma(e) holds by construction
    }
    return out, res.trajectory


def _task_gotay(ex, params, scfg, seed):
    spec = _constraint_from_params(ex, params)
    state = params.get("state")
    if not isinstance(state, dict) or not {"u", "p", "lambda", "e"} <= set(state):
        raise ScenarioError("gotay task needs parameters.state = {u, p, lambda, e}")
    r = ex.system.dim
    st = ExtendedState(*_points([state[key] for key in ("u", "p", "lambda", "e")],
                                (r, r, r, spec.k_dim), "parameters.state u, p, lambda, e"))
    out = asdict(gotay_step(ex.system, spec, st))
    del out["kernel_basis"]  # the kernel is reported by its dimension
    return out, None


# Each task's runner and its (needed, optional) parameters.
TASKS = {
    "flow": (_task_flow, {"u0", "p0"}, {"t0", "t1"}),
    "bvp": (_task_bvp, {"endpoints"}, {"require_solutions"}),
    "classify": (_task_classify, set(), {"endpoint_pairs", "sample_count", "box", "probe_radius"}),
    "isotropy": (_task_isotropy, set(),
                 {"route", "points", "endpoint_pairs", "sample_count", "box", "fd_step"}),
    "generating-function": (_task_generating_function, {"endpoints"}, {"branch", "fd_step"}),
    "lambda-study": (_task_lambda_study, {"lambdas", "endpoints"}, set()),
    "constrained": (_task_constrained, {"constraint", "u0", "e0"}, {"gauge"}),
    "gotay": (_task_gotay, {"constraint", "state"}, set()),
}


# ---------------------------------------------------------------------------
# Report assembly and entry points
# ---------------------------------------------------------------------------

def _provenance(scenario, seed):
    canonical = dump_full_precision(to_jsonable(scenario))
    return {
        "package": "phasebound",
        "version": __version__,
        "seed": seed,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def run_scenario(path, out_dir=None, seed=None, step=None):
    """Execute a scenario file; returns (report dict, files written, exit code)."""
    scenario = load_scenario(path)
    seed = scenario.get("seed", 0) if seed is None else int(seed)
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    out_dir = out_dir or os.environ.get(ENV_OUT_DIR) or "."
    integrator = dict(scenario.get("integrator", {}))
    if step is not None:
        integrator["step"] = step
    icfg = _built("integrator configuration", IntegratorConfig, **integrator)
    system = scenario["system"]
    ex = _built("system parameters", lambda: make_example(system["name"], **system["params"]))
    scfg = _built("shooting configuration", _shooting_config, scenario, icfg, ex.system.dim)
    started = time.perf_counter()
    failure = None
    try:
        results, traj = TASKS[scenario["task"]][0](ex, scenario.get("parameters", {}),
                                                   scfg, seed)
    except TaskFailure as exc:
        failure = str(exc)
        results, traj = {"failure": failure}, None
    walltime = time.perf_counter() - started

    report = {
        "scenario": to_jsonable(scenario),
        "results": to_jsonable(results),
        "provenance": _provenance(to_jsonable(scenario), seed),
        "timing": {
            "walltime_s": walltime,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    output = scenario.get("output", {})
    report_path = os.path.join(out_dir, output.get("report", "report.json"))
    written = [report_path]
    os.makedirs(out_dir, exist_ok=True)  # only now: a scenario error leaves no directory
    atomic_write(report_path, dump_full_precision(report) + "\n")
    if traj is not None:
        traj_path = os.path.join(out_dir, output.get("trajectory", "trajectory.csv"))
        write_trajectory_csv(traj_path, traj)
        written.append(traj_path)
    return report, written, (3 if failure else 0)


def run_selftest(strict=False, out_dir=None, seed=0):
    """Run the bundled verification suite; returns (report, exit code)."""
    from .selftest import run_checks

    started = time.perf_counter()
    results = run_checks(tighten=1e6 if strict else 1.0)
    walltime = time.perf_counter() - started
    n_failed = sum(1 for r in results if not r.passed)
    report = {
        "checks": [asdict(r) for r in results],
        "n_checks": len(results),
        "n_failed": n_failed,
        "strict": strict,
        "provenance": _provenance({"task": "selftest", "strict": strict}, seed),
        "timing": {
            "walltime_s": walltime,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write(os.path.join(out_dir, "selftest.json"),
                     dump_full_precision(report) + "\n")
    return report, (1 if n_failed else 0)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phasebound",
        description="Boundary-value and flow diagnostics for Hamiltonian systems on [0,1]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON scenario file")
    p_run.add_argument("scenario", help="path to the scenario file")
    p_run.add_argument("--out", default=None, help="output directory "
                       f"(default ${ENV_OUT_DIR} or the working directory)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed (an integer >= 0)")
    p_run.add_argument("--step", type=float, default=None, help="override the integrator step")

    p_self = sub.add_parser("selftest", help="verify every bundled fact and invariant")
    p_self.add_argument("--strict", action="store_true",
                        help="tighten all tolerances a million-fold (expected to fail; "
                             "demonstrates defect reporting)")
    p_self.add_argument("--out", default=None, help="also write selftest.json here")

    sub.add_parser("list-examples", help="list registered example systems")

    args = parser.parse_args(argv)

    if args.command == "list-examples":
        for name in example_names():
            print(name)
        return 0

    if args.command == "selftest":
        report, code = run_selftest(strict=args.strict, out_dir=args.out)
        for check in report["checks"]:
            flag = "PASS" if check["passed"] else "FAIL"
            print(f"{flag}  {check['name']}  measured={check['measured']:.3e} "
                  f"tol={check['tol']:.3e}")
        print(f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} checks passed")
        return code

    try:
        report, written, code = run_scenario(args.scenario, out_dir=args.out,
                                             seed=args.seed, step=args.step)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=_sys.stderr)
        return 2
    except PhaseboundError as exc:
        print(f"task error: {exc}", file=_sys.stderr)
        return 3
    for path in written:
        print(path)
    if code != 0:
        print(f"task failure: {report['results'].get('failure')}", file=_sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
