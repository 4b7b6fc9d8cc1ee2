"""Oracle checks for every benchmark task, run outside the timed region.

References are closed forms, or re-integration with the public scalar
``integrate_flow`` under the scenario's own integrator config.  Every check
returns a ``Check``; a failing check whose evidence matches a documented
program defect (``KNOWN_DEFECTS``) carries that defect's key.  Such a task
still counts as failed; it only does not make the run incorrect.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from phasebound import IntegratorConfig, integrate_flow, make_example

REINTEGRATION_TOL = 1e-8   # batch shooting vs scalar re-integration, max-norm on u(1)
CLOSED_FORM_P0_TOL = 1e-8  # free-particle p0 = m (u1 - u0), as in the acceptance gate

KNOWN_DEFECTS = {
    "scheme-ignored": (
        "ROADMAP item 3: flow_batch ignores IntegratorConfig.scheme, so shooting "
        "steps with the implicit midpoint rule when the scenario asks for "
        "stormer-verlet; the branch re-integrates onto u1 with the midpoint rule "
        "but not with the requested scheme"),
    "floor-unaware-verdict": (
        "ROADMAP item 5: endpoints on the cotangent-lift base-flow graph are "
        "reported NoSolution, because newton_tol lies below the O(h^2) error of "
        "the time-1 map and every seed is retired"),
}


@dataclass
class Check:
    name: str
    ok: bool
    err: Optional[float] = None   # deviation from the reference, when numeric
    detail: str = ""
    known_defect: Optional[str] = None


@dataclass
class TaskVerdict:
    task_id: str
    template: str
    checks: list

    @property
    def failed(self):
        return any(not c.ok for c in self.checks)

    @property
    def unexpected(self):
        return [c for c in self.checks if not c.ok and c.known_defect is None]

    @property
    def max_err(self):
        errs = [c.err for c in self.checks if c.err is not None]
        return max(errs) if errs else None


def _within(name, err, tol, detail=""):
    ok = bool(np.isfinite(err) and err <= tol)
    return Check(name, ok, float(err), detail or f"err {err:.3e} (tol {tol:.0e})")


def _system(scenario, **override):
    params = dict(scenario["system"].get("params", {}), **override)
    return make_example(scenario["system"]["name"], **params).system


def _icfg(scenario):
    return IntegratorConfig(**scenario.get("integrator", {}))


def _landing_error(sys, icfg, u0, p0, u1):
    """Max-norm miss of u(1) from u1 (angles wrapped) for a scalar re-integration."""
    res = integrate_flow(sys, u0, p0, icfg)
    if not res.completed:
        return math.inf
    return float(np.max(np.abs(sys.config.wrap_diff(res.trajectory.positions[-1], u1))))


def _reintegration_check(scenario, sys, u0, u1, momenta, name="branches re-integrate onto u1"):
    if not momenta:
        return Check(name, True, None, "no branch to re-integrate")
    icfg = _icfg(scenario)
    errs = [_landing_error(sys, icfg, u0, p0, u1) for p0 in momenta]
    check = _within(name, max(errs), REINTEGRATION_TOL,
                    f"{len(errs)} branch(es), worst miss {max(errs):.3e} "
                    f"(tol {REINTEGRATION_TOL:.0e}, scheme {icfg.scheme})")
    if not check.ok and icfg.scheme == "stormer-verlet":
        midpoint = replace(icfg, scheme="implicit-midpoint")
        if all(_landing_error(sys, midpoint, u0, p0, u1) <= REINTEGRATION_TOL
               for p0 in momenta):
            check.known_defect = "scheme-ignored"
    return check


def _finite(obj, skip=("jacobian_cond",)):
    """True when every number in a report subtree is finite.

    Shooting-matrix condition numbers are legitimately infinite at singular
    branches, so they are skipped.
    """
    if isinstance(obj, dict):
        return all(_finite(v) for k, v in obj.items() if k not in skip)
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], np.array([[float(v) for v in row] for row in rows[1:]])
    r = (len(header) - 1) // 2
    return body[:, 0], body[:, 1:1 + r], body[:, 1 + r:]


# ---------------------------------------------------------------------------
# Per-task checks
# ---------------------------------------------------------------------------

def _check_bvp(task, res, files):
    sc, exp = task.scenario, task.expect
    u0, u1 = sc["parameters"]["endpoints"]
    sys = _system(sc)
    branches = res["branches"]
    kind = res["classification"]["kind"]
    checks = [_reintegration_check(sc, sys, u0, u1, [b["p0"] for b in branches])]
    if "min_branches" in exp:
        c = Check("branch count", len(branches) >= exp["min_branches"], None,
                  f"{len(branches)} branch(es) ({kind}), need >= {exp['min_branches']}")
        if not c.ok and kind == "NoSolution" and task.template == "bvp/cotangent-lift/on-graph":
            c.known_defect = "floor-unaware-verdict"
        checks.append(c)
    if "classification" in exp:
        checks.append(Check("classification", kind == exp["classification"], None,
                            f"{kind}, expected {exp['classification']}"))
    if "classification_in" in exp:
        checks.append(Check("classification", kind in exp["classification_in"], None,
                            f"{kind}, expected one of {exp['classification_in']}"))
    if "p0_any" in exp and branches:
        err = min(float(np.max(np.abs(np.subtract(b["p0"], exp["p0_any"])))) for b in branches)
        checks.append(_within("closed-form branch p0", err, exp["p0_any_tol"]))
    if "p0" in exp and branches:
        err = float(np.max(np.abs(np.subtract(branches[0]["p0"], exp["p0"]))))
        checks.append(_within("p0 closed form", err, CLOSED_FORM_P0_TOL))
    return checks


def _check_classify(task, res, files):
    exp = task.expect
    pairs = task.scenario["parameters"]["endpoint_pairs"]
    evidence = res["evidence"]
    checks = [Check("verdict", res["verdict"] == exp["verdict"], None,
                    f"{res['verdict']}, expected {exp['verdict']}")]
    bad = [e for e in evidence
           if e["kind"] != exp["evidence_kind"] or e["count"] < exp["min_count"]]
    checks.append(Check("evidence", len(evidence) == len(pairs) and not bad, None,
                        f"{len(evidence)} pair(s); expected every pair {exp['evidence_kind']} "
                        f"with >= {exp['min_count']} branch(es); mismatched: "
                        f"{[(e['kind'], e['count']) for e in bad]}"))
    return checks


def _check_generating_function(task, res, files):
    sc, exp = task.scenario, task.expect
    u0, u1 = sc["parameters"]["endpoints"]
    checks = [
        _within("dW/du1 = p1", res["defect_u1"], exp["defect_tol"]),
        _within("dW/du0 = -p0", res["defect_u0"], exp["defect_tol"]),
        _within("mixed-derivative symmetry", res["symmetry_defect"], exp["symmetry_tol"]),
        _reintegration_check(sc, _system(sc), u0, u1, [res["p0"]]),
    ]
    if "p0" in exp:
        err = float(np.max(np.abs(np.subtract(res["p0"], exp["p0"]))))
        checks.append(_within("p0 closed form", err, CLOSED_FORM_P0_TOL))
    return checks


def _check_isotropy(task, res, files):
    exp = task.expect
    return [
        Check("samples", res["samples"] == exp["samples"] and not res["inapplicable"], None,
              f"{res['samples']} usable sample(s), {len(res['inapplicable'])} inapplicable, "
              f"expected {exp['samples']}"),
        _within("isotropy defect", res["max_defect"], exp["defect_tol"]),
        Check("rank 2r", res["rank_estimate"] == exp["rank"], None,
              f"rank {res['rank_estimate']}, expected {exp['rank']}"),
    ]


def _check_lambda_study(task, res, files):
    sc, exp = task.scenario, task.expect
    u0, u1 = sc["parameters"]["endpoints"]
    rows = res["rows"]
    checks = [Check("rows solved", len(rows) == len(sc["parameters"]["lambdas"])
                    and all(r["status"] == "ok" for r in rows), None,
                    f"statuses {[r['status'] for r in rows]}")]
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if ok_rows:
        rel = max(abs(r["p0"][0] - exp["p0_times_lambda"] / r["lambda"])
                  / abs(exp["p0_times_lambda"] / r["lambda"]) for r in ok_rows)
        checks.append(_within("p0 = (u1 - u0 - 1)/lambda", rel, exp["rel_tol"]))
        checks.append(_within("second-order residual",
                              max(r["second_order_residual"] for r in ok_rows),
                              exp["second_order_tol"]))
        miss = max(_landing_error(_system(sc, lam=r["lambda"]), _icfg(sc), u0, r["p0"], u1)
                   for r in ok_rows)
        checks.append(_within("branches re-integrate onto u1", miss, REINTEGRATION_TOL))
    slope = res["momentum_slope"]
    checks.append(_within("momentum slope -1", math.inf if slope is None
                          else abs(slope - exp["slope"]), exp["slope_tol"]))
    return checks


def _csv_matches_report(res, files):
    t, u, p = _read_csv(files[1])
    last = float(np.max(np.abs(np.concatenate([u[-1] - res["u_end"], p[-1] - res["p_end"]]))))
    ok = len(t) == res.get("n_nodes", len(t)) and last == 0.0
    return Check("CSV matches report", ok, None,
                 f"{len(t)} rows, last-row difference {last:.3e}"), (t, u, p)


def _check_flow(task, res, files):
    sc, exp = task.scenario, task.expect
    params = sc["parameters"]
    csv_check, (t, u, p) = _csv_matches_report(res, files)
    checks = [csv_check]
    status = res["status"]["kind"]
    if "t_escape" in exp:
        checks.append(Check("escape detected", status == "BlowUp", None, f"status {status}"))
        if status == "BlowUp":
            checks.append(_within("escape time 2/u0",
                                  abs(res["status"]["t_escape"] - exp["t_escape"]),
                                  exp["t_escape_tol"]))
        return checks
    checks.append(Check("completed", status == "Completed", None, f"status {status}"))
    if "energy_tol" in exp:
        sys = _system(sc)
        h = np.array([sys.hamiltonian(tk, uk, pk) for tk, uk, pk in zip(t, u, p)])
        drift = float(np.max(np.abs(h - h[0])))
        checks.append(_within("energy drift from CSV", drift, exp["energy_tol"]))
        checks.append(_within("reported energy drift", abs(drift - res["energy_drift"]), 1e-12))
    if "great_circle_tol" in exp:
        s = float(np.linalg.norm(params["p0"]))
        u_ref = (np.cos(s * t)[:, None] * np.asarray(params["u0"])
                 + (np.sin(s * t) / s)[:, None] * np.asarray(params["p0"]))
        err = float(max(np.max(np.abs(u - u_ref)), np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)),
                        np.max(np.abs(np.sum(u * p, axis=1))),
                        np.max(np.abs(np.linalg.norm(p, axis=1) - s))))
        checks.append(_within("unit-speed great circle", err, exp["great_circle_tol"]))
    if "base_flow_tol" in exp:
        u_ref = params["u0"] * np.exp(t)
        p_ref = params["p0"] * np.exp(-t)
        scale = 1.0 + abs(params["u0"]) * math.e + abs(params["p0"])
        err = float(max(np.max(np.abs(u[:, 0] - u_ref)), np.max(np.abs(p[:, 0] - p_ref))))
        checks.append(_within("u(t) = u0 e^t, p(t) = p0 e^-t", err / scale, exp["base_flow_tol"]))
    return checks


def _check_constrained(task, res, files):
    sc, exp = task.scenario, task.expect
    params = sc["parameters"]
    csv_check, (t, u, p) = _csv_matches_report(res, files)
    checks = [csv_check, Check("completed", res["status"]["kind"] == "Completed", None,
                               f"status {res['status']['kind']}")]
    if "scalar_flow_tol" in exp:
        ref = integrate_flow(_system(sc), params["u0"], params["e0"], _icfg(sc)).trajectory
        err = float(max(np.max(np.abs(ref.positions - u)), np.max(np.abs(ref.momenta - p))))
        checks.append(_within("identity constraint = plain flow", err, exp["scalar_flow_tol"]))
    if "closed_form_tol" in exp:
        e0 = params["e0"]
        direction = np.array([math.cos(e0), math.sin(e0)])
        u_ref = np.asarray(params["u0"]) + t[:, None] * direction
        err = float(max(np.max(np.abs(u - u_ref)), np.max(np.abs(p - direction)),
                        abs(res["e_end"][0] - e0)))
        checks.append(_within("u(t) = u0 + t (cos e0, sin e0)", err, exp["closed_form_tol"]))
        checks.append(_within("energy drift", res["energy_drift"], exp["energy_tol"]))
    return checks


def _check_gotay(task, res, files):
    exp = task.expect
    st = task.scenario["parameters"]["state"]
    e = st["e"][0]
    sigma = np.array([math.cos(e), math.sin(e)])
    polar = -st["lambda"][0] * math.sin(e) + st["lambda"][1] * math.cos(e)
    checks = [
        Check("kernel dimension", res["kernel_dim"] == exp["kernel_dim"], None,
              f"{res['kernel_dim']}, expected {exp['kernel_dim']}"),
        _within("primary residual p - sigma(e)",
                float(np.max(np.abs(np.subtract(res["primary_residual"], np.subtract(st["p"], sigma))))),
                exp["tol"]),
        _within("polar residual Lambda . dsigma", abs(res["polar_residual"][0] - polar), exp["tol"]),
        Check("stability verdict", res["stable"] == exp["stable"]
              and res["terminated"] == exp["stable"], None,
              f"stable={res['stable']}, expected {exp['stable']}"),
    ]
    if exp["stable"]:
        checks.append(_within("zero constraint velocity",
                              float(np.max(np.abs(res["d_velocity"]))), exp["tol"]))
    elif res["secondary_direction"] is not None:
        err = float(max(np.max(np.abs(np.subtract(res["secondary_direction"], sigma))),
                        abs(res["tangency_residual"] - np.max(np.abs(sigma)))))
        checks.append(_within("secondary direction sigma(e)", err, exp["tol"]))
    else:
        checks.append(Check("secondary direction sigma(e)", False, None, "missing"))
    return checks


_CHECKS = {
    "bvp": _check_bvp,
    "classify": _check_classify,
    "generating-function": _check_generating_function,
    "isotropy": _check_isotropy,
    "lambda-study": _check_lambda_study,
    "flow": _check_flow,
    "constrained": _check_constrained,
    "gotay": _check_gotay,
}


def check_task(task, outcome):
    """Verdict for one executed task.

    ``outcome`` is ``(report, files, exit_code)`` from ``run_scenario``, or an
    exception instance when the call raised.
    """
    if isinstance(outcome, BaseException):
        return TaskVerdict(task.task_id, task.template,
                           [Check("ran", False, None, f"raised {outcome!r}")])
    report, files, code = outcome
    res = report["results"]
    if code != 0 or "failure" in res:
        return TaskVerdict(task.task_id, task.template,
                           [Check("ran", False, None, f"exit {code}: {res.get('failure')}")])
    checks = [Check("finite output", _finite(res), None, "every reported number finite")]
    try:
        checks += _CHECKS[task.scenario["task"]](task, res, files)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        checks.append(Check("report readable", False, None, f"oracle could not read: {exc!r}"))
    return TaskVerdict(task.task_id, task.template, checks)


def branch_counts(task, outcome):
    """Branches found per boundary problem whose report states a count."""
    if isinstance(outcome, BaseException):
        return []
    res = outcome[0]["results"]
    if task.scenario["task"] == "bvp" and "branches" in res:
        return [len(res["branches"])]
    if task.scenario["task"] == "classify" and "evidence" in res:
        return [e["count"] for e in res["evidence"]]
    return []
