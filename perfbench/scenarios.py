"""Seeded scenario generator for the three benchmark workloads.

A workload is a repeating *pass*: a fixed, interleaved list of task
templates, each instantiated with endpoints and initial states drawn from a
stream seeded by (workload, seed, pass index).  The same seed therefore gives
the same scenarios, and every pass has the same mix of task kinds, so a run
made of whole passes measures the same mix whatever its length.

Each task carries the CLI scenario object (what the program receives) and an
``expect`` dict (what the oracle checks it against; the program never sees
it).  Stated sizes are in ``SIZES``: the CLI defaults for ``multistart``;
for ``continuation`` the step and seed counts at which the repository's tests
pin the same tolerances; h = 1e-3 flows for ``trajectory``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("multistart", "continuation", "trajectory")

# Stated sizes.  "full" is what the benchmark measures; "tiny" is for the
# benchmark's own tests and is never reported as a result.
SIZES = {
    "full": {
        "multistart": {"step": 1e-3, "seed_count": 32},
        "continuation": {"step": 1e-3, "classify_step": 2e-3, "seed_count": 12,
                         "lambda_seed_count": 8, "lambdas": [1.0, 0.5, 0.25, 0.125],
                         "classify_pairs": {"pendulum": 1, "free-particle": 2},
                         "isotropy_pairs": 1},
        "trajectory": {"step": 1e-3, "isotropy_points": 4},
    },
    "tiny": {
        "multistart": {"step": 2e-2, "seed_count": 4},
        "continuation": {"step": 2e-2, "classify_step": 2e-2, "seed_count": 4,
                         "lambda_seed_count": 4, "lambdas": [1.0, 0.5],
                         "classify_pairs": {"pendulum": 1, "free-particle": 1},
                         "isotropy_pairs": 1},
        "trajectory": {"step": 2e-2, "isotropy_points": 2},
    },
}

# Passes a traced run makes.  Fixed, so that counts repeat exactly for a seed.
TRACE_PASSES = {"multistart": 1, "continuation": 1, "trajectory": 4}


@dataclass
class Task:
    """One scenario for ``phasebound.cli.run_scenario`` plus its oracle data."""

    task_id: str
    template: str
    scenario: dict
    expect: dict = field(default_factory=dict)


def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(-math.pi, math.pi)
    s = math.sqrt(1.0 - z * z)
    return [s * math.cos(phi), s * math.sin(phi), z]


def _tangent(u, speed, rng):
    """A vector of length ``speed`` orthogonal to the unit vector u."""
    w = _unit_vector(rng)
    dot = sum(a * b for a, b in zip(u, w))
    v = [b - dot * a for a, b in zip(u, w)]
    norm = math.sqrt(sum(c * c for c in v))
    return [speed * c / norm for c in v]


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# multistart: bvp tasks at the CLI's default shooting and step settings
# ---------------------------------------------------------------------------

def _multistart(rng, sz):
    integ = {"step": sz["step"]}
    verlet = {"scheme": "stormer-verlet", "step": sz["step"]}
    shoot = {"seed_count": sz["seed_count"]}

    def bvp(template, system, endpoints, expect, integrator=integ):
        return template, {"system": system, "task": "bvp", "integrator": dict(integrator),
                          "shooting": dict(shoot),
                          "parameters": {"endpoints": endpoints}}, expect

    m = rng.uniform(0.5, 2.0)
    fu0, fu1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    vu0, vu1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    q_u0 = rng.uniform(0.8, 1.2)
    lift_on = _signed(rng, 0.5, 1.5)
    lift_off = rng.uniform(-1.0, 1.0)
    return [
        bvp("bvp/pendulum/quarter-turn", {"name": "pendulum", "params": {}},
            [0.0, math.pi / 2], {"min_branches": 2}),
        # Endpoints on the zero-energy decaying curve u(t) = 2 u0 / (2 + u0 t),
        # whose momentum p0 = -u0^2/2 one branch must reproduce.
        bvp("bvp/quartic", {"name": "quartic", "params": {}},
            [q_u0, 2.0 * q_u0 / (2.0 + q_u0)],
            {"min_branches": 1, "p0_any": [-0.5 * q_u0 ** 2], "p0_any_tol": 1e-6}),
        bvp("bvp/free-particle", {"name": "free-particle", "params": {"m": m}},
            [fu0, fu1], {"classification": "Unique", "p0": [m * (fu1 - fu0)]}),
        # The sphere pairs are the acceptance gate's.  The cost of a sphere
        # solve depends strongly on where the pair sits (1.6 s to 19 s over
        # random antipodal pairs, 7 s to 26 s over random generic ones), which
        # would make the pass length seed-dominated.
        bvp("bvp/sphere/antipodal", {"name": "sphere", "params": {}},
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], {"classification": "Continuum"}),
        bvp("bvp/cotangent-lift/on-graph", {"name": "cotangent-lift", "params": {}},
            [lift_on, lift_on * math.e], {"min_branches": 1}),
        bvp("bvp/pendulum/stormer-verlet", {"name": "pendulum", "params": {}},
            [rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)], {"min_branches": 2},
            integrator=verlet),
        bvp("bvp/sphere/generic", {"name": "sphere", "params": {}},
            [[0.0, 0.0, 1.0], [math.sin(1.0), 0.0, math.cos(1.0)]],
            {"classification_in": ["Unique", "MultipleIsolated"]}),
        bvp("bvp/free-particle/stormer-verlet", {"name": "free-particle", "params": {}},
            [vu0, vu1], {"classification": "Unique", "p0": [vu1 - vu0]}, integrator=verlet),
        bvp("bvp/cotangent-lift/off-graph", {"name": "cotangent-lift", "params": {}},
            [lift_off, lift_off * math.e + _signed(rng, 0.3, 1.0)],
            {"classification": "NoSolution"}),
        bvp("bvp/pendulum/generic", {"name": "pendulum", "params": {}},
            [rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)], {"min_branches": 2}),
    ]


# ---------------------------------------------------------------------------
# continuation: warm-started families of small solves
# ---------------------------------------------------------------------------

def _continuation(rng, sz):
    integ = {"step": sz["step"]}
    coarse = {"step": sz["classify_step"]}
    shoot = {"seed_count": sz["seed_count"]}

    def pair(lo, hi):
        return [[rng.uniform(lo, hi)], [rng.uniform(lo, hi)]]

    def scen(task, system, params, integrator=integ, shooting=shoot):
        return {"system": system, "task": task, "integrator": dict(integrator),
                "shooting": dict(shooting), "parameters": params}

    gf_u0, gf_u1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    lu0 = rng.uniform(-1.0, 1.0)
    lu1 = lu0 + 1.0 + _signed(rng, 0.5, 1.5)
    return [
        # The pair at which the shooting tests pin these tolerances; over
        # random pairs this task's cost spreads by a third, and it sets the
        # workload's tail.
        ("generating-function/pendulum",
         scen("generating-function", {"name": "pendulum", "params": {}},
              {"endpoints": [0.0, math.pi / 2]}),
         {"defect_tol": 1e-5, "symmetry_tol": 1e-4}),
        ("isotropy-bvp/free-particle",
         scen("isotropy", {"name": "free-particle", "params": {}},
              {"route": "bvp", "endpoint_pairs": [pair(-2.0, 2.0)
                                                  for _ in range(sz["isotropy_pairs"])]}),
         {"defect_tol": 1e-8, "rank": 2, "samples": sz["isotropy_pairs"]}),
        ("classify/pendulum",
         scen("classify", {"name": "pendulum", "params": {}},
              {"endpoint_pairs": [pair(-2.5, 2.5)
                                  for _ in range(sz["classify_pairs"]["pendulum"])]},
              integrator=coarse),
         {"verdict": "LocallyDirichlet", "evidence_kind": "MultipleIsolated",
          "min_count": 2}),
        ("lambda-study/lambda-family",
         scen("lambda-study", {"name": "lambda-family",
                               "params": {"field": "constant", "c": 1.0}},
              {"lambdas": list(sz["lambdas"]), "endpoints": [lu0, lu1]},
              shooting={"seed_count": sz["lambda_seed_count"]}),
         {"p0_times_lambda": lu1 - lu0 - 1.0, "rel_tol": 1e-6, "slope": -1.0,
          "slope_tol": 0.05, "second_order_tol": 1e-6}),
        ("generating-function/free-particle",
         scen("generating-function", {"name": "free-particle", "params": {}},
              {"endpoints": [gf_u0, gf_u1]}),
         {"defect_tol": 1e-6, "symmetry_tol": 1e-6, "p0": [gf_u1 - gf_u0]}),
        ("classify/free-particle",
         scen("classify", {"name": "free-particle", "params": {}},
              {"endpoint_pairs": [pair(-2.0, 2.0)
                                  for _ in range(sz["classify_pairs"]["free-particle"])]},
              integrator=coarse),
         {"verdict": "Dirichlet", "evidence_kind": "Unique", "min_count": 1}),
    ]


# ---------------------------------------------------------------------------
# trajectory: scalar flows, constraint integration, CSV output; no shooting
# ---------------------------------------------------------------------------

def _trajectory(rng, sz):
    integ = {"step": sz["step"]}

    def scen(task, system, params):
        return {"system": system, "task": task, "integrator": dict(integ),
                "parameters": params}

    q_u0 = rng.uniform(2.5, 4.5)
    l_u0, l_p0 = _signed(rng, 0.5, 1.5), rng.uniform(-1.5, 1.5)
    e_circle = rng.uniform(-math.pi, math.pi)
    e_gotay = rng.uniform(-math.pi, math.pi)
    plane = {"name": "free-particle", "params": {"dim": 2}}
    lift_plane = {"name": "cotangent-lift", "params": {"dim": 2}}
    gotay_state = {"u": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                   "p": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                   "lambda": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                   "e": [e_gotay]}
    points = [[[rng.uniform(-1.5, 1.5)], [rng.uniform(-1.5, 1.5)]]
              for _ in range(sz["isotropy_points"])]
    s_u0 = _unit_vector(rng)
    s_p0 = _tangent(s_u0, rng.uniform(0.5, 3.0), rng)
    # Nine templates, so that the median task sits inside one template's
    # cluster of times rather than between two.
    return [
        ("flow/pendulum",
         scen("flow", {"name": "pendulum", "params": {}},
              {"u0": rng.uniform(-math.pi, math.pi), "p0": rng.uniform(-1.5, 1.5)}),
         {"energy_tol": 1e-6}),
        ("flow/quartic/escape",
         scen("flow", {"name": "quartic", "params": {}}, {"u0": q_u0, "p0": 0.5 * q_u0 ** 2}),
         {"t_escape": 2.0 / q_u0, "t_escape_tol": 5e-2}),
        ("flow/cotangent-lift",
         scen("flow", {"name": "cotangent-lift", "params": {}}, {"u0": l_u0, "p0": l_p0}),
         {"base_flow_tol": 1e-6}),
        ("flow/sphere",
         scen("flow", {"name": "sphere", "params": {}}, {"u0": s_u0, "p0": s_p0}),
         {"great_circle_tol": 1e-12}),
        ("isotropy-flow/pendulum",
         scen("isotropy", {"name": "pendulum", "params": {}},
              {"route": "flow", "points": points}),
         {"defect_tol": 1e-8, "rank": 2, "samples": len(points)}),
        ("constrained/pendulum/identity",
         scen("constrained", {"name": "pendulum", "params": {}},
              {"constraint": {"name": "identity"}, "u0": rng.uniform(-1.0, 1.0),
               "e0": rng.uniform(-1.5, 1.5)}),
         {"scalar_flow_tol": 1e-10}),
        ("constrained/free-particle-2d/circle",
         scen("constrained", plane,
              {"constraint": {"name": "circle"},
               "u0": [rng.uniform(-1, 1), rng.uniform(-1, 1)], "e0": e_circle}),
         {"closed_form_tol": 1e-10, "energy_tol": 1e-8}),
        ("gotay/free-particle-2d/circle",
         scen("gotay", plane, {"constraint": {"name": "circle"}, "state": gotay_state}),
         {"stable": True, "kernel_dim": 3, "tol": 1e-12}),
        ("gotay/cotangent-lift-2d/circle",
         scen("gotay", lift_plane, {"constraint": {"name": "circle"}, "state": gotay_state}),
         {"stable": False, "kernel_dim": 3, "tol": 1e-12}),
    ]


_BUILDERS = {"multistart": _multistart, "continuation": _continuation,
             "trajectory": _trajectory}


def make_pass(workload, seed, pass_index, size="full"):
    """The tasks of one pass; identical for identical (workload, seed, pass_index)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"phasebound-bench/{workload}/{int(seed)}/{int(pass_index)}")
    sz = SIZES[size][workload]
    tasks = []
    for k, (template, scenario, expect) in enumerate(_BUILDERS[workload](rng, sz)):
        task_id = f"p{pass_index}.t{k:02d}"
        scenario["seed"] = rng.randrange(2 ** 31)
        scenario["output"] = {"report": f"{task_id}.json", "trajectory": f"{task_id}.csv"}
        tasks.append(Task(task_id, template, scenario, expect))
    return tasks


def write_pass(workload, seed, pass_index, size, directory):
    """Write one pass's scenario files into ``directory``; returns its tasks."""
    tasks = make_pass(workload, seed, pass_index, size)
    for task in tasks:
        (directory / f"{task.task_id}.json").write_text(json.dumps(task.scenario))
    return tasks


def warmup_scenario():
    """A small bvp touching the cli, shooting, integrators and core layers."""
    return {"system": {"name": "free-particle", "params": {}}, "task": "bvp",
            "integrator": {"step": 1e-2}, "shooting": {"seed_count": 4},
            "parameters": {"endpoints": [0.0, 1.0]}, "seed": 0,
            "output": {"report": "warmup.json", "trajectory": "warmup.csv"}}
