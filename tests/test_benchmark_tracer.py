"""The benchmark's tracer still reads every call it hooks.

``perfbench/tracer.py`` wraps phasebound functions from outside and reads
their arguments by name and their results by position, so a renamed
parameter or a moved result entry would empty its per-layer metrics without
any error.  Here it is loaded read-only, installed on the modules the
benchmark traces, and run over one scenario of each kind of flow it times.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

from phasebound import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STEP = {"integrator": {"step": 1e-2}}
SCENARIOS = {
    "pendulum-bvp": {"system": "pendulum", "task": "bvp", "shooting": {"seed_count": 4},
                     "parameters": {"endpoints": [0.0, 1.5707963267948966]}},
    "sphere-bvp": {"system": "sphere", "task": "bvp", "shooting": {"seed_count": 4},
                   "parameters": {"endpoints": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]}},
    "quartic-escape": {"system": "quartic", "task": "flow",
                       "parameters": {"u0": 4.0, "p0": 8.0}},
    "pendulum-isotropy-flow": {"system": "pendulum", "task": "isotropy",
                               "parameters": {"route": "flow", "sample_count": 2}},
    "pendulum-constrained": {"system": "pendulum", "task": "constrained",
                             "parameters": {"constraint": {"name": "identity"},
                                            "u0": [0.3], "e0": [0.5]}},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def layer_modules():
    """``LAYER_MODULES`` of perfbench/run.py, read from its source without importing it."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYER_MODULES":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no LAYER_MODULES")


def test_every_hooked_call_is_read(tmp_path):
    tracer = load_tracer()
    modules = {name: sys.modules[f"phasebound.{name}"] for name in layer_modules()}
    assert len(modules) == 7
    originals = {name: vars(mod).copy() for name, mod in modules.items()}
    tr = tracer.Tracer()
    try:
        tr.install(modules)
        for name, scenario in SCENARIOS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**scenario, **STEP}))
            tr.task = name
            report, _, code = cli.run_scenario(str(path), out_dir=str(tmp_path / name))
            assert code == 0 and "failure" not in report["results"], name
    finally:
        tr.uninstall()
    assert not tr.missing
    assert not tr.info_errors
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in originals[name].items()), name
    metrics = tracer.layer_metrics(tr, 0.0)
    flow_batch = {k: v for k, v in metrics.items() if k.startswith("integrators.flow_batch.")}
    assert len(flow_batch) == 8 and all(v > 0 for v in flow_batch.values()), flow_batch
    assert metrics["shooting.seed_yield"] > 0
