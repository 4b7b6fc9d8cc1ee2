"""Scenario runner: schema validation, outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasebound
from phasebound.cli import (
    _csv_rows,
    _fmt_float,
    dump_full_precision,
    load_scenario,
    main,
    run_scenario,
    ScenarioError,
    write_trajectory_csv,
)
from phasebound.core import TimeGrid, Trajectory
from phasebound.errors import NotSeparableError
from phasebound.selftest import run_checks
from phasebound.systems import SelfCheck


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strip_timing(report):
    rep = dict(report)
    rep.pop("timing", None)
    return rep


PLANAR = {"system": {"name": "free-particle", "params": {"dim": 2}}}
NAN, INF = float("nan"), float("inf")


def gotay_state(**changed):
    """A gotay scenario on the plane with the circle constraint, some state values changed."""
    state = {"u": [0.0, 0.0], "p": [1.0, 0.0], "lambda": [0.0, 0.0], "e": [0.0], **changed}
    return {**PLANAR, "task": "gotay",
            "parameters": {"constraint": {"name": "circle"}, "state": state}}


def fresh_python(*args):
    """A new interpreter run with this checkout's phasebound first on its path."""
    src = str(Path(phasebound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def key_paths(obj, prefix=""):
    """Every key path of a report's nested dicts; list items share the path ``key[]``."""
    if isinstance(obj, dict):
        return set().union(*({prefix + k} | key_paths(v, prefix + k + ".")
                             for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(set(), *(key_paths(v, prefix[:-1] + "[].") for v in obj))
    return set()


class TestSchema:
    def test_unknown_task_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"system": "free-particle", "task": "explode"})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_top_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"system": "free-particle", "task": "flow",
                                         "frobnicate": 1})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_parameter_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle", "task": "flow",
            "parameters": {"u0": 0.0, "p0": 1.0, "bogus": 2}})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_system_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"system": "perpetuum-mobile", "task": "flow"})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_exit_code_2_and_no_outputs(self, tmp_path):
        path = write_scenario(tmp_path, {"system": "free-particle", "task": "explode"})
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_bad_shooting_configuration_is_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"system": "free-particle", "task": "bvp",
                                         "shooting": {"seed_count": 0},
                                         "parameters": {"endpoints": [0.0, 2.0]}})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "bad shooting configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("section, setting", [
        ("shooting", {"distinctness_radius": float("nan")}),
        ("shooting", {"distinctness_radius": float("inf")}),
        ("shooting", {"seed_box": [-float("inf"), 6.0]}),
        ("integrator", {"newton_tol": float("inf")}),
        ("integrator", {"blowup_threshold": float("inf")}),
        ("shooting", {"seeds": [float("nan"), 1.0]}),
    ], ids=["radius-nan", "radius-infinite", "seed-box-infinite", "integrator-tol-infinite",
            "blowup-threshold-infinite", "seed-nan"])
    def test_non_finite_settings_are_exit_2_with_nothing_written(self, tmp_path, capsys,
                                                                  section, setting):
        # written as JSON NaN and Infinity, which json.load reads as floats
        payload = {"system": "pendulum", "task": "bvp", "integrator": {"step": 1e-2},
                   "shooting": {"seed_count": 8}, "parameters": {"endpoints": [0.0, np.pi / 2]}}
        payload[section] = {**payload[section], **setting}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload), "--out", str(out)]) == 2
        assert f"bad {section} configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, params", [
        ("pendulum", {"k": float("nan")}), ("pendulum", {"m": float("nan")}),
        ("free-particle", {"m": float("nan")}), ("lambda-family", {"lam": float("nan")}),
        ("cotangent-lift", {"scale": float("nan")}), ("lambda-family", {"c": float("nan")}),
    ], ids=["pendulum-k", "pendulum-m", "free-particle-m", "lambda-family-lam",
            "cotangent-lift-scale", "lambda-family-c"])
    def test_nan_system_parameters_are_exit_2_with_nothing_written(self, tmp_path, capsys,
                                                                   name, params):
        # written as JSON NaN, which json.load reads as a float
        payload = {"system": {"name": name, "params": params}, "task": "bvp",
                   "integrator": {"step": 1e-2}, "shooting": {"seed_count": 4},
                   "parameters": {"endpoints": [0.0, 1.0]}}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload), "--out", str(out)]) == 2
        assert "bad system parameters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"system": "free-particle", "task": "bvp", "parameters": {"endpoints": [NAN, 1.0]}},
        {"system": "free-particle", "task": "classify",
         "parameters": {"endpoint_pairs": [[0.0, 1.0], [0.0, NAN]]}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "flow", "points": [[0.1, 0.2], [NAN, 0.2]]}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "flow", "points": [[0.1, INF]]}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "bvp", "endpoint_pairs": [[NAN, 1.0]]}},
        {"system": {"name": "lambda-family", "params": {"field": "constant", "c": 1.0}},
         "task": "lambda-study", "parameters": {"lambdas": [1.0], "endpoints": [0.0, NAN]}},
        {"system": "free-particle", "task": "flow", "parameters": {"u0": NAN, "p0": 1.0}},
        {"system": "free-particle", "task": "flow", "parameters": {"u0": 0.0, "p0": INF}},
        {"system": "free-particle", "task": "generating-function",
         "parameters": {"endpoints": [0.0, NAN]}},
        {**PLANAR, "task": "constrained",
         "parameters": {"constraint": {"name": "circle"}, "u0": [NAN, 0.0], "e0": [0.0]}},
        {**PLANAR, "task": "constrained",
         "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0], "e0": [INF]}},
        gotay_state(p=[1.0, NAN]),
    ], ids=["bvp-endpoint", "classify-pair", "isotropy-flow-point-nan",
            "isotropy-flow-point-infinite", "isotropy-bvp-pair", "lambda-study-endpoint",
            "flow-u0-nan", "flow-p0-infinite", "generating-function-endpoint",
            "constrained-u0-nan", "constrained-e0-infinite", "gotay-state"])
    def test_non_finite_points_are_exit_2_with_nothing_written(self, tmp_path, capsys,
                                                                payload):
        # written as JSON NaN and Infinity, which json.load reads as floats
        payload = {"integrator": {"step": 1e-2}, "shooting": {"seed_count": 4}, **payload}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"system": "free-particle", "task": "bvp", "shooting": {"seed_box": [1.0]},
         "parameters": {"endpoints": [0.0, 1.0]}},
        {"system": "free-particle", "task": "bvp", "shooting": {"seed_box": [-1.0, 0.0, 1.0]},
         "parameters": {"endpoints": [0.0, 1.0]}},
        {"system": "sphere", "task": "bvp", "shooting": {"seeds": [[0.0, 1.0]]},
         "parameters": {"endpoints": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]}},
        {"system": "free-particle", "task": "bvp", "parameters": {"endpoints": [0.0]}},
        {"system": "free-particle", "task": "classify", "parameters": {"sample_count": 0}},
        {"system": "free-particle", "task": "flow",
         "parameters": {"u0": 0.0, "p0": 1.0, "t0": 0.5, "t1": 0.25}},
        {"system": "free-particle", "task": "flow",
         "parameters": {"u0": 0.0, "p0": 1.0, "t1": "1"}},
        {"system": "pendulum", "task": "flow", "parameters": {"u0": [0.1, 0.2], "p0": 1.0}},
        {"system": "pendulum", "task": "isotropy",
         "parameters": {"route": "flow", "points": [[0.1]]}},
        {**PLANAR, "task": "constrained",
         "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0], "e0": [0.0, 0.0]}},
        gotay_state(u=[0.0]),
        gotay_state(**{"lambda": [0.0, 0.0, 0.0]}),
        gotay_state(p=[1.0]),
        gotay_state(e=[0.0, 0.0]),
        {"system": "free-particle", "task": "classify", "parameters": {"box": [1.0]}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "flow", "box": 1.0}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "bvp", "box": [-1.0, 0.0, 1.0]}},
        *({"system": "free-particle", "task": "isotropy",
           "parameters": {"route": route, "sample_count": count}}
          for route in ("flow", "bvp") for count in (-3, 0, 2.7, "3", True)),
        {"system": "free-particle", "task": "classify", "parameters": {"sample_count": 2.7}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "flow", "points": []}},
        {"system": "free-particle", "task": "isotropy",
         "parameters": {"route": "bvp", "endpoint_pairs": []}},
        {"system": "free-particle", "task": "classify", "parameters": {"endpoint_pairs": []}},
        {"system": "free-particle", "task": "classify", "parameters": {"endpoint_pairs": 1.0}},
        {**PLANAR, "task": "constrained", "integrator": {"scheme": "stormer-verlet"},
         "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0], "e0": [0.0]}},
        *({"system": "free-particle", "task": "generating-function",
           "parameters": {"endpoints": [0.0, 2.0], "fd_step": value}}
          for value in (0, -1e-5, "x", True, float("inf"))),
        *({"system": "free-particle", "task": "isotropy",
           "parameters": {"route": "bvp", "sample_count": 1, "fd_step": value}}
          for value in (0, -1e-5, "x")),
        *({"system": "free-particle", "task": "classify",
           "parameters": {"sample_count": 1, "probe_radius": value}}
          for value in (0, -1e-2, "x", True)),
        *({"system": "free-particle", "task": "bvp",
           "parameters": {"endpoints": [0.0, 2.0], "require_solutions": value}}
          for value in ("x", -1, 1.5)),
        *({"system": "free-particle", "task": "generating-function",
           "parameters": {"endpoints": [0.0, 2.0], "branch": value}}
          for value in ("x", 2.7, -1, True)),
        *({"system": {"name": "lambda-family", "params": {"field": "constant", "c": 1.0}},
           "task": "lambda-study", "parameters": {"lambdas": value, "endpoints": [0.0, 2.0]}}
          for value in ("x", [], ["x"], 0.5, [1.0, True], [1.0, -1.0])),
        {"system": "free-particle", "task": "isotropy", "parameters": {"route": "shooting"}},
        {**PLANAR, "task": "constrained",
         "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0], "e0": [0.0],
                        "gauge": "lambda-one"}},
        *({"system": {"name": name, "params": params}, "task": "flow",
           "parameters": {"u0": 0.0, "p0": 1.0}}
          for name, params in (("cotangent-lift", {"field": "bogus"}),
                               ("cotangent-lift", {"scael": 2}),
                               ("lambda-family", {"lam": 0.5, "lambda": 2.0}),
                               ("free-particle", {"m": 0}), ("pendulum", {"k": -1}),
                               ("lambda-family", {"lam": -1}), ("cotangent-lift", {"dim": 0}),
                               ("free-particle", {"dim": 0}),
                               ("free-particle", {"dim": True}))),
        *({"system": {"name": name, "params": {"dim": 2.5}}, "task": "flow",
           "parameters": {"u0": [0.0, 0.0], "p0": [1.0, 0.0]}}
          for name in ("free-particle", "cotangent-lift")),
        {"system": "free-particle", "task": "flow", "parameters": {"u0": 0.0}},
        {"system": "pendulum", "task": "lambda-study",
         "parameters": {"lambdas": [1.0], "endpoints": [0.0, 2.0]}},
        {"system": "free-particle", "task": "flow",
         "parameters": {"u0": 0.0, "p0": 1.0, "t0": False, "t1": True}},
        *({"system": "free-particle", "task": "flow",
           "parameters": {"u0": 0.0, "p0": 1.0, key: value}}
          for key, value in (("t0", -0.5), ("t1", 1.5), ("t1", float("nan")))),
        *({"system": "free-particle", "task": "flow", "parameters": {"u0": 0.0, "p0": 1.0},
           **section}
          for section in ({"integrator": 5}, {"integrator": None}, {"seed": "abc"},
                          {"seed": None}, {"seed": 1.5}, {"seed": True},
                          {"output": {"report": 5}}, {"output": {"report": "../escape.json"}},
                          {"output": {"trajectory": "."}},
                          {"integrator": {"newton_max_iter": 2.5}},
                          {"integrator": {"step": True}},
                          {"integrator": {"blowup_threshold": True}},
                          {"shooting": {"seed_count": 2.5}}, {"shooting": {"max_iter": 2.5}},
                          {"shooting": {"seed_count": True}})),
        *({"system": {"name": name, "params": params}, "task": "flow",
           "parameters": {"u0": [0.0] * dim, "p0": [1.0] * dim}}
          for name, params, dim in (
              ("free-particle", {"m": True}, 1), ("lambda-family", {"lam": True}, 1),
              ("cotangent-lift", {"scale": True}, 1),
              ("cotangent-lift", {"field": "constant", "c": [1.0, 2.0], "dim": 3}, 2),
              ("cotangent-lift", {"field": "linear", "c": [5.0]}, 1),
              ("cotangent-lift", {"field": "constant", "c": 1.0, "scale": 9.0}, 1))),
        {**PLANAR, "task": "constrained",
         "parameters": {"constraint": {"name": "circle", "radius": 3.0},
                        "u0": [0.0, 0.0], "e0": [0.0]}},
        *({**PLANAR, "task": "constrained",
           "parameters": {"constraint": {"name": "identity", "dim": dim},
                          "u0": [0.0, 0.0], "e0": [0.0, 0.0]}} for dim in ("x", 2.5)),
        {"system": "free-particle", "task": "gotay",
         "parameters": {"constraint": {"name": "circle"},
                        "state": {"u": [0.0], "p": [1.0], "lambda": [0.0], "e": [0.0]}}},
        # grids that floats cannot hold: 1e300 nodes, or distinct nodes between adjacent floats
        {"system": "free-particle", "task": "flow", "integrator": {"step": 1e-300},
         "parameters": {"u0": [0.0], "p0": [1.0]}},
        {"system": "free-particle", "task": "bvp", "integrator": {"step": 1e-300},
         "parameters": {"endpoints": [0.0, 1.0]}},
        {"system": "free-particle", "task": "flow",
         "parameters": {"u0": [0.0], "p0": [1.0], "t0": 0.1, "t1": np.nextafter(0.1, 1.0)}},
    ], ids=["seed-box-of-one", "seed-box-of-three", "sphere-seed-of-two", "one-endpoint",
            "no-classify-pairs", "flow-backwards", "flow-time-not-a-number",
            "flow-state-of-wrong-dimension", "isotropy-point-without-momentum",
            "constrained-e0-of-wrong-dimension", "gotay-u-of-wrong-dimension",
            "gotay-lambda-of-wrong-dimension", "gotay-p-of-one-on-a-plane",
            "gotay-e-of-two-on-a-circle", "classify-box-of-one", "isotropy-flow-box-not-a-pair",
            "isotropy-bvp-box-of-three",
            *(f"isotropy-{route}-sample-count-{name}" for route in ("flow", "bvp")
              for name in ("negative", "zero", "fraction", "string", "boolean")),
            "classify-sample-count-fraction", "isotropy-flow-no-points",
            "isotropy-bvp-no-pairs", "classify-no-pairs", "classify-pairs-not-a-list",
            "constrained-stormer-verlet",
            *(f"generating-function-fd-step-{name}"
              for name in ("zero", "negative", "string", "boolean", "infinite")),
            *(f"isotropy-bvp-fd-step-{name}" for name in ("zero", "negative", "string")),
            *(f"classify-probe-radius-{name}"
              for name in ("zero", "negative", "string", "boolean")),
            *(f"bvp-require-solutions-{name}" for name in ("string", "negative", "fraction")),
            *(f"generating-function-branch-{name}"
              for name in ("string", "fraction", "negative", "boolean")),
            *(f"lambda-study-lambdas-{name}"
              for name in ("string", "empty", "of-strings", "number", "with-a-boolean",
                           "with-a-negative")),
            "isotropy-unknown-route", "constrained-unknown-gauge",
            "cotangent-lift-unknown-field", "cotangent-lift-misspelt-key",
            "lambda-family-lambda-alias", "free-particle-zero-mass",
            "pendulum-negative-stiffness", "lambda-family-negative-lam",
            "cotangent-lift-dim-zero", "free-particle-dim-zero", "free-particle-dim-boolean",
            "free-particle-dim-fraction", "cotangent-lift-dim-fraction", "flow-without-p0", "lambda-study-on-pendulum",
            "flow-times-boolean", "flow-t0-negative", "flow-t1-above-one", "flow-t1-nan",
            "integrator-a-number", "integrator-null", "seed-a-string", "seed-null",
            "seed-fraction", "seed-boolean", "report-name-a-number", "report-name-escapes-out",
            "trajectory-name-a-dot", "newton-max-iter-fraction", "step-boolean",
            "blowup-threshold-boolean", "seed-count-fraction", "max-iter-fraction",
            "seed-count-boolean", "free-particle-mass-boolean", "lambda-family-lam-boolean",
            "cotangent-lift-scale-boolean", "constant-field-dim-unlike-c",
            "linear-field-with-c", "constant-field-with-scale", "circle-with-radius",
            "identity-dim-string", "identity-dim-fraction", "gotay-circle-on-the-line",
            "flow-step-1e-300", "bvp-step-1e-300", "flow-span-of-one-float"])
    def test_malformed_values_are_exit_2_with_nothing_written(self, tmp_path, capsys, payload):
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload), "--out", str(out)]) == 2
        assert "scenario error" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("task, parameters", [
        ("flow", {"u0": 0.0, "p0": 1.0}),
        ("classify", {"sample_count": 1}),
    ], ids=["flow", "classify"])
    def test_negative_seed_is_exit_2_on_both_routes(self, tmp_path, capsys, task, parameters):
        payload = {"system": "free-particle", "task": task, "parameters": parameters}
        for scenario, override in ((dict(payload, seed=-1), []), (payload, ["--seed", "-1"])):
            out = tmp_path / "out"
            assert main(["run", write_scenario(tmp_path, scenario), "--out", str(out),
                         *override]) == 2
            assert "scenario error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("task, parameters", [
        ("constrained", {"u0": [0.0], "e0": [0.0]}),
        ("gotay", {"state": {"u": [0.0], "p": [1.0], "lambda": [0.0], "e": [0.0]}}),
    ], ids=["constrained", "gotay"])
    def test_constraint_of_another_dimension_is_named(self, tmp_path, capsys, task, parameters):
        payload = {"system": "free-particle", "task": task,
                   "parameters": {"constraint": {"name": "circle"}, **parameters}}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload), "--out", str(out)]) == 2
        assert "gives momenta of shape (2,); the system's dimension is 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"system": "free-particle", "task": "flow", "parameters": {"u0": 0.0}},
        {"system": "pendulum", "task": "lambda-study",
         "parameters": {"lambdas": [1.0], "endpoints": [0.0, 2.0]}},
    ], ids=["flow-without-p0", "lambda-study-on-pendulum"])
    def test_task_needs_are_checked_at_load(self, tmp_path, payload):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, payload))


class TestRunScenarios:
    def test_free_particle_bvp(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "bvp",
            "shooting": {"seed_count": 8},
            "parameters": {"endpoints": [0.0, 2.0]},
        })
        report, written, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert report["results"]["classification"]["kind"] == "Unique"
        assert abs(report["results"]["branches"][0]["p0"][0] - 2.0) <= 1e-8
        assert abs(report["results"]["branches"][0]["action"] - 2.0) <= 1e-6
        for f in written:
            assert os.path.exists(f)

    def test_verlet_bvp_on_non_separable_system_is_a_task_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "system": "cotangent-lift",
            "task": "bvp",
            "integrator": {"scheme": "stormer-verlet"},
            "shooting": {"seed_count": 4},
            "parameters": {"endpoints": [1.0, 2.718281828459045]},
        })
        with pytest.raises(NotSeparableError):
            run_scenario(path, out_dir=str(tmp_path / "out"))
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "not declared separable" in capsys.readouterr().err

    def test_quartic_blowup_flow(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "quartic",
            "task": "flow",
            "parameters": {"u0": 4.0, "p0": 8.0},
        })
        report, written, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        status = report["results"]["status"]
        assert set(status) == {"kind", "t_escape"}
        assert status["kind"] == "BlowUp"
        assert 0.45 <= status["t_escape"] <= 0.55

    def test_required_solution_failure_is_exit_3(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "cotangent-lift",
            "task": "bvp",
            "shooting": {"seed_count": 6},
            "parameters": {"endpoints": [0.5, 1.0], "require_solutions": 1},
        })
        report, written, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 3
        assert "failure" in report["results"]

    def test_gotay_task(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": {"name": "free-particle", "params": {"dim": 2}},
            "task": "gotay",
            "parameters": {
                "constraint": {"name": "circle"},
                "state": {"u": [0.0, 0.0], "p": [1.0, 0.0], "lambda": [0.0, 0.0],
                          "e": [0.0]},
            },
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert report["results"]["kernel_dim"] == 3
        assert report["results"]["stable"] is True

    def test_constrained_task_and_csv(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": {"name": "free-particle", "params": {"dim": 2}},
            "task": "constrained",
            "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0],
                           "e0": [0.0]},
        })
        out = tmp_path / "out"
        report, written, code = run_scenario(path, out_dir=str(out))
        assert code == 0
        np.testing.assert_allclose(report["results"]["u_end"], [1.0, 0.0], atol=1e-10)
        csv_path = next(p for p in written if p.endswith(".csv"))
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "t,u_0,u_1,p_0,p_1"
        # full-precision round trip of the final row
        last = [float(x) for x in lines[-1].split(",")]
        assert last[1] == report["results"]["u_end"][0]

    def test_lambda_study_task(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": {"name": "lambda-family",
                       "params": {"field": "constant", "c": [1.0]}},
            "task": "lambda-study",
            "shooting": {"seed_count": 6},
            "parameters": {"lambdas": [1.0, 0.5, 0.25, 0.125],
                           "endpoints": [0.0, 2.0]},
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert abs(report["results"]["momentum_slope"] + 1.0) <= 0.05

    def test_lambda_family_defaults_to_the_constant_field_of_its_dim(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": {"name": "lambda-family", "params": {"dim": 2}},
            "task": "flow",
            "parameters": {"u0": [0.0, 0.0], "p0": [0.0, 0.0]},
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        # X = (1, 1) and p = 0, so u(1) = u0 + X
        np.testing.assert_allclose(report["results"]["u_end"], [1.0, 1.0], atol=1e-12)

    def test_lambda_family_scale_needs_the_linear_field(self, tmp_path, capsys):
        for params, code in (({"scale": 2}, 2), ({"field": "linear", "scale": 2}, 0)):
            path = write_scenario(tmp_path, {
                "system": {"name": "lambda-family", "params": params},
                "task": "flow", "parameters": {"u0": 1.0, "p0": 0.0}})
            assert main(["run", path, "--out", str(tmp_path / "out")]) == code
        assert "scenario error" in capsys.readouterr().err

    def test_lambda_study_with_a_zero_lambda_fits_the_positive_ones(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": {"name": "lambda-family", "params": {"field": "linear"}},
            "task": "lambda-study",
            "shooting": {"seed_count": 8, "newton_tol": 1e-6},
            "parameters": {"lambdas": [1.0, 0.5, 0.0], "endpoints": [1.0, np.e]},
        })
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert [row["status"] for row in results["rows"]] == ["ok"] * 3
        assert results["rows"][-1]["p0"][0] != 0.0
        assert results["momentum_slope"] == pytest.approx(-1.0, abs=1e-3)

    def test_step_override(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "flow",
            "parameters": {"u0": 0.0, "p0": 1.0},
        })
        report, _, _ = run_scenario(path, out_dir=str(tmp_path / "out"), step=0.01)
        assert report["results"]["n_nodes"] == 101

    def test_isotropy_task(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "isotropy",
            "parameters": {"route": "flow", "sample_count": 4},
            "seed": 3,
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        res = report["results"]
        assert res["samples"] == 4
        assert res["max_defect"] <= 1e-10
        assert res["rank_estimate"] == 2
        assert res["seed"] == 3
        assert "hypothesis" in res["caveat"]

    def test_isotropy_task_by_the_bvp_route(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "pendulum", "task": "isotropy", "integrator": {"step": 0.01},
            "shooting": {"seed_count": 8}, "parameters": {"route": "bvp", "sample_count": 2},
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        res = report["results"]
        assert res["tangent_source"] == "bvp-continuation"
        assert res["samples"] == 2 and res["rank_estimate"] == 2
        assert res["inapplicable"] == []
        assert res["max_defect"] <= 1e-6

    def test_isotropy_lists_an_unflowable_sphere_point_as_inapplicable(self, tmp_path):
        north, huge = [0.0, 0.0, 1.0], [1e200, 1e200, 0.0]
        path = write_scenario(tmp_path, {
            "system": "sphere", "task": "isotropy",
            "parameters": {"route": "flow", "points": [[north, [1.0, 0.0, 0.0]], [north, huge]]},
        })
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        res = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert res["samples"] == 1
        assert res["inapplicable"] == [[north, huge, "BlowUp(t_escape=0.0)"]]

    def test_generating_function_task(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "generating-function",
            "shooting": {"seed_count": 6},
            "parameters": {"endpoints": [0.0, 2.0]},
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert report["results"]["defect_u1"] <= 1e-6
        assert abs(report["results"]["action"] - 2.0) <= 1e-6

    def test_classify_task(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "classify",
            "integrator": {"step": 0.002},
            "shooting": {"seed_count": 6},
            "parameters": {"sample_count": 3, "box": [-1.0, 1.0]},
        })
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert report["results"]["verdict"] == "Dirichlet"
        assert report["results"]["heuristic"] is True


FAST = {"integrator": {"step": 0.01}, "shooting": {"seed_count": 4}}


# Each task's scenario and the key paths of its results: a record's field
# names are its report's keys, so a renamed field must show here.
RESULT_KEYS = [
    ({"system": "free-particle", "task": "flow", "parameters": {"u0": 0.0, "p0": 1.0}},
     "status status.kind final_time u_end p_end n_nodes energy_drift"),
    ({"system": "free-particle", "task": "bvp", "parameters": {"endpoints": [0.0, 2.0]}},
     "classification classification.kind classification.count classification.notes "
     "classification.heuristic branches branches[].p0 branches[].p1 branches[].u1 "
     "branches[].residual branches[].jacobian_cond branches[].action"),
    ({"system": "free-particle", "task": "classify", "parameters": {"sample_count": 2}},
     "verdict heuristic witness evidence evidence[].u0 evidence[].u1 evidence[].kind "
     "evidence[].count"),
    ({"system": "free-particle", "task": "isotropy", "parameters": {"sample_count": 2}},
     "samples inapplicable max_defect tangent_source rank_estimate seed caveat"),
    ({"system": "free-particle", "task": "generating-function",
      "parameters": {"endpoints": [0.0, 2.0]}},
     "defect_u1 defect_u0 symmetry_defect p0 p1 action"),
    ({"system": {"name": "lambda-family", "params": {"field": "constant", "c": [1.0]}},
      "task": "lambda-study", "parameters": {"lambdas": [1.0, 0.5], "endpoints": [0.0, 2.0]}},
     "rows rows[].lambda rows[].p0 rows[].action rows[].second_order_residual "
     "rows[].flowline_distance rows[].status momentum_slope notes"),
    ({**PLANAR, "task": "constrained",
      "parameters": {"constraint": {"name": "circle"}, "u0": [0.0, 0.0], "e0": [0.0]}},
     "status status.kind u_end p_end e_end energy_drift max_polar_residual "
     "max_tangency_residual momentum_constraint_drift"),
    (gotay_state(),
     "kernel_dim primary_residual polar_residual stable tangency_residual "
     "secondary_direction d_velocity c_rate c_residual terminated"),
]


class TestResultKeys:
    @pytest.mark.parametrize("payload, keys", RESULT_KEYS,
                             ids=[payload["task"] for payload, _ in RESULT_KEYS])
    def test_results_keys(self, tmp_path, payload, keys):
        path = write_scenario(tmp_path, {**FAST, **payload})
        report, _, code = run_scenario(path, out_dir=str(tmp_path / "out"))
        assert code == 0
        assert key_paths(report["results"]) == set(keys.split())


class TestDeterminism:
    def test_identical_runs_identical_bytes_outside_timing(self, tmp_path):
        path = write_scenario(tmp_path, {
            "system": "pendulum",
            "task": "bvp",
            "shooting": {"seed_count": 8},
            "parameters": {"endpoints": [0.0, 1.0]},
            "seed": 7,
        })
        rep1, _, _ = run_scenario(path, out_dir=str(tmp_path / "a"))
        rep2, _, _ = run_scenario(path, out_dir=str(tmp_path / "b"))
        assert dump_full_precision(strip_timing(rep1)) == dump_full_precision(strip_timing(rep2))

    def test_full_precision_serialization(self):
        val = 0.1 + 0.2  # not representable, needs 17 digits
        text = dump_full_precision({"x": val})
        assert "0.30000000000000004" in text
        assert float(json.loads(text)["x"]) == val


def per_value_csv(table):
    """CSV lines of a 2-d array, every value formatted alone by _fmt_float."""
    return [",".join(_fmt_float(v) for v in row) for row in table]


class TestTrajectoryCsv:
    """Rows are formatted in bulk; the bytes are those of formatting value by value."""

    SPECIAL = [NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, np.nextafter(1.0, 2.0),
               1.7976931348623157e308, -1e16, 123456789012345678.0, 1e-5, 1.5, 1e22]

    def test_rows_are_the_per_value_format(self):
        rng = np.random.default_rng(33)
        random = rng.integers(0, 2 ** 63, size=400, dtype=np.uint64).view(np.float64)
        values = np.concatenate([self.SPECIAL, random, rng.normal(size=200)])
        for width in (3, 5, 7):
            table = rng.permutation(np.resize(values, (len(values) // width + 1) * width))
            table = table.reshape(-1, width)
            assert not np.isfinite(table).all() and np.isfinite(table).all(axis=1).any()
            assert _csv_rows(table) == per_value_csv(table)

    def test_file_bytes_are_the_per_value_format(self, tmp_path):
        rng = np.random.default_rng(7)
        nodes = np.linspace(0.0, 1.0, 11)
        positions = rng.normal(size=(11, 2)) * 10.0 ** rng.integers(-320, 300, size=(11, 2))
        positions[3, 0], positions[4, 1] = -0.0, 5e-324
        momenta = rng.normal(size=(11, 2))
        traj = Trajectory(TimeGrid(nodes), positions, momenta)
        write_trajectory_csv(tmp_path / "t.csv", traj)
        want = ["t,u_0,u_1,p_0,p_1"] + per_value_csv(np.column_stack([nodes, positions, momenta]))
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(want) + "\n").encode()


class TestSelftestCommand:
    def test_strict_mode_reports_failures(self):
        cheap = [
            SelfCheck("always-tiny-but-nonzero", 1e-6, lambda: 1e-9),
            SelfCheck("exactly-zero", 1e-6, lambda: 0.0),
        ]
        normal = run_checks(checks=cheap)
        assert all(r.passed for r in normal)
        strict = run_checks(tighten=1e6, checks=cheap)
        assert [r.passed for r in strict] == [False, True]
        assert strict[0].measured == pytest.approx(1e-9)

    def test_check_errors_are_reported_not_raised(self):
        def boom():
            raise RuntimeError("broken probe")

        results = run_checks(checks=[SelfCheck("exploding", 1.0, boom)])
        assert not results[0].passed
        assert "broken probe" in results[0].name


class TestCliEntry:
    def test_list_examples(self, capsys):
        assert main(["list-examples"]) == 0
        out = capsys.readouterr().out
        for name in ("free-particle", "quartic", "pendulum", "sphere",
                     "cotangent-lift", "lambda-family"):
            assert name in out

    def test_python_dash_m_entry_point(self):
        done = fresh_python("-m", "phasebound", "list-examples")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["cotangent-lift", "free-particle", "lambda-family",
                                       "pendulum", "quartic", "sphere"]

    def test_importing_the_cli_loads_no_scipy(self):
        done = fresh_python("-c", "import sys, phasebound.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_run_via_main(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "flow",
            "parameters": {"u0": 0.0, "p0": 1.0},
        })
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "report.json" in printed

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHASEBOUND_OUT", str(tmp_path / "envout"))
        path = write_scenario(tmp_path, {
            "system": "free-particle",
            "task": "flow",
            "parameters": {"u0": 0.0, "p0": 1.0},
        })
        _, written, code = run_scenario(path)
        assert code == 0
        assert all(str(tmp_path / "envout") in f for f in written)
