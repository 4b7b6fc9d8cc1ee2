"""The benchmark's own tests, on the tiny size.

    python -m pytest perfbench -q
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOGUE = json.loads((HERE / "metrics.json").read_text())


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _execute(task, tmp_path):
    """Run one generated task through the CLI; returns the run_scenario outcome."""
    from phasebound.cli import run_scenario

    path = tmp_path / f"{task.task_id}.json"
    path.write_text(json.dumps(task.scenario))
    return run_scenario(str(path), out_dir=str(tmp_path / "out"))


def _task(workload, template):
    return next(t for t in scenarios.make_pass(workload, 5, 0, "tiny") if t.template == template)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(work, capsys, workload):
    code, lines, result = _run(capsys, workload)
    assert code == 0
    units = run.end_to_end_units(BENCH)
    for metric in CATALOGUE["end_to_end"]:
        name = metric["name"]
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(units[name])}\b"
        assert any(re.match(pattern, line) for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH["end_to_end"]}
    assert result["attempted"] >= 1
    assert any(line.startswith("meta: ") for line in lines)


def test_traced_run_prints_every_layer_metric(work, capsys):
    code, lines, result = _run(capsys, "trajectory", trace=1)
    assert code == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for m in BENCH["per_layer"]:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert (work / "traces" / "trajectory-seed0.spans.jsonl.gz").is_file()


def test_layer_self_time_within_busy_time(tmp_path):
    tr = tracer.Tracer()
    modules = {name: sys.modules[f"phasebound.{name}"] for name in run.LAYER_MODULES}
    originals = {name: vars(mod).copy() for name, mod in modules.items()}
    tr.install(modules)
    try:
        for template in ("bvp/pendulum/quarter-turn", "bvp/free-particle"):
            tr.task = template
            _execute(_task("multistart", template), tmp_path)
    finally:
        tr.uninstall()
    assert not tr.missing
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in originals[name].items())
    stats = tracer.layer_stats(tr)
    assert stats["integrators.flow_batch"]["calls"] > 0
    for layer, s in stats.items():
        assert 0.0 <= s["self_s"] <= s["busy_s"] + 1e-9, layer
    metrics = tracer.layer_metrics(tr, 0.0)
    assert metrics["systems.grad_calls"] > 0 and metrics["core.linearized_field_matrix.calls"] > 0
    assert 0.0 < metrics["shooting.seed_yield"] <= 1.0


def test_oracle_rejects_perturbed_branch(tmp_path):
    task = _task("multistart", "bvp/pendulum/quarter-turn")
    report, files, code = _execute(task, tmp_path)
    assert not oracle.check_task(task, (report, files, code)).failed
    bad = copy.deepcopy(report)
    bad["results"]["branches"][0]["p0"][0] += 1e-6
    verdict = oracle.check_task(task, (bad, files, code))
    assert [c.name for c in verdict.unexpected] == ["branches re-integrate onto u1"]


def test_oracle_rejects_wrong_verdict(tmp_path):
    task = _task("continuation", "classify/free-particle")
    report, files, code = _execute(task, tmp_path)
    assert not oracle.check_task(task, (report, files, code)).failed
    bad = copy.deepcopy(report)
    bad["results"]["verdict"] = "LocallyDirichlet"
    assert [c.name for c in oracle.check_task(task, (bad, files, code)).unexpected] == ["verdict"]

    task = _task("multistart", "bvp/sphere/antipodal")
    report, files, code = _execute(task, tmp_path)
    bad = copy.deepcopy(report)
    bad["results"]["classification"]["kind"] = "MultipleIsolated"
    assert "classification" in [c.name for c in oracle.check_task(task, (bad, files, code)).unexpected]


def test_oracle_rejects_truncated_csv(tmp_path):
    def csv_ok(task, outcome):
        return [c.ok for c in oracle.check_task(task, outcome).checks
                if c.name == "CSV matches report"]

    for template in ("flow/pendulum", "constrained/free-particle-2d/circle"):
        task = _task("trajectory", template)
        outcome = _execute(task, tmp_path)
        assert csv_ok(task, outcome) == [True], template
        csv_path = Path(outcome[1][1])
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-1]))
        assert csv_ok(task, outcome) == [False], template


def test_known_defects_are_matched_by_their_evidence(tmp_path):
    task = _task("multistart", "bvp/pendulum/stormer-verlet")
    verdict = oracle.check_task(task, _execute(task, tmp_path))
    assert verdict.failed and not verdict.unexpected
    assert {c.known_defect for c in verdict.checks if not c.ok} == {"scheme-ignored"}

    task = _task("multistart", "bvp/cotangent-lift/on-graph")
    report, files, code = _execute(task, tmp_path)
    verdict = oracle.check_task(task, (report, files, code))
    if report["results"]["classification"]["kind"] == "NoSolution":
        assert verdict.failed and not verdict.unexpected
    # The same evidence on an off-graph template is not excused.
    off = scenarios.Task(task.task_id, "bvp/pendulum/generic", task.scenario, task.expect)
    if report["results"]["classification"]["kind"] == "NoSolution":
        assert oracle.check_task(off, (report, files, code)).unexpected


def test_scenarios_follow_the_seed():
    def dump(seed, index):
        return [json.dumps(t.scenario, sort_keys=True)
                for t in scenarios.make_pass("multistart", seed, index)]

    assert dump(3, 0) == dump(3, 0)
    assert dump(3, 0) != dump(4, 0) and dump(3, 0) != dump(3, 1)
    templates = {w: [t.template for t in scenarios.make_pass(w, 0, 0)] for w in scenarios.WORKLOADS}
    for w in scenarios.WORKLOADS:
        assert [t.template for t in scenarios.make_pass(w, 9, 2)] == templates[w]


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 31))
    value, pct, n = run.tail(samples)
    assert (value, n) == (20, 30) and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_matches_the_catalogue():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(scenarios.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    bounded = {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    # Unit and direction of a bounded metric live in BENCHMARK.json only.
    for m in CATALOGUE["end_to_end"]:
        own = {"name", "definition"} if m["name"] in bounded else {
            "name", "definition", "unit", "better"}
        assert set(m) == own, m["name"]
    assert bounded <= {m["name"] for m in CATALOGUE["end_to_end"]} and "setup_s" in bounded
    traced = tracer.layer_metrics(tracer.Tracer(), 0.0)
    assert sorted(m["name"] for m in BENCH["per_layer"]) == sorted(traced)
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
