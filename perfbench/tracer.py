"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces module attributes of ``phasebound`` with timing
wrappers, one per binding: ``shooting.flow_batch`` is the name under which
the shooting module calls ``integrators.flow_batch``, ``cli.solve_dirichlet``
the name under which the CLI calls ``shooting.solve_dirichlet``, and so on.
Each span is recorded under its binding and aggregated under the layer that
defines the function.  Systems built by the CLI and by the lambda study get
their callbacks wrapped with call counters.  No program file is changed;
``uninstall`` restores every attribute.

Spans live in memory (binding, layer, start, end, parent, task) and are
written out by ``write``.  Calls of ``core.linearized_field_matrix`` (about
10^6 per multistart pass) are not stored one by one: each is added to its
parent span's per-leaf count and time, which bounds memory and still lets
self time be computed exactly.  A span's self time is its duration minus the
time its child spans cover; because spans nest strictly, that is the sum of
its children's durations.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (binding module, attribute, defining layer).  Bindings missing from the
# program (renamed or removed functions) are skipped and reported.
SPAN_HOOKS = (
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "integrate_flow", "integrators.integrate_flow"),
    ("cli", "energy_drift", "integrators.energy_drift"),
    ("cli", "solve_dirichlet", "shooting.solve_dirichlet"),
    ("cli", "classify_theory", "shooting.classify_theory"),
    ("cli", "generating_function_check", "shooting.generating_function_check"),
    ("cli", "topological_limit_study", "systems.topological_limit_study"),
    ("cli", "isotropy_defect_bvp", "verify.isotropy_defect_bvp"),
    ("cli", "isotropy_defect_flow", "verify.isotropy_defect_flow"),
    ("cli", "integrate_constrained", "constraints.integrate_constrained"),
    ("cli", "gotay_step", "constraints.gotay_step"),
    ("cli", "dump_full_precision", "cli.dump_full_precision"),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("shooting", "solve_dirichlet", "shooting.solve_dirichlet"),
    ("shooting", "_multistart_newton", "shooting._multistart_newton"),
    ("shooting", "_batch_eval", "shooting._batch_eval"),
    ("shooting", "_continue_branch", "shooting._continue_branch"),
    ("shooting", "_dedupe", "shooting._dedupe"),
    ("shooting", "flow_batch", "integrators.flow_batch"),
    ("shooting", "flow_with_jacobian", "integrators.flow_with_jacobian"),
    ("shooting", "action_functional", "core.action_functional"),
    ("verify", "solve_dirichlet", "shooting.solve_dirichlet"),
    ("verify", "_continue_branch", "shooting._continue_branch"),
    ("verify", "flow_with_jacobian", "integrators.flow_with_jacobian"),
    ("integrators", "flow_with_jacobian", "integrators.flow_with_jacobian"),
    ("core", "action_functional", "core.action_functional"),
    ("constraints", "gotay_step", "constraints.gotay_step"),
)
LEAF_HOOKS = (("integrators", "linearized_field_matrix", "core.linearized_field_matrix"),)
# Factories whose systems get counted callbacks.
SYSTEM_HOOKS = (("cli", "make_example"), ("systems", "make_lambda_family"))
# Output writer whose text length is counted as bytes written.
BYTES_HOOK = ("cli", "atomic_write")
# Recursive functions: only the outermost call is a span.
OUTERMOST_ONLY = {"cli.dump_full_precision"}

CALLBACKS = {"grad_u": "grad", "grad_p": "grad", "hess_uu": "hess", "hess_up": "hess",
             "hess_pp": "hess", "hamiltonian": "hamiltonian"}


def _rows(u):
    shape = np.shape(u)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _seed_count(cfg):
    return len(cfg.seeds) if cfg.seeds is not None else int(cfg.seed_count)


# Per-layer details read from a call's arguments and result.
def _info_flow_batch(a, out):
    grid, ok = out[0], out[4]
    return {"members": int(np.atleast_2d(a["U0"]).shape[0]), "steps": len(grid.nodes) - 1,
            "jacobian": bool(a["want_jacobian"]), "ok": int(np.count_nonzero(ok))}


def _info_flow_with_jacobian(a, out):
    return {"steps": len(out[0].trajectory.grid.nodes) - 1}


def _info_solve_dirichlet(a, out):
    return {"seeds": _seed_count(a["cfg"])}


def _info_multistart(a, out):
    return {"seeds": int(a["seeds"].shape[0]), "converged": int(out[0].shape[0])}


def _info_batch_eval(a, out):
    return {"members": int(a["P"].shape[0]), "jacobian": bool(a["want_jacobian"])}


INFO = {
    "integrators.flow_batch": _info_flow_batch,
    "integrators.flow_with_jacobian": _info_flow_with_jacobian,
    "shooting.solve_dirichlet": _info_solve_dirichlet,
    "shooting._multistart_newton": _info_multistart,
    "shooting._batch_eval": _info_batch_eval,
}


class Span:
    __slots__ = ("sid", "binding", "layer", "start", "end", "parent", "task",
                 "child_s", "leaf", "info")

    def __init__(self, sid, binding, layer, start, parent, task):
        self.sid, self.binding, self.layer = sid, binding, layer
        self.start, self.end, self.parent, self.task = start, None, parent, task
        self.child_s = 0.0
        self.leaf = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, t0):
        out = {"id": self.sid, "name": self.binding, "layer": self.layer,
               "start": self.start - t0, "end": self.end - t0, "parent": self.parent,
               "task": self.task, "self_s": self.duration - self.child_s}
        if self.leaf:
            out["leaf"] = self.leaf
        if self.info:
            out["info"] = self.info
        return out


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []
        self.stack = []
        self.task = None
        self.counters = Counter()
        self.leaf_calls = Counter()
        self.leaf_busy = defaultdict(float)
        self.missing = set()
        self.info_errors = Counter()
        self._patches = []
        self._open = Counter()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, binding, layer):
        info = INFO.get(layer)
        outermost = layer in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            if outermost and self._open[layer]:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), binding, layer, perf_counter(),
                        parent.sid if parent else None, self.task)
            self.spans.append(span)
            self.stack.append(span)
            self._open[layer] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open[layer] -= 1
                self.stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if info is not None:
                try:
                    span.info = info(_args(fn, args, kwargs), out)
                except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                    self.info_errors[layer] += 1
            return out

        return wrapper

    def _leaf_wrapper(self, fn, layer):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self.leaf_calls[layer] += 1
                self.leaf_busy[layer] += dt
                if self.stack:
                    parent = self.stack[-1]
                    parent.child_s += dt
                    if parent.leaf is None:
                        parent.leaf = {}
                    calls, busy = parent.leaf.get(layer, (0, 0.0))
                    parent.leaf[layer] = (calls + 1, busy + dt)

        return wrapper

    def _counted(self, fn, kind):
        counters = self.counters

        def wrapper(t, u, p, *rest):
            counters[f"{kind}_calls"] += 1
            counters[f"{kind}_rows"] += _rows(u)
            return fn(t, u, p, *rest)

        wrapper.perfbench_counted = True
        return wrapper

    def count_system(self, sys):
        """A copy of a HamiltonianSystem whose callbacks count their calls."""
        changes = {}
        for name, kind in CALLBACKS.items():
            fn = getattr(sys, name, None)
            if fn is not None and not getattr(fn, "perfbench_counted", False):
                changes[name] = self._counted(fn, kind)
        return dataclasses.replace(sys, **changes) if changes else sys

    def _bytes_wrapper(self, fn):
        def wrapper(path, text, *rest, **kwargs):
            self.counters["bytes_written"] += len(text.encode())
            return fn(path, text, *rest, **kwargs)

        return wrapper

    def _system_wrapper(self, factory):
        def wrapper(*args, **kwargs):
            ex = factory(*args, **kwargs)
            return dataclasses.replace(ex, system=self.count_system(ex.system))

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _patch(self, modules, mod_name, attr, make):
        module = modules.get(mod_name)
        if module is None or not hasattr(module, attr):
            self.missing.add(f"{mod_name}.{attr}")
            return
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self, modules):
        """Wrap the hooks in ``modules`` (short name -> phasebound submodule)."""
        for mod_name, attr, layer in SPAN_HOOKS:
            self._patch(modules, mod_name, attr,
                        lambda fn, b=f"{mod_name}.{attr}", l=layer: self._span_wrapper(fn, b, l))
        for mod_name, attr, layer in LEAF_HOOKS:
            self._patch(modules, mod_name, attr, lambda fn, l=layer: self._leaf_wrapper(fn, l))
        for mod_name, attr in SYSTEM_HOOKS:
            self._patch(modules, mod_name, attr, self._system_wrapper)
        self._patch(modules, *BYTES_HOOK, self._bytes_wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(self.t0)) + "\n")


def _union(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_stats(tracer):
    """calls, busy_s (union of span intervals) and self_s per layer."""
    by_layer = defaultdict(list)
    for span in tracer.spans:
        by_layer[span.layer].append(span)
    stats = {}
    for layer, spans in by_layer.items():
        stats[layer] = {"calls": len(spans),
                        "busy_s": _union((s.start, s.end) for s in spans),
                        "self_s": sum(s.duration - s.child_s for s in spans)}
    for layer, calls in tracer.leaf_calls.items():
        busy = tracer.leaf_busy[layer]
        stats[layer] = {"calls": calls, "busy_s": busy, "self_s": busy}
    return stats


def layer_metrics(tracer, overhead_s):
    """Every per-layer metric of the benchmark, by name."""
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}, layer_stats(tracer))

    def infos(layer):
        return [s.info for s in tracer.spans if s.layer == layer and s.info]

    m = {}
    fb = stats["integrators.flow_batch"]
    fb_info = infos("integrators.flow_batch")
    steps = sum(i["steps"] for i in fb_info)
    member_steps = sum(i["members"] * i["steps"] for i in fb_info)
    members = sum(i["members"] for i in fb_info)
    m["integrators.flow_batch.calls"] = fb["calls"]
    m["integrators.flow_batch.busy_s"] = fb["busy_s"]
    m["integrators.flow_batch.self_s"] = fb["self_s"]
    m["integrators.flow_batch.us_per_step"] = 1e6 * _ratio(fb["busy_s"], steps)
    m["integrators.flow_batch.member_steps"] = member_steps
    m["integrators.flow_batch.mean_members"] = _ratio(members, len(fb_info))
    m["integrators.flow_batch.jacobian_share"] = _ratio(
        sum(i["members"] * i["steps"] for i in fb_info if i["jacobian"]), member_steps)
    m["integrators.flow_batch.ok_ratio"] = _ratio(sum(i["ok"] for i in fb_info), members)

    lf = stats["core.linearized_field_matrix"]
    m["core.linearized_field_matrix.calls"] = lf["calls"]
    m["core.linearized_field_matrix.busy_s"] = lf["busy_s"]
    for name in ("grad_calls", "grad_rows", "hess_calls", "hamiltonian_calls"):
        m[f"systems.{name}"] = tracer.counters[name]

    sd = stats["shooting.solve_dirichlet"]
    m["shooting.solve_dirichlet.calls"] = sd["calls"]
    m["shooting.solve_dirichlet.busy_s"] = sd["busy_s"]
    m["shooting.solve_dirichlet.self_s"] = sd["self_s"]
    m["shooting.solve_dirichlet.seeds"] = sum(i["seeds"] for i in infos("shooting.solve_dirichlet"))
    parents = {s.sid: s.layer for s in tracer.spans if s.layer == "shooting.solve_dirichlet"}
    direct = [s.info for s in tracer.spans
              if s.layer == "shooting._multistart_newton" and s.info and s.parent in parents]
    m["shooting.seed_yield"] = _ratio(sum(i["converged"] for i in direct),
                                      sum(i["seeds"] for i in direct))
    evals = infos("shooting._batch_eval")
    m["shooting.newton.jacobian_evals"] = sum(1 for i in evals if i["jacobian"])
    m["shooting.newton.trial_evals"] = sum(1 for i in evals if not i["jacobian"])
    m["shooting.newton.trial_members"] = sum(i["members"] for i in evals if not i["jacobian"])

    for layer in ("shooting.generating_function_check", "shooting.classify_theory",
                  "verify.isotropy_defect_bvp", "systems.topological_limit_study",
                  "verify.isotropy_defect_flow", "cli.run_scenario"):
        m[f"{layer}.busy_s"] = stats[layer]["busy_s"]
        m[f"{layer}.self_s"] = stats[layer]["self_s"]

    fj = stats["integrators.flow_with_jacobian"]
    fj_steps = sum(i["steps"] for i in infos("integrators.flow_with_jacobian"))
    m["integrators.flow_with_jacobian.calls"] = fj["calls"]
    m["integrators.flow_with_jacobian.busy_s"] = fj["busy_s"]
    m["integrators.flow_with_jacobian.us_per_step"] = 1e6 * _ratio(fj["busy_s"], fj_steps)
    m["integrators.energy_drift.busy_s"] = stats["integrators.energy_drift"]["busy_s"]
    for layer in ("core.action_functional", "constraints.gotay_step"):
        m[f"{layer}.calls"] = stats[layer]["calls"]
        m[f"{layer}.busy_s"] = stats[layer]["busy_s"]
    ic = stats["constraints.integrate_constrained"]
    m["constraints.integrate_constrained.calls"] = ic["calls"]
    m["constraints.integrate_constrained.busy_s"] = ic["busy_s"]
    m["constraints.integrate_constrained.self_s"] = ic["self_s"]
    m["cli.serialize_s"] = _union(
        (s.start, s.end) for s in tracer.spans
        if s.layer in ("cli.dump_full_precision", "cli.write_trajectory_csv"))
    m["cli.bytes_written"] = tracer.counters["bytes_written"]
    m["trace.overhead_s"] = overhead_s
    return m


# Bands of flow_batch width (batch members per call) for ``breakdown``:
# (label, largest width in the band).
WIDTH_BANDS = (("1-3", 3), ("4-16", 16), ("17-31", 31), ("32+", float("inf")))


def breakdown(tracer, templates):
    """Where the time of a traced run went, as shares; printed, not a metric.

    ``layer``: each layer's busy time over ``cli.run_scenario`` busy time.
    ``template``: each task template's share of ``cli.run_scenario`` time
    (``templates`` maps task id to template).  ``flow_batch_width``:
    ``flow_batch`` time by band of batch members per call, over all
    ``flow_batch`` time.  These are the figures behind each workload's
    stated rationale.
    """
    stats = layer_stats(tracer)
    total = stats.get("cli.run_scenario", {}).get("busy_s", 0.0)
    by_template, by_width = defaultdict(float), defaultdict(float)
    for span in tracer.spans:
        if span.layer == "cli.run_scenario":
            by_template[templates.get(span.task, span.task)] += span.duration
        elif span.layer == "integrators.flow_batch" and span.info:
            band = next(label for label, hi in WIDTH_BANDS if span.info["members"] <= hi)
            by_width[band] += span.duration
    width_total = sum(by_width.values())
    return {
        "layer": {layer: _ratio(s["busy_s"], total) for layer, s in stats.items()
                  if layer != "cli.run_scenario"},
        "template": {t: _ratio(v, total) for t, v in by_template.items()},
        "flow_batch_width": {band: _ratio(v, width_total) for band, v in by_width.items()},
    }
