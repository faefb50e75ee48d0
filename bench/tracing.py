"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the walknet layers from outside the
library.  walknet modules bind names with ``from .qudit import apply`` and the
like, so a wrapper placed on ``walknet.qudit`` alone would miss every call
made through those bindings: ``install`` replaces each binding of a traced
function in every loaded walknet module.

A span is (name, start, end, parent span, task id).  Spans are kept in flat
arrays while the run lasts; a layer's self time is its spans' durations minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self._stack: list[int] = []
        self.task_id = -1
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def intern(self, name: str) -> int:
        """The id spans of ``name`` are recorded under."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name``; ``after(tracer, args,
        kwargs, result)`` records work counts on success, and a raised
        exception counts as one ``<name>.errors``."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(f"{name}.errors", 1)
                raise
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, total self seconds)."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i, nid in enumerate(self.name_id):
            entry = totals.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {name: (c, s) for name, (c, s) in totals.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, nid in enumerate(self.name_id):
                fh.write(json.dumps({
                    "name": self.names[nid], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "task": self.task[i]}) + "\n")


def install(tracer: Tracer, name: str, owner, attr: str, after=None,
            scope=None) -> None:
    """Replace every binding of ``owner.attr`` in the modules of ``scope``
    (default: every loaded walknet module) with a traced wrapper."""
    original = getattr(owner, attr)
    wrapper = tracer.wrap(name, original, after)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    if scope is None:
        scope = [mod for key, mod in sys.modules.items()
                 if key == "walknet" or key.startswith("walknet.")]
    for mod in scope:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# The walknet layers and their work counters
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _after_apply(tr, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    tr.add("qudit.apply.amps", state.amps.size)
    tr.peak("qudit.apply.max_sites", state.n)


def _after_measure(tr, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    tr.add("qudit.measure_all_branches.amps", state.amps.size)
    tr.add("qudit.measure_all_branches.branches", len(result))


def merge_sites(schedule):
    """Live sites of each merge step: the input resources' party counts,
    plus 2 for a freshly prepared local pair."""
    live = {rid: len(res.parties) for rid, res in schedule.initial.items()}
    for step in schedule.steps:
        inputs = list(step.coin_inputs)
        if step.position_input is not None:
            inputs.append(step.position_input)
        sites = sum(live.pop(rid, 0) for rid in inputs)
        if step.local_pair is not None:
            sites += 2
        live[step.output_id] = len(step.output_parties)
        yield sites


def _after_plan(tr, args, kwargs, schedule):
    from walknet.qudit import SIZE_CAP

    d = _arg(args, kwargs, 1, "net").local_dim
    tr.add("network.plan_distribution.steps", len(schedule.steps))
    for sites in merge_sites(schedule):
        tr.peak("network.merge_sites_max", sites)
        tr.add("network.merge_steps_over_cap", d**sites > SIZE_CAP)


def _after_channel_check(tr, args, kwargs, result):
    tr.add("mqss.channel_check.pairs", _arg(args, kwargs, 1, "pairs"))


def _count(key, size):
    return lambda tr, args, kwargs, result: tr.add(key, size(result))


# span name -> (traced attribute under walknet, hook recording work counts)
SPANS = {
    "qudit.apply": ("qudit.apply", _after_apply),
    "qudit.measure_all_branches": ("qudit.measure_all_branches", _after_measure),
    "qudit.tensor": ("qudit.tensor", None),
    "protocols.run_protocol": ("protocols.run_protocol", _count(
        "protocols.run_protocol.branches", lambda r: len(r.branches))),
    "protocols.walk_step": ("protocols.walk_step", None),
    "protocols.derive_ghz_correction": ("protocols.derive_ghz_correction", None),
    "protocols.correction_apply": ("protocols.CorrectionOp.apply_to", None),
    "tables.verify_table": ("tables.verify_table", _count(
        "tables.verify_table.rows", lambda r: len(r.rows))),
    "network.steiner_tree": ("network.steiner_tree", None),
    "network.plan_distribution": ("network.plan_distribution", _after_plan),
    "network.execute_schedule": ("network.execute_schedule", None),
    "fractal.execute_merge_schedule": ("fractal.execute_merge_schedule", _count(
        "fractal.execute_merge_schedule.merges", lambda r: r.merge_count)),
    "fractal.analytics": ("fractal.analytics", None),
    "mqss.run_mqss": ("mqss.run_mqss", None),
    "mqss.channel_check": ("mqss.channel_check", _after_channel_check),
    "mqss.generate_shared_ghz": ("mqss.generate_shared_ghz", None),
    "mqss.intercept_resend_error_rate": ("mqss.intercept_resend_error_rate", None),
    # distribute calls made from mqss only: the wrapper sits on mqss's binding
    "mqss.repeater_distribute": ("mqss.distribute", None),
    "readout.synthesize_counts": ("readout.synthesize_counts", None),
    "readout.correct_counts": ("readout.correct_counts", None),
}

TASK_SPAN = "task"

# per-layer metric -> unit; every one is reported by a traced run
COUNTERS = {
    "qudit.apply.amps": "amps",
    "qudit.measure_all_branches.branches": "count",
    "qudit.measure_all_branches.amps": "amps",
    "protocols.run_protocol.branches": "count",
    "tables.verify_table.rows": "count",
    "network.plan_distribution.steps": "count",
    "network.plan_distribution.errors": "count",
    "network.execute_schedule.errors": "count",
    "network.merge_steps_over_cap": "count",
    "fractal.execute_merge_schedule.merges": "count",
    "mqss.channel_check.pairs": "count",
}
MAXIMA = {
    "qudit.apply.max_sites": "sites",
    "network.merge_sites_max": "sites",
}


def install_all(tracer: Tracer) -> None:
    for name, (path, after) in SPANS.items():
        *owner_path, attr = path.split(".")
        owner = importlib.import_module("walknet." + owner_path[0])
        for part in owner_path[1:]:
            owner = getattr(owner, part)
        scope = [owner] if name == "mqss.repeater_distribute" else None
        install(tracer, name, owner, attr, after, scope)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics (maxima are over the whole run)."""
    totals = tracer.span_totals()
    out: dict[str, tuple[float, str]] = {}
    for name in [*SPANS, TASK_SPAN]:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    for key, unit in COUNTERS.items():
        out[key] = (tracer.counts.get(key, 0) / passes, unit)
    for key, unit in MAXIMA.items():
        out[key] = (tracer.maxima.get(key, 0), unit)
    # computed, not measured: one pass over 16-byte complex amplitudes per apply
    out["qudit.apply.bytes_computed"] = (16 * out["qudit.apply.amps"][0], "bytes")
    calls = out["qudit.measure_all_branches.calls"][0]
    branches = out["qudit.measure_all_branches.branches"][0]
    out["qudit.branches_per_measure"] = (branches / calls if calls else 0.0,
                                         "branches/call")
    return out
