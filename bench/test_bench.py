"""Self-test of the benchmark, on the tiny inputs of --smoke.

Every metric BENCHMARK.json names is emitted with its unit, the correctness
checks trip on corrupted outputs, and a checkout without the walknet sources
is refused without a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402
from walknet.protocols import CorrectionOp  # noqa: E402
from walknet.qudit import pauli_x  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                  "--trace", str(trace), "--smoke", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["environment"]["seed"] == 3 and record["digest"]
    if trace:
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(lines) == result["metrics"]["trace.spans"]["value"] * len(record["pass_seconds"])
        assert all(set(s) == {"name", "start", "end", "parent", "task"} and s["end"] >= s["start"]
                   for s in lines)
    if workload == "network":
        # the over-cap hub and the GHZ-hyperedge network are refused today
        if trace:
            assert result["metrics"]["network.execute_schedule.errors"]["value"] >= 1
            assert result["metrics"]["network.plan_distribution.errors"]["value"] >= 1
        else:
            assert result["metrics"]["served_frac"]["value"] < 1


def _first(tasks, name, where=""):
    return next(t for t in tasks if t.name == name and where in t.params)


def _trips(task, output):
    with pytest.raises(workloads.CheckFailed):
        task.check(output)


def test_checks_trip_on_corrupted_outputs():
    catalog = workloads.build("catalog", 3, small=True)
    task = _first(catalog, "run_protocol")
    result = task.call()
    task.check(result)
    result.branches[0] = dataclasses.replace(result.branches[0], fidelity=0.5)
    _trips(task, result)

    task = _first(catalog, "verify_table")
    report = task.call()
    report.rows[0].corrected_fidelity = 0.0
    _trips(task, report)

    task = _first(catalog, "correction_for", " d=2,")
    corr = task.call()
    task.check(corr)
    _trips(task, CorrectionOp(ops=((0, "X", pauli_x(2)),) + corr.ops, label="X0 first"))

    _trips(_first(catalog, "protocol_fidelity_under_noise"), 0.5)

    net = workloads.build("network", 3, small=True)
    task = _first(net, "execute_schedule")
    schedule, result = task.call()
    task.check((schedule, result))
    result.fidelity = 0.5
    _trips(task, (schedule, result))

    task = _first(net, "execute_merge_schedule")
    result = task.call()
    result.fidelity = 0.5
    _trips(task, result)

    task = _first(net, "analytics")
    record = task.call()
    record.clustering += 0.1
    _trips(task, record)

    sessions = workloads.build("mqss", 3, small=True)
    task = _first(sessions, "run_mqss", "eavesdrop_channel=None")
    transcript = task.call()
    task.check(transcript)
    transcript.public_value += 1
    _trips(task, transcript)

    task = _first(sessions, "run_mqss", "eavesdrop_channel=1")
    transcript = task.call()
    task.check(transcript)
    transcript.aborted = False
    _trips(task, transcript)

    # the pooled rate from the attack checked above is nowhere near 0.9
    _trips(sessions[-1], 0.9)


def test_only_known_refusals_count_as_rejected():
    import run

    def task(message):
        def call():
            raise workloads.NetworkError(message)
        return workloads.Task("distribute", message, call, lambda out: None, may_reject=True)

    refused = task("step at node 0 needs 24 live sites at d=2; over the dense cap")
    wrong = task("step at node 0 failed to recover GHZ (fid=0.5)")
    result = run.run_passes(workloads, [refused, wrong], passes=1, heavy_every=1, seconds=60)
    assert (result["rejected"], result["failed"]) == (1, 1)
    assert "failed to recover GHZ" in result["failures"][0]["error"]


def test_heavy_tasks_run_only_in_every_nth_pass():
    import run

    calls = {"heavy": 0, "light": 0}

    def task(kind):
        def call():
            calls[kind] += 1
        return workloads.Task(kind, "", call, lambda out: None, heavy=kind == "heavy")

    result = run.run_passes(workloads, [task("heavy"), task("light")], passes=7,
                            heavy_every=3, seconds=60)
    assert calls == {"heavy": 3, "light": 7} and result["attempted"] == 10
    assert len(result["fastest"]) == 2 and result["digest_repeats"]


def test_checkout_without_walknet_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
