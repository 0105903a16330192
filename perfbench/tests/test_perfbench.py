"""Tests of the benchmark itself, at its smallest scale.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_scale_has_no_failed_operations(workload):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0.1",
                    "--trace", "0", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run_cli("--workload", "pipeline", "--seed", "3", "--seconds", "0.1",
                    "--trace", "1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["response.partitions"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "pipeline", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_perturbed_fixture_reference_counts_as_failure(tmp_path):
    wl = workloads.build("sweep", 3, "smoke", tmp_path)
    assert run.run_pass(wl)["failed"] == 0
    wl.refs["sweep/nine_node"] = wl.refs["sweep/nine_node"].replace(",", ";", 1)
    failures = []
    assert run.run_pass(wl, failures=failures)["failed"] == 1
    assert failures[0].startswith("sweep/nine_node:")


def test_perturbed_default_seed_reference_counts_as_failure():
    name = "attack/24/00"
    answer = {"cut": [3, 5], "rupture": -1, "components": [[1, 2], [4]]}
    wl = workloads.Workload("attack", workloads.DEFAULT_SEED, "full", [],
                            refs={name: answer})
    op = workloads.Op(name, [], lambda stdout: None)
    stdout = json.dumps({"attack": dict(answer, stats={"nodes_explored": 9})})
    workloads.check_against_refs(wl, op, stdout)   # stats are not compared
    perturbed = json.dumps({"attack": dict(answer, cut=[3, 6])})
    with pytest.raises(workloads.Mismatch):
        workloads.check_against_refs(wl, op, perturbed)


def test_stored_references_cover_every_default_seed_operation(tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED, "full", tmp_path / name)
        assert {op.name for op in wl.ops} == set(wl.refs), name


def _output_counters(workload, outputs):
    """Exact counters that an untraced pass shows in its outputs."""
    if workload == "attack":
        return {"attack.bb_nodes": sum(
            json.loads(out)["attack"]["stats"]["nodes_explored"] for out in outputs)}
    if workload == "export":
        return {"model_io.export_bytes": sum(len(out.encode()) for out in outputs)}
    if workload == "pipeline":
        header = outputs[0].splitlines()[0].split(",")
        links = [int(dict(zip(header, out.splitlines()[1].split(",")))["mceic_links"])
                 for out in outputs]
        s_values = [int((1 + (1 + 8 * k) ** 0.5) / 2) for k in links]
        return {"response.partitions": sum(tracing.bell(s) for s in s_values)}
    return {}


def _without_timings(workload, outputs):
    """Outputs with the attack JSON's solver wall time removed."""
    if workload != "attack":
        return outputs
    stripped = []
    for out in outputs:
        data = json.loads(out)
        del data["attack"]["stats"]["wall_time"]
        stripped.append(data)
    return stripped


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_and_match_untraced_outputs(workload, tmp_path):
    wl = workloads.build(workload, 3, "smoke", tmp_path)
    plain = run.run_pass(wl)
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        assert traced["failed"] == 0
        assert (_without_timings(workload, traced["outputs"])
                == _without_timings(workload, plain["outputs"]))
        counters.append(tracing.layer_metrics(tracer.spans))
    for name in tracing.EXACT_COUNTERS:
        assert counters[0][name] == counters[1][name], name
    for name, value in _output_counters(workload, plain["outputs"]).items():
        assert value > 0
        assert counters[0][name] == value, name


def test_tracer_restores_every_patched_function():
    import rupturekit.bench
    import rupturekit.response

    before = (rupturekit.bench.solve_response, rupturekit.response.solve_attack)
    tracer = tracing.Tracer()
    tracer.install()
    assert rupturekit.bench.solve_response is not before[0]
    tracer.uninstall()
    assert (rupturekit.bench.solve_response, rupturekit.response.solve_attack) == before


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, "cli", None, 0, 0.0, 10.0),
        tracing.Span(1, "bench.run_pipeline", 0, 0, 1.0, 9.0),
        tracing.Span(2, "response.solve_response", 1, 0, 2.0, 5.0,
                     {"s": 4, "partitions": 15, "links": 3}),
        tracing.Span(3, "response.dynamic_worst_cut", 1, 0, 5.0, 8.0),
        tracing.Span(4, "attack.solve_attack", 3, 0, 5.5, 7.5,
                     {"nodes": 40, "cuts_applied": 0}),
    ]
    out = tracing.layer_metrics(spans)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["bench.run_pipeline.self_s"] == pytest.approx(2.0)
    assert out["response.dynamic_worst_cut.self_s"] == pytest.approx(1.0)
    assert out["response.dynamic_attack.s"] == pytest.approx(2.0)
    assert out["response.dynamic_bb_nodes"] == 40
    assert out["attack.bb_nodes"] == 0
    assert out["response.partitions_per_s"] == pytest.approx(5.0)


def test_bell_numbers():
    assert [tracing.bell(s) for s in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 5 + [10.2] * 5, [8.0] * 10, "improved"),
    ([10.0] * 5 + [10.2] * 5, [8.0] * 8 + [11.0] * 2, "unresolved"),
    ([10.0] * 5 + [10.2] * 5, [13.0] * 10, "worse"),
    ([10.0] * 5 + [10.2] * 5, [10.1] * 10, "unchanged"),
    ([6.0, 14.0] * 5, [13.0, 14.5] * 5, "unresolved"),
    ([10.0] * 3, [8.0] * 3, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, True, 0.25)[0] == expected
