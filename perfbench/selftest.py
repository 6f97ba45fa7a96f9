"""Self-tests of the benchmark harness, on tiny inputs.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the ``test_*.py`` pattern so that the package's own test run
does not pick them up; they start many short-lived interpreters.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import probe
import run as harness
import tracer
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layers = tracer.LAYER_METRICS + [tracer.OVERHEAD]
    assert BENCHMARK["per_layer"] == [{"name": m[0], "unit": m[1], "better": m[2]} for m in layers]
    for _name, _unit, _better, _moves, on, *_ in layers:
        assert set(on) <= set(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        assert workloads.inputs_for(name, 0) == reference["workloads"][name]["inputs"]
        assert workloads.inputs_for(name, 7) == workloads.inputs_for(name, 7)
        jittered = workloads.inputs_for(name, 7)
        assert jittered != workloads.inputs_for(name, 0)
        for key in ("r_max", "samples"):
            if key in jittered:
                assert jittered[key] == pytest.approx(workloads.inputs_for(name, 0)[key], rel=0.07)


def test_recorded_outputs_pass_and_perturbed_ones_fail():
    reference = workloads.load_reference()
    for name, entry in reference["workloads"].items():
        inputs, outputs = entry["inputs"], entry["outputs"]
        assert workloads.check(inputs, outputs, reference) == []
        perturbed = []
        for key, value in outputs.items():
            bad = copy.deepcopy(outputs)
            if key == "seams":
                bad[key][0][0] += "-renamed"
                perturbed.append(bad)
                bad = copy.deepcopy(outputs)
                bad[key][-1][1] = 2 * workloads.GAP_LIMIT
            elif isinstance(value, bool):
                bad[key] = not value
            elif isinstance(value, int):
                bad[key] = value + 1
            else:
                bad[key] = value * (1.0 + 1e-9)
            perturbed.append(bad)
        for bad in perturbed:
            assert workloads.check(inputs, bad, reference), bad


def _probe_samples(times):
    """Samples of both kernels, a tenth of a second apart, ``times`` their slowness."""
    return [(0.1 * i, slow * ref, kernel)
            for i, slow in enumerate(times) for kernel, ref in enumerate(probe.REFERENCE_S)]


def test_slowness_follows_the_interval():
    samples = _probe_samples([1.0] * 10 + [2.0] * 10)
    assert probe.slowness(samples, 0.0, 0.95) == pytest.approx(1.0)
    assert probe.slowness(samples, 1.0, 1.95) == pytest.approx(2.0)
    # too few samples inside: the five nearest the middle, 0.8 to 1.2
    assert probe.slowness(samples, 0.97, 0.99) == pytest.approx(1.6)
    assert probe.at_reference_speed(3.0, samples, 1.0, 1.95) == pytest.approx(1.5)


def test_slowness_is_the_geometric_mean_of_the_kernels():
    samples = [(0.1 * i, ref * (4.0 if kernel else 1.0), kernel)
               for i in range(10) for kernel, ref in enumerate(probe.REFERENCE_S)]
    assert probe.slowness(samples, 0.0, 1.0) == pytest.approx(2.0)


def test_slowness_drops_preempted_kernels():
    samples = _probe_samples([1.0] * 20 + [30.0])
    assert probe.slowness(samples, 0.0, 2.0) == pytest.approx(1.0)


def test_probe_process_samples_and_stops():
    running = probe.Probe(min(os.sched_getaffinity(0)))
    time.sleep(0.3)
    samples = running.stop()
    assert running.proc.returncode is not None
    assert {kernel for _start, _seconds, kernel in samples} == {0, 1}
    assert all(seconds > 0 for _start, seconds, _kernel in samples)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def tiny(request):
    """Tiny inputs of one workload and a reference made from one cold run of them."""
    inputs = workloads.inputs_for(request.param, 0, tiny=True)
    plain = harness.run_repetition({"inputs": inputs}, 120.0)
    reference = {"workloads": {request.param: {"inputs": inputs, "outputs": plain["outputs"]}}}
    return inputs, reference


def test_tiny_timed_run(tiny):
    inputs, reference = tiny
    run = harness.Run(inputs, reference)
    metrics = harness.timed_run(run, seconds=1.0)
    assert run.failed == 0 and not run.problems
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _unit in metrics.values())


def test_tiny_traced_run(tiny):
    inputs, reference = tiny
    run = harness.Run(inputs, reference)
    metrics = harness.traced_run(run)
    assert run.failed == 0 and not run.problems
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for name, unit, _better, _moves, on, _value in tracer.LAYER_METRICS:
        if unit == "count" and inputs["workload"] in on:
            assert metrics[name][0] > 0, name


def test_perturbed_reference_counts_as_failure(tiny):
    inputs, reference = tiny
    bad = copy.deepcopy(reference)
    seams = bad["workloads"][inputs["workload"]]["outputs"]["seams"]
    seams[0][0] += "-renamed"
    run = harness.Run(inputs, bad)
    run.repeat()
    assert run.failed == 1 and run.problems


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spiral-quad", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
