"""Benchmark harness for banklaine's report workloads.

    python3 perfbench/run.py --workload spiral-quad --seed 0 --seconds 36 --trace 0

Run from the repository root.  Every repetition runs in a fresh interpreter
pinned to one CPU, while the speed probe (``probe.py``) samples that CPU.
With ``--trace 0`` the harness runs repetitions one after another for about
``--seconds``; it reports the medians of run time and set-up time, both
scaled to the probe's reference speed, the median peak memory and the
largest seam gap.  The unscaled wall times are printed beside them and kept
in the detail line.  With ``--trace 1`` it runs one untraced and two traced
repetitions and reports the per-layer metrics of ``tracer.LAYER_METRICS``
and the tracing overhead on scaled run times; the traced outputs must equal
the untraced ones and the two traced runs must give identical counts.

Every repetition's outputs are checked (see ``workloads.check``); a
repetition that raises or fails a check counts in ``failed``.  The last line
of standard output is the result as one JSON object; the line before it
carries the environment, the inputs and every repetition's figures.

``--record-reference`` rewrites ``reference.json`` from one seed-0
repetition per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads
from probe import Probe, at_reference_speed
from tracer import LAYER_METRICS, OVERHEAD, layer_metrics

DEADLINE_S = 170.0  # a run must end within 180 s
# set-up-only repetitions after each timed one: a few hundred milliseconds
# each, they give set-up time as many samples as the slower workloads need
SETUPS_PER_REP = 2


class RepetitionError(RuntimeError):
    pass


def run_repetition(spec: dict, timeout: float) -> dict:
    """One repetition in a fresh interpreter; raises RepetitionError on failure."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(workloads.HERE / "workloads.py"), json.dumps(spec)],
            cwd=workloads.ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"repetition timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepetitionError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=workloads.ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], workloads.ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
            "nproc": len(os.sched_getaffinity(0))}


class Run:
    """Repetitions of one workload and their checks."""

    def __init__(self, inputs: dict, reference: dict):
        self.inputs = inputs
        self.reference = reference
        self.cpu = min(os.sched_getaffinity(0))
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems: list[str] = []
        self.reps: list[dict] = []
        self.setups: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def repeat(self, **flags) -> dict | None:
        """Run and check one repetition; None when it failed."""
        self.attempted += 1
        try:
            rep = run_repetition({"inputs": self.inputs, "cpu": self.cpu, **flags},
                                 self.remaining())
        except RepetitionError as exc:
            self.problems.append(str(exc))
            return None
        found = workloads.check(self.inputs, rep["outputs"], self.reference)
        self.problems.extend(found)
        rep["ok"] = not found
        self.reps.append(rep)
        return rep

    @property
    def failed(self) -> int:
        return self.attempted - sum(rep["ok"] for rep in self.reps)


def timed_run(run: Run, seconds: float) -> dict:
    """Repetitions for about ``seconds``, at least one, with the probe running.

    Another repetition starts while its expected end is at most half a
    repetition past ``seconds``, so that runs last ``seconds`` on average.
    """
    setups, samples = _with_probe(run, lambda: _repeat_for(run, seconds))
    if not run.reps:
        raise RepetitionError("no repetition completed:\n" + "\n".join(run.problems))
    _scale_runs(run.reps, samples)
    for setup in setups:
        setup["setup_ref_s"] = at_reference_speed(setup["setup_s"], samples, *setup["stamps"])
    run.setups = setups
    return {
        "run_s": (statistics.median(rep["run_ref_s"] for rep in run.reps), "s"),
        "setup_s": (statistics.median(setup["setup_ref_s"] for setup in setups), "s"),
        "peak_rss_mib": (statistics.median(rep["peak_rss_mib"] for rep in run.reps), "MiB"),
        "max_seam_gap": (max(workloads.max_seam_gap(rep["outputs"]) for rep in run.reps), "1"),
    }


def _with_probe(run: Run, body):
    """``body()`` with the probe sampling the run's CPU; its result and the samples."""
    probe = Probe(run.cpu)
    try:
        result = body()
    finally:
        samples = probe.stop()
    if not samples:
        raise RepetitionError("the speed probe returned no samples")
    return result, samples


def _scale_runs(reps: list[dict], samples: list) -> None:
    for rep in reps:
        _, t1, t2 = rep["stamps"]
        rep["run_ref_s"] = at_reference_speed(rep["run_s"], samples, t1, t2)


def _repeat_for(run: Run, seconds: float) -> list[dict]:
    """Timed and set-up-only repetitions; returns the set-up samples."""
    walls, setups = [], []
    while True:
        t = time.perf_counter()
        rep = run.repeat()
        if rep is not None:
            setups.append({"setup_s": rep["setup_s"], "stamps": rep["stamps"][:2]})
            for _ in range(SETUPS_PER_REP):
                setups.append(run_repetition(
                    {"inputs": run.inputs, "cpu": run.cpu, "setup_only": True},
                    run.remaining()))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - run.start
        if elapsed + 0.5 * statistics.median(walls) > min(seconds, DEADLINE_S - 40.0):
            return setups


def traced_run(run: Run) -> dict:
    (plain, traced), samples = _with_probe(
        run, lambda: (run.repeat(), [run.repeat(trace=True) for _ in range(2)]))
    if plain is None or None in traced:
        raise RepetitionError("a repetition failed:\n" + "\n".join(run.problems))
    for rep in traced:
        if rep["outputs"] != plain["outputs"]:
            run.problems.append("traced outputs differ from untraced ones")
            rep["ok"] = False
    first, second = (rep["trace"] for rep in traced)
    if first["edges"] != second["edges"]:
        run.problems.append("the two traced repetitions counted differently")
        traced[1]["ok"] = False
    snap = {"edges": first["edges"],
            "self_s": {k: 0.5 * (v + second["self_s"].get(k, 0.0))
                       for k, v in first["self_s"].items()}}
    metrics = layer_metrics(snap)
    _scale_runs([plain, *traced], samples)
    traced_s = statistics.mean(rep["run_ref_s"] for rep in traced)
    metrics[OVERHEAD[0]] = (traced_s / plain["run_ref_s"] - 1.0, OVERHEAD[1])
    return metrics


def record_reference() -> None:
    env = environment()
    ref = {"note": "outputs of one seed-0 repetition per workload",
           "recorded_with": env, "workloads": {}}
    for name in workloads.WORKLOADS:
        inputs = workloads.inputs_for(name, 0)
        rep = run_repetition({"inputs": inputs}, DEADLINE_S)
        ref["workloads"][name] = {"inputs": inputs, "outputs": rep["outputs"]}
        problems = workloads.check(inputs, rep["outputs"], ref)
        if problems:
            sys.exit(f"{name}: {problems}")
        print(f"{name}: {json.dumps(rep['outputs'])}")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    # a terminated harness still stops the probe and the running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (workloads.SRC / "banklaine" / "__init__.py").is_file():
        print(f"error: no banklaine sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    inputs = workloads.inputs_for(args.workload, args.seed)
    run = Run(inputs, workloads.load_reference())
    try:
        metrics = traced_run(run) if args.trace else timed_run(run, args.seconds)
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in dict.fromkeys(run.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    moves = {m[0]: f"moves {m[3]} on {', '.join(m[4])}" for m in LAYER_METRICS + [OVERHEAD]}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:36s} {value:<12.6g} {unit:6s} {moves.get(name, '')}".rstrip())
    if run.setups:
        walls = {"run_s": statistics.median(rep["run_s"] for rep in run.reps),
                 "setup_s": statistics.median(setup["setup_s"] for setup in run.setups)}
        print(f"{args.workload:12s} unscaled wall medians: run_s {walls['run_s']:.6g} s, "
              f"setup_s {walls['setup_s']:.6g} s")
    print(f"{args.workload:12s} {'fail_frac':36s} {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} repetitions)")
    detail = {"environment": environment(), "inputs": inputs, "seconds": args.seconds,
              "repetitions": [{k: v for k, v in rep.items() if k != "outputs"}
                              for rep in run.reps],
              "setups": run.setups}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
