"""Benchmark workloads: inputs from a seed, one cold repetition, output checks.

Each repetition runs in a fresh interpreter (``python3 workloads.py SPEC``),
so the process-wide ``lru_cache``s of banklaine start empty, as they do in a
user's run.  The repetition prints one JSON object: its set-up and run times,
the ``time.perf_counter`` stamps that bound them, its peak resident memory
and the outputs the harness checks.  Given a ``cpu``, it pins itself there.

Seed 0 gives the Tier-1 fixture parameters.  Other seeds jitter the annulus
radii of the quadrature workloads and the seam sample grid of ``power-seams``,
moving the work by a few percent; they are checked by invariants, while
inputs equal to the recorded ones are checked against ``reference.json``.
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

GAP_LIMIT = 1e-9        # Tier-1 seam threshold
MAX_STRADDLE = 0.20     # dilatation_integral's own reliability cutoff
REL_TOL = 1e-12         # on total and straddle_fraction; bit-identical at recording
CELL_KEYS = ("evaluated_cells", "conformal_cells", "skipped_cells", "straddled_cells")

# every quadrature workload also sweeps its map's seams on this fixed grid,
# outside the timed call, so that each workload reports max_seam_gap
PROBE = {"samples": 16, "strips": 2}

WORKLOADS = {
    "spiral-quad": {"flavor": "spiral", "params": {"lower": [0, 0], "upper": [1, 1]},
                    "r_min": 1.0, "r_max": 200.0, "tiny_r_max": 20.0},
    "strips-quad": {"flavor": "strips", "params": {"lam1": 0.5, "lam2": 0.5},
                    "r_min": 1.0, "r_max": 450.0, "tiny_r_max": 40.0},
    "power-seams": {"flavor": "power", "params": {"rho": 0.75, "delta": 0.5},
                    "samples": 16, "strips": 2, "tiny_samples": 4, "tiny_strips": 1},
}


def inputs_for(name: str, seed: int, tiny: bool = False) -> dict:
    """The inputs of one run; the same seed always gives the same inputs."""
    w = WORKLOADS[name]
    out = {"workload": name, "flavor": w["flavor"], "params": w["params"]}
    if "r_max" in w:
        r_min, r_max = w["r_min"], w["tiny_r_max"] if tiny else w["r_max"]
        if seed:
            rng = random.Random(seed)
            r_min *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
            r_max *= 1.0 + 0.005 * rng.uniform(-1.0, 1.0)
        out.update(r_min=r_min, r_max=r_max)
    else:
        samples = w["tiny_samples"] if tiny else w["samples"]
        # one more sample moves every grid point and about 4% of the work
        out.update(samples=samples + seed % 2,
                   strips=w["tiny_strips"] if tiny else w["strips"])
    return out


# ---------------------------------------------------------------------------
# one repetition, in its own interpreter
# ---------------------------------------------------------------------------

def repetition(spec: dict) -> dict:
    """Set up, run and describe one workload; times exclude interpreter start."""
    inputs = spec["inputs"]
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import banklaine
    from banklaine import surgery

    if not Path(banklaine.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"banklaine imported from {banklaine.__file__}, not from {SRC}")
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer().install()
    try:
        return _timed(surgery, inputs, t0, tracer, spec.get("setup_only", False))
    finally:
        if tracer is not None:
            tracer.uninstall()


def _timed(surgery, inputs: dict, t0: float, tracer, setup_only: bool) -> dict:
    gmap = surgery.assemble(inputs["flavor"], **inputs["params"])
    t1 = time.perf_counter()
    if setup_only:
        return {"setup_s": t1 - t0, "stamps": [t0, t1]}

    if "r_max" in inputs:
        result = surgery.dilatation_integral(gmap, inputs["r_min"], inputs["r_max"])
    else:
        result = gmap.seam_residuals(samples=inputs["samples"], strips=inputs["strips"])
    t2 = time.perf_counter()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = tracer.snapshot() if tracer is not None else None

    if "r_max" in inputs:
        outputs = {"total": result.total, "straddle_fraction": result.straddle_fraction,
                   "tail_ok": bool(result.tail_ok)}
        outputs.update({key: int(getattr(result, key)) for key in CELL_KEYS})
        seams = gmap.seam_residuals(**PROBE)
    else:
        outputs = {}
        seams = result
    outputs["seams"] = [[c.name, float(c.max_gap)] for c in seams]
    return {"setup_s": t1 - t0, "run_s": t2 - t1, "stamps": [t0, t1, t2],
            "peak_rss_mib": peak_rss_mib, "outputs": outputs, "trace": trace}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(inputs: dict, outputs: dict, reference: dict) -> list[str]:
    """Problems with one repetition's outputs; empty when they pass.

    Inputs equal to the recorded ones must reproduce the recorded outputs:
    cell counts exactly, total and straddle fraction to REL_TOL, the same
    seam names.  Any inputs must keep every seam gap below GAP_LIMIT and the
    quadrature sound: finite total, straddle fraction at most MAX_STRADDLE,
    and a converged Cauchy tail where the reference has one (the spiral).
    """
    ref = reference["workloads"][inputs["workload"]]
    want = ref["outputs"]
    problems = []
    names = sorted(n for n, _ in outputs["seams"])
    if names != sorted(n for n, _ in want["seams"]):
        problems.append(f"seam names {names} differ from the reference")
    for name, gap in outputs["seams"]:
        if not gap < GAP_LIMIT:
            problems.append(f"seam {name}: gap {gap!r} not below {GAP_LIMIT}")
    if "total" in outputs:
        if not math.isfinite(outputs["total"]):
            problems.append(f"total {outputs['total']!r} is not finite")
        if not outputs["straddle_fraction"] <= MAX_STRADDLE:
            problems.append(f"straddle fraction {outputs['straddle_fraction']!r} above {MAX_STRADDLE}")
        if want["tail_ok"] and not outputs["tail_ok"]:
            problems.append("the Cauchy tail no longer converges")
    if inputs == ref["inputs"]:
        for key, value in want.items():
            if key == "seams":
                continue
            if key in ("total", "straddle_fraction"):
                ok = math.isclose(outputs[key], value, rel_tol=REL_TOL, abs_tol=0.0)
            else:
                ok = outputs[key] == value
            if not ok:
                problems.append(f"{key} = {outputs[key]!r}, reference {value!r}")
    return problems


def max_seam_gap(outputs: dict) -> float:
    return max(gap for _, gap in outputs["seams"])


if __name__ == "__main__":
    print(json.dumps(repetition(json.loads(sys.argv[1]))))
