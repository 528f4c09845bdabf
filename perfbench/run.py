"""so3track benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
Workloads are closed loops driven by this one process: the next repetition
starts when the previous one has written its last file.

With `--trace 0` it measures set-up in fresh processes, then repeats the
workload for `--seconds` and prints every end-to-end metric. With `--trace 1`
it runs untraced repetitions for a third of `--seconds`, then two traced
repetitions, and prints every per-layer metric and the tracing overhead.
Both check every member against the stored reference and against repetition
0, and print one JSON result as the last line of standard output.

Every end-to-end time is scaled to one reference host speed: a fixed
calibration loop is timed before and after each repetition (each chunk of
sweep members) and each set-up probe, and the time is multiplied by CAL_REF_S
over their mean. The manifest keeps the raw times and the scale factors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 7
MIN_REPS = 2
TRACED_REPS = 2
# Timings are expressed at the host speed where the calibration loop takes
# CAL_REF_S seconds (see `calibration_s`).
CAL_ITERS = 6000
CAL_REF_S = 0.3
CHUNK_CONFIGS = 4  # sweep members timed between two calibrations


def loadavg() -> list:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def setup_time(inputs_path: Path, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to the first solver step."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(inputs_path), str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["first_step"] - t0


def calibration_s() -> float:
    """Seconds that a fixed loop of small numpy operations takes right now.

    The loop is the benchmark's own and mixes interpreter work with 3 x 3 and
    3-vector numpy calls, as the program does. A shared host's speed drifts by
    a third or more over minutes; the time of this loop follows that drift
    much more closely than a pure interpreter loop does.
    """
    import numpy as np

    c, s = math.cos(0.1), math.sin(0.1)
    step = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r, w = np.eye(3), np.array([0.3, -0.2, 0.9])
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        r = r @ step
        w = np.cross(r @ w, r[0]) + r[2]
        w = w / np.linalg.norm(w)
    return time.perf_counter() - t0


def repeat(workloads, cfgs, out_dir, seconds: float, min_reps: int) -> tuple[list, list]:
    """Repetitions until the next one would end past `seconds`.

    A repetition runs the configs in chunks of at most CHUNK_CONFIGS, one
    after another, and the calibration loop is timed between chunks, so no
    timed stretch is longer than a few seconds. Returns the repetitions, each
    merged from its chunks, and per repetition its chunks, each with the scale
    factor that the calibration just before and just after it gives.
    """
    chunks = [cfgs[i:i + CHUNK_CONFIGS] for i in range(0, len(cfgs), CHUNK_CONFIGS)]
    reps, scaled = [], []
    cal = calibration_s()
    t0 = time.perf_counter()
    while True:
        parts = []
        for chunk in chunks:
            part = workloads.run_rep(chunk, out_dir)
            cal, before = calibration_s(), cal
            parts.append((part, CAL_REF_S / statistics.mean((before, cal))))
        reps.append(workloads.merge([part for part, _ in parts]))
        scaled.append(parts)
        elapsed = time.perf_counter() - t0
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps, scaled


def end_to_end(scaled: list, setups: list) -> dict:
    """The end-to-end metrics from the chunks of each repetition; every time
    is scaled to the reference host speed (`setups` already are)."""
    walls = [sum(p.wall * k for p, k in parts) for parts in scaled]
    sim_walls = [sum(p.sim_wall * k for p, k in parts) for parts in scaled]
    steps = [sum(sum(p.steps.values()) for p, _ in parts) for parts in scaled]
    members = [{key: t * k for p, k in parts for key, t in p.member_times.items()}
               for parts in scaled]
    per_member = {key: statistics.median(m[key] for m in members if key in m)
                  for m in members for key in m}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (statistics.median(n / w for n, w in zip(steps, sim_walls)), "1/s"),
        "member_s_p50": (statistics.median(t for m in members for t in m.values()), "s"),
        "member_s_max": (max(per_member.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "so3track" / "__init__.py").is_file():
        print(f"perfbench: no so3track package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The whole run, the program's pool threads and the set-up probes included,
    # stays on one CPU: threads spread over several CPUs of a shared host hand
    # the interpreter lock across CPUs, and the cost of that follows the
    # neighbours' load more than the program's.
    cpus_usable = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore")  # gain advisories of the bundled configs
    import numpy
    import so3track

    import layers
    import workloads
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = loadavg()
    inputs = workloads.make_inputs(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out" if "scenario" in inputs else None
    try:
        if args.trace == 0:
            inputs_path = run_dir / "inputs.json"
            inputs_path.write_text(json.dumps(inputs))
            probes, setup_cals = [], [calibration_s()]
            for _ in range(SETUP_PROBES):
                probes.append(setup_time(inputs_path, run_dir / "probe"))
                setup_cals.append(calibration_s())
            setups = [p * CAL_REF_S / statistics.mean(c)
                      for p, c in zip(probes, zip(setup_cals, setup_cals[1:]))]
            cfgs = workloads.build_configs(inputs)
            reps, scaled = repeat(workloads, cfgs, out_dir, args.seconds, MIN_REPS)
            metrics = end_to_end(scaled, setups)
            problems, traces, missing, unchecked, absent = [], [], {}, [], {}
            timings = {"setup_probe_s": probes, "setup_calibration_s": setup_cals}
        else:
            bounds, missing = layers.boundaries()
            cfgs = workloads.build_configs(inputs)
            untraced, scaled = repeat(workloads, cfgs, out_dir, args.seconds / 3.0, 1)
            timings = {}
            traces, traced_walls, cal = [], [], calibration_s()
            for _ in range(TRACED_REPS):
                with Tracer(bounds, lambda args: workloads.member_key(*args[:2])) as tracer:
                    rep = workloads.run_rep(workloads.build_configs(inputs), out_dir)
                cal, before = calibration_s(), cal
                traced_walls.append(rep.wall * CAL_REF_S / statistics.mean((before, cal)))
                traces.append((tracer, rep))
            reps = untraced + [rep for _, rep in traces]
            untraced_wall = statistics.median(sum(p.wall * k for p, k in parts) for parts in scaled)
            metrics = layers.metrics([t for t, _ in traces], [r for _, r in traces],
                                     statistics.median(traced_walls) / untraced_wall - 1.0)
            absent = layers.absent_metrics(metrics, missing)
            problems = []
            for tracer, rep in traces:
                found, unchecked = layers.check_invariants(tracer, rep, missing)
                problems += found
            sigs = [layers.counts_signature(t) for t, _ in traces]
            if any(s != sigs[0] for s in sigs):
                problems.append("call counts differ between traced repetitions")
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    per_workload = stored.get(args.workload, {})
    reference = per_workload.get(str(args.seed), per_workload.get("*"))
    failed, cert_failed, mismatches = workloads.check_reps(reps, reference)
    problems = mismatches + problems
    attempted = sum(len(r.outcomes) for r in reps)

    manifest = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(reps), "rep_wall_s": [r.wall for r in reps],
        "calibration_ref_s": CAL_REF_S,
        "rep_chunk_scales": [[k for _, k in parts] for parts in scaled], **timings,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable, "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": loadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "so3track": so3track.__version__, "git_sha": git_sha(ROOT),
        "reference": "stored" if reference is not None else "none: replay check only",
        "missing_boundaries": missing, "absent_metrics": absent,
        "inputs": inputs,
    }
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (WORK / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=1))
    if traces:
        (WORK / f"trace-{tag}.json").write_text(json.dumps({
            "spans": [t.spans for t, _ in traces],
            "members": [{k: {**{f: v for f, v in m.items() if f != "agg"},
                             "agg": {f"{lab} <- {par}": rec for (lab, par), rec in m["agg"].items()}}
                         for k, m in t.members.items()} for t, _ in traces],
        }))

    print(f"so3track benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)} members={attempted}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        if name in absent:
            print(f"  {name:<{width}} = absent (not traced: {', '.join(absent[name])})")
        else:
            print(f"  {name:<{width}} = {value:.6g} {unit}")
    if args.trace == 0:
        print(f"  member_s_* over {sum(len(r.member_times) for r in reps)} member runs; "
              f"member_s_max is the slowest member's median over "
              f"{len(reps)} repetitions; setup_s is the median of {SETUP_PROBES} fresh processes; "
              f"times are at the speed where the calibration loop takes {CAL_REF_S} s")
    lost = len(failed | cert_failed)
    print(f"  fail_frac = {lost}/{attempted} = {lost / attempted:.6g} "
          f"({len(failed)} failed runs, {len(cert_failed)} certified FAIL"
          f"{' as the reference records' if reference is not None else ''})")
    for label, where in missing.items():
        print(f"  not traced, absent from the program: {label} ({where})")
    for invariant in unchecked:
        print(f"  not checked: {invariant}")
    for p in problems:
        print(f"  problem: {p}")
    print("manifest: " + json.dumps(manifest))
    # The JSON line carries every metric as a number, absent ones too; the
    # lines above and the manifest say which are absent.
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
