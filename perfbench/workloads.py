"""Workloads of the so3track benchmark.

A workload turns a seed into inputs for the program, builds the program's
scenario configs from them, and runs one repetition through the program's
public API. Every member run is reduced to an outcome that is checked against
the stored reference for that workload and seed, and against the first
repetition of the same run.

The load comes from this one benchmark process; the up-to-4-thread pool
inside `run_scenario` belongs to the program under test and is measured as it is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
from so3track import scenarios

# Workload name -> why it exists, as BENCHMARK.json states it.
WORKLOADS = {w["name"]: w["why"] for w in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["workloads"]}

# Horizons are fixed by the benchmark so that a repetition takes a few seconds
# on a 2-core machine; dt, gains and noise stay as bundled.
FIG3_T_MAX = 2.0
FIG4_T_MAX = 1.5
SWEEP_MEMBERS = 32
SWEEP_T_MAX = 0.5
SWEEP_RATE = 20.0  # rad/s, half-width of the uniform draw per body axis
SWEEP_K_THETA = (1.0, 50.0)  # log-uniform range
SWEEP_LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")

TOL = 1e-6  # jump times [s], terminal dist_Re and theta


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; the same seed gives the same inputs."""
    if workload == "fig3_quiet":
        return {"scenario": "fig3", "t_max": FIG3_T_MAX, "seed": seed}
    if workload == "fig4_noisy":
        return {"scenario": "fig4", "t_max": FIG4_T_MAX, "seed": seed}
    if workload != "tumble_sweep":
        raise ValueError(f"unknown workload '{workload}'")
    rng = np.random.default_rng(seed)
    log_k = (math.log(SWEEP_K_THETA[0]), math.log(SWEEP_K_THETA[1]))
    members = []
    for i in range(SWEEP_MEMBERS):
        # Uniform attitude: a unit quaternion from four normals, as angle-axis.
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        if q[0] < 0.0:
            q = -q
        axis = q[1:] / np.linalg.norm(q[1:])
        members.append({
            "name": f"tumble{i:02d}",
            "controllers": [SWEEP_LAWS[i % len(SWEEP_LAWS)]],
            "R0_axis": [float(x) for x in axis],
            "R0_angle": 2.0 * math.acos(min(1.0, float(q[0]))),
            "omega0": [float(x) for x in rng.uniform(-SWEEP_RATE, SWEEP_RATE, 3)],
            "theta0": float(rng.uniform(-math.pi, math.pi)),
            "theta_set": [-0.9 * math.pi, 0.9 * math.pi],
            "k_theta": math.exp(float(rng.uniform(*log_k))),
            "noise_var_R": 0.0,
            "noise_var_omega": 0.0,
            "t_max": SWEEP_T_MAX,
            "seed": seed,
        })
    return {"base": "fig4", "members": members}


def build_configs(inputs: dict) -> list:
    """Parse, override and validate the program's scenario configs.

    Every call goes through the `scenarios` module attributes, so a tracer
    installed on them sees it. fig3/fig4 mirror `so3track run <name> --seed n
    --t-max T`; the sweep builds each member from fig4's shared settings.
    """
    if "scenario" in inputs:
        cfg = scenarios.load_scenario(inputs["scenario"])
        seed = inputs["seed"]
        cfg = dataclasses.replace(
            cfg, seed=seed, t_max=inputs["t_max"],
            members=[dataclasses.replace(m, seed=seed + m.index) for m in cfg.members],
        )
        scenarios.validate_scenario(cfg)
        return [cfg]
    base = scenarios.parse_config_text(
        scenarios.bundled_scenarios()[inputs["base"]].read_text())
    cfgs = []
    for overrides in inputs["members"]:
        cfg = scenarios.scenario_from_mapping({**base, **overrides})
        scenarios.validate_scenario(cfg)
        cfgs.append(cfg)
    return cfgs


def member_key(cfg, member) -> str:
    return f"{cfg.name}/{member.label}"


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """Set `owner.attr` for the duration of the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


@dataclasses.dataclass
class Rep:
    """One repetition of a workload, reduced to what the checks and metrics need."""

    wall: float  # first solver step to the last file written
    sim_wall: float  # first solver step to the last member certified
    member_times: dict  # member key -> solve + certify [s]
    steps: dict  # member key -> accepted RK4 steps
    rows: int  # recorded samples over all members (CSV rows)
    jumps: int
    outcomes: dict  # member key -> outcome, or {"raised": repr}
    csv_sha: dict  # CSV file name -> sha256
    noisy: dict  # member key -> whether the loop samples measurement noise


def outcome(result) -> dict:
    arc, rep = result.arc, result.report
    return {
        "status": arc.status,
        "jumps": len(arc.jumps),
        "jump_t": [float(ev.t) for ev in arc.jumps],
        "passed": bool(rep.passed),
        "verdicts": [rep.flow_monotone_ok, rep.jump_drops_ok, rep.jump_count_ok,
                     rep.torque_continuity_ok],
        "dist": float(rep.terminal_dist),
        "theta": float(rep.terminal_theta),
    }


def run_rep(cfgs: list, out_dir: Path | None) -> Rep:
    """Run every member once, as a user of the program would, and time it.

    With an output directory the single scenario goes through `run_scenario`
    (thread pool, CSV, SVG); without one each config's member goes through
    `simulate_member` in turn and no file is written. Times start at the
    first `solve` call, so member construction before it counts in set-up
    only; a member that never calls `scenarios.solve` is timed from its start.
    """
    spans = {}  # member key -> (solve start, end); one setitem per member thread
    local = threading.local()  # the solve start of the member on this thread

    def timed_member(original):
        def simulate_member(cfg, member):
            local.start = None
            t0 = time.perf_counter()
            try:
                return original(cfg, member)
            finally:
                start = t0 if local.start is None else local.start
                spans[member_key(cfg, member)] = (start, time.perf_counter())
        return simulate_member

    def timed_solve(original):
        def solve(*args, **kwargs):
            if getattr(local, "start", None) is None:
                local.start = time.perf_counter()
            return original(*args, **kwargs)
        return solve

    results, raised = [], {}
    attempted = [member_key(c, m) for c in cfgs for m in c.members]
    with (patched(scenarios, "simulate_member", timed_member(scenarios.simulate_member)),
          patched(scenarios, "solve", timed_solve(scenarios.solve))):
        t0 = time.perf_counter()
        if out_dir is not None:
            (cfg,) = cfgs
            try:
                results = [(cfg, r) for r in scenarios.run_scenario(cfg, out_dir, plots=True).members]
            except Exception as e:  # a failed scenario fails each of its members
                raised = {k: repr(e) for k in attempted}
        else:
            for cfg in cfgs:
                try:
                    results.append((cfg, scenarios.simulate_member(cfg, cfg.members[0])))
                except Exception as e:
                    raised[member_key(cfg, cfg.members[0])] = repr(e)
        t1 = time.perf_counter()

    outcomes = {k: {"raised": v} for k, v in raised.items()}
    steps, noisy, csv_sha, rows, jumps = {}, {}, {}, 0, 0
    for cfg, res in results:
        key = member_key(cfg, res.member)
        outcomes[key] = outcome(res)
        steps[key] = len(res.arc) - 1 - len(res.arc.jumps)
        noisy[key] = res.loop.noise is not None
        rows += len(res.arc)
        jumps += len(res.arc.jumps)
        if res.csv_path is not None:
            csv_sha[res.csv_path.name] = hashlib.sha256(res.csv_path.read_bytes()).hexdigest()
    start = min((s for s, _ in spans.values()), default=t0)
    return Rep(
        wall=t1 - start,
        sim_wall=max((e for _, e in spans.values()), default=t1) - start,
        member_times={k: e - s for k, (s, e) in spans.items()},
        steps=steps, rows=rows, jumps=jumps,
        outcomes={k: outcomes[k] for k in attempted},
        csv_sha=csv_sha, noisy=noisy,
    )


def merge(parts: list) -> Rep:
    """One repetition from repetitions over disjoint chunks of the configs,
    run one after another."""
    return Rep(
        wall=sum(p.wall for p in parts),
        sim_wall=sum(p.sim_wall for p in parts),
        member_times={k: v for p in parts for k, v in p.member_times.items()},
        steps={k: v for p in parts for k, v in p.steps.items()},
        rows=sum(p.rows for p in parts),
        jumps=sum(p.jumps for p in parts),
        outcomes={k: v for p in parts for k, v in p.outcomes.items()},
        csv_sha={k: v for p in parts for k, v in p.csv_sha.items()},
        noisy={k: v for p in parts for k, v in p.noisy.items()},
    )


def compare(got: dict, ref: dict) -> str | None:
    """None when a member's outcome matches its reference, else the first difference."""
    if "raised" in ref:
        return f"the reference run raised {ref['raised']}"
    for key in ("status", "jumps", "passed", "verdicts"):
        if got[key] != ref[key]:
            return f"{key} {got[key]!r} != reference {ref[key]!r}"
    for a, b in zip(got["jump_t"], ref["jump_t"]):
        if abs(a - b) > TOL:
            return f"jump time {a!r} != reference {b!r}"
    for key in ("dist", "theta"):
        if abs(got[key] - ref[key]) > TOL:
            return f"terminal {key} {got[key]!r} != reference {ref[key]!r}"
    return None


def check_reps(reps: list, reference: dict | None) -> tuple[set, set, list]:
    """Members that failed, members certified FAIL as the reference records, and
    every mismatch found.

    A member fails when it raised, differed from its stored reference, or
    differed from the first repetition (exact replay, CSV files byte for
    byte). A certification FAIL that the stored reference also records is the
    program's correct answer for that member, not a failed run of it; it is
    counted apart, in the second set, and in `fail_frac`.
    """
    failed, cert_failed, problems = set(), set(), []
    first = reps[0]
    for i, rep in enumerate(reps):
        for key, got in rep.outcomes.items():
            bad = f"raised {got['raised']}" if "raised" in got else None
            if bad is None and reference is not None:
                bad = compare(got, reference[key]) if key in reference else "no reference"
            if bad is None and got != first.outcomes[key]:
                bad = "differs from repetition 0"
            if bad is not None:
                problems.append(f"rep {i} {key}: {bad}")
                failed.add((i, key))
            elif not got["passed"]:
                cert_failed.add((i, key))
        if rep.csv_sha != first.csv_sha:
            problems.append(f"rep {i}: CSV files are not byte-identical to repetition 0")
            failed.update((i, key) for key in rep.outcomes)
    return failed, cert_failed, problems
