"""Layer boundaries of so3track and the per-layer metrics derived from a trace.

Layers are the package modules. A boundary is the name a calling module uses
for a function of another layer (for example `so3track.controllers.gradients`
is where the loops enter the potential layer), or a method of a loop class.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from tracer import HOT, MEMBER, SPAN, Boundary, resolve

LAYERS = ("potential", "so3", "rigid_body", "controllers", "hybrid", "monitors",
          "scenarios", "output")

C, M, S = "so3track.controllers", "so3track.monitors", "so3track.scenarios"

# (owner, attribute, label, kind); the family is the label unless noted.
# `skew` and `_cross` are not wrapped: a wrapper costs about as much as the
# call, so their time counts in the calling layer.
_FUNCTIONS = [
    (C, "gradients", "potential.gradients", HOT),
    (C, "gap", "potential.gap", HOT),
    (C, "value", "potential.value", HOT),
    (C, "grad_rotation", "potential.grad_rotation", HOT),
    (C, "grad_rotation_rate", "potential.grad_rotation_rate", HOT),
    (C, "warp_rotation", "potential.warp_rotation", HOT),
    (M, "value", "potential.value", HOT),
    (M, "grad_rotation", "potential.grad_rotation", HOT),
    (S, "design_params", "potential.design_params", SPAN),
    (C, "exp_so3", "so3.exp", HOT),
    (C, "orthonormalize", "so3.orthonormalize", HOT),
    ("so3track.so3", "project_to_so3", "so3.project_to_so3", HOT),
    (C, "rot_distance", "so3.rot_distance", HOT),
    (S, "angle_axis", "so3.angle_axis", HOT),
    (C, "coupling_times", "rigid_body.coupling_times", HOT),
    (C, "feedforward", "rigid_body.feedforward", HOT),
    ("so3track.rigid_body:Reference", "z_at", "rigid_body.z_at", HOT),
    (S, "make_reference", "rigid_body.make_reference", HOT),
    (S, "make_loop", "controllers.make_loop", HOT),
    (S, "solve", "hybrid.solve", SPAN),
    ("so3track.hybrid", "rk4_step", "hybrid.rk4_step", HOT),
    ("so3track.hybrid", "detect_crossing", "hybrid.detect_crossing", SPAN),
    (S, "certify_arc", "monitors.certify_arc", SPAN),
    (S, "write_csv", "output.write_csv", SPAN),
    (S, "write_member_plots", "output.write_member_plots", SPAN),
    (S, "run_scenario", "scenarios.run_scenario", SPAN),
    (S, "simulate_member", "scenarios.simulate_member", MEMBER),
]
# Config parsing, validation and member construction: one family, so the
# calls they make to each other count once.
_BUILD = ("parse_config_text", "load_scenario", "scenario_from_mapping",
          "validate_scenario", "build_member")

# Loop methods by the label they are reported under.
_METHODS = {
    "jump": "controllers.jump",
    "jump_margin": "controllers.margin",
    "in_flow_set": "controllers.in_flow_set",
    "in_jump_set": "controllers.in_jump_set",
    "record": "controllers.record",
    "torque": "controllers.torque",
    "jump_event_info": "controllers.jump_event_info",
    "sample_measurement": "controllers.measure",
    "project": "controllers.project",
    "lyapunov_packed": "controllers.lyapunov",
}

LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")


def _file_bytes(args, result) -> float:
    return float(Path(args[0]).stat().st_size)


def _files_bytes(args, result) -> float:
    return float(sum(Path(p).stat().st_size for p in result))


def _shortened(args, result) -> float:
    """1 when bisection moved the end of the step before dt (args[3])."""
    return 1.0 if result is not None and result < args[3] else 0.0


_EXTRA = {
    "output.write_csv": _file_bytes,
    "output.write_member_plots": _files_bytes,
    "hybrid.detect_crossing": _shortened,
}


def boundaries() -> tuple[list, dict]:
    """Boundaries present in the program, and {label: where it was looked for} of those missing."""
    out, missing = [], {}

    def add(owner_path, attr, label, kind, family=None):
        owner = resolve(owner_path)
        has = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not has:
            missing.setdefault(label, f"{owner_path}.{attr}")
            return
        out.append(Boundary(owner, attr, label, family or label, kind, _EXTRA.get(label)))

    for owner, attr, label, kind in _FUNCTIONS:
        add(owner, attr, label, kind)
    for attr in _BUILD:
        add(S, attr, f"scenarios.{attr}", SPAN, family="scenarios.build")
    loops = resolve(C).LOOP_CLASSES
    for law in LAWS:
        if law not in loops or "flow" not in loops[law].__dict__:
            missing[f"controllers.flow.{law}"] = f"{C}:LOOP_CLASSES[{law!r}].flow"
    classes = {c for cls in loops.values() for c in cls.__mro__ if c.__module__ == C}
    for cls in sorted(classes, key=lambda c: c.__name__):
        path = f"{C}:{cls.__name__}"
        if "flow" in cls.__dict__:
            add(path, "flow", f"controllers.flow.{cls.kind}", HOT, family="controllers.flow")
        for attr, label in _METHODS.items():
            if attr in cls.__dict__:
                add(path, attr, label, HOT)
    for attr, label in _METHODS.items():
        if not any(attr in cls.__dict__ for cls in classes):
            missing[label] = f"{C}:<loop classes>.{attr}"
    return out, missing


LABELS = (
    *(label for _, _, label, _ in _FUNCTIONS),
    *(f"scenarios.{attr}" for attr in _BUILD),
    *(f"controllers.flow.{law}" for law in LAWS),
    *_METHODS.values(),
)
_FLOW = tuple(f"controllers.flow.{law}" for law in LAWS)
_SOLVER = ("hybrid.solve", "hybrid.rk4_step", "hybrid.detect_crossing")
_MEMBERSHIP = ("controllers.margin", "controllers.in_jump_set")

# The boundaries each per-layer metric is computed from. A metric with one of
# them missing would read a wrong number (often 0), so it is reported absent.
# `<layer>.self_s` and `rigid_body.calls` need every boundary of their layer.
_NEEDS = {
    "potential.gradients.calls": ("potential.gradients",),
    "potential.gradients.us": ("potential.gradients",),
    "potential.gap.calls": ("potential.gap",),
    "potential.gap.us": ("potential.gap",),
    "so3.exp.calls": ("so3.exp",),
    "so3.orthonormalize.us": ("so3.orthonormalize",),
    "so3.svd_fallbacks": ("so3.orthonormalize", "so3.project_to_so3"),
    "controllers.flow.calls": _FLOW,
    **{f"controllers.flow.us.{law}": (f"controllers.flow.{law}",) for law in LAWS},
    "controllers.flow.share": _FLOW + ("hybrid.solve",),
    "controllers.record.us": ("controllers.record",),
    "controllers.margin.us": ("controllers.margin",),
    "controllers.measure.us": ("controllers.measure",),
    "hybrid.flow_evals_per_step": _FLOW,
    "hybrid.margin_evals_per_step": _MEMBERSHIP + _SOLVER,
    "hybrid.refine.calls": ("hybrid.detect_crossing",),
    "hybrid.refine.evals": ("hybrid.detect_crossing", "hybrid.rk4_step"),
    "hybrid.refine.useful": ("hybrid.detect_crossing",),
    "hybrid.refine_s": ("hybrid.detect_crossing",),
    "monitors.certify_s": ("monitors.certify_arc",),
    "scenarios.build_s": tuple(f"scenarios.{attr}" for attr in _BUILD),
    "scenarios.member_overlap": ("scenarios.simulate_member",),
    "scenarios.member_wait_s": ("scenarios.simulate_member",),
    "output.csv_s": ("output.write_csv",),
    "output.csv_bytes": ("output.write_csv",),
    "output.csv_rows_per_s": ("output.write_csv",),
    "output.svg_s": ("output.write_member_plots",),
    "output.svg_s_per_member": ("output.write_member_plots",),
    "output.svg_bytes": ("output.write_member_plots",),
}

# Count invariants checked per member, and the boundaries each is stated in:
# flow calls = 4 x RK4 evaluations; solver RK4 steps = accepted steps +
# re-steps; membership evaluations outside refinement per step.
_INVARIANTS = {
    "flow calls": _FLOW + _SOLVER,
    "solver RK4 steps": _SOLVER,
    "membership evaluations": _MEMBERSHIP + _SOLVER,
}


def _needs(metric: str) -> tuple:
    if metric.endswith(".self_s") or metric == "rigid_body.calls":
        layer = metric.split(".", 1)[0]
        return tuple(dict.fromkeys(lab for lab in LABELS if lab.split(".", 1)[0] == layer))
    return _NEEDS.get(metric, ())


def absent_metrics(names, missing: dict) -> dict:
    """{metric: its missing boundaries} for the metrics that cannot be measured."""
    out = {}
    for name in names:
        gone = [lab for lab in _needs(name) if lab in missing]
        if gone:
            out[name] = gone
    return out


def _sum(totals: dict, pred, field: int = 0) -> float:
    return sum(rec[field] for key, rec in totals.items() if pred(*key))


def _label(name):
    return lambda label, parent: label == name


def _per_call_us(totals: dict, name: str) -> float:
    calls = _sum(totals, _label(name))
    return 1e6 * _sum(totals, _label(name), 1) / calls if calls else 0.0


def member_counts(agg: dict) -> dict:
    """The counts of one member that the invariants are stated in."""
    def n(name, parent=None, field=0):
        return sum(r[field] for (lab, par), r in agg.items()
                   if lab == name and (parent is None or par == parent))
    return {
        "flow": sum(r[0] for (lab, _), r in agg.items() if lab.startswith("controllers.flow.")),
        "rk4_in_solve": n("hybrid.rk4_step", "hybrid.solve"),
        "refine_calls": n("hybrid.detect_crossing"),
        "refine_evals": n("hybrid.rk4_step", "hybrid.detect_crossing"),
        "refine_useful": int(n("hybrid.detect_crossing", field=3)),
        # One membership test is one margin, or one jump-set test for loops
        # whose sets are not given by a margin.
        "membership": n("controllers.margin", "hybrid.solve")
        + n("controllers.in_jump_set", "hybrid.solve"),
    }


def check_invariants(tracer, rep, missing: dict) -> tuple[list[str], list[str]]:
    """Count invariants of each member's trace against its recorded arc.

    Returns the problems found and the invariants not checked because a
    boundary they are stated in is missing from the program.
    """
    skipped = {}
    for name, labels in _INVARIANTS.items():
        gone = [lab for lab in (*labels, "scenarios.simulate_member") if lab in missing]
        if gone:
            skipped[name] = gone
    unchecked = [f"{name} invariant (missing {', '.join(gone)})"
                 for name, gone in skipped.items()]
    if len(skipped) == len(_INVARIANTS):
        return [], unchecked
    problems = []
    for key, steps in rep.steps.items():
        if key not in tracer.members:
            problems.append(f"{key}: no member span")
            continue
        c = member_counts(tracer.members[key]["agg"])
        jumps = rep.outcomes[key]["jumps"]
        useful = c["refine_useful"]
        per_step = 2 if rep.noisy[key] else 1
        outside = c["membership"] - 1 - jumps - useful
        checks = {
            "flow calls": (c["flow"] == 4 * (steps + c["refine_evals"] + useful),
                           f"{c['flow']} flow calls != 4 x (steps {steps} + refinement "
                           f"evals {c['refine_evals']} + re-steps {useful})"),
            "solver RK4 steps": (c["rk4_in_solve"] == steps + useful,
                                 f"{c['rk4_in_solve']} solver RK4 steps != "
                                 f"{steps} accepted + {useful} re-steps"),
            "membership evaluations": (outside == per_step * steps,
                                       f"{outside} membership evaluations over {steps} "
                                       f"steps, expected {per_step} per step"),
        }
        problems += [f"{key}: {msg}" for name, (ok, msg) in checks.items()
                     if not ok and name not in skipped]
    return problems, unchecked


def counts_signature(tracer) -> dict:
    """Every call count of a traced repetition, for the exact-repeat check."""
    return {(member, key): rec[0] for member, m in tracer.members.items()
            for key, rec in m["agg"].items()}


def metrics(traces: list, reps: list, trace_overhead: float) -> dict:
    """Per-layer metrics from traced repetitions (tracer, Rep) of one workload,
    with the tracing overhead that the caller measured.

    Counts are per repetition (they repeat exactly); times per call use every
    traced call; times per repetition are averaged over the repetitions.
    """
    k = len(traces)
    totals = {}
    for tr in traces:
        for key, rec in tr.totals().items():
            acc = totals.setdefault(key, [0, 0.0, 0.0, 0.0])
            for i in range(4):
                acc[i] += rec[i]

    def calls(name):
        return _sum(totals, _label(name)) / k

    def busy(pred):
        return _sum(totals, pred, 1) / k

    def self_time(pred):
        return (_sum(totals, pred, 1) - _sum(totals, pred, 2)) / k

    def in_layer(layer):
        return lambda label, parent: label.split(".", 1)[0] == layer

    is_flow = lambda label, parent: label.startswith("controllers.flow.")  # noqa: E731
    per_member = [member_counts(m["agg"]) for tr in traces for m in tr.members.values()]

    def count(field):
        return sum(c[field] for c in per_member) / k

    steps = sum(sum(r.steps.values()) for r in reps) / k
    jumps = sum(r.jumps for r in reps) / k
    rows = sum(r.rows for r in reps) / k
    flow_calls = count("flow")
    refine_calls = count("refine_calls")
    useful = count("refine_useful")
    solve_s = busy(_label("hybrid.solve"))
    members = sum(len(r.steps) for r in reps) / k
    csv_s = busy(_label("output.write_csv"))
    svg_s = busy(_label("output.write_member_plots"))
    n_plots = calls("output.write_member_plots")

    overlap, wait = [], []
    for tr in traces:
        ms = list(tr.members.values())
        if ms:
            span = max(m["end"] for m in ms) - min(m["start"] for m in ms)
            overlap.append(sum(m["end"] - m["start"] for m in ms) / span)
            wait.append(sum(m["end"] - m["start"] - m["cpu"] for m in ms))

    out = {
        "potential.gradients.calls": (calls("potential.gradients"), "count"),
        "potential.gradients.us": (_per_call_us(totals, "potential.gradients"), "us"),
        "potential.gap.calls": (calls("potential.gap"), "count"),
        "potential.gap.us": (_per_call_us(totals, "potential.gap"), "us"),
        "so3.exp.calls": (calls("so3.exp"), "count"),
        "so3.orthonormalize.us": (_per_call_us(totals, "so3.orthonormalize"), "us"),
        "so3.svd_fallbacks": (_sum(totals, lambda lab, par: lab == "so3.project_to_so3"
                                   and par == "so3.orthonormalize") / k, "count"),
        "rigid_body.calls": (_sum(totals, in_layer("rigid_body")) / k, "count"),
        "controllers.flow.calls": (flow_calls, "count"),
        **{f"controllers.flow.us.{law}": (_per_call_us(totals, f"controllers.flow.{law}"), "us")
           for law in LAWS},
        "controllers.flow.share": (busy(is_flow) / solve_s if solve_s else 0.0, "ratio"),
        "controllers.record.us": (_per_call_us(totals, "controllers.record"), "us"),
        "controllers.margin.us": (_per_call_us(totals, "controllers.margin"), "us"),
        "controllers.measure.us": (_per_call_us(totals, "controllers.measure"), "us"),
        "hybrid.steps": (steps, "count"),
        "hybrid.jumps": (jumps, "count"),
        "hybrid.flow_evals_per_step": (flow_calls / steps if steps else 0.0, "ratio"),
        "hybrid.margin_evals_per_step": (
            (count("membership") - members - jumps - useful) / steps if steps else 0.0,
            "ratio"),
        "hybrid.refine.calls": (refine_calls, "count"),
        "hybrid.refine.evals": (count("refine_evals"), "count"),
        "hybrid.refine.useful": (useful / refine_calls if refine_calls else 0.0, "ratio"),
        "hybrid.refine_s": (busy(_label("hybrid.detect_crossing")), "s"),
        "monitors.certify_s": (busy(_label("monitors.certify_arc")), "s"),
        "scenarios.build_s": (busy(lambda lab, par: lab.startswith("scenarios.")
                                   and lab[10:] in _BUILD), "s"),
        "scenarios.member_overlap": (statistics.fmean(overlap) if overlap else 0.0, "ratio"),
        "scenarios.member_wait_s": (statistics.fmean(wait) if wait else 0.0, "s"),
        "output.csv_s": (csv_s, "s"),
        "output.csv_bytes": (_sum(totals, _label("output.write_csv"), 3) / k, "bytes"),
        "output.csv_rows_per_s": (rows / csv_s if csv_s else 0.0, "1/s"),
        "output.svg_s": (svg_s, "s"),
        "output.svg_s_per_member": (svg_s / n_plots if n_plots else 0.0, "s"),
        "output.svg_bytes": (_sum(totals, _label("output.write_member_plots"), 3) / k,
                             "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time(in_layer(layer)), "s")
    out["trace_overhead"] = (trace_overhead, "ratio")
    return out
