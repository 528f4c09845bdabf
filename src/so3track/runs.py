"""The closed loops' compiled runs of flow steps.

`hybrid.solve` offers each run of flow steps to the system's run hook,
`HybridSystem.flow_steps`, and a closed loop's hook (see `controllers`) takes
the run in one call of the function that `run_function` generates: one per
loop class and measurement kind, made once per process.  Per step it does
what `solve`, the loop's `step` and its `project` do, in their order and
with their bits:

  * the h rule of `solve` (dt, or t_max - t if shorter; no step once
    t_max - t <= END_GAP);
  * the call of the loop's compiled step, which returns the new state and
    the eight norms the reference checks test, and those tests;
  * `isfinite(sum(y_h))`;
  * on each rotation block, `so3.orthonormalize_f`'s control flow: up to
    NS_PASSES Newton-Schulz passes and the DRIFT_DONE and DRIFT_SAFE tests,
    with `so3.drift_f` and `so3.newton_schulz_f` traced into statements on
    the run's locals (`straightline.statements`), so each formula keeps one
    source;
  * the sample's t and packed state and, under noise, the measurement row
    in force after the step, from the rows that `solve` hands it.

The RK4 body stays in the compiled step, which the run calls, so it exists
once.  The run returns before a step that would take another path: the
compiled step raising or failing a check, a state that is not finite, or a
drift past DRIFT_SAFE or not a number; `solve` takes that step through
`step` and `project`, which raise or fall back to the interpreted step or
to the SVD.

The generator is a module of its own, not part of `controllers`: without a
bytecode cache every process compiles the package's sources at import, and
compiling `controllers` sets the peak memory of that.
"""

from __future__ import annotations

import math

from . import straightline
from .hybrid import END_GAP
from .so3 import DRIFT_DONE, DRIFT_SAFE, NS_PASSES, drift_f, newton_schulz_f


def _within(names, bound: float) -> str:
    """Python's test that every local of `names` lies in [-bound, bound]."""
    return " and ".join(f"{-bound!r} <= {d} <= {bound!r}" for d in names)


def run_function(name: str, width: int, rotation_slices: tuple, exact: bool):
    """The compiled run, named `name`, for a state of `width` floats with these rotation blocks.

    exact selects the run for exact measurements (None), which takes no
    measurement row.  Its parameters are those of `HybridSystem.flow_steps`
    but out, then the squared omega_r bound w, the z bound m and the
    compiled step, then the entries of out; the builtins and the constants
    it reads are bound as defaults, so the code looks up no name.
    """
    ys = [f"y{i}" for i in range(width)]
    ds = [f"d{i}" for i in range(6)]
    stop = "return k, t, y, meas"
    constants = {}
    project = []
    for sl in rotation_slices:
        r = tuple(ys[sl])
        drift, d, c1 = straightline.statements(lambda xp, r: drift_f(r), "drift_", r=r)
        npass, r_new, c2 = straightline.statements(lambda xp, r, d: newton_schulz_f(r, d),
                                                   "ns_", r=r, d=tuple(ds))
        constants.update(c1, **c2)
        project += [
            f"for _ in range({NS_PASSES}):",
            *(f"    {s}" for s in drift),
            f"    ({', '.join(ds)}) = {d}",
            f"    if {_within(ds, DRIFT_DONE)}:",
            "        break",
            f"    if not ({_within(ds, DRIFT_SAFE)}):",
            f"        {stop}",
            *(f"    {s}" for s in npass),
            f"    ({', '.join(r)}) = {r_new}",
        ]
    checks = " or ".join([*(f"w{i} > w" for i in range(1, 5)), *(f"z{i} > m" for i in range(1, 5))])
    body = [
        "for k in range(n):",
        "    remaining = t_max - t",
        f"    if remaining <= {END_GAP!r}:",
        f"        {stop}",
        "    h = dt if dt < remaining else remaining",
        "    try:",
        "        y_h, (w1, z1, w2, z2, w3, z3, w4, z4) = step(t, y, h, meas)",
        "    except errors:",
        f"        {stop}",
        f"    if {checks} or not isfinite(sum(y_h)):",
        f"        {stop}",
        f"    ({', '.join(ys)}) = y_h",
        *(f"    {s}" for s in project),
        "    t += h",
        f"    y = ({', '.join(ys)})",
        "    add_t(t)",
        "    add_state(pack_state(*y))",
        *([] if exact else ["    meas = next(fresh)"]),
        "return n, t, y, meas",
    ]
    builtins = dict(range=range, sum=sum, isfinite=math.isfinite, next=next,
                    errors=(ValueError, ArithmeticError))
    bound = {**builtins, **constants}
    params = ["n", "t", "y", "meas", "t_max", "dt", "w", "m", "step", "add_t", "add_state",
              "pack_state", "fresh", *bound]
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in body)
    return straightline.function(source, name, tuple(bound.values()))
