"""The inputs a closed loop's torque reads, found by tracing it on symbolic floats.

The loop's `_rates` runs once on `straightline.Var` inputs, the symbolic
floats that its compiled step is traced on, and the torque's expression DAG
is walked back to the inputs it reaches.  The packed state enters as y0, y1, ..., the
reference acceleration as z0..z2 and a noisy measurement as meas0..meas8
(the noise rotation E) and meas9..meas11 (n_omega).
"""

from __future__ import annotations

from so3track import straightline
from so3track.controllers import Measurement
from so3track.straightline import Var


def torque_inputs(loop, noisy: bool) -> set:
    """Names of the inputs the torque of `loop` depends on, exact or under a noisy measurement."""
    y = tuple(Var(None, f"y{i}") for i in range(loop.WIDTH))
    z = tuple(Var(None, f"z{i}") for i in range(3))
    meas = None
    if noisy:
        m = tuple(Var(None, f"meas{i}") for i in range(12))
        meas = Measurement(m[:9], m[9:])
    found, seen = set(), set()  # Vars are unhashable: nodes are tracked by id
    stack = list(loop._rates(y, meas, z, straightline.XP)[1])
    while stack:
        v = stack.pop()
        if type(v) is not Var or id(v) in seen:
            continue
        seen.add(id(v))
        if v.op is None:
            found.add(v.args)
        else:
            stack.extend(v.args)
    return found
