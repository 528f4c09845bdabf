"""An interpreted oracle for the closed loops' jump margin and jump map.

The jump rule evaluated on floats, warp angle by warp angle and reset angle
by reset angle, through the loop's own `_value_w`, with each reset rotation
built here from its angle by `warp_rotation_f`: the loop that the compiled
margin values replace.  The least reset value is the first that is `<` every
earlier one, so ties go to the first angle of `theta_set` and a NaN value is
never the least; the margin is NaN if any gap is.
"""

from __future__ import annotations

import math

from so3track.potential import warp_rotation_f
from so3track.so3 import diag_mul_f, mat_mul_f


def gaps(loop, y, meas) -> list:
    """(gap, best reset angle) of each warp angle of the loop."""
    p = loop.params
    out = []
    for _, sl, i in loop.warp_angles:
        AR = diag_mul_f(p.A_diag, y[sl] if meas is None else mat_mul_f(y[sl], meas[:9]))
        best_t, best_v = p.theta_set[0], math.inf
        for tp in p.theta_set:
            v = loop._value_w(AR, warp_rotation_f(tp, p), tp, y)
            if v < best_v:
                best_t, best_v = tp, v
        th = y[i]
        out.append((loop._value_w(AR, warp_rotation_f(th, p), th, y) - best_v, best_t))
    return out


def margin(loop, y, meas) -> float:
    """The largest gap minus the threshold: NaN if a gap is, -inf without a warp angle."""
    g = [gap for gap, _ in gaps(loop, y, meas)]
    if any(x != x for x in g):
        return math.nan
    return max(g, default=-math.inf) - loop._threshold


def jump(loop, y, meas):
    """The state after the jump map, or None outside the jump set."""
    if not margin(loop, y, meas) >= 0.0:
        return None
    out = list(y)
    for (g, best), (_, _, i) in zip(gaps(loop, y, meas), loop.warp_angles):
        if g >= loop._threshold:
            out[i] = best
    return tuple(out)
