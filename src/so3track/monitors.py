"""Certification of recorded hybrid arcs against the loops' monitors.

Each closed loop has a monitor function (`lyapunov_packed`) that must not
increase along flows and must drop by at least the loop's `jump_drop` at
every jump.  `certify_arc` replays those two properties over a recorded arc,
checks the jump-count bound implied by the initial monitor value
(`jump_count_bound`), and fits an exponential rate to the squared distance
from the attractor.  It reads the monitor from the arc's `lyap` column: a
flow step is a pair of adjacent samples of the same jump count j, a jump the
pair of adjacent samples of j and j + 1 at one time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


def exponential_fit(t: np.ndarray, values: np.ndarray, floor: float = 1e-12):
    """Least-squares fit of log(values) vs t over samples above the floor.

    Returns (slope, r_squared, n_used) or None when fewer than 10 samples
    survive.  The floor keeps the fit in the regime where the signal is above
    integration and rounding noise.
    """
    mask = values > floor
    if mask.sum() < 10:
        return None
    x = t[mask]
    yv = np.log(values[mask])
    xm = x.mean()
    ym = yv.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        return None
    slope = float(((x - xm) * (yv - ym)).sum()) / sxx
    resid = yv - (ym + slope * (x - xm))
    sstot = float(((yv - ym) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / sstot if sstot > 0.0 else 0.0
    return slope, r2, int(mask.sum())


def jump_count_bound(v0: float, drop: float) -> int:
    """max(1, ceil(V(0) / drop)): the most jumps of an arc from monitor value v0.

    Each jump drops the monitor by at least `drop` and flows do not raise it,
    so no more jumps fit.  A drop of 0 allows none: the bound is 0.
    ContractError when V(0) / drop (V(0) itself for a drop of 0) is not finite.
    """
    v0, drop = float(v0), float(drop)
    if not math.isfinite(v0 / (drop or 1.0)):
        raise ContractError(f"the jump-count bound V(0) / jump_drop = "
                            f"{v0:.6g} / {drop:.6g} is not finite")
    return max(1, math.ceil(v0 / drop)) if drop > 0.0 else 0


@dataclass
class CertificationReport:
    controller: str
    n_samples: int
    n_jumps: int
    noise_enabled: bool
    flow_tol_per_step: float
    max_flow_increase: float
    flow_monotone_ok: bool | None
    jump_drop: float
    min_jump_drop: float | None
    jump_drops_ok: bool
    jump_bound: int
    jump_count_ok: bool
    max_torque_jump: float | None
    torque_continuity_ok: bool | None
    terminal_dist: float
    terminal_omega: float
    terminal_theta: float
    fit_slope: float | None = None
    fit_r2: float | None = None
    fit_n: int | None = None
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [
            f"certification: controller={self.controller} "
            f"status={'PASS' if self.passed else 'FAIL'}",
            f"  samples={self.n_samples} jumps={self.n_jumps} jump_bound={self.jump_bound} "
            f"noise={'on' if self.noise_enabled else 'off'}",
            f"  max_flow_increase_per_step={self.max_flow_increase:.6g} "
            f"(tol {self.flow_tol_per_step:.6g}, "
            f"{'enforced' if self.flow_monotone_ok is not None else 'informational under noise'})",
            f"  min_jump_drop={self.min_jump_drop if self.min_jump_drop is not None else 'n/a'} "
            f"required>={self.jump_drop:.6g}"
            + ("" if not self.noise_enabled else " (informational under noise)"),
        ]
        if self.max_torque_jump is not None:
            out.append(f"  max_torque_jump={self.max_torque_jump:.6g}")
        out.append(
            f"  terminal: dist_Re={self.terminal_dist:.6g} "
            f"|omega_e|={self.terminal_omega:.6g} theta={self.terminal_theta:.6g}"
        )
        if self.fit_slope is not None:
            out.append(
                f"  exp_fit: slope={self.fit_slope:.6g} r2={self.fit_r2:.6g} n={self.fit_n}"
            )
        for f in self.failures:
            out.append(f"  FAIL: {f}")
        return out

    def as_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def certify_arc(arc, loop) -> CertificationReport:
    """Check the monitor decrease properties of a recorded arc.

    The per-step flow tolerance covers RK4 truncation: 1e-7 at the default
    step dt = 1e-3, scaled as dt^4 to the arc's step.  Under
    measurement noise the flow monotonicity of the monitor is not a theorem,
    so it is reported but not enforced.  An arc the solver stopped at its jump
    limit (status "j_max") fails: the loops' jump counts are bounded, so
    reaching the limit means the run diverged or the limit is too small.  A
    loop with no designed drop (`jump_drop` 0) has a jump-count bound of 0,
    so any jump fails it, and a loop whose `continuous_torque` is set fails on
    any torque jump.  The loop must be of the kind that produced the arc.

    A jump's monitor drop is read from the `lyap` column across the adjacent
    samples of j and j + 1.  Its torque jump is evaluated by `loop.torque` on
    the event's states before and after, under the event's measurement: under
    noise the sample before a jump carries the previous step's measurement,
    so the recorded torque columns would mix two.  ContractError when the
    jump-count bound is not finite (see `jump_count_bound`).
    """
    if loop.kind != arc.controller:
        raise ContractError(
            f"monitor/controller mismatch: arc from '{arc.controller}', loop '{loop.kind}'"
        )
    tol = 1e-7 * (arc.dt / 1e-3) ** 4
    failures: list[str] = []
    lyap = arc.column("lyap")
    same_segment = arc.j[1:] == arc.j[:-1]
    deltas = lyap[1:][same_segment] - lyap[:-1][same_segment]
    max_inc = float(deltas.max()) if deltas.size else 0.0
    noise_on = loop.noise is not None
    if noise_on:
        flow_ok = None
    else:
        flow_ok = max_inc <= tol
        if not flow_ok:
            failures.append(
                f"monitor increased by {max_inc:.3g} on a flow step (tol {tol:.3g})"
            )

    req = loop.jump_drop
    jumped = ~same_segment
    drops = lyap[:-1][jumped] - lyap[1:][jumped]
    min_drop = float(drops.min()) if drops.size else None
    drops_ok = bool((drops >= req - 1e-9).all())
    if not drops_ok and not noise_on:
        # Noise-triggered jumps fire on the measured state, so the true-state
        # drop is only guaranteed for exact measurements.
        failures.append(f"a jump dropped the monitor by {min_drop:.6g} < required {req:.6g}")

    bound = jump_count_bound(lyap[0], req)
    count_ok = len(arc.jumps) <= bound
    if not count_ok:
        failures.append(f"jump count {len(arc.jumps)} exceeds the bound {bound}")
    if arc.status == "j_max":
        failures.append(
            f"the solver stopped at the jump limit after {len(arc.jumps)} jumps, "
            f"at t={float(arc.t[-1]):.6g} before the horizon"
        )

    # The states as Python floats, as `solve` hands them: numpy scalars warn where a torque overflows.
    tau_jumps = [math.dist(loop.torque(ev.t, ev.y_pre.tolist(), ev.meas),
                           loop.torque(ev.t, ev.y_post.tolist(), ev.meas)) for ev in arc.jumps]
    max_tau_jump = max(tau_jumps) if tau_jumps else None
    torque_ok = None
    if loop.continuous_torque:
        torque_ok = max_tau_jump is None or max_tau_jump <= 0.0
        if not torque_ok:
            failures.append(f"{loop.kind} torque jumped by {max_tau_jump:.3g} at a reset")

    we = np.sqrt(
        arc.column("we_x") ** 2 + arc.column("we_y") ** 2 + arc.column("we_z") ** 2
    )
    t_tail = arc.jumps[-1].t if arc.jumps else 0.0
    tail = arc.t >= t_tail
    fit = exponential_fit(arc.t[tail], arc.column("U")[tail] + we[tail] ** 2)
    slope, r2, n_used = fit if fit is not None else (None, None, None)

    return CertificationReport(
        controller=arc.controller,
        n_samples=len(arc),
        n_jumps=len(arc.jumps),
        noise_enabled=noise_on,
        flow_tol_per_step=tol,
        max_flow_increase=max_inc,
        flow_monotone_ok=flow_ok,
        jump_drop=req,
        min_jump_drop=min_drop,
        jump_drops_ok=drops_ok,
        jump_bound=bound,
        jump_count_ok=count_ok,
        max_torque_jump=max_tau_jump,
        torque_continuity_ok=torque_ok,
        terminal_dist=float(arc.column("dist_Re")[-1]),
        terminal_omega=float(we[-1]),
        terminal_theta=float(arc.column("theta")[-1]),
        fit_slope=slope,
        fit_r2=r2,
        fit_n=n_used,
        failures=failures,
    )
