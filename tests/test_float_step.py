"""The float-tuple step path of `solve` against an ndarray oracle.

The oracle is the array form of the classical RK4 step and of the loops'
projection onto SO(3).  Each accepted flow step of a closed-loop run must
reproduce the oracle's state bit for bit.
"""

import collections
import dataclasses
import functools
import math

import numpy as np
import pytest

import so3track as st
from so3track import so3
from so3track.hybrid import HybridSystem
from so3track.so3 import floats, orthonormalize_f
from step_spy import spy_compiled_step

LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")
E1 = np.array([1.0, 0.0, 0.0])


def oracle_rk4(f, t, y, h, meas):
    k1 = f(t, y, meas)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, meas)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, meas)
    k4 = f(t + h, y + h * k3, meas)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def orthonormalize(R):
    """`orthonormalize_f` on a 3x3 array."""
    return np.array(orthonormalize_f(floats(R))).reshape(3, 3)


def oracle_project(loop, y):
    y = y.copy()
    for sl in loop.rotation_slices:
        y[sl] = orthonormalize(y[sl].reshape(3, 3)).ravel()
    return y


def oracle_step(loop, t, y, h, meas):
    def f(tt, yy, m):
        return np.array(loop.flow(tt, tuple(yy.tolist()), m))

    return oracle_project(loop, oracle_rk4(f, t, y, h, meas))


def initial_state(kind, rng, Re, theta, omega_e):
    base = dict(Re=Re, theta=theta, omega_e=omega_e, omega_r=np.zeros(3))
    if kind == "smooth":
        return st.SmoothLoop.pack(**base, zeta=rng.standard_normal(3))
    if kind == "velocity_free":
        return st.VelocityFreeLoop.pack(**base, Rtilde=st.random_rotation(rng), theta_bar=0.5)
    return st.BasicLoop.pack(**base)


def run_against_oracle(loop, y0, cfg):
    """Solve, then replay every accepted flow step through the oracle; returns the arc
    and the number of steps refined to a jump-set crossing."""
    steps, seen = {}, {}
    record = loop.record

    def spy_step(t, y, h, meas):
        steps[t] = h  # the accepted step from t is the last one taken from t

    def spy_record(t, states, noise, in_jump):
        seen.setdefault("noise", []).append(noise)
        return record(t, states, noise, in_jump)

    spy_compiled_step(loop, spy_step)
    loop.record = spy_record
    arc = st.solve(loop, y0, cfg, np.random.default_rng(5))
    noise = seen["noise"]
    noise = None if noise[0] is None else np.concatenate(noise)
    refined = 0
    for i in range(1, len(arc)):
        if arc.j[i] != arc.j[i - 1]:
            continue
        t0 = float(arc.t[i - 1])
        h = steps[t0]
        meas = None if noise is None else tuple(noise[i].tolist())
        want = oracle_step(loop, t0, arc.states[i - 1], h, meas)
        assert want.tobytes() == arc.states[i].tobytes(), f"sample {i}"
        refined += h < cfg.dt and arc.t[i] < cfg.t_max - 1e-12
    return arc, refined


@pytest.mark.parametrize("noisy", (False, True), ids=("exact", "noisy"))
@pytest.mark.parametrize("kind", LAWS)
def test_solve_reproduces_ndarray_oracle(kind, noisy, paper_params, paper_gains, paper_inertia):
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(sigma_R=0.05, sigma_omega=0.05) if noisy else None
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref, noise)
    rng = np.random.default_rng(31)
    # next to an unwanted critical point, so the hybrid laws jump
    y0 = initial_state(kind, rng, st.angle_axis(math.pi - 1e-3, E1), 0.0, rng.standard_normal(3))
    cfg = st.SolverConfig(dt=1e-3, t_max=0.15, j_max=10)
    arc, _ = run_against_oracle(loop, y0, cfg)
    assert (len(arc.jumps) > 0) == (kind != "non_hybrid")


def test_refined_jump_reproduces_ndarray_oracle(paper_params, paper_inertia):
    # the spin-up of test_jump_refinement_on_closed_loop: a crossing inside a step
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    gains = st.Gains(k_R=0.2, k_omega=0.02, k_theta=0.5)
    loop = st.make_loop("basic", paper_params, gains, paper_inertia, ref)
    y0 = initial_state("basic", None, st.angle_axis(2.75, np.array([0.0, 0.0, 1.0])), 0.0,
                       np.array([0.0, 0.0, 3.0]))
    cfg = st.SolverConfig(dt=1e-3, t_max=0.3, j_max=5)
    arc, refined = run_against_oracle(loop, y0, cfg)
    assert refined >= 1 and arc.jumps and arc.jumps[0].t > 0.0


# The compiled run of flow steps (`flow_steps`) against the per-step path:
# the same loop with the default run hook, which takes no step, so that
# `solve` takes every step of a run through `loop.step` and `loop.project`.


def solve_stepwise(loop, y0, cfg, seed):
    """`solve` with the loop's run hook replaced by the default one, which takes no step."""
    loop.flow_steps = functools.partial(HybridSystem.flow_steps, loop)
    try:
        return st.solve(loop, y0, cfg, seed)
    finally:
        del loop.flow_steps


def assert_run_path_is_stepwise(stepwise, runs):
    """The same arc, jumps and counts, but for the run steps the run handed back."""
    assert arc_bits(runs)[:-1] == arc_bits(stepwise)[:-1]
    assert dataclasses.replace(stepwise.stats, handed_back=0) == dataclasses.replace(
        runs.stats, handed_back=0)
    # every step of a run is handed back where the hook takes none
    assert stepwise.stats.handed_back > runs.stats.handed_back


def arc_bits(arc) -> tuple:
    return (arc.t.tobytes(), arc.j.tobytes(), arc.data.tobytes(), arc.states.tobytes(),
            [(ev.t, ev.j_before, ev.y_pre.tobytes(), ev.y_post.tobytes(), ev.meas)
             for ev in arc.jumps], arc.status, arc.stats)


def ns_passes(r) -> int:
    """The Newton-Schulz passes that `orthonormalize_f` takes on r (3 past DRIFT_SAFE)."""
    for k in range(so3.NS_PASSES):
        d = so3.drift_f(r)
        if max(map(abs, d)) <= so3.DRIFT_DONE or not max(map(abs, d)) <= so3.DRIFT_SAFE:
            return k
        r = so3.newton_schulz_f(r, d)
    return so3.NS_PASSES


def count_passes(loop) -> collections.Counter:
    """Newton-Schulz passes per projection of each compiled step's result, counted from here on."""
    passes = collections.Counter()
    exact = loop.noise is None
    step = loop._step_function(exact)

    def counted(t, y, h, meas):
        out = step(t, y, h, meas)
        passes.update(ns_passes(out[0][sl]) for sl in loop.rotation_slices)
        return out

    loop._steps[exact, loop.reference.z_fn] = counted
    return passes


@pytest.mark.parametrize("noisy", (False, True), ids=("exact", "noisy"))
@pytest.mark.parametrize("kind", LAWS)
def test_run_path_gives_the_bits_of_the_per_step_path(kind, noisy, paper_params, paper_gains,
                                                      paper_inertia):
    # next to an unwanted critical point the hybrid laws jump
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(sigma_R=0.05, sigma_omega=0.05) if noisy else None
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref, noise)
    rng = np.random.default_rng(31)
    y0 = initial_state(kind, rng, st.angle_axis(math.pi - 1e-3, E1), 0.0, rng.standard_normal(3))
    cfg = st.SolverConfig(dt=1e-3, t_max=0.15, j_max=10)
    stepwise = solve_stepwise(loop, y0, cfg, 5)
    runs = st.solve(loop, y0, cfg, 5)
    assert_run_path_is_stepwise(stepwise, runs)
    assert runs.stats.handed_back == 0
    assert (len(runs.jumps) > 0) == (kind != "non_hybrid")


def test_run_path_replays_the_draws_of_a_rollback(fig4_cfg):
    # fig4's smooth member jumps inside a run: the run is rolled back and the
    # draws it made past the jump are taken again, by the next runs
    cfg = dataclasses.replace(fig4_cfg, t_max=0.3)
    member = fig4_cfg.members[1]
    loop, y0 = st.build_member(cfg, member)
    stepwise = solve_stepwise(loop, y0, cfg.solver, member.seed)
    runs = st.solve(loop, y0, cfg.solver, member.seed)
    assert_run_path_is_stepwise(stepwise, runs)
    assert runs.jumps and runs.stats.rolled_back > 0 and runs.stats.handed_back == 0


@pytest.mark.parametrize("scenario, label, passes", [("fig3", "0_basic", 0),
                                                     ("fig4", "2_velocity_free", 2)])
def test_run_path_takes_the_projections_of_the_per_step_path(scenario, label, passes):
    # fig3's converged tail takes no Newton-Schulz pass, fig4's velocity_free
    # member two passes in about a fifth of its projections
    cfg = dataclasses.replace(st.load_scenario(scenario), t_max=1.5)
    member = next(m for m in cfg.members if m.label == label)
    loop, y0 = st.build_member(cfg, member)
    stepwise = solve_stepwise(loop, y0, cfg.solver, member.seed)
    seen = count_passes(loop)
    runs = st.solve(loop, y0, cfg.solver, member.seed)
    assert_run_path_is_stepwise(stepwise, runs)
    assert runs.stats.handed_back == 0
    assert seen[passes] > 0.1 * sum(seen.values())


def forced(step, reason: str, at: set, dt: float, first_only: bool):
    """The compiled step, failing as `reason` names on the steps from t = k dt, for k in at.

    With first_only it fails on the first call from such a t only, which
    the run makes; `loop.step`, which takes the step again, gets its bits.
    """
    calls = collections.Counter()

    def spy(t, y, h, meas):
        y_h, checks = step(t, y, h, meas)
        k = round(t / dt)
        calls[k] += 1
        if k not in at or (first_only and calls[k] > 1):
            return y_h, checks
        if reason == "raise":
            raise OverflowError("forced")
        if reason == "check":
            return y_h, (math.inf, *checks[1:])
        if reason == "non_finite":
            return (math.nan, *y_h[1:]), checks
        return tuple(x * (1.0 + 2e-4) for x in y_h[:9]) + y_h[9:], checks  # drift about 4e-4

    return spy


@pytest.mark.parametrize("reason", ("raise", "check", "non_finite", "drift"))
def test_each_stop_of_a_run_hands_its_step_back(reason, fig3_cfg):
    # a compiled step that raises or fails a reference check is taken by
    # `loop.step`'s interpreted step, a drift past DRIFT_SAFE by the SVD
    # fallback of `project`: the run stops before each and `solve` takes it,
    # with the bits of the per-step path under the same step; a non-finite
    # state is forced on the run's call only, and `solve` takes the step again
    cfg = dataclasses.replace(fig3_cfg, t_max=0.1)
    member = cfg.members[0]
    loop, y0 = st.build_member(cfg, member)
    at = {5, 40, 77}
    step = loop._step_function(True)
    key = (True, loop.reference.z_fn)
    first_only = reason == "non_finite"
    if first_only:
        stepwise = solve_stepwise(loop, y0, cfg.solver, member.seed)
    else:
        loop._steps[key] = forced(step, reason, at, cfg.dt, first_only)
        stepwise = solve_stepwise(loop, y0, cfg.solver, member.seed)
    loop._steps[key] = forced(step, reason, at, cfg.dt, first_only)
    runs = st.solve(loop, y0, cfg.solver, member.seed)
    assert_run_path_is_stepwise(stepwise, runs)
    assert runs.stats.handed_back == len(at)
    assert runs.stats.step_calls == runs.stats.steps + runs.stats.rolled_back
    if reason == "drift":
        loop._steps[key] = step
        assert arc_bits(st.solve(loop, y0, cfg.solver, member.seed))[3] != arc_bits(runs)[3]
