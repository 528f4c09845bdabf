"""The float-tuple step path of `solve` against an ndarray oracle.

The oracle is the array form of the classical RK4 step and of the loops'
projection onto SO(3).  Each accepted flow step of a closed-loop run must
reproduce the oracle's state bit for bit.
"""

import math

import numpy as np
import pytest

import so3track as st
from so3track.so3 import floats, orthonormalize_f

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
    step, record = loop.step, loop.record

    def spy_step(t, y, h, meas):
        steps[t] = h  # the accepted step from t is the last one taken from t
        return step(t, y, h, meas)

    def spy_record(t, states, noise, in_jump):
        seen.setdefault("noise", []).append(noise)
        return record(t, states, noise, in_jump)

    loop.step = spy_step
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
        meas = None if noise is None else st.Measurement(tuple(noise[i, 0:9].tolist()),
                                                         tuple(noise[i, 9:12].tolist()))
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
