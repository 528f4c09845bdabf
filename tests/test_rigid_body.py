import math

import numpy as np
import pytest

import so3track as st
from so3track.errors import ContractError, SolverError
from so3track.rigid_body import coupling_times_f, error_accel_f, feedforward_f, shared_terms_f
from so3track.so3 import ARRAY_MATH, floats, mat_skew_f

from rigid_body_oracle import (
    BodyState, RefState, body_flow, coupling_matrix, ref_flow, tracking_error,
)


def rk4(f, y, h):
    """Local fixed-step integrator, independent of the package solver."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def error_rates(Re, omega_e, omega_r, z, tau, inertia):
    """(Rdot_e, omegadot_e) from the package kernels.

    Rdot_e = R_e skew(omega_e) and J omegadot_e = Sigma omega_e - Upsilon + tau:
    `error_accel_f` takes the torque relative to the feedforward, tau - Upsilon.
    """
    R, we = floats(Re), floats(omega_e)
    a, Ja = shared_terms_f(R, floats(omega_r), inertia.J_diag)
    ups = feedforward_f(R, floats(z), a, Ja, inertia.J_diag)
    tau_rel = tuple(t - u for t, u in zip(floats(tau), ups))
    wdot = error_accel_f(we, a, Ja, tau_rel, inertia.J_diag, inertia.J_inv_diag)
    return np.array(mat_skew_f(R, we)).reshape(3, 3), np.array(wdot)


def test_body_flow_gyroscopic_cancellation(paper_inertia):
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.standard_normal(3)
        s = BodyState(R=st.random_rotation(rng), omega=w)
        tau = np.cross(w, np.diag(paper_inertia.J_diag) @ w)
        _, wdot = body_flow(s, tau, paper_inertia)
        assert np.linalg.norm(wdot) <= 1e-12


def test_body_flow_at_rest(paper_inertia):
    s = BodyState(R=np.eye(3), omega=np.zeros(3))
    Rdot, wdot = body_flow(s, np.zeros(3), paper_inertia)
    assert np.array_equal(Rdot, np.zeros((3, 3)))
    assert np.array_equal(wdot, np.zeros(3))


def test_free_rotation_conserves_energy(paper_inertia):
    # torque-free spin: kinetic energy is constant along the RK4 trajectory
    J = paper_inertia

    def f(y):
        R = y[:9].reshape(3, 3)
        w = y[9:]
        Rdot, wdot = body_flow(BodyState(R=R, omega=w), np.zeros(3), J)
        return np.concatenate([Rdot.ravel(), wdot])

    w0 = np.array([0.3, -0.2, 0.4])
    y = np.concatenate([np.eye(3).ravel(), w0])
    e0 = 0.5 * w0 @ (np.diag(J.J_diag) @ w0)
    h = 1e-3
    worst = 0.0
    for k in range(10_000):
        y = rk4(f, y, h)
        w = y[9:]
        worst = max(worst, abs(0.5 * w @ (np.diag(J.J_diag) @ w) - e0))
    assert worst <= 1e-8


def test_ref_flow_accepts_study_profile():
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    # component bound sqrt(1 + 1 + 0.01) ~ 1.42 < 2, so the profile is admitted
    sup = max(np.linalg.norm(ref.z_at(t)) for t in np.linspace(0.0, 80.0, 4001))
    assert sup <= math.sqrt(2.01)
    assert sup < 2.0
    s = RefState(R=np.eye(3), omega=np.zeros(3))
    Rdot, wdot = ref_flow(s, ref.z_at(0.0), ref.m_bound)
    assert np.array_equal(Rdot, np.zeros((3, 3)))
    assert np.allclose(wdot, [0.0, -1.0, 0.1])


def test_ref_flow_constant_when_unaccelerated():
    s = RefState(R=np.eye(3), omega=np.zeros(3))
    Rdot, wdot = ref_flow(s, np.zeros(3), 1.0)
    assert np.array_equal(Rdot, np.zeros((3, 3)))
    assert np.array_equal(wdot, np.zeros(3))


def test_ref_flow_rejects_oversized_acceleration():
    ref = st.make_reference("paper_sine", m_bound=1.0, omega_r_bound=25.0)
    with pytest.raises(SolverError, match="t=0") as e:
        ref.z_at(0.0)  # ||z(0)|| = sqrt(1.01) > 1
    assert e.value.t == 0.0
    with pytest.raises(SolverError, match="t=0.0:") as e:  # a batch names its worst time
        ref.z_at(np.array([5.0, 0.0, 3.0]), ARRAY_MATH)
    assert e.value.t == 0.0
    s = RefState(R=np.eye(3), omega=np.zeros(3))
    with pytest.raises(ContractError):
        ref_flow(s, np.array([1.5, 0.0, 0.0]), 1.0)


def test_reference_built_directly_rejects_a_non_positive_bound():
    # the bounds were checked only by `make_reference`: m_bound = -1 constructed,
    # and the first `z_at` failed as a solver error at t = 0
    def fn(t, xp=math):
        return (0.0, 0.0, 0.0)

    with pytest.raises(ContractError, match="'m_bound' must be positive, got -1.0"):
        st.Reference("r", fn, m_bound=-1.0, omega_r_bound=25.0)
    with pytest.raises(ContractError, match="'omega_r_bound' must be positive, got 0.0"):
        st.Reference("r", fn, m_bound=1.0, omega_r_bound=0.0)


def test_tracking_error_definitions():
    rng = np.random.default_rng(1)
    R = st.random_rotation(rng)
    w = rng.standard_normal(3)
    exact = tracking_error(BodyState(R=R, omega=w), RefState(R=R, omega=w))
    assert np.linalg.norm(exact.R - np.eye(3)) <= 1e-12
    assert np.linalg.norm(exact.omega) <= 1e-12

    ref0 = RefState(R=np.eye(3), omega=np.zeros(3))
    err = tracking_error(BodyState(R=R, omega=w), ref0)
    assert np.array_equal(err.R, R)
    assert np.array_equal(err.omega, w)

    ref = RefState(R=st.random_rotation(rng), omega=rng.standard_normal(3))
    err = tracking_error(BodyState(R=R, omega=w), ref)
    assert np.linalg.norm(ref.R @ err.R - R) <= 1e-12


def test_feedforward_values(paper_inertia):
    rng = np.random.default_rng(2)
    Re = st.random_rotation(rng)
    assert np.array_equal(st.feedforward(Re, np.zeros(3), np.zeros(3), paper_inertia), np.zeros(3))
    ident = st.Inertia([1.0, 1.0, 1.0])
    z = rng.standard_normal(3)
    w = rng.standard_normal(3)
    assert np.allclose(st.feedforward(np.eye(3), w, z, ident), z, atol=1e-15)
    # independent re-evaluation of the formula
    a = Re.T @ w
    J = np.diag(paper_inertia.J_diag)
    expected = J @ (Re.T @ z) + np.cross(a, J @ a)
    assert np.allclose(st.feedforward(Re, w, z, paper_inertia), expected, atol=0.0)


def test_coupling_matrix_is_skew_and_powerless(paper_inertia):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        Re = st.random_rotation(rng)
        we = rng.standard_normal(3)
        wr = rng.standard_normal(3)
        S = coupling_matrix(Re, we, wr, paper_inertia)
        assert np.linalg.norm(S + S.T) <= 1e-12
        assert abs(we @ S @ we) <= 1e-12
        a, Ja = shared_terms_f(floats(Re), floats(wr), paper_inertia.J_diag)
        sig = coupling_times_f(floats(we), a, Ja, paper_inertia.J_diag)
        assert np.allclose(S @ we, sig, atol=1e-13)


def test_coupling_matrix_zero_at_rest(paper_inertia):
    rng = np.random.default_rng(4)
    S = coupling_matrix(st.random_rotation(rng), np.zeros(3), np.zeros(3), paper_inertia)
    assert np.array_equal(S, np.zeros((3, 3)))


def test_error_flow_equilibrium(paper_inertia):
    rng = np.random.default_rng(5)
    wr = rng.standard_normal(3)
    z = rng.standard_normal(3)
    tau = st.feedforward(np.eye(3), wr, z, paper_inertia)
    Rdot, wdot = error_rates(np.eye(3), np.zeros(3), wr, z, tau, paper_inertia)
    assert np.linalg.norm(Rdot) <= 1e-15
    assert np.linalg.norm(wdot) <= 1e-12


def test_error_dynamics_match_direct_simulation(paper_inertia):
    """Dual-path oracle: simulate body and reference, or the errors directly.

    Both paths are driven by the same smooth feedback computed from the error
    state; the resulting error trajectories must agree.  This pins the exact
    form of the coupling and feedforward terms.
    """
    J = paper_inertia
    p = st.design_params(
        [2.0, 4.0, 6.0], [0.9 * math.pi], gamma=7.0 / math.pi**2, delta_frac=0.8
    )
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    kr, kw = 1.5, 0.2

    def control(Re, we, wr, z):
        return st.feedforward(Re, wr, z, J) - 2.0 * kr * st.grad_rotation(Re, 0.0, p) - kw * we

    R0 = st.angle_axis(1.2, np.array([1.0, 0.0, 0.0]))
    w0 = np.array([0.1, -0.2, 0.3])

    # path A: body and reference simulated in absolute coordinates
    def fa(y, t):
        R = y[:9].reshape(3, 3)
        w = y[9:12]
        Rr = y[12:21].reshape(3, 3)
        wr = y[21:24]
        z = ref.z_fn(t)
        err = tracking_error(BodyState(R=R, omega=w), RefState(R=Rr, omega=wr))
        tau = control(err.R, err.omega, wr, z)
        Rdot, wdot = body_flow(BodyState(R=R, omega=w), tau, J)
        Rrdot, wrdot = ref_flow(RefState(R=Rr, omega=wr), z, ref.m_bound)
        return np.concatenate([Rdot.ravel(), wdot, Rrdot.ravel(), wrdot])

    # path B: error dynamics simulated directly
    def fb(y, t):
        Re = y[:9].reshape(3, 3)
        we = y[9:12]
        Rr = y[12:21].reshape(3, 3)
        wr = y[21:24]
        z = ref.z_fn(t)
        tau = control(Re, we, wr, z)
        Redot, wedot = error_rates(Re, we, wr, z, tau, J)
        Rrdot, wrdot = ref_flow(RefState(R=Rr, omega=wr), z, ref.m_bound)
        return np.concatenate([Redot.ravel(), wedot, Rrdot.ravel(), wrdot])

    def rk4t(f, y, t, h):
        k1 = f(y, t)
        k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(y + h * k3, t + h)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    ya = np.concatenate([R0.ravel(), w0, np.eye(3).ravel(), np.zeros(3)])
    yb = ya.copy()  # R_r(0) = I, so R_e(0) = R(0) and omega_e(0) = omega(0)
    h = 1e-3
    t = 0.0
    worst = 0.0
    for k in range(10_000):
        ya = rk4t(fa, ya, t, h)
        yb = rk4t(fb, yb, t, h)
        t += h
        if k % 100 == 0 or k == 9999:
            R = ya[:9].reshape(3, 3)
            w = ya[9:12]
            Rr = ya[12:21].reshape(3, 3)
            wr = ya[21:24]
            err = tracking_error(BodyState(R=R, omega=w), RefState(R=Rr, omega=wr))
            worst = max(
                worst,
                np.linalg.norm(err.R - yb[:9].reshape(3, 3)),
                np.linalg.norm(err.omega - yb[9:12]),
            )
    assert worst <= 1e-6


def test_invariant_torque_keeps_error_fixed(paper_inertia):
    # with tau = feedforward and omega_e = 0, the error rotation stays put
    rng = np.random.default_rng(6)
    Re = st.random_rotation(rng)
    wr = rng.standard_normal(3)
    z = rng.standard_normal(3)
    tau = st.feedforward(Re, wr, z, paper_inertia)
    Rdot, wdot = error_rates(Re, np.zeros(3), wr, z, tau, paper_inertia)
    assert np.linalg.norm(Rdot) <= 1e-15
    assert np.linalg.norm(wdot) <= 1e-12


def test_inertia_validation():
    # J is given and held as its 3 diagonal entries: a matrix, even a diagonal one, 2
    # entries or a NaN entry is refused
    for bad in (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.eye(3), [1.0, 1.0], [1.0, math.nan, 1.0], [math.inf, 1.0, 1.0],
                ["1.0", "1.0", "1.0"]):
        with pytest.raises(ContractError, match="J_diag must be 3 finite numbers"):
            st.Inertia(bad)
    with pytest.raises(ContractError):
        st.Inertia([1.0, -1.0, 1.0])
    J = st.Inertia([0.0159, 0.0150, 0.0297])
    assert min(J.J_diag) == pytest.approx(0.0150)
    assert max(J.J_diag) == pytest.approx(0.0297)
    # the kernels read the diagonals; J^-1's equal those of the inverse matrix
    assert J.J_diag == (0.0159, 0.0150, 0.0297)
    assert J.J_inv_diag == tuple(np.diagonal(np.linalg.inv(np.diag(J.J_diag))))
