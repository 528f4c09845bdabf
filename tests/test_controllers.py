import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import so3track as st
from so3track.controllers import filtered_value_w_f, torque_basic_f, torque_velocity_free_f
from so3track.errors import ContractError, SolverError
from so3track.potential import moment, warp_rotation_f
from so3track.rigid_body import coupling_times_f, shared_terms_f
from so3track.so3 import floats
from torque_trace import torque_inputs

E1, E2, E3 = np.eye(3)
REST = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
# Offsets in the packed state, as the loop classes declare them.
THETA, OMEGA_E = st.BasicLoop.THETA, st.BasicLoop.OMEGA_E
ZETA = st.SmoothLoop.ZETA
R_TILDE, THETA_BAR = st.VelocityFreeLoop.R_TILDE, st.VelocityFreeLoop.THETA_BAR


def random_basic_state(rng):
    return SimpleNamespace(
        Re=st.random_rotation(rng),
        theta=rng.uniform(-math.pi, math.pi),
        omega_e=rng.standard_normal(3),
        omega_r=rng.standard_normal(3),
    )


def pack(kind, s):
    """The packed state, by the law's loop class, of the state fields in namespace s."""
    return st.controllers.LOOP_CLASSES[kind].pack(**vars(s))


def fixed_reference(z):
    """A reference whose acceleration z is the same at every time."""
    z = tuple(floats(z))
    return st.Reference("fixed", lambda t, xp=math: z, m_bound=10.0, omega_r_bound=25.0)


def rest_state(R, theta):
    """Basic-loop state with error rotation R and warp angle theta, at rest on a resting frame."""
    return st.BasicLoop.pack(Re=R, theta=theta, omega_e=np.zeros(3), omega_r=np.zeros(3))


# --- warp-angle subsystem ----------------------------------------------------


def warp_rate(R, theta, p, gains, inertia):
    """The warp-angle row of the basic loop's flow."""
    loop = st.make_loop("basic", p, gains, inertia, REST)
    return loop.flow(0.0, rest_state(R, theta), None)[THETA]


def warp_reset(R, theta, p, gains, inertia):
    """The warp angle after the basic loop's jump map, from a state in the jump set."""
    loop = st.make_loop("basic", p, gains, inertia, REST)
    return loop.jump(0.0, rest_state(R, theta), None)[THETA]


def jump_set_states(p, rng, n):
    """n seeded (R, theta) pairs whose gap reaches delta."""
    out = []
    while len(out) < n:
        R, theta = st.random_rotation(rng), rng.uniform(-math.pi, math.pi)
        if st.gap(R, theta, p) >= p.delta:
            out.append((R, theta))
    return out


def test_warp_rate_zero_at_target(paper_params, paper_gains, paper_inertia):
    assert warp_rate(np.eye(3), 0.0, paper_params, paper_gains, paper_inertia) == 0.0


def test_warp_rate_pure_quadratic_pull(paper_params, paper_gains, paper_inertia):
    # rotations about e1 have their gradient direction orthogonal to the warp
    # axis, leaving only the quadratic term
    p = paper_params
    for theta in (0.5, -1.1, 2.0):
        T = st.angle_axis(1.3, E1)
        R = T @ st.warp_rotation(theta, p).T
        rate = warp_rate(R, theta, p, paper_gains, paper_inertia)
        assert rate == pytest.approx(-paper_gains.k_theta * p.gamma * theta, abs=1e-12)


def test_warp_rate_descends(paper_params, paper_gains, paper_inertia):
    rng = np.random.default_rng(0)
    for _ in range(200):
        R = st.random_rotation(rng)
        theta = rng.uniform(-math.pi, math.pi)
        assert warp_rate(R, theta, paper_params, paper_gains, paper_inertia) * st.gradients(
            R, theta, paper_params
        )[1] <= 0.0


def test_warp_reset_singleton(paper_params, paper_gains, paper_inertia):
    for R, theta in jump_set_states(paper_params, np.random.default_rng(1), 20):
        assert warp_reset(R, theta, paper_params, paper_gains, paper_inertia) == 0.9 * math.pi


def test_warp_reset_drops_potential_by_gap(paper_params, paper_gains, paper_inertia):
    p = paper_params
    for R, theta in jump_set_states(p, np.random.default_rng(2), 25):
        post = warp_reset(R, theta, p, paper_gains, paper_inertia)
        assert st.value(R, post, p) <= st.value(R, theta, p) - p.delta


def test_warp_reset_tie_break_prefers_first(paper_gains, paper_inertia):
    # at a diagonal half turn A R is diagonal and the potential is even in
    # theta, so {a, -a} ties exactly; at theta = 0 the state is in the jump set
    R = np.diag([1.0, -1.0, -1.0])
    for theta_set in ([0.9 * math.pi, -0.9 * math.pi], [-0.9 * math.pi, 0.9 * math.pi]):
        p = st.design_params(np.diag([2.0, 4.0, 6.0]), theta_set, gamma_frac=0.5, delta_frac=0.5)
        a, b = p.theta_set
        assert st.value(R, a, p) == st.value(R, b, p)
        assert st.gap(R, 0.0, p) >= p.delta
        assert warp_reset(R, 0.0, p, paper_gains, paper_inertia) == a


def test_flow_and_jump_sets(paper_params, paper_gains, paper_inertia):
    # the basic loop's margin is gap - delta: flow set <= 0, jump set >= 0
    p = paper_params

    def margin(R, theta, params):
        loop = st.make_loop("basic", params, paper_gains, paper_inertia, REST)
        return loop.jump_margin(0.0, rest_state(R, theta), None)

    assert margin(np.eye(3), 0.0, p) < 0.0
    for cp in st.undesired_critical_points(p):
        assert margin(cp.rotation, cp.theta, p) >= 0.0
    # boundary states belong to both closed sets
    rng = np.random.default_rng(3)
    R = st.random_rotation(rng)
    g = st.gap(R, 0.3, p)
    if 0.0 < g < 4.0 * p.spectral.delta_star / math.pi**2:
        boundary = dataclasses.replace(p, delta=g)
        assert margin(R, 0.3, boundary) == 0.0


# --- torque laws -------------------------------------------------------------


def test_torque_basic_zero_at_attractor(paper_params, paper_gains, paper_inertia):
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, REST)
    tau = loop.torque(0.0, rest_state(np.eye(3), 0.0), None)
    assert np.array_equal(tau, np.zeros(3))


def test_basic_lyapunov_rate_identity(paper_params, paper_gains, paper_inertia):
    """Chain-rule derivative of the basic monitor equals its closed form.

    Along closed-loop flows the monitor rate must be
    -k_omega |omega_e|^2 - k_R k_theta |grad_warp|^2; this pins the coupling
    matrix, feedforward, and gradient conventions simultaneously.
    """
    p, gn, J = paper_params, paper_gains, paper_inertia
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop("basic", p, gn, J, ref)
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = random_basic_state(rng)
        y = pack("basic", s)
        t = rng.uniform(0.0, 10.0)
        ydot = loop.flow(t, y, None)
        g_rot, g_th = st.gradients(s.Re, s.theta, p)
        theta_dot = ydot[THETA]
        we_dot = ydot[OMEGA_E]
        ldot = gn.k_R * (2.0 * s.omega_e @ g_rot + g_th * theta_dot) + s.omega_e @ (
            J.J @ we_dot
        )
        expected = -gn.k_omega * (s.omega_e @ s.omega_e) - gn.k_R * gn.k_theta * g_th**2
        assert ldot == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")


def random_loop_state(kind, rng):
    base = random_basic_state(rng)
    if kind == "smooth":
        return SimpleNamespace(**vars(base), zeta=rng.standard_normal(3))
    if kind == "velocity_free":
        return SimpleNamespace(
            **vars(base), Rtilde=st.random_rotation(rng), theta_bar=rng.uniform(-2.0, 2.0)
        )
    if kind == "non_hybrid":
        base.theta = 0.0  # the baseline's warp angle stays at zero
    return base


# State field of each named offset, by the law whose loop class declares it.
FIELDS = {"R_E": "Re", "THETA": "theta", "OMEGA_E": "omega_e", "OMEGA_R": "omega_r"}
LAW_FIELDS = {"smooth": {"ZETA": "zeta"}, "velocity_free": {"R_TILDE": "Rtilde",
                                                             "THETA_BAR": "theta_bar"}}


@pytest.mark.parametrize("kind, width", [
    ("basic", 16), ("smooth", 19), ("velocity_free", 26), ("non_hybrid", 16),
])
def test_packed_layout_and_flow_width(kind, width, paper_params, paper_gains, paper_inertia):
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref)
    s = random_loop_state(kind, np.random.default_rng(12))
    y = pack(kind, s)
    assert loop.WIDTH == width and y.shape == (width,)
    # the named offsets tile the packed state and read back the packed fields
    covered = []
    for name, field in {**FIELDS, **LAW_FIELDS.get(kind, {})}.items():
        at = getattr(loop, name)
        covered += range(width)[at] if isinstance(at, slice) else [at]
        assert np.array_equal(np.ravel(y[at]), np.ravel(getattr(s, field)))
    assert sorted(covered) == list(range(width))
    ydot = loop.flow(0.3, tuple(y.tolist()), None)
    assert type(ydot) is tuple and len(ydot) == width


def random_measurement(rng):
    return st.Measurement(E=tuple(floats(st.exp_so3(rng.normal(0.0, 0.1, 3)))),
                          n_omega=tuple(floats(rng.normal(0.0, 0.1, 3))))


def measured(s, meas):
    """(E, R_m, omega_e,m): noise rotation, measured error rotation and velocity error."""
    if meas is None:
        return np.eye(3), s.Re, s.omega_e
    E = np.reshape(meas.E, (3, 3))
    Rm = s.Re @ E
    return E, Rm, s.omega_e + np.array(meas.n_omega) + s.Re.T @ s.omega_r - Rm.T @ s.omega_r


def filtered_gap(R, theta, zeta, p, rho):
    """The smooth law's filtered gap: the filtered value at theta minus its least over the resets."""
    AR, zeta = moment(R, p), floats(zeta)
    best = min(filtered_value_w_f(AR, warp_rotation_f(tp, p), tp, zeta, p, rho)
               for tp in p.theta_set)
    return filtered_value_w_f(AR, warp_rotation_f(theta, p), theta, zeta, p, rho) - best


def public_torque(kind, s, z, meas, p, gn, J):
    """The torque law evaluated at the measured state from the 3x3 gradient and feedforward."""
    E, Rm, wem = measured(s, meas)
    ups = st.feedforward(Rm, s.omega_r, z, J)
    if kind == "velocity_free":
        g2 = st.grad_rotation(s.Rtilde @ E, s.theta_bar, p)
        return np.array(torque_velocity_free_f(ups, st.grad_rotation(Rm, s.theta, p), g2, gn))
    # the smooth law feeds back its filter state; non_hybrid states have theta = 0
    g = s.zeta if kind == "smooth" else st.grad_rotation(Rm, s.theta, p)
    return np.array(torque_basic_f(ups, g, wem, gn))


def check_measured_rates(kind, s, meas, ydot, p, gn):
    """Warp, filter and auxiliary rows of a noisy flow against the laws' formulas."""
    E, Rm, _ = measured(s, meas)
    if kind == "non_hybrid":
        assert ydot[THETA] == 0.0
        return
    rate = -gn.k_theta * st.gradients(Rm, s.theta, p)[1]
    assert ydot[THETA] == pytest.approx(rate, rel=1e-12, abs=1e-12)
    if kind == "smooth":
        zdot = -gn.k_zeta * (s.zeta - st.grad_rotation(Rm, s.theta, p))
        assert np.allclose(ydot[ZETA], zdot, rtol=0.0, atol=1e-10)
    if kind == "velocity_free":
        Rtm = s.Rtilde @ E
        rate = -gn.k_theta * st.gradients(Rtm, s.theta_bar, p)[1]
        assert ydot[THETA_BAR] == pytest.approx(rate, rel=1e-12, abs=1e-12)
        # the damping output is formed at the measured auxiliary rotation
        beta = E @ (gn.Gamma @ st.grad_rotation(Rtm, s.theta_bar, p))
        Rt_dot = s.Rtilde @ st.skew(s.omega_e - beta)
        assert np.allclose(ydot[R_TILDE], Rt_dot.ravel(), rtol=0.0, atol=1e-11)


def public_margin(kind, s, meas, p, gn):
    """Jump-set margin at the measured rotations from the gap functions."""
    E, Rm, _ = measured(s, meas)
    if kind == "non_hybrid":
        return -math.inf
    if kind == "smooth":
        return filtered_gap(Rm, s.theta, s.zeta, p, gn.rho) - gn.delta_prime
    gaps = [st.gap(Rm, s.theta, p)]
    if kind == "velocity_free":
        gaps.append(st.gap(s.Rtilde @ E, s.theta_bar, p))
    return max(gaps) - p.delta


def torque_from_flow(loop, s, t, ydot):
    """Applied torque recovered from the velocity row: J wdot_e - Sigma w_e + Upsilon."""
    J, z = loop.inertia, loop.reference.z_at(t)
    a, Ja = shared_terms_f(floats(s.Re), floats(s.omega_r), J.J_f)
    sig = np.array(coupling_times_f(floats(s.omega_e), a, Ja, J.J_f))
    ups = st.feedforward(s.Re, s.omega_r, z, J)
    return J.J @ ydot[OMEGA_E] - sig + ups


@pytest.mark.parametrize("kind", LAWS)
def test_identity_measurement_matches_exact_path(kind, paper_params, paper_gains, paper_inertia):
    # a noise sample of E = I, n_omega = 0 takes the measured branch and must
    # reproduce the exact-measurement values bit for bit
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref)
    quiet = st.Measurement(E=tuple(floats(np.eye(3))), n_omega=tuple(floats(np.zeros(3))))
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = pack(kind, random_loop_state(kind, rng))
        t = rng.uniform(0.0, 10.0)
        assert np.array_equal(loop.flow(t, y, quiet), loop.flow(t, y, None))
        assert np.array_equal(loop.torque(t, y, quiet), loop.torque(t, y, None))
        assert loop.jump_margin(t, y, quiet) == loop.jump_margin(t, y, None)


@pytest.mark.parametrize("kind", LAWS)
def test_noisy_flow_applies_public_torque_at_measured_state(
    kind, paper_params, paper_gains, paper_inertia
):
    p, gn, J = paper_params, paper_gains, paper_inertia
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop(kind, p, gn, J, ref)
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_loop_state(kind, rng)
        y = pack(kind, s)
        t = rng.uniform(0.0, 10.0)
        meas = random_measurement(rng)
        ydot = loop.flow(t, y, meas)
        tau = public_torque(kind, s, ref.z_at(t), meas, p, gn, J)
        assert np.allclose(torque_from_flow(loop, s, t, ydot), tau, rtol=0.0, atol=1e-11)
        assert np.allclose(loop.torque(t, y, meas), tau, rtol=0.0, atol=1e-12)
        check_measured_rates(kind, s, meas, ydot, p, gn)
        margin = public_margin(kind, s, meas, p, gn)
        assert loop.jump_margin(t, y, meas) == pytest.approx(margin, rel=0.0, abs=1e-12)


def test_flow_torque_matches_public_op(paper_params, paper_gains, paper_inertia):
    # one torque kernel per law: the loop's torque is the public law's value
    # exactly, and the flow applies that same torque
    p, gn, J = paper_params, paper_gains, paper_inertia
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    rng = np.random.default_rng(5)
    for kind in LAWS:
        loop = st.make_loop(kind, p, gn, J, ref)
        for _ in range(20):
            s = random_loop_state(kind, rng)
            y = pack(kind, s)
            t = rng.uniform(0.0, 10.0)
            tau = public_torque(kind, s, ref.z_at(t), None, p, gn, J)
            assert np.array_equal(loop.torque(t, y, None), tau)
            assert np.allclose(torque_from_flow(loop, s, t, loop.flow(t, y, None)), tau,
                               rtol=0.0, atol=1e-11)


def spy_on_record(loop):
    """Keep the arguments `solve` hands to `loop.record`."""
    seen = {}
    record = loop.record

    def spy(t, j, states, noise, in_jump):
        seen.update(t=t, states=states, noise=noise, in_jump=in_jump)
        return record(t, j, states, noise, in_jump)

    loop.record = spy
    return seen


def assert_rows_equal_scalar_kernels(loop, arc, t, states, meas, in_jump, rows):
    """Each recorded row, bit for bit, equals the float kernels at its sample."""
    for i in rows:
        row = loop._columns(float(t[i]), states[i].tolist(), meas[i], bool(in_jump[i]))
        assert np.array(row, dtype=float).tobytes() == arc.data[i].tobytes(), f"row {i}"


@pytest.mark.parametrize("noisy", (False, True), ids=("exact", "noisy"))
@pytest.mark.parametrize("kind", LAWS)
def test_batched_columns_equal_scalar_kernels(kind, noisy, paper_params, paper_gains,
                                              paper_inertia):
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(sigma_R=0.05, sigma_omega=0.05) if noisy else None
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref, noise)
    s = random_loop_state(kind, np.random.default_rng(21))
    s.Re, s.theta = st.angle_axis(math.pi, E1), 0.0  # an unwanted critical point
    seen = spy_on_record(loop)
    flow, calls = loop.flow, []

    def spy_flow(t, y, meas):
        calls.append((t, meas))
        return flow(t, y, meas)

    loop.flow = spy_flow
    cfg = st.SolverConfig(dt=1e-3, t_max=0.2, j_max=10)
    arc = st.solve(loop, pack(kind, s), cfg, np.random.default_rng(3))
    assert (len(arc.jumps) > 0) == (kind != "non_hybrid")
    assert np.array_equal(seen["states"], arc.states)
    noise = seen["noise"]
    assert (noise is None) != noisy
    meas = ([None] * len(arc) if noise is None else
            [st.Measurement(tuple(r[0:9]), tuple(r[9:12])) for r in noise.tolist()])
    # a flow sample is recorded under the measurement of the step into it,
    # whose last RK4 stage evaluates the flow at the sample time
    step_meas = {calls[k + 3][0]: calls[k][1] for k in range(0, len(calls), 4)}
    for i in range(1, len(arc)):
        if arc.j[i] == arc.j[i - 1]:
            assert meas[i] == step_meas[seen["t"][i]]
    assert_rows_equal_scalar_kernels(loop, arc, seen["t"], seen["states"], meas,
                                     seen["in_jump"], range(len(arc)))


def test_fig3_columns_equal_scalar_kernels(fig3_runs):
    for _, loop, arc, _, _ in fig3_runs.values():
        rows = sorted({*range(0, len(arc), 10), len(arc) - 1,
                       *(k for k in range(1, len(arc)) if arc.j[k] != arc.j[k - 1])})
        flags = arc.column("in_jump_set") == 1.0
        assert_rows_equal_scalar_kernels(loop, arc, arc.t, arc.states, [None] * len(arc),
                                         flags, rows)


def numpy_exp_so3(w):
    """exp(skew(w)) from 3x3 numpy products (the Rodrigues form without the float kernel)."""
    t = math.sqrt(w @ w)
    W = st.skew(w)
    return np.eye(3) + (math.sin(t) / t) * W + ((1.0 - math.cos(t)) / (t * t)) * (W @ W)


@pytest.mark.parametrize("sigmas", ((0.1, 0.2), (0.1, 0.0), (0.0, 0.2)))
def test_sample_measurement_replays_numpy_draw(sigmas, paper_params, paper_gains,
                                               paper_inertia):
    # the same rng.normal calls in the same order: noisy runs replay, and the
    # generator ends in the same state
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(*sigmas)
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, ref, noise)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(50):
        m = loop.sample_measurement(rng)
        E = numpy_exp_so3(twin.normal(0.0, sigmas[0], 3)) if sigmas[0] > 0.0 else np.eye(3)
        n = twin.normal(0.0, sigmas[1], 3) if sigmas[1] > 0.0 else np.zeros(3)
        assert len(m.E) == 9 and len(m.n_omega) == 3
        assert np.abs(np.reshape(m.E, (3, 3)) - E).max() <= 1e-15
        assert np.array_equal(m.n_omega, n)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_smooth_lyapunov_rate_identity(paper_params, paper_gains, paper_inertia):
    """Filtered-monitor rate matches its closed form for both filter variants."""
    p, gn, J = paper_params, paper_gains, paper_inertia
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    rng = np.random.default_rng(6)
    for relaxed in (False, True):
        loop = st.make_loop("smooth", p, gn, J, ref, relaxed_filter=relaxed)
        for _ in range(30):
            base = random_basic_state(rng)
            s = SimpleNamespace(**vars(base), zeta=rng.standard_normal(3))
            y = pack("smooth", s)
            t = rng.uniform(0.0, 10.0)
            ydot = loop.flow(t, y, None)
            g_rot, g_th = st.gradients(s.Re, s.theta, p)
            theta_dot = ydot[THETA]
            we_dot = ydot[OMEGA_E]
            zeta_dot = ydot[ZETA]
            rate_g = st.grad_rotation_rate(s.Re, s.theta, s.omega_e, theta_dot, p)
            mism = s.zeta - g_rot
            wdot = (
                2.0 * s.omega_e @ g_rot
                + g_th * theta_dot
                + 2.0 * gn.rho * mism @ (zeta_dot - rate_g)
            )
            ldot = gn.k_R * wdot + s.omega_e @ (J.J @ we_dot)
            if relaxed:
                expected = (
                    -gn.k_omega * (s.omega_e @ s.omega_e)
                    - gn.k_R * gn.k_theta * g_th**2
                    - 2.0 * gn.k_R * gn.rho * gn.k_zeta * (mism @ mism)
                )
            else:
                expected = (
                    -gn.k_omega * (s.omega_e @ s.omega_e)
                    - gn.k_R * gn.k_theta * g_th**2
                    - 2.0 * gn.k_R * gn.rho * gn.k_zeta * (mism @ mism)
                    - 2.0 * gn.k_R * gn.rho * (mism @ rate_g)
                    - 2.0 * gn.k_R * (s.omega_e @ mism)
                )
            assert ldot == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))


def smooth_state(R, theta, zeta):
    """Smooth-loop state at rest on a resting reference."""
    return st.SmoothLoop.pack(Re=R, theta=theta, omega_e=np.zeros(3), omega_r=np.zeros(3),
                              zeta=zeta)


def test_smooth_torque_ignores_warp_jumps(paper_params, paper_gains, paper_inertia):
    p, gn, J = paper_params, paper_gains, paper_inertia
    rng = np.random.default_rng(7)
    base = random_basic_state(rng)
    z = rng.standard_normal(3)
    zeta = rng.standard_normal(3)
    loop = st.make_loop("smooth", p, gn, J, fixed_reference(z))
    y = st.SmoothLoop.pack(**vars(base), zeta=zeta)
    while loop.jump_margin(0.0, y, None) < 0.0:
        base.Re = st.random_rotation(rng)
        y = st.SmoothLoop.pack(**vars(base), zeta=zeta)
    y_post = loop.jump(0.0, y, None)
    assert y_post[THETA] != y[THETA]
    pre = loop.torque(0.0, y, None)
    post = loop.torque(0.0, y_post, None)
    assert np.array_equal(pre, post)  # the filter state does not jump


def test_zeta_flow_stationary_at_gradient(paper_params, paper_gains, paper_inertia):
    rng = np.random.default_rng(8)
    R = st.random_rotation(rng)
    theta = 0.8
    g = st.grad_rotation(R, theta, paper_params)
    loop = st.make_loop("smooth", paper_params, paper_gains, paper_inertia, REST)
    zdot = loop.flow(0.0, smooth_state(R, theta, g), None)[ZETA]
    assert np.array_equal(zdot, np.zeros(3))


def test_filtered_potential_properties(paper_params, paper_gains):
    p, rho = paper_params, paper_gains.rho
    M0, W0 = moment(np.eye(3), p), warp_rotation_f(0.0, p)
    assert filtered_value_w_f(M0, W0, 0.0, (0.0, 0.0, 0.0), p, rho) == 0.0
    rng = np.random.default_rng(9)
    R = st.random_rotation(rng)
    theta = rng.uniform(-math.pi, math.pi)
    g = floats(st.grad_rotation(R, theta, p))
    M, W = moment(R, p), warp_rotation_f(theta, p)
    assert filtered_value_w_f(M, W, theta, g, p, rho) == st.value(R, theta, p)


def smooth_margin(R, theta, zeta, p, gains, inertia):
    """The smooth loop's jump margin at the given error rotation, warp angle and filter state."""
    loop = st.make_loop("smooth", p, gains, inertia, REST)
    return loop.jump_margin(0.0, smooth_state(R, theta, zeta), None)


def test_filtered_gap_margin_with_compliant_rho(paper_params, paper_gains, paper_inertia):
    # with rho below (delta - delta_prime)/c_psi^2 the unwanted critical
    # points keep a filtered-gap margin above delta_prime
    p = paper_params
    dp = paper_gains.delta_prime
    c_psi = 2.0 * p.spectral.a_bar_max
    rho_ok = 0.9 * (p.delta - dp) / c_psi**2
    gains = dataclasses.replace(paper_gains, rho=rho_ok)
    for cp in st.undesired_critical_points(p):
        fg = filtered_gap(cp.rotation, cp.theta, np.zeros(3), p, rho_ok)
        assert fg > dp
        assert smooth_margin(cp.rotation, cp.theta, np.zeros(3), p, gains, paper_inertia) == fg - dp


def test_smooth_set_membership(paper_params, paper_gains, paper_inertia):
    # at the attractor the smooth loop lies in its flow set only
    m = smooth_margin(np.eye(3), 0.0, np.zeros(3), paper_params, paper_gains, paper_inertia)
    assert m < 0.0
    assert m == filtered_gap(np.eye(3), 0.0, np.zeros(3), paper_params, paper_gains.rho) - (
        paper_gains.delta_prime
    )


# --- velocity-free law -------------------------------------------------------


def test_aux_flow_stationary_at_target(paper_params, paper_gains, paper_inertia):
    loop = st.make_loop("velocity_free", paper_params, paper_gains, paper_inertia, REST)
    y = st.VelocityFreeLoop.pack(
        Re=np.eye(3), theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3),
        Rtilde=np.eye(3), theta_bar=0.0,
    )
    ydot = loop.flow(0.0, y, None)
    assert np.array_equal(ydot[R_TILDE], np.zeros(9))
    assert ydot[THETA_BAR] == 0.0


def test_aux_damping_output_zero_at_target(paper_params, paper_gains):
    beta = paper_gains.Gamma @ st.grad_rotation(np.eye(3), 0.0, paper_params)
    assert np.array_equal(beta, np.zeros(3))


def test_velocity_free_gain_relation(paper_gains):
    # the study picks k_beta so that 2 k_beta Gamma^-1 equals k_omega
    rel = 2.0 * paper_gains.k_beta * np.linalg.inv(paper_gains.Gamma)
    assert np.allclose(rel, paper_gains.k_omega * np.eye(3), atol=1e-15)


def test_velocity_free_torque_reads_no_velocity(paper_params, paper_gains, paper_inertia):
    """Traced, the velocity-free torque reaches neither omega_e nor its noise n_omega.

    The basic torque reaches both, so the trace can tell the two apart.
    """
    omega_e = {f"y{i}" for i in range(10, 13)}
    n_omega = {f"meas{i}" for i in range(9, 12)}
    vf, basic = (st.make_loop(kind, paper_params, paper_gains, paper_inertia, REST)
                 for kind in ("velocity_free", "basic"))
    for noisy in (False, True):
        reads = torque_inputs(vf, noisy)
        assert reads.isdisjoint(omega_e | n_omega)
        assert {"y13", "y14", "y15"} <= reads  # the reference velocity is known, not measured
        assert torque_inputs(basic, noisy) >= omega_e | (n_omega if noisy else set())


def test_velocity_free_torque_zero_at_attractor(paper_params, paper_gains, paper_inertia):
    loop = st.make_loop("velocity_free", paper_params, paper_gains, paper_inertia, REST)
    y = loop.pack(Re=np.eye(3), theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3),
                  Rtilde=np.eye(3), theta_bar=0.0)
    assert np.array_equal(loop.torque(0.0, y, None), np.zeros(3))


def test_velocity_free_lyapunov_rate_identity(paper_params, paper_gains, paper_inertia):
    p, gn, J = paper_params, paper_gains, paper_inertia
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop("velocity_free", p, gn, J, ref)
    rng = np.random.default_rng(10)
    for _ in range(50):
        base = random_basic_state(rng)
        s = SimpleNamespace(
            **vars(base), Rtilde=st.random_rotation(rng), theta_bar=rng.uniform(-2.0, 2.0)
        )
        y = pack("velocity_free", s)
        t = rng.uniform(0.0, 10.0)
        ydot = loop.flow(t, y, None)
        g1, g1_th = st.gradients(s.Re, s.theta, p)
        g2, g2_th = st.gradients(s.Rtilde, s.theta_bar, p)
        we_dot = ydot[OMEGA_E]
        # chain rule: U(Rtilde, theta_bar) flows with drive omega_e - beta
        beta = gn.Gamma @ g2
        ldot = (
            gn.k_R * (2.0 * s.omega_e @ g1 + g1_th * ydot[THETA])
            + gn.k_beta * (2.0 * (s.omega_e - beta) @ g2 + g2_th * ydot[THETA_BAR])
            + s.omega_e @ (J.J @ we_dot)
        )
        expected = (
            -gn.k_R * gn.k_theta * g1_th**2
            - gn.k_beta * gn.k_theta * g2_th**2
            - 2.0 * gn.k_beta * (g2 @ (gn.Gamma @ g2))
        )
        assert ldot == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))


def test_velocity_free_dual_jump(paper_params, paper_gains, paper_inertia):
    # both warp angles reset in a single jump event when both gaps are large
    p = paper_params
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    loop = st.make_loop("velocity_free", p, paper_gains, paper_inertia, ref)
    bad = st.undesired_critical_points(p)[0].rotation
    y = st.VelocityFreeLoop.pack(
        Re=bad, theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3),
        Rtilde=bad.copy(), theta_bar=0.0,
    )
    assert loop.jump_margin(0.0, y, None) >= 0.0
    y_post = loop.jump(0.0, y, None)
    assert y_post[THETA] == 0.9 * math.pi
    assert y_post[THETA_BAR] == 0.9 * math.pi


# --- non-hybrid baseline -----------------------------------------------------


def test_non_hybrid_equals_basic_at_zero_warp(paper_params, paper_gains, paper_inertia):
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_basic_state(rng)
        z = rng.standard_normal(3)
        ref = fixed_reference(z)
        s.theta = 0.0
        y = pack("basic", s)
        loops = [st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref)
                 for kind in ("non_hybrid", "basic")]
        a, b = (loop.torque(0.0, y, None) for loop in loops)
        assert np.array_equal(a, b)


def test_non_hybrid_stalls_at_critical_rotation(paper_params, paper_gains, paper_inertia):
    # the gradient term vanishes at the half-turn about e3, so the baseline
    # torque collapses to the feedforward alone
    R = st.angle_axis(math.pi, E3)
    wr = np.array([0.1, 0.2, -0.1])
    z = np.array([0.0, 0.5, 0.1])
    loop = st.make_loop("non_hybrid", paper_params, paper_gains, paper_inertia,
                        fixed_reference(z))
    y = st.BasicLoop.pack(Re=R, theta=0.0, omega_e=np.zeros(3), omega_r=wr)
    tau = loop.torque(0.0, y, None)
    ups = st.feedforward(R, wr, z, paper_inertia)
    assert np.linalg.norm(tau - ups) <= 2.0 * paper_gains.k_R * 1e-12


def test_non_hybrid_loop_never_jumps(paper_params, paper_gains, paper_inertia):
    loop = st.make_loop("non_hybrid", paper_params, paper_gains, paper_inertia, REST)
    y = rest_state(st.undesired_critical_points(paper_params)[0].rotation, 0.0)
    assert loop.jump_margin(0.0, y, None) == -math.inf  # flow set only
    with pytest.raises(SolverError):
        loop.jump(0.0, y, None)
    ydot = loop.flow(0.0, y, None)
    assert ydot[THETA] == 0.0  # warp angle frozen


def test_non_hybrid_loop_runs_without_k_theta(paper_params, paper_inertia):
    # the non-hybrid law has no warp-angle gain: its flow must not read one
    gains = st.Gains(k_R=1.5, k_omega=0.2)
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop("non_hybrid", paper_params, gains, paper_inertia, ref)
    assert loop.check() == []
    y0 = st.BasicLoop.pack(Re=st.angle_axis(1.0, E2), theta=0.3, omega_e=np.zeros(3),
                           omega_r=np.zeros(3))
    arc = st.solve(loop, y0, st.SolverConfig(dt=1e-3, t_max=0.05))
    assert len(arc) == 51 and not arc.jumps
    assert np.all(arc.states[:, THETA] == 0.3)
    assert st.certify_arc(arc, loop).passed


@pytest.mark.parametrize("kind", sorted(st.controllers.LOOP_CLASSES))
def test_each_loop_class_defines_its_own_flow(kind):
    # per-law flow timing looks the method up in the class body
    assert "flow" in st.controllers.LOOP_CLASSES[kind].__dict__


# --- the jump rule -----------------------------------------------------------

# Two reset angles, so that a jump has a choice to make.
TWO_RESETS = [-0.9 * math.pi, 0.9 * math.pi]


def fig4_config(kind, **overrides):
    """fig4 with a single member of one law, plus config overrides."""
    base = st.parse_config_text(st.bundled_scenarios()["fig4"].read_text())
    return st.scenario_from_mapping({**base, "controllers": [kind], **overrides})


def attractor_state(kind):
    """The packed state of a law at its attractor, at rest on a resting frame."""
    base = dict(Re=np.eye(3), theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3))
    if kind == "smooth":
        return st.SmoothLoop.pack(**base, zeta=np.zeros(3))
    if kind == "velocity_free":
        return st.VelocityFreeLoop.pack(**base, Rtilde=np.eye(3), theta_bar=0.0)
    return st.BasicLoop.pack(**base)


@pytest.mark.parametrize("kind", ["basic", "smooth", "velocity_free"])
def test_every_jump_drops_the_monitor_by_jump_drop(kind):
    # the smooth law must reset theta to the least filtered value: resetting
    # to the potential's least value missed k_R delta' on some of these states
    cfg = fig4_config(kind, theta_set=TWO_RESETS)
    loop = st.build_member(cfg, cfg.members[0])[0]
    rng = np.random.default_rng(1)
    jumped = 0
    for _ in range(4000):
        s = random_loop_state(kind, rng)
        if kind == "smooth":
            s.zeta = 5.0 * s.zeta  # as large as the rotation gradient gets: c_psi = 10
        y = tuple(pack(kind, s).tolist())
        if loop.jump_margin(0.0, y, None) < 0.0:
            continue
        jumped += 1
        drop = loop.lyapunov_packed(y) - loop.lyapunov_packed(loop.jump(0.0, y, None))
        assert drop >= loop.jump_drop - 1e-9
    assert jumped > 1000


def test_tumbling_smooth_member_certifies():
    # a tumble_sweep member whose first jump, reset to the potential's least
    # value, dropped the monitor by 0.102 < k_R delta' = 0.243
    cfg = fig4_config(
        "smooth",
        R0_axis=[0.5819519089813335, -0.16672078425554362, 0.7959498449840907],
        R0_angle=3.0030760170524027,
        omega0=[4.233283111055588, -6.764239553534166, -19.15901661598872],
        theta0=0.48052465759335306, theta_set=[-2.827433388230814, 2.827433388230814],
        k_theta=20.02123404924168, noise_var_R=0.0, noise_var_omega=0.0, t_max=0.5, seed=548,
    )
    res = st.simulate_member(cfg, cfg.members[0])
    assert res.arc.jumps
    assert res.report.passed, res.report.failures


@pytest.mark.parametrize("kind", LAWS)
def test_jump_outside_the_jump_set_raises(kind, paper_params, paper_gains, paper_inertia):
    loop = st.make_loop(kind, paper_params, paper_gains, paper_inertia, REST)
    y = attractor_state(kind)
    assert loop.jump_margin(0.0, y, None) < 0.0
    with pytest.raises(SolverError, match="outside the jump set"):
        loop.jump(0.0, y, None)


# --- gains validation --------------------------------------------------------


def check(kind, gains, p, J):
    """The gain advisories of a loop of the given law."""
    return st.make_loop(kind, p, gains, J, REST).check()


def test_gains_validation(paper_params, paper_inertia):
    p, J = paper_params, paper_inertia
    with pytest.raises(ContractError):
        check("basic", st.Gains(k_R=-1.0), p, J)
    with pytest.raises(ContractError):
        check("basic", st.Gains(k_R=1.0, k_theta=1.0), p, J)  # k_omega missing
    with pytest.raises(ContractError):
        check("smooth", st.Gains(k_R=1.0, k_omega=1.0, k_theta=1.0, k_zeta=10.0, rho=0.001),
              p, J)  # delta_prime missing
    with pytest.raises(ContractError):
        check("velocity_free", st.Gains(k_R=1.0, k_omega=1.0, k_theta=1.0, k_beta=1.0,
                                        Gamma=np.diag([1.0, 1.0, -1.0])), p, J)


def test_velocity_free_loop_rejects_off_diagonal_gamma(paper_params, paper_gains, paper_inertia):
    # the filter gain enters the flow as its diagonal, so an off-diagonal entry is refused
    gains = dataclasses.replace(paper_gains, Gamma=30.0 * np.eye(3) + np.diag([1.0, 1.0], 1))
    with pytest.raises(ContractError, match="Gamma must be a diagonal 3x3 matrix"):
        st.make_loop("velocity_free", paper_params, gains, paper_inertia, REST)


def test_gains_warning_for_large_rho(paper_params, paper_gains, paper_inertia):
    notes = check("smooth", paper_gains, paper_params, paper_inertia)
    assert any("rho" in n and "0.00162" in n for n in notes)
    assert any("k_zeta" in n for n in notes)
    # a compliant configuration produces no advisories
    quiet = st.Gains(
        k_R=1.5, k_omega=0.2, k_theta=50.0, k_zeta=8000.0, rho=0.001, delta_prime=0.162
    )
    kz_star = st.filter_gain_bound(quiet, paper_params)
    assert quiet.k_zeta > kz_star
    assert check("smooth", quiet, paper_params, paper_inertia) == []


# --- what each law declares on its loop class ---------------------------------

LOOP_CLASSES = st.controllers.LOOP_CLASSES


def random_fields(cls, rng):
    """A random value of each state field of a loop class: a rotation for 9 entries."""
    out = {}
    for name, at in cls.state_fields:
        n = len(range(cls.WIDTH)[at]) if isinstance(at, slice) else 0
        out[name] = (st.random_rotation(rng) if n == 9 else
                     rng.standard_normal(n) if n else rng.normal())
    return out


@pytest.mark.parametrize("kind", sorted(LOOP_CLASSES))
def test_pack_round_trips_every_declared_field(kind):
    cls = LOOP_CLASSES[kind]
    state = random_fields(cls, np.random.default_rng(40))
    y = cls.pack(**state)
    assert y.shape == (cls.WIDTH,)
    covered = []
    for name, at in cls.state_fields:
        assert np.array_equal(np.ravel(y[at]), np.ravel(state[name])), name
        covered += range(cls.WIDTH)[at] if isinstance(at, slice) else [at]
    assert sorted(covered) == list(range(cls.WIDTH))  # the fields tile the packed state


@pytest.mark.parametrize("kind", sorted(LOOP_CLASSES))
def test_pack_rejects_a_missing_or_unknown_field(kind):
    cls = LOOP_CLASSES[kind]
    state = random_fields(cls, np.random.default_rng(41))
    for name in state:
        with pytest.raises(ContractError, match=rf"missing \['{name}'\]"):
            cls.pack(**{k: v for k, v in state.items() if k != name})
    with pytest.raises(ContractError, match=r"unknown \['bogus'\]"):
        cls.pack(**state, bogus=0.0)


def gain_message(gain, bad):
    """The message for a gain a law reads that is missing (None) or not positive."""
    if gain == "delta_prime":
        return "delta_prime must lie in (0, delta)"
    if gain == "Gamma":
        return "Gamma matrix is required" if bad is None else "Gamma must be positive definite"
    return f"{gain} must be positive"


# The gains each law of the package reads, as `Gains.check_for` checked them.
READS = {
    "basic": {"k_R", "k_theta", "k_omega"},
    "smooth": {"k_R", "k_theta", "k_omega", "k_zeta", "rho", "delta_prime"},
    "velocity_free": {"k_R", "k_theta", "k_beta", "Gamma"},
    "non_hybrid": {"k_R", "k_omega"},
}


@pytest.mark.parametrize("kind", sorted(LOOP_CLASSES))
def test_each_missing_or_non_positive_gain_keeps_its_message(kind, paper_params, paper_gains,
                                                             paper_inertia):
    raised = set()
    for field in dataclasses.fields(st.Gains):
        gain = field.name
        bads = (None, 0.0 * np.eye(3), -np.eye(3)) if gain == "Gamma" else (None, 0.0, -1.0)
        for bad in bads:
            gains = dataclasses.replace(paper_gains, **{gain: bad})
            loop = st.make_loop(kind, paper_params, gains, paper_inertia, REST)
            try:
                loop.check()
            except ContractError as e:
                assert str(e) == gain_message(gain, bad), (gain, bad)
                raised.add(gain)
    assert set(LOOP_CLASSES[kind].gain_names) <= raised
    assert raised == READS.get(kind, raised)


@pytest.mark.parametrize("scenario, rates", [
    ("fig3", {"0_basic": 515.198, "1_basic": 525.330, "2_basic": 535.462,
              "3_non_hybrid": 13.333}),
    ("fig4", {"0_basic": 535.462, "1_smooth": 535.462, "2_velocity_free": 535.462}),
])
def test_fastest_decay_rate_of_each_bundled_member(scenario, rates):
    cfg = st.load_scenario(scenario)
    for member in cfg.members:
        rate, source = max(st.build_member(cfg, member)[0].decay_rates())
        assert rate == pytest.approx(rates[member.label], abs=5e-4), member.label
        assert source == ("k_omega / lambda_min(J)" if member.controller == "non_hybrid"
                          else "k_theta times the warp-angle curvature bound")
