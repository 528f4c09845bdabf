import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import so3track as st
from so3track.controllers import _view, filtered_value_w_f, torque_f
from so3track.errors import ContractError, SolverError
from so3track.potential import moment, warp_rotation_f
from so3track.rigid_body import coupling_times_f, shared_terms_f
from so3track.so3 import exp_so3_f, floats
from laws import attractor, filtered_gap
from paths import LAWS, fields, fig4_member, measurement
from torque_trace import torque_inputs

E1, E2, E3 = np.eye(3)
REST = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
# Offsets in the packed state, as the loop classes declare them.
THETA, OMEGA_E = st.BasicLoop.THETA, st.BasicLoop.OMEGA_E
ZETA = st.SmoothLoop.ZETA
R_TILDE, THETA_BAR = st.VelocityFreeLoop.R_TILDE, st.VelocityFreeLoop.THETA_BAR


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
    # theta, so {a, -a} ties exactly, and so does the smooth law's filtered
    # value at zeta = 0; at theta = 0 the state is in the jump set.  The
    # velocity-free law meets the tie at its auxiliary rotation, with its
    # error rotation at rest in the flow set, so only theta_bar resets
    R = np.diag([1.0, -1.0, -1.0])
    rest = dict(theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3))
    cases = [  # (law, the warp angle that ties, its index in the packed state, state)
        ("basic", 0, THETA, st.BasicLoop.pack(Re=R, **rest)),
        ("smooth", 0, THETA, st.SmoothLoop.pack(Re=R, **rest, zeta=np.zeros(3))),
        ("velocity_free", 1, THETA_BAR,
         st.VelocityFreeLoop.pack(Re=np.eye(3), **rest, Rtilde=R, theta_bar=0.0)),
    ]
    quiet = (*floats(np.eye(3)), 0.0, 0.0, 0.0)
    for theta_set in ([0.9 * math.pi, -0.9 * math.pi], [-0.9 * math.pi, 0.9 * math.pi]):
        p = st.design_params([2.0, 4.0, 6.0], theta_set, gamma_frac=0.5, delta_frac=0.5)
        a, b = p.theta_set
        assert st.value(R, a, p) == st.value(R, b, p)
        assert st.gap(R, 0.0, p) >= p.delta
        assert warp_reset(R, 0.0, p, paper_gains, paper_inertia) == a
        for kind, w, i, y in cases:
            loop = st.make_loop(kind, p, paper_gains, paper_inertia, REST)
            y = tuple(y.tolist())
            for meas in (None, quiet):
                _, resets = loop._values(y, _view(meas))[w]
                assert resets[0] == resets[1]
                assert loop.jump_margin(0.0, y, meas) >= 0.0
                post = loop.jump(0.0, y, meas)
                assert post[i] == a
                assert post[:i] + post[i + 1:] == y[:i] + y[i + 1:]


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


def random_loop_state(kind, rng):
    """The fields of a random state of the law; the baseline's warp angle stays at zero."""
    return SimpleNamespace(**fields(kind, rng, **({"theta": 0.0} if kind == "non_hybrid" else {})))


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


def measured(s, meas):
    """(E, R_m, omega_e,m): noise rotation, measured error rotation and velocity error."""
    if meas is None:
        return np.eye(3), s.Re, s.omega_e
    E = np.reshape(meas[:9], (3, 3))
    Rm = s.Re @ E
    return E, Rm, s.omega_e + np.array(meas[9:]) + s.Re.T @ s.omega_r - Rm.T @ s.omega_r


def public_torque(kind, s, z, meas, p, gn, J):
    """The torque law evaluated at the measured state from the 3x3 gradient and feedforward."""
    E, Rm, wem = measured(s, meas)
    ups = st.feedforward(Rm, s.omega_r, z, J)
    if kind == "velocity_free":
        g2 = st.grad_rotation(s.Rtilde @ E, s.theta_bar, p)
        return np.array(torque_f(ups, 2.0 * gn.k_R, st.grad_rotation(Rm, s.theta, p),
                                 2.0 * gn.k_beta, g2))
    # the smooth law feeds back its filter state; non_hybrid states have theta = 0
    g = s.zeta if kind == "smooth" else st.grad_rotation(Rm, s.theta, p)
    return np.array(torque_f(ups, 2.0 * gn.k_R, g, gn.k_omega, wem))


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
        beta = E @ (np.diag(gn.Gamma_diag) @ st.grad_rotation(Rtm, s.theta_bar, p))
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
    a, Ja = shared_terms_f(floats(s.Re), floats(s.omega_r), J.J_diag)
    sig = np.array(coupling_times_f(floats(s.omega_e), a, Ja, J.J_diag))
    ups = st.feedforward(s.Re, s.omega_r, z, J)
    return np.diag(J.J_diag) @ ydot[OMEGA_E] - sig + ups


@pytest.mark.parametrize("kind", LAWS)
def test_exact_flow_cancels_the_feedforward(kind, paper_params, paper_gains, paper_inertia):
    # with exact measurements the applied feedforward cancels the -Upsilon of
    # the error dynamics, so the velocity-error rates do not read z at all:
    # two references that differ only in z give the same bits
    loops = [st.make_loop(kind, paper_params, paper_gains, paper_inertia,
                          st.make_reference(name, m_bound=2.0, omega_r_bound=25.0))
             for name in ("paper_sine", "rest")]
    rng = np.random.default_rng(14)
    for _ in range(40):
        y = tuple(pack(kind, random_loop_state(kind, rng)).tolist())
        t = rng.uniform(0.0, 10.0)
        sine, rest = (loop.flow(t, y, None) for loop in loops)
        assert sine[OMEGA_E] == rest[OMEGA_E]
        assert sine[OMEGA_E.stop:OMEGA_E.stop + 3] != rest[OMEGA_E.stop:OMEGA_E.stop + 3]


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
        meas = measurement(rng)
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


def numpy_exp_so3(w):
    """exp(skew(w)) from 3x3 numpy products (the Rodrigues form without the float kernel)."""
    t = math.sqrt(w @ w)
    W = st.skew(w)
    return np.eye(3) + (math.sin(t) / t) * W + ((1.0 - math.cos(t)) / (t * t)) * (W @ W)


@pytest.mark.parametrize("sigmas", ((0.1, 0.2), (0.1, 0.0), (0.0, 0.2)))
def test_sample_measurement_replays_numpy_draw(sigmas, paper_params, paper_gains,
                                               paper_inertia):
    # each measurement row holds the values of a rng.normal(0, sigma, 3) call
    # per noisy channel and step, in that order, so noisy runs replay; a
    # block of rows leaves the generator as its calls would
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(*sigmas)
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, ref, noise)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    blocks = loop.measurements(rng)
    first = next(blocks)
    after_first = rng.bit_generator.state
    rows = [*first.tolist(), *next(blocks).tolist()]
    assert first.shape == (st.controllers.NOISE_BLOCK, 12)
    for k, m in enumerate(rows[:st.controllers.NOISE_BLOCK + 20]):
        E = twin.normal(0.0, sigmas[0], 3) if sigmas[0] > 0.0 else None
        n = twin.normal(0.0, sigmas[1], 3) if sigmas[1] > 0.0 else np.zeros(3)
        assert len(m) == 12
        if E is None:
            assert tuple(m[:9]) == tuple(floats(np.eye(3)))
        else:
            assert tuple(m[:9]) == exp_so3_f(*E.tolist())
            assert np.abs(np.reshape(m[:9], (3, 3)) - numpy_exp_so3(E)).max() <= 1e-15
        assert np.array_equal(m[9:], n)
        if k == st.controllers.NOISE_BLOCK - 1:
            assert twin.bit_generator.state == after_first
    assert st.make_loop("basic", paper_params, paper_gains, paper_inertia,
                        ref).measurements(rng) is None


def smooth_state(R, theta, zeta):
    """Smooth-loop state at rest on a resting reference."""
    return st.SmoothLoop.pack(Re=R, theta=theta, omega_e=np.zeros(3), omega_r=np.zeros(3),
                              zeta=zeta)


def test_smooth_torque_ignores_warp_jumps(paper_params, paper_gains, paper_inertia):
    p, gn, J = paper_params, paper_gains, paper_inertia
    rng = np.random.default_rng(7)
    base = random_loop_state("basic", rng)
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
    beta = np.diag(paper_gains.Gamma_diag) @ st.grad_rotation(np.eye(3), 0.0, paper_params)
    assert np.array_equal(beta, np.zeros(3))


def test_velocity_free_gain_relation(paper_gains):
    # the study picks k_beta so that 2 k_beta Gamma^-1 equals k_omega
    rel = 2.0 * paper_gains.k_beta * np.linalg.inv(np.diag(paper_gains.Gamma_diag))
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
        s = random_loop_state("basic", rng)
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


# --- the jump rule -----------------------------------------------------------

# Two reset angles, so that a jump has a choice to make.
TWO_RESETS = [-0.9 * math.pi, 0.9 * math.pi]


@pytest.mark.parametrize("kind, field", [
    ("basic", "theta"), ("basic", "Re"), ("smooth", "theta"), ("smooth", "zeta"),
    ("velocity_free", "theta"), ("velocity_free", "Re"),
    ("velocity_free", "theta_bar"), ("velocity_free", "Rtilde"),
])
def test_a_nan_gap_makes_the_margin_nan(kind, field):
    # a NaN gap of either warp angle puts the state in neither set: the margin
    # is NaN and the jump map refuses it.  At the velocity-free member's y0,
    # where theta's gap reaches delta, a NaN theta_bar or Rtilde used to give
    # the margin 0.743 and a jump that kept theta_bar NaN
    cfg = fig4_member(kind)
    loop, y = st.build_member(cfg, cfg.members[0])  # in the jump set
    y = y.tolist()
    y[{"theta": THETA, "theta_bar": THETA_BAR, "Re": 0, "Rtilde": R_TILDE.start,
       "zeta": ZETA.start}[field]] = math.nan
    y = tuple(y)
    noisy = (*exp_so3_f(0.01, -0.02, 0.03), 0.1, 0.0, -0.1)
    for meas in (None, noisy):
        assert math.isnan(loop.jump_margin(0.0, y, meas))
        with pytest.raises(SolverError, match="outside the jump set"):
            loop.jump(0.0, y, meas)


NAN = math.nan


@pytest.mark.parametrize("values, margin, theta, theta_bar", [
    # theta's least reset value skips a NaN and ties to the first angle
    (((10.0, (NAN, 3.0, 3.0)), (0.0, (1.0, 1.0, 1.0))), 7.0, 1, None),
    # so does theta_bar's
    (((0.0, (1.0, 2.0, 3.0)), (10.0, (NAN, 2.0, 2.0))), 8.0, None, 1),
    # a value of neither warp angle reaches the threshold without a reset value
    (((10.0, (NAN, NAN, NAN)), (0.0, (1.0, 1.0, 1.0))), -1.0, None, None),
    # a NaN gap of either warp angle makes the margin NaN
    (((10.0, (1.0, 2.0, 3.0)), (NAN, (1.0, 1.0, 1.0))), NAN, None, None),
    (((NAN, (1.0, 2.0, 3.0)), (10.0, (1.0, 1.0, 1.0))), NAN, None, None),
    (((10.0, (1.0, 2.0, 3.0)), (10.0, (NAN, NAN, 1.0))), 9.0, 0, 2),
], ids=["theta_skips_nan_first_of_ties", "theta_bar_skips_nan_first_of_ties",
        "no_reset_value", "nan_theta_bar_gap", "nan_theta_gap", "both_reset"])
def test_the_picks_on_given_values(values, margin, theta, theta_bar, paper_gains,
                                   paper_inertia):
    # jump_margin and jump on the values of each warp angle and of its reset
    # angles: the least reset value is the first that is below every earlier
    # one, and the margin is the largest gap, NaN if any gap is.  `min()`,
    # or `<=` in place of `<`, fails here
    p = st.design_params([2.0, 4.0, 6.0], [-0.9 * math.pi, 0.7 * math.pi, 0.9 * math.pi],
                         gamma_frac=0.5, delta_frac=0.5)
    loop = st.make_loop("velocity_free", p, paper_gains, paper_inertia, REST)
    loop._margins[True] = lambda y, meas: values
    y = attractor("velocity_free")
    got = loop.jump_margin(0.0, y, None)
    if margin != margin:
        assert math.isnan(got)
    else:
        assert got == margin - p.delta
    if theta is None and theta_bar is None:
        with pytest.raises(SolverError, match="outside the jump set"):
            loop.jump(0.0, y, None)
        return
    post = loop.jump(0.0, y, None)
    assert post[THETA] == (0.0 if theta is None else p.theta_set[theta])
    assert post[THETA_BAR] == (0.0 if theta_bar is None else p.theta_set[theta_bar])


@pytest.mark.parametrize("kind", ["basic", "smooth", "velocity_free"])
def test_every_jump_drops_the_monitor_by_jump_drop(kind):
    # the smooth law must reset theta to the least filtered value: resetting
    # to the potential's least value missed k_R delta' on some of these states
    cfg = fig4_member(kind, theta_set=TWO_RESETS)
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
    cfg = fig4_member(
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
    y = attractor(kind)
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
                                        Gamma_diag=[1.0, 1.0, -1.0]), p, J)


def test_velocity_free_loop_rejects_off_diagonal_gamma(paper_gains):
    # the filter gain is held as its 3 diagonal entries: a matrix, even a diagonal one, 2
    # entries or a NaN entry is refused when the gains are built
    for bad in (30.0 * np.eye(3) + np.diag([1.0, 1.0], 1), 30.0 * np.eye(3), [30.0, 30.0],
                [30.0, math.nan, 30.0]):
        with pytest.raises(ContractError, match="Gamma_diag must be 3 finite numbers"):
            dataclasses.replace(paper_gains, Gamma_diag=bad)


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
    with pytest.raises(ContractError, match="field 'Re' of a .* loop state has 9 entries, got 4"):
        cls.pack(**{**state, "Re": np.eye(2)})


def gain_message(gain, bad):
    """The message for a gain a law reads that is missing (None) or not positive."""
    if gain == "delta_prime":
        return "delta_prime must lie in (0, delta)"
    if gain == "Gamma_diag":
        return "Gamma matrix is required" if bad is None else "Gamma must be positive definite"
    return f"{gain} must be positive"


# The gains each law of the package reads, as `Gains.check_for` checked them.
READS = {
    "basic": {"k_R", "k_theta", "k_omega"},
    "smooth": {"k_R", "k_theta", "k_omega", "k_zeta", "rho", "delta_prime"},
    "velocity_free": {"k_R", "k_theta", "k_beta", "Gamma_diag"},
    "non_hybrid": {"k_R", "k_omega"},
}


@pytest.mark.parametrize("kind", sorted(LOOP_CLASSES))
def test_each_missing_or_non_positive_gain_keeps_its_message(kind, paper_params, paper_gains,
                                                             paper_inertia):
    # a Gamma that is not 3 entries is refused when the gains are built, before a law reads it
    with pytest.raises(ContractError) as e:
        dataclasses.replace(paper_gains, Gamma_diag=0.0 * np.eye(3))
    assert str(e.value).startswith("Gamma_diag must be 3 finite numbers")
    raised = set()
    for field in dataclasses.fields(st.Gains):
        gain = field.name
        bads = (None, [0.0] * 3, [-1.0] * 3) if gain == "Gamma_diag" else (None, 0.0, -1.0)
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
              "3_non_hybrid": 30.715}),
    ("fig4", {"0_basic": 535.462, "1_smooth": 535.462, "2_velocity_free": 535.462}),
])
def test_fastest_decay_rate_of_each_bundled_member(scenario, rates):
    # the baseline's fastest mode is its attitude oscillation, sqrt(2 k_R
    # a_bar_i / J_i), not its velocity damping k_omega / lambda_min(J) = 13.3
    cfg = st.load_scenario(scenario)
    for member in cfg.members:
        rate, source = max(st.build_member(cfg, member)[0].decay_rates())
        assert rate == pytest.approx(rates[member.label], abs=5e-4), member.label
        assert source == ("sqrt(2 k_R a_bar_i / J_i), the attitude oscillation"
                          if member.controller == "non_hybrid"
                          else "k_theta times the warp-angle curvature bound")


def test_the_baseline_step_limit_counts_its_attitude_oscillation():
    # the non-hybrid fig3 member alone: with only its velocity damping listed,
    # validate passed dt up to 0.2, where the run leaves SO(3); the attitude
    # mode's limit is 2.785 / 30.7 = 0.0907 s
    base = st.parse_config_text(st.bundled_scenarios()["fig3"].read_text())

    def baseline(dt):
        return st.scenario_from_mapping({**base, "controllers": ["non_hybrid"],
                                         "gammas": [0.7092482854963644], "dt": dt})

    for dt in (0.1, 0.2):
        (note,) = st.validate_scenario(baseline(dt))
        assert "RK4 stability limit 0.0907" in note and "attitude oscillation" in note
    cfg = baseline(0.08)
    assert st.validate_scenario(cfg) == []
    assert st.simulate_member(cfg, cfg.members[0]).report.passed
