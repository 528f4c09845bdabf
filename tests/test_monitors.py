import dataclasses
import math

import numpy as np
import pytest

import so3track as st
from so3track.errors import ContractError
from so3track.so3 import ARRAY_MATH


def loops(p, gn, J):
    """The basic, smooth and velocity-free loops, whose monitors the tests evaluate."""
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    return [st.make_loop(kind, p, gn, J, ref, check=False)
            for kind in ("basic", "smooth", "velocity_free")]


def test_lyapunov_values_at_attractors(paper_params, paper_gains, paper_inertia):
    basic_loop, smooth_loop, vf_loop = loops(paper_params, paper_gains, paper_inertia)
    basic = st.BasicLoopState(
        Re=np.eye(3), theta=0.0, omega_e=np.zeros(3), Rr=np.eye(3), omega_r=np.zeros(3)
    )
    assert basic_loop.lyapunov_packed(basic.pack()) == 0.0
    smooth = st.SmoothLoopState(**basic.__dict__, zeta=np.zeros(3))
    assert smooth_loop.lyapunov_packed(smooth.pack()) == 0.0
    vf = st.VelocityFreeLoopState(**basic.__dict__, Rtilde=np.eye(3), theta_bar=0.0)
    assert vf_loop.lyapunov_packed(vf.pack()) == 0.0
    assert st.lyapunov_cross(basic_loop, basic.pack(), eps=0.5) == 0.0


def test_lyapunov_reductions(paper_params, paper_gains, paper_inertia):
    p, gn = paper_params, paper_gains
    basic_loop, smooth_loop, vf_loop = loops(p, gn, paper_inertia)
    rng = np.random.default_rng(0)
    base = st.BasicLoopState(
        Re=st.random_rotation(rng),
        theta=0.7,
        omega_e=np.zeros(3),
        Rr=np.eye(3),
        omega_r=np.zeros(3),
    )
    # no velocity error: the basic monitor is k_R U
    assert basic_loop.lyapunov_packed(base.pack()) == pytest.approx(
        gn.k_R * st.value(base.Re, base.theta, p), abs=1e-14
    )
    # filter state equal to the gradient: smooth monitor reduces to the basic one
    base.omega_e = rng.standard_normal(3)
    plain = basic_loop.lyapunov_packed(base.pack())
    g = st.grad_rotation(base.Re, base.theta, p)
    smooth = st.SmoothLoopState(**base.__dict__, zeta=g)
    assert smooth_loop.lyapunov_packed(smooth.pack()) == plain
    # auxiliary rotation at its target: only the k_R and kinetic terms remain
    vf = st.VelocityFreeLoopState(**base.__dict__, Rtilde=np.eye(3), theta_bar=0.0)
    assert vf_loop.lyapunov_packed(vf.pack()) == plain
    # zero cross weight recovers the plain monitor
    assert st.lyapunov_cross(basic_loop, base.pack(), eps=0.0) == plain


def test_jump_drop_per_law(paper_params, paper_gains, paper_inertia):
    # the designed monitor drop at a jump: k_R delta, k_R delta', min(k_R, k_beta) delta, 0
    p, gn = paper_params, paper_gains
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    drops = {kind: st.make_loop(kind, p, gn, paper_inertia, ref, check=False).jump_drop
             for kind in ("basic", "smooth", "velocity_free", "non_hybrid")}
    assert drops == {
        "basic": gn.k_R * p.delta,
        "smooth": gn.k_R * gn.delta_prime,
        "velocity_free": min(gn.k_R, gn.k_beta) * p.delta,
        "non_hybrid": 0.0,
    }


def test_lyapunov_positive_away_from_attractor(paper_params, paper_gains, paper_inertia):
    p, gn, J = paper_params, paper_gains, paper_inertia
    rng = np.random.default_rng(1)
    n = 100_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    we = rng.standard_normal((n, 3))
    U = st.potential.value_f(st.potential.moment(R, p), theta, p, ARRAY_MATH)
    kin = 0.5 * np.einsum("ni,ij,nj->n", we, J.J, we)
    lyap = gn.k_R * U + kin
    dist = np.sqrt(np.clip((3.0 - np.einsum("nii->n", R)) / 4.0, 0.0, None))
    away = (dist > 1e-3) | (np.abs(theta) > 1e-3) | (np.linalg.norm(we, axis=1) > 1e-3)
    assert lyap[away].min() > 0.0


def test_cross_eps_bound_value(paper_params, paper_gains, paper_inertia):
    # (1 / lam_max) * sqrt(2 k_R lam_min / alpha1) with alpha1 = 175/3
    expect = (1.0 / 0.0297) * math.sqrt(2.0 * 1.5 * 0.0150 / (175.0 / 3.0))
    got = st.cross_eps_bound(paper_params, paper_gains, paper_inertia)
    assert got == pytest.approx(expect, abs=1e-12)


def test_cross_monitor_positive_below_bound(fig3_runs, paper_gains, paper_inertia):
    member, loop, arc, _, _ = fig3_runs["2_basic"]
    p = loop.params
    eps = 0.9 * st.cross_eps_bound(p, paper_gains, paper_inertia)
    floor_hit = 0
    for k in range(0, len(arc), 50):
        y = arc.states[k]
        val = st.lyapunov_cross(loop, y, eps)
        sq = st.value(y[0:9].reshape(3, 3), y[9], p) + y[10:13] @ y[10:13]
        if sq > 1e-12:
            assert val > 0.0
        else:
            floor_hit += 1
            assert val > -1e-12
    assert floor_hit > 0  # the run does converge to the numerical floor


def test_exponential_fit_recovers_rate():
    t = np.linspace(0.0, 10.0, 2001)
    vals = 3.0 * np.exp(-1.7 * t)
    slope, r2, n = st.exponential_fit(t, vals, floor=1e-300)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert n == 2001
    assert st.exponential_fit(t[:5], vals[:5]) is None


def test_certify_passes_on_short_basic_run(fig3_cfg):
    cfg = dataclasses.replace(fig3_cfg, t_max=2.0)
    res = st.simulate_member(cfg, cfg.members[2])
    rep = res.report
    assert rep.passed
    assert rep.n_jumps == 1
    assert rep.n_jumps <= rep.jump_bound
    assert rep.max_flow_increase <= 1e-7
    assert rep.min_jump_drop >= 1.5 * res.loop.params.delta - 1e-9
    text = rep.as_text()
    assert "status=PASS" in text and "min_jump_drop" in text


def test_certify_flags_wrong_sign_gain(paper_params, paper_inertia):
    # destabilizing velocity gain: the monitor must increase along flows
    bad = st.Gains(k_R=1.5, k_omega=-0.2, k_theta=50.0)
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop("basic", paper_params, bad, paper_inertia, ref, check=False)
    y0 = st.BasicLoopState(
        Re=st.angle_axis(1.0, np.array([0.0, 1.0, 0.0])),
        theta=0.0,
        omega_e=np.array([0.2, -0.1, 0.1]),
        Rr=np.eye(3),
        omega_r=np.zeros(3),
    ).pack()
    arc = st.solve(loop, y0, st.SolverConfig(dt=1e-3, t_max=1.0, j_max=10))
    rep = st.certify_arc(arc, loop)
    assert not rep.passed
    assert rep.max_flow_increase > 1e-7
    assert any("increased" in f for f in rep.failures)
    assert "status=FAIL" in rep.as_text()


def test_certify_rejects_mismatched_monitor(fig3_cfg, paper_gains):
    cfg = dataclasses.replace(fig3_cfg, t_max=0.2)
    res = st.simulate_member(cfg, cfg.members[2])
    loop = res.loop
    smooth = st.make_loop("smooth", loop.params, paper_gains, loop.inertia, loop.reference,
                          check=False)
    with pytest.raises(ContractError, match="mismatch"):
        st.certify_arc(res.arc, smooth)


def test_certify_smooth_reports_torque_continuity(fig4_cfg):
    cfg = dataclasses.replace(fig4_cfg, t_max=1.0)
    member = next(m for m in cfg.members if m.controller == "smooth")
    res = st.simulate_member(cfg, member)
    assert res.report.max_torque_jump == 0.0
    assert res.report.torque_continuity_ok


def test_certify_fails_an_arc_stopped_at_j_max(fig3_cfg):
    # room for a single jump: the basic member stops at the limit on its first reset
    cfg = dataclasses.replace(fig3_cfg, t_max=2.0, j_max=1)
    res = st.simulate_member(cfg, cfg.members[2])
    assert res.arc.status == "j_max"
    rep = res.report
    assert not rep.passed
    assert rep.jump_count_ok and rep.jump_drops_ok
    assert [f for f in rep.failures if "jump limit" in f] == rep.failures
    assert "status=FAIL" in rep.as_text()


@pytest.mark.parametrize("dt", (5e-4, 1e-3, 2e-3))
def test_certify_flow_tol_follows_the_step(fig3_cfg, dt):
    # RK4's per-step error scales as dt^4: 1e-7 at dt = 1e-3
    cfg = dataclasses.replace(fig3_cfg, dt=dt, t_max=0.02)
    res = st.simulate_member(cfg, cfg.members[0])
    assert res.report.flow_tol_per_step == pytest.approx(1e-7 * (dt / 1e-3) ** 4, rel=1e-12)
    if dt == 1e-3:
        assert res.report.flow_tol_per_step == 1e-7
    explicit = st.certify_arc(res.arc, res.loop, flow_tol=3e-6)
    assert explicit.flow_tol_per_step == 3e-6
