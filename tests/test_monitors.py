import dataclasses
import math

import numpy as np
import pytest

import so3track as st
from so3track.errors import ContractError
from so3track.monitors import jump_count_bound


def test_lyapunov_values_at_attractors(paper_params, paper_gains, paper_inertia):
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    basic_loop, smooth_loop, vf_loop = (
        st.make_loop(kind, paper_params, paper_gains, paper_inertia, ref)
        for kind in ("basic", "smooth", "velocity_free"))
    basic = dict(Re=np.eye(3), theta=0.0, omega_e=np.zeros(3), omega_r=np.zeros(3))
    assert basic_loop.lyapunov_packed(st.BasicLoop.pack(**basic)) == 0.0
    smooth = st.SmoothLoop.pack(**basic, zeta=np.zeros(3))
    assert smooth_loop.lyapunov_packed(smooth) == 0.0
    vf = st.VelocityFreeLoop.pack(**basic, Rtilde=np.eye(3), theta_bar=0.0)
    assert vf_loop.lyapunov_packed(vf) == 0.0


def test_exponential_fit_recovers_rate():
    t = np.linspace(0.0, 10.0, 2001)
    vals = 3.0 * np.exp(-1.7 * t)
    slope, r2, n = st.exponential_fit(t, vals, floor=1e-300)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert n == 2001
    assert st.exponential_fit(t[:5], vals[:5]) is None


def test_jump_count_bound():
    assert jump_count_bound(10.0, 0.486) == math.ceil(10.0 / 0.486) == 21
    assert jump_count_bound(0.1, 0.486) == jump_count_bound(0.0, 0.486) == 1  # at least 1
    assert jump_count_bound(3.0, 0.0) == 0  # no designed drop: no jump
    for v0, drop in ((math.inf, 0.486), (1.0, 5e-324), (math.inf, 0.0), (math.nan, 0.486)):
        with pytest.raises(ContractError, match=r"V\(0\) / jump_drop = .* is not finite"):
            jump_count_bound(v0, drop)


# theta0 = 1e300 overflows the potential's 0.5 gamma theta^2 to inf when the
# arc is recorded, and numpy warns of it; the warning is the expected path here.
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_certify_rejects_an_infinite_initial_monitor(paper_params, paper_gains, paper_inertia):
    # `build_member` refuses this state, so the fig4 basic loop is built unchecked;
    # `certify_arc` itself once overflowed in ceil(V(0) / jump_drop)
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, ref)
    y0 = loop.pack(Re=st.angle_axis(math.pi - 1e-9, np.array([0.0, 0.0, 1.0])), theta=1e300,
                   omega_e=np.zeros(3), omega_r=np.zeros(3))
    arc = st.solve(loop, y0, st.SolverConfig(t_max=0.01))
    with pytest.raises(ContractError, match=r"V\(0\) / jump_drop = inf / 0.486 is not finite"):
        st.certify_arc(arc, loop)


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
    loop = st.make_loop("basic", paper_params, bad, paper_inertia, ref)
    y0 = st.BasicLoop.pack(
        Re=st.angle_axis(1.0, np.array([0.0, 1.0, 0.0])),
        theta=0.0,
        omega_e=np.array([0.2, -0.1, 0.1]),
        omega_r=np.zeros(3),
    )
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
    smooth = st.make_loop("smooth", loop.params, paper_gains, loop.inertia, loop.reference)
    with pytest.raises(ContractError, match="mismatch"):
        st.certify_arc(res.arc, smooth)


def test_certify_smooth_reports_torque_continuity(fig4_cfg):
    cfg = dataclasses.replace(fig4_cfg, t_max=1.0)
    member = next(m for m in cfg.members if m.controller == "smooth")
    res = st.simulate_member(cfg, member)
    assert res.report.max_torque_jump == 0.0
    assert res.report.torque_continuity_ok


def test_certify_fails_a_jumping_baseline_once(fig3_cfg):
    # the baseline's jump_drop of 0 gives it a jump-count bound of 0, so a
    # jump fails that bound, and no second check reports the same jump
    cfg = dataclasses.replace(fig3_cfg, t_max=0.2)
    res = st.simulate_member(cfg, cfg.members[0])  # basic, next to a half turn: it jumps
    assert res.arc.jumps
    loop = res.loop
    baseline = st.make_loop("non_hybrid", loop.params, loop.gains, loop.inertia, loop.reference)
    rep = st.certify_arc(dataclasses.replace(res.arc, controller="non_hybrid"), baseline)
    assert rep.failures == [f"jump count {len(res.arc.jumps)} exceeds the bound 0"]
    assert rep.torque_continuity_ok is None and res.report.torque_continuity_ok is None


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
