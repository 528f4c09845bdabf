"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
heavy simulation runs are shared through session fixtures in conftest.py.
"""

import functools
import math
import time

import numpy as np
import pytest

import so3track as st
from torque_trace import torque_inputs

PI2 = math.pi**2


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({name}): PASS")

        return wrapper

    return deco


def time_below(arc, column, threshold):
    """First sample time with column value under the threshold, else inf."""
    vals = arc.column(column)
    idx = np.flatnonzero(vals < threshold)
    return float(arc.t[idx[0]]) if idx.size else math.inf


def omega_norms(arc):
    return np.sqrt(arc.column("we_x") ** 2 + arc.column("we_y") ** 2 + arc.column("we_z") ** 2)


@criterion(1, "gradient certification")
def test_c1_gradient_certification(paper_params):
    p = paper_params
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    h = 1e-5
    for _ in range(100):
        R = st.random_rotation(rng)
        theta = rng.uniform(-math.pi, math.pi)
        g_rot, g_th = st.gradients(R, theta, p)
        fd_rot = np.empty(3)
        for k in range(3):
            w = np.zeros(3)
            w[k] = 1.0
            up = st.value(R @ st.exp_so3(h * w), theta, p)
            dn = st.value(R @ st.exp_so3(-h * w), theta, p)
            fd_rot[k] = (up - dn) / (4.0 * h)
        fd_th = (st.value(R, theta + h, p) - st.value(R, theta - h, p)) / (2.0 * h)
        assert np.linalg.norm(fd_rot - g_rot) <= max(1e-9, 1e-6 * np.linalg.norm(g_rot))
        assert abs(fd_th - g_th) <= max(1e-9, 1e-6 * abs(g_th))
        omega = rng.standard_normal(3)
        v = rng.standard_normal()
        rate = st.grad_rotation_rate(R, theta, omega, v, p)
        gp = st.grad_rotation(R @ st.exp_so3(h * omega), theta + h * v, p)
        gm = st.grad_rotation(R @ st.exp_so3(-h * omega), theta - h * v, p)
        fd_rate = (gp - gm) / (2.0 * h)
        assert np.linalg.norm(fd_rate - rate) <= max(1e-9, 1e-6 * np.linalg.norm(rate))
    assert time.perf_counter() - start < 1.0


@criterion(2, "critical point certification")
def test_c2_critical_points(paper_params):
    p = paper_params
    g_rot, g_th = st.gradients(np.eye(3), 0.0, p)
    assert np.linalg.norm(g_rot) <= 1e-10 and abs(g_th) <= 1e-10
    pts = st.undesired_critical_points(p)
    assert len(pts) == 3
    for cp, axis in zip(pts, np.eye(3)):
        assert np.allclose(cp.rotation, st.angle_axis(math.pi, axis), atol=1e-12)
        g_rot, g_th = st.gradients(cp.rotation, cp.theta, p)
        assert np.linalg.norm(g_rot) <= 1e-10
        assert abs(g_th) <= 1e-10
        assert st.gap(cp.rotation, cp.theta, p) > 0.324


@criterion(3, "parameter constructor cases")
def test_c3_constructor(paper_params):
    # case 2 exactly as in the simulation study
    p = paper_params
    assert p.spectral.case_id == 2
    u_expected = np.array([0.0, math.sqrt(2.0 / 5.0), math.sqrt(3.0 / 5.0)])
    assert np.linalg.norm(p.u - u_expected) <= 1e-12
    assert abs(p.spectral.delta_star - 2.0) <= 1e-12

    def check(A_diag):
        q = st.design_params(A_diag, [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
        sp = q.spectral
        assert abs(float(sp.alphas @ sp.alphas) - 1.0) <= 1e-12
        # oracle: enumerate the gap coefficient over the eigenvector family
        vals = [st.warp_gap(q.u, sp.eigenvectors[:, i], q.A_diag) for i in range(3)]
        if sp.case_id == 1:
            for phi in np.linspace(0.0, 2.0 * math.pi, 1441):
                v = math.cos(phi) * sp.eigenvectors[:, 0] + math.sin(phi) * sp.eigenvectors[:, 1]
                vals.append(st.warp_gap(q.u, v, q.A_diag))
        assert abs(min(vals) - sp.delta_star) <= 1e-10
        return sp.case_id

    assert check([3.0, 3.0, 6.0]) == 1
    assert check([1.0, 1.2, 3.0]) == 3


@criterion(4, "monitor flow and jump certification")
def test_c4_lyapunov_certification(fig3_runs):
    member, loop, arc, report, wall = fig3_runs["2_basic"]
    assert member.gamma == pytest.approx(7.0 / PI2, abs=1e-12)
    assert wall < 10.0
    assert report.max_flow_increase < 1e-7
    assert report.n_jumps == 1
    assert report.min_jump_drop >= 0.486 - 1e-9
    assert report.n_jumps <= report.jump_bound
    assert report.passed


@criterion(5, "convergence trend reproduction")
def test_c5_trends(fig3_runs):
    gammas = []
    times_to_01 = []
    for label in ("0_basic", "1_basic", "2_basic"):
        member, loop, arc, report, _ = fig3_runs[label]
        # the warp angle resets to 0.9 pi at t = 0
        assert len(arc.jumps) == 1
        assert arc.jumps[0].t == 0.0
        assert arc.jumps[0].y_post[loop.THETA] == pytest.approx(0.9 * math.pi, abs=0.0)
        i15 = int(np.searchsorted(arc.t, 15.0))
        assert arc.column("dist_Re")[i15:].max() < 0.05
        assert omega_norms(arc)[i15:].max() < 0.05
        gammas.append(member.gamma)
        times_to_01.append(time_below(arc, "dist_Re", 0.1))
    assert gammas == sorted(gammas)
    # larger warp weight converges strictly faster
    assert times_to_01[0] > times_to_01[1] > times_to_01[2]
    _, _, arc_nh, _, _ = fig3_runs["3_non_hybrid"]
    t_nh = time_below(arc_nh, "dist_Re", 0.1)
    assert all(t_nh > t for t in times_to_01)


@criterion(6, "torque smoothing")
def test_c6_smoothing(fig4_result):
    by_kind = {r.member.controller: r for r in fig4_result.members}
    smooth = by_kind["smooth"]
    assert smooth.arc.jumps, "the smooth run must reset at least once"
    assert smooth.report.max_torque_jump == 0.0
    for ev in smooth.arc.jumps:
        drop = smooth.loop.lyapunov_packed(ev.y_pre) - smooth.loop.lyapunov_packed(ev.y_post)
        assert drop >= 0.243 - 1e-9
    basic = by_kind["basic"]
    t0_jumps = [ev for ev in basic.arc.jumps if ev.t == 0.0]
    assert t0_jumps
    ev = t0_jumps[0]
    tau_jump = math.dist(basic.loop.torque(ev.t, ev.y_pre, ev.meas),
                         basic.loop.torque(ev.t, ev.y_post, ev.meas))
    assert tau_jump > 0.1


@criterion(7, "velocity-free convergence")
def test_c7_velocity_free(vf_quiet_run):
    arc, report = vf_quiet_run.arc, vf_quiet_run.report
    i15 = int(np.searchsorted(arc.t, 15.0))
    assert arc.column("dist_Re")[i15:].max() < 0.05
    assert omega_norms(arc)[i15:].max() < 0.1
    # the applied torque reaches no velocity error and no velocity noise; the
    # basic law's, with the same gains, reaches both
    loop = vf_quiet_run.loop
    basic = st.make_loop("basic", loop.params, loop.gains, loop.inertia, loop.reference)
    velocity = {f"y{i}" for i in range(10, 13)} | {f"meas{i}" for i in range(9, 12)}
    assert torque_inputs(loop, False).isdisjoint(velocity)
    assert torque_inputs(loop, True).isdisjoint(velocity)
    assert torque_inputs(basic, True) >= velocity
    assert report.max_flow_increase <= 1e-7
    required = min(1.5, 3.0) * vf_quiet_run.loop.params.delta
    for ev in arc.jumps:
        assert loop.lyapunov_packed(ev.y_pre) - loop.lyapunov_packed(ev.y_post) >= required - 1e-9
    assert report.passed


@criterion(8, "exponential decay envelope")
def test_c8_exponential_envelope(fig3_runs):
    _, loop, arc, report, _ = fig3_runs["2_basic"]
    t_tail = arc.jumps[-1].t
    tail = arc.t >= t_tail
    vals = arc.column("U")[tail] + omega_norms(arc)[tail] ** 2
    fit = st.exponential_fit(arc.t[tail], vals, floor=1e-12)
    assert fit is not None
    slope, r2, n = fit
    assert slope < 0.0
    assert r2 > 0.9
    assert report.fit_slope == slope and report.fit_r2 == r2


@criterion(9, "trace and gradient identity suite")
def test_c9_identity_suite(paper_params):
    p = paper_params
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    n = 100_000

    # <<A, skew(x)>> = 2 x . axial(A) for arbitrary square A
    A = rng.standard_normal((n, 3, 3))
    x = rng.standard_normal((n, 3))
    S = np.zeros((n, 3, 3))
    S[:, 0, 1] = -x[:, 2]
    S[:, 0, 2] = x[:, 1]
    S[:, 1, 0] = x[:, 2]
    S[:, 1, 2] = -x[:, 0]
    S[:, 2, 0] = -x[:, 1]
    S[:, 2, 1] = x[:, 0]
    lhs = np.einsum("nij,nij->n", A, S)
    ax = 0.5 * np.stack(
        [A[:, 2, 1] - A[:, 1, 2], A[:, 0, 2] - A[:, 2, 0], A[:, 1, 0] - A[:, 0, 1]], axis=1
    )
    rhs = 2.0 * np.einsum("ni,ni->n", x, ax)
    assert np.abs(lhs - rhs).max() <= 1e-9

    # random rotations with angles away from 0 and pi so the axis read off the
    # antisymmetric part is well conditioned
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = rng.uniform(1e-3, math.pi - 1e-3, n)
    K = np.zeros((n, 3, 3))
    K[:, 0, 1] = -axes[:, 2]
    K[:, 0, 2] = axes[:, 1]
    K[:, 1, 0] = axes[:, 2]
    K[:, 1, 2] = -axes[:, 0]
    K[:, 2, 0] = -axes[:, 1]
    K[:, 2, 1] = axes[:, 0]
    sin = np.sin(angles)[:, None, None]
    cos1 = (1.0 - np.cos(angles))[:, None, None]
    T = np.eye(3)[None] + sin * K + cos1 * (K @ K)

    A_w = np.diag(p.A_diag)
    sp = p.spectral
    distsq = (3.0 - np.einsum("nii->n", T)) / 4.0
    trace_term = np.trace(A_w) - np.einsum("ij,nji->n", A_w, T)

    # trace bounds: 4 lam_min(a_bar) |T|^2 <= tr(A (I - T)) <= 4 lam_max(a_bar) |T|^2
    assert (trace_term >= 4.0 * sp.a_bar_min * distsq - 1e-9).all()
    assert (trace_term <= 4.0 * sp.a_bar_max * distsq + 1e-9).all()

    # squared gradient norm identity with the axis-alignment factor
    M = np.einsum("ij,njk->nik", A_w, T)
    ps = 0.5 * np.stack(
        [M[:, 2, 1] - M[:, 1, 2], M[:, 0, 2] - M[:, 2, 0], M[:, 1, 0] - M[:, 0, 1]], axis=1
    )
    lhs = np.einsum("ni,ni->n", ps, ps)
    w = 0.5 * np.stack(
        [T[:, 2, 1] - T[:, 1, 2], T[:, 0, 2] - T[:, 2, 0], T[:, 1, 0] - T[:, 0, 1]], axis=1
    )
    ax_T = w / np.linalg.norm(w, axis=1)[:, None]
    mapped = ax_T @ sp.a_bar
    cosang = np.einsum("ni,ni->n", ax_T, mapped) / np.linalg.norm(mapped, axis=1)
    alpha = 1.0 - distsq * cosang**2
    a_bar2 = sp.a_bar @ sp.a_bar
    a_under = np.trace(a_bar2) * np.eye(3) - 2.0 * a_bar2
    under_term = np.trace(a_under) - np.einsum("ij,nji->n", a_under, T)
    assert np.abs(lhs - alpha * under_term).max() <= 1e-9
    assert time.perf_counter() - start < 5.0


@criterion(10, "deterministic replay")
def test_c10_determinism(fig4_cfg, fig4_result, tmp_path):
    rerun = st.run_scenario(fig4_cfg, tmp_path / "fig4_run2", plots=False)
    for first, second in zip(fig4_result.members, rerun.members):
        assert first.csv_path.name == second.csv_path.name
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
