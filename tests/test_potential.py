import dataclasses
import math

import numpy as np
import pytest

import so3track as st
from so3track.errors import ContractError
from so3track.so3 import ARRAY_MATH
from potential_oracle import gap_coeff_oracle

PI2 = math.pi**2


# --- independent oracles -----------------------------------------------------


def value_oracle(R, theta, p):
    """Trace evaluation through an independently coded warp."""
    T = R @ st.angle_axis(theta, p.u) if theta != 0.0 else R.copy()
    return float(np.trace(np.diag(p.A_diag) @ (np.eye(3) - T))) + 0.5 * p.gamma * theta**2


def batch_value(R, theta, p):
    """The potential kernel on a stack of rotations (n, 3, 3) and warp angles (n,)."""
    return st.potential.value_f(st.potential.moment(R, p), theta, p, ARRAY_MATH)


def batch_gradients(R, theta, p):
    """The gradient kernel on a batch: rotation gradients (n, 3) and warp gradients (n,)."""
    g0, g1, g2, g_th = st.potential.gradients_f(st.potential.moment(R, p), theta, p, ARRAY_MATH)
    return np.stack((g0, g1, g2), axis=1), g_th


def fd_grad_rotation(R, theta, p, h=1e-5):
    """Central finite differences of the potential along the three body axes."""
    g = np.empty(3)
    for k in range(3):
        w = np.zeros(3)
        w[k] = 1.0
        up = st.value(R @ st.exp_so3(h * w), theta, p)
        dn = st.value(R @ st.exp_so3(-h * w), theta, p)
        g[k] = (up - dn) / (4.0 * h)  # dU/ds = 2 w . grad
    return g


def fd_grad_warp(R, theta, p, h=1e-5):
    return (st.value(R, theta + h, p) - st.value(R, theta - h, p)) / (2.0 * h)


# --- constructor -------------------------------------------------------------


def test_case2_matches_simulation_study(paper_params):
    p = paper_params
    assert p.spectral.case_id == 2
    u_expected = math.sqrt(2.0 / 5.0) * np.array([0.0, 1.0, 0.0]) + math.sqrt(
        3.0 / 5.0
    ) * np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(p.u - u_expected) <= 1e-12
    assert p.spectral.delta_star == pytest.approx(2.0, abs=1e-12)
    assert p.delta == pytest.approx(0.324, abs=1e-12)
    assert p.gamma == pytest.approx(7.0 / PI2, abs=1e-15)


def test_case1_equal_low_pair():
    p = st.design_params([3.0, 3.0, 6.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
    sp = p.spectral
    assert sp.case_id == 1
    assert sp.alphas[2] ** 2 == pytest.approx(0.5, abs=1e-12)
    assert sp.alphas @ sp.alphas == pytest.approx(1.0, abs=1e-12)
    assert sp.delta_star == pytest.approx(1.5, abs=1e-12)
    # oracle: smallest gap coefficient over the whole eigenvector family
    vals = [gap_coeff_oracle(p.u, v, np.diag(p.A_diag)) for v in np.eye(3)]
    for phi in np.linspace(0.0, 2.0 * math.pi, 721):
        v = math.cos(phi) * sp.eigenvectors[:, 0] + math.sin(phi) * sp.eigenvectors[:, 1]
        vals.append(gap_coeff_oracle(p.u, v, np.diag(p.A_diag)))
    assert min(vals) == pytest.approx(sp.delta_star, abs=1e-10)


def test_case3_construction():
    p = st.design_params([1.0, 1.2, 3.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
    sp = p.spectral
    assert sp.case_id == 3
    assert sp.alphas @ sp.alphas == pytest.approx(1.0, abs=1e-12)
    vals = [gap_coeff_oracle(p.u, sp.eigenvectors[:, i], np.diag(p.A_diag)) for i in range(3)]
    assert min(vals) == pytest.approx(sp.delta_star, abs=1e-10)


def test_constructor_rejects_bad_inputs():
    with pytest.raises(ContractError):
        st.design_params([2.0, 6.0, 6.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
    with pytest.raises(ContractError):
        st.design_params([2.0, 4.0, 6.0], [], gamma_frac=0.5, delta_frac=0.5)
    with pytest.raises(ContractError):
        st.design_params([2.0, 4.0, 6.0], [0.9 * math.pi], gamma_frac=1.2, delta_frac=0.5)
    with pytest.raises(ContractError):
        st.design_params(
            [2.0, 4.0, 6.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5, delta=0.1
        )
    with pytest.raises(ContractError):
        st.design_params([-1.0, 4.0, 6.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)


def test_design_params_rejects_off_diagonal_weights():
    # A is given and held as its 3 diagonal entries: a matrix, even a diagonal one, 2
    # entries or a NaN entry is refused
    for A in (np.array([[2.0, 0.1, 0.0], [0.1, 4.0, 0.0], [0.0, 0.0, 6.0]]),
              np.diag([2.0, 4.0, 6.0]), [2.0, 4.0], [2.0, math.nan, 6.0]):
        with pytest.raises(ContractError, match="A_diag must be 3 finite numbers"):
            st.design_params(A, [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)


def test_design_params_rejects_an_infinite_weight():
    # an infinite entry is refused at the boundary, not in the spectrum with a numpy warning
    for A in ([2.0, math.inf, 6.0], np.diag([2.0, math.inf, 6.0])):
        with pytest.raises(ContractError, match="A_diag must be 3 finite numbers"):
            st.design_params(A, [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)


def test_a_replaced_weight_brings_its_own_spectrum(paper_params):
    # the spectrum is derived from A_diag on construction, never carried over from another A
    p = paper_params
    q = dataclasses.replace(p, A_diag=[2.0, 4.0, 60.0])
    fresh = st.design_params([2.0, 4.0, 60.0], p.theta_set, gamma=p.gamma, delta=p.delta)
    assert list(q.spectral.eigenvalues) == [2.0, 4.0, 60.0]
    assert st.gradient_bounds(q) == st.gradient_bounds(fresh)
    assert st.gradient_bounds(q).c_psi == 64.0
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(p, spectral=p.spectral)


def test_design_params_builds_the_spectrum_once(monkeypatch):
    # design_params hands the spectrum it derived to PotentialParams, with the
    # bits of every field that PotentialParams derives itself
    calls = []
    spectral_data = st.potential._spectral_data

    def spy(A_diag):
        calls.append(A_diag)
        return spectral_data(A_diag)

    monkeypatch.setattr(st.potential, "_spectral_data", spy)
    for A in ([2.0, 4.0, 6.0], [3.0, 3.0, 7.0], [6.0, 2.0, 4.0], [1.0, 5.0, 5.5]):
        p = st.design_params(A, [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
        assert len(calls) == 1
        own = dataclasses.replace(p).spectral  # derived by PotentialParams alone
        assert len(calls) == 2
        for f in dataclasses.fields(own):
            a, b = getattr(p.spectral, f.name), getattr(own, f.name)
            assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        calls.clear()


# --- warp map ----------------------------------------------------------------


def test_warped_special_cases(paper_params):
    p = paper_params
    rng = np.random.default_rng(1)
    R = st.random_rotation(rng)
    assert np.array_equal(R @ st.warp_rotation(0.0, p), R)
    assert np.allclose(st.warp_rotation(math.pi, p), st.angle_axis(math.pi, p.u), atol=1e-15)
    back = (R @ st.warp_rotation(0.7, p)) @ st.warp_rotation(0.0, p) @ st.warp_rotation(0.7, p).T
    assert np.linalg.norm(back - R) <= 1e-12


# --- potential value ---------------------------------------------------------


def test_value_zero_only_at_target(paper_params):
    p = paper_params
    assert st.value(np.eye(3), 0.0, p) == 0.0
    rng = np.random.default_rng(2)
    R = st.random_rotations(100_000, rng)
    theta = rng.uniform(-math.pi, math.pi, 100_000)
    vals = batch_value(R, theta, p)
    dist = np.sqrt(np.clip((3.0 - np.einsum("nii->n", R)) / 4.0, 0.0, None))
    away = (dist > 1e-3) | (np.abs(theta) > 1e-3)
    assert vals[away].min() > 0.0


def test_value_at_half_turn(paper_params):
    p = paper_params
    # 4 * (a_bar eigenvalue at e1) = 4 * 5 = 20
    R = st.angle_axis(math.pi, np.array([1.0, 0.0, 0.0]))
    assert st.value(R, 0.0, p) == pytest.approx(20.0, abs=1e-12)
    assert st.value(R, 0.0, p) == pytest.approx(value_oracle(R, 0.0, p), abs=1e-12)


def test_value_closed_form_at_half_turns(paper_params):
    # value(half turn about v, theta) = 4 lam_v + gamma/2 theta^2 - 2 sin^2(theta/2) Delta(u, v)
    p = paper_params
    rng = np.random.default_rng(3)
    bar_eigs = {0: 5.0, 1: 4.0, 2: 3.0}
    for i in range(3):
        v = np.zeros(3)
        v[i] = 1.0
        R = st.angle_axis(math.pi, v)
        coeff = gap_coeff_oracle(p.u, v, np.diag(p.A_diag))
        for theta in rng.uniform(-math.pi, math.pi, 100):
            closed = (
                4.0 * bar_eigs[i]
                + 0.5 * p.gamma * theta**2
                - 2.0 * math.sin(theta / 2.0) ** 2 * coeff
            )
            assert st.value(R, theta, p) == pytest.approx(closed, abs=1e-10)


# --- gradients ---------------------------------------------------------------


def test_gradients_vanish_at_target(paper_params):
    g_rot, g_th = st.gradients(np.eye(3), 0.0, paper_params)
    assert np.array_equal(g_rot, np.zeros(3))
    assert g_th == 0.0


def test_gradients_match_finite_differences(paper_params):
    p = paper_params
    rng = np.random.default_rng(5)
    for _ in range(100):
        R = st.random_rotation(rng)
        theta = rng.uniform(-math.pi, math.pi)
        g_rot, g_th = st.gradients(R, theta, p)
        fd_rot = fd_grad_rotation(R, theta, p)
        fd_th = fd_grad_warp(R, theta, p)
        assert np.linalg.norm(fd_rot - g_rot) <= max(1e-9, 1e-6 * np.linalg.norm(g_rot))
        assert abs(fd_th - g_th) <= max(1e-9, 1e-6 * abs(g_th))


def test_gradients_vanish_at_critical_points(paper_params):
    p = paper_params
    for cp in st.undesired_critical_points(p):
        g_rot, g_th = st.gradients(cp.rotation, cp.theta, p)
        assert np.linalg.norm(g_rot) <= 1e-10
        assert abs(g_th) <= 1e-10


# --- gap function ------------------------------------------------------------


def test_gap_at_target_is_nonpositive(paper_params):
    assert st.gap(np.eye(3), 0.0, paper_params) <= 0.0


def test_gap_exceeds_delta_at_critical_points(paper_params):
    p = paper_params
    for cp in st.undesired_critical_points(p):
        assert st.gap(cp.rotation, cp.theta, p) > p.delta


def test_gap_closed_form_at_half_turns(paper_params):
    # gap(half turn about v, 0) = max over resets of 2 sin^2(t/2) Delta(u,v) - gamma t^2 / 2
    p = paper_params
    for i, v in enumerate(np.eye(3)):
        R = st.angle_axis(math.pi, v)
        coeff = gap_coeff_oracle(p.u, v, np.diag(p.A_diag))
        expected = max(
            2.0 * math.sin(t / 2.0) ** 2 * coeff - 0.5 * p.gamma * t * t for t in p.theta_set
        )
        assert st.gap(R, 0.0, p) == pytest.approx(expected, abs=1e-10)


def test_gap_matches_value_difference(paper_params):
    # bit for bit on one rotation; the `potential` row of `paths` takes the
    # gap of a stack against this one
    three = st.design_params([2.0, 4.0, 6.0], [0.9 * math.pi, -0.9 * math.pi, 0.7 * math.pi],
                             gamma=7.0 / math.pi**2, delta_frac=0.8)
    rng = np.random.default_rng(7)
    for p in (paper_params, three):
        Rs = st.random_rotations(50, rng)
        thetas = rng.uniform(-math.pi, math.pi, 50)
        resets = np.array([[st.value(R, tp, p) for tp in p.theta_set] for R in Rs])
        for R, theta, values in zip(Rs, thetas, resets):
            direct = st.value(R, theta, p) - min(values)
            assert np.float64(st.gap(R, theta, p)).tobytes() == np.float64(direct).tobytes()


# --- gradient rate -----------------------------------------------------------


def test_grad_rotation_rate_zero_when_stationary(paper_params):
    p = paper_params
    rng = np.random.default_rng(8)
    R = st.random_rotation(rng)
    assert np.array_equal(st.grad_rotation_rate(R, 0.4, np.zeros(3), 0.0, p), np.zeros(3))


def test_grad_rotation_rate_matches_flow_differences(paper_params):
    p = paper_params
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(100):
        R = st.random_rotation(rng)
        theta = rng.uniform(-math.pi, math.pi)
        omega = rng.standard_normal(3)
        v = rng.standard_normal()
        rate = st.grad_rotation_rate(R, theta, omega, v, p)
        gp = st.grad_rotation(R @ st.exp_so3(h * omega), theta + h * v, p)
        gm = st.grad_rotation(R @ st.exp_so3(-h * omega), theta - h * v, p)
        fd = (gp - gm) / (2.0 * h)
        assert np.linalg.norm(fd - rate) <= max(1e-9, 1e-6 * np.linalg.norm(rate))


def test_grad_rotation_rate_norm_bound(paper_params):
    p = paper_params
    sp = p.spectral
    rng = np.random.default_rng(10)
    n = 10_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    omega = rng.standard_normal((n, 3))
    v = rng.standard_normal(n)
    for k in range(0, n, 7):
        rate = st.grad_rotation_rate(R[k], theta[k], omega[k], v[k], p)
        bound = sp.a_bar_fro * np.linalg.norm(omega[k]) + (sp.a_bar_fro + 2.0 * sp.a_bar_max) * abs(
            v[k]
        )
        assert np.linalg.norm(rate) <= bound + 1e-9


# --- critical points ---------------------------------------------------------


def test_undesired_critical_points_for_diagonal_weights(paper_params):
    p = paper_params
    pts = st.undesired_critical_points(p)
    assert len(pts) == 3
    expected = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    for cp, exp in zip(pts, expected):
        assert np.allclose(cp.rotation, exp, atol=1e-12)
        assert cp.theta == 0.0
        assert cp.isolated
        assert st.gap(cp.rotation, cp.theta, p) >= p.delta


def test_critical_points_flagged_in_eigenplane_case():
    p = st.design_params([3.0, 3.0, 6.0], [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
    pts = st.undesired_critical_points(p)
    assert len(pts) == 4
    assert sum(1 for cp in pts if not cp.isolated) == 3
    for cp in pts:
        g_rot, g_th = st.gradients(cp.rotation, cp.theta, p)
        assert np.linalg.norm(g_rot) <= 1e-10 and abs(g_th) <= 1e-10


def test_no_spurious_critical_points(paper_params):
    # among random samples, nothing with sizable value has both gradients tiny
    p = paper_params
    rng = np.random.default_rng(11)
    n = 100_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    g_rot, g_th = batch_gradients(R, theta, p)
    gn2 = np.einsum("ni,ni->n", g_rot, g_rot) + g_th * g_th
    flat = gn2 < 1e-12  # both gradient norms below 1e-6
    vals = batch_value(R, theta, p)
    suspicious = flat & (vals > 0.01)
    if suspicious.any():
        # must be inside a neighborhood of a known critical configuration
        crit = [cp.rotation for cp in st.undesired_critical_points(p)]
        for idx in np.flatnonzero(suspicious):
            near = min(np.linalg.norm(R[idx] - C) for C in crit)
            assert near < 1e-2 and abs(theta[idx]) < 1e-2


# --- certification constants and sampled bounds ------------------------------


def test_certification_constants_closed_forms(paper_params):
    cc = st.certification_constants(paper_params, n_samples=20_000, seed=0)
    assert cc.c_psi == pytest.approx(10.0, abs=1e-12)
    assert cc.c_R == pytest.approx(math.sqrt(50.0), abs=1e-12)
    assert cc.c_theta == pytest.approx(math.sqrt(50.0) + 10.0, abs=1e-12)
    assert cc.alpha1 == pytest.approx(175.0 / 3.0, abs=1e-9)
    assert 0.0 < cc.alpha2_approx <= paper_params.gamma / 8.0
    assert 0.0 < cc.alignment_min <= cc.alignment_p01 <= 1.0


def test_gradient_upper_bound_sampled(paper_params):
    p = paper_params
    cc = st.certification_constants(p, n_samples=10_000, seed=1)
    rng = np.random.default_rng(12)
    n = 100_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    g_rot, g_th = batch_gradients(R, theta, p)
    lhs = np.einsum("ni,ni->n", g_rot, g_rot) + g_th * g_th
    rhs = cc.alpha1 * batch_value(R, theta, p)
    assert (lhs <= rhs + 1e-9).all()


def test_gradient_lower_bound_on_flow_set(paper_params):
    # approximate bound: allow the sub-percent tail consistent with a sampled minimum
    p = paper_params
    cc = st.certification_constants(p, n_samples=100_000, seed=2)
    rng = np.random.default_rng(13)
    n = 50_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    in_flow = st.gap(R, theta, p) <= p.delta
    g_rot, g_th = batch_gradients(R[in_flow], theta[in_flow], p)
    lhs = np.einsum("ni,ni->n", g_rot, g_rot) + g_th * g_th
    rhs = cc.alpha2_approx * batch_value(R[in_flow], theta[in_flow], p)
    frac_bad = float((lhs < rhs - 1e-12).mean())
    assert frac_bad < 0.01


def test_grad_rotation_norm_bounded_by_c_psi(paper_params):
    p = paper_params
    rng = np.random.default_rng(14)
    n = 100_000
    R = st.random_rotations(n, rng)
    theta = rng.uniform(-math.pi, math.pi, n)
    g_rot, _ = batch_gradients(R, theta, p)
    assert (np.einsum("ni,ni->n", g_rot, g_rot) <= 100.0 + 1e-9).all()
