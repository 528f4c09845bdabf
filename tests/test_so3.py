import math

import numpy as np
import pytest

import so3track as st
from so3track.errors import ContractError

E1, E2, E3 = np.eye(3)


def test_skew_matches_definition():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(st.skew([1.0, 2.0, 3.0]), expected)


def test_skew_acts_as_cross_product():
    # cross([0,0,1], [1,0,0]) = [0,1,0] by hand
    assert np.allclose(st.skew(E3) @ E1, np.array([0.0, 1.0, 0.0]), atol=0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(st.skew(x) @ y, np.cross(x, y), atol=1e-14)


def test_vee_round_trip_and_contract():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(st.vee(st.skew(x)), x)
    with pytest.raises(ContractError):
        st.vee(np.diag([1.0, 1.0, 1.0]))


def test_axial_on_symmetric_and_skew_inputs():
    assert np.array_equal(st.axial(np.diag([2.0, 4.0, 6.0])), np.zeros(3))
    assert np.allclose(st.axial(st.skew(E3)), E3, atol=0.0)


def test_axial_inner_product_identity():
    # <<A, skew(x)>> = 2 x . axial(A) on random inputs
    rng = np.random.default_rng(7)
    for _ in range(100):
        A = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        lhs = np.trace(A.T @ st.skew(x))
        rhs = 2.0 * x @ st.axial(A)
        assert abs(lhs - rhs) <= 1e-12


def test_axial_ignores_symmetric_part():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    assert np.array_equal(st.axial(0.5 * (A - A.T)), st.axial(A))


def test_angle_axis_special_values():
    assert np.allclose(st.angle_axis(math.pi, E3), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)
    assert np.array_equal(st.angle_axis(0.0, E1), np.eye(3))


def test_angle_axis_inverse_composition():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        th = rng.uniform(-math.pi, math.pi)
        R = st.angle_axis(th, u) @ st.angle_axis(-th, u)
        assert np.linalg.norm(R - np.eye(3)) <= 1e-12


def test_angle_axis_rejects_non_unit_axis():
    with pytest.raises(ContractError):
        st.angle_axis(0.3, [1.0, 1.0, 0.0])


def test_angle_axis_agrees_with_exp():
    rng = np.random.default_rng(5)
    for th in np.linspace(-math.pi, math.pi, 21):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        assert np.linalg.norm(st.angle_axis(th, u) - st.exp_so3(th * u)) <= 1e-12


def test_exp_log_round_trip():
    assert np.array_equal(st.exp_so3(np.zeros(3)), np.eye(3))
    assert np.allclose(st.log_so3(st.angle_axis(0.3, E2)), np.array([0.0, 0.3, 0.0]), atol=1e-14)
    rng = np.random.default_rng(9)
    for _ in range(100):
        R = st.random_rotation(rng)
        if st.rot_distance(R) >= 1.0 - 1e-9:
            continue
        assert np.linalg.norm(st.exp_so3(st.log_so3(R)) - R) <= 1e-9
        assert np.linalg.norm(st.log_so3(R)) < math.pi


def test_exp_first_order_taylor():
    rng = np.random.default_rng(13)
    for scale in (1e-3, 1e-5, 1e-7):
        w = scale * rng.standard_normal(3)
        resid = np.linalg.norm(st.exp_so3(w) - (np.eye(3) + st.skew(w)))
        assert resid <= (w @ w)  # O(|w|^2)


def test_log_errors_at_half_turn():
    with pytest.raises(ContractError):
        st.log_so3(st.angle_axis(math.pi, E1))


def test_rot_distance_values():
    assert st.rot_distance(np.eye(3)) == 0.0
    assert st.rot_distance(st.angle_axis(math.pi, E1)) == pytest.approx(1.0, abs=1e-12)
    # tr(I - R) = 2 for a quarter turn, giving sqrt(1/2)
    assert st.rot_distance(st.angle_axis(math.pi / 2, E3)) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_rot_distance_range_on_random_rotations():
    rng = np.random.default_rng(21)
    R = st.random_rotations(10_000, rng)
    d = np.sqrt(np.clip((3.0 - np.einsum("nii->n", R)) / 4.0, 0.0, None))
    assert d.min() >= 0.0 and d.max() <= 1.0
    for k in range(0, 10_000, 997):
        assert 0.0 <= st.rot_distance(R[k]) <= 1.0


def test_project_idempotent_and_scale_removal():
    rng = np.random.default_rng(31)
    R = st.random_rotation(rng)
    assert np.linalg.norm(st.project_to_so3(R) - R) <= 1e-12
    assert np.linalg.norm(st.project_to_so3(1.01 * R) - R) <= 1e-9


def test_project_restores_invariants_after_perturbation():
    rng = np.random.default_rng(37)
    for scale in (1e-6, 1e-4, 1e-3):
        R = st.random_rotation(rng)
        M = R + scale * rng.standard_normal((3, 3))
        P = st.project_to_so3(M)
        assert np.linalg.norm(P.T @ P - np.eye(3)) <= 1e-12
        assert np.linalg.det(P) > 0.0


def test_project_rejects_bad_inputs():
    with pytest.raises(ContractError, match="degenerate or orientation-reversing"):
        st.project_to_so3(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ContractError, match="farther than 0.1"):
        st.project_to_so3(2.0 * np.eye(3))  # too far from SO(3)
    # an infinite entry used to send the SVD into a loop that did not return
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ContractError, match="not finite"):
            st.project_to_so3(np.diag([bad, 1.0, 1.0]))
    # a finite block of huge entries is too far, not an overflow in det
    for huge in (1e110, -1e110):
        with pytest.raises(ContractError, match="farther than 0.1"):
            st.project_to_so3(huge * np.eye(3))
    with pytest.raises(ContractError, match="farther than 0.1"):
        st.so3.orthonormalize_f(st.so3.floats(np.eye(3) * 1e110))


def test_orthonormalize_matches_polar_factor():
    rng = np.random.default_rng(41)
    for scale in (1e-9, 1e-6, 1e-3):
        R = st.random_rotation(rng)
        M = R + scale * rng.standard_normal((3, 3))
        fast = np.array(st.so3.orthonormalize_f(st.so3.floats(M))).reshape(3, 3)
        exact = st.project_to_so3(M)
        assert np.linalg.norm(fast - exact) <= 1e-9
        assert np.linalg.norm(fast.T @ fast - np.eye(3)) <= 1e-12


def polar_factor_long(M):
    """Polar factor of M from Newton-Schulz iterations in extended precision (oracle)."""
    R = np.asarray(M, dtype=np.longdouble)
    eye = np.eye(3, dtype=np.longdouble)
    for _ in range(8):
        R = R @ (eye - 0.5 * (R.T @ R - eye))
    return R


def test_orthonormalize_f_early_exit_returns_input():
    for R in (np.eye(3), st.angle_axis(0.5, E3), st.angle_axis(math.pi, E1)):
        v = st.so3.floats(R)
        assert st.so3.orthonormalize_f(v) is v
        assert np.abs(np.reshape(v, (3, 3)) - st.project_to_so3(R)).max() <= 1e-15


def test_orthonormalize_f_newton_schulz_reaches_polar_factor():
    # Drifts up to 1e-4 take the iteration.  Its result sits within 1e-15 of
    # the polar factor computed in extended precision; the SVD factor of
    # project_to_so3 carries rounding errors of a few 1e-15 itself.
    rng = np.random.default_rng(44)
    for scale in (1e-12, 1e-9, 1e-6, 3e-5):
        for _ in range(20):
            M = st.random_rotation(rng) + scale * rng.standard_normal((3, 3))
            got = np.array(st.so3.orthonormalize_f(st.so3.floats(M))).reshape(3, 3)
            assert np.abs(got - polar_factor_long(M)).max() <= 1e-15
            assert np.abs(got - st.project_to_so3(M)).max() <= 1e-14


def test_orthonormalize_f_falls_back_to_svd_past_1e_4():
    rng = np.random.default_rng(45)
    for _ in range(20):
        M = st.random_rotation(rng) + 1e-3 * rng.standard_normal((3, 3))
        got = np.array(st.so3.orthonormalize_f(st.so3.floats(M))).reshape(3, 3)
        assert np.array_equal(got, st.project_to_so3(M))


def test_orthonormalize_f_rejects_reflection():
    M = np.diag([1.0, 1.0, -1.0]) + 1e-3 * np.random.default_rng(46).standard_normal((3, 3))
    with pytest.raises(ContractError, match="orientation-reversing"):
        st.so3.orthonormalize_f(st.so3.floats(M))


def orthonormalize_max_abs(r):
    """`orthonormalize_f` with its drift bounds tested as max(abs(...)) of the six entries."""
    for _ in range(3):
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
        d00 = r0 * r0 + r3 * r3 + r6 * r6 - 1.0
        d11 = r1 * r1 + r4 * r4 + r7 * r7 - 1.0
        d22 = r2 * r2 + r5 * r5 + r8 * r8 - 1.0
        d01 = r0 * r1 + r3 * r4 + r6 * r7
        d02 = r0 * r2 + r3 * r5 + r6 * r8
        d12 = r1 * r2 + r4 * r5 + r7 * r8
        m = max(abs(d00), abs(d11), abs(d22), abs(d01), abs(d02), abs(d12))
        if m <= 1e-15:
            return r
        if m > 1e-4:
            return tuple(st.so3.floats(st.project_to_so3(np.array(r).reshape(3, 3))))
        r = st.so3.mat_mul_f(r, (
            1.0 - 0.5 * d00, -0.5 * d01, -0.5 * d02,
            -0.5 * d01, 1.0 - 0.5 * d11, -0.5 * d12,
            -0.5 * d02, -0.5 * d12, 1.0 - 0.5 * d22,
        ))
    return r


def test_orthonormalize_f_drift_bounds_keep_their_tuples():
    # the early exits, the Newton-Schulz passes and the SVD fallback of the
    # tests above, and drifts across both bounds, give the tuples of the
    # bounds tested as max(abs(...))
    rng = np.random.default_rng(47)
    blocks = [st.so3.floats(R) for R in (np.eye(3), st.angle_axis(0.5, E3),
                                         st.angle_axis(math.pi, E1))]
    for scale in (1e-17, 1e-16, 1e-15, 1e-12, 1e-9, 1e-6, 3e-5, 5e-5, 1e-4, 2e-4, 1e-3):
        for _ in range(20):
            blocks.append(st.so3.floats(st.random_rotation(rng)
                                        + scale * rng.standard_normal((3, 3))))
    for v in blocks:
        assert np.array(st.so3.orthonormalize_f(v)).tobytes() == np.array(
            orthonormalize_max_abs(v)).tobytes()


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, 1e200))
def test_orthonormalize_f_rejects_a_drift_that_is_not_finite(bad):
    # wherever the entry sits, a drift R^T R - I that is not finite (here NaN,
    # infinite, or overflowing from 1e200) is a ContractError, which `solve`
    # reports as a failed projection
    for k in range(9):
        r = st.so3.floats(np.eye(3))
        r[k] = bad
        with pytest.raises(ContractError, match="drift R\\^T R - I is not finite"):
            st.so3.orthonormalize_f(r)


def test_random_rotations_are_rotations():
    rng = np.random.default_rng(43)
    R = st.random_rotations(500, rng)
    assert np.allclose(R @ R.transpose(0, 2, 1), np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_diag_mul_f_matches_the_full_product():
    # row i of R scaled by d_i is the 9-float product with diag(d), bit for bit
    rng = np.random.default_rng(45)
    R = st.random_rotations(200, rng)
    d = tuple(rng.uniform(0.1, 10.0, 3).tolist())
    D = st.so3.floats(np.diag(d))
    for r in map(st.so3.floats, R):
        got, want = st.so3.diag_mul_f(d, r), st.so3.mat_mul_f(D, r)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    got = st.so3.diag_mul_f(d, st.so3.columns(R))
    want = st.so3.mat_mul_f(D, st.so3.columns(R))
    assert np.array(got).tobytes() == np.array(want).tobytes()
