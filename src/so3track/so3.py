"""Rotation-group primitives.

Rotations are plain 3x3 numpy arrays constrained to SO(3): orthonormal within
1e-9 in Frobenius norm and with positive determinant.  Everything here is a
pure function of its arguments.

The `*_f` helpers are the component-wise forms used by the per-step kernels:
a 3-vector is a sequence of 3 floats and a 3x3 matrix a sequence of 9 floats
in row-major order.  At this size numpy call overhead outweighs the
arithmetic, so the closed loops evaluate their formulas on Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

EYE3 = np.eye(3)

ORTHONORMALITY_TOL = 1e-9


def floats(x) -> list:
    """A vector or matrix as a flat list of floats (row-major), the kernels' argument form."""
    return np.asarray(x, dtype=float).ravel().tolist()


def mat_mul_f(a, b) -> tuple:
    """a @ b for row-major 9-float matrices."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def mat_vec_f(a, v) -> tuple:
    """a @ v for a 9-float matrix and a 3-float vector."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    v0, v1, v2 = v
    return (a0 * v0 + a1 * v1 + a2 * v2, a3 * v0 + a4 * v1 + a5 * v2, a6 * v0 + a7 * v1 + a8 * v2)


def mat_tvec_f(a, v) -> tuple:
    """a^T @ v for a 9-float matrix and a 3-float vector."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    v0, v1, v2 = v
    return (a0 * v0 + a3 * v1 + a6 * v2, a1 * v0 + a4 * v1 + a7 * v2, a2 * v0 + a5 * v1 + a8 * v2)


def mat_skew_f(a, w) -> tuple:
    """a @ skew(w), the rate of a rotation driven by the body-frame velocity w."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    w0, w1, w2 = w
    return (
        a1 * w2 - a2 * w1, a2 * w0 - a0 * w2, a0 * w1 - a1 * w0,
        a4 * w2 - a5 * w1, a5 * w0 - a3 * w2, a3 * w1 - a4 * w0,
        a7 * w2 - a8 * w1, a8 * w0 - a6 * w2, a6 * w1 - a7 * w0,
    )


def cross_f(a, b) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def axial_f(m) -> tuple:
    """Axial vector of the antisymmetric part of a 9-float matrix."""
    return (0.5 * (m[7] - m[5]), 0.5 * (m[2] - m[6]), 0.5 * (m[3] - m[1]))


def rot_distance_f(r) -> float:
    """Normalized distance to the identity, sqrt(tr(I - R) / 4) in [0, 1], of a 9-float R."""
    tr = 3.0 - (r[0] + r[4] + r[8])
    if tr < 0.0:
        tr = 0.0
    elif tr > 4.0:
        tr = 4.0
    return math.sqrt(0.25 * tr)


def skew(x) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, skew(x) @ y == cross(x, y)."""
    x0, x1, x2 = x
    return np.array([[0.0, -x2, x1], [x2, 0.0, -x0], [-x1, x0, 0.0]])


def vee(M) -> np.ndarray:
    """Inverse of skew.  The input must be skew-symmetric within 1e-12."""
    M = np.asarray(M, dtype=float)
    if np.linalg.norm(M + M.T) > 1e-12:
        raise ContractError("vee: input is not skew-symmetric within 1e-12")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def antisym_part(M) -> np.ndarray:
    """Antisymmetric projection (M - M^T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - M.T)


def axial(M) -> np.ndarray:
    """Axial vector of the antisymmetric part of M, i.e. vee((M - M^T)/2)."""
    return np.array(axial_f(np.ravel(M)))


def trace_complement(M) -> np.ndarray:
    """The map M -> (tr(M) I - M^T) / 2, used in gradient-rate formulas."""
    M = np.asarray(M, dtype=float)
    return 0.5 * ((M[0, 0] + M[1, 1] + M[2, 2]) * EYE3 - M.T)


def angle_axis(angle: float, axis) -> np.ndarray:
    """Rotation by `angle` (rad) about the unit vector `axis` (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    n = math.sqrt(axis @ axis)
    if abs(n - 1.0) > 1e-12:
        raise ContractError(f"angle_axis: axis norm {n} is not 1 within 1e-12")
    ux = skew(axis)
    return EYE3 + math.sin(angle) * ux + (1.0 - math.cos(angle)) * (ux @ ux)


def exp_so3(w) -> np.ndarray:
    """Matrix exponential of skew(w).

    Uses the Rodrigues closed form, with a series fallback below 1e-6 to avoid
    sin(t)/t cancellation.
    """
    w = np.asarray(w, dtype=float)
    t = math.sqrt(w @ w)
    W = skew(w)
    if t < 1e-6:
        t2 = t * t
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / (t * t)
    return EYE3 + a * W + b * (W @ W)


def log_so3(R) -> np.ndarray:
    """Principal logarithm of a rotation, returned as a vector of norm < pi.

    Raises for rotations within 1e-9 of a half turn (|R|_I >= 1 - 1e-9), where
    the branch is ambiguous; the caller must handle that case.
    """
    R = np.asarray(R, dtype=float)
    d = rot_distance(R)
    if d >= 1.0 - 1e-9:
        raise ContractError("log_so3: rotation angle too close to pi, branch is ambiguous")
    t = 2.0 * math.asin(d)
    v = axial(R)
    if t < 1e-6:
        return v * (1.0 + t * t / 6.0)
    return v * (t / math.sin(t))


def rot_distance(R) -> float:
    """Normalized distance to the identity, sqrt(tr(I - R) / 4) in [0, 1]."""
    return rot_distance_f(np.ravel(R))


def project_to_so3(M) -> np.ndarray:
    """Nearest rotation to M in Frobenius norm (symmetric square-root polar factor).

    M must have positive determinant and sit within Frobenius distance 0.1 of
    SO(3); reflected or degenerate inputs are rejected.
    """
    M = np.asarray(M, dtype=float)
    if np.linalg.det(M) <= 0.0:
        raise ContractError("project_to_so3: input is degenerate or orientation-reversing")
    U, s, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        raise ContractError("project_to_so3: polar factor is a reflection")
    if np.linalg.norm(M - R) > 0.1:
        raise ContractError("project_to_so3: input is farther than 0.1 from SO(3)")
    return R


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Per-step drift correction toward the symmetric square-root polar factor.

    Newton-Schulz iterations R (3 I - R^T R) / 2 converge quadratically to the
    polar factor; for the tiny drifts produced by one integration step a
    single pass reaches machine precision.  Drifts beyond the iteration's
    safe range fall back to the exact factor.
    """
    for _ in range(3):
        D = R.T @ R - EYE3
        m = abs(D).max()
        if m <= 1e-15:
            return R
        if m > 1e-4:
            return project_to_so3(R)
        R = R @ (EYE3 - 0.5 * D)
    return R


def is_rotation(R, tol: float = ORTHONORMALITY_TOL) -> bool:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    return np.linalg.norm(R.T @ R - EYE3) <= tol and np.linalg.det(R) > 0.0


def check_rotation(R, tol: float = ORTHONORMALITY_TOL, name: str = "R") -> None:
    if not is_rotation(R, tol):
        raise ContractError(f"{name} is not a rotation within tolerance {tol}")


def random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """n random rotation matrices, shape (n, 3, 3), via QR of Gaussian matrices."""
    G = rng.standard_normal((n, 3, 3))
    Q, R = np.linalg.qr(G)
    # Fix the QR sign ambiguity, then flip one column where det is negative.
    d = np.sign(np.einsum("nii->ni", R))
    d[d == 0.0] = 1.0
    Q = Q * d[:, None, :]
    neg = np.linalg.det(Q) < 0.0
    Q[neg, :, 2] *= -1.0
    return Q


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return random_rotations(1, rng)[0]
