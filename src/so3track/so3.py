"""Rotation-group primitives.

Rotations are plain 3x3 numpy arrays constrained to SO(3): orthonormal within
1e-9 in Frobenius norm and with positive determinant.  Everything here is a
pure function of its arguments.

The `*_f` helpers are the component-wise forms used by the per-step kernels:
a 3-vector is a sequence of 3 floats and a 3x3 matrix a sequence of 9 floats
in row-major order.  At this size numpy call overhead outweighs the
arithmetic, so the closed loops evaluate their formulas on Python floats.

The same kernels run on a batch when each component is an (n,) array (see
`columns`).  Arithmetic is the same there; the few math functions a kernel
calls come from its `xp` argument, `math` for floats and `ARRAY_MATH` for
arrays.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import ContractError

EYE3 = np.eye(3)


def floats(x) -> list:
    """A vector or matrix as a flat list of floats (row-major), the kernels' argument form."""
    return np.asarray(x, dtype=float).ravel().tolist()


def columns(a) -> list:
    """The entries of a stack of n vectors or matrices as (n,) arrays (row-major), without a copy.

    The kernels' batch argument form: an (n, 3, 3) stack gives 9 arrays.
    """
    a = np.asarray(a, dtype=float)
    return list(a.reshape(a.shape[0], -1).T)


def _elementwise(fn):
    return lambda x: np.fromiter(map(fn, x.tolist()), float, x.shape[0])


# The math functions of the kernels on (n,) arrays: the `xp` of a batch.  sin
# and cos apply `math`'s own functions to each element, so that a batch
# reproduces the float kernels bit for bit (numpy's vectorized sin may differ
# from the C library's in the last bit); sqrt is correctly rounded in both.
ARRAY_MATH = SimpleNamespace(sin=_elementwise(math.sin), cos=_elementwise(math.cos), sqrt=np.sqrt)


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


def rot_distance_f(r, xp=math) -> float:
    """Normalized distance to the identity, sqrt(tr(I - R) / 4) in [0, 1], of a 9-float R."""
    tr = 3.0 - (r[0] + r[4] + r[8])
    if xp is not math:
        tr = np.clip(tr, 0.0, 4.0)
    elif tr < 0.0:
        tr = 0.0
    elif tr > 4.0:
        tr = 4.0
    return xp.sqrt(0.25 * tr)


def exp_so3_f(w0: float, w1: float, w2: float) -> tuple:
    """exp(skew(w)) as 9 floats: I + a W + b W^2 with W^2 = w w^T - |w|^2 I.

    Rodrigues coefficients a = sin(t)/t and b = (1 - cos(t))/t^2, t = |w|, with
    a series below t = 1e-6 to avoid the cancellation in sin(t)/t.
    """
    s0, s1, s2 = w0 * w0, w1 * w1, w2 * w2
    t = math.sqrt(s0 + s1 + s2)
    t2 = t * t
    if t < 1e-6:
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / t2
    aw0, aw1, aw2 = a * w0, a * w1, a * w2
    b01, b02, b12 = b * (w0 * w1), b * (w0 * w2), b * (w1 * w2)
    return (
        1.0 - b * (s1 + s2), b01 - aw2, b02 + aw1,
        b01 + aw2, 1.0 - b * (s0 + s2), b12 - aw0,
        b02 - aw1, b12 + aw0, 1.0 - b * (s0 + s1),
    )


def orthonormalize_f(r) -> tuple:
    """Per-step drift correction of a 9-float R toward its symmetric polar factor.

    Newton-Schulz iterations R (3 I - R^T R) / 2 converge quadratically to the
    polar factor; for the tiny drifts produced by one integration step a
    single pass reaches machine precision.  R is returned as it is once
    R^T R - I is within 1e-15 entrywise; drifts beyond 1e-4, outside the
    iteration's safe range, fall back to the exact factor `project_to_so3`.
    """
    for _ in range(3):
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
        # D = R^T R - I, symmetric.
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
            return tuple(floats(project_to_so3(np.array(r).reshape(3, 3))))
        r = mat_mul_f(r, (
            1.0 - 0.5 * d00, -0.5 * d01, -0.5 * d02,
            -0.5 * d01, 1.0 - 0.5 * d11, -0.5 * d12,
            -0.5 * d02, -0.5 * d12, 1.0 - 0.5 * d22,
        ))
    return r


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


def axial(M) -> np.ndarray:
    """Axial vector of the antisymmetric part of M, i.e. vee((M - M^T)/2)."""
    return np.array(axial_f(np.ravel(M)))


def angle_axis(angle: float, axis) -> np.ndarray:
    """Rotation by `angle` (rad) about the unit vector `axis` (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    n = math.sqrt(axis @ axis)
    if abs(n - 1.0) > 1e-12:
        raise ContractError(f"angle_axis: axis norm {n} is not 1 within 1e-12")
    ux = skew(axis)
    return EYE3 + math.sin(angle) * ux + (1.0 - math.cos(angle)) * (ux @ ux)


def exp_so3(w) -> np.ndarray:
    """Matrix exponential of skew(w) (Rodrigues form, see `exp_so3_f`)."""
    return np.array(exp_so3_f(*floats(w))).reshape(3, 3)


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


def orthonormalize(R) -> np.ndarray:
    """Drift correction toward the symmetric polar factor (see `orthonormalize_f`)."""
    return np.array(orthonormalize_f(floats(R))).reshape(3, 3)


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
