"""Rotation-group primitives.

Rotations are plain 3x3 numpy arrays constrained to SO(3): orthonormal within
1e-9 in Frobenius norm and with positive determinant.  Everything here is a
pure function of its arguments.

The `*_f` helpers are the component-wise forms used by the per-step kernels:
a 3-vector is a sequence of 3 floats and a 3x3 matrix a sequence of 9 floats
in row-major order.  A diagonal weight (the potential's A, the inertia J and
the filter gain Gamma) is its 3 diagonal entries everywhere, from the config
to the kernels; `diag_floats` is the one check of that form.  At this size
numpy call overhead outweighs the arithmetic, so the closed loops evaluate
their formulas on Python floats.

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


def diag_floats(d, name: str) -> tuple:
    """A diagonal weight (A, J or Gamma) as its 3 entries, the one form the package holds it in.

    ContractError unless d is 3 finite numbers; a 3x3 matrix is not, nor are strings.
    """
    try:
        d = np.asarray(d)
    except ValueError:  # a ragged nesting
        d = np.empty(0)
    if d.shape != (3,) or d.dtype.kind not in "biuf" or not np.isfinite(d).all():
        raise ContractError(f"{name} must be 3 finite numbers, the diagonal entries of the matrix")
    return tuple(d.astype(float).tolist())


def diag_mul_f(d, b) -> tuple:
    """diag(d) @ b for 3 floats d and a row-major 9-float matrix: row i of b scaled by d_i."""
    d0, d1, d2 = d
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (d0 * b0, d0 * b1, d0 * b2, d1 * b3, d1 * b4, d1 * b5, d2 * b6, d2 * b7, d2 * b8)


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


def norm2_f(v) -> float:
    """The squared Euclidean norm of a 3-float vector."""
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


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


def choose(c, a, b):
    """a where c holds, else b: `np.where` for one float."""
    return a if c else b


def exp_so3_f(w0, w1, w2, xp=math, where=choose) -> tuple:
    """exp(skew(w)) as 9 floats: I + a W + b W^2 with W^2 = w w^T - |w|^2 I.

    Rodrigues coefficients a = sin(t)/t and b = (1 - cos(t))/t^2, t = |w|, with
    a series below t = 1e-6 to avoid the cancellation in sin(t)/t.  Written
    once for floats and for (n,) columns (xp = ARRAY_MATH, where = np.where),
    with the same bits in each element.  Both branches are evaluated; the
    closed form at t = 1 wherever the series is taken, so w = 0 divides by
    no zero.
    """
    s0, s1, s2 = w0 * w0, w1 * w1, w2 * w2
    t = xp.sqrt(s0 + s1 + s2)
    t2 = t * t
    small = t < 1e-6
    u = where(small, 1.0, t)
    a = where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, xp.sin(u) / u)
    b = where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - xp.cos(u)) / (u * u))
    aw0, aw1, aw2 = a * w0, a * w1, a * w2
    b01, b02, b12 = b * (w0 * w1), b * (w0 * w2), b * (w1 * w2)
    return (
        1.0 - b * (s1 + s2), b01 - aw2, b02 + aw1,
        b01 + aw2, 1.0 - b * (s0 + s2), b12 - aw0,
        b02 - aw1, b12 + aw0, 1.0 - b * (s0 + s1),
    )


# `orthonormalize_f` returns R once every drift entry lies within DRIFT_DONE,
# and takes no Newton-Schulz pass past DRIFT_SAFE.
DRIFT_DONE = 1e-15
DRIFT_SAFE = 1e-4
NS_PASSES = 3  # the most Newton-Schulz passes of one `orthonormalize_f`


def drift_f(r) -> tuple:
    """The drift D = R^T R - I of a 9-float R, symmetric: (d00, d11, d22, d01, d02, d12)."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    return (
        r0 * r0 + r3 * r3 + r6 * r6 - 1.0,
        r1 * r1 + r4 * r4 + r7 * r7 - 1.0,
        r2 * r2 + r5 * r5 + r8 * r8 - 1.0,
        r0 * r1 + r3 * r4 + r6 * r7,
        r0 * r2 + r3 * r5 + r6 * r8,
        r1 * r2 + r4 * r5 + r7 * r8,
    )


def newton_schulz_f(r, d) -> tuple:
    """One Newton-Schulz pass R (3 I - R^T R) / 2 = R (I - D / 2), with d = `drift_f(r)`."""
    d00, d11, d22, d01, d02, d12 = d
    return mat_mul_f(r, (
        1.0 - 0.5 * d00, -0.5 * d01, -0.5 * d02,
        -0.5 * d01, 1.0 - 0.5 * d11, -0.5 * d12,
        -0.5 * d02, -0.5 * d12, 1.0 - 0.5 * d22,
    ))


def orthonormalize_f(r) -> tuple:
    """Per-step drift correction of a 9-float R toward its symmetric polar factor.

    Newton-Schulz iterations (`newton_schulz_f`) converge quadratically to
    the polar factor; for the tiny drifts produced by one integration step a
    single pass reaches machine precision.  R is returned as it is once its
    drift is within DRIFT_DONE entrywise, and after NS_PASSES passes; drifts
    beyond DRIFT_SAFE, outside the iteration's safe range, fall back to the
    exact factor `project_to_so3`.  ContractError where the drift has an
    entry that is not finite.  The closed loops' compiled runs of flow steps
    take the same passes and tests (see `controllers`).
    """
    lo, hi, s_lo, s_hi = -DRIFT_DONE, DRIFT_DONE, -DRIFT_SAFE, DRIFT_SAFE
    for _ in range(NS_PASSES):
        d = d00, d11, d22, d01, d02, d12 = drift_f(r)
        if (lo <= d00 <= hi and lo <= d11 <= hi and lo <= d22 <= hi
                and lo <= d01 <= hi and lo <= d02 <= hi and lo <= d12 <= hi):
            return r
        if not (s_lo <= d00 <= s_hi and s_lo <= d11 <= s_hi and s_lo <= d22 <= s_hi
                and s_lo <= d01 <= s_hi and s_lo <= d02 <= s_hi and s_lo <= d12 <= s_hi):
            if not all(map(math.isfinite, d)):
                raise ContractError("orthonormalize_f: the drift R^T R - I is not finite")
            return tuple(floats(project_to_so3(np.array(r).reshape(3, 3))))
        r = newton_schulz_f(r, d)
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

    M must be finite, have positive determinant and sit within Frobenius
    distance 0.1 of SO(3); other inputs are rejected.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():  # the SVD of an infinite entry does not return
        raise ContractError("project_to_so3: input is not finite")
    # ||M - R|| >= |M_ij| - 1 for a rotation R, so an entry past 1.1 is too far;
    # tested before `det`, which overflows on a block of huge entries.
    if np.abs(M).max() > 1.1:
        raise ContractError("project_to_so3: input is farther than 0.1 from SO(3)")
    if np.linalg.det(M) <= 0.0:
        raise ContractError("project_to_so3: input is degenerate or orientation-reversing")
    U, s, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        raise ContractError("project_to_so3: polar factor is a reflection")
    if np.linalg.norm(M - R) > 0.1:
        raise ContractError("project_to_so3: input is farther than 0.1 from SO(3)")
    return R


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
