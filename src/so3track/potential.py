"""Warped trace potential on SO(3) x R.

The potential combines a weighted trace distance with a quadratic term in a
scalar warp angle `theta`:

    value(R, theta) = tr(A (I - T(R, theta))) + gamma/2 * theta^2,
    T(R, theta)     = R @ angle_axis(theta, u),

where A is diagonal and positive definite with a distinct top pair
lambda_2 < lambda_3, and u a fixed unit axis.  Warping the attitude inside
the trace ties the unwanted critical rotations of the trace distance to
theta = 0, so resetting theta to a value from a finite set moves the state
off those configurations while the potential drops by at least a designed
gap `delta`.

This module owns the parameter constructor (axis and gap selection from the
spectrum of A), the potential and its two gradients, the gap, the gradient
rate along trajectories, and the numerical certification of the gradient and
gap bounds that the feedback laws rely on.

The gap states the one jump rule of every hybrid law: a warp angle's gap is
its value minus the least value over the reset set, the jump set is where the
gap reaches the threshold delta, and a jump resets the angle to the reset
angle of least value, so the value drops by at least delta.  The closed loops
apply the rule in `controllers._TrackingLoop._gaps`, where the smooth law
takes its filtered value and threshold delta' in place of the potential's.

Each formula is written once, as a component-wise kernel (`*_f`) on Python
floats: rotations as 9 floats in row-major order, vectors as 3 floats, and A
as its 3 diagonal entries, the one form it is held in (see `so3`).  The
kernels take AR = A @ R rather than R, so that the gap can evaluate the
potential at several warp angles from one matrix product.  The
sampling-based certification runs `value_f` and `gradients_f` on batches
(`moment` of a stack of rotations, `xp = ARRAY_MATH`).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .so3 import (
    ARRAY_MATH,
    EYE3,
    angle_axis,
    axial_f,
    columns,
    cross_f,
    diag_floats,
    diag_mul_f,
    floats,
    mat_mul_f,
    mat_tvec_f,
    mat_vec_f,
    skew,
)

_PI2 = math.pi * math.pi


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectrum-derived quantities of the diagonal weight A.

    eigenvalues are A's diagonal entries in ascending order (a stable sort, so
    equal entries keep their order) and eigenvectors the matching unit columns
    of I.  `a_bar` is the matrix (tr(A) I - A)/2, which the gradient bounds
    and the sampled alignment factor read.  `case_id` records which
    construction case produced the axis coefficients `alphas`, and
    `delta_star` the guaranteed gap coefficient.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    a_bar: np.ndarray
    a_bar_min: float
    a_bar_max: float
    a_bar_fro: float
    delta_star: float
    case_id: int
    alphas: np.ndarray


@dataclass(frozen=True, eq=False)
class PotentialParams:
    """Full parameter set of the warped potential: {theta_set, A_diag, u, gamma, delta}.

    A_diag holds the diagonal weight A as its 3 entries (see `so3.diag_floats`);
    `spectral` is derived from it on construction, so it is always A's.
    `design_params`, which has derived it already, passes it as `_spectral`.

    Invariants (checked on construction):
      * every reset angle satisfies 0 < |theta_i| <= pi,
      * A is positive definite with lambda_2 < lambda_3,
      * the gap coefficient and the gradient bounds of A are finite floats,
      * gamma < 4 delta_star / pi^2,
      * delta < (4 delta_star / pi^2 - gamma) * theta_min^2 / 2.
    """

    theta_set: tuple
    A_diag: tuple
    u: np.ndarray
    gamma: float
    delta: float
    spectral: SpectralData = field(init=False)
    theta_min: float = field(init=False)
    _trA: float = field(init=False, repr=False)
    # Float forms for the kernels: u as 3 floats, ux^2 as 9, and each reset
    # angle paired with its warp rotation as 9 floats, in theta_set order.
    _u_f: tuple = field(init=False, repr=False)
    _ux2_f: tuple = field(init=False, repr=False)
    _resets: tuple = field(init=False, repr=False)
    _spectral: InitVar[SpectralData | None] = None

    def __post_init__(self, _spectral):
        A_diag = diag_floats(self.A_diag, "A_diag")
        object.__setattr__(self, "A_diag", A_diag)
        object.__setattr__(self, "spectral",
                           _spectral_data(A_diag) if _spectral is None else _spectral)
        if len(self.theta_set) == 0:
            raise ContractError("theta_set must be nonempty")
        for th in self.theta_set:
            if not 0.0 < abs(th) <= math.pi + 1e-12:
                raise ContractError(f"reset angle {th} outside (0, pi]")
        if abs(float(np.linalg.norm(self.u)) - 1.0) > 1e-12:
            raise ContractError("warp axis u must be a unit vector")
        try:
            finite = all(map(math.isfinite, (self.spectral.delta_star, *gradient_bounds(self))))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ContractError("the eigenvalues of A are too large or too far apart: "
                                "its gap coefficient or gradient bounds overflow")
        gmax = 4.0 * self.spectral.delta_star / _PI2
        if not 0.0 < self.gamma < gmax:
            raise ContractError(f"gamma={self.gamma} outside (0, {gmax}) = (0, 4*delta_star/pi^2)")
        tmin = min(abs(th) for th in self.theta_set)
        dmax = (gmax - self.gamma) * tmin * tmin / 2.0
        if not 0.0 < self.delta < dmax:
            raise ContractError(f"delta={self.delta} outside (0, {dmax})")
        ux = skew(self.u)
        ux2 = ux @ ux
        object.__setattr__(self, "theta_min", tmin)
        object.__setattr__(self, "_trA", A_diag[0] + A_diag[1] + A_diag[2])
        object.__setattr__(self, "_u_f", tuple(floats(self.u)))
        object.__setattr__(self, "_ux2_f", tuple(floats(ux2)))
        object.__setattr__(self, "_resets",
                           tuple((th, warp_rotation_f(th, self)) for th in self.theta_set))


class CriticalPoint(NamedTuple):
    rotation: np.ndarray
    theta: float
    isolated: bool


class GradientBounds(NamedTuple):
    """Closed-form gradient bounds, exact functions of the spectrum of A and gamma.

    |grad_rotation|^2 + |grad_warp|^2 <= alpha1 * value, |grad_rotation| <= c_psi,
    and c_R and c_theta bound the coefficients of the gradient rate.
    """

    alpha1: float
    c_psi: float
    c_R: float
    c_theta: float


def gradient_bounds(p: PotentialParams) -> GradientBounds:
    """The closed-form gradient bounds of a parameter set."""
    sp = p.spectral
    c_psi = 2.0 * sp.a_bar_max
    return GradientBounds(
        alpha1=max(7.0 * sp.a_bar_max**2 / sp.a_bar_min, 6.0 * p.gamma),
        c_psi=c_psi,
        c_R=sp.a_bar_fro,
        c_theta=sp.a_bar_fro + c_psi,
    )


@dataclass(frozen=True)
class CertificationConstants:
    """Closed-form gradient bounds plus the sampled lower-bound coefficient.

    alpha1, c_psi, c_R and c_theta are those of `gradient_bounds`; the
    lower coefficient alpha2_approx depends on the minimum axis-alignment
    factor over the flow set, which is estimated by sampling and is therefore
    an approximation (the sampled minimum and 1st percentile are reported).
    """

    alpha1: float
    alpha2_approx: float
    c_psi: float
    c_R: float
    c_theta: float
    alignment_min: float
    alignment_p01: float
    n_samples: int


def _spectral_data(A_diag: tuple) -> SpectralData:
    """The spectrum of A = diag(A_diag), 3 finite floats, and what derives from it."""
    order = sorted(range(3), key=A_diag.__getitem__)
    l1, l2, l3 = (A_diag[i] for i in order)
    if l1 <= 0.0:
        raise ContractError("A must be positive definite")
    if l3 - l2 <= 1e-9 * l3:
        raise ContractError("lambda_2 = lambda_3: axis construction is undefined")
    if l2 - l1 <= 1e-9 * l3:
        # Equal low pair: only the top-axis coefficient is pinned; the rest of
        # the mass goes on the first eigenvector (any split in the eigenplane
        # is equivalent by symmetry).
        a3sq = 1.0 - l2 / l3
        alphas = np.array([math.sqrt(1.0 - a3sq), 0.0, math.sqrt(a3sq)])
        delta_star = l1 * (1.0 - l2 / l3)
        case_id = 1
    elif l2 >= l1 * l3 / (l3 - l1):
        alphas = np.array([0.0, math.sqrt(l2 / (l2 + l3)), math.sqrt(l3 / (l2 + l3))])
        delta_star = l1
        case_id = 2
    else:
        s = 2.0 * (l1 * l2 + l1 * l3 + l2 * l3)
        alphas = np.array(
            [
                math.sqrt(1.0 - 4.0 * l2 * l3 / s),
                math.sqrt(1.0 - 4.0 * l1 * l3 / s),
                math.sqrt(1.0 - 4.0 * l1 * l2 / s),
            ]
        )
        delta_star = 4.0 * l1 * l2 * l3 / s
        case_id = 3
    tr = l1 + l2 + l3
    a_bar = np.diag(0.5 * (tr - np.array(A_diag)))
    with np.errstate(over="ignore"):  # PotentialParams rejects overflow
        a_bar_fro = float(np.linalg.norm(a_bar))
    return SpectralData(
        eigenvalues=np.array((l1, l2, l3)),
        eigenvectors=EYE3[:, order],
        a_bar=a_bar,
        a_bar_min=0.5 * (tr - l3),
        a_bar_max=0.5 * (tr - l1),
        a_bar_fro=a_bar_fro,
        delta_star=float(delta_star),
        case_id=case_id,
        alphas=alphas,
    )


def design_params(
    A_diag,
    theta_set,
    *,
    gamma: float | None = None,
    gamma_frac: float | None = None,
    delta: float | None = None,
    delta_frac: float | None = None,
) -> PotentialParams:
    """Build a parameter set with the warp axis chosen from the spectrum of A = diag(A_diag).

    The axis u and gap coefficient delta_star follow the three-way case split
    on the eigenvalues of A.  Exactly one of gamma / gamma_frac and one of
    delta / delta_frac must be given; fractions are taken of the admissible
    upper bounds, so fractional inputs always satisfy the invariants, which
    `PotentialParams` checks.
    """
    A_diag = diag_floats(A_diag, "A_diag")
    spectral = _spectral_data(A_diag)
    theta_set = tuple(float(t) for t in theta_set)
    if (gamma is None) == (gamma_frac is None):
        raise ContractError("give exactly one of gamma, gamma_frac")
    if (delta is None) == (delta_frac is None):
        raise ContractError("give exactly one of delta, delta_frac")
    gmax = 4.0 * spectral.delta_star / _PI2
    if gamma is None:
        if not 0.0 < gamma_frac < 1.0:
            raise ContractError("gamma_frac must lie in (0, 1)")
        gamma = gamma_frac * gmax
    if delta is None:
        if not 0.0 < delta_frac < 1.0:
            raise ContractError("delta_frac must lie in (0, 1)")
        tmin = min((abs(t) for t in theta_set), default=0.0)
        delta = delta_frac * ((gmax - float(gamma)) * tmin * tmin / 2.0)
    u = spectral.eigenvectors @ spectral.alphas
    return PotentialParams(
        theta_set=theta_set,
        A_diag=A_diag,
        u=u / np.linalg.norm(u),
        gamma=float(gamma),
        delta=float(delta),
        _spectral=spectral,
    )


# ---------------------------------------------------------------------------
# Kernels on floats: AR = A @ R and W = warp rotation as 9 floats each.  With
# theta and AR as (n,) arrays and xp = ARRAY_MATH they evaluate a batch.


def warp_rotation_f(theta: float, p: PotentialParams, xp=math) -> tuple:
    """Rotation by the warp angle about u: I + sin(theta) skew(u) + (1 - cos(theta)) skew(u)^2."""
    s = xp.sin(theta)
    c = 1.0 - xp.cos(theta)
    u0, u1, u2 = p._u_f
    q0, q1, q2, q3, q4, q5, q6, q7, q8 = p._ux2_f
    return (
        1.0 + c * q0, c * q1 - s * u2, c * q2 + s * u1,
        c * q3 + s * u2, 1.0 + c * q4, c * q5 - s * u0,
        c * q6 - s * u1, c * q7 + s * u0, 1.0 + c * q8,
    )


def value_w_f(AR, W, theta: float, p: PotentialParams) -> float:
    """tr(A) - tr(A R W) + gamma/2 theta^2 from AR = A @ R and the warp rotation W of theta."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = AR
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = W
    tr = a0 * w0 + a1 * w3 + a2 * w6 + a3 * w1 + a4 * w4 + a5 * w7 + a6 * w2 + a7 * w5 + a8 * w8
    return p._trA - tr + 0.5 * p.gamma * theta * theta


def value_f(AR, theta: float, p: PotentialParams, xp=math) -> float:
    """tr(A) - tr(A R W) + gamma/2 theta^2 from AR = A @ R."""
    return value_w_f(AR, warp_rotation_f(theta, p, xp), theta, p)


def gradients_w_f(AR, W, theta: float, p: PotentialParams) -> tuple:
    """gradients_f with the warp rotation W of theta given.

    Of M = A R W it forms only the six off-diagonal entries that the axial
    vector reads.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = AR
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = W
    m1 = a0 * w1 + a1 * w4 + a2 * w7
    m2 = a0 * w2 + a1 * w5 + a2 * w8
    m3 = a3 * w0 + a4 * w3 + a5 * w6
    m5 = a3 * w2 + a4 * w5 + a5 * w8
    m6 = a6 * w0 + a7 * w3 + a8 * w6
    m7 = a6 * w1 + a7 * w4 + a8 * w7
    s0, s1, s2 = 0.5 * (m7 - m5), 0.5 * (m2 - m6), 0.5 * (m3 - m1)
    u0, u1, u2 = p._u_f
    return (
        w0 * s0 + w1 * s1 + w2 * s2,
        w3 * s0 + w4 * s1 + w5 * s2,
        w6 * s0 + w7 * s1 + w8 * s2,
        p.gamma * theta + 2.0 * (u0 * s0 + u1 * s1 + u2 * s2),
    )


def gradients_f(AR, theta: float, p: PotentialParams, xp=math) -> tuple:
    """(g_x, g_y, g_z, g_theta): rotation gradient W axial(A R W) and warp gradient.

    The rotation gradient is the vector g such that d/ds value(R exp(s w^), theta)
    equals 2 w . g at s = 0; the warp gradient is d value / d theta.
    """
    return gradients_w_f(AR, warp_rotation_f(theta, p, xp), theta, p)


def grad_rotation_rate_f(AR, theta: float, omega, theta_rate: float, p: PotentialParams,
                         xp=math) -> tuple:
    """Rate of the rotation gradient along Rdot = R skew(omega), thetadot = theta_rate."""
    W = warp_rotation_f(theta, p, xp)
    M = mat_mul_f(AR, W)
    ps = axial_f(M)
    # E = (tr(M) I - M^T) / 2 applied to a vector v is (tr(M) v - M^T v) / 2.
    trM = M[0] + M[4] + M[8]

    def E(v):
        m = mat_tvec_f(M, v)
        return (0.5 * (trM * v[0] - m[0]), 0.5 * (trM * v[1] - m[1]), 0.5 * (trM * v[2] - m[2]))

    d_rot = mat_vec_f(W, E(mat_tvec_f(W, omega)))
    d_w = mat_vec_f(W, E(p._u_f))
    c = cross_f(mat_vec_f(W, ps), p._u_f)
    return tuple(d_rot[i] + (d_w[i] - c[i]) * theta_rate for i in range(3))


# ---------------------------------------------------------------------------
# The kernels on a rotation as a 3x3 array.


def moment(R, p: PotentialParams) -> tuple:
    """A @ R as 9 floats, the argument of the kernels; as 9 (n,) arrays for an (n, 3, 3) stack."""
    return diag_mul_f(p.A_diag, columns(R) if np.ndim(R) == 3 else floats(R))


def warp_rotation(theta: float, p: PotentialParams) -> np.ndarray:
    """Rotation by the warp angle about the designed axis u."""
    return np.array(warp_rotation_f(float(theta), p)).reshape(3, 3)


def value(R, theta: float, p: PotentialParams) -> float:
    """The potential tr(A (I - T(R, theta))) + gamma/2 theta^2, nonnegative."""
    return value_f(moment(R, p), float(theta), p)


def gradients(R, theta: float, p: PotentialParams) -> tuple[np.ndarray, float]:
    """Both gradients at once: the body-frame rotation gradient and the warp gradient.

    The rotation gradient is the vector g such that d/ds value(R exp(s w^), theta)
    equals 2 w . g at s = 0; the warp gradient is d value / d theta.
    """
    g0, g1, g2, g_th = gradients_f(moment(R, p), float(theta), p)
    return np.array((g0, g1, g2)), g_th


def grad_rotation(R, theta: float, p: PotentialParams) -> np.ndarray:
    return gradients(R, theta, p)[0]


def gap(R, theta, p: PotentialParams):
    """value(R, theta) minus the least value over the reset set; may be negative.

    R is one rotation and theta a float, or R an (n, 3, 3) stack and theta an
    (n,) array.  The closed loops take the same gap in `_gaps`.
    """
    AR = moment(R, p)
    best = np.min([value_w_f(AR, W, tp, p) for tp, W in p._resets], axis=0)
    return value_f(AR, theta, p, ARRAY_MATH if np.ndim(R) == 3 else math) - best


def grad_rotation_rate(R, theta: float, omega, theta_rate: float, p: PotentialParams) -> np.ndarray:
    """Time derivative of grad_rotation along Rdot = R skew(omega), thetadot = theta_rate."""
    return np.array(grad_rotation_rate_f(
        moment(R, p), float(theta), floats(omega), float(theta_rate), p
    ))


def undesired_critical_points(p: PotentialParams) -> list[CriticalPoint]:
    """Half-turn rotations about the eigenvectors of A, paired with theta = 0.

    With a repeated low eigenvalue the eigenvector family is a continuum; the
    returned points are representatives from the eigenplane, flagged as not
    isolated.
    """
    V = p.spectral.eigenvectors
    if p.spectral.case_id == 1:
        mix = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
        return [
            CriticalPoint(angle_axis(math.pi, V[:, 0]), 0.0, False),
            CriticalPoint(angle_axis(math.pi, V[:, 1]), 0.0, False),
            CriticalPoint(angle_axis(math.pi, mix), 0.0, False),
            CriticalPoint(angle_axis(math.pi, V[:, 2]), 0.0, True),
        ]
    return [CriticalPoint(angle_axis(math.pi, V[:, i]), 0.0, True) for i in range(3)]


# ---------------------------------------------------------------------------
# Sampling over stacks of rotations (n, 3, 3).


def alignment_factor_many(T: np.ndarray, p: PotentialParams) -> np.ndarray:
    """Axis-alignment factor 1 - |T|_I^2 cos^2(axis(T), a_bar axis(T)) per sample.

    Samples whose antisymmetric part has a norm of at most 1e-9 (rotation angle
    near 0 or pi, where the axis read off it is ill-conditioned) are returned
    as nan.
    """
    w = 0.5 * np.stack(
        [T[:, 2, 1] - T[:, 1, 2], T[:, 0, 2] - T[:, 2, 0], T[:, 1, 0] - T[:, 0, 1]], axis=1
    )
    s = np.linalg.norm(w, axis=1)
    distsq = np.clip((3.0 - np.einsum("nii->n", T)) / 4.0, 0.0, 1.0)
    out = np.full(T.shape[0], np.nan)
    ok = s > 1e-9
    axis = w[ok] / s[ok, None]
    mapped = axis @ p.spectral.a_bar
    cosang = np.einsum("ni,ni->n", axis, mapped) / np.linalg.norm(mapped, axis=1)
    out[ok] = 1.0 - distsq[ok] * cosang * cosang
    return out


def certification_constants(
    p: PotentialParams, n_samples: int = 100_000, seed: int = 0
) -> CertificationConstants:
    """Gradient-bound constants, with the flow-set alignment minimum sampled.

    alpha1 bounds |grad_rotation|^2 + |grad_warp|^2 from above by alpha1 * value
    everywhere; alpha2_approx bounds it from below on the flow set, up to the
    sampling error in the alignment minimum.  c_psi bounds |grad_rotation|,
    while c_R and c_theta bound the gradient rate coefficients.
    """
    from .so3 import random_rotations

    sp = p.spectral
    bd = gradient_bounds(p)
    rng = np.random.default_rng(seed)
    R = random_rotations(n_samples, rng)
    theta = rng.uniform(-math.pi, math.pi, n_samples)
    in_flow = gap(R, theta, p) <= p.delta
    W = warp_rotation_f(theta[in_flow], p, ARRAY_MATH)
    T = R[in_flow] @ np.stack(W, axis=1).reshape(-1, 3, 3)
    align = alignment_factor_many(T, p)
    align = align[np.isfinite(align)]
    if align.size == 0:
        raise ContractError("certification_constants: no usable flow-set samples")
    a_min = float(align.min())
    a_p01 = float(np.percentile(align, 1.0))
    alpha2 = min(a_min * sp.a_bar_min**2 / (2.0 * sp.a_bar_max), p.gamma / 8.0)
    return CertificationConstants(
        alpha1=float(bd.alpha1),
        alpha2_approx=float(alpha2),
        c_psi=float(bd.c_psi),
        c_R=float(bd.c_R),
        c_theta=float(bd.c_theta),
        alignment_min=a_min,
        alignment_p01=a_p01,
        n_samples=int(align.size),
    )
