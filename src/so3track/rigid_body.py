"""Rigid-body attitude dynamics, reference generation, and tracking errors.

The feedforward and coupling terms of the error dynamics are written once, as
component-wise kernels (`*_f`) on floats (see `so3`); the numpy functions are
adapters over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError
from .so3 import cross_f, exp_so3, floats, mat_skew_f, mat_tvec_f, mat_vec_f, skew

Vec3 = np.ndarray


@dataclass(frozen=True, eq=False)
class Inertia:
    """Symmetric positive definite inertia matrix with its inverse cached."""

    J: np.ndarray
    J_inv: np.ndarray
    lam_min: float
    lam_max: float
    # J and J^-1 as 9 floats for the kernels.
    J_f: tuple = field(init=False, repr=False)
    J_inv_f: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "J_f", tuple(floats(self.J)))
        object.__setattr__(self, "J_inv_f", tuple(floats(self.J_inv)))

    @classmethod
    def from_matrix(cls, J) -> "Inertia":
        J = np.asarray(J, dtype=float)
        if J.shape != (3, 3) or np.linalg.norm(J - J.T) > 1e-12:
            raise ContractError("inertia matrix must be symmetric 3x3")
        evals = np.linalg.eigvalsh(J)
        if evals[0] <= 0.0:
            raise ContractError("inertia matrix must be positive definite")
        return cls(J=J, J_inv=np.linalg.inv(J), lam_min=float(evals[0]), lam_max=float(evals[2]))

    @classmethod
    def from_diag(cls, d) -> "Inertia":
        return cls.from_matrix(np.diag(np.asarray(d, dtype=float)))


@dataclass
class BodyState:
    R: np.ndarray
    omega: np.ndarray


@dataclass
class RefState:
    R: np.ndarray
    omega: np.ndarray


@dataclass
class ErrorState:
    R: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class Reference:
    """Reference acceleration selection z(t) with its declared bounds.

    `m_bound` bounds ||z(t)|| (checked at every evaluation) and
    `omega_r_bound` declares the compact set the reference velocity must stay
    in; the simulation aborts if the bound is violated.  `z_fn(t, xp)` gives
    z(t) as 3 floats, or as 3 arrays over an (n,) array of times with
    xp = ARRAY_MATH (see `so3`).
    """

    name: str
    z_fn: Callable[..., tuple]
    m_bound: float
    omega_r_bound: float

    def z_at(self, t: float, xp=math) -> tuple:
        """z(t) as 3 floats (3 arrays over a batch of times), checked against `m_bound`."""
        z = self.z_fn(t, xp)
        n2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
        if xp is not math:  # check the largest norm of the batch, at its time
            n2 = np.broadcast_to(n2, np.shape(t))
            i = int(np.argmax(n2))
            t, n2 = float(t[i]), float(n2[i])
        n = math.sqrt(n2)
        if n > self.m_bound:
            raise ContractError(
                f"reference '{self.name}' at t={t}: ||z|| = {n} exceeds the bound {self.m_bound}"
            )
        return z


def _paper_sine(t: float, xp=math) -> tuple:
    return (xp.sin(0.1 * t), -xp.cos(0.3 * t), 0.1)


def _rest(t: float, xp=math) -> tuple:
    return (0.0, 0.0, 0.0)


REFERENCE_FUNCTIONS: dict[str, Callable[..., tuple]] = {
    "paper_sine": _paper_sine,
    "rest": _rest,
}


def make_reference(name: str, m_bound: float, omega_r_bound: float) -> Reference:
    if name not in REFERENCE_FUNCTIONS:
        raise ContractError(f"unknown reference '{name}', choose from {sorted(REFERENCE_FUNCTIONS)}")
    return Reference(name=name, z_fn=REFERENCE_FUNCTIONS[name], m_bound=m_bound, omega_r_bound=omega_r_bound)


def body_flow(state: BodyState, tau, inertia: Inertia) -> tuple[np.ndarray, np.ndarray]:
    """Rigid-body rates: Rdot = R skew(omega), J omegadot = -omega x J omega + tau."""
    w = state.omega
    Rdot = state.R @ skew(w)
    wdot = inertia.J_inv @ (-np.array(cross_f(w, inertia.J @ w)) + np.asarray(tau, dtype=float))
    return Rdot, wdot


def ref_flow(state: RefState, z, m_bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference rates: Rdot = R skew(omega_r), omegadot = z with ||z|| <= m_bound."""
    z = np.asarray(z, dtype=float)
    n = math.sqrt(z @ z)
    if n > m_bound:
        raise ContractError(f"reference acceleration norm {n} exceeds the bound {m_bound}")
    return state.R @ skew(state.omega), z


def tracking_error(body: BodyState, ref: RefState) -> ErrorState:
    """Left-invariant errors R_e = R_r^T R and omega_e = omega - R_e^T omega_r."""
    Re = ref.R.T @ body.R
    return ErrorState(R=Re, omega=body.omega - Re.T @ ref.omega)


# ---------------------------------------------------------------------------
# Kernels on floats: R and J as 9 floats, vectors as 3.  a = R^T omega_r and
# Ja = J a are shared by the feedforward and the coupling term, so a flow
# computes them once and passes them in.


def shared_terms_f(R, omega_r, J) -> tuple:
    """(a, J a) with a = R^T omega_r."""
    a = mat_tvec_f(R, omega_r)
    return a, mat_vec_f(J, a)


def feedforward_f(R, z, a, Ja, J) -> tuple:
    """J R^T z + a x J a."""
    a0, a1, a2 = a
    b0, b1, b2 = mat_vec_f(J, mat_tvec_f(R, z))
    c0, c1, c2 = Ja
    return (b0 + (a1 * c2 - a2 * c1), b1 + (a2 * c0 - a0 * c2), b2 + (a0 * c1 - a1 * c0))


def coupling_times_f(omega_e, a, Ja, J) -> tuple:
    """Coupling matrix times omega_e: Jw x w + Ja x w - a x Jw - J (a x w)."""
    w0, w1, w2 = omega_e
    a0, a1, a2 = a
    p0, p1, p2 = mat_vec_f(J, omega_e)
    q0, q1, q2 = Ja
    r0, r1, r2 = mat_vec_f(J, (a1 * w2 - a2 * w1, a2 * w0 - a0 * w2, a0 * w1 - a1 * w0))
    return (
        (p1 * w2 - p2 * w1) + (q1 * w2 - q2 * w1) - (a1 * p2 - a2 * p1) - r0,
        (p2 * w0 - p0 * w2) + (q2 * w0 - q0 * w2) - (a2 * p0 - a0 * p2) - r1,
        (p0 * w1 - p1 * w0) + (q0 * w1 - q1 * w0) - (a0 * p1 - a1 * p0) - r2,
    )


def error_accel_f(omega_e, a, Ja, ups, tau, J, J_inv) -> tuple:
    """omegadot_e = J^-1 (Sigma omega_e - ups + tau), ups the feedforward at R."""
    s0, s1, s2 = coupling_times_f(omega_e, a, Ja, J)
    return mat_vec_f(J_inv, (s0 - ups[0] + tau[0], s1 - ups[1] + tau[1], s2 - ups[2] + tau[2]))


# ---------------------------------------------------------------------------
# numpy adapters.


def feedforward(Re, omega_r, z, inertia: Inertia) -> np.ndarray:
    """Torque compensating reference acceleration and gyroscopic coupling.

    J R_e^T z + (R_e^T omega_r) x J (R_e^T omega_r); zero for a constant reference.
    """
    R = floats(Re)
    a, Ja = shared_terms_f(R, floats(omega_r), inertia.J_f)
    return np.array(feedforward_f(R, floats(z), a, Ja, inertia.J_f))


def coupling_matrix(Re, omega_e, omega_r, inertia: Inertia) -> np.ndarray:
    """Skew-symmetric coupling matrix of the error dynamics (contributes no power)."""
    J = inertia.J
    a = Re.T @ np.asarray(omega_r, dtype=float)
    ax = skew(a)
    return skew(J @ np.asarray(omega_e, dtype=float)) + skew(J @ a) - (ax @ J + J @ ax)


def coupling_times(Re, omega_e, omega_r, inertia: Inertia) -> np.ndarray:
    """coupling_matrix(...) @ omega_e without forming the matrix."""
    a, Ja = shared_terms_f(floats(Re), floats(omega_r), inertia.J_f)
    return np.array(coupling_times_f(floats(omega_e), a, Ja, inertia.J_f))


def error_flow(err: ErrorState, omega_r, z, tau, inertia: Inertia) -> tuple[np.ndarray, np.ndarray]:
    """Error rates: Rdot_e = R_e skew(omega_e), J omegadot_e = Sigma omega_e - Upsilon + tau."""
    R = floats(err.R)
    we = floats(err.omega)
    a, Ja = shared_terms_f(R, floats(omega_r), inertia.J_f)
    ups = feedforward_f(R, floats(z), a, Ja, inertia.J_f)
    wdot = error_accel_f(we, a, Ja, ups, floats(tau), inertia.J_f, inertia.J_inv_f)
    return np.array(mat_skew_f(R, we)).reshape(3, 3), np.array(wdot)


def apply_noise(
    body: BodyState, sigma_R: float, sigma_omega: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy measurements R_y = R exp(skew(n_R)), omega_y = omega + n_omega.

    Noise components are i.i.d. N(0, sigma^2); zero sigmas give exact
    measurements without consuming random draws.
    """
    if sigma_R < 0.0 or sigma_omega < 0.0:
        raise ContractError("noise standard deviations must be nonnegative")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    R_y = body.R if sigma_R == 0.0 else body.R @ exp_so3(rng.normal(0.0, sigma_R, 3))
    w_y = body.omega if sigma_omega == 0.0 else body.omega + rng.normal(0.0, sigma_omega, 3)
    return R_y, w_y
