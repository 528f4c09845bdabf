"""Rigid-body and reference dynamics in absolute coordinates, for the tests.

An independent oracle for the tracking-error dynamics of the package: the
body and the reference are simulated as two rigid bodies, and the errors are
read off their states.  It shares no code with the package's kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from so3track import skew
from so3track.errors import ContractError


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


def body_flow(state: BodyState, tau, inertia) -> tuple[np.ndarray, np.ndarray]:
    """Rigid-body rates: Rdot = R skew(omega), J omegadot = -omega x J omega + tau."""
    w = state.omega
    Rdot = state.R @ skew(w)
    J = np.diag(inertia.J_diag)
    wdot = np.diag(inertia.J_inv_diag) @ (-np.cross(w, J @ w) + np.asarray(tau, dtype=float))
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


def coupling_matrix(Re, omega_e, omega_r, inertia) -> np.ndarray:
    """Skew-symmetric coupling matrix of the error dynamics (contributes no power)."""
    J = np.diag(inertia.J_diag)
    a = Re.T @ np.asarray(omega_r, dtype=float)
    ax = skew(a)
    return skew(J @ np.asarray(omega_e, dtype=float)) + skew(J @ a) - (ax @ J + J @ ax)
