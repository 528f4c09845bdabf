"""Inertia, reference generation, and the terms of the tracking-error dynamics.

The feedforward and coupling terms of the error dynamics are written once, as
component-wise kernels (`*_f`) on floats (see `so3`), which read the inertia
J and J^-1 as their diagonal entries, as `Inertia` holds them.

The error dynamics are J omegadot_e = Sigma(omega_e) omega_e - Upsilon + tau,
with the feedforward Upsilon = J R_e^T z + a x J a, a = R_e^T omega_r, at the
true error rotation.  The tracking laws apply tau = Upsilon_m - (feedback),
Upsilon_m the feedforward at the measured rotation, so `error_accel_f` takes
the torque relative to the true feedforward, tau - Upsilon = (Upsilon_m -
Upsilon) - (feedback).  With exact measurements Upsilon_m is Upsilon, the
difference is zero, and the closed loop is J omegadot_e = Sigma(omega_e)
omega_e - (feedback): the flow does not read Upsilon, and the compiled exact
step never evaluates it (see `controllers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, SolverError
from .so3 import diag_floats, floats, mat_tvec_f, norm2_f


@dataclass(frozen=True, eq=False)
class Inertia:
    """Diagonal positive definite inertia J, held as its 3 diagonal entries.

    `J_inv_diag` holds those of J^-1.  ContractError unless J_diag is 3
    finite positive numbers (see `so3.diag_floats`) whose inverses are finite.
    """

    J_diag: tuple
    J_inv_diag: tuple = field(init=False)

    def __post_init__(self):
        J = diag_floats(self.J_diag, "J_diag")
        if not min(J) > 0.0:
            raise ContractError("inertia matrix must be positive definite")
        J_inv = tuple(1.0 / x for x in J)
        if not all(map(math.isfinite, J_inv)):
            raise ContractError(f"the inverse of the inertia matrix is not finite: "
                                f"diagonal {list(J_inv)}")
        object.__setattr__(self, "J_diag", J)
        object.__setattr__(self, "J_inv_diag", J_inv)


@dataclass(frozen=True)
class Reference:
    """Reference acceleration selection z(t) with its declared bounds.

    `m_bound` bounds ||z(t)|| (checked by `z_at`) and `omega_r_bound`
    declares the compact set the reference velocity must stay in (checked by
    `check_omega_r`); the simulation aborts with a `SolverError` that carries
    the time t if either bound is violated.  `z_fn(t, xp)` gives z(t) as 3
    floats, or as 3 arrays over an (n,) array of times with xp = ARRAY_MATH
    (see `so3`).  ContractError for a bound that is not positive.
    """

    name: str
    z_fn: Callable[..., tuple]
    m_bound: float
    omega_r_bound: float

    def __post_init__(self):
        for key in ("m_bound", "omega_r_bound"):
            bound = getattr(self, key)
            if not bound > 0.0:
                raise ContractError(f"'{key}' must be positive, got {bound}")

    def z_at(self, t: float, xp=math) -> tuple:
        """z(t) as 3 floats (3 arrays over a batch of times), checked against `m_bound`.

        SolverError, carrying t, where ||z(t)|| exceeds `m_bound`.
        """
        z = self.z_fn(t, xp)
        n2 = norm2_f(z)
        if xp is not math:  # check the largest norm of the batch, at its time
            n2 = np.broadcast_to(n2, np.shape(t))
            i = int(np.argmax(n2))
            t, n2 = float(t[i]), float(n2[i])
        n = math.sqrt(n2)
        if n > self.m_bound:
            raise SolverError(
                f"reference '{self.name}' at t={t}: ||z|| = {n} exceeds the bound {self.m_bound}",
                t=t,
            )
        return z

    def check_omega_r(self, omega_r, t: float) -> None:
        """SolverError, carrying t, where the reference velocity omega_r leaves its declared set."""
        n2 = norm2_f(omega_r)
        b = self.omega_r_bound
        if n2 > b * b:
            raise SolverError(
                f"reference angular velocity left its declared set at t={t}: "
                f"||omega_r|| = {math.sqrt(n2):.6g} > {b}",
                t=t,
            )


def _paper_sine(t: float, xp=math) -> tuple:
    return (xp.sin(0.1 * t), -xp.cos(0.3 * t), 0.1)


def _rest(t: float, xp=math) -> tuple:
    return (0.0, 0.0, 0.0)


REFERENCE_FUNCTIONS: dict[str, Callable[..., tuple]] = {
    "paper_sine": _paper_sine,
    "rest": _rest,
}


def make_reference(name: str, m_bound: float, omega_r_bound: float) -> Reference:
    """The named reference; ContractError for an unknown name or a bound that is not positive."""
    if name not in REFERENCE_FUNCTIONS:
        raise ContractError(f"unknown reference '{name}', choose from {sorted(REFERENCE_FUNCTIONS)}")
    return Reference(name=name, z_fn=REFERENCE_FUNCTIONS[name], m_bound=m_bound, omega_r_bound=omega_r_bound)


# ---------------------------------------------------------------------------
# Kernels on floats: R as 9 floats, vectors as 3, and J and J^-1 as their 3
# diagonal entries.  a = R^T omega_r and Ja = J a are shared by the
# feedforward and the coupling term, so a flow computes them once and passes
# them in.


def shared_terms_f(R, omega_r, J) -> tuple:
    """(a, J a) with a = R^T omega_r."""
    a = mat_tvec_f(R, omega_r)
    return a, (J[0] * a[0], J[1] * a[1], J[2] * a[2])


def feedforward_f(R, z, a, Ja, J) -> tuple:
    """J R^T z + a x J a."""
    a0, a1, a2 = a
    b0, b1, b2 = mat_tvec_f(R, z)
    c0, c1, c2 = Ja
    return (
        J[0] * b0 + (a1 * c2 - a2 * c1),
        J[1] * b1 + (a2 * c0 - a0 * c2),
        J[2] * b2 + (a0 * c1 - a1 * c0),
    )


def coupling_times_f(omega_e, a, Ja, J) -> tuple:
    """Coupling matrix times omega_e: Jw x w + Ja x w - a x Jw - J (a x w)."""
    w0, w1, w2 = omega_e
    a0, a1, a2 = a
    J0, J1, J2 = J
    p0, p1, p2 = J0 * w0, J1 * w1, J2 * w2
    q0, q1, q2 = Ja
    c0, c1, c2 = a1 * w2 - a2 * w1, a2 * w0 - a0 * w2, a0 * w1 - a1 * w0
    return (
        (p1 * w2 - p2 * w1) + (q1 * w2 - q2 * w1) - (a1 * p2 - a2 * p1) - J0 * c0,
        (p2 * w0 - p0 * w2) + (q2 * w0 - q0 * w2) - (a2 * p0 - a0 * p2) - J1 * c1,
        (p0 * w1 - p1 * w0) + (q0 * w1 - q1 * w0) - (a0 * p1 - a1 * p0) - J2 * c2,
    )


def error_accel_f(omega_e, a, Ja, tau_rel, J, J_inv) -> tuple:
    """omegadot_e = J^-1 (Sigma omega_e + tau_rel), tau_rel the torque minus the feedforward at R.

    J omegadot_e = Sigma omega_e - ups + tau with ups the feedforward at the
    true rotation R; a law passes tau - ups, which it forms without ups where
    its feedforward is taken at R itself.
    """
    s0, s1, s2 = coupling_times_f(omega_e, a, Ja, J)
    return (
        J_inv[0] * (s0 + tau_rel[0]),
        J_inv[1] * (s1 + tau_rel[1]),
        J_inv[2] * (s2 + tau_rel[2]),
    )


def feedforward(Re, omega_r, z, inertia: Inertia) -> np.ndarray:
    """Torque compensating reference acceleration and gyroscopic coupling.

    J R_e^T z + (R_e^T omega_r) x J (R_e^T omega_r); zero for a constant reference.
    """
    R = floats(Re)
    a, Ja = shared_terms_f(R, floats(omega_r), inertia.J_diag)
    return np.array(feedforward_f(R, floats(z), a, Ja, inertia.J_diag))
