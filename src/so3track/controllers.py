"""Hybrid warp-angle subsystem and the four attitude tracking feedback laws.

The warp angle flows down the potential gradient while the extended state is
away from the unwanted critical configurations, and jumps near them.  One rule
gives every hybrid law its sets and its jump map: a warp angle's gap is its
value minus the least value over the finite reset set, the jump set is where
a gap reaches a threshold, and a jump resets the angle to the reset angle of
least value, so the monitor drops by at least the designed amount.  Three
hybrid torque laws build on this mechanism:

  * basic: gradient feedback plus velocity damping; the value is the
    potential, the threshold delta, and the torque jumps with the warp angle.
  * smooth: the gradient term is routed through a first-order filter state
    that does not jump, so the torque stays continuous; the value is a
    filtered potential with its own (smaller) threshold delta', and a jump
    resets theta to the least filtered value.
  * velocity_free: damping is generated by an auxiliary rotation state driven
    by attitude information only; the torque never reads an angular velocity.
    Its auxiliary rotation has a second warp angle, under the same rule.

A non-hybrid baseline (the basic law with the warp angle frozen at zero) is
included for comparisons.

Each law is written once, as a component-wise kernel (`*_f`) on floats (see
`so3`).  The closed loops evaluate the kernels on the state as a tuple of
floats and draw and apply the measurement noise in floats; after a run they
evaluate the same kernels once more on the recorded states as column arrays
to fill the recorded columns.

The flow is compiled.  A loop's `_rates` composes the kernels, and its first
flow evaluation traces `_rates` on symbolic floats into one straight-line
function (see `straightline`), one for exact and one for noisy measurements.
A flow then costs its arithmetic and little else: no kernel calls, tuple
packing, slicing or attribute lookups.  The function is traced rather than
written out by hand so that every formula keeps a single source; the traced
code runs the same IEEE operations in the same expression tree as `_rates`,
so both return the same bits.  `flow` checks the reference velocity and
acceleration bounds itself, outside the compiled code, since they branch on
data; `jump_margin`, `jump` and `project` branch on data too and stay
interpreted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import straightline
from .errors import ContractError, SolverError
from .hybrid import HybridSystem
from .potential import (
    PotentialParams,
    grad_rotation_rate_f,
    gradient_bounds,
    gradients_f,
    gradients_w_f,
    value_f,
    value_w_f,
    warp_rotation_f,
)
from .rigid_body import (
    Inertia,
    Reference,
    error_accel_f,
    feedforward_f,
    shared_terms_f,
)
from .so3 import (
    ARRAY_MATH,
    columns,
    diag_floats,
    diag_mul_f,
    exp_so3_f,
    mat_mul_f,
    mat_skew_f,
    mat_vec_f,
    orthonormalize_f,
    rot_distance_f,
)

_EYE_F = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_ZERO_F = (0.0, 0.0, 0.0)


class Measurement(NamedTuple):
    """One sample of measurement noise, held constant over an integration step.

    E is 9 floats and n_omega 3 (see `so3`); `record` passes (n,) arrays.
    """

    E: tuple  # attitude noise rotation, R_y = R @ E
    n_omega: tuple


@dataclass(frozen=True, eq=False)
class Gains:
    """Feedback gains; each loop class checks the ones its law reads (`check`).

    Gamma, the velocity-free law's filter gain, is a diagonal 3x3 matrix
    with positive entries; the law reads only its diagonal.
    """

    k_R: float
    k_omega: float | None = None
    k_theta: float | None = None
    k_zeta: float | None = None
    k_beta: float | None = None
    Gamma: np.ndarray | None = None
    rho: float | None = None
    delta_prime: float | None = None


def filter_gain_bound(gains: Gains, params: PotentialParams) -> float:
    """Sufficient filter rate max{k_R (1 + rho c_R)^2 / (rho k_omega), c_theta^2 k_theta rho}."""
    bd = gradient_bounds(params)
    a = gains.k_R * (1.0 + gains.rho * bd.c_R) ** 2 / (gains.rho * gains.k_omega)
    b = bd.c_theta * bd.c_theta * gains.k_theta * gains.rho
    return max(a, b)


# ---------------------------------------------------------------------------
# Kernels on floats (see `so3`): the smooth law's filtered potential and the
# torque laws.  AR is A @ R as 9 floats (see `potential`), ups the feedforward.


def filtered_value_w_f(AR, W, theta: float, zeta, p: PotentialParams, rho: float) -> float:
    """Potential plus rho times the squared mismatch between zeta and the rotation gradient.

    W is the warp rotation of theta.
    """
    g0, g1, g2, _ = gradients_w_f(AR, W, theta, p)
    d0, d1, d2 = zeta[0] - g0, zeta[1] - g1, zeta[2] - g2
    return value_w_f(AR, W, theta, p) + rho * (d0 * d0 + d1 * d1 + d2 * d2)


def torque_basic_f(ups, g_rot, omega_e, gains: Gains) -> tuple:
    """ups - 2 k_R g_rot - k_omega omega_e.

    The basic law, and with the warp angle frozen the non-hybrid baseline; the
    smooth law passes its filter state as g_rot.
    """
    k = 2.0 * gains.k_R
    kw = gains.k_omega
    return (
        ups[0] - k * g_rot[0] - kw * omega_e[0],
        ups[1] - k * g_rot[1] - kw * omega_e[1],
        ups[2] - k * g_rot[2] - kw * omega_e[2],
    )


def torque_velocity_free_f(ups, g1, g2, gains: Gains) -> tuple:
    """ups - 2 k_R g1 - 2 k_beta g2.

    g1 and g2 are the rotation gradients at the error and auxiliary rotations.
    """
    k1 = 2.0 * gains.k_R
    k2 = 2.0 * gains.k_beta
    return (
        ups[0] - k1 * g1[0] - k2 * g2[0],
        ups[1] - k1 * g1[1] - k2 * g2[1],
        ups[2] - k1 * g1[2] - k2 * g2[2],
    )


def zeta_flow_f(AR, theta: float, zeta, omega_e, g_rot, g_th: float, p: PotentialParams,
                gains: Gains, relaxed: bool, xp=math) -> tuple:
    """Filter rate -k_zeta (zeta - g_rot).

    The relaxed form adds the gradient rate and omega_e / rho.
    """
    k = -gains.k_zeta
    out = (k * (zeta[0] - g_rot[0]), k * (zeta[1] - g_rot[1]), k * (zeta[2] - g_rot[2]))
    if not relaxed:
        return out
    r = grad_rotation_rate_f(AR, theta, omega_e, -gains.k_theta * g_th, p, xp)
    rho = gains.rho
    return tuple(out[i] + r[i] + omega_e[i] / rho for i in range(3))


def aux_flow_f(Rtilde, omega_e, g_rot, Gamma, E=None) -> tuple:
    """Rate Rtilde skew(omega_e - beta) of the auxiliary rotation, beta = Gamma g_rot.

    Gamma is its 3 diagonal entries.  With a measurement, g_rot is taken at
    Rtilde E and beta is rotated back by E.
    """
    beta = (Gamma[0] * g_rot[0], Gamma[1] * g_rot[1], Gamma[2] * g_rot[2])
    if E is not None:
        beta = mat_vec_f(E, beta)
    return mat_skew_f(Rtilde, (omega_e[0] - beta[0], omega_e[1] - beta[1], omega_e[2] - beta[2]))


@dataclass(frozen=True)
class NoiseModel:
    """Per-axis measurement noise standard deviations (zero disables a channel)."""

    sigma_R: float = 0.0
    sigma_omega: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.sigma_R > 0.0 or self.sigma_omega > 0.0


# ---------------------------------------------------------------------------
# Closed loops.


class _TrackingLoop(HybridSystem):
    """Shared plumbing: reference inputs, measurement sampling, projection, records.

    The loop methods evaluate the kernels on the state as a sequence of floats
    (`solve` passes tuples; see `HybridSystem`); each subclass's `_control`
    gives the torque and the terms its flow shares with it, and its `_rates`
    the flow, which `flow` runs compiled.  `_control`, `_monitor` and
    `_columns` also run on a batch: state entries and measurement fields as
    (n,) arrays, t an (n,) array, xp = ARRAY_MATH.  Each law defines its
    monitor once, by `_monitor`.

    The sets and the jump map follow the jump rule of the module docstring,
    applied here once by `_gaps`: a law declares only its warp angles
    (`warp_angles`), the value whose gap it watches (`_value_w`) and the
    gap's threshold (`_threshold`), and a jump drops the monitor by at least
    `jump_drop`.  Each law class binds `flow = _TrackingLoop._flow` in its
    own body, so that per-law profiles (`perfbench/layers.py`) can tell the
    laws' flows apart.

    Everything else a law needs is declared on its class too: its state
    fields (`state_fields`, read by `pack`), the gains it reads (`gain_names`
    and `check`), its linearised decay rates (`decay_rates`) and whether its
    torque must stay continuous across jumps (`continuous_torque`).
    """

    # The packed state in error coordinates: the error rotation R_e, the warp
    # angle, the velocity error omega_e and the reference velocity omega_r;
    # each law appends its own states.  The reference attitude enters no law,
    # set or monitor, so it is not integrated.
    R_E = slice(0, 9)
    THETA = 9
    OMEGA_E = slice(10, 13)
    OMEGA_R = slice(13, 16)
    WIDTH = 16
    # (field, offset) of each initial-state field that `pack` takes.
    state_fields: tuple = (("Re", R_E), ("theta", THETA), ("omega_e", OMEGA_E),
                           ("omega_r", OMEGA_R))
    rotation_slices: tuple = (R_E,)
    # (name, rotation slice, index) of each warp angle in the packed state:
    # its gap is taken at that rotation.
    warp_angles: tuple = (("theta", R_E, THETA),)
    # The gains the law reads that `check` requires to be positive, in the
    # order it checks them.
    gain_names: tuple = ("k_R", "k_theta", "k_omega")
    continuous_torque = False  # whether `certify_arc` requires the torque not to jump

    def __init__(self, params: PotentialParams, gains: Gains, inertia: Inertia,
                 reference: Reference, noise: NoiseModel | None = None, relaxed: bool = False):
        """`relaxed` selects the relaxed flow of a law's filter state; a law without one ignores it."""
        self.params = params
        self.gains = gains
        self.inertia = inertia
        self.reference = reference
        self.noise = noise if (noise is not None and noise.enabled) else None
        self.relaxed = relaxed
        self._cores = [None, None]  # compiled `_rates`, noisy and exact (index: meas is None)
        self._threshold = params.delta  # the gap at which a warp angle jumps

    @classmethod
    def pack(cls, **state) -> np.ndarray:
        """The packed state of the fields named in `state_fields`, each at its offset.

        Rotations are 3x3 arrays, packed row-major.  ContractError for a
        missing or an unknown field.
        """
        names = [name for name, _ in cls.state_fields]
        missing = [n for n in names if n not in state]
        unknown = [n for n in state if n not in names]
        if missing or unknown:
            raise ContractError(f"a {cls.kind} loop state has the fields {names}; "
                                f"missing {missing}, unknown {unknown}")
        y = np.empty(cls.WIDTH)
        for name, at in cls.state_fields:
            y[at] = np.reshape(state[name], np.shape(y[at]))
        return y

    @property
    def jump_drop(self) -> float:
        """k_R times the threshold: the monitor's designed drop at a jump."""
        return self.gains.k_R * self._threshold

    def check(self) -> list[str]:
        """Validate the gains the law reads; returns advisory warnings.

        ContractError for a gain of `gain_names` that is missing or not
        positive.  A law that checks more extends this.
        """
        for name in self.gain_names:
            v = getattr(self.gains, name)
            if v is None or v <= 0.0:
                raise ContractError(f"{name} must be positive")
        return []

    def decay_rates(self) -> list:
        """(rate, source) of each linearised decay mode of the closed loop.

        Here the warp-angle flow: k_theta times the curvature bound
        gamma + lambda_2(A) + lambda_3(A) of the potential in theta.  A law
        extends the list with its own modes.  `validate_scenario` compares
        the fastest with the RK4 stability limit; the estimate reads one mode
        at a time and ignores the coupling between them, so it is a guide,
        not a proof of stability.
        """
        p = self.params
        return [(self.gains.k_theta * (p.gamma + gradient_bounds(p).c_psi),
                 "k_theta times the warp-angle curvature bound")]

    def _velocity_damping(self) -> tuple:
        """(rate, source) of the velocity damping of a law that reads the velocity."""
        return self.gains.k_omega / min(self.inertia.J_f), "k_omega / lambda_min(J)"

    def sample_measurement(self, rng):
        n = self.noise
        if n is None:
            return None
        E = exp_so3_f(*rng.normal(0.0, n.sigma_R, 3).tolist()) if n.sigma_R > 0.0 else _EYE_F
        nw = tuple(rng.normal(0.0, n.sigma_omega, 3).tolist()) if n.sigma_omega > 0.0 else _ZERO_F
        return Measurement(E, nw)

    def project(self, y):
        out = list(y)
        for sl in self.rotation_slices:
            out[sl] = orthonormalize_f(y[sl])
        return tuple(out)

    def _guard_reference(self, omega_r, t: float) -> None:
        n2 = omega_r[0] * omega_r[0] + omega_r[1] * omega_r[1] + omega_r[2] * omega_r[2]
        b = self.reference.omega_r_bound
        if n2 > b * b:
            raise SolverError(
                f"reference angular velocity left its declared set at t={t}: "
                f"||omega_r|| = {math.sqrt(n2):.6g} > {b}",
                t=t,
            )

    def _feedforward(self, R, omega_r, z) -> tuple:
        """(a, J a, feedforward) at rotation R, with a = R^T omega_r."""
        J = self.inertia.J_f
        a, Ja = shared_terms_f(R, omega_r, J)
        return a, Ja, feedforward_f(R, z, a, Ja, J)

    def _measured(self, Re, omega_e, omega_r, z, a, ups, meas):
        """Measured error rotation, velocity error, and the feedforward at the measured rotation.

        omega_y = omega + n_omega, so the measured velocity error
        omega_y - R_m^T omega_r is omega_e + (R_e^T - R_m^T) omega_r + n_omega,
        with a = R_e^T omega_r.
        """
        if meas is None:
            return Re, omega_e, ups
        E, n = meas
        Rm = mat_mul_f(Re, E)
        am, _, ups_m = self._feedforward(Rm, omega_r, z)
        wem = (
            omega_e[0] + (a[0] - am[0]) + n[0],
            omega_e[1] + (a[1] - am[1]) + n[1],
            omega_e[2] + (a[2] - am[2]) + n[2],
        )
        return Rm, wem, ups_m

    def _accel(self, omega_e, a, Ja, ups, tau) -> tuple:
        J = self.inertia
        return error_accel_f(omega_e, a, Ja, ups, tau, J.J_f, J.J_inv_f)

    def _kinetic(self, omega_e) -> float:
        J0, J1, J2 = self.inertia.J_f
        w0, w1, w2 = omega_e
        return 0.5 * (w0 * (J0 * w0) + w1 * (J1 * w1) + w2 * (J2 * w2))

    def _control(self, z, v, meas, xp=math) -> tuple:
        """Kernel terms at state v and reference acceleration z; index 0 is the applied torque."""
        raise NotImplementedError

    def _rates(self, t, y, meas, z, xp=math) -> tuple:
        """The flow at state y under reference acceleration z, without the reference guard.

        The source that `_flow` compiles; `t` enters only through z.
        """
        raise NotImplementedError

    def _flow(self, t, y, meas):
        """Check the reference bounds, then evaluate the compiled `_rates`.

        Each measurement kind (exact or noisy) gets its own straight-line
        function, traced from `_rates` on its first use and kept on the loop.
        """
        self._guard_reference(y[self.OMEGA_R], t)
        z = self.reference.z_at(t)
        exact = meas is None
        core = self._cores[exact]
        if core is None:
            core = self._cores[exact] = self._compile_rates(exact)
        return core(y, meas, z)

    def _compile_rates(self, exact: bool):
        def rates(xp, y, meas, z):
            return self._rates(None, y, None if exact else Measurement(*meas), z, xp)

        return straightline.compile_traced(rates, f"{self.kind}_rates", y=self.WIDTH,
                                           meas=None if exact else (9, 3), z=3)

    def _monitor(self, v, xp=math) -> tuple:
        """(potential at the error rotation, monitor value) at state v."""
        raise NotImplementedError

    def _extra_columns(self, v, xp=math) -> tuple:
        """Values of the columns a loop adds to the shared ones."""
        return ()

    def _columns(self, t, v, meas, in_jump, xp=math) -> tuple:
        """The recorded columns at state v under measurement meas."""
        U, lyap = self._monitor(v, xp)
        tau = self._control(self.reference.z_at(t, xp), v, meas, xp)[0]
        return (
            rot_distance_f(v[self.R_E], xp), v[self.THETA], *v[self.OMEGA_E],
            tau[0], tau[1], tau[2], U, lyap,
            in_jump * 1.0,
            *self._extra_columns(v, xp),
        )

    def torque(self, t: float, y, meas) -> np.ndarray:
        """The applied torque at time t and state y under measurement meas."""
        return np.array(self._control(self.reference.z_at(t), y, meas)[0])

    def record(self, t, j, states, noise, in_jump):
        """All recorded columns in one pass of the kernels over the column arrays."""
        meas = None
        if noise is not None:
            n = columns(noise)
            meas = Measurement(tuple(n[0:9]), tuple(n[9:12]))
        return self._columns(t, columns(states), meas, in_jump, ARRAY_MATH)

    def lyapunov_packed(self, y) -> float:
        """The loop's monitor at packed state y."""
        return self._monitor(y)[1]

    def _value_w(self, AR, W, theta: float, y) -> float:
        """The value whose gap defines the sets, at AR = A R_m and the warp rotation W of theta."""
        return value_w_f(AR, W, theta, self.params)

    def _gaps(self, y, meas) -> list:
        """(gap, best reset angle) of each warp angle, at its measured rotation R_m = R E.

        The best reset angle is the one of least value; ties go to the first
        angle of `theta_set`.
        """
        p = self.params
        value = self._value_w
        out = []
        for _, sl, i in self.warp_angles:
            AR = diag_mul_f(p._A_f, y[sl] if meas is None else mat_mul_f(y[sl], meas.E))
            best_t, best_v = p.theta_set[0], math.inf
            for tp, W in p._resets:
                v = value(AR, W, tp, y)
                if v < best_v:
                    best_t, best_v = tp, v
            th = y[i]
            out.append((value(AR, warp_rotation_f(th, p), th, y) - best_v, best_t))
        return out

    def jump_margin(self, t, y, meas):
        """The largest gap minus the threshold; -inf for a loop without a warp angle."""
        gaps = self._gaps(y, meas)
        return max(gaps)[0] - self._threshold if gaps else -math.inf

    def jump(self, t, y, meas):
        """Reset each warp angle whose gap reaches the threshold (a filter state does not jump).

        SolverError if no gap reaches it: the state is outside the jump set.
        """
        out = list(y)
        fired = False
        for (g, best), (_, _, i) in zip(self._gaps(y, meas), self.warp_angles):
            if g >= self._threshold:
                out[i] = best
                fired = True
        if not fired:
            raise SolverError(f"the {self.kind} jump map was applied outside the jump set")
        return tuple(out)


class BasicLoop(_TrackingLoop):
    kind = "basic"
    columns = (
        "dist_Re", "theta", "we_x", "we_y", "we_z",
        "tau_x", "tau_y", "tau_z", "U", "lyap", "in_jump_set",
    )

    def _control(self, z, v, meas, xp=math):
        """(torque, a, J a, feedforward at R_e, warp gradient)."""
        p = self.params
        Re, wr = v[self.R_E], v[self.OMEGA_R]
        a, Ja, ups = self._feedforward(Re, wr, z)
        Rm, wem, ups_m = self._measured(Re, v[self.OMEGA_E], wr, z, a, ups, meas)
        g0, g1, g2, g_th = gradients_f(diag_mul_f(p._A_f, Rm), v[self.THETA], p, xp)
        return torque_basic_f(ups_m, (g0, g1, g2), wem, self.gains), a, Ja, ups, g_th

    flow = _TrackingLoop._flow

    def _rates(self, t, y, meas, z, xp=math):
        Re, we = y[self.R_E], y[self.OMEGA_E]
        tau, a, Ja, ups, g_th = self._control(z, y, meas, xp)
        return (
            *mat_skew_f(Re, we), -self.gains.k_theta * g_th,
            *self._accel(we, a, Ja, ups, tau), *z,
        )

    def _monitor(self, v, xp=math):
        p = self.params
        U = value_f(diag_mul_f(p._A_f, v[self.R_E]), v[self.THETA], p, xp)
        return U, self.gains.k_R * U + self._kinetic(v[self.OMEGA_E])

    def decay_rates(self):
        return super().decay_rates() + [self._velocity_damping()]


class NonHybridLoop(BasicLoop):
    kind = "non_hybrid"
    warp_angles = ()  # no jump set
    jump_drop = 0.0
    gain_names = ("k_R", "k_omega")

    flow = _TrackingLoop._flow

    def _rates(self, t, y, meas, z, xp=math):
        """The basic flow with the warp angle frozen; k_theta is never read."""
        Re, we = y[self.R_E], y[self.OMEGA_E]
        tau, a, Ja, ups, _ = self._control(z, y, meas, xp)
        return (*mat_skew_f(Re, we), 0.0, *self._accel(we, a, Ja, ups, tau), *z)

    def decay_rates(self):
        """The velocity damping alone: the warp angle is frozen."""
        return [self._velocity_damping()]


class SmoothLoop(_TrackingLoop):
    kind = "smooth"
    ZETA = slice(16, 19)
    WIDTH = 19
    state_fields = _TrackingLoop.state_fields + (("zeta", ZETA),)
    gain_names = _TrackingLoop.gain_names + ("k_zeta", "rho")
    continuous_torque = True  # the filter state, not the warp gradient, enters the torque
    columns = BasicLoop.columns + ("zeta_x", "zeta_y", "zeta_z")

    def __init__(self, params, gains, inertia, reference, noise=None, relaxed: bool = False):
        super().__init__(params, gains, inertia, reference, noise, relaxed)
        self._threshold = gains.delta_prime

    def check(self):
        """Also delta_prime in (0, delta).

        The filter-rate sufficient bound and the filtered-gap margin bound are
        advisory: values beyond them are reported, not rejected.
        """
        notes = super().check()
        p, gn = self.params, self.gains
        if gn.delta_prime is None or not 0.0 < gn.delta_prime < p.delta:
            raise ContractError("delta_prime must lie in (0, delta)")
        c_psi = gradient_bounds(p).c_psi
        rho_bound = (p.delta - gn.delta_prime) / (c_psi * c_psi)
        if gn.rho >= rho_bound:
            notes.append(
                f"rho = {gn.rho} exceeds the certified filtered-gap bound "
                f"(delta - delta_prime)/c_psi^2 = {rho_bound:.6g}; the jump-set "
                "margin at the unwanted critical points is no longer guaranteed"
            )
        try:
            kz_star = filter_gain_bound(gn, p)
        except (OverflowError, ZeroDivisionError):
            kz_star = math.inf
        if not math.isfinite(kz_star):
            raise ContractError(f"the sufficient filter rate k_zeta* is not finite for "
                                f"k_R = {gn.k_R}, k_omega = {gn.k_omega}, "
                                f"k_theta = {gn.k_theta} and rho = {gn.rho}")
        if gn.k_zeta <= kz_star:
            notes.append(
                f"k_zeta = {gn.k_zeta} is below the sufficient bound "
                f"k_zeta* = {kz_star:.6g}; flow decrease of the filtered "
                "monitor is not certified (it may still hold)"
            )
        return notes

    def decay_rates(self):
        return super().decay_rates() + [(self.gains.k_zeta, "k_zeta"), self._velocity_damping()]

    def _control(self, z, v, meas, xp=math):
        """(torque, a, J a, feedforward at R_e, A R_m, measured velocity error, gradients)."""
        p = self.params
        Re, wr = v[self.R_E], v[self.OMEGA_R]
        a, Ja, ups = self._feedforward(Re, wr, z)
        Rm, wem, ups_m = self._measured(Re, v[self.OMEGA_E], wr, z, a, ups, meas)
        AR = diag_mul_f(p._A_f, Rm)
        g0, g1, g2, g_th = gradients_f(AR, v[self.THETA], p, xp)
        tau = torque_basic_f(ups_m, v[self.ZETA], wem, self.gains)
        return tau, a, Ja, ups, AR, wem, (g0, g1, g2), g_th

    flow = _TrackingLoop._flow

    def _rates(self, t, y, meas, z, xp=math):
        gn = self.gains
        Re, th, we = y[self.R_E], y[self.THETA], y[self.OMEGA_E]
        tau, a, Ja, ups, AR, wem, g, g_th = self._control(z, y, meas, xp)
        zdot = zeta_flow_f(AR, th, y[self.ZETA], wem, g, g_th, self.params, gn, self.relaxed, xp)
        return (
            *mat_skew_f(Re, we), -gn.k_theta * g_th,
            *self._accel(we, a, Ja, ups, tau), *z, *zdot,
        )

    def _value_w(self, AR, W, theta, y):
        """The filtered value: the jump resets theta to its least value, not the potential's."""
        return filtered_value_w_f(AR, W, theta, y[self.ZETA], self.params, self.gains.rho)

    def _monitor(self, v, xp=math):
        p, gn = self.params, self.gains
        th = v[self.THETA]
        AR = diag_mul_f(p._A_f, v[self.R_E])
        W = warp_rotation_f(th, p, xp)
        V = filtered_value_w_f(AR, W, th, v[self.ZETA], p, gn.rho)
        return value_w_f(AR, W, th, p), gn.k_R * V + self._kinetic(v[self.OMEGA_E])

    def _extra_columns(self, v, xp=math):
        return v[self.ZETA]


class VelocityFreeLoop(_TrackingLoop):
    kind = "velocity_free"
    R_TILDE = slice(16, 25)
    THETA_BAR = 25
    WIDTH = 26
    state_fields = _TrackingLoop.state_fields + (("Rtilde", R_TILDE), ("theta_bar", THETA_BAR))
    rotation_slices = _TrackingLoop.rotation_slices + (R_TILDE,)
    warp_angles = _TrackingLoop.warp_angles + (("theta_bar", R_TILDE, THETA_BAR),)
    gain_names = ("k_R", "k_theta", "k_beta")
    columns = BasicLoop.columns + ("dist_Rtilde", "theta_bar")

    def __init__(self, params, gains, inertia, reference, noise=None, relaxed: bool = False):
        super().__init__(params, gains, inertia, reference, noise, relaxed)
        self._Gamma = diag_floats(gains.Gamma, "Gamma") if gains.Gamma is not None else None

    def check(self):
        """Also a filter gain Gamma with positive diagonal entries."""
        notes = super().check()
        if self._Gamma is None:
            raise ContractError("Gamma matrix is required")
        if not min(self._Gamma) > 0.0:
            raise ContractError("Gamma must be positive definite")
        return notes

    @property
    def jump_drop(self) -> float:
        """min(k_R, k_beta) delta: whichever warp angle resets drops its term by delta."""
        return min(self.gains.k_R, self.gains.k_beta) * self._threshold

    def _control(self, z, v, meas, xp=math):
        """(torque, a, J a, feedforward at R_e, auxiliary gradient, both warp gradients, E)."""
        p = self.params
        Re, wr, Rt = v[self.R_E], v[self.OMEGA_R], v[self.R_TILDE]
        a, Ja, ups = self._feedforward(Re, wr, z)
        if meas is None:
            E, ups_m = None, ups
        else:
            E = meas.E
            Re, Rt = mat_mul_f(Re, E), mat_mul_f(Rt, E)
            ups_m = self._feedforward(Re, wr, z)[2]
        a0, a1, a2, a_th = gradients_f(diag_mul_f(p._A_f, Re), v[self.THETA], p, xp)
        b0, b1, b2, b_th = gradients_f(diag_mul_f(p._A_f, Rt), v[self.THETA_BAR], p, xp)
        g2 = (b0, b1, b2)
        tau = torque_velocity_free_f(ups_m, (a0, a1, a2), g2, self.gains)
        return tau, a, Ja, ups, g2, a_th, b_th, E

    flow = _TrackingLoop._flow

    def _rates(self, t, y, meas, z, xp=math):
        k_th = self.gains.k_theta
        Re, we = y[self.R_E], y[self.OMEGA_E]
        tau, a, Ja, ups, g2, a_th, b_th, E = self._control(z, y, meas, xp)
        return (
            *mat_skew_f(Re, we), -k_th * a_th,
            *self._accel(we, a, Ja, ups, tau), *z,
            *aux_flow_f(y[self.R_TILDE], we, g2, self._Gamma, E), -k_th * b_th,
        )

    def _monitor(self, v, xp=math):
        p, gn = self.params, self.gains
        U1 = value_f(diag_mul_f(p._A_f, v[self.R_E]), v[self.THETA], p, xp)
        U2 = value_f(diag_mul_f(p._A_f, v[self.R_TILDE]), v[self.THETA_BAR], p, xp)
        return U1, gn.k_R * U1 + gn.k_beta * U2 + self._kinetic(v[self.OMEGA_E])

    def _extra_columns(self, v, xp=math):
        return rot_distance_f(v[self.R_TILDE], xp), v[self.THETA_BAR]


LOOP_CLASSES = {cls.kind: cls for cls in (BasicLoop, SmoothLoop, VelocityFreeLoop, NonHybridLoop)}


def make_loop(kind: str, params: PotentialParams, gains: Gains, inertia: Inertia,
              reference: Reference, noise: NoiseModel | None = None,
              relaxed_filter: bool = False):
    """Build a closed loop of the given kind; `loop.check()` gives its gain advisories."""
    if kind not in LOOP_CLASSES:
        raise ContractError(f"unknown controller '{kind}', choose from {tuple(LOOP_CLASSES)}")
    return LOOP_CLASSES[kind](params, gains, inertia, reference, noise, relaxed_filter)
