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

Each law is written once, as its loop's `_rates`: the flow and the torque,
composed of component-wise kernels (`*_f`) on floats (see `so3`), with one
torque kernel, `torque_f`, for every law.  A law applies the torque
tau = Upsilon_m - (feedback), Upsilon_m the feedforward at the measured
rotation, and its flow reads tau relative to the feedforward Upsilon at the
true rotation: `torque_f` over Upsilon_m - Upsilon (see `rigid_body`).  With
exact measurements that difference is the constant zero, so the closed loop
is J omegadot_e = Sigma(omega_e) omega_e - (feedback): the rates do not
read Upsilon, and the compiled step, which keeps only the operations its
result depends on, never evaluates it; `torque` and the recorded torque
columns do.  The closed loops evaluate the kernels on the state as a tuple
of floats and apply the measurement noise in floats, drawn and exponentiated
a block at a time on columns; after a run they evaluate the same kernels
once more on the recorded states as column arrays to fill the recorded
columns.

The step is compiled.  `flow` evaluates `_rates` as written, after the
reference velocity and acceleration checks, and `torque` reads it too.
`step` runs one RK4 step as one straight-line
function (see `straightline`): `HybridSystem.step`, the one RK4 source,
traced on symbolic floats over `_rates` and the reference's `z_fn`.  A step
then costs its arithmetic and little else: no kernel calls, tuple packing,
slicing or attribute lookups.  It is traced rather than written out by hand
so that every formula keeps a single source; the traced code runs the same
IEEE operations in the same expression tree, so it returns the bits of
`HybridSystem.step` on `flow`.

`_compile` traces each loop structure (law, `relaxed`, measurement kind,
reference function) once per process, into the one module cache `_TRACES`,
with the gains, the inertia and the potential's parameters as inputs; each
loop then binds its own values, and the nodes that depend on them alone are
evaluated once, at the binding.  Tracing and binding happen at a loop's
first step for each measurement kind and reference function.  The reference
checks branch on data, so the compiled step returns the norms they test, and
`step` checks them after the call; where one fails, or the compiled code
raises, the step is taken again through `flow`, which raises the error with
its message and time.

`solve` takes the steps of its runs through the run hook, `flow_steps`: one
call of a compiled run (see `runs`), made once per process for each loop
class and measurement kind and kept in `_TRACES`, takes up to a whole run of
steps, each as `solve`, `step` and `project` would.

The jump rule's values go through `_compile` too: `_values`, the value of
each warp angle and of every reset angle, is traced once per process for
each (law, measurement kind, number of reset angles), with `theta_set` among
the parameters, so the reset rotations are evaluated at each binding, not
at each call.  The one trace is bound twice: to `math`, for `jump_margin`
and `jump` on a state's floats, and to `ARRAY_MATH`, for `jump_margins` on
the (n,) columns of a run's samples (see `hybrid.solve`).  The two picks
that branch on data, the least reset value and the largest gap, are written
once, in `_picks`, over a `where`: a conditional expression for floats and
`np.where` for columns.  The margin stays a kernel of its own, not part of
the step, since a kernel past 256 locals pays an `EXTENDED_ARG` on each
access to the ones past it (see `straightline`).  A run shorter than
MARGIN_BATCH_MIN samples takes `jump_margin` sample by sample instead, which
is cheaper there and gives the same bits.

The record pass goes through `_compile` as well: `_recorded`, the applied
torque, the potential and the monitor, is traced once per process for each
(law, `relaxed`, measurement kind) and bound to `ARRAY_MATH`, so the flow
rates that `_rates` computes beside the torque drop out of it.  z enters as
an input, computed and norm-checked by `z_at` outside, as are the clamped
distance columns (`rot_distance_f`) and the pass-through state columns.
`project` stays interpreted.

A measurement is a row of 12 floats, the noise rotation E row-major, then
n_omega: `measurements` draws them a block at a time (see
`hybrid.HybridSystem`), and the compiled kernels take the row as it is.
`_rates` and `_values` read the (E, n_omega) view of a row, a
`Measurement`, which `_compile` builds inside the trace, so the compiled
code holds no view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
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
from .runs import run_function
from .rigid_body import (
    Inertia,
    Reference,
    error_accel_f,
    feedforward_f,
    shared_terms_f,
)
from .so3 import (
    ARRAY_MATH,
    choose,
    columns,
    diag_floats,
    diag_mul_f,
    exp_so3_f,
    mat_mul_f,
    mat_skew_f,
    mat_vec_f,
    norm2_f,
    orthonormalize_f,
    rot_distance_f,
)

_EYE_F = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_ZERO_F = (0.0, 0.0, 0.0)

# Measurement rows per block: a block is 3 x 1024 normals per noisy channel.
NOISE_BLOCK = 1024

# Samples from which `jump_margins` runs the margin trace on columns.  A batch
# call costs nearly all of its time whatever its length, so a shorter batch is
# taken sample by sample, where that is cheaper.
MARGIN_BATCH_MIN = 32

# The traced kernels of each loop structure, keyed by (loop class, kernel
# name, *structure) (see `_TrackingLoop._compile`), and the compiled run of
# flow steps of each loop class and measurement kind (`_compile_run`).  A
# trace depends on nothing else, so every loop of one structure in the
# process shares it.
_TRACES: dict = {}


class Measurement(NamedTuple):
    """The view that `_rates` and `_values` read of a measurement row of 12 floats.

    E is its first 9 (see `so3`), n_omega its last 3, each floats or (n,)
    arrays.
    """

    E: tuple  # attitude noise rotation, R_y = R @ E
    n_omega: tuple


def _view(meas):
    """The Measurement of a row, None for None (exact measurements)."""
    return None if meas is None else Measurement(meas[:9], meas[9:])


@dataclass(frozen=True, eq=False)
class Gains:
    """Feedback gains; each loop class checks the ones its law reads (`check`).

    Gamma_diag holds the velocity-free law's diagonal filter gain Gamma as
    its 3 entries: ContractError on construction unless it is None or 3
    finite numbers (see `so3.diag_floats`).
    """

    k_R: float
    k_omega: float | None = None
    k_theta: float | None = None
    k_zeta: float | None = None
    k_beta: float | None = None
    Gamma_diag: tuple | None = None
    rho: float | None = None
    delta_prime: float | None = None

    def __post_init__(self):
        if self.Gamma_diag is not None:
            object.__setattr__(self, "Gamma_diag", diag_floats(self.Gamma_diag, "Gamma_diag"))


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


def _picks(values, thetas, where) -> tuple:
    """The jump rule's two picks on the values of `_TrackingLoop._values`: (largest gap, picks).

    picks holds, for each warp angle, its gap and the reset angle of its
    least value.  The least reset value is the first in `thetas` order that
    is below every earlier one, so ties go to the first and a NaN value is
    never the least; once a gap is NaN, the largest stays NaN.  Written once
    for floats (where = `choose`) and for (n,) columns (where = `np.where`).
    """
    largest = -math.inf
    picks = []
    for v, resets in values:
        best, least = thetas[0], math.inf
        for tp, r in zip(thetas, resets):
            below = r < least
            best, least = where(below, tp, best), where(below, r, least)
        g = v - least
        largest = where((g > largest) | (g != g), g, largest)
        picks.append((g, best))
    return largest, picks


def torque_f(ups, k1: float, v1, k2: float, v2) -> tuple:
    """ups - k1 v1 - k2 v2: the torque of every law, and its difference from the feedforward.

    The basic law (and, with the warp angle frozen, the non-hybrid baseline)
    passes 2 k_R and the rotation gradient, then k_omega and the velocity
    error; the smooth law passes its filter state in place of the gradient;
    the velocity-free law passes 2 k_beta and the gradient at its auxiliary
    rotation in place of the velocity damping.
    """
    return (
        ups[0] - k1 * v1[0] - k2 * v2[0],
        ups[1] - k1 * v1[1] - k2 * v2[1],
        ups[2] - k1 * v1[2] - k2 * v2[2],
    )


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
    (`solve` passes tuples; see `HybridSystem`); each subclass's `_rates`
    gives its flow, which `step` runs compiled, and its applied torque, which
    `torque` and the records read.  `_rates`, `_monitor` and
    `_columns` also run on a batch: state entries and measurement entries
    as (n,) arrays, t an (n,) array, xp = ARRAY_MATH.  Each law defines its
    monitor once, by `_monitor`.

    The sets and the jump map follow the jump rule of the module docstring,
    applied here once by `jump_margin` and `jump` on the values of `_values`:
    a law declares only its warp angles (`warp_angles`), the value whose gap
    it watches (`_value_w`) and the gap's threshold (`_threshold`), and a
    jump drops the monitor by at least `jump_drop`.

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
        self._steps = {}  # the compiled step by (exact measurement, reference function)
        self._margins = {}  # the compiled margin values by exact measurement
        self._margin_columns = {}  # the same, bound to (n,) columns
        self._records = {}  # the compiled `_recorded`, bound to (n,) columns, by exact measurement
        self._threshold = params.delta  # the gap at which a warp angle jumps

    @classmethod
    def pack(cls, **state) -> np.ndarray:
        """The packed state of the fields named in `state_fields`, each at its offset.

        Rotations are 3x3 arrays, packed row-major.  ContractError for a
        missing or an unknown field, or one of the wrong size.
        """
        names = [name for name, _ in cls.state_fields]
        missing = [n for n in names if n not in state]
        unknown = [n for n in state if n not in names]
        if missing or unknown:
            raise ContractError(f"a {cls.kind} loop state has the fields {names}; "
                                f"missing {missing}, unknown {unknown}")
        y = np.empty(cls.WIDTH)
        for name, at in cls.state_fields:
            if np.size(state[name]) != np.size(y[at]):
                raise ContractError(f"field '{name}' of a {cls.kind} loop state has "
                                    f"{np.size(y[at])} entries, got {np.size(state[name])}")
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
        return self.gains.k_omega / min(self.inertia.J_diag), "k_omega / lambda_min(J)"

    def _attitude_oscillation(self) -> tuple:
        """(rate, source) of the lightly damped attitude mode of the gradient feedback 2 k_R.

        About body axis i the potential's stiffness at the identity is
        a_bar_i, so the mode's |lambda| is sqrt(2 k_R a_bar_i / J_i), largest
        over the axes.  It lies near the imaginary axis, where RK4's limit,
        2.83, is close to the real one.
        """
        a_bar = np.diag(self.params.spectral.a_bar)
        rate = max(math.sqrt(2.0 * self.gains.k_R * a / J)
                   for a, J in zip(a_bar.tolist(), self.inertia.J_diag))
        return rate, "sqrt(2 k_R a_bar_i / J_i), the attitude oscillation"

    def measurements(self, rng):
        """None without noise; else blocks of NOISE_BLOCK measurement rows, for ever.

        rng is a Generator or a seed (see `HybridSystem`); the generator
        `np.random.default_rng(rng)` is made only under a noise model, so a
        noise-free run never imports `numpy.random`.  Each block draws
        `standard_normal((NOISE_BLOCK, k))` over the k channels whose sigma is
        positive (3 each, attitude first), scaled as `0.0 + sigma * z`: the
        values, in the order, of a `normal(0.0, sigma, 3)` call per channel
        and step.  The attitude noise is exponentiated on its columns into E;
        a channel without noise gives the identity or zeros.
        """
        n = self.noise
        if n is None:
            return None
        return self._noise(np.random.default_rng(rng), n)

    @staticmethod
    def _noise(rng, n: NoiseModel):
        scale = np.repeat([s for s in (n.sigma_R, n.sigma_omega) if s > 0.0], 3)
        while True:
            # The draw's columns: the attitude channel's first, the velocity's last.
            cols = (0.0 + scale * rng.standard_normal((NOISE_BLOCK, scale.size))).T
            block = np.empty((NOISE_BLOCK, 12))
            block[:, :9] = (np.transpose(exp_so3_f(*cols[:3], ARRAY_MATH, np.where))
                            if n.sigma_R > 0.0 else _EYE_F)
            block[:, 9:] = cols[-3:].T if n.sigma_omega > 0.0 else 0.0
            yield block

    def project(self, y):
        out = list(y)
        for sl in self.rotation_slices:
            out[sl] = orthonormalize_f(y[sl])
        return tuple(out)

    def _feedforward(self, R, omega_r, z) -> tuple:
        """(a, J a, feedforward) at rotation R, with a = R^T omega_r."""
        J = self.inertia.J_diag
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

    @staticmethod
    def _torques(ups, ups_m, meas, *feedback) -> tuple:
        """(applied torque, torque minus the feedforward ups at the true rotation), by `torque_f`.

        The applied torque is `torque_f(ups_m, *feedback)`; the error dynamics
        read `torque_f(ups_m - ups, *feedback)`, with the difference the
        constant zero for exact measurements, so that the flow never reads ups.
        """
        d = _ZERO_F if meas is None else (ups_m[0] - ups[0], ups_m[1] - ups[1], ups_m[2] - ups[2])
        return torque_f(ups_m, *feedback), torque_f(d, *feedback)

    def _accel(self, omega_e, a, Ja, tau_rel) -> tuple:
        J = self.inertia
        return error_accel_f(omega_e, a, Ja, tau_rel, J.J_diag, J.J_inv_diag)

    def _kinetic(self, omega_e) -> float:
        J0, J1, J2 = self.inertia.J_diag
        w0, w1, w2 = omega_e
        return 0.5 * (w0 * (J0 * w0) + w1 * (J1 * w1) + w2 * (J2 * w2))

    def _rates(self, y, meas, z, xp=math) -> tuple:
        """(flow, applied torque) at state y under reference acceleration z, without the checks.

        The one source of `flow`, the compiled `step`, `torque` and the
        recorded torque columns.
        """
        raise NotImplementedError

    def flow(self, t, y, meas):
        """The rates at state y: the reference checks, then `_rates` interpreted."""
        self.reference.check_omega_r(y[self.OMEGA_R], t)
        return self._rates(y, _view(meas), self.reference.z_at(t))[0]

    def _step_function(self, exact: bool):
        """The compiled step for exact or noisy measurements and the reference's `z_fn`."""
        key = (exact, self.reference.z_fn)
        fn = self._steps.get(key)
        if fn is None:
            fn = self._steps[key] = self._compile_step(*key)
        return fn

    def step(self, t, y, h, meas):
        """`HybridSystem.step` on `flow`, run as this loop's compiled step, with the same bits.

        The step is interpreted instead where the compiled one finds a
        reference check failing or raises: then it raises what `flow` raises,
        at the stage and time it does.
        """
        ref = self.reference
        try:
            y_h, (w1, z1, w2, z2, w3, z3, w4, z4) = self._step_function(meas is None)(t, y, h, meas)
        except (ValueError, ArithmeticError):  # which error comes first is the stages' order
            return HybridSystem.step(self, t, y, h, meas)
        w, m = ref.omega_r_bound * ref.omega_r_bound, ref.m_bound
        if w1 > w or w2 > w or w3 > w or w4 > w or z1 > m or z2 > m or z3 > m or z4 > m:
            return HybridSystem.step(self, t, y, h, meas)
        return y_h

    def _compile(self, structure: tuple, method, name: str, xp=math, **shapes):
        """`method` traced once per process for this loop's class and `structure`, bound here.

        method(loop, xp, meas, **inputs) runs on a stand-in loop that holds
        only the traced params, gains and inertia and `relaxed`, with meas
        the Measurement of a row, or None where its shape is None (exact).
        `structure` names all else the trace depends on; the compiled function takes the
        inputs of `shapes` by position, in their order, and calls the math
        functions of `xp`.
        """
        cls, relaxed = type(self), self.relaxed
        objects = dict(params=self.params, gains=self.gains, inertia=self.inertia)
        key = (cls, name, *structure)
        traced = _TRACES.get(key)
        if traced is None:
            def kernel(xp, params, gains, inertia, meas, **inputs):
                loop = object.__new__(cls)
                loop.params, loop.gains, loop.inertia = params, gains, inertia
                loop.relaxed = relaxed
                return method(loop, xp, _view(meas), **inputs)

            traced = _TRACES[key] = straightline.trace(kernel, f"{self.kind}_{name}",
                                                       parameters=objects, **shapes)
        return traced.bind(xp, **objects)

    def _compile_step(self, exact: bool, z_fn):
        """`HybridSystem.step` over `_rates` and `z_fn`, compiled for (`relaxed`, exact, z_fn).

        The compiled function returns the new state and, for each stage in
        order, |omega_r|^2 and ||z||, the values the reference checks test.
        """
        def rk4(loop, xp, meas, t, y, h):
            checked = []

            def flow(tt, yy, m):
                z = z_fn(tt, xp)
                checked.extend((norm2_f(yy[loop.OMEGA_R]), xp.sqrt(norm2_f(z))))
                return loop._rates(yy, m, z, xp)[0]

            # The RK4 source over `flow`, held apart from `loop` so that no
            # reference cycle keeps the traced expressions alive.
            return HybridSystem.step(SimpleNamespace(flow=flow), t, y, h, meas), checked

        return self._compile((self.relaxed, exact, z_fn), rk4, "step",
                             t=(), y=self.WIDTH, h=(), meas=None if exact else 12)

    def flow_steps(self, n, t, y, meas, t_max, dt, out):
        """The run hook (see `HybridSystem`): up to n steps in one call of the compiled run."""
        ref, exact = self.reference, meas is None
        # The step is traced before the run is made, which keeps the peak
        # memory of the two lower than the other order.
        step = self._step_function(exact)
        w = ref.omega_r_bound
        return self._compile_run(exact)(n, t, y, meas, t_max, dt, w * w, ref.m_bound, step, *out)

    def _compile_run(self, exact: bool):
        """The compiled run of flow steps (see `runs`) of this class, made once per process."""
        key = (type(self), "run", exact)
        run = _TRACES.get(key)
        if run is None:
            run = _TRACES[key] = run_function(f"{self.kind}_run", self.WIDTH,
                                              self.rotation_slices, exact)
        return run

    def _monitor(self, v, xp=math) -> tuple:
        """(potential at the error rotation, monitor value) at state v."""
        raise NotImplementedError

    def _extra_columns(self, v, xp=math) -> tuple:
        """Values of the columns a loop adds to the shared ones."""
        return ()

    def _recorded(self, v, meas, z, xp=math) -> tuple:
        """(applied torque, potential, monitor) at state v: what `record` runs compiled."""
        U, lyap = self._monitor(v, xp)
        return (*self._rates(v, meas, z, xp)[1], U, lyap)

    def _columns(self, t, v, meas, in_jump, xp, recorded) -> tuple:
        """The recorded columns at state v under the measurement row meas, or its columns.

        recorded(v, meas, z) gives the values of `_recorded`: `record` passes
        it compiled.
        """
        z = self.reference.z_at(t, xp)
        tau0, tau1, tau2, U, lyap = recorded(v, meas, z)
        return (
            rot_distance_f(v[self.R_E], xp), v[self.THETA], *v[self.OMEGA_E],
            tau0, tau1, tau2, U, lyap,
            in_jump * 1.0,
            *self._extra_columns(v, xp),
        )

    def torque(self, t: float, y, meas) -> np.ndarray:
        """The applied torque at time t and state y under the measurement row meas."""
        return np.array(self._rates(y, _view(meas), self.reference.z_at(t))[1])

    def _compile_record(self, exact: bool):
        """`_recorded`, compiled for (`relaxed`, exact) and bound to (n,) columns.

        z is an input, so the trace serves every reference function, and
        `z_at` checks its norm outside.
        """
        return self._compile((self.relaxed, exact),
                             lambda loop, xp, meas, v, z: loop._recorded(v, meas, z, xp), "record",
                             xp=ARRAY_MATH, v=self.WIDTH, meas=None if exact else 12, z=3)

    def record(self, t, states, noise, in_jump):
        """All recorded columns in one pass over the column arrays, with `_recorded` compiled."""
        fn = self._records.get(noise is None)
        if fn is None:
            fn = self._records[noise is None] = self._compile_record(noise is None)
        return self._columns(t, columns(states), None if noise is None else columns(noise),
                             in_jump, ARRAY_MATH, fn)

    def lyapunov_packed(self, y) -> float:
        """The loop's monitor at packed state y."""
        return self._monitor(y)[1]

    def _value_w(self, AR, W, theta: float, y) -> float:
        """The value whose gap defines the sets, at AR = A R_m and the warp rotation W of theta."""
        return value_w_f(AR, W, theta, self.params)

    def _values(self, y, meas, xp=math) -> list:
        """(value at the warp angle, values at the reset angles) of each warp angle.

        Each is taken at the warp angle's measured rotation R_m = R E; the
        reset angles are `theta_set`, in order.  `jump_margin` and `jump` run
        this compiled.
        """
        p = self.params
        value = self._value_w
        out = []
        for _, sl, i in self.warp_angles:
            AR = diag_mul_f(p.A_diag, y[sl] if meas is None else mat_mul_f(y[sl], meas.E))
            th = y[i]
            out.append((value(AR, warp_rotation_f(th, p, xp), th, y),
                        tuple(value(AR, warp_rotation_f(tp, p, xp), tp, y)
                              for tp in p.theta_set)))
        return out

    def _compile_values(self, exact: bool, xp=math):
        """`_values`, compiled for (exact, number of reset angles), calling xp's math.

        One trace serves floats (`math`) and (n,) columns (`ARRAY_MATH`),
        each bound on its own.
        """
        return self._compile((exact, len(self.params.theta_set)),
                             lambda loop, xp, meas, y: loop._values(y, meas, xp), "margin",
                             xp=xp, y=self.WIDTH, meas=None if exact else 12)

    def _margin(self, exact: bool):
        """The compiled `_values` on floats, bound at its first use."""
        fn = self._margins.get(exact)
        if fn is None:
            fn = self._margins[exact] = self._compile_values(exact)
        return fn

    def jump_margin(self, t, y, meas):
        """The largest gap minus the threshold: NaN if a gap is NaN, -inf without a warp angle."""
        values = self._margin(meas is None)(y, meas)
        return _picks(values, self.params.theta_set, choose)[0] - self._threshold

    def jump_margins(self, t, states, noise):
        """`jump_margin` of each sample, by the same margin trace bound to columns.

        Fewer than MARGIN_BATCH_MIN samples take `jump_margin` one by one,
        which gives the same bits.  The columns' overflows and invalid
        operations give the inf and NaN that floats give, without numpy's
        warnings.
        """
        if len(t) < MARGIN_BATCH_MIN:
            return HybridSystem.jump_margins(self, t, states, noise)
        fn = self._margin_columns.get(noise is None)
        if fn is None:
            fn = self._margin_columns[noise is None] = self._compile_values(noise is None,
                                                                            ARRAY_MATH)
        with np.errstate(all="ignore"):
            values = fn(columns(states), None if noise is None else columns(noise))
            return _picks(values, self.params.theta_set, np.where)[0] - self._threshold

    def jump(self, t, y, meas):
        """Reset each warp angle whose gap reaches the threshold (a filter state does not jump).

        The angle resets to the reset angle of its least value, the first in
        `theta_set` on a tie.  SolverError if the state is outside the jump
        set: its margin is negative or NaN.
        """
        if not self.jump_margin(t, y, meas) >= 0.0:
            raise SolverError(f"the {self.kind} jump map was applied outside the jump set")
        out = list(y)
        picks = _picks(self._margins[meas is None](y, meas), self.params.theta_set, choose)[1]
        for (g, best), (_, _, i) in zip(picks, self.warp_angles):
            if g >= self._threshold:
                out[i] = best
        return tuple(out)


class BasicLoop(_TrackingLoop):
    kind = "basic"
    columns = (
        "dist_Re", "theta", "we_x", "we_y", "we_z",
        "tau_x", "tau_y", "tau_z", "U", "lyap", "in_jump_set",
    )

    def _rates(self, y, meas, z, xp=math):
        """A loop without a warp angle (the non-hybrid baseline) keeps theta frozen."""
        p, gn = self.params, self.gains
        Re, we, wr = y[self.R_E], y[self.OMEGA_E], y[self.OMEGA_R]
        a, Ja, ups = self._feedforward(Re, wr, z)
        Rm, wem, ups_m = self._measured(Re, we, wr, z, a, ups, meas)
        g0, g1, g2, g_th = gradients_f(diag_mul_f(p.A_diag, Rm), y[self.THETA], p, xp)
        tau, tau_rel = self._torques(ups, ups_m, meas, 2.0 * gn.k_R, (g0, g1, g2), gn.k_omega, wem)
        th_dot = -gn.k_theta * g_th if self.warp_angles else 0.0
        return (*mat_skew_f(Re, we), th_dot, *self._accel(we, a, Ja, tau_rel), *z), tau

    def _monitor(self, v, xp=math):
        p = self.params
        U = value_f(diag_mul_f(p.A_diag, v[self.R_E]), v[self.THETA], p, xp)
        return U, self.gains.k_R * U + self._kinetic(v[self.OMEGA_E])

    def decay_rates(self):
        return super().decay_rates() + [self._velocity_damping(), self._attitude_oscillation()]


class NonHybridLoop(BasicLoop):
    kind = "non_hybrid"
    warp_angles = ()  # no jump set, and `BasicLoop._rates` keeps theta frozen
    jump_drop = 0.0
    gain_names = ("k_R", "k_omega")

    def jump_margin(self, t, y, meas):
        """-inf: no warp angle, so no jump set and no margin values to compile."""
        return -math.inf

    def jump_margins(self, t, states, noise):
        """-inf for every sample, as `jump_margin`."""
        return np.full(len(t), -math.inf)

    def decay_rates(self):
        """The velocity damping and the attitude oscillation: the warp angle is frozen."""
        return [self._velocity_damping(), self._attitude_oscillation()]


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

    def _rates(self, y, meas, z, xp=math):
        """zetadot = -k_zeta (zeta - gradient), plus gradient rate + omega_e / rho when relaxed."""
        p, gn = self.params, self.gains
        Re, th, we, wr = y[self.R_E], y[self.THETA], y[self.OMEGA_E], y[self.OMEGA_R]
        zeta = y[self.ZETA]
        a, Ja, ups = self._feedforward(Re, wr, z)
        Rm, wem, ups_m = self._measured(Re, we, wr, z, a, ups, meas)
        AR = diag_mul_f(p.A_diag, Rm)
        g0, g1, g2, g_th = gradients_f(AR, th, p, xp)
        tau, tau_rel = self._torques(ups, ups_m, meas, 2.0 * gn.k_R, zeta, gn.k_omega, wem)
        th_dot = -gn.k_theta * g_th
        k = -gn.k_zeta
        zdot = (k * (zeta[0] - g0), k * (zeta[1] - g1), k * (zeta[2] - g2))
        if self.relaxed:
            r = grad_rotation_rate_f(AR, th, wem, th_dot, p, xp)
            zdot = tuple(zdot[i] + r[i] + wem[i] / gn.rho for i in range(3))
        return (*mat_skew_f(Re, we), th_dot, *self._accel(we, a, Ja, tau_rel), *z, *zdot), tau

    def _value_w(self, AR, W, theta, y):
        """The filtered value: the jump resets theta to its least value, not the potential's."""
        return filtered_value_w_f(AR, W, theta, y[self.ZETA], self.params, self.gains.rho)

    def _monitor(self, v, xp=math):
        p, gn = self.params, self.gains
        th = v[self.THETA]
        AR = diag_mul_f(p.A_diag, v[self.R_E])
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

    def check(self):
        """Also a filter gain Gamma with positive diagonal entries."""
        notes = super().check()
        if self.gains.Gamma_diag is None:
            raise ContractError("Gamma matrix is required")
        if not min(self.gains.Gamma_diag) > 0.0:
            raise ContractError("Gamma must be positive definite")
        return notes

    @property
    def jump_drop(self) -> float:
        """min(k_R, k_beta) delta: whichever warp angle resets drops its term by delta."""
        return min(self.gains.k_R, self.gains.k_beta) * self._threshold

    def _rates(self, y, meas, z, xp=math):
        """Auxiliary rate Rtilde skew(omega_e - beta), with beta = Gamma times its gradient.

        The torque reads the measured rotations R_e E and Rtilde E, never a
        velocity; beta, taken at Rtilde E, is rotated back by E.
        """
        p, gn = self.params, self.gains
        Re, we, wr, Rt = y[self.R_E], y[self.OMEGA_E], y[self.OMEGA_R], y[self.R_TILDE]
        a, Ja, ups = self._feedforward(Re, wr, z)
        if meas is None:
            Rm, Rtm, ups_m = Re, Rt, ups
        else:
            Rm, Rtm = mat_mul_f(Re, meas.E), mat_mul_f(Rt, meas.E)
            ups_m = self._feedforward(Rm, wr, z)[2]
        a0, a1, a2, a_th = gradients_f(diag_mul_f(p.A_diag, Rm), y[self.THETA], p, xp)
        b0, b1, b2, b_th = gradients_f(diag_mul_f(p.A_diag, Rtm), y[self.THETA_BAR], p, xp)
        tau, tau_rel = self._torques(ups, ups_m, meas,
                                     2.0 * gn.k_R, (a0, a1, a2), 2.0 * gn.k_beta, (b0, b1, b2))
        G = gn.Gamma_diag
        beta = (G[0] * b0, G[1] * b1, G[2] * b2)
        if meas is not None:
            beta = mat_vec_f(meas.E, beta)
        return (
            *mat_skew_f(Re, we), -gn.k_theta * a_th,
            *self._accel(we, a, Ja, tau_rel), *z,
            *mat_skew_f(Rt, (we[0] - beta[0], we[1] - beta[1], we[2] - beta[2])),
            -gn.k_theta * b_th,
        ), tau

    def _monitor(self, v, xp=math):
        p, gn = self.params, self.gains
        U1 = value_f(diag_mul_f(p.A_diag, v[self.R_E]), v[self.THETA], p, xp)
        U2 = value_f(diag_mul_f(p.A_diag, v[self.R_TILDE]), v[self.THETA_BAR], p, xp)
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
