"""Generic solver for hybrid systems: flow on a flow set, jump on a jump set.

Solutions are produced on hybrid time domains: samples carry (t, j) where t
accumulates flow time and j counts jumps.  Flow uses fixed-step RK4 in the
ambient space (`HybridSystem.step`) with an optional per-step projection
hook (used to push rotation blocks back onto SO(3)).  The state is a tuple
of Python floats on the whole step path; numpy only builds the recorded arc.
Both sets come from one scalar, the jump margin m: the jump set is m >= 0
and the flow set m <= 0, so together they cover every state with a number
for a margin.  Jumps are detected through the margin's sign and their times
refined by bisection on it.

Where the flow and jump sets overlap, the jump is taken: jump priority forces
the designed potential drop at the set boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from struct import Struct

import numpy as np

from .errors import ContractError, SolverError

# Samples per `record` call.  A recording pass holds some 80 temporaries of its
# batch length; at 1024 samples they stay below a megabyte and in cache, which
# a 20 000-sample member recorded at once (12 MB) would not.
RECORD_BATCH = 1024

# More jumps than this at one instant, with no flow in between, stop the run.
MAX_JUMPS_PER_INSTANT = 10

# Evenly spaced points at which `detect_crossing` scans a step for a sign change.
CROSSING_SCANS = 64


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_max: float = 20.0
    j_max: int = 50

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_max < math.inf):
            raise ContractError(f"'dt' and 't_max' must be positive and finite, "
                                f"got {self.dt} and {self.t_max}")
        if self.j_max < 1:
            raise ContractError("j_max must be at least 1")


class HybridSystem:
    """Base contract for systems handed to `solve`.

    Subclasses provide the flow and jump maps and the jump margin, a scalar
    that defines both sets: the jump set is margin >= 0, the flow set
    margin <= 0, and the boundary margin == 0 belongs to both.  The default
    margin, -inf, gives a system with no jump set.  A margin that is not a
    number lies in neither set, and `solve` stops with a `SolverError` there.
    The remaining hooks have neutral defaults.

    State contract: `solve` hands `step`, `jump_margin`, `jump` and `project`
    the state as a tuple of Python floats, and `step`, `jump` and `project`
    return one; so does `flow`, with the rates, for the default `step`.

    Step contract: `step(t, y, h, meas)` is one classical RK4 step of
    y' = flow(t, y, meas).  A system may run it another way (the closed loops
    compile it) if it returns the same bits and raises what the default
    raises.  `solve` takes every flow step, and every state at which
    refinement evaluates the margin, through `step`.

    Measurement contract: `measurements(rng)` gives an iterator, and `solve`
    takes one item from it before the first sample and one after each flow
    step; the item is the measurement in force until the next one.  The
    default yields None, for a system without measurement noise.  The
    iterator lives for one run, so whatever it buffers goes with it.

    Recording: during the run `solve` keeps, for each sample, only t, j, the
    jump-set flag, the state and the measurement in force (the one the step
    into the sample used); the last two are packed as doubles into flat
    buffers.  A measurement is a tuple of float sequences (the loops' is E as
    9 floats and n_omega as 3), kept concatenated.  After the run `solve`
    calls `record` on consecutive batches of n <= RECORD_BATCH samples, with
    these as t (n,), states (n, dim), noise (n, width), or None when the
    measurements are None, and in_jump (n,) bools.  `record`
    returns one (n,) array per entry of `columns`, in that order.
    """

    kind: str = "generic"
    columns: tuple = ()

    def flow(self, t: float, y: tuple, meas) -> tuple:
        raise NotImplementedError

    def step(self, t: float, y: tuple, h: float, meas) -> tuple:
        """One classical RK4 step of y' = flow(t, y, meas) on a tuple of floats.

        Each component is summed in the order of the array expressions
        y + (h/2) k, y + h k3 and y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
        """
        c = 0.5 * h
        k1 = self.flow(t, y, meas)
        k2 = self.flow(t + c, tuple([a + c * b for a, b in zip(y, k1)]), meas)
        k3 = self.flow(t + c, tuple([a + c * b for a, b in zip(y, k2)]), meas)
        k4 = self.flow(t + h, tuple([a + h * b for a, b in zip(y, k3)]), meas)
        s = h / 6.0
        return tuple([a + s * (((p + 2.0 * q) + 2.0 * r) + w)
                      for a, p, q, r, w in zip(y, k1, k2, k3, k4)])

    def jump(self, t: float, y: tuple, meas) -> tuple:
        raise NotImplementedError

    def jump_margin(self, t: float, y: tuple, meas) -> float:
        """Scalar that is >= 0 exactly on the jump set and <= 0 exactly on the flow set."""
        return -math.inf

    def project(self, y: tuple) -> tuple:
        return y

    def measurements(self, rng):
        return repeat(None)

    def record(self, t: np.ndarray, states: np.ndarray, noise, in_jump: np.ndarray) -> tuple:
        return ()


@dataclass
class JumpEvent:
    """One jump: at time t the state y_pre of jump count j_before became y_post.

    `meas` is the measurement the jump was taken under (None without noise).
    On the arc the jump is the pair of adjacent samples (t, j_before) and
    (t, j_before + 1), whose recorded columns hold the values before and
    after it.
    """

    t: float
    j_before: int
    y_pre: np.ndarray
    y_post: np.ndarray
    meas: object


@dataclass
class HybridArc:
    """A recorded solution: samples over a hybrid time domain plus jump events."""

    controller: str
    columns: tuple
    t: np.ndarray
    j: np.ndarray
    data: np.ndarray
    states: np.ndarray
    jumps: list
    status: str
    dt: float

    def __len__(self) -> int:
        return self.t.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ContractError(f"arc has no column '{name}'") from None
        return self.data[:, idx]


def detect_crossing(scalar_before: float, scalar_after: float, refine, dt: float):
    """Locate the first sign change of a scalar over a step of length dt.

    `refine` evaluates the scalar at an offset in [0, dt].  Returns the upper
    end of the bisection bracket (first point past the crossing) refined to
    1e-9 * dt, or None if the scalar never changes sign on the scan grid.
    With several roots inside the step the earliest one is found.
    """
    tol = 1e-9 * dt
    s0 = scalar_before
    if s0 == 0.0:
        return 0.0
    sign0 = s0 > 0.0
    lo = 0.0
    hi = None
    if scalar_after == 0.0 or (scalar_after > 0.0) != sign0:
        hi = dt
    # Scan for an earlier bracket; required when the scalar re-crosses within
    # the step so that the endpoint signs agree.
    step = dt / CROSSING_SCANS
    for i in range(1, CROSSING_SCANS):
        x = i * step
        s = refine(x)
        if s == 0.0 or (s > 0.0) != sign0:
            hi = x
            break
        lo = x
    if hi is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = refine(mid)
        if s == 0.0 or (s > 0.0) != sign0:
            hi = mid
        else:
            lo = mid
    return hi


def solve(system: HybridSystem, y0, config: SolverConfig, rng=None) -> HybridArc:
    """Integrate a hybrid system from y0 until t_max or j_max.

    Raises SolverError, carrying the hybrid time t and jump count j, when the
    jump margin is not a number (the state then lies in neither set), when
    more than MAX_JUMPS_PER_INSTANT jumps occur without any flow in between
    (chattering guard; the closed loops of this package have provably finite
    jump counts, so hitting the guard indicates a configuration error), and
    when a flow step ends in a non-finite state or one that `system.project`
    rejects, or a flow evaluation in it raises ValueError (typically a step
    size too large for the gains); an error of a flow step also carries the
    step length h.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    y = system.project(tuple(np.asarray(y0, dtype=float).tolist()))
    t = 0.0
    j = 0
    draws = system.measurements(rng)
    meas = next(draws)

    ts: list[float] = []
    js: list[int] = []
    flags: list[bool] = []
    # The state and the noise of each sample, packed as doubles.
    states = bytearray()
    pack_state = Struct(f"{len(y)}d").pack
    noise = None
    if meas is not None:
        noise = bytearray()
        pack_noise = Struct(f"{sum(map(len, meas))}d").pack
    jumps: list[JumpEvent] = []

    def sample(in_jump: bool):
        ts.append(t)
        js.append(j)
        flags.append(in_jump)
        states.extend(pack_state(*y))
        if noise is not None:
            noise.extend(pack_noise(*chain.from_iterable(meas)))

    def advance(h: float) -> tuple:
        """The projected RK4 step of length h from (t, y)."""
        try:
            y_h = system.step(t, y, h, meas)
        except ValueError as e:  # `math` refuses an infinite stage value: "math domain error"
            raise SolverError(
                f"a flow evaluation failed in the step from t={t}, j={j} with h={h}: {e}",
                t=t, j=j, h=h,
            ) from e
        # The sum is not finite when a component is not.
        if not math.isfinite(sum(y_h)):
            raise SolverError(
                f"non-finite state after a flow step from t={t}, j={j} with h={h}",
                t=t, j=j, h=h,
            )
        try:
            return system.project(y_h)
        except ContractError as e:
            raise SolverError(
                f"projection failed after a flow step from t={t}, j={j} with h={h}: {e}",
                t=t, j=j, h=h,
            ) from e

    def membership(tt, yy):
        """(margin, in_jump) under the current measurement."""
        m = system.jump_margin(tt, yy, meas)
        if m != m:
            raise SolverError(
                f"the jump margin is not a number at t={tt}, j={j}: "
                f"the state lies outside both the flow and jump sets",
                t=tt, j=j,
            )
        return m, m >= 0.0

    margin, in_jump = membership(t, y)
    sample(in_jump)

    jumps_here = 0
    last_jump_t = None
    status = "t_max"
    while True:
        if j >= config.j_max:
            status = "j_max"
            break
        if in_jump:
            if last_jump_t is not None and t == last_jump_t:
                jumps_here += 1
            else:
                jumps_here = 1
            if jumps_here > MAX_JUMPS_PER_INSTANT:
                raise SolverError(
                    f"chattering guard: more than {MAX_JUMPS_PER_INSTANT} jumps at t={t}, j={j}",
                    t=t, j=j,
                )
            last_jump_t = t
            y_post = system.jump(t, y, meas)
            jumps.append(JumpEvent(t=t, j_before=j, y_pre=np.array(y), y_post=np.array(y_post),
                                   meas=meas))
            y = y_post
            j += 1
            margin, in_jump = membership(t, y)
            sample(in_jump)
            continue
        remaining = config.t_max - t
        if remaining <= 1e-12:
            status = "t_max"
            break
        h = config.dt if config.dt < remaining else remaining
        y_new = advance(h)
        margin_new, in_jump_new = membership(t + h, y_new)
        if in_jump_new and margin < 0.0:

            def margin_at(tau: float) -> float:
                return system.jump_margin(t + tau, advance(tau), meas)

            tau_c = detect_crossing(margin, margin_new, margin_at, h)
            if tau_c is not None and tau_c < h:
                h = tau_c
                y_new = advance(h)
                margin_new, in_jump_new = membership(t + h, y_new)
        t += h
        y = y_new
        sample(in_jump_new)
        fresh = next(draws)
        if fresh is None and meas is None:
            # No noise: the membership under the step's measurement is current.
            margin, in_jump = margin_new, in_jump_new
        else:
            meas = fresh
            margin, in_jump = membership(t, y)

    n = len(ts)
    t_arr, j_arr, flags_arr = np.array(ts), np.array(js, dtype=int), np.array(flags, dtype=bool)
    # Views of the packed buffers, without a copy.
    states_arr = np.frombuffer(states).reshape(n, -1)
    noise_arr = None if noise is None else np.frombuffer(noise).reshape(n, -1)
    data = np.empty((n, len(system.columns)))
    if system.columns:
        for a in range(0, n, RECORD_BATCH):
            b = a + RECORD_BATCH
            cols = system.record(t_arr[a:b], states_arr[a:b],
                                 None if noise_arr is None else noise_arr[a:b], flags_arr[a:b])
            data[a:b] = np.stack(cols, axis=1)
    return HybridArc(
        controller=system.kind,
        columns=tuple(system.columns),
        t=t_arr,
        j=j_arr,
        data=data,
        states=states_arr,
        jumps=jumps,
        status=status,
        dt=config.dt,
    )
