"""Generic solver for hybrid systems: flow on a flow set, jump on a jump set.

Solutions are produced on hybrid time domains: samples carry (t, j) where t
accumulates flow time and j counts jumps.  Flow uses fixed-step RK4 in the
ambient space (`HybridSystem.step`) with an optional per-step projection
hook (used to push rotation blocks back onto SO(3)).  The state is a tuple
of Python floats on the whole step path; numpy only builds the recorded arc
and takes the margins of a run's samples.  Both sets come from one scalar,
the jump margin m: the jump set is m >= 0 and the flow set m <= 0, so
together they cover every state with a number for a margin.  Jumps are
detected through the margin's sign and their times refined by bisection on
it.

Where the flow and jump sets overlap, the jump is taken: jump priority forces
the designed potential drop at the set boundary.

Flow steps are taken in runs.  Inside a run `solve` steps, projects and
records, but asks no margin; after the run it takes the margins of all the
run's samples in one `HybridSystem.jump_margins` call, under the measurement
of the step into each sample and, with noise, also under the fresh one
after it.  The first sample whose margin is >= 0 or NaN rolls the run back
to the sample before it, keeping the event's state and margin, from which
the event is resolved as a step checked alone is: refined, jumped or raised,
without taking the step again.  A step that raised ends its run, and its
error is raised only if no event comes before it.  So the arc, its jumps
and the errors are those of checking every step alone.
The first run is RUN_FIRST steps.  A run whose first event lies k steps in
is followed by a run of 2k steps, at least one and at most RUN_FIRST, so
events a few steps apart discard a few steps each, not a whole run; a clean
run doubles the next, up to RECORD_BATCH.

Measurements are rows of floats, drawn a block at a time into one buffer
and indexed by the count of accepted flow steps (see `HybridSystem`), so a
rollback resets only the index and the samples carry no measurement.

A system may take the steps of a run itself, through its run hook
`HybridSystem.flow_steps`: each call takes as many of the run's steps as it
can finish as `solve` would, with the same bits, and stops before any other,
which `solve` then takes through `system.step` and `system.project`, raising
or not as it would.  The closed loops take them in one compiled call (see
`controllers`); the default hook takes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from struct import Struct

import numpy as np

from .errors import ContractError, SolverError

# Samples per `record` call, whose pass holds some 80 temporaries of its batch
# length.  It is also the longest run of flow steps, whose margins are taken as
# one batch.
RECORD_BATCH = 1024

# Measurement rows turned into floats at a time for a run of flow steps.
NOISE_ROWS = 256

# Flow steps in the first run, and the most in the run after a rollback (see
# `solve`).  On the closed loops, the batch margins of a run cost a tenth of
# per-sample margins at 1024 samples; jumps come in bursts early in a member,
# where a longer first run would discard more steps at each rollback.
RUN_FIRST = 32

# More jumps than this at one instant, with no flow in between, stop the run.
MAX_JUMPS_PER_INSTANT = 10

# Evenly spaced points at which `detect_crossing` scans a step for a sign change.
CROSSING_SCANS = 64

# The integration ends once t_max - t is at most END_GAP.
END_GAP = 1e-12


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
    raises.  The run hook (below) takes the flow steps of a run; `solve`
    calls `step` only where refinement evaluates the margin, for the
    re-step to a located crossing and for a step the hook hands back.

    Measurement contract: `measurements(rng)` is None for a system without
    measurement noise.  Otherwise it is an iterator of blocks, float arrays
    of shape (rows, width) whose rows in order are the measurements: row i
    is in force over the i-th accepted flow step (the first is in force from
    the initial sample) and at the jumps after it.  `solve` takes a block
    when it needs a row past those it holds, so each row is drawn once,
    whatever a rollback discards.  It hands `step`, `jump_margin` and `jump`
    a row as a tuple of floats (the loops' is E row-major, then n_omega),
    and None without noise.  rng is what the caller gave `solve`, a
    `numpy.random.Generator` or a seed, and a system that draws makes its
    generator with `np.random.default_rng(rng)`, which returns a Generator
    as it is; a system that does not draw leaves it alone, so its runs never
    import `numpy.random`.  The iterator lives for one `solve` call.

    Recording: while it integrates, `solve` keeps, for each sample, only t,
    j, the jump-set flag and the state, packed as doubles into a flat
    buffer.  At the end it calls `record` on consecutive batches of
    n <= RECORD_BATCH samples, with these as t (n,), states (n, dim), noise
    (n, width), the row in force at each sample (the row of the step into a
    flow sample), or None without noise, and in_jump (n,) bools.  `record`
    returns one (n,) array per entry of `columns`, in that order.

    Runs (see the module docstring): `solve` takes the margins of a run's
    flow samples in one `jump_margins` call, with t, the states and the
    noise in the forms `record` gets, and it must get back the bits of
    `jump_margin` on each sample.  The default calls `jump_margin` sample by
    sample; the closed loops run their compiled margin on columns.  A margin
    >= 0 or NaN rolls the run back, so `step` and `project` may have run on
    states that the arc does not keep: they must not depend on how often
    they were called.

    Run hook: `flow_steps` may take a run's flow steps itself, each with the
    bits and the outcome of `step`, the finiteness test and `project`; it
    stops before a step where it cannot, and `solve` takes that step.  The
    default takes none.
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

    def jump_margins(self, t: np.ndarray, states: np.ndarray, noise) -> np.ndarray:
        """`jump_margin` of each of n samples, as an (n,) array.

        t is (n,), states (n, dim) and noise (n, width) or None, as `record`
        gets them.
        """
        meas = repeat(None) if noise is None else zip(*noise.T.tolist())
        return np.array([self.jump_margin(tt, tuple(y), m)
                         for tt, y, m in zip(t.tolist(), states.tolist(), meas)])

    def project(self, y: tuple) -> tuple:
        return y

    def flow_steps(self, n: int, t: float, y: tuple, meas, t_max: float, dt: float,
                   out: tuple) -> tuple:
        """The run hook: up to n flow steps from (t, y) under meas; (k, t, y, meas) after k of them.

        Each step is one of `solve`'s: of length dt, or t_max - t if that is
        shorter, and none once t_max - t <= END_GAP; `step`, the finiteness
        test, then `project`.  After each step the hook records its sample
        through out = (add_t, add_state, pack_state, fresh): add_t(t) and
        add_state(pack_state(*y)) with the projected state; then, under
        noise, meas = next(fresh), the row in force after the step (fresh is
        None without noise).  `solve` records the samples' j and flags.  The
        hook stops before a step that it cannot finish with `solve`'s bits
        and outcome, and `solve` takes that step.  The default takes no step.
        """
        return 0, t, y, meas

    def measurements(self, rng):
        return None

    def record(self, t: np.ndarray, states: np.ndarray, noise, in_jump: np.ndarray) -> tuple:
        return ()


@dataclass
class JumpEvent:
    """One jump: at time t the state y_pre of jump count j_before became y_post.

    `meas` is the measurement row the jump was taken under, a tuple of
    floats (None without noise).
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
class SolverStats:
    """What `solve` did, in counts; no times, so an arc stays a function of its inputs.

    Every step call is an accepted step, a refinement evaluation, the re-step
    to a located crossing or a step of a run that a rollback discarded:
    step_calls = steps + refine_evals + crossings + rolled_back.
    """

    steps: int = 0  # accepted flow steps
    step_calls: int = 0  # flow steps taken, by `system.step` or the run hook
    runs: int = 0  # runs of flow steps, each with one `jump_margins` call
    rolled_back: int = 0  # step calls of runs that a rollback discarded
    margins_batched: int = 0  # margins taken by `jump_margins`, per sample and measurement
    margins_scalar: int = 0  # margins taken by `jump_margin`, refinement included
    refine_evals: int = 0  # margins taken by `detect_crossing` inside a step
    crossings: int = 0  # crossings located inside a step, each re-stepped to
    handed_back: int = 0  # steps of runs that the run hook left to `system.step`
    noise_blocks: int = 0  # blocks of measurements drawn, 0 without noise


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
    stats: SolverStats = field(default_factory=SolverStats)

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

    rng, a `numpy.random.Generator` or a seed, 0 when it is None (the
    default), goes to `system.measurements` as it is: a system that draws
    noise makes its generator from it, and none is made for a system that
    does not draw.

    Raises SolverError, carrying the hybrid time t and jump count j, when the
    jump margin is not a number (the state then lies in neither set), when
    more than MAX_JUMPS_PER_INSTANT jumps occur without any flow in between
    (chattering guard; the closed loops of this package have provably finite
    jump counts, so hitting the guard indicates a configuration error), and
    when a flow step ends in a non-finite state or one that `system.project`
    rejects, or a flow evaluation in it raises ValueError (typically a step
    size too large for the gains); an error of a flow step also carries the
    step length h.

    Flow steps are taken in runs, through the system's run hook where it
    takes them, and each event is resolved from the run that found it (see
    the module docstring): `system.step` runs only for refinement, the
    re-step to a crossing and the steps the hook hands back.  The arc, the
    jumps and the errors are those of checking every step alone, and
    `arc.stats` counts the work.
    """
    y = system.project(tuple(np.asarray(y0, dtype=float).tolist()))
    t = 0.0
    j = 0
    stats = SolverStats()
    blocks = system.measurements(0 if rng is None else rng)
    # The measurement rows drawn so far, the first `drawn` rows of `noise`,
    # which has room for as many again; None without noise.
    noise, drawn = None, 0

    def rows(i: int, n: int):
        """Measurement rows i to i + n - 1 as tuples of floats, NOISE_ROWS at a time.

        Blocks are drawn into `noise` as the rows reach past those drawn.
        """
        nonlocal noise, drawn
        end = i + n
        while i < end:
            while i >= drawn:
                block = next(blocks)
                stats.noise_blocks += 1
                if noise is None or drawn + len(block) > len(noise):  # room for twice the rows
                    room = np.empty((2 * (drawn + len(block)), block.shape[1]))
                    if drawn:
                        room[:drawn] = noise[:drawn]
                    noise = room
                noise[drawn:drawn + len(block)] = block
                drawn += len(block)
            chunk = noise[i:min(end, i + NOISE_ROWS, drawn)]
            i += len(chunk)
            yield from zip(*chunk.T.tolist())

    meas = None if blocks is None else next(rows(0, 1))

    ts: list[float] = []
    js: list[int] = []
    flags: list[bool] = []
    # The state of each sample, packed as doubles.
    states = bytearray()
    state_struct = Struct(f"{len(y)}d")
    pack_state, state_bytes = state_struct.pack, state_struct.size
    jumps: list[JumpEvent] = []

    def sample(in_jump: bool):
        ts.append(t)
        js.append(j)
        flags.append(in_jump)
        states.extend(pack_state(*y))

    def advance(h: float) -> tuple:
        """The projected RK4 step of length h from (t, y)."""
        stats.step_calls += 1
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

    def membership(tt, yy, m=None):
        """(margin, in_jump) under the current measurement: m, taken by a run, or `jump_margin`'s."""
        if m is None:
            stats.margins_scalar += 1
            m = system.jump_margin(tt, yy, meas)
        if m != m:
            raise SolverError(
                f"the jump margin is not a number at t={tt}, j={j}: "
                f"the state lies outside both the flow and jump sets",
                t=tt, j=j,
            )
        return m, m >= 0.0

    def run_margins(n0: int) -> np.ndarray:
        """The margins of the samples from n0 on: under the step's measurement, then the fresh one.

        Without noise the two coincide, and the margins are taken once.  The
        buffers are copied out, so that they can shrink and grow again.
        """
        n = len(ts) - n0
        tt, rows_in = ts[n0:], states[n0 * state_bytes:]
        noise_in = None
        if noise is not None:
            s0 = n0 - 1 - len(jumps)  # the flow steps before the run
            tt, rows_in = tt * 2, rows_in * 2
            noise_in = np.concatenate((noise[s0:s0 + n], noise[s0 + 1:s0 + n + 1]))
        m = system.jump_margins(np.array(tt), np.frombuffer(rows_in).reshape(len(tt), -1),
                                noise_in)
        stats.margins_batched += len(m)
        return m

    margin, in_jump = membership(t, y)
    sample(in_jump)

    t_max, dt = config.t_max, config.dt
    run = RUN_FIRST  # steps in the next run
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
        if t_max - t <= END_GAP:
            status = "t_max"
            break
        # A run: the margins of its samples are taken after its last step.
        stats.runs += 1
        n0 = len(ts)
        fresh = None if noise is None else rows(n0 - len(jumps), run)
        out = (ts.append, states.extend, pack_state, fresh)
        held = None
        left = run
        while left:
            k, t, y, meas = system.flow_steps(left, t, y, meas, t_max, dt, out)
            js.extend(repeat(j, k))
            flags.extend(repeat(False, k))
            stats.step_calls += k
            left -= k
            remaining = t_max - t
            if not left or remaining <= END_GAP:
                break
            # The hook stopped before this step.
            stats.handed_back += 1
            h = dt if dt < remaining else remaining
            try:
                y_new = advance(h)
            except SolverError as e:
                held = e
                break
            t += h
            y = y_new
            sample(False)
            if fresh is not None:
                meas = next(fresh)
            left -= 1
        n = len(ts) - n0
        if not n:  # the run's first step raised
            raise held
        m = run_margins(n0)
        event = ~(m < 0.0)  # a margin >= 0 or NaN
        if noise is not None:
            event = event[:n] | event[n:]
        if not event.any():
            if held is not None:
                raise held
            margin = float(m[-1])
            run = min(2 * run, RECORD_BATCH)
            continue
        # Roll back to the sample before the first event, keeping the event's
        # state and its margin under the step's measurement; the margin of the
        # run's start is still `margin`.
        k = int(event.argmax())
        stats.rolled_back += n + (held is not None) - k - 1
        keep = n0 + k
        t, y = ts[keep - 1], state_struct.unpack_from(states, (keep - 1) * state_bytes)
        y_new = state_struct.unpack_from(states, keep * state_bytes)
        if k:
            margin = float(m[k - 1 if noise is None else n + k - 1])
        del ts[keep:], js[keep:], flags[keep:], states[keep * state_bytes:]
        if noise is not None:
            meas = next(rows(keep - 1 - len(jumps), 1))
        run = min(RUN_FIRST, max(1, 2 * k))
        remaining = t_max - t
        h = dt if dt < remaining else remaining
        margin_new, in_jump_new = membership(t + h, y_new, float(m[k]))
        if in_jump_new and margin < 0.0:

            def margin_at(tau: float) -> float:
                stats.refine_evals += 1
                stats.margins_scalar += 1
                return system.jump_margin(t + tau, advance(tau), meas)

            tau_c = detect_crossing(margin, margin_new, margin_at, h)
            if tau_c is not None and tau_c < h:
                stats.crossings += 1
                h = tau_c
                y_new = advance(h)
                margin_new, in_jump_new = membership(t + h, y_new)
        t += h
        y = y_new
        sample(in_jump_new)
        if noise is None:
            # The membership under the step's measurement is current.
            margin, in_jump = margin_new, in_jump_new
        else:
            meas = next(rows(len(ts) - 1 - len(jumps), 1))
            margin, in_jump = membership(t, y)

    n = len(ts)
    stats.steps = n - 1 - len(jumps)
    t_arr, j_arr, flags_arr = np.array(ts), np.array(js, dtype=int), np.array(flags, dtype=bool)
    states_arr = np.frombuffer(states).reshape(n, -1)  # a view, without a copy
    if noise is not None:
        # The row in force at each sample: the count of flow samples up to
        # it, less one at a flow sample, which holds its step's.
        flow = np.concatenate(([False], j_arr[1:] == j_arr[:-1]))
        noise_at = np.cumsum(flow) - flow
    data = np.empty((n, len(system.columns)))
    if system.columns:
        for a in range(0, n, RECORD_BATCH):
            b = a + RECORD_BATCH
            cols = system.record(t_arr[a:b], states_arr[a:b],
                                 None if noise is None else noise[noise_at[a:b]], flags_arr[a:b])
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
        stats=stats,
    )
