import dataclasses
import itertools
import math

import numpy as np
import pytest

import so3track as st
from so3track import hybrid
from so3track.errors import ContractError, SolverError
from so3track.hybrid import HybridSystem, detect_crossing
from paths import TUMBLE_SEEDS, arc_bits, solved, tumble_config, wrap_step


class Decay(HybridSystem):
    """Pure ODE: thetadot = -theta, no jumps."""

    kind = "decay"
    columns = ("x",)

    def flow(self, t, y, meas):
        return tuple(-x for x in y)

    def record(self, t, states, noise, in_jump):
        return (states[:, 0],)


class Timer(HybridSystem):
    """Clock that resets to zero every time it reaches one."""

    kind = "timer"

    def flow(self, t, y, meas):
        return (1.0,)

    def jump(self, t, y, meas):
        return (0.0,)

    def jump_margin(self, t, y, meas):
        return y[0] - 1.0


class Chatter(HybridSystem):
    """Jump set that the jump map never leaves."""

    kind = "chatter"

    def flow(self, t, y, meas):
        return (0.0,)

    def jump(self, t, y, meas):
        return y

    def jump_margin(self, t, y, meas):
        return 1.0


class Blowup(HybridSystem):
    """Flow that returns NaN, as a diverged right-hand side would."""

    kind = "blowup"

    def flow(self, t, y, meas):
        return (math.nan,) * len(y)


class Cliff(HybridSystem):
    """A clock reset to zero at x = c, whose flow turns NaN from x = b on."""

    kind = "cliff"
    columns = ("x",)

    def __init__(self, c, b=math.inf):
        self.c, self.b = c, b

    def flow(self, t, y, meas):
        return (1.0 if y[0] < self.b else math.nan,)

    def jump(self, t, y, meas):
        return (0.0,)

    def jump_margin(self, t, y, meas):
        return y[0] - self.c

    def record(self, t, states, noise, in_jump):
        return (states[:, 0],)


class Escaper(HybridSystem):
    """Flow x' = 1 whose margin is not a number past x = 1, as a broken margin formula gives."""

    kind = "escaper"

    def flow(self, t, y, meas):
        return (1.0,)

    def jump_margin(self, t, y, meas):
        return -1.0 if y[0] <= 1.0 else math.nan


def assert_float_tuples(*values):
    for y in values:
        assert type(y) is tuple and all(type(x) is float for x in y), y


class Strict(HybridSystem):
    """A noisy clock with a projection that checks every state and measurement it is handed.

    x' = 1 with a reset to zero at x = 0.3337 (inside a step, so the crossing
    is refined), and a decaying second component.  Its measurement rows come
    in blocks of 16, so a run crosses blocks.
    """

    kind = "strict"
    columns = ("x",)

    def flow(self, t, y, meas):
        assert_float_tuples(y, meas)
        return (1.0, -y[1])

    def jump_margin(self, t, y, meas):
        assert_float_tuples(y, meas)
        return y[0] - 0.3337

    def jump(self, t, y, meas):
        assert_float_tuples(y, meas)
        return (0.0, y[1])

    def project(self, y):
        assert_float_tuples(y)
        return y

    def measurements(self, rng):
        rng = np.random.default_rng(rng)
        while True:
            yield rng.normal(size=(16, 1))

    def record(self, t, states, noise, in_jump):
        assert states.shape == (len(t), 2) and noise.shape == (len(t), 1)
        return (states[:, 0],)



def test_solve_hands_the_system_only_float_tuples():
    cfg = st.SolverConfig(dt=1e-3, t_max=1.0, j_max=5)
    arc = st.solve(Strict(), np.array([0.0, 1.0]), cfg)
    assert len(arc.jumps) == 2
    assert arc.jumps[0].t == pytest.approx(0.3337, abs=1e-9)
    assert arc.states.shape == (len(arc), 2)


def test_pure_ode_matches_exponential():
    cfg = st.SolverConfig(dt=1e-3, t_max=5.0, j_max=5)
    arc = st.solve(Decay(), np.array([1.0]), cfg)
    assert arc.status == "t_max"
    assert len(arc.jumps) == 0
    assert arc.t[-1] == pytest.approx(5.0, abs=1e-9)
    assert arc.states[-1, 0] == pytest.approx(math.exp(-5.0), abs=1e-6)
    assert np.array_equal(arc.column("x"), arc.states[:, 0])  # recorded over several batches


def test_timer_jumps_at_unit_intervals():
    cfg = st.SolverConfig(dt=1e-3, t_max=10.0, j_max=3)
    arc = st.solve(Timer(), np.array([0.0]), cfg)
    assert arc.status == "j_max"
    assert [ev.j_before for ev in arc.jumps] == [0, 1, 2]
    assert np.allclose([ev.t for ev in arc.jumps], [1.0, 2.0, 3.0], atol=1e-6)


def test_arc_well_formedness():
    cfg = st.SolverConfig(dt=1e-3, t_max=10.0, j_max=3)
    arc = st.solve(Timer(), np.array([0.0]), cfg)
    # hybrid time is lexicographically monotone
    for k in range(1, len(arc)):
        assert (arc.t[k], arc.j[k]) >= (arc.t[k - 1], arc.j[k - 1])
    # j constant along flow, t frozen across jumps, j increments by one
    dj = np.diff(arc.j)
    dt = np.diff(arc.t)
    assert set(dj.tolist()) <= {0, 1}
    assert np.all(dt[dj == 1] == 0.0)


def test_chattering_guard_trips():
    cfg = st.SolverConfig(dt=1e-3, t_max=1.0, j_max=50)
    with pytest.raises(SolverError, match="chattering") as exc:
        st.solve(Chatter(), np.array([0.0]), cfg)
    err = exc.value
    assert (err.t, err.j, err.h) == (0.0, 10, None)
    assert "t=0.0, j=10" in str(err)


def test_domain_exit_is_an_error():
    # the margin turns NaN on the first step past x = 1, near t = 0.5
    cfg = st.SolverConfig(dt=1e-3, t_max=5.0, j_max=5)
    with pytest.raises(SolverError, match="flow and jump sets") as exc:
        st.solve(Escaper(), np.array([0.5]), cfg)
    err = exc.value
    assert "not a number" in str(err)
    assert err.t == pytest.approx(0.5, abs=1.5e-3) and err.j == 0 and err.h is None
    assert f"t={err.t}, j=0" in str(err)


def test_initial_state_outside_both_sets():
    cfg = st.SolverConfig(dt=1e-3, t_max=5.0, j_max=5)
    with pytest.raises(SolverError, match="flow and jump sets") as exc:
        st.solve(Escaper(), np.array([2.0]), cfg)
    err = exc.value
    assert "not a number" in str(err)
    assert (err.t, err.j, err.h) == (0.0, 0, None)


def test_non_finite_flow_is_a_solver_error():
    cfg = st.SolverConfig(dt=1e-3, t_max=1.0, j_max=5)
    with pytest.raises(SolverError, match="non-finite") as exc:
        st.solve(Blowup(), np.array([1.0]), cfg)
    err = exc.value
    assert (err.t, err.j, err.h) == (0.0, 0, 1e-3)
    assert "t=0.0" in str(err) and "j=0" in str(err) and "h=0.001" in str(err)


def test_solver_config_validation():
    # a non-finite step ran one step over the whole horizon, an infinite horizon
    # never returned and a negative one gave a one-sample arc
    for horizon in ({"dt": 0.0}, {"dt": math.nan}, {"dt": math.inf}, {"t_max": math.inf},
                    {"t_max": -1.0}):
        with pytest.raises(ContractError, match="'dt' and 't_max' must be positive and finite"):
            st.SolverConfig(**horizon)
    with pytest.raises(ContractError):
        st.SolverConfig(j_max=0)


def test_detect_crossing_linear():
    dt = 1e-3
    f = lambda x: x - dt / 2.0
    tau = detect_crossing(f(0.0), f(dt), f, dt)
    assert tau == pytest.approx(dt / 2.0, abs=1e-9 * dt * 2.0)


def test_detect_crossing_none():
    dt = 1e-3
    f = lambda x: -1.0
    assert detect_crossing(f(0.0), f(dt), f, dt) is None


def test_detect_crossing_two_roots_returns_earliest():
    # roots at dt/4 and 3dt/4; endpoint signs agree
    dt = 1e-3
    f = lambda x: (x - dt / 4.0) * (x - 3.0 * dt / 4.0)
    tau = detect_crossing(f(0.0), f(dt), f, dt)
    assert tau == pytest.approx(dt / 4.0, abs=1e-9 * dt * 2.0)


def test_jump_refinement_on_closed_loop(paper_params, paper_inertia):
    """Spin the error rotation across the gap threshold mid-step; the refined
    jump state must sit on the boundary within the bisection tolerance."""
    ref = st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0)
    # weak gains so the initial spin carries the state into the jump set
    gains = st.Gains(k_R=0.2, k_omega=0.02, k_theta=0.5)
    loop = st.make_loop("basic", paper_params, gains, paper_inertia, ref)
    R0 = st.angle_axis(2.75, np.array([0.0, 0.0, 1.0]))
    assert st.gap(R0, 0.0, paper_params) < paper_params.delta
    y0 = st.BasicLoop.pack(
        Re=R0,
        theta=0.0,
        omega_e=np.array([0.0, 0.0, 3.0]),
        omega_r=np.zeros(3),
    )
    cfg = st.SolverConfig(dt=1e-3, t_max=2.0, j_max=5)
    arc = st.solve(loop, y0, cfg)
    assert arc.jumps, "the spin-up state should reach the jump set"
    ev = arc.jumps[0]
    assert ev.t > 0.0  # crossing happened during flow, not at the initial state
    pre_gap = st.gap(ev.y_pre[0:9].reshape(3, 3), ev.y_pre[9], paper_params)
    assert pre_gap >= paper_params.delta
    assert pre_gap - paper_params.delta <= 1e-9  # boundary located by bisection
    drop = loop.lyapunov_packed(ev.y_pre) - loop.lyapunov_packed(ev.y_post)
    assert drop >= gains.k_R * paper_params.delta - 1e-9


def test_deterministic_replay_with_noise(paper_params, paper_inertia, paper_gains):
    ref = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)
    noise = st.NoiseModel(sigma_R=0.1, sigma_omega=0.1)
    y0 = st.BasicLoop.pack(Re=st.angle_axis(1.0, np.array([0.0, 1.0, 0.0])), theta=0.0,
                           omega_e=np.zeros(3), omega_r=np.zeros(3))
    cfg = st.SolverConfig(dt=1e-3, t_max=0.5, j_max=10)
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, ref, noise)
    a = st.solve(loop, y0, cfg, np.random.default_rng(42))
    b = st.solve(loop, y0, cfg, np.random.default_rng(42))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.data, b.data)


def test_noise_blocks_are_the_blocks_the_arc_spans(fig4_cfg, fig3_runs):
    # fig4's smooth member at seed 1 rolls back 60 steps; its rows, 0 in force
    # from the start to `steps` after the last step, span the blocks it drew,
    # so no row is drawn twice and a rollback draws nothing.  The count reaches
    # the run record, and the step calls are still all counted
    cfg = dataclasses.replace(fig4_cfg, t_max=1.5, seed=1)
    res = st.simulate_member(cfg, cfg.members[1])
    stats = res.arc.stats
    assert res.loop.kind == "smooth" and stats.rolled_back == 60
    assert stats.noise_blocks == -(-(stats.steps + 1) // st.controllers.NOISE_BLOCK) == 2
    assert st.scenarios.run_record(cfg, res)["stats"]["noise_blocks"] == 2
    assert stats.step_calls == (stats.steps + stats.refine_evals + stats.crossings
                                + stats.rolled_back)
    assert {arc.stats.noise_blocks for _, _, arc, _, _ in fig3_runs.values()} == {0}


def test_step_halving_changes_little(fig3_cfg):
    """Terminal attitude error moves by far less than 1e-5 when dt halves."""
    import dataclasses

    member = fig3_cfg.members[2]
    short = dataclasses.replace(fig3_cfg, t_max=3.0)
    res_a = st.simulate_member(short, member)
    half = dataclasses.replace(short, dt=5e-4)
    res_b = st.simulate_member(half, member)
    da = res_a.arc.column("dist_Re")[-1]
    db = res_b.arc.column("dist_Re")[-1]
    assert abs(da - db) < 1e-5


def test_rotations_stay_on_manifold_along_arc(fig3_runs):
    _, loop, arc, _, _ = fig3_runs["2_basic"]
    for sl in loop.rotation_slices:
        Rs = arc.states[:, sl].reshape(-1, 3, 3)
        err = np.abs(Rs.transpose(0, 2, 1) @ Rs - np.eye(3)).max()
        assert err <= 1e-9
        assert np.linalg.det(Rs).min() > 0.0


# A tumbling member per law (see `paths.tumble_config`), each hybrid one refining a jump.
@pytest.mark.parametrize("law", sorted(TUMBLE_SEEDS))
def test_flow_evaluations_are_four_per_rk4_step(law, monkeypatch):
    # every RK4 step, and so every four flow evaluations, is an accepted step,
    # a refinement evaluation of the margin, the re-step to the crossing or a
    # step of a run that a rollback discarded; the solver's counters agree.
    # `solve` calls `loop.step` only to refine, to re-step to a crossing and
    # for a step that the run hands back: it never takes a run's step again
    cfg = tumble_config(law)
    loop, y0 = st.scenarios.build_member(cfg, cfg.members[0])
    counts = {"step": 0, "refine": 0, "restep": 0, "loop.step": 0}
    loop_step = loop.step

    def counted_loop_step(t, y, h, meas):
        counts["loop.step"] += 1
        return loop_step(t, y, h, meas)

    def counted_step(step, *a):
        counts["step"] += 1
        return step(*a)

    def counted_crossing(before, after, refine, dt):
        def counted_refine(x):
            counts["refine"] += 1
            return refine(x)

        tau = detect_crossing(before, after, counted_refine, dt)
        counts["restep"] += tau is not None and tau < dt
        return tau

    wrap_step(loop, counted_step)
    monkeypatch.setattr(hybrid, "detect_crossing", counted_crossing)
    monkeypatch.setattr(loop, "step", counted_loop_step)
    arc = st.solve(loop, y0, st.SolverConfig(dt=cfg.dt, t_max=cfg.t_max))
    steps = len(arc) - 1 - len(arc.jumps)
    assert steps >= 500
    stats = arc.stats
    # a step that the compiled run hands back is stepped again by `loop.step`
    calls = counts["step"] - stats.handed_back
    assert calls == steps + counts["refine"] + counts["restep"] + stats.rolled_back
    assert ((stats.steps, stats.step_calls, stats.refine_evals, stats.crossings)
            == (steps, calls, counts["refine"], counts["restep"]))
    assert counts["loop.step"] == stats.refine_evals + stats.crossings + stats.handed_back
    if law != "non_hybrid":
        assert arc.jumps and counts["refine"] > 0 and counts["restep"] > 0


# Runs of flow steps against runs of one step (as the `single_steps` row of
# `paths`), with the work that the runs take.


@pytest.mark.parametrize("offset", ("first", "second", "last"))
def test_an_event_at_each_offset_of_a_run_gives_the_arc_of_single_steps(offset):
    # the crossing lies inside the step into the run's first, second or last
    # sample and is refined there; each reset starts a run at the clock's zero.
    # The first run has RUN_FIRST steps, and each run after a rollback twice
    # the event's offset k (at least one, at most RUN_FIRST); a rollback keeps
    # the k steps before the event and the event's own step
    dt = 1e-3
    k = {"first": 0, "second": 1, "last": hybrid.RUN_FIRST - 1}[offset]
    cfg = st.SolverConfig(dt=dt, t_max=0.7, j_max=40)
    runs = solved(Cliff((k + 0.5) * dt), [0.0], cfg)
    assert arc_bits(runs, stats=False) == arc_bits(
        solved(Cliff((k + 0.5) * dt), [0.0], cfg, single=True), stats=False)
    assert runs.jumps and runs.stats.crossings == len(runs.jumps)
    after = min(hybrid.RUN_FIRST, max(1, 2 * k))
    assert runs.stats.rolled_back == ((hybrid.RUN_FIRST - k - 1)
                                      + (len(runs.jumps) - 1) * (after - k - 1))


def test_an_event_every_step_rolls_back_few_steps():
    # a clock reset half a step after each jump, so every run after a rollback
    # finds its event at its first sample; that run has one step, and the
    # step calls outside refinement stay within 3 x (steps + jumps).  A run
    # of RUN_FIRST steps after every rollback made 1 360 (40 steps, 40 jumps).
    # Refinement evaluates 56 states per crossing here, whatever the runs are
    cfg = st.SolverConfig(dt=1e-3, t_max=0.7, j_max=40)
    arc = st.solve(Cliff(0.5e-3), np.array([0.0]), cfg)
    stats = arc.stats
    assert (stats.steps, len(arc.jumps)) == (40, 40)
    assert stats.step_calls - stats.refine_evals <= 3 * (stats.steps + len(arc.jumps))


@pytest.mark.parametrize("event_first", (True, False))
def test_a_non_finite_step_in_a_run_raises_only_without_an_event_before_it(event_first):
    # the flow turns NaN 2.5 steps past the crossing, so a run reaches the bad
    # step after it has passed the crossing; the reset there keeps the clock
    # away from it.  Without the reset the step's error is raised as it is
    dt = 1e-3
    c = 10.5 * dt
    cliff = Cliff(c, c + 2.5 * dt) if event_first else Cliff(1.0, c)
    cfg = st.SolverConfig(dt=dt, t_max=0.2, j_max=40)
    runs = solved(cliff, [0.0], cfg)
    assert arc_bits(runs, stats=False) == arc_bits(solved(cliff, [0.0], cfg, single=True),
                                                   stats=False)
    if event_first:
        assert runs.status == "t_max" and len(runs.jumps) == 19
    else:
        assert isinstance(runs, SolverError) and "non-finite" in str(runs)
        assert (runs.j, runs.h) == (0, dt) and runs.t == pytest.approx(c - 0.5 * dt)


def test_a_nan_margin_in_a_run_raises_as_a_single_step_does():
    # Escaper's margin is NaN from the eleventh step on
    cfg = st.SolverConfig(dt=1e-3, t_max=1.0, j_max=5)
    runs = solved(Escaper(), [1.0 - 10.5e-3], cfg)
    assert isinstance(runs, SolverError) and "not a number" in str(runs)
    assert arc_bits(runs) == arc_bits(solved(Escaper(), [1.0 - 10.5e-3], cfg, single=True))


class Counted(HybridSystem):
    """A clock whose measurement counts the rows: row i is (i,), in blocks of 16 rows.

    The state is (x, armed).  An armed state enters the jump set when the
    measurement in force is `trigger`, so the fresh draw after a step, not
    the step itself, makes the event; the jump disarms it.  Every step
    starts at a multiple of dt, and the one from t = k dt must be handed
    row k, whatever was rolled back.
    """

    kind = "counted"
    columns = ("x", "draw")

    def __init__(self, trigger, dt):
        self.trigger, self.dt = trigger, dt

    def flow(self, t, y, meas):
        return (1.0, 0.0)

    def step(self, t, y, h, meas):
        assert meas == (t / self.dt,), (t, meas)
        return HybridSystem.step(self, t, y, h, meas)

    def measurements(self, rng):
        return (np.arange(i, i + 16.0).reshape(16, 1) for i in itertools.count(0, 16))

    def jump_margin(self, t, y, meas):
        return 1.0 if (meas[0] == self.trigger and y[1] == 1.0) else -1.0

    def jump(self, t, y, meas):
        return (y[0], 0.0)

    def record(self, t, states, noise, in_jump):
        return (states[:, 0], noise[:, 0])


def test_draws_after_a_rollback_are_replayed(monkeypatch):
    # row 10, in force after step 10, arms the jump set: the run rolls back to
    # the sample after step 9, and the rows past there are taken again in
    # order, so the step into each flow sample holds rows 0, 1, 2, ...
    monkeypatch.setattr(hybrid, "RUN_FIRST", 32)
    cfg = st.SolverConfig(dt=0.25, t_max=25.0, j_max=5)
    alone = solved(Counted(10.0, cfg.dt), [0.0, 1.0], cfg, single=True)
    runs = solved(Counted(10.0, cfg.dt), [0.0, 1.0], cfg)
    assert arc_bits(runs, stats=False) == arc_bits(alone, stats=False)
    flow = np.flatnonzero(np.diff(runs.t) > 0.0) + 1
    assert runs.column("draw")[flow].tolist() == list(map(float, range(100)))
    assert [(ev.t, ev.j_before, ev.meas) for ev in runs.jumps] == [(2.5, 0, (10.0,))]
    # hand counts: a run of 32 steps finds the event at its tenth sample and
    # discards the 22 steps after it; step 10 keeps its state and its batch
    # margin, and takes the fresh row's margin, then the jump's; clean runs of 18 (twice the event's offset 9), 36 and 36
    # steps end at t_max; the toy has no run hook, so each run step is handed
    # back to `system.step`.  Rows 0 to 100 span seven blocks, each drawn once
    assert runs.stats == hybrid.SolverStats(
        steps=100, step_calls=122, runs=4, rolled_back=22,
        margins_batched=2 * (32 + 18 + 36 + 36), margins_scalar=3, refine_evals=0, crossings=0,
        handed_back=32 + 18 + 36 + 36, noise_blocks=7)
    assert alone.stats.rolled_back == 0 and alone.stats.margins_batched == 2 * 100
