import math

import numpy as np
import pytest

import so3track as st
from so3track import hybrid
from so3track.errors import ContractError, SolverError
from so3track.hybrid import HybridSystem, detect_crossing


class Decay(HybridSystem):
    """Pure ODE: thetadot = -theta, no jumps."""

    kind = "decay"
    columns = ("x",)

    def flow(self, t, y, meas):
        return tuple(-x for x in y)

    def record(self, t, j, states, noise, in_jump):
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


class Escaper(HybridSystem):
    """Flow x' = 1 whose margin is not a number past x = 1, as a broken margin formula gives."""

    kind = "escaper"

    def flow(self, t, y, meas):
        return (1.0,)

    def jump_margin(self, t, y, meas):
        return -1.0 if y[0] <= 1.0 else math.nan


class Blowup(HybridSystem):
    """Flow that returns NaN, as a diverged right-hand side would."""

    kind = "blowup"

    def flow(self, t, y, meas):
        return (math.nan,) * len(y)


def assert_float_tuple(y):
    assert type(y) is tuple and all(type(x) is float for x in y), y


class Strict(HybridSystem):
    """A noisy clock with a projection that checks every state it is handed.

    x' = 1 with a reset to zero at x = 0.3337 (inside a step, so the crossing
    is refined), and a decaying second component.
    """

    kind = "strict"
    columns = ("x",)

    def flow(self, t, y, meas):
        assert_float_tuple(y)
        return (1.0, -y[1])

    def jump_margin(self, t, y, meas):
        assert_float_tuple(y)
        return y[0] - 0.3337

    def jump(self, t, y, meas):
        assert_float_tuple(y)
        return (0.0, y[1])

    def project(self, y):
        assert_float_tuple(y)
        return y

    def sample_measurement(self, rng):
        return ((float(rng.normal()),),)

    def record(self, t, j, states, noise, in_jump):
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
    y0 = st.BasicLoop.pack(
        Re=st.angle_axis(1.0, np.array([0.0, 1.0, 0.0])),
        theta=0.0,
        omega_e=np.zeros(3),
        omega_r=np.zeros(3),
    )
    cfg = st.SolverConfig(dt=1e-3, t_max=0.5, j_max=10)
    loop = st.make_loop("basic", paper_params, paper_gains, paper_inertia, ref, noise)
    a = st.solve(loop, y0, cfg, np.random.default_rng(42))
    b = st.solve(loop, y0, cfg, np.random.default_rng(42))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.data, b.data)


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


# A tumbling member per law: fig4's settings, noise off, a seeded initial
# state.  The seeds are picked so that each hybrid law refines a jump.
TUMBLE_SEEDS = {"basic": 7, "smooth": 16, "velocity_free": 10, "non_hybrid": 0}


@pytest.mark.parametrize("law", sorted(TUMBLE_SEEDS))
def test_flow_evaluations_are_four_per_rk4_step(law, monkeypatch):
    # every flow evaluation belongs to an RK4 step: an accepted step, a
    # refinement evaluation of the margin or the re-step to the crossing
    rng = np.random.default_rng(TUMBLE_SEEDS[law])
    base = st.parse_config_text(st.bundled_scenarios()["fig4"].read_text())
    cfg = st.scenario_from_mapping({
        **base, "name": "tumble", "controllers": [law], "gammas": base["gammas"][:1],
        "omega0": rng.uniform(-20.0, 20.0, 3).tolist(),
        "theta0": float(rng.uniform(-math.pi, math.pi)),
        "R0_axis": rng.normal(size=3).tolist(), "R0_angle": float(rng.uniform(0.0, math.pi)),
        "theta_set": [-0.9 * math.pi, 0.9 * math.pi],
        "noise_var_R": 0.0, "noise_var_omega": 0.0, "t_max": 0.5,
    })
    loop, y0 = st.scenarios.build_member(cfg, cfg.members[0])
    counts = {"flow": 0, "refine": 0, "restep": 0}
    flow = loop.flow

    def counted_flow(t, y, meas):
        counts["flow"] += 1
        return flow(t, y, meas)

    def counted_crossing(before, after, refine, dt):
        def counted_refine(x):
            counts["refine"] += 1
            return refine(x)

        tau = detect_crossing(before, after, counted_refine, dt)
        counts["restep"] += tau is not None and tau < dt
        return tau

    loop.flow = counted_flow
    monkeypatch.setattr(hybrid, "detect_crossing", counted_crossing)
    arc = st.solve(loop, y0, st.SolverConfig(dt=cfg.dt, t_max=cfg.t_max))
    steps = len(arc) - 1 - len(arc.jumps)
    assert steps >= 500
    assert counts["flow"] == 4 * (steps + counts["refine"] + counts["restep"])
    if law != "non_hybrid":
        assert arc.jumps and counts["refine"] > 0 and counts["restep"] > 0
