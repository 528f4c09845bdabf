"""The compiled flow: the straight-line function traced from each loop's `_rates`."""

import math

import numpy as np
import pytest

import so3track as st
from so3track import straightline
from so3track.errors import ContractError, SolverError
from so3track.so3 import floats

LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")
# (law, relaxed filter) for every loop structure
STRUCTURES = [(kind, False) for kind in LAWS] + [("smooth", True)]
PAPER_SINE = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)


def make(kind, relaxed, p, gn, J, ref=PAPER_SINE):
    return st.make_loop(kind, p, gn, J, ref, relaxed_filter=relaxed)


def random_state(kind, rng, near_critical=None):
    """A packed state of the law's width, or one next to the given critical point."""
    R = st.random_rotation(rng)
    theta = rng.uniform(-math.pi, math.pi)
    if near_critical is not None:
        R = near_critical.rotation @ st.exp_so3(rng.normal(0.0, 1e-7, 3))
        theta = near_critical.theta + rng.normal(0.0, 1e-9)
    base = dict(Re=R, theta=theta, omega_e=rng.standard_normal(3),
                omega_r=rng.standard_normal(3))
    if kind == "smooth":
        return st.SmoothLoopState(**base, zeta=rng.standard_normal(3)).pack()
    if kind == "velocity_free":
        return st.VelocityFreeLoopState(**base, Rtilde=st.random_rotation(rng),
                                        theta_bar=rng.uniform(-2.0, 2.0)).pack()
    return st.BasicLoopState(**base).pack()


def random_measurement(rng):
    return st.Measurement(E=tuple(floats(st.exp_so3(rng.normal(0.0, 0.1, 3)))),
                          n_omega=tuple(floats(rng.normal(0.0, 0.1, 3))))


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("kind, relaxed", STRUCTURES)
@pytest.mark.parametrize("noisy", (False, True), ids=("exact", "noisy"))
def test_compiled_flow_matches_rates_bit_for_bit(kind, relaxed, noisy, paper_params,
                                                 paper_gains, paper_inertia):
    loop = make(kind, relaxed, paper_params, paper_gains, paper_inertia)
    rng = np.random.default_rng(29)
    critical = st.undesired_critical_points(paper_params)
    states = [random_state(kind, rng) for _ in range(30)]
    states += [random_state(kind, rng, near_critical=c) for c in critical]
    for y in states:
        y = tuple(y.tolist())
        t = rng.uniform(0.0, 10.0)
        meas = random_measurement(rng) if noisy else None
        z = loop.reference.z_at(t)
        assert bits(loop.flow(t, y, meas)) == bits(loop._rates(t, y, meas, z))
    assert loop._cores[not noisy] is not None and loop._cores[noisy] is None


def test_compiled_flow_keeps_signed_zeros(paper_params, paper_gains, paper_inertia):
    # with zero velocities, warp angle and filter states the rates hold signed zeros,
    # which must come out the same
    for kind, relaxed in STRUCTURES:
        loop = make(kind, relaxed, paper_params, paper_gains, paper_inertia,
                    st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0))
        y = tuple(random_state(kind, np.random.default_rng(3)).tolist())
        y = tuple(0.0 if i >= 9 else v for i, v in enumerate(y))
        y = (-0.0, *y[1:])
        assert bits(loop.flow(0.0, y, None)) == bits(loop._rates(0.0, y, None, (0.0,) * 3))


@pytest.mark.parametrize("kind", LAWS)
def test_compiled_flow_keeps_the_reference_checks(kind, paper_params, paper_gains,
                                                  paper_inertia):
    loop = make(kind, False, paper_params, paper_gains, paper_inertia)
    y = list(random_state(kind, np.random.default_rng(4)).tolist())
    loop.flow(0.0, tuple(y), None)  # compiled: the checks run outside the compiled core
    y[st.BasicLoop.OMEGA_R] = (30.0, 0.0, 0.0)
    for meas in (None, random_measurement(np.random.default_rng(5))):
        with pytest.raises(SolverError, match=r"left its declared set at t=0.25: "
                                              r"\|\|omega_r\|\| = 30 > 25"):
            loop.flow(0.25, tuple(y), meas)
    far = st.Reference("far", lambda t, xp=math: (3.0, 0.0, 0.0), m_bound=2.0,
                       omega_r_bound=25.0)
    loop = make(kind, False, paper_params, paper_gains, paper_inertia, far)
    y = tuple(random_state(kind, np.random.default_rng(6)).tolist())
    with pytest.raises(ContractError, match=r"reference 'far' at t=0.5: \|\|z\|\| = 3.0 "
                                            r"exceeds the bound 2.0"):
        loop.flow(0.5, y, None)


@pytest.mark.parametrize("kind, relaxed", STRUCTURES)
def test_compiled_code_looks_up_no_names(kind, relaxed, paper_params, paper_gains,
                                         paper_inertia):
    loop = make(kind, relaxed, paper_params, paper_gains, paper_inertia)
    for exact in (True, False):
        core = loop._compile_rates(exact)
        assert core.__code__.co_names == ()
        assert core.__name__ == f"{kind}_rates"


def test_trace_refuses_what_needs_a_value():
    def branch(xp, x):
        return (x[0] if x[0] > 0.0 else -x[0],)

    def library_sin(xp, x):
        return (math.sin(x[0]),)

    def truth(xp, x):
        return (x[0] if x[0] else 1.0,)

    def numpy_scalar(xp, x):
        return (np.float64(2.0) * x[0],)

    def numpy_scalar_right(xp, x):
        return (x[0] + np.float64(2.0),)

    def absolute(xp, x):
        return (abs(x[0]),)

    def boolean(xp, x):
        return (x[0] * True,)

    for fn in (branch, library_sin, truth, numpy_scalar, numpy_scalar_right, absolute, boolean):
        with pytest.raises(TypeError):
            straightline.compile_traced(fn, "f", x=1)


def test_compiled_function_folds_single_use_nodes():
    def fn(xp, x, c):
        s = xp.sin(x[0])
        return (s * s + 2.0 * x[1], -(x[1] / 3) - s, c[1][0], 1.5)

    f = straightline.compile_traced(fn, "f", x=2, c=(1, 1))
    a, b = 0.7, -1.25
    s = math.sin(a)
    assert bits(f((a, b), ((9.0,), (4.0,)))) == bits((s * s + 2.0 * b, -(b / 3) - s, 4.0, 1.5))
    assert f.__code__.co_names == ()
    assert "t_0" in f.__code__.co_varnames and "t_1" not in f.__code__.co_varnames


def count_compiles(monkeypatch) -> list:
    calls = []
    original = straightline.compile_traced

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(straightline, "compile_traced", spy)
    return calls


def test_loops_compile_on_first_flow_and_share_code(monkeypatch, fig4_cfg):
    calls = count_compiles(monkeypatch)
    st.validate_scenario(fig4_cfg)
    built = [st.build_member(fig4_cfg, m) for m in fig4_cfg.members]
    assert calls == []
    loop, y0 = built[0]
    y = tuple(y0.tolist())
    loop.flow(0.0, y, None)
    loop.flow(0.1, y, None)
    assert calls == ["basic_rates"]
    # a second loop of the same structure, with another k_theta, reuses the code object
    other_cfg = st.scenario_from_mapping({**st.parse_config_text(
        st.bundled_scenarios()["fig4"].read_text()), "k_theta": 17.0})
    other, _ = st.build_member(other_cfg, other_cfg.members[0])
    other.flow(0.0, y, None)
    assert calls == ["basic_rates"] * 2
    a, b = loop._cores[True], other._cores[True]
    assert a is not b and a.__code__ is b.__code__
    assert a.__defaults__ != b.__defaults__
