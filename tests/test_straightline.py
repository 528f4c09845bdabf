"""The compiled step and margin values: one straight-line function per loop
structure, traced from `HybridSystem.step` over each loop's `_rates` and from
each loop's `_values`, and the emitter behind them."""

import ast
import dataclasses
import math

import numpy as np
import pytest

import so3track as st
from paths import LAWS, bits, fig4, fig4_member, measurement, state
from so3track import controllers, straightline
from so3track.errors import SolverError
from so3track.hybrid import HybridSystem

# (law, relaxed filter) for every loop structure
STRUCTURES = [(kind, False) for kind in LAWS] + [("smooth", True)]
PAPER_SINE = st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0)


def make(kind, relaxed, p, gn, J, ref=PAPER_SINE):
    return st.make_loop(kind, p, gn, J, ref, relaxed_filter=relaxed)


def linear(m_bound):
    """A reference with z(t) = (t, 0, 0), whose checks fail at a chosen stage."""
    return st.Reference("linear", lambda t, xp=math: (t, 0.0, 0.0), m_bound=m_bound,
                        omega_r_bound=25.0)


# (reference, omega_r at the start, t, h, the error and the time at which the
# step fails first).  The stages run at t, t + h/2, t + h/2 and t + h; the
# reference velocity of a stage is omega_r plus the stage's step times z.
CHECK_CASES = [
    (PAPER_SINE, 30.0, 0.25, 1e-3, r"left its declared set at t=0.25: \|\|omega_r\|\| = 30 > 25",
     0.25),
    (linear(2.0), 24.9, 1.0, 1.0, r"left its declared set at t=1.5: \|\|omega_r\|\| = 25.4 > 25",
     1.5),
    (linear(2.0), 24.9, 0.0, 1.0, r"left its declared set at t=0.5: \|\|omega_r\|\| = 25.15 > 25",
     0.5),
    (linear(2.0), 24.6, 0.0, 1.0, r"left its declared set at t=1.0: \|\|omega_r\|\| = 25.1 > 25",
     1.0),
    (st.Reference("far", lambda t, xp=math: (3.0, 0.0, 0.0), m_bound=2.0, omega_r_bound=25.0),
     0.0, 0.5, 1e-3, r"reference 'far' at t=0.5: \|\|z\|\| = 3.0 exceeds the bound 2.0", 0.5),
    (linear(1.0), 0.0, 0.75, 1.0,
     r"reference 'linear' at t=1.25: \|\|z\|\| = 1.25 exceeds the bound 1.0", 1.25),
    (linear(1.0), 0.0, 0.25, 1.0,
     r"reference 'linear' at t=1.25: \|\|z\|\| = 1.25 exceeds the bound 1.0", 1.25),
]


@pytest.mark.parametrize("kind", LAWS)
def test_compiled_flow_keeps_the_reference_checks(kind, paper_params, paper_gains,
                                                  paper_inertia):
    # each check, failing first at stage 1, 2, 3 or 4, raises its error with
    # the message and the time of the interpreted step
    for ref, w, t, h, message, t_fail in CHECK_CASES:
        loop = make(kind, False, paper_params, paper_gains, paper_inertia, ref)
        y = list(state(kind, np.random.default_rng(4)).tolist())
        y[st.BasicLoop.OMEGA_R] = (w, 0.0, 0.0)
        for meas in (None, measurement(np.random.default_rng(5))):
            for step in (loop.step, lambda *a: HybridSystem.step(loop, *a)):
                with pytest.raises(SolverError, match=message) as e:
                    step(t, tuple(y), h, meas)
                assert e.value.t == t_fail


@pytest.mark.parametrize("kind", ("basic", "smooth", "velocity_free"))
def test_a_stage_that_raises_ends_in_a_solver_error(kind, paper_params, paper_gains,
                                                    paper_inertia):
    # k_theta = 1e308 sends the warp angle of stage 2 to infinity, whose sine
    # `math` refuses: the step raises what the interpreted one raises, and
    # `solve` turns it into a SolverError at the step's t, j and h
    gains = dataclasses.replace(paper_gains, k_theta=1e308)
    loop = make(kind, False, paper_params, gains, paper_inertia)
    rng = np.random.default_rng(7)
    y0 = state(kind, rng)
    while loop.jump_margin(0.0, tuple(y0.tolist()), None) >= 0.0:  # flow first
        y0 = state(kind, rng)
    y = tuple(y0.tolist())
    with pytest.raises(ValueError, match="math domain error"):
        HybridSystem.step(loop, 0.0, y, 1e-3, None)
    with pytest.raises(ValueError, match="math domain error"):
        loop.step(0.0, y, 1e-3, None)
    with pytest.raises(SolverError, match=r"a flow evaluation failed in the step from t=0.0, "
                                          r"j=0 with h=0.001: math domain error") as e:
        st.solve(loop, y0, st.SolverConfig(dt=1e-3, t_max=0.01))
    assert (e.value.t, e.value.j, e.value.h) == (0.0, 0, 1e-3)
    # where the reference check of stage 2 fails before that stage's sine, the
    # compiled step, which meets the sine first, still raises the check's error
    loop = make(kind, False, paper_params, gains, paper_inertia, linear(2.0))
    y = (*y[:13], 24.9, 0.0, 0.0, *y[16:])
    for step in (loop.step, lambda *a: HybridSystem.step(loop, *a)):
        with pytest.raises(SolverError, match=r"left its declared set at t=1.5: "
                                              r"\|\|omega_r\|\| = 25.4 > 25"):
            step(1.0, y, 1.0, None)


@pytest.mark.parametrize("kind, relaxed", STRUCTURES)
def test_compiled_code_looks_up_no_names(kind, relaxed, paper_params, paper_gains,
                                         paper_inertia):
    loop = make(kind, relaxed, paper_params, paper_gains, paper_inertia)
    for exact in (True, False):
        step = loop._compile_step(exact, PAPER_SINE.z_fn)
        assert step.__code__.co_names == ()
        assert step.__name__ == f"{kind}_step"
        traced = controllers._TRACES[(type(loop), "step", relaxed, exact, PAPER_SINE.z_fn)]
        assert traced._bind.__code__.co_names == ()
        if kind != "non_hybrid":
            values = loop._compile_values(exact)
            assert values.__code__.co_names == ()
            assert values.__name__ == f"{kind}_margin"
            traced = controllers._TRACES[(type(loop), "margin", exact, 1)]
            assert traced._bind.__code__.co_names == ()
        record = loop._compile_record(exact)
        assert record.__code__.co_names == ()
        assert record.__name__ == f"{kind}_record"
        traced = controllers._TRACES[(type(loop), "record", relaxed, exact)]
        assert traced._bind.__code__.co_names == ()
        # the run reads the builtins it calls, the step and the buffer
        # methods from its arguments
        run = loop._compile_run(exact)
        assert run.__code__.co_names == ()
        assert run.__name__ == f"{kind}_run"
        assert controllers._TRACES[(type(loop), "run", exact)] is run
        code = run.__code__
        bound = dict(zip(code.co_varnames[code.co_argcount - len(run.__defaults__):],
                         run.__defaults__))
        assert (bound["range"], bound["sum"], bound["isfinite"], bound["next"]) == (
            range, sum, math.isfinite, next)
        assert {"step", "add_t", "add_state", "fresh"} <= set(code.co_varnames[:code.co_argcount])


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
            straightline.trace(fn, "f", x=1)


class Knobs:
    k = 2.0
    pair = (3.0, 5.0)
    name = "knobs"
    listed = [1.0, 2.0]
    flag = True
    missing = None


def test_parameters_are_read_only_floats():
    # a parameter that is not a float or a tuple of floats would be baked into
    # code shared by other parameter values, so the trace refuses it
    for attr in ("name", "listed", "flag", "missing"):
        with pytest.raises(TypeError, match=f"g.{attr}: a .* is not a float"):
            straightline.trace(lambda xp, g, x: (getattr(g, attr) * x[0],), "f",
                               parameters={"g": Knobs()}, x=1)

    def assign(xp, g, x):
        g.k = 1.0
        return (x[0],)

    with pytest.raises(TypeError, match="read-only"):
        straightline.trace(assign, "f", parameters={"g": Knobs()}, x=1)
    traced = straightline.trace(lambda xp, g, x: (g.pair[1] * x[0],), "f",
                                parameters={"g": Knobs()}, x=1)
    other = Knobs()
    other.pair = (1.0, 2.0, 3.0)
    with pytest.raises(TypeError, match="does not have the shape it was traced with"):
        traced.bind(g=other)


def test_parameters_are_bound_once_per_caller():
    # the nodes of parameters alone (here -k and 2 k + pair[0]) are evaluated by
    # `bind`; the function gets their values as defaults
    def fn(xp, g, x):
        return (-g.k * x[0], (2.0 * g.k + g.pair[0]) * x[1], x[0] - g.pair[1], -g.k)

    traced = straightline.trace(fn, "f", parameters={"g": Knobs()}, x=2)
    assert "k" not in traced.source and "c_" not in traced.source
    for k, pair in ((2.0, (3.0, 5.0)), (0.1, (0.7, -0.0)), (-3, (1, 2))):
        g = Knobs()
        g.k, g.pair = k, pair
        f = traced.bind(g=g)
        x = (0.3, -1.7)
        assert bits(f(x)) == bits((-k * x[0], (2.0 * k + pair[0]) * x[1], x[0] - pair[1], -k))
        assert f.__code__ is traced.code


def test_compiled_function_folds_single_use_nodes():
    def fn(xp, x, c):
        s = xp.sin(x[0])
        return (s * s + 2.0 * x[1], -(x[1] / 3) - s, c[1][0], 1.5)

    f = straightline.trace(fn, "f", x=2, c=(1, 1)).bind()
    a, b = 0.7, -1.25
    s = math.sin(a)
    assert bits(f((a, b), ((9.0,), (4.0,)))) == bits((s * s + 2.0 * b, -(b / 3) - s, 4.0, 1.5))
    assert f.__code__.co_names == ()
    assert "t_0" in f.__code__.co_varnames and "t_1" not in f.__code__.co_varnames


def test_emitter_reuses_the_name_of_a_dead_local():
    # a, b and c are each used twice and each dies where the next is made, so
    # all three live in one name
    def fn(xp, x):
        a = x[0] * x[1]
        b = a + a
        c = b * b
        return (c - c / x[0],)

    traced = straightline.trace(fn, "f", x=2)
    f = traced.bind()
    assert "t_0 = t_0 + t_0" in traced.source and "t_0 = t_0 * t_0" in traced.source
    assert "t_1" not in f.__code__.co_varnames
    x = (0.3, 1.9)
    a = x[0] * x[1]
    c = (a + a) * (a + a)
    assert bits(f(x)) == bits((c - c / x[0],))


def test_emitter_writes_only_the_parentheses_the_grouping_needs():
    # each grouping below gives other bits when regrouped, so the values check
    # that the text keeps it; -(a * b) equals (-a) * b in IEEE arithmetic, so
    # only its text is checked.  No two expressions share an operation, which
    # value numbering would emit once, as a local, and not inline
    def fn(xp, x):
        a, b, c, d = x
        return (a - (b - c), a / (b * c), -(a * b), a * (b * d), (a - b) - c, a * d + c,
                -(a - d), a - -b)

    traced = straightline.trace(fn, "f", x=4)
    for text in ("x0 - (x1 - x2)", "x0 / (x1 * x2)", "-(x0 * x1)", "x0 * (x1 * x3)",
                 "x0 - x1 - x2", "x0 * x3 + x2", "-(x0 - x3)", "x0 - -x1"):
        assert text in traced.source
    a, b, c = 1.0, 1e-16, -1e-16
    assert a - (b - c) != (a - b) - c
    assert 0.1 * (0.2 * 0.3) != (0.1 * 0.2) * 0.3
    assert 1.0 / (3.0 * 3.0) != 1.0 / 3.0 * 3.0
    assert -(1.0 - 1e-16) != -1.0 - 1e-16
    f = traced.bind()
    for x in ((a, b, c, b), (0.1, 0.2, 0.3, 0.3), (1.0, 3.0, 3.0, 3.0)):
        a_, b_, c_, d_ = x
        want = (a_ - (b_ - c_), a_ / (b_ * c_), -(a_ * b_), a_ * (b_ * d_), (a_ - b_) - c_,
                a_ * d_ + c_, -(a_ - d_), a_ - -b_)
        assert bits(f(x)) == bits(want)


def repeated_operations(source: str, constants=()) -> list:
    """The operations of an emitted function that repeat an earlier one's op and operands.

    A local stands for the value last assigned to it, and each c_i for the
    repr of constants[i]; so an operation is one value-numbered node of the
    traced DAG, and a repeat one that value numbering would have merged.
    """
    numbers = {}  # (op, *operand numbers) or a name -> value number
    names = {f"c_{i}": numbers.setdefault(("c", repr(c)), len(numbers))
             for i, c in enumerate(constants)}
    repeats = []

    def number(node) -> int:
        if isinstance(node, ast.Name):
            if node.id not in names:  # an input
                names[node.id] = numbers.setdefault(node.id, len(numbers))
            return names[node.id]
        if isinstance(node, ast.BinOp):
            key = (type(node.op).__name__, number(node.left), number(node.right))
        elif isinstance(node, ast.UnaryOp):
            key = ("neg", number(node.operand))
        else:
            key = (node.func.id, number(node.args[0]))
        if key in numbers:
            repeats.append(ast.unparse(node))
        return numbers.setdefault(key, len(numbers))

    for stmt in ast.parse(source).body[0].body:
        if isinstance(stmt, ast.Return):
            for node in ast.walk(stmt.value):  # the returned expressions, not their tuples
                if isinstance(node, ast.Tuple):
                    for e in node.elts:
                        if not isinstance(e, ast.Tuple):
                            number(e)
        elif isinstance(stmt.targets[0], ast.Name):  # a local; unpacked inputs are names
            names[stmt.targets[0].id] = number(stmt.value)
    return repeats


def test_checker_finds_repeated_operations():
    # the same text is the same operation only while its locals hold the same
    # values, and two constants are the same operand when their reprs are
    source = ("def f(x0, x1, c_0, c_1):\n"
              "    t_0 = x0 * x1\n"
              "    t_1 = t_0 + x0\n"
              "    t_0 = x1 - x0\n"
              "    return (t_0 + x0, t_1, x0 * x1 + c_0, x0 * x1 + c_1, -sin(x1), sin(x1), )\n")
    repeats = ["x0 * x1", "x0 * x1", "sin(x1)"]
    assert repeated_operations(source, (2.0, 3.0)) == repeats
    assert repeated_operations(source, (-0.0, 0.0)) == repeats
    assert repeated_operations(source, (2.0, 2.0)) == ["x0 * x1", "x0 * x1", "x0 * x1 + c_1",
                                                       "sin(x1)"]


def test_a_repeated_expression_is_emitted_once():
    def fn(xp, x):
        a = x[0] * x[1]
        b = x[0] * x[1]
        return (a + 2.0, b - xp.sin(x[0]), xp.sin(x[0]) * 2.0)

    traced = straightline.trace(fn, "f", x=2)
    assert traced.source.count(" * ") == 2 and traced.source.count("sin(") == 1
    assert repeated_operations(traced.source, traced._constants) == []
    x = (0.3, -1.7)
    assert bits(traced.bind()(x)) == bits((x[0] * x[1] + 2.0, x[0] * x[1] - math.sin(x[0]),
                                           math.sin(x[0]) * 2.0))


def test_no_kernel_repeats_an_operation(monkeypatch, paper_params, paper_gains, paper_inertia):
    # every step, margin and record kernel of the four laws, exact and noisy
    count_traces(monkeypatch)
    for kind, relaxed in STRUCTURES:
        loop = make(kind, relaxed, paper_params, paper_gains, paper_inertia)
        for exact in (True, False):
            loop._compile_step(exact, PAPER_SINE.z_fn)
            loop._compile_record(exact)
            if kind != "non_hybrid":
                loop._compile_values(exact)
    # a step and a record per structure, a margin per hybrid law, each exact and noisy
    assert len(controllers._TRACES) == 2 * (2 * len(STRUCTURES) + 3)
    for key, traced in controllers._TRACES.items():
        assert repeated_operations(traced.source, traced._constants) == [], key


def count_traces(monkeypatch) -> list:
    """The names traced, and of the runs generated, from here on, with the trace cache emptied."""
    calls = []
    original, run = straightline.trace, controllers.run_function

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    def run_spy(name, *args):
        calls.append(name)
        return run(name, *args)

    monkeypatch.setattr(straightline, "trace", spy)
    monkeypatch.setattr(controllers, "run_function", run_spy)
    monkeypatch.setattr(controllers, "_TRACES", {})
    return calls


def test_loops_compile_on_first_flow_and_share_code(monkeypatch, fig4_cfg):
    calls = count_traces(monkeypatch)
    st.validate_scenario(fig4_cfg)
    built = [st.build_member(fig4_cfg, m) for m in fig4_cfg.members]
    assert calls == []
    loop, y0 = built[0]
    y = tuple(y0.tolist())
    loop.step(0.0, y, 1e-3, None)
    loop.step(0.1, y, 1e-3, None)
    assert calls == ["basic_step"]
    # a second loop of the same structure, with another k_theta, reuses the trace
    other_cfg = st.scenario_from_mapping({**fig4(), "k_theta": 17.0})
    other, _ = st.build_member(other_cfg, other_cfg.members[0])
    other.step(0.0, y, 1e-3, None)
    assert calls == ["basic_step"]
    key = (True, loop.reference.z_fn)
    a, b = loop._steps[key], other._steps[key]
    assert a is not b and a.__code__ is b.__code__
    assert a.__defaults__ != b.__defaults__
    # the margin values trace at the first margin, once for the structure
    loop.jump_margin(0.0, y, None)
    other.jump_margin(0.0, y, None)
    loop.jump(0.0, y, None)
    assert calls == ["basic_step", "basic_margin"]
    a, b = loop._margins[True], other._margins[True]
    assert a is not b and a.__code__ is b.__code__
    # a loop given another reference function steps with it, traced for it;
    # its margin does not read the reference
    other.reference = st.make_reference("rest", m_bound=2.0, omega_r_bound=25.0)
    assert bits(other.step(0.3, y, 1e-3, None)) == bits(HybridSystem.step(other, 0.3, y, 1e-3,
                                                                           None))
    other.jump_margin(0.3, y, None)
    assert calls == ["basic_step", "basic_margin", "basic_step"]


def test_a_relaxed_filter_has_its_own_step_and_shares_the_margin(monkeypatch, paper_params,
                                                                  paper_gains, paper_inertia):
    # `relaxed` is part of the step's structure only: the margin does not read it
    calls = count_traces(monkeypatch)
    y = tuple(state("smooth", np.random.default_rng(41)).tolist())
    loops = [make("smooth", relaxed, paper_params, paper_gains, paper_inertia)
             for relaxed in (False, True)]
    for loop in loops:
        loop.step(0.0, y, 1e-3, None)
        loop.jump_margin(0.0, y, None)
    assert calls == ["smooth_step", "smooth_margin", "smooth_step"]
    plain, relaxed = loops
    key = (True, PAPER_SINE.z_fn)
    assert plain._steps[key].__code__ is not relaxed._steps[key].__code__
    assert plain._margins[True].__code__ is relaxed._margins[True].__code__
    assert set(controllers._TRACES) == {
        (st.SmoothLoop, "step", False, True, PAPER_SINE.z_fn),
        (st.SmoothLoop, "step", True, True, PAPER_SINE.z_fn),
        (st.SmoothLoop, "margin", True, 1)}


@pytest.mark.parametrize("law", LAWS)
def test_one_trace_serves_every_member_of_a_structure(law, monkeypatch):
    # 8 members of one law with their own k_theta and theta_set trace once,
    # and a second pass over them traces nothing; the least theta_set, 0.5 pi,
    # has delta = 0.1, so delta_prime goes below it
    calls = count_traces(monkeypatch)
    cfgs = [fig4_member(law, k_theta=5.0 + 3.0 * i, delta_prime=0.05, noise_var_R=0.0,
                        theta_set=[-(0.5 + 0.05 * i) * math.pi, (0.5 + 0.05 * i) * math.pi],
                        noise_var_omega=0.0, t_max=0.005) for i in range(8)]
    # `solve` takes the margin at the initial state before the first step,
    # binds the step and makes the run of flow steps at its first run, and
    # records the arc after the last; a loop without a warp angle traces no
    # margin.  The run is made once, not once per loop
    traced = ([f"{law}_step", f"{law}_run", f"{law}_record"] if law == "non_hybrid" else
              [f"{law}_margin", f"{law}_step", f"{law}_run", f"{law}_record"])
    for _ in range(2):
        runs = [st.simulate_member(cfg, cfg.members[0]) for cfg in cfgs]
        assert calls == traced
    steps = {step for run in runs for step in run.loop._steps.values()}
    assert len({s.__code__ for s in steps}) == 1 and len(steps) == 8
    assert len({s.__defaults__ for s in steps}) == (1 if law == "non_hybrid" else 8)
    records = {r for run in runs for r in run.loop._records.values()}
    assert len({r.__code__ for r in records}) == 1 and len(records) == 8
    # every member runs its steps through the one run of the structure
    assert [key for key in controllers._TRACES if key[1] == "run"] == [(type(runs[0].loop), "run",
                                                                      True)]
    assert all(run.arc.stats.handed_back == 0 for run in runs)
    margins = {m for run in runs for m in run.loop._margins.values()}
    if law == "non_hybrid":
        assert margins == set()
    else:  # each member binds its own theta_set
        assert len({m.__code__ for m in margins}) == 1 and len(margins) == 8
        assert len({m.__defaults__ for m in margins}) == 8


def test_a_loop_evaluates_each_kernels_parameters_once(monkeypatch, fig4_cfg):
    # a noisy velocity_free member binds its step, its record and its margin
    # twice (floats and columns), one trace each; each binding evaluates the
    # trace's parameter values once
    count_traces(monkeypatch)
    evaluated = []
    original = straightline.Traced.__init__

    def init(traced, *args, **kwargs):
        original(traced, *args, **kwargs)
        inner = traced._bind

        def spy(p):
            evaluated.append(traced.name)
            return inner(p)

        traced._bind = spy

    monkeypatch.setattr(straightline.Traced, "__init__", init)
    cfg = dataclasses.replace(fig4_cfg, t_max=0.2)
    member = next(m for m in cfg.members if m.controller == "velocity_free")
    kernels = ["velocity_free_margin"] * 2 + ["velocity_free_record", "velocity_free_step"]
    for n in (1, 2):
        res = st.simulate_member(cfg, member)
        assert res.arc.stats.margins_batched > 0 and list(res.loop._margin_columns) == [False]
        assert sorted(evaluated) == sorted(kernels * n)
    assert res.loop._margins[False].__code__ is res.loop._margin_columns[False].__code__
