"""One table of every fast path against its reference path.

Each Row of TABLE runs a fast path and the path it must reproduce (its
check's docstring names both) over its structures.  Floats compare by
`tobytes`, arcs by `arc_bits`, and a path that raises must raise its
reference's exception type and message.

A loop structure is law x exact/noisy x relaxed filter x 1-3 reset angles x
reference function; a row takes those that change its path (the step's trace
reads no reset angle, the margin's no filter and no reference, the record's
no reset angle).  The states come from one seeded generator, `samples`:

  uniform      random rotations, angles and rates;
  critical     at and next to each of `undesired_critical_points`;
  resets       in the jump set, each warp angle's least reset value at each
               reset angle in turn;
  tie          next to the half turn diag(1, -1, -1), where the reset values
               of {a, -a} tie;
  bounds       |omega_r| a part in 1e9 inside and outside its bound;
  exp_branch   measurement rotations at and about the 1e-6 branch of
               `exp_so3_f` (noisy structures only);
  signed_zero  signed zeros in every rate and angle; rotations random, random
               with -0.0 at [0, 0], the identity with signed zeros off the
               diagonal, or turns of entries +-1 and signed zeros with one on
               the diagonal; a measurement of the last two kinds; t = 0;
  identity     rotations at the identity and 1 ulp either side;
  nonfinite    a NaN, inf or -inf in one field each, the first warp angle in
               the jump set;
  traffic      states of the fig3 and fig4 arcs, as the paths see them in runs.

A row on columns drops the states whose float path raises (a raise cannot
share a batch); the record and the identity row drop nonfinite states, which
`solve` never records and where E = I is no identity (inf * 0 is NaN).  To
add a row (ROADMAP items 2 and 9), append a Row: `test_paths.py` runs the
table in tier-1, `mutate_paths.py` against mutants of the compiled code.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math

import numpy as np

import so3track as st
from so3track import controllers, hybrid, so3
from so3track.controllers import LOOP_CLASSES, MARGIN_BATCH_MIN, _view
from so3track.errors import SolverError
from so3track.hybrid import HybridSystem
from so3track.potential import warp_rotation_f
from so3track.so3 import (ARRAY_MATH, columns, diag_mul_f, exp_so3_f, floats, mat_mul_f, norm2_f,
                          orthonormalize_f)

LAWS = ("basic", "smooth", "velocity_free", "non_hybrid")
RESET_SETS = ((0.9 * math.pi,), (-0.9 * math.pi, 0.9 * math.pi),
              (0.9 * math.pi, -0.9 * math.pi, 0.7 * math.pi))
GAINS = st.Gains(k_R=1.5, k_omega=0.2, k_theta=50.0, k_zeta=150.0, k_beta=3.0,
                 Gamma_diag=[30.0, 30.0, 30.0], rho=0.0146, delta_prime=0.162)
INERTIA = st.Inertia([0.0159, 0.0150, 0.0297])
NOISE = st.NoiseModel(sigma_R=0.05, sigma_omega=0.05)
REFERENCES = {
    "sine": st.make_reference("paper_sine", m_bound=2.0, omega_r_bound=25.0),
    "rest": st.make_reference("rest", m_bound=1.0, omega_r_bound=5.0),
    # ||z|| at its bound, which it does not exceed
    "edge": st.Reference("edge", lambda t, xp=math: (2.0, 0.0, 0.0), m_bound=2.0,
                         omega_r_bound=25.0),
}
IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
# rotation vectors at the 1e-6 branch of exp_so3_f, below it and past it
EXP_BRANCH = [(0.0, 0.0, 0.0), (1e-6, 0.0, 0.0), (0.0, -1e-6 * (1.0 - 2.0**-52), 0.0),
              (0.0, 0.0, 1e-6 * (1.0 + 2.0**-52)), (-5e-7, 5e-7, 5e-7), (7e-7, -7e-7, 7e-7)]


# Tumbling members: fig4's settings, noise off and a seeded initial state, whose seed makes
# each hybrid law refine a jump within t_max = 0.5.
TUMBLE_SEEDS = {"basic": 7, "smooth": 16, "velocity_free": 10, "non_hybrid": 0}


def fig4() -> dict:
    """The bundled fig4 scenario's keys."""
    return st.parse_config_text(st.bundled_scenarios()["fig4"].read_text())


def tumble_overrides(law: str) -> dict:
    """The keys that turn fig4 into `law`'s tumbling member: its seeded state, noise off."""
    rng = np.random.default_rng(TUMBLE_SEEDS[law])
    return {
        "omega0": rng.uniform(-20.0, 20.0, 3).tolist(),
        "theta0": float(rng.uniform(-math.pi, math.pi)),
        "R0_axis": rng.normal(size=3).tolist(), "R0_angle": float(rng.uniform(0.0, math.pi)),
        "theta_set": [-0.9 * math.pi, 0.9 * math.pi],
        "noise_var_R": 0.0, "noise_var_omega": 0.0,
    }


def fig4_member(law: str, **keys):
    """fig4 with one member, of `law`, and the keys given."""
    base = fig4()
    return st.scenario_from_mapping({**base, "controllers": [law], "gammas": base["gammas"][:1],
                                     **keys})


def tumble_config(law: str, t_max: float = 0.5):
    """The one-member scenario `tumble` of `law`'s tumbling member."""
    return fig4_member(law, name="tumble", **tumble_overrides(law), t_max=t_max)


@functools.cache
def params(resets: int):
    """The simulation study's parameters, with the first `resets` reset angles of RESET_SETS."""
    return st.design_params([2.0, 4.0, 6.0], RESET_SETS[resets - 1], gamma=7.0 / math.pi**2,
                            delta_frac=0.8)


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def outcome(fn, *args):
    """The bits of fn(*args), or the type, message and t of what it raised."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError, SolverError) as e:
        return type(e), str(e), getattr(e, "t", None)


# --- states ------------------------------------------------------------------------


# A loop structure; its id in the tests is its fields joined by "-"
Structure = collections.namedtuple("Structure", "law noisy relaxed resets ref",
                                   defaults=(False, 1, "sine"))


def structures(noisy=(False, True), resets=(1, 2, 3), refs=("sine",), relaxed=True) -> list:
    filters = [(law, False) for law in LAWS] + [("smooth", True)] * relaxed
    return [Structure(law, n, rel, r, ref) for law, rel in filters for n in noisy
            for r in resets for ref in refs]


def loop(s: Structure, noise=None):
    return st.make_loop(s.law, params(s.resets), GAINS, INERTIA, REFERENCES[s.ref], noise,
                        s.relaxed)


def fields(kind: str, rng, n=None, **given) -> dict:
    """The fields of a state of the law, by name: random, but those given; of n states, each
    field's values stacked along a first axis, if n is given."""
    rotation = st.random_rotation if n is None else functools.partial(st.random_rotations, n)
    vector = 3 if n is None else (n, 3)
    out = dict(Re=rotation(rng), theta=rng.uniform(-math.pi, math.pi, n),
               omega_e=rng.standard_normal(vector), omega_r=rng.standard_normal(vector))
    if kind == "smooth":
        out["zeta"] = rng.standard_normal(vector)
    if kind == "velocity_free":
        out.update(Rtilde=rotation(rng), theta_bar=rng.uniform(-2.0, 2.0, n))
    return {**out, **given}


def state(kind: str, rng, **given) -> np.ndarray:
    return LOOP_CLASSES[kind].pack(**fields(kind, rng, **given))


def measurement(rng, sigma=0.1, w=None) -> tuple:
    """A measurement row: E = exp(w), w ~ N(0, sigma) unless given, row-major, then n_omega."""
    w = rng.normal(0.0, sigma, 3) if w is None else w
    return (*exp_so3_f(*map(float, w)), *floats(rng.normal(0.0, 0.1, 3)))


def signed_zeros(rng, n) -> np.ndarray:
    return np.copysign(np.zeros(n), rng.choice([-1.0, 1.0], n))


def signed_eye(rng) -> np.ndarray:
    """The identity, row-major, with signed zeros off the diagonal."""
    return np.where(np.eye(3).ravel() == 1.0, 1.0, signed_zeros(rng, 9))


def signed_turn(rng) -> np.ndarray:
    """A rotation of entries +-1 and signed zeros, row-major, with a zero on the diagonal."""
    while True:
        M = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], (3, 1))
        if np.linalg.det(M) > 0.0 and 0.0 in M.diagonal():
            return np.where(M.ravel() == 0.0, signed_zeros(rng, 9), M.ravel())


def least_at(k: int, p, rng) -> tuple:
    """A rotation and angle in the jump set whose least reset value is at theta_set[k]."""
    while True:
        R, theta = st.random_rotation(rng), rng.uniform(-math.pi, math.pi)
        if (np.argmin([st.value(R, a, p) for a in p.theta_set]) == k
                and st.gap(R, theta, p) >= p.delta):
            return R, theta


@functools.cache
def classes(kind: str, resets: int, ref: str) -> dict:
    """{class: [packed state, ...]} but traffic, seeded by the law, reset count and reference."""
    rng = np.random.default_rng([LAWS.index(kind), resets, list(REFERENCES).index(ref)])
    p, L = params(resets), LOOP_CLASSES[kind]
    warps = [("Re", "theta"), ("Rtilde", "theta_bar")][:1 + (kind == "velocity_free")]

    def at(R, theta, *of):  # the fields of the warp angles `of` (all by default) at (R, theta)
        return {f: v for w in (of or warps) for f, v in zip(w, (R, theta))}

    near = lambda R: R @ st.exp_so3(rng.normal(0.0, 1e-7, 3))  # noqa: E731
    half = np.diag([1.0, -1.0, -1.0])
    unit = [v / np.linalg.norm(v) for v in rng.standard_normal((2, 3))]
    out = {
        "uniform": [state(kind, rng) for _ in range(10)],
        "critical": [state(kind, rng, **at(R, theta)) for c in st.undesired_critical_points(p)
                     for R, theta in ((c.rotation, c.theta),
                                      (near(c.rotation), c.theta + rng.normal(0.0, 1e-9)))],
        "resets": [state(kind, rng, **{**at(np.eye(3), 0.0), **at(*least_at(k, p, rng), w)})
                   for k in range(len(p.theta_set)) for w in warps],
        "tie": [state(kind, rng, **at(half @ st.exp_so3(rng.normal(0.0, 1e-9, 3)),
                                      rng.normal(0.0, 1e-9)),
                      **({"zeta": np.zeros(3)} if kind == "smooth" else {})) for _ in range(4)],
        "bounds": [state(kind, rng, omega_r=u * REFERENCES[ref].omega_r_bound * (1.0 + e))
                   for u in unit for e in (-1e-9, 1e-9)],
        "exp_branch": [state(kind, rng) for _ in EXP_BRANCH],
        "signed_zero": [],
        "identity": [state(kind, rng, **at(np.eye(3) * e, rng.uniform(-1.0, 1.0)))
                     for e in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))],
        "nonfinite": [],
    }
    for j in range(8):  # rotations random (-0.0 at [0, 0] in odd j), at I or turns; else +-0.0
        y = signed_zeros(rng, L.WIDTH)
        for sl in L.rotation_slices:
            y[sl] = (signed_eye, signed_turn)[j % 2](rng) if j >= 4 else st.random_rotation(
                rng).ravel()
            y[sl.start] = -0.0 if j < 4 and j % 2 else y[sl.start]
        out["signed_zero"].append(y)
    for f in (getattr(L, n) for n in ("R_E", "THETA", "OMEGA_E", "OMEGA_R", "ZETA", "R_TILDE",
                                      "THETA_BAR") if hasattr(L, n)):
        for v in (math.nan, math.inf, -math.inf):
            y = state(kind, rng, **at(*least_at(0, p, rng), warps[0]))
            y[f.start if isinstance(f, slice) else f] = v
            out["nonfinite"].append(y)
    return out


def samples(s: Structure, traffic: dict, skip=()) -> list:
    """[(class, t, state as a tuple, measurement row or None)] of structure s, seeded."""
    rng = np.random.default_rng(29)
    rows = {"tie": lambda i: measurement(rng, 1e-12),  # a tie stays near under noise
            "exp_branch": lambda i: measurement(rng, w=EXP_BRANCH[i]),
            "signed_zero": lambda i: (*(signed_eye, signed_turn)[i % 2](rng),
                                      *signed_zeros(rng, 3)),
            "identity": lambda i: IDENTITY}
    out = []
    for cls, ys in {**classes(s.law, s.resets, s.ref), "traffic": traffic.get(s.law, [])}.items():
        if cls in skip or (cls == "exp_branch" and not s.noisy):
            continue
        for i, y in enumerate(ys):
            row = rows.get(cls, lambda i: measurement(rng))
            meas = tuple(map(float, row(i))) if s.noisy else None
            t = 0.0 if cls == "signed_zero" else rng.uniform(0.0, 10.0)
            out.append((cls, t, tuple(map(float, y)), meas))
    return out


def arrays(kept, noisy) -> tuple:
    """(t, states, noise) of samples, as `solve` hands them to `record` and `jump_margins`."""
    return (np.array([x[1] for x in kept]), np.array([x[2] for x in kept]),
            np.array([x[3] for x in kept]) if noisy else None)


def traffic(members) -> dict:
    """{law: states} from (loop, arc) pairs: 4 evenly spaced samples and the first jump's two."""
    out = collections.defaultdict(list)
    for lp, arc in members:
        jumps = np.flatnonzero(np.diff(arc.j))[:1] + 1
        at = {*np.linspace(0, len(arc) - 1, 4).astype(int), *jumps, *(jumps - 1)}
        out[lp.kind] += [arc.states[k] for k in sorted(at)]
    return dict(out)


# --- rows on states ------------------------------------------------------------------


def check_step(s: Structure, traffic):
    """The compiled step (`loop.step`) against `HybridSystem.step` on the interpreted `flow`.

    At dt, a shorter step and, from signed zeros, h = 0.  Where the reference
    returns, the compiled step took the step (no interpreted flow ran), and
    its check values are |omega_r|^2 and ||z|| of the interpreted stages.
    """
    lp = loop(s)
    stages, flow, z_fn = [], lp.flow, REFERENCES[s.ref].z_fn
    lp.flow = lambda t, y, meas: stages.append((t, y)) or flow(t, y, meas)
    rng = np.random.default_rng(3)
    for cls, t, y, meas in samples(s, traffic):
        for h in (1e-3, rng.uniform(0.0, 1e-3), *((0.0,) if cls == "signed_zero" else ())):
            stages.clear()
            got = outcome(lp.step, t, y, h, meas)
            interpreted = bool(stages)
            want = outcome(lambda *a: HybridSystem.step(lp, *a), t, y, h, meas)
            assert got == want, (cls, t, y, h, meas)
            if type(want) is bytes:
                assert not interpreted, (cls, "compiled step not taken")
                checks = lp._steps[meas is None, z_fn](t, y, h, meas)[1]
                assert bits(checks) == bits([(norm2_f(yy[lp.OMEGA_R]), math.sqrt(norm2_f(z_fn(tt))))
                                             for tt, yy in stages]), (cls, "checks")
    assert list(lp._steps) == [(not s.noisy, z_fn)]


def oracle_gaps(lp, y, meas) -> list:
    """(gap, best reset angle) of each warp angle: the jump rule on floats, warp angle by warp
    angle and reset angle by reset angle, through the loop's own `_value_w`, with each warp
    rotation built here by `warp_rotation_f`.  The least reset value is the first that is `<`
    every earlier one, so ties go to the first angle of `theta_set` and NaN is never least."""
    p = lp.params
    out = []
    for _, sl, i in lp.warp_angles:
        AR = diag_mul_f(p.A_diag, y[sl] if meas is None else mat_mul_f(y[sl], meas[:9]))
        best_t, best_v = p.theta_set[0], math.inf
        for tp in p.theta_set:
            v = lp._value_w(AR, warp_rotation_f(tp, p), tp, y)
            if v < best_v:
                best_t, best_v = tp, v
        out.append((lp._value_w(AR, warp_rotation_f(y[i], p), y[i], y) - best_v, best_t))
    return out


def oracle_margin(lp, y, meas) -> float:
    """The largest gap minus the threshold: the last NaN gap's if a gap is NaN (its sign bit is
    that of the operation that made it), -inf without a warp angle."""
    g = [gap for gap, _ in oracle_gaps(lp, y, meas)]
    nan = [x for x in g if x != x]
    return (nan[-1] if nan else max(g, default=-math.inf)) - lp._threshold


def oracle_jump(lp, y, meas):
    """The state after the jump map; outside the jump set, the loop's SolverError."""
    if not oracle_margin(lp, y, meas) >= 0.0:
        raise SolverError(f"the {lp.kind} jump map was applied outside the jump set")
    out = list(y)
    for (g, best), (_, _, i) in zip(oracle_gaps(lp, y, meas), lp.warp_angles):
        if g >= lp._threshold:
            out[i] = best
    return tuple(out)


def check_margin(s: Structure, traffic):
    """The compiled margin values (`jump_margin`, `jump`) against the oracle on floats, each
    reset count with a trace of its own."""
    lp = loop(s)
    signs = set()
    for cls, t, y, meas in samples(s, traffic):
        got = outcome(lp.jump_margin, t, y, meas)
        assert got == outcome(oracle_margin, lp, y, meas), (cls, y, meas)
        assert outcome(lp.jump, t, y, meas) == outcome(oracle_jump, lp, y, meas), (cls, y)
        if type(got) is bytes:
            signs.add(np.frombuffer(got)[0] >= 0.0)
    assert signs == ({False} if s.law == "non_hybrid" else {False, True})
    assert list(lp._margins) == ([] if s.law == "non_hybrid" else [not s.noisy])
    assert ((type(lp), "margin", not s.noisy, s.resets) in controllers._TRACES) == bool(lp._margins)


def check_margins(s: Structure, traffic):
    """`jump_margins` on (n,) columns, below and past MARGIN_BATCH_MIN, against `jump_margin`.

    The columns bind the float margin's trace and trace nothing of their own.
    """
    lp = loop(s)
    kept = [x for x in samples(s, traffic) if type(outcome(lp.jump_margin, *x[1:])) is bytes]
    t, S, noise = arrays(kept, s.noisy)
    want = np.array([lp.jump_margin(*x[1:]) for x in kept])
    traces = set(controllers._TRACES)
    short = slice(len(S) - (MARGIN_BATCH_MIN - 1), None)
    for rows, bound in ((short, []), (slice(None), [] if s.law == "non_hybrid" else [not s.noisy])):
        got = lp.jump_margins(t[rows], S[rows], None if noise is None else noise[rows])
        assert got.shape == want[rows].shape and got.tobytes() == want[rows].tobytes()
        assert list(lp._margin_columns) == bound
    assert HybridSystem.jump_margins(lp, t, S, noise).tobytes() == want.tobytes()
    assert set(controllers._TRACES) == traces
    if s.law != "non_hybrid":
        assert {v >= 0.0 for v in want} == {False, True} and np.isnan(want).any()


def float_row(lp, t, y, meas, in_jump) -> list:
    """The recorded row of one sample, by `_columns` interpreted on floats."""
    return lp._columns(float(t), list(map(float, y)), meas, bool(in_jump), math,
                       lambda v, m, z: lp._recorded(v, _view(m), z))


def check_record(s: Structure, traffic):
    """`record` (the compiled `_recorded` on columns) against `_columns` interpreted,
    on the same columns and per sample on floats."""
    lp = loop(s)
    kept = samples(s, traffic, skip=("nonfinite",))
    t, S, noise = arrays(kept, s.noisy)
    in_jump = np.random.default_rng(5).integers(2, size=len(S)).astype(bool)
    got = lp.record(t, S, noise, in_jump)
    want = lp._columns(t, columns(S), None if noise is None else columns(noise), in_jump,
                       ARRAY_MATH, lambda v, m, z: lp._recorded(v, _view(m), z, ARRAY_MATH))
    rows = [float_row(lp, tt, y, m, f) for (_, tt, y, m), f in zip(kept, in_jump)]
    assert len(got) == len(lp.columns)
    assert np.stack(got, axis=1).tobytes() == np.stack(want, axis=1).tobytes() == bits(rows)
    assert 0.0 in got[0]  # the distance at the identity, clamped outside the trace
    assert (type(lp), "record", s.relaxed, not s.noisy) in controllers._TRACES


def check_identity(s: Structure, traffic):
    """`flow`, `torque` and `jump_margin` under the identity measurement row against under None."""
    lp = loop(s)
    for cls, t, y, _ in samples(s, traffic, skip=("nonfinite",)):
        for fn in (lp.flow, lp.torque, lp.jump_margin):
            assert outcome(fn, t, y, IDENTITY) == outcome(fn, t, y, None), (cls, fn, y)


def check_exp(s, traffic):
    """`exp_so3_f` on (n,) columns (ARRAY_MATH, np.where) against `exp_so3_f` on floats."""
    rng = np.random.default_rng(17)
    w = rng.standard_normal((3, 400)) * 10.0 ** rng.uniform(-9.0, 1.5, 400)
    w = np.concatenate((np.transpose(EXP_BRANCH), signed_zeros(rng, (3, 4)), w), axis=1)
    t = np.sqrt((w * w).sum(axis=0))
    assert (t < 1e-6).sum() > 20 and (t >= 1e-6).sum() > 20
    cols = np.array(exp_so3_f(*w, ARRAY_MATH, np.where))
    assert cols.shape == (9, w.shape[1])
    assert cols.T.tobytes() == bits([exp_so3_f(*x) for x in w.T.tolist()])
    assert exp_so3_f(0.0, 0.0, 0.0) == IDENTITY[:9]


def check_potential(s: Structure, traffic):
    """The potential's `value_f`, `gradients_f` and `gap` on (n,) columns against each on floats,
    with numpy's warnings of inf - inf silenced and its NaNs compared."""
    p = params(s.resets)
    kept = [x[2] for x in samples(s, {})] + [y for ys in traffic.values() for y in ys]
    with np.errstate(all="ignore"):
        kept = [(np.reshape(y[:9], (3, 3)), y[9]) for y in kept
                if type(outcome(st.gap, np.reshape(y[:9], (3, 3)), y[9], p)) is bytes]
        Rs, th = np.array([R for R, _ in kept]), np.array([x for _, x in kept])
        AR = st.potential.moment(Rs, p)
        assert st.potential.value_f(AR, th, p, ARRAY_MATH).tobytes() == bits(
            [st.value(R, x, p) for R, x in kept])
        assert np.stack(st.potential.gradients_f(AR, th, p, ARRAY_MATH), axis=1).tobytes() == bits(
            [np.append(*st.gradients(R, x, p)) for R, x in kept])
        assert st.gap(Rs, th, p).tobytes() == bits([st.gap(R, x, p) for R, x in kept])


# --- rows on arcs ------------------------------------------------------------------


def arc_bits(arc, stats=True) -> tuple:
    """All that an arc holds, as bytes and plain values; a SolverError's type, text, t, j, h."""
    if isinstance(arc, SolverError):
        return type(arc), str(arc), arc.t, arc.j, arc.h
    return (arc.t.tobytes(), arc.j.tobytes(), arc.data.tobytes(), arc.states.tobytes(),
            [(ev.t, ev.j_before, ev.y_pre.tobytes(), ev.y_post.tobytes(), ev.meas)
             for ev in arc.jumps], arc.status, arc.stats if stats else None)


def solved(system, y0, cfg, rng=None, single=False, stepwise=False):
    """`solve`'s arc or SolverError: in runs of single steps (as checking each step alone),
    or with the default run hook, which takes no step (the per-step path)."""
    saved = hybrid.RUN_FIRST, hybrid.RECORD_BATCH
    if single:
        hybrid.RUN_FIRST = hybrid.RECORD_BATCH = 1
    if stepwise:
        system.flow_steps = functools.partial(HybridSystem.flow_steps, system)
    try:
        return st.solve(system, np.array(y0, dtype=float), cfg, rng)
    except SolverError as e:
        return e
    finally:
        hybrid.RUN_FIRST, hybrid.RECORD_BATCH = saved
        if stepwise:
            del system.flow_steps


def critical_start(s: Structure) -> tuple:
    """(loop, y0, config) of s, noisy or not, next to a critical point, where hybrid laws jump."""
    y0 = state(s.law, np.random.default_rng(31), Re=st.angle_axis(math.pi - 1e-3, np.eye(3)[0]),
               theta=0.0, omega_r=np.zeros(3))
    return loop(s, NOISE if s.noisy else None), y0, st.SolverConfig(dt=1e-3, t_max=0.15, j_max=10)


def member(scenario: str, index: int, t_max: float) -> tuple:
    """(loop, y0, solver config, seed) of a bundled scenario's member, to t_max."""
    cfg = dataclasses.replace(st.load_scenario(scenario), t_max=t_max)
    return (*st.build_member(cfg, cfg.members[index]), cfg.solver, cfg.members[index].seed)


def wrap_step(lp, fn):
    """Put fn(step, t, y, h, meas) in place of the loop's compiled step, which both `loop.step`
    and the compiled run call; the compiled step."""
    key = (lp.noise is None, lp.reference.z_fn)
    step = lp._step_function(key[0])
    lp._steps[key] = lambda *a: fn(step, *a)
    return step


def forced(reason: str, at: set, dt: float, first_only: bool):
    """A wrapper (`wrap_step`) that fails the step from t = k dt, for k in at, as `reason` names
    (a drift of about 4e-4).  With first_only it fails on the first call from such a t only,
    which the run makes; `loop.step`, which takes the step again, gets its bits."""
    calls = collections.Counter()

    def spy(step, t, y, h, meas):
        y_h, checks = step(t, y, h, meas)
        k = round(t / dt)
        calls[k] += 1
        if k not in at or (first_only and calls[k] > 1):
            return y_h, checks
        if reason == "raise":
            raise OverflowError("forced")
        return {"check": (y_h, (math.inf, *checks[1:])),
                "non_finite": ((math.nan, *y_h[1:]), checks),
                "drift": (tuple(x * (1.0 + 2e-4) for x in y_h[:9]) + y_h[9:], checks)}[reason]

    return spy


# (reference, omega_r, dt, t_max) that put a test of a run at its bound: ||z|| and
# |omega_r|^2 at theirs; a drift entry at DRIFT_DONE or DRIFT_SAFE (`drift_edges`);
# t_max - t = END_GAP after the first step
EDGES = {"z": (REFERENCES["edge"], np.zeros(3), 1e-3, 0.05),
         "omega_r": (REFERENCES["rest"], np.array([3.0, 4.0, 0.0]), 1e-3, 0.05),
         "drift": (REFERENCES["sine"], None, 1e-3, 0.05),
         "end": (REFERENCES["sine"], None, 2.0**-41, 2.0**-41 + hybrid.END_GAP)}


def drift_edges(lp):
    """Make the compiled step's result from t = k dt, k = 1, 2, ..., hold one rotation block at
    I but for an off-diagonal entry, which makes its drift entry +-DRIFT_DONE or +-DRIFT_SAFE
    exactly: each block, entry and bound in turn."""
    edges = [(sl, i, v) for sl in lp.rotation_slices for i in (1, 2, 5)
             for b in (so3.DRIFT_DONE, so3.DRIFT_SAFE) for v in (b, -b)]

    def spy(step, t, y, h, meas):
        y_h, checks = step(t, y, h, meas)
        k = round(t / 1e-3) - 1
        if 0 <= k < len(edges):
            sl, i, v = edges[k]
            r = list(IDENTITY[:9])
            r[i] = v
            y_h = (*y_h[:sl.start], *r, *y_h[sl.stop:])
        return y_h, checks

    wrap_step(lp, spy)


def ns_passes(r) -> int:
    """The Newton-Schulz passes that `orthonormalize_f` takes on r (0 past DRIFT_SAFE)."""
    for k in range(so3.NS_PASSES):
        d = max(map(abs, so3.drift_f(r)))
        if d <= so3.DRIFT_DONE or not d <= so3.DRIFT_SAFE:
            return k
        r = so3.newton_schulz_f(r, so3.drift_f(r))
    return so3.NS_PASSES


def count_passes(lp) -> collections.Counter:
    """Newton-Schulz passes per projection of each compiled step's result, counted from here on."""
    passes = collections.Counter()

    def counted(step, *a):
        out = step(*a)
        passes.update(ns_passes(out[0][sl]) for sl in lp.rotation_slices)
        return out

    wrap_step(lp, counted)
    return passes


def check_run_hook(s, traffic):
    """The compiled runs (`flow_steps`) against the per-step path, the default hook's.

    Structures: next to a critical point (every loop structure); each test of
    a run at its bound (EDGES); fig4's smooth member, whose run rolls back;
    fig3's converged first member, whose projections take no Newton-Schulz
    pass, and fig4's velocity_free member, two in about a fifth of them; and
    fig3's first member with the compiled step forced to raise, fail a check,
    give a non-finite state or drift past DRIFT_SAFE at three steps, which the
    run hands back.
    """
    kind, *arg = s
    seed, handed_back = 5, 0
    if kind == "critical":
        system, y0, cfg = critical_start(Structure(*arg))
    elif kind == "edge":
        law, noisy, which = arg
        ref, omega_r, dt, t_max = EDGES[which]
        system = st.make_loop(law, params(1), GAINS, INERTIA, ref, NOISE if noisy else None)
        y0 = state(law, np.random.default_rng(9),
                   **({} if omega_r is None else {"omega_r": omega_r}))
        cfg = st.SolverConfig(dt=dt, t_max=t_max)
        if which == "drift":
            drift_edges(system)
    elif kind == "stop":
        system, y0, cfg, seed = member("fig3", 0, 0.1)
        at, handed_back = {5, 40, 77}, 3
        if arg[0] != "non_finite":  # forced on every call, the per-step path's too
            wrap_step(system, forced(arg[0], at, cfg.dt, False))
    else:
        system, y0, cfg, seed = member(*arg[:3])
    stepwise = solved(system, y0, cfg, seed, stepwise=True)
    if kind == "stop":
        system._steps.clear()
        wrap_step(system, forced(arg[0], at, cfg.dt, arg[0] == "non_finite"))
    passes = count_passes(system) if kind == "passes" else None
    runs = solved(system, y0, cfg, seed)
    assert arc_bits(runs, stats=False) == arc_bits(stepwise, stats=False)
    assert dataclasses.replace(stepwise.stats, handed_back=0) == dataclasses.replace(
        runs.stats, handed_back=0)
    assert runs.stats.handed_back == handed_back < stepwise.stats.handed_back
    if kind == "critical":
        assert (len(runs.jumps) > 0) == (arg[0] != "non_hybrid")
    if kind == "rollback":
        assert runs.jumps and runs.stats.rolled_back > 0
    if kind == "passes":
        assert passes[arg[3]] > 0.1 * sum(passes.values())
    if kind == "stop":  # the run hands back the forced steps; only a drift changes the arc
        assert runs.stats.step_calls == runs.stats.steps + runs.stats.rolled_back
        system._steps.clear()
        assert (arc_bits(solved(system, y0, cfg, seed))[3] != arc_bits(runs)[3]) == (
            arg[0] == "drift")


def check_single_steps(s, traffic):
    """`solve` in default runs against `solve` in runs of one step, each checked alone: a
    tumbling basic member (refined jumps) without noise and fig4 members with it.  The toy
    systems of `test_hybrid.py` put the same comparison at a raise and at each offset of a run.
    """
    law, noisy = s
    cfg = fig4_member(law, t_max=0.25, **({} if noisy else tumble_overrides(law)))
    system, y0 = st.build_member(cfg, cfg.members[0])
    single = solved(system, y0, cfg.solver, np.random.default_rng(5), single=True)
    runs = solved(system, y0, cfg.solver, np.random.default_rng(5))
    assert arc_bits(runs, stats=False) == arc_bits(single, stats=False)
    # the runs take their margins in batches
    assert runs.stats.margins_scalar - runs.stats.refine_evals < 0.1 * runs.stats.steps


def check_seed(s, traffic):
    """`solve` with a seed against `solve` with the generator of that seed, and None against 0."""
    system, y0, cfg, _ = member("fig4", 1, 0.3)
    assert system.noise is not None
    seeded = solved(system, y0, cfg, 7)
    assert seeded.jumps and seeded.stats.rolled_back > 0
    assert arc_bits(seeded) == arc_bits(solved(system, y0, cfg, np.random.default_rng(7)))
    assert arc_bits(solved(system, y0, cfg)) == arc_bits(solved(system, y0, cfg, 0))
    assert arc_bits(solved(system, y0, cfg)) != arc_bits(seeded)


def oracle_step(lp, t, y, h, meas):
    """The classical RK4 step and the loop's projection onto SO(3), on ndarrays."""
    def f(tt, yy):
        return np.array(lp.flow(tt, tuple(yy.tolist()), meas))

    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for sl in lp.rotation_slices:
        y[sl] = orthonormalize_f(floats(y[sl]))
    return y


def check_oracle(s, traffic):
    """`solve` against the ndarray oracle: each accepted flow step is the oracle's step from the
    sample before, under the recorded measurement, and each recorded row is `_columns`
    interpreted on floats.  Structures: next to a critical point (every loop structure), and
    a basic loop spun up to a crossing inside a step, which is refined."""
    if s == ("refined",):
        lp = st.make_loop("basic", params(1), st.Gains(k_R=0.2, k_omega=0.02, k_theta=0.5),
                          INERTIA, REFERENCES["rest"])
        y0 = state("basic", np.random.default_rng(0), Re=st.angle_axis(2.75, np.eye(3)[2]),
                   theta=0.0, omega_e=np.array([0.0, 0.0, 3.0]), omega_r=np.zeros(3))
        cfg = st.SolverConfig(dt=1e-3, t_max=0.3, j_max=5)
    else:
        lp, y0, cfg = critical_start(Structure(*s[1:]))
    steps, seen, record = {}, [], lp.record
    # the step from t that the arc keeps is the last taken from t
    wrap_step(lp, lambda step, t, y, h, m: steps.__setitem__(t, h) or step(t, y, h, m))
    lp.record = lambda *a: seen.append(a[2:]) or record(*a)  # (noise, in_jump) of each batch
    arc = st.solve(lp, y0, cfg, np.random.default_rng(5))
    noise, in_jump = zip(*seen)
    meas = [None] * len(arc) if noise[0] is None else list(map(tuple, np.concatenate(noise)))
    refined = 0
    for i in np.flatnonzero(np.diff(arc.j) == 0) + 1:
        t0 = float(arc.t[i - 1])
        assert oracle_step(lp, t0, arc.states[i - 1], steps[t0], meas[i]).tobytes() == (
            arc.states[i].tobytes()), f"sample {i}"
        refined += steps[t0] < cfg.dt and arc.t[i] < cfg.t_max - 1e-12
    rows = map(float_row, [lp] * len(arc), arc.t, arc.states, meas, np.concatenate(in_jump))
    assert bits(list(rows)) == arc.data.tobytes()
    if s == ("refined",):
        assert refined >= 1 and arc.jumps and arc.jumps[0].t > 0.0
    else:
        assert (len(arc.jumps) > 0) == (s[1] != "non_hybrid")


# --- the table ---------------------------------------------------------------------


# A row: its name, check(structure, traffic) (whose docstring names the paths), structures
Row = collections.namedtuple("Row", "name check structures")

LOOPS = structures(resets=(1,))
TABLE = [
    Row("step", check_step, structures(resets=(1,), refs=tuple(REFERENCES))),
    Row("margin", check_margin, structures(relaxed=False)),
    Row("margins", check_margins, structures(relaxed=False)),
    Row("record", check_record, structures(resets=(1,), refs=("sine", "rest"))),
    Row("identity", check_identity, structures(noisy=(False,), refs=("sine", "rest"))),
    Row("exp_so3_f", check_exp, [("draws",)]),
    Row("potential", check_potential, [Structure("basic", False, resets=r) for r in (1, 2, 3)]),
    Row("run_hook", check_run_hook, [("critical", *s) for s in LOOPS]
        + [("edge", law, n, e) for law in LAWS for n in (False, True) for e in EDGES]
        + [("rollback", "fig4", 1, 0.3), ("passes", "fig3", 0, 1.5, 0),
           ("passes", "fig4", 2, 1.5, 2)]
        + [("stop", r) for r in ("raise", "check", "non_finite", "drift")]),
    Row("single_steps", check_single_steps, [("basic", False), ("smooth", True),
                                              ("velocity_free", True), ("non_hybrid", True)]),
    Row("seed", check_seed, [("fig4",)]),
    Row("oracle", check_oracle, [("critical", *s) for s in LOOPS] + [("refined",)]),
]
CASES = [(row, s) for row in TABLE for s in row.structures]


def case_id(case) -> str:
    return "-".join(map(str, (case[0].name, *case[1])))
