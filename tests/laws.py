"""One table of every law's Lyapunov invariants.

The paper's guarantees are Lyapunov conditions on a hybrid system: each
law's monitor vanishes at its attractor only, does not increase along flows
and drops by a designed amount at jumps (Goebel, Sanfelice & Teel, *Hybrid
Dynamical Systems*, 2012, Ch. 3).  Each Row of TABLE checks one such fact
for each law of `paths.LAWS`, and for the relaxed smooth filter where the
fact reads the filter, through the loops' own kernels: `_rates` and
`_monitor`, on floats or on (n,) columns with ARRAY_MATH, and the
potential's `gradients_f` and `grad_rotation_rate_f`.

  attractor  at the attractor (each rotation I, every other entry 0) on the
             `rest` reference: each flow entry, the torque, the gradients and
             the monitor are 0.0, the margin is below 0 (-inf for the
             baseline) and the jump map raises; the smooth margin is its
             filtered gap minus delta';
  identity   the monitor is its formula, and its rate by the chain rule along
             `_rates` is the law's closed form, each within 1e-12 max(1,
             |formula|), at N_IDENTITY seeded states and times on `paper_sine`
             and at the states of the fig3 and fig4 arcs;
  monitor    the monitor is positive at N_MONITOR seeded states away from the
             attractor and the arcs' states, and is the basic monitor where the
             law's own state is at its target (`at_target`);
  filter     the standard filter's rate is 0.0 where the filter state is the
             rotation gradient;
  drop       `jump_drop`, the monitor's designed drop at a jump, is the law's
             formula.

`test_laws.py` runs the table in tier-1.  To add a row (ROADMAP item 6: the
inequalities on sampled flow-set and jump-set states), append a Row.
"""

from __future__ import annotations

import math

import numpy as np

from so3track.controllers import LOOP_CLASSES, BasicLoop, filtered_value_w_f
from so3track.errors import SolverError
from so3track.potential import grad_rotation_rate_f, gradients_f, moment, value_f, warp_rotation_f
from so3track.so3 import ARRAY_MATH, columns, diag_mul_f, floats, norm2_f, rot_distance_f
from paths import Row, Structure, fields, loop, outcome, structures

N_IDENTITY = 10_000
N_MONITOR = 100_000


def attractor(kind: str) -> tuple:
    """The packed state of a law at its attractor: each rotation I, every other entry 0."""
    y = np.zeros(LOOP_CLASSES[kind].WIDTH)
    for sl in LOOP_CLASSES[kind].rotation_slices:
        y[sl] = np.eye(3).ravel()
    return tuple(y.tolist())


def filtered_gap(R, theta, zeta, p, rho):
    """The smooth law's filtered gap: the filtered value at theta less its least over the resets."""
    AR, zeta = moment(R, p), floats(zeta)
    best = min(filtered_value_w_f(AR, warp_rotation_f(tp, p), tp, zeta, p, rho)
               for tp in p.theta_set)
    return filtered_value_w_f(AR, warp_rotation_f(theta, p), theta, zeta, p, rho) - best


def states(kind: str, n: int, seed: int, traffic: dict) -> list:
    """n seeded states of the law (`paths.fields`), then the traffic's, as (n,) columns."""
    L, f = LOOP_CLASSES[kind], fields(kind, np.random.default_rng(seed), n)
    S = np.empty((n, L.WIDTH))
    for name, at in L.state_fields:
        S[:, at] = np.reshape(f[name], (n, -1)) if isinstance(at, slice) else f[name]
    return columns(np.concatenate((S, np.reshape(traffic.get(kind, []), (-1, L.WIDTH)))))


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def at_target(lp, y) -> list:
    """Columns y with the law's own state at its target, where the law's monitor is the basic
    monitor: the filter state at the rotation gradient (smooth), the auxiliary rotation at I and
    theta_bar at 0 (velocity_free); no velocity error, where it is k_R U (basic)."""
    y, zero, p = list(y), np.zeros(len(y[0])), lp.params
    if lp.kind == "basic":
        y[lp.OMEGA_E] = [zero] * 3
    if lp.kind == "smooth":
        y[lp.ZETA] = gradients_f(diag_mul_f(p.A_diag, y[lp.R_E]), y[lp.THETA], p, ARRAY_MATH)[:3]
    if lp.kind == "velocity_free":
        y[lp.R_TILDE] = [zero + e for e in attractor(lp.kind)[lp.R_TILDE]]
        y[lp.THETA_BAR] = zero
    return y


# --- the rows ------------------------------------------------------------------------


def check_attractor(s: Structure, traffic):
    """At the attractor on the `rest` reference, `flow`, `torque`, the gradients and
    `lyapunov_packed` are 0.0 (so the velocity-free damping Gamma g is too); `jump_margin` is
    below 0, -inf for the baseline and the filtered gap minus delta' for the smooth law; `jump`
    raises."""
    lp, y = loop(s), attractor(s.law)
    assert all(v == 0.0 for v in lp.flow(0.0, y, None))
    assert np.array_equal(lp.torque(0.0, y, None), np.zeros(3))
    # every rotation is I and every warp angle 0
    assert gradients_f(moment(np.eye(3), lp.params), 0.0, lp.params) == (0.0,) * 4
    assert lp.lyapunov_packed(y) == 0.0
    margin = lp.jump_margin(0.0, y, None)
    assert margin < 0.0 and (margin == -math.inf) == (s.law == "non_hybrid")
    if s.law == "smooth":
        gn = lp.gains
        assert margin == filtered_gap(np.eye(3), 0.0, np.zeros(3), lp.params, gn.rho) - (
            gn.delta_prime)
    assert outcome(lp.jump, 0.0, y, None) == (
        SolverError, f"the {s.law} jump map was applied outside the jump set", None)


def chain_rule(lp, y, f) -> tuple:
    """(the monitor, its rate along the flow f by the chain rule, the law's closed form) at y.

    The monitor is k_R U(R_e, theta) + 1/2 omega_e . J omega_e, plus k_R rho |zeta - g|^2
    (smooth) or k_beta U(Rtilde, theta_bar) (velocity_free).  A rotation R flows as R skew(w)
    and moves U at 2 w . g + g_theta thetadot, g = (g_x, g_y, g_z) its gradient; the kinetic
    term moves at omega_e . J omegadot_e, and rho |zeta - g|^2 at 2 rho (zeta - g) . (zetadot -
    gdot).
    """
    p, gn, J = lp.params, lp.gains, lp.inertia.J_diag
    we, AR = y[lp.OMEGA_E], diag_mul_f(p.A_diag, y[lp.R_E])
    g = gradients_f(AR, y[lp.THETA], p, ARRAY_MATH)
    monitor = (gn.k_R * value_f(AR, y[lp.THETA], p, ARRAY_MATH)
               + 0.5 * dot(we, [J[i] * we[i] for i in range(3)]))
    rate = (gn.k_R * (2.0 * dot(we, g) + g[3] * f[lp.THETA])
            + dot(we, [J[i] * f[lp.OMEGA_E][i] for i in range(3)]))
    closed = -gn.k_omega * dot(we, we) - gn.k_R * gn.k_theta * g[3] * g[3]
    if lp.kind == "non_hybrid":  # theta is frozen
        closed = -gn.k_omega * dot(we, we)
    if lp.kind == "smooth":
        d = [y[lp.ZETA][i] - g[i] for i in range(3)]
        dg = grad_rotation_rate_f(AR, y[lp.THETA], we, f[lp.THETA], p, ARRAY_MATH)
        monitor = monitor + gn.k_R * gn.rho * dot(d, d)
        rate = rate + 2.0 * gn.k_R * gn.rho * dot(d, [f[lp.ZETA][i] - dg[i] for i in range(3)])
        closed = closed - 2.0 * gn.k_R * gn.rho * gn.k_zeta * dot(d, d)
        if not lp.relaxed:
            closed = closed - 2.0 * gn.k_R * (gn.rho * dot(d, dg) + dot(we, d))
    if lp.kind == "velocity_free":  # Rtilde flows with omega_e - beta, beta = Gamma h
        AR_t = diag_mul_f(p.A_diag, y[lp.R_TILDE])
        h = gradients_f(AR_t, y[lp.THETA_BAR], p, ARRAY_MATH)
        beta = [gn.Gamma_diag[i] * h[i] for i in range(3)]
        monitor = monitor + gn.k_beta * value_f(AR_t, y[lp.THETA_BAR], p, ARRAY_MATH)
        rate = rate + gn.k_beta * (2.0 * dot([we[i] - beta[i] for i in range(3)], h)
                                   + h[3] * f[lp.THETA_BAR])
        closed = (-gn.k_R * gn.k_theta * g[3] * g[3] - gn.k_beta * gn.k_theta * h[3] * h[3]
                  - 2.0 * gn.k_beta * dot(h, beta))
    return monitor, rate, closed


def assert_close(got, want):
    """|got - want| <= 1e-12 max(1, |want|) at every column entry."""
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 1e-12, (err.max(), int(err.argmax()))


def check_identity(s: Structure, traffic):
    """`_monitor` on columns against its formula, and its chain-rule rate along `_rates` against
    the law's closed form (`chain_rule`): -k_omega |omega_e|^2 - k_R k_theta g_theta^2 (basic;
    the baseline without the second term), less 2 k_R rho k_zeta |zeta - g|^2 (smooth, relaxed),
    and 2 k_R rho (zeta - g) . gdot + 2 k_R omega_e . (zeta - g) (smooth, standard); -k_R
    k_theta g_theta^2 - k_beta k_theta h_theta^2 - 2 k_beta h . Gamma h, h the gradient at
    (Rtilde, theta_bar) (velocity_free)."""
    lp = loop(s)
    y = states(s.law, N_IDENTITY, 4, traffic)
    t = np.random.default_rng(5).uniform(0.0, 10.0, len(y[0]))
    f = lp._rates(y, None, lp.reference.z_at(t, ARRAY_MATH), ARRAY_MATH)[0]
    monitor, rate, closed = chain_rule(lp, y, f)
    assert_close(lp._monitor(y, ARRAY_MATH)[1], monitor)
    assert_close(rate, closed)


def check_monitor(s: Structure, traffic):
    """`_monitor` on columns: positive away from the attractor (a distance, warp angle or
    velocity error past 1e-3), and the basic monitor, or k_R U (basic), at `at_target`."""
    lp = loop(s)
    y = states(s.law, N_MONITOR, 1, traffic)
    away = ((rot_distance_f(y[lp.R_E], ARRAY_MATH) > 1e-3) | (np.abs(y[lp.THETA]) > 1e-3)
            | (norm2_f(y[lp.OMEGA_E]) > 1e-6))
    assert away[:N_MONITOR].all() and lp._monitor(y, ARRAY_MATH)[1][away].min() > 0.0
    y = at_target(lp, y)
    basic = loop(Structure("basic", False))._monitor(y[:BasicLoop.WIDTH], ARRAY_MATH)[1]
    if s.law == "basic":
        basic = lp.gains.k_R * value_f(diag_mul_f(lp.params.A_diag, y[lp.R_E]), y[lp.THETA],
                                       lp.params, ARRAY_MATH)
    assert np.array_equal(lp._monitor(y, ARRAY_MATH)[1], basic)


def check_filter(s: Structure, traffic):
    """The standard filter's rate in `_rates` on columns is 0.0 where zeta is the gradient."""
    lp = loop(s)
    y = at_target(lp, states(s.law, N_IDENTITY, 8, traffic))
    t = np.random.default_rng(9).uniform(0.0, 10.0, len(y[0]))
    f = lp._rates(y, None, lp.reference.z_at(t, ARRAY_MATH), ARRAY_MATH)[0]
    assert all(np.all(x == 0.0) for x in f[lp.ZETA])


def check_drop(s: Structure, traffic):
    """`jump_drop`: k_R delta, k_R delta', min(k_R, k_beta) delta, and 0 for the baseline."""
    lp = loop(s)
    gn, delta = lp.gains, lp.params.delta
    assert lp.jump_drop == {"basic": gn.k_R * delta, "smooth": gn.k_R * gn.delta_prime,
                            "velocity_free": min(gn.k_R, gn.k_beta) * delta,
                            "non_hybrid": 0.0}[s.law]


# --- the table ---------------------------------------------------------------------

EXACT = dict(noisy=(False,), resets=(1,))
TABLE = [
    Row("attractor", check_attractor, structures(**EXACT, refs=("rest",))),
    Row("identity", check_identity, structures(**EXACT)),
    Row("monitor", check_monitor, structures(**EXACT, relaxed=False)),
    Row("filter", check_filter, [Structure("smooth", False)]),
    Row("drop", check_drop, structures(**EXACT, relaxed=False)),
]
CASES = [(row, s) for row in TABLE for s in row.structures]
