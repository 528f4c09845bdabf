"""Seeded config fuzz: a mutated bundled config validates or ends in one ConfigError.

A second seeded stage runs the members of each mutated config that loads for a
few steps: a config that validates runs every member, and one that does not
stops at the rejected member with the same ConfigError.  A third passes pool
values as diagonal weights to the public constructors.
"""

import dataclasses
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

import so3track as st
from so3track.cli import main
from so3track.errors import ConfigError, ContractError, SolverError
from so3track.scenarios import CONFIG_KEYS

# Every key the loader knows, a removed key (`priority`) and one it never knew.
KEYS = sorted(CONFIG_KEYS) + ["priority", "bogus"]

# Values that `parse_config_text` can produce: ints of any size, floats with
# their extremes, booleans, tokens and flat lists of those.
SCALARS = (
    0, 1, -1, 3, 10**400, 0.5, -0.5, 2.0, 1e-3, 1e-300, 5e-324, 1e300, -1e300,
    math.inf, -math.inf, math.nan, True, False,
    "token", "basic", "smooth", "velocity_free", "non_hybrid", "jump", "flow",
    "rest", "relaxed", "identity",
)
LISTS = (
    [], [0], [1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1e300, 1.0, 1.0], [5e-324, 1.0, 1.0],
    [math.nan, 1.0, 1.0], [-1.0, 2.0, 3.0], [1.0, "token", 2.0], [True, 1.0, 1.0], [False],
    ["basic"], ["smooth", "velocity_free"], ["basic", "bogus"], [0.3, 0.5, 0.7],
)
POOL = SCALARS + LISTS

# Cases and steps per member of the run stage.
RUN_CASES = 2000
RUN_STEPS = 5


def bundled_mappings():
    return {name: st.parse_config_text(path.read_text())
            for name, path in st.bundled_scenarios().items()}


def has_bool(raw: dict) -> bool:
    """Whether a value of `raw`, or an entry of a list value, is a boolean."""
    return any(isinstance(x, bool)
               for v in raw.values() for x in (v if isinstance(v, list) else [v]))


def mutate(base: dict, rng: random.Random) -> dict:
    """One or two keys of `base` set to a pool value or removed."""
    raw = dict(base)
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(KEYS)
        if rng.random() < 0.15:
            raw.pop(key, None)
        else:
            value = rng.choice(POOL)
            raw[key] = list(value) if isinstance(value, list) else value
    return raw


def config_text(raw: dict) -> str:
    """A config file that parses back to `raw`."""

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(
        f"{k} = [{', '.join(map(fmt, v))}]\n" if isinstance(v, list) else f"{k} = {fmt(v)}\n"
        for k, v in raw.items()
    )


def test_mutated_configs_raise_only_config_errors():
    bases = bundled_mappings()
    rng = random.Random(20261018)
    outcomes = {"ok": 0, "config error": 0}
    for case in range(2000):
        name = rng.choice(sorted(bases))
        raw = mutate(bases[name], rng)
        try:
            st.validate_scenario(st.scenario_from_mapping(raw))
        except ConfigError:
            outcomes["config error"] += 1
        except Exception as e:  # any other type fails the test, naming the case
            pytest.fail(f"case {case} ({name}, {raw}) raised {type(e).__name__}: {e}")
        else:
            # no key takes a boolean: true must not load as the number 1
            if has_bool(raw):
                pytest.fail(f"case {case} ({name}, {raw}) loaded a boolean")
            outcomes["ok"] += 1
    # the pool reaches both outcomes often
    assert min(outcomes.values()) > 200, outcomes


def test_mutated_configs_through_the_cli(tmp_path, capsys):
    bases = bundled_mappings()
    rng = random.Random(7)
    for case in range(12):
        name = rng.choice(sorted(bases))
        raw = mutate(bases[name], rng)
        assert st.parse_config_text(config_text(raw)).keys() == raw.keys()
        path = tmp_path / f"case{case}.cfg"
        path.write_text(config_text(raw))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 1:
            assert err.startswith("config error:") and err.splitlines() == [err.strip()]
        else:
            assert code == 0 and err == "" and "OK" in out


def test_mutated_configs_that_validate_run_a_few_steps():
    # a config that loads runs its members in turn, as `run_scenario` does:
    # each member ends in PASS/FAIL or a SolverError, except that the member
    # `validate_scenario` rejects ends in its ConfigError, never another exception
    bases = bundled_mappings()
    rng = random.Random(20261019)
    outcomes = Counter()
    for case in range(RUN_CASES):
        name = rng.choice(sorted(bases))
        raw = mutate(bases[name], rng)
        try:
            cfg = st.scenario_from_mapping(raw)
        except ConfigError:
            continue
        cfg = dataclasses.replace(cfg, t_max=min(cfg.t_max, RUN_STEPS * cfg.dt))
        try:
            st.validate_scenario(cfg)
            rejected = None
        except ConfigError as e:
            rejected = str(e)
        for member in cfg.members:
            try:
                res = st.simulate_member(cfg, member)
            except SolverError:
                outcomes["SolverError"] += 1
            except ConfigError as e:
                assert str(e) == rejected, (case, name, raw, member.label)
                outcomes["ConfigError"] += 1
                break
            except Exception as e:
                pytest.fail(f"case {case} ({name}, {raw}), member {member.label} "
                            f"raised {type(e).__name__}: {e}")
            else:
                outcomes["PASS" if res.report.passed else "FAIL"] += 1
        else:
            assert rejected is None, (case, name, raw, rejected)
    assert outcomes["PASS"] > 200 and outcomes["SolverError"] > 10, outcomes
    assert outcomes["ConfigError"] > 50, outcomes


# 3x3 matrices, which no constructor takes as a diagonal weight.
MATRICES = (np.eye(3), np.diag([2.0, 4.0, 6.0]), np.diag([2.0, 4.0, 6.0]) + np.diag([0.1, 0.1], 1),
            np.full((3, 3), math.nan))


def weight(rng: random.Random):
    """A diagonal weight to try: a pool value, a 3x3 matrix or 3 pool scalars."""
    x = rng.random()
    if x < 0.4:
        value = rng.choice(POOL)
        return list(value) if isinstance(value, list) else value
    if x < 0.5:
        return rng.choice(MATRICES).copy()
    return [rng.choice(SCALARS) for _ in range(3)]


def test_weight_constructors_build_finite_weights_or_raise_contract_errors(paper_params,
                                                                           paper_inertia):
    rest = st.make_reference("rest", 1.0, 1.0)
    gains = st.Gains(k_R=1.5, k_theta=50.0, k_beta=3.0)

    def build(name, w):
        """The entries a constructor keeps for weight w; ContractError if it refuses w."""
        if name == "A_diag":
            p = st.design_params(w, [0.9 * math.pi], gamma_frac=0.5, delta_frac=0.5)
            return (*p.A_diag, *st.gradient_bounds(p))
        if name == "J_diag":
            J = st.Inertia(w)
            return (*J.J_diag, *J.J_inv_diag)
        g = dataclasses.replace(gains, Gamma_diag=w)
        st.make_loop("velocity_free", paper_params, g, paper_inertia, rest).check()
        return g.Gamma_diag

    rng = random.Random(20261020)
    outcomes = Counter()
    for case in range(3000):
        name = ("A_diag", "J_diag", "Gamma_diag")[case % 3]
        w = weight(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entries = build(name, w)
        except ContractError:
            outcomes[name, "error"] += 1
        except Exception as e:  # any other type, or a warning, fails the test, naming the case
            pytest.fail(f"case {case}: {name} = {w!r} raised {type(e).__name__}: {e}")
        else:
            assert len(entries) >= 3 and all(map(math.isfinite, entries)), (case, name, w)
            outcomes[name, "ok"] += 1
    # every constructor reaches both outcomes
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10, outcomes
