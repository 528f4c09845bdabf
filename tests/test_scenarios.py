"""The scenario config: one message per bad key, and the declaration of the keys."""

import dataclasses

import pytest

import so3track as st
from so3track.errors import ConfigError

# The keys the loader accepts, and those of them without a default.
KEYS = {
    "name", "controllers", "gammas", "delta", "delta_frac", "A_diag", "theta_set",
    "k_R", "k_omega", "k_theta", "k_zeta", "k_beta", "Gamma_diag", "rho", "delta_prime",
    "zeta_dynamics", "J_diag", "reference", "m_bound", "omega_r_bound", "R0_axis",
    "R0_angle", "omega0", "theta0", "zeta0", "Rbar0", "theta_bar0", "noise_var_R",
    "noise_var_omega", "seed", "dt", "t_max", "j_max",
}
REQUIRED = {"name", "controllers", "gammas", "A_diag", "theta_set", "k_R", "k_theta",
            "J_diag", "R0_axis", "R0_angle"}

DROP = object()  # marks a key removed from the mapping


def fig4_mapping() -> dict:
    return st.parse_config_text(st.bundled_scenarios()["fig4"].read_text())


def error_message(raw: dict) -> str | None:
    """The message of the ConfigError that loading `raw` ends in, None if it loads."""
    try:
        st.scenario_from_mapping(raw)
    except ConfigError as e:
        return str(e)
    return None


@pytest.mark.parametrize("key, value, message", [
    ("zeta_dynamics", "fast", "'zeta_dynamics' must be 'standard' or 'relaxed'"),
    ("Rbar0", "random", "'Rbar0' must be 'transpose' or 'identity'"),
    ("seed", 1.5, "'seed' must be an integer"),
    ("seed", True, "'seed' must be an integer"),
    ("name", 3, "'name' must be a nonempty token"),
    ("controllers", [], "'controllers' must be a nonempty list"),
    ("controllers", "basic", "'controllers' must be a nonempty list"),
    ("controllers", ["basic", "x"],
     "'controllers' entry 'x' not one of ('basic', 'smooth', 'velocity_free', 'non_hybrid')"),
    ("gammas", [0.5, 0.6], "'gammas' must have one entry or one entry per controller"),
    ("delta", 0.3, "give exactly one of 'delta' and 'delta_frac'"),
    ("delta", "token", "give exactly one of 'delta' and 'delta_frac'"),
    ("delta_frac", DROP, "give exactly one of 'delta' and 'delta_frac'"),
    ("noise_var_R", -0.01, "noise variances must be nonnegative"),
    ("noise_var_omega", -1, "noise variances must be nonnegative"),
    ("A_diag", [2.0, 4.0], "'A_diag' must be a list of 3 numbers"),
    ("A_diag", 2.0, "'A_diag' must be a list of 3 numbers"),
    ("omega0", (0.0, 0.0, 0.0), "'omega0' must be a list of 3 numbers"),
    ("theta_set", 2.8, "'theta_set' must be a list"),
    ("k_omega", "fast", "'k_omega' must be a number"),
    ("k_omega", [0.2], "'k_omega' must be a number"),
    ("k_R", DROP, "missing required config key 'k_R'"),
], ids=lambda v: None if isinstance(v, str) else repr(v))
def test_each_bad_key_has_its_own_message(key, value, message):
    raw = fig4_mapping()
    if value is DROP:
        del raw[key]
    else:
        raw[key] = value
    assert error_message(raw) == message


def test_the_loader_accepts_exactly_the_declared_keys():
    base = fig4_mapping()
    for key in KEYS | {"priority", "bogus"}:
        unknown = error_message({**base, key: object()}) == f"unknown config key '{key}'"
        assert unknown == (key not in KEYS), key
    for key in KEYS:
        missing = error_message({k: v for k, v in base.items() if k != key})
        assert (missing == f"missing required config key '{key}'") == (key in REQUIRED), key
    assert set(st.scenarios.CONFIG_KEYS) == KEYS


@pytest.mark.parametrize("name", sorted(st.bundled_scenarios()))
def test_each_field_is_the_file_value_or_the_default(name):
    raw = st.parse_config_text(st.bundled_scenarios()[name].read_text())
    cfg = st.load_scenario(name)
    keys = [f for f in dataclasses.fields(cfg) if f.name in KEYS]
    assert {f.name for f in keys} == KEYS - {"controllers", "gammas"}
    for f in keys:
        expected = raw.get(f.name, f.default)
        if isinstance(expected, tuple):  # a list default is immutable, the value a fresh list
            assert type(getattr(cfg, f.name)) is list
            assert getattr(cfg, f.name) is not getattr(st.load_scenario(name), f.name)
            expected = list(expected)
        assert getattr(cfg, f.name) == expected, f.name
    assert [m.controller for m in cfg.members] == raw["controllers"]


def test_a_replaced_gain_reaches_the_built_loop():
    cfg = st.load_scenario("fig4")
    for member in cfg.members:
        assert st.build_member(cfg, member)[0].gains.k_theta == 50.0
        changed = dataclasses.replace(cfg, k_theta=7.0)
        assert st.build_member(changed, member)[0].gains.k_theta == 7.0
    assert cfg.gains.k_theta == 50.0
