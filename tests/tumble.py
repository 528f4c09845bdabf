"""Tumbling closed-loop members: fig4's settings, noise off, a seeded initial state.

The seeds in TUMBLE_SEEDS are picked so that each hybrid law refines a jump
within t_max = 0.5.
"""

import math

import numpy as np

import so3track as st

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


def tumble_config(law: str, t_max: float = 0.5):
    """The one-member scenario `tumble` of `law`'s tumbling member."""
    base = fig4()
    return st.scenario_from_mapping({
        **base, "name": "tumble", "controllers": [law], "gammas": base["gammas"][:1],
        **tumble_overrides(law), "t_max": t_max,
    })
