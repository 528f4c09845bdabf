import dataclasses
import time

import pytest

import paths
import so3track as st


@pytest.fixture(scope="session")
def paper_params():
    """The simulation-study parameter set: A=diag(2,4,6), one reset at 0.9 pi."""
    return paths.params(1)


@pytest.fixture(scope="session")
def paper_inertia():
    return paths.INERTIA


@pytest.fixture(scope="session")
def paper_gains():
    return paths.GAINS


@pytest.fixture(scope="session")
def fig3_cfg():
    return st.load_scenario("fig3")


@pytest.fixture(scope="session")
def fig4_cfg():
    return st.load_scenario("fig4")


@pytest.fixture(scope="session")
def fig3_runs(fig3_cfg):
    """All four fig3 members, simulated once and shared across acceptance tests.

    Returns label -> (member, loop, arc, report, wall_seconds).
    """
    out = {}
    for member in fig3_cfg.members:
        t0 = time.perf_counter()
        res = st.simulate_member(fig3_cfg, member)
        wall = time.perf_counter() - t0
        out[member.label] = (member, res.loop, res.arc, res.report, wall)
    return out


@pytest.fixture(scope="session")
def fig4_result(fig4_cfg, tmp_path_factory):
    """fig4 run through the full scenario runner (files included)."""
    out_dir = tmp_path_factory.mktemp("fig4_run1")
    return st.run_scenario(fig4_cfg, out_dir, plots=False)


@pytest.fixture(scope="session")
def traffic(fig3_runs, fig4_result):
    """States of the fig3 and fig4 arcs by law, as `paths.traffic` samples them."""
    return paths.traffic([(loop, arc) for _, loop, arc, _, _ in fig3_runs.values()]
                         + [(m.loop, m.arc) for m in fig4_result.members])


@pytest.fixture(scope="session")
def vf_quiet_run(fig4_cfg):
    """The velocity-free fig4 member with measurement noise switched off."""
    cfg = dataclasses.replace(fig4_cfg, noise_var_R=0.0, noise_var_omega=0.0)
    member = next(m for m in cfg.members if m.controller == "velocity_free")
    return st.simulate_member(cfg, member)
