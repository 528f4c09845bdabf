import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import so3track as st
from so3track.cli import main
from so3track.errors import ConfigError

MINI = """
name = mini
controllers = [basic]
gammas = [0.7092482854963644]
delta_frac = 0.8
A_diag = [2.0, 4.0, 6.0]
theta_set = [2.827433388230814]
k_R = 1.5
k_omega = 0.2
k_theta = 50.0
J_diag = [0.0159, 0.0150, 0.0297]
R0_axis = [0.0, 0.0, 1.0]
R0_angle = 3.141592652589793
seed = 7
t_max = 0.5
"""

EXPECTED_HEADER = "t,j,dist_Re,theta,we_x,we_y,we_z,tau_x,tau_y,tau_z,U,lyap,in_jump_set"


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_list_contains_bundled_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig3" in out and "fig4" in out


def test_list_via_module_invocation():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-m", "so3track", "list"], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0
    assert "fig3" in r.stdout and "fig4" in r.stdout


def test_validate_bundled_fig4_warns_about_rho(capsys):
    assert main(["validate", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "rho" in out and "0.00162" in out  # (delta - delta_prime) / c_psi^2


def test_validate_rejects_oversized_gamma(tmp_path, capsys):
    bad = MINI.replace("gammas = [0.7092482854963644]", "gammas = [0.82]")  # > 8/pi^2
    cfg = write_cfg(tmp_path, bad)
    assert main(["validate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err


def test_validate_reports_unknown_key(tmp_path, capsys):
    # 'priority' is no key: where the sets overlap the solver always takes the jump
    for line in ("bogus_key = 3", "priority = jump"):
        cfg = write_cfg(tmp_path, MINI + f"\n{line}\n")
        assert main(["validate", str(cfg)]) == 1
        key = line.split(" ")[0]
        assert capsys.readouterr().err == f"config error: unknown config key '{key}'\n"


def test_validate_reports_missing_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINI.replace("k_R = 1.5\n", ""))
    assert main(["validate", str(cfg)]) == 1
    assert "k_R" in capsys.readouterr().err


def test_unknown_scenario_name_is_config_error(capsys):
    assert main(["validate", "no_such_scenario"]) == 1
    assert "no_such_scenario" in capsys.readouterr().err


def test_run_writes_expected_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINI)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 0
    csv = out_dir / "mini_0_basic.csv"
    cert = out_dir / "mini_0_basic_cert.txt"
    assert csv.exists() and cert.exists()
    assert (out_dir / "mini_summary.txt").exists()
    for tag in ("dist", "theta", "omega", "torque", "lyap"):
        assert (out_dir / f"mini_0_basic_{tag}.svg").exists()
    lines = csv.read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    assert footer, "certification summary footer expected"
    for ln in (data[0], data[len(data) // 2], data[-1]):
        cells = ln.split(",")
        assert len(cells) == len(EXPECTED_HEADER.split(","))
        vals = [float(c) for c in cells]
        assert all(np.isfinite(v) for v in vals)
        assert vals[12] in (0.0, 1.0)  # in_jump_set flag


def test_run_no_plots_flag(tmp_path):
    cfg = write_cfg(tmp_path, MINI)
    out_dir = tmp_path / "noplots"
    assert main(["run", str(cfg), "--out-dir", str(out_dir), "--no-plots"]) == 0
    assert not list(out_dir.glob("*.svg"))


def test_run_overrides(tmp_path):
    cfg = write_cfg(tmp_path, MINI)
    out_dir = tmp_path / "ovr"
    assert main(["run", str(cfg), "--out-dir", str(out_dir), "--t-max", "0.2", "--dt", "0.002"]) == 0
    lines = (out_dir / "mini_0_basic.csv").read_text().splitlines()
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    last_t = float(data[-1].split(",")[0])
    assert last_t == pytest.approx(0.2, abs=1e-9)
    assert len(data) == 102  # initial sample, post-jump sample at t=0, 100 steps


def test_run_solver_error_exit_code(tmp_path, capsys):
    # a reference-velocity bound that the profile violates mid-run
    text = MINI.replace("t_max = 0.5", "t_max = 10.0") + "\nomega_r_bound = 1.0\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "x"), "--no-plots"]) == 2
    assert "omega_r" in capsys.readouterr().err


def test_run_unstable_step_is_a_solver_error(tmp_path):
    # at dt = 0.02 explicit RK4 is unstable for the fig4 gains: the rotation
    # blocks leave SO(3) and projection fails mid-run
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-m", "so3track", "run", "fig4", "--dt", "0.02", "--t-max", "0.5",
         "--no-plots", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    line = next(ln for ln in r.stderr.splitlines() if ln.startswith("solver error:"))
    assert "t=" in line and "j=" in line and "h=0.02" in line


def test_smooth_columns_extend_schema(tmp_path):
    text = MINI.replace("controllers = [basic]", "controllers = [smooth]")
    text += "\nk_zeta = 150.0\nrho = 0.0013\ndelta_prime = 0.162\n"
    cfg = write_cfg(tmp_path, text)
    out_dir = tmp_path / "smooth"
    assert main(["run", str(cfg), "--out-dir", str(out_dir), "--no-plots"]) == 0
    header = (out_dir / "mini_0_smooth.csv").read_text().splitlines()[0]
    assert header == EXPECTED_HEADER + ",zeta_x,zeta_y,zeta_z"


def test_velocity_free_columns_extend_schema(tmp_path):
    text = MINI.replace("controllers = [basic]", "controllers = [velocity_free]")
    text += "\nk_beta = 3.0\nGamma_diag = [30.0, 30.0, 30.0]\n"
    cfg = write_cfg(tmp_path, text)
    out_dir = tmp_path / "vf"
    assert main(["run", str(cfg), "--out-dir", str(out_dir), "--no-plots"]) == 0
    header = (out_dir / "mini_0_velocity_free.csv").read_text().splitlines()[0]
    assert header == EXPECTED_HEADER + ",dist_Rtilde,theta_bar"


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="line 1"):
        st.parse_config_text("just words")
    with pytest.raises(ConfigError, match="unterminated"):
        st.parse_config_text("xs = [1, 2")
    parsed = st.parse_config_text("a = 1\nb = [1, 2.5]\nc = true\nd = token # note\n")
    assert parsed == {"a": 1, "b": [1, 2.5], "c": True, "d": "token"}


def test_scenario_csv_round_trip_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, MINI.replace("t_max = 0.5", "t_max = 0.3"))
    cfg = st.load_scenario(cfg_path)
    a = st.run_scenario(cfg, tmp_path / "a", plots=False)
    b = st.run_scenario(cfg, tmp_path / "b", plots=False)
    assert (tmp_path / "a" / "mini_0_basic.csv").read_bytes() == (
        tmp_path / "b" / "mini_0_basic.csv"
    ).read_bytes()


def test_validate_warns_past_the_rk4_step_limit(capsys):
    cfg = st.load_scenario("fig4")
    coarse = st.validate_scenario(dataclasses.replace(cfg, dt=0.02))
    past = [n for n in coarse if "RK4 stability limit" in n]
    assert len(past) == len(cfg.members)
    assert all("0.0052" in n and "k_theta" in n for n in past)
    assert not any("RK4" in n for n in st.validate_scenario(cfg))
    assert main(["validate", "fig4"]) == 0
    assert "RK4" not in capsys.readouterr().out


@pytest.mark.parametrize("key, value, names", [
    ("J_diag", "[0.0, 4.0, 6.0]", "positive"),
    ("J_diag", "[nan, 0, 0]", "finite"),
    ("reference", "[1,2,3]", "reference"),
    ("R0_angle", "-inf", "finite"),
    ("t_max", "nan", "finite"),
    ("R0_axis", "[0, 0, 0]", "nonzero norm"),
    ("R0_axis", "[1e300, 1, 1]", "nonzero norm"),
    ("R0_axis", "[1e-170, 0, 0]", "nonzero norm"),
    ("dt", "1e-300", f"budget of {st.scenarios.STEP_BUDGET} steps"),
    ("j_max", "true", "positive integer"),
    ("J_diag", "[true, 1, 1]", "numbers, got true"),
    ("gammas", "[true]", "numbers, got true"),
    ("A_diag", "[2, 4, false]", "numbers, got false"),
    ("J_diag", "[5e-324, 0.0150, 0.0297]", "inverse of the inertia matrix is not finite"),
    ("J_diag", "[1e-310, 0.0150, 0.0297]", "inverse of the inertia matrix is not finite"),
], ids=("J_zero", "J_nan", "reference_list", "R0_angle_inf", "t_max_nan", "R0_axis_zero",
        "R0_axis_overflow", "R0_axis_underflow", "dt_over_step_budget", "j_max_bool", "J_bool",
        "gammas_bool", "A_bool", "J_inverse_overflow_5e-324", "J_inverse_overflow_1e-310"))
def test_validate_rejects_bad_value_with_one_line(tmp_path, capsys, key, value, names):
    kept = [ln for ln in MINI.splitlines() if ln.split("=", 1)[0].strip() != key]
    cfg = write_cfg(tmp_path, "\n".join(kept + [f"{key} = {value}"]) + "\n")
    assert main(["validate", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("config error:") and key in err and names in err


@pytest.mark.parametrize("A_diag", [
    "[1e300, 2, 3]", "[1e200, 2e200, 3e200]", "[1e-300, 2e-300, 1]",
])
def test_validate_rejects_overflowing_weights_with_one_line(tmp_path, capsys, A_diag):
    # the smallest bundled fig3 gamma, so the overflow is not caught first as an oversized gamma
    text = MINI.replace("A_diag = [2.0, 4.0, 6.0]", f"A_diag = {A_diag}")
    cfg = write_cfg(tmp_path, text.replace("0.7092482854963644", "0.3039635509270133"))
    assert main(["validate", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("config error:") and "eigenvalues of A" in err


@pytest.mark.parametrize("rho", ("1e300", "5e-324"))
def test_validate_rejects_non_finite_filter_bound_with_one_line(tmp_path, capsys, rho):
    # the smooth law's sufficient filter rate: (1 + rho c_R)^2 overflowed at
    # rho = 1e300, and rho k_omega underflowed to a zero divisor at 5e-324
    text = st.bundled_scenarios()["fig4"].read_text()
    cfg = write_cfg(tmp_path, text.replace("rho = 0.0146", f"rho = {rho}"))
    assert main(["validate", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("config error: member 1_smooth:") and "k_zeta* is not finite" in err


@pytest.mark.parametrize("flag, value", [
    ("--dt", "0"), ("--dt", "nan"), ("--t-max", "nan"), ("--t-max", "-1"), ("--t-max", "inf"),
])
def test_run_rejects_bad_override_with_one_line(tmp_path, capsys, flag, value):
    cfg = write_cfg(tmp_path, MINI)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("config error:") and "'dt' and 't_max'" in err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and len(err.splitlines()) == 1


def test_run_output_error_exit_code(tmp_path):
    # an output directory under a regular file cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, MINI.replace("t_max = 0.5", "t_max = 0.01"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-m", "so3track", "run", str(cfg), "--out-dir", str(blocker / "out")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 4
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert r.stderr.startswith("output error:") and "blocker" in r.stderr
