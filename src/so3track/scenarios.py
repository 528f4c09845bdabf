"""Configuration-driven scenario running.

A scenario file is flat "key = value" text (lists bracketed, '#' comments).
One scenario expands into one or more member runs: a list of controllers with
a matching list of potential weights, sharing everything else.  Members run
one after another in the calling thread (the solver is pure Python, so
threads would only contend for the interpreter lock); all files are written
after the last member finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controllers import LOOP_CLASSES, Gains, NoiseModel, make_loop
from .errors import ConfigError, ContractError
from .hybrid import SolverConfig, solve
from .monitors import certify_arc, jump_count_bound
from .output import write_csv, write_member_plots
from .potential import design_params
from .rigid_body import Inertia, make_reference
from .so3 import angle_axis

_DEFAULTS = {
    "delta_frac": None,
    "delta": None,
    "k_omega": None,
    "k_zeta": None,
    "k_beta": None,
    "Gamma_diag": None,
    "rho": None,
    "delta_prime": None,
    "zeta_dynamics": "standard",
    "reference": "paper_sine",
    "m_bound": 2.0,
    "omega_r_bound": 25.0,
    "omega0": [0.0, 0.0, 0.0],
    "theta0": 0.0,
    "zeta0": [0.0, 0.0, 0.0],
    "Rbar0": "transpose",
    "theta_bar0": 0.0,
    "noise_var_R": 0.0,
    "noise_var_omega": 0.0,
    "seed": 0,
    "dt": 1e-3,
    "t_max": 20.0,
    "j_max": 50,
}

_REQUIRED = ("name", "controllers", "gammas", "A_diag", "theta_set", "k_R", "k_theta",
             "J_diag", "R0_axis", "R0_angle")


def parse_config_text(text: str) -> dict:
    """Parse flat key-value config text into a mapping of raw values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = _parse_value(val, key, lineno)
    return out


def _parse_scalar(tok: str):
    low = tok.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        iv = int(tok)
        return iv
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _parse_value(val: str, key: str, lineno: int):
    if val.startswith("["):
        if not val.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated list for '{key}'")
        body = val[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(tok.strip()) for tok in body.split(",")]
    if not val:
        raise ConfigError(f"line {lineno}: missing value for '{key}'")
    return _parse_scalar(val)


@dataclass(frozen=True)
class MemberSpec:
    index: int
    controller: str
    gamma: float
    label: str
    seed: int


@dataclass
class ScenarioConfig:
    """Validated scenario: member list plus everything shared between members."""

    name: str
    members: list
    A_diag: list
    theta_set: list
    delta: float | None
    delta_frac: float | None
    gains: Gains
    zeta_dynamics: str
    inertia_diag: list
    reference: str
    m_bound: float
    omega_r_bound: float
    R0_axis: list
    R0_angle: float
    omega0: list
    theta0: float
    zeta0: list
    Rbar0: str
    theta_bar0: float
    noise_var_R: float
    noise_var_omega: float
    seed: int
    dt: float
    t_max: float
    j_max: int


def _solver_config(dt, t_max, j_max) -> SolverConfig:
    try:
        return SolverConfig(dt=dt, t_max=t_max, j_max=j_max)
    except ContractError as e:
        raise ConfigError(str(e)) from None


def scenario_from_mapping(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed keys, with field-level errors."""
    known = set(_DEFAULTS) | set(_REQUIRED)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required config key '{key}'")
    d = dict(_DEFAULTS)
    d.update(raw)

    def finite(key, x):
        if isinstance(x, bool):  # float() would take true as 1.0
            raise ConfigError(f"'{key}' must contain numbers, got {str(x).lower()}")
        try:
            f = float(x)
        except (TypeError, ValueError):
            raise ConfigError(f"'{key}' must contain numbers") from None
        except OverflowError:  # an integer beyond the float range
            f = math.inf
        if not math.isfinite(f):
            raise ConfigError(f"'{key}' must be finite, got {x}")
        return f

    def as_floats(key, n=None):
        v = d[key]
        if not isinstance(v, list) or (n is not None and len(v) != n):
            raise ConfigError(f"'{key}' must be a list" + (f" of {n} numbers" if n else ""))
        return [finite(key, x) for x in v]

    def as_float(key, allow_none=False):
        v = d[key]
        if v is None and allow_none:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"'{key}' must be a number")
        return finite(key, v)

    controllers = d["controllers"]
    if not isinstance(controllers, list) or not controllers:
        raise ConfigError("'controllers' must be a nonempty list")
    for c in controllers:
        if c not in LOOP_CLASSES:
            raise ConfigError(f"'controllers' entry '{c}' not one of {tuple(LOOP_CLASSES)}")
    gammas = as_floats("gammas")
    if len(gammas) == 1:
        gammas = gammas * len(controllers)
    if len(gammas) != len(controllers):
        raise ConfigError("'gammas' must have one entry or one entry per controller")

    if (d["delta"] is None) == (d["delta_frac"] is None):
        raise ConfigError("give exactly one of 'delta' and 'delta_frac'")

    if not isinstance(d["reference"], str):
        raise ConfigError("'reference' must be the name of a reference")
    if d["zeta_dynamics"] not in ("standard", "relaxed"):
        raise ConfigError("'zeta_dynamics' must be 'standard' or 'relaxed'")
    if d["Rbar0"] not in ("transpose", "identity"):
        raise ConfigError("'Rbar0' must be 'transpose' or 'identity'")
    if not isinstance(d["seed"], int) or isinstance(d["seed"], bool):
        raise ConfigError("'seed' must be an integer")
    if isinstance(d["j_max"], bool) or not isinstance(d["j_max"], int) or d["j_max"] < 1:
        raise ConfigError("'j_max' must be a positive integer")
    dt = as_float("dt")
    t_max = as_float("t_max")
    _solver_config(dt, t_max, d["j_max"])
    inertia_diag = as_floats("J_diag", 3)  # `build_member` checks it as an `Inertia`
    nvr = as_float("noise_var_R")
    nvw = as_float("noise_var_omega")
    if nvr < 0.0 or nvw < 0.0:
        raise ConfigError("noise variances must be nonnegative")

    gains = Gains(
        k_R=as_float("k_R"),
        k_omega=as_float("k_omega", allow_none=True),
        k_theta=as_float("k_theta"),
        k_zeta=as_float("k_zeta", allow_none=True),
        k_beta=as_float("k_beta", allow_none=True),
        Gamma_diag=None if d["Gamma_diag"] is None else as_floats("Gamma_diag", 3),
        rho=as_float("rho", allow_none=True),
        delta_prime=as_float("delta_prime", allow_none=True),
    )

    seed = int(d["seed"])
    members = [
        MemberSpec(index=i, controller=c, gamma=g, label=f"{i}_{c}", seed=seed + i)
        for i, (c, g) in enumerate(zip(controllers, gammas))
    ]
    name = d["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("'name' must be a nonempty token")
    return ScenarioConfig(
        name=name,
        members=members,
        A_diag=as_floats("A_diag", 3),
        theta_set=as_floats("theta_set"),
        delta=as_float("delta", allow_none=True),
        delta_frac=as_float("delta_frac", allow_none=True),
        gains=gains,
        zeta_dynamics=d["zeta_dynamics"],
        inertia_diag=inertia_diag,
        reference=d["reference"],
        m_bound=as_float("m_bound"),
        omega_r_bound=as_float("omega_r_bound"),
        R0_axis=as_floats("R0_axis", 3),
        R0_angle=as_float("R0_angle"),
        omega0=as_floats("omega0", 3),
        theta0=as_float("theta0"),
        zeta0=as_floats("zeta0", 3),
        Rbar0=d["Rbar0"],
        theta_bar0=as_float("theta_bar0"),
        noise_var_R=nvr,
        noise_var_omega=nvw,
        seed=seed,
        dt=dt,
        t_max=t_max,
        j_max=int(d["j_max"]),
    )


def bundled_scenarios() -> dict:
    """Names and paths of the scenario files shipped with the package."""
    root = resources.files("so3track").joinpath("data")
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-4]] = entry
    return out


def load_scenario(name_or_path) -> ScenarioConfig:
    """Load a bundled scenario by name, or any config file by path."""
    name_or_path = str(name_or_path)
    bundled = bundled_scenarios()
    if name_or_path in bundled:
        text = bundled[name_or_path].read_text()
    else:
        p = Path(name_or_path)
        if not p.exists():
            raise ConfigError(
                f"'{name_or_path}' is neither a bundled scenario {sorted(bundled)} "
                "nor an existing file"
            )
        try:
            text = p.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read '{name_or_path}': {e}") from None
    return scenario_from_mapping(parse_config_text(text))


def _unit_axis(axis) -> np.ndarray:
    """The rotation axis scaled to unit length.

    ConfigError for an axis whose norm is zero or overflows, or is so small
    that the scaled axis misses unit length by more than `angle_axis` allows.
    """
    axis = np.asarray(axis, dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(axis)
    if 0.0 < n < math.inf:
        unit = axis / n
        if abs(math.sqrt(unit @ unit) - 1.0) <= 1e-12:
            return unit
    raise ConfigError(f"'R0_axis' must have a nonzero norm within the float range, "
                      f"got {[float(x) for x in axis]}")


def build_member(cfg: ScenarioConfig, member: MemberSpec):
    """Closed loop plus packed initial state for one member run."""
    try:
        params = design_params(cfg.A_diag, cfg.theta_set, gamma=member.gamma,
                               delta=cfg.delta, delta_frac=cfg.delta_frac)
    except ContractError as e:
        raise ConfigError(f"member {member.label}: {e}") from None
    try:
        inertia = Inertia(cfg.inertia_diag)
    except ContractError as e:
        raise ConfigError(f"'J_diag' = {list(cfg.inertia_diag)}: {e}") from None
    try:
        reference = make_reference(cfg.reference, cfg.m_bound, cfg.omega_r_bound)
    except ContractError as e:
        raise ConfigError(str(e)) from None
    noise = NoiseModel(
        sigma_R=math.sqrt(cfg.noise_var_R), sigma_omega=math.sqrt(cfg.noise_var_omega)
    )
    loop = make_loop(member.controller, params, cfg.gains, inertia, reference, noise,
                     relaxed_filter=cfg.zeta_dynamics == "relaxed")
    R0 = angle_axis(cfg.R0_angle, _unit_axis(cfg.R0_axis))
    Rbar0 = R0.T if cfg.Rbar0 == "transpose" else np.eye(3)
    # The initial value of every state field a law may declare; the loop packs its own.
    init = dict(Re=R0, theta=cfg.theta0, omega_e=cfg.omega0, omega_r=np.zeros(3),
                zeta=cfg.zeta0, Rtilde=Rbar0.T @ R0, theta_bar=cfg.theta_bar0)
    return loop, loop.pack(**{name: init[name] for name, _ in loop.state_fields})


# Classical RK4 is stable on the negative real axis down to h lambda = -2.785.
RK4_REAL_LIMIT = 2.785

# The most steps, t_max / dt, that `validate_scenario` lets one member ask for.
# A run keeps every sample (a full-horizon fig4 member of 20 000 steps peaks
# at about 11 MB), so a member at the budget holds about half a gigabyte.
STEP_BUDGET = 1_000_000


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Run every member-level invariant check without simulating.

    Builds each member's loop once and asks it for its gain checks
    (`loop.check`) and linearised decay rates (`loop.decay_rates`).  Raises
    ConfigError on hard violations, among them a negative seed, a horizon of
    more than STEP_BUDGET steps and an initial state at which the jump-count
    bound V(0) / jump_drop (`jump_count_bound`) is not finite; returns advisory
    warnings, among them a step size past the RK4 limit of a member's
    fastest rate.

    For the bundled gains the rate estimate is conservative by 13 % or more.
    In fig3 and fig4 the warp-angle mode is the fastest (k_theta = 50,
    curvature bound 10.3 to 10.7), which puts the limit at 0.0052 to
    0.0054 s, so dt = 0.005 passes without a warning.  Every noise-free
    fig3 and fig4 member certifies at dt = 0.005 and 0.0055.  The first
    failure is the velocity-free member at 0.006; the basic and smooth
    members fail from 0.008 or 0.01, and the non-hybrid member certifies up
    to 0.012 at least.
    """
    _solver_config(cfg.dt, cfg.t_max, cfg.j_max)  # also covers overrides applied after loading
    if cfg.seed < 0:
        raise ConfigError(f"'seed' must be nonnegative, got {cfg.seed}")
    steps = cfg.t_max / cfg.dt
    if steps > STEP_BUDGET:
        raise ConfigError(f"t_max / dt = {steps:.3g} steps is over the budget of "
                          f"{STEP_BUDGET} steps per member")
    notes: list[str] = []
    built = []
    for member in cfg.members:
        loop, y0 = build_member(cfg, member)
        try:
            member_notes = loop.check()
        except ContractError as e:
            raise ConfigError(f"member {member.label}: {e}") from None
        rate, source = max(loop.decay_rates())
        if cfg.dt * rate > RK4_REAL_LIMIT:
            member_notes.append(
                f"dt = {cfg.dt} is past the RK4 stability limit {RK4_REAL_LIMIT / rate:.3g} "
                f"of the fastest linearised rate {rate:.4g}/s ({source}); the run may diverge"
            )
        notes.extend(f"member {member.label}: {n}" for n in member_notes)
        built.append((member, loop, y0))
    # Checked after every member is built, so that a member's build error comes first.
    for member, loop, y0 in built:
        try:
            jump_count_bound(loop.lyapunov_packed(tuple(y0.tolist())), loop.jump_drop)
        except ContractError as e:
            raise ConfigError(f"member {member.label}: {e}") from None
    return notes


@dataclass
class MemberResult:
    member: MemberSpec
    loop: object
    arc: object
    report: object
    csv_path: Path | None = None


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    members: list
    out_dir: Path | None

    @property
    def passed(self) -> bool:
        return all(m.report.passed for m in self.members)


def simulate_member(cfg: ScenarioConfig, member: MemberSpec) -> MemberResult:
    """Run one member and certify its arc; no files are written."""
    loop, y0 = build_member(cfg, member)
    solver_cfg = _solver_config(cfg.dt, cfg.t_max, cfg.j_max)
    rng = np.random.default_rng(member.seed)
    arc = solve(loop, y0, solver_cfg, rng)
    report = certify_arc(arc, loop)
    return MemberResult(member=member, loop=loop, arc=arc, report=report)


def run_scenario(cfg: ScenarioConfig, out_dir, *, plots: bool = True) -> ScenarioResult:
    """Run all members in turn, certify, and write CSVs, reports, and charts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [simulate_member(cfg, m) for m in cfg.members]
    summary_lines = [f"scenario {cfg.name}: {len(results)} member run(s)"]
    for res in results:
        stem = f"{cfg.name}_{res.member.label}"
        res.csv_path = out_dir / f"{stem}.csv"
        write_csv(res.csv_path, res.arc, footer_lines=res.report.lines())
        (out_dir / f"{stem}_cert.txt").write_text(res.report.as_text())
        if plots:
            write_member_plots(out_dir, stem, res.arc)
        summary_lines.append(
            f"  {res.member.label}: gamma={res.member.gamma:.6g} "
            f"jumps={res.report.n_jumps} "
            f"terminal dist_Re={res.report.terminal_dist:.3g} "
            f"{'PASS' if res.report.passed else 'FAIL'}"
        )
    (out_dir / f"{cfg.name}_summary.txt").write_text("\n".join(summary_lines) + "\n")
    return ScenarioResult(config=cfg, members=results, out_dir=out_dir)
