"""Configuration-driven scenario running.

A scenario file is flat "key = value" text (lists bracketed, '#' comments).
Each key but `controllers` and `gammas` is a field of `ScenarioConfig`, with
its kind and default; the gain keys are the fields of `Gains`.  A scenario
expands into member runs by zipping `controllers` with the potential weights
`gammas`, and its members share everything else.  They run one after another
in the calling thread (the solver is pure Python, so threads would only
contend for the interpreter lock); all files are written after the last one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
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
        return int(tok)
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


# The kinds of config key, as checks that return a value parsed or raise ConfigError.
def _finite(key, x) -> float:
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


def _kind(ok, what, parse=lambda key, v: v):
    """The check that parses a value for which `ok` holds, else "'<key>' must be <what>"."""
    def check(key, v):
        if isinstance(v, bool) or not ok(v):  # bool is a subclass of int
            raise ConfigError(f"'{key}' must be {what}")
        return parse(key, v)
    return check


def _floats(n=None):
    return _kind(lambda v: isinstance(v, list) and n in (None, len(v)),
                 "a list" + (f" of {n} numbers" if n else ""),
                 lambda key, v: [_finite(key, x) for x in v])


def _choice(*options):
    return _kind(lambda v: v in options, " or ".join(f"'{o}'" for o in options))


_number = _kind(lambda v: isinstance(v, (int, float)), "a number", _finite)
_integer = _kind(lambda v: isinstance(v, int), "an integer")
_positive_integer = _kind(lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_token = _kind(lambda v: isinstance(v, str) and v != "", "a nonempty token")
_reference_name = _kind(lambda v: isinstance(v, str), "the name of a reference")


def _laws(key, v) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"'{key}' must be a nonempty list")
    for c in v:
        if c not in LOOP_CLASSES:
            raise ConfigError(f"'{key}' entry '{c}' not one of {tuple(LOOP_CLASSES)}")
    return v


def _key(check, default=MISSING):
    return field(default=default, metadata={"check": check})


@dataclass(kw_only=True)
class ScenarioConfig:
    """Validated scenario: one field per config key, with its kind and default.

    A key without a default is required.  The keys `controllers` and `gammas`
    build `members` and are not fields, so that no `replace` leaves it stale.
    """

    name: str = _key(_token)
    members: list
    A_diag: list = _key(_floats(3))
    theta_set: list = _key(_floats())
    delta: float | None = _key(_number, None)
    delta_frac: float | None = _key(_number, None)
    k_R: float = _key(_number)
    k_omega: float | None = _key(_number, None)
    k_theta: float = _key(_number)
    k_zeta: float | None = _key(_number, None)
    k_beta: float | None = _key(_number, None)
    Gamma_diag: list | None = _key(_floats(3), None)
    rho: float | None = _key(_number, None)
    delta_prime: float | None = _key(_number, None)
    zeta_dynamics: str = _key(_choice("standard", "relaxed"), "standard")
    J_diag: list = _key(_floats(3))  # `build_member` checks it as an `Inertia`
    reference: str = _key(_reference_name, "paper_sine")
    m_bound: float = _key(_number, 2.0)
    omega_r_bound: float = _key(_number, 25.0)
    R0_axis: list = _key(_floats(3))
    R0_angle: float = _key(_number)
    omega0: list = _key(_floats(3), (0.0, 0.0, 0.0))
    theta0: float = _key(_number, 0.0)
    zeta0: list = _key(_floats(3), (0.0, 0.0, 0.0))
    Rbar0: str = _key(_choice("transpose", "identity"), "transpose")
    theta_bar0: float = _key(_number, 0.0)
    noise_var_R: float = _key(_number, 0.0)
    noise_var_omega: float = _key(_number, 0.0)
    seed: int = _key(_integer, 0)
    dt: float = _key(_number, 1e-3)
    t_max: float = _key(_number, 20.0)
    j_max: int = _key(_positive_integer, 50)

    @property
    def gains(self) -> Gains:
        return Gains(**{f.name: getattr(self, f.name) for f in fields(Gains)})


# Every config key as {key: (check, default)}, MISSING marking a required key.
CONFIG_KEYS = {f.name: (f.metadata["check"], f.default) for f in fields(ScenarioConfig)
               if f.metadata} | {"controllers": (_laws, MISSING), "gammas": (_floats(), MISSING)}


def _solver_config(dt, t_max, j_max) -> SolverConfig:
    try:
        return SolverConfig(dt=dt, t_max=t_max, j_max=j_max)
    except ContractError as e:
        raise ConfigError(str(e)) from None


def scenario_from_mapping(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed keys, with field-level errors."""
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    for key, (_, default) in CONFIG_KEYS.items():
        if default is MISSING and key not in raw:
            raise ConfigError(f"missing required config key '{key}'")
    if (raw.get("delta") is None) == (raw.get("delta_frac") is None):
        raise ConfigError("give exactly one of 'delta' and 'delta_frac'")
    values = {}
    for key, (check, default) in CONFIG_KEYS.items():
        v = raw.get(key, default)
        if v is default:  # a list default is a tuple, so that no two configs share it
            values[key] = list(v) if isinstance(v, tuple) else v
        else:
            values[key] = check(key, v)
    controllers, gammas = values.pop("controllers"), values.pop("gammas")
    if len(gammas) == 1:
        gammas = gammas * len(controllers)
    if len(gammas) != len(controllers):
        raise ConfigError("'gammas' must have one entry or one entry per controller")
    _solver_config(values["dt"], values["t_max"], values["j_max"])
    if values["noise_var_R"] < 0.0 or values["noise_var_omega"] < 0.0:
        raise ConfigError("noise variances must be nonnegative")
    values["members"] = [
        MemberSpec(index=i, controller=c, gamma=g, label=f"{i}_{c}", seed=values["seed"] + i)
        for i, (c, g) in enumerate(zip(controllers, gammas))
    ]
    return ScenarioConfig(**values)


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
        inertia = Inertia(cfg.J_diag)
    except ContractError as e:
        raise ConfigError(f"'J_diag' = {list(cfg.J_diag)}: {e}") from None
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
