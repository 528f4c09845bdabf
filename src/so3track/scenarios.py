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

import json
import math
import platform
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
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
    seed: int = 0  # a `ScenarioConfig` sets it to its seed + index


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


# The most steps, t_max / dt, that a `ScenarioConfig` lets one member ask for.
# A run keeps every sample, so the budget bounds a member's memory.
STEP_BUDGET = 1_000_000


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Validated scenario: one field per config key, with its kind and default.

    A key without a default is required.  The keys `controllers` and `gammas`
    build `members` and are not fields, so that no `replace` leaves it stale.
    Construction, and so each `replace` (the config is frozen), checks the
    rules that span keys (ConfigError): the solver settings, kept as `solver`,
    the noise variances, the seed and STEP_BUDGET; then each member gets the
    seed `seed + index`.
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
    solver: SolverConfig = field(init=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "solver",
                               SolverConfig(dt=self.dt, t_max=self.t_max, j_max=self.j_max))
        except ContractError as e:
            raise ConfigError(str(e)) from None
        if self.noise_var_R < 0.0 or self.noise_var_omega < 0.0:
            raise ConfigError("noise variances must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"'seed' must be nonnegative, got {self.seed}")
        steps = self.t_max / self.dt
        if steps > STEP_BUDGET:
            raise ConfigError(f"t_max / dt = {steps:.3g} steps is over the budget of "
                              f"{STEP_BUDGET} steps per member")
        object.__setattr__(self, "members",
                           [replace(m, seed=self.seed + m.index) for m in self.members])

    @property
    def gains(self) -> Gains:
        return Gains(**{f.name: getattr(self, f.name) for f in fields(Gains)})


# Every config key as {key: (check, default)}, MISSING marking a required key.
CONFIG_KEYS = {f.name: (f.metadata["check"], f.default) for f in fields(ScenarioConfig)
               if f.metadata} | {"controllers": (_laws, MISSING), "gammas": (_floats(), MISSING)}


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
    values["members"] = [MemberSpec(index=i, controller=c, gamma=g, label=f"{i}_{c}")
                         for i, (c, g) in enumerate(zip(controllers, gammas))]
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
    """Closed loop plus packed initial state for one member run, checked.

    ConfigError for what a constructor or `loop.check` refuses, or an initial
    state whose jump-count bound V(0) / jump_drop (`jump_count_bound`) is not finite.
    """
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
    y0 = loop.pack(**{name: init[name] for name, _ in loop.state_fields})
    try:
        loop.check()
        jump_count_bound(loop.lyapunov_packed(tuple(y0.tolist())), loop.jump_drop)
    except ContractError as e:
        raise ConfigError(f"member {member.label}: {e}") from None
    return loop, y0


# Classical RK4 is stable on the negative real axis down to h lambda = -2.785.
RK4_REAL_LIMIT = 2.785


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Build and check every member without simulating; returns advisory warnings.

    A constructed `cfg` has passed its cross-key checks, and `build_member`
    raises ConfigError for a member that fails its own.  The warnings are each
    loop's gain advisories (`loop.check`) and a step size past the RK4 limit
    of a member's fastest linearised rate (`loop.decay_rates`).

    For the bundled gains the rate estimate is conservative by 13 % or more.
    In fig3 and fig4 the warp-angle mode is the fastest (k_theta = 50,
    curvature bound 10.3 to 10.7), which puts the limit at 0.0052 to
    0.0054 s, so dt = 0.005 passes without a warning.  Every noise-free
    fig3 and fig4 member certifies at dt = 0.005 and 0.0055.  The first
    failure is the velocity-free member at 0.006; the basic and smooth
    members fail from 0.008 or 0.01, and the non-hybrid member certifies up
    to 0.012 at least.
    """
    notes: list[str] = []
    for member in cfg.members:
        loop, _ = build_member(cfg, member)
        member_notes = loop.check()
        rate, source = max(loop.decay_rates())
        if cfg.dt * rate > RK4_REAL_LIMIT:
            member_notes.append(
                f"dt = {cfg.dt} is past the RK4 stability limit {RK4_REAL_LIMIT / rate:.3g} "
                f"of the fastest linearised rate {rate:.4g}/s ({source}); the run may diverge"
            )
        notes.extend(f"member {member.label}: {n}" for n in member_notes)
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
    arc = solve(loop, y0, cfg.solver, member.seed)
    report = certify_arc(arc, loop)
    return MemberResult(member=member, loop=loop, arc=arc, report=report)


def run_record(cfg: ScenarioConfig, res: MemberResult) -> dict:
    """What a member run was and what it did, as `run_scenario` writes it to `<stem>_run.json`.

    The member, the scenario's config keys as resolved (defaults and
    overrides in; `scenario_from_mapping` rebuilds cfg from them), the
    versions it ran on, the arc's status and solver counts (`SolverStats`),
    and the certificate's verdicts with its failures.  It holds no wall
    time, so a replay writes the same bytes.
    """
    m, rep = res.member, res.report
    verdicts = ("flow_monotone_ok", "jump_drops_ok", "jump_count_ok", "torque_continuity_ok")
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.metadata}
    config["controllers"] = [member.controller for member in cfg.members]
    config["gammas"] = [member.gamma for member in cfg.members]
    return {
        "member": {"label": m.label, "controller": m.controller, "gamma": m.gamma, "seed": m.seed},
        "config": config,
        "versions": {"so3track": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        "status": res.arc.status,
        "stats": asdict(res.arc.stats),
        "certificate": {
            "passed": rep.passed,
            **{k: getattr(rep, k) for k in verdicts},
            "failures": rep.failures,
        },
    }


def run_scenario(cfg: ScenarioConfig, out_dir, *, plots: bool = True) -> ScenarioResult:
    """Run all members in turn, certify, and write CSVs, run records, reports, and charts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [simulate_member(cfg, m) for m in cfg.members]
    summary_lines = [f"scenario {cfg.name}: {len(results)} member run(s)"]
    for res in results:
        stem = f"{cfg.name}_{res.member.label}"
        res.csv_path = out_dir / f"{stem}.csv"
        write_csv(res.csv_path, res.arc, footer_lines=res.report.lines())
        (out_dir / f"{stem}_cert.txt").write_text(res.report.as_text())
        (out_dir / f"{stem}_run.json").write_text(json.dumps(run_record(cfg, res), indent=2) + "\n")
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
