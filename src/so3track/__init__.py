"""Hybrid attitude tracking on SO(3).

A single potential on SO(3) x R with a hybrid scalar warp angle, three hybrid
tracking laws built on its gradients (basic, torque-smoothed, velocity-free),
a generic flow/jump solver, and Lyapunov instrumentation that certifies the
decrease properties numerically.
"""

from .errors import ConfigError, ContractError, SolverError
from .so3 import (
    angle_axis,
    axial,
    exp_so3,
    log_so3,
    project_to_so3,
    random_rotation,
    random_rotations,
    rot_distance,
    skew,
    vee,
)
from .potential import (
    CertificationConstants,
    CriticalPoint,
    GradientBounds,
    PotentialParams,
    SpectralData,
    certification_constants,
    design_params,
    gap,
    grad_rotation,
    grad_rotation_rate,
    gradient_bounds,
    gradients,
    undesired_critical_points,
    value,
    warp_rotation,
)
from .rigid_body import Inertia, Reference, feedforward, make_reference
from .hybrid import HybridArc, HybridSystem, JumpEvent, SolverConfig, detect_crossing, solve
from .controllers import (
    BasicLoop,
    Gains,
    Measurement,
    NoiseModel,
    NonHybridLoop,
    SmoothLoop,
    VelocityFreeLoop,
    filter_gain_bound,
    make_loop,
)
from .monitors import CertificationReport, certify_arc, exponential_fit
from .scenarios import (
    MemberResult,
    ScenarioConfig,
    ScenarioResult,
    bundled_scenarios,
    build_member,
    load_scenario,
    parse_config_text,
    run_scenario,
    scenario_from_mapping,
    simulate_member,
    validate_scenario,
)

__version__ = "0.1.0"
