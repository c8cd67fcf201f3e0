"""Set-membership filtering toolkit with ellipsoidal bounds.

Core pieces: an Ellipsoid algebra with covering-sum outer approximations, a
Frank-Wolfe solver for minimum-volume enclosing ellipsoids, the dual
set-membership filter built on sampled enclosing solves, unscented-Kalman
and linearizing set-membership baselines, two benchmark scenarios, and a
Monte Carlo harness with a CLI.
"""

from .baselines import (
    esmf_predict,
    esmf_step,
    esmf_update,
    ukf_step,
)
from .dsmf import (
    FilterOptions,
    FusionParams,
    StepRecord,
    SystemModel,
    fuse,
    measurement_ellipsoid,
    optimize_rho,
    predict,
    step,
)
from .ellipsoid import (
    Ellipsoid,
    contains,
    optimal_p,
    sample_interior,
)
from .errors import (
    ConfigError,
    EmptyIntersectionError,
    MeasurementDomainError,
    NumericalError,
    RankDeficiencyError,
    SpdError,
)
from .harness import (
    RunConfig,
    bench_mvee,
    emit_outputs,
    mix_seed,
    parse_config,
    run_experiment,
    sweep_sigma,
)
from .mvee import (
    MveeSolution,
    fw_solve,
)
from .scenarios import (
    RadarScenario,
    RobotScenario,
    initial_estimate,
    radar_model,
    robot_model,
    simulate_truth,
)

__version__ = "0.1.0"
