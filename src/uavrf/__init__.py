"""Energy-optimal placement and update scheduling of UAV base stations.

The library minimizes the fleet's recall frequency (how often UAVs
exhaust their batteries) over a time-varying ground-user density:
single-slot closed-form optima, multi-slot greedy update scheduling
with exact trajectory assignment, and sampling-budget analysis for
density predictors.
"""

from .channel import (
    DENSE_URBAN,
    Environment,
    LOS,
    NLOS,
    RadioConfig,
    SUBURBAN,
    URBAN,
    avg_path_loss,
    environment_preset,
    los_probability,
    path_loss,
    per_user_tx_power,
)
from .layout import (
    Deployment,
    build_deployment,
    layout_positions,
    num_uavs,
)
from .patterns import (
    DensityPattern,
    Rect,
    Subregion,
    parse_pattern_file,
    pattern_preset,
    perturbed_density,
    reconstruct_series,
    user_density,
)
from .placement import (
    EnergyParams,
    NumericalError,
    SlotPlacement,
    adaptive_simpson,
    min_static_rf,
    normalized_tx_power,
    optimal_altitude_ratio,
    optimal_normalized_power,
    optimal_radius,
    static_rf,
    static_rf_at_optimal_altitude,
    tx_power,
    tx_power_direct,
)
from .sampling import (
    GeneralizationError,
    LearningBudget,
    SamplingAllocation,
    equal_share_sampling_numbers,
    min_sampling_numbers,
    rf_increment,
    rf_increment_exact,
    subregion_eigenvalue,
    vc_epsilon,
)
from .scenario import (
    Scenario,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    reference_scenario,
    slot_densities,
)
from .scheduling import (
    Assignment,
    Schedule,
    SchedulePlan,
    baseline_schedule,
    cost_matrix,
    dynamic_rf,
    mobility_energy_at,
    move_energy,
    optimal_schedule,
    smgd_schedule,
    solve_assignment,
)

__version__ = "0.1.0"
