"""consdyn: consensus dynamics under switching averaging maps.

Profiles of n agents in R^d are summarized by generalized hulls (convex,
interval, or direction polytopes); an update map is averaging when it maps
each hull into itself and proper when the inclusion is strict.  The package
ships the hull geometry, a library of concrete update maps, numeric
certification of averaging / properness / equiproperness, stochastic matrix
analysis, a switching-sequence simulator with hull monitoring, and a
bearing-only rendezvous protocol, all reachable from the `consdyn` CLI.
"""

from .geometry import (
    CoordinateMapSpec,
    Hull,
    Profile,
    axis_direction_spec,
    build_hull,
    direction_spec,
    hausdorff,
    hull_contains,
    hull_diameter,
    hull_included,
    hull_step,
    identity_spec,
    inclusion_excess,
    interval_spec,
    point_to_hull_distance,
    profile_diameter,
)
from .maps import (
    DEFORMATIONS,
    Deformation,
    DomainError,
    MapDescriptor,
    MapError,
    MapSpecError,
    apply_map,
    decaying_pair_family,
    deform,
    descriptor_from_dict,
    descriptor_to_dict,
    identity_deformation,
    linear_map,
    log_exp_deformation,
    mean_selector,
    midpoint_map,
    scale_map,
    stripe_map,
    validate_row_stochastic,
    vanishing_confidence,
)
from .certify import (
    CertReport,
    InclusionViolationError,
    MatrixAnalysis,
    SampleConfig,
    Witness,
    analyze_matrix,
    check_averaging,
    check_equiproper,
    is_scrambling,
    properness_gap,
    regularity_index,
    scrambling_coefficient,
    scrambling_index,
)
from .simulate import (
    ConsensusVerdict,
    SwitchingSequence,
    Trajectory,
    consensus_verdict,
    continuity_experiment,
    cyclic,
    hull_monitor,
    random_policy,
    realize,
    run,
    scripted,
    single,
    summary_dict,
    write_trajectory_csv,
)
from .rendezvous import (
    GroupEvent,
    MoveOutcome,
    RendezvousResult,
    RendezvousState,
    ScanResult,
    events_to_jsonl,
    move_rule_star,
    movement_threshold,
    protocol_step,
    run_protocol,
    scan,
    should_move,
    tie_groups,
)
from .scenarios import (
    Scenario,
    averaging_map_library,
    builtin_scenarios,
    get_scenario,
    load_scenarios,
    save_scenarios,
    valid_selector_triples,
)

__version__ = "0.1.0"
