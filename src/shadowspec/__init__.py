"""Exact shadowing, specification, and heteroclinic tooling for three model
dynamical systems (subshifts of finite type, hyperbolic toral automorphisms,
circle rotations)."""

from .barycenter import (
    BarycenterResult,
    BarycenterWitness,
    HyperbolicPeriodicPoint,
    as_periodic,
    barycenter_point,
    cut_witness,
    extract_heteroclinic,
    heteroclinic_point,
    periodic_points,
    verify_barycenter,
)
from .codecs import (
    decode_point,
    decode_scalar,
    encode_point,
    encode_scalar,
)
from .config import CHECK_KINDS, RunConfig, parse_config
from .covers import Cover, build_cover
from .errors import ConfigError, ShadowspecError
from .pseudo_orbits import (
    PseudoOrbit,
    concatenate,
    from_true_orbit,
    perturbed_orbit,
)
from .reporting import (
    SCHEMA_VERSION,
    ReportRecord,
    expected_periodic_count,
    jsonl_to_records,
    plot_csv,
    records_to_csv,
    records_to_jsonl,
    replay_verify,
    replay_verify_record,
    system_digest,
    system_from_description,
)
from .runner import run_check
from .scalars import (
    QuadraticNumber,
    SqrtVal,
    format_exact,
    parse_exact,
    parse_quadratic,
)
from .shadowing import (
    FalsificationResult,
    ShadowingResult,
    delta_for_epsilon,
    falsify_shadowing,
    shadow,
    shadow_sft,
    shadow_toral,
)
from .specification import (
    SpecificationResult,
    TransitionSchedule,
    check_specification,
    specification_point,
    transition_times,
)
from .systems import (
    CircleRotation,
    PermutationSystem,
    ShiftSpace,
    SymbolicPoint,
    ToralAutomorphism,
    cat_map,
    full_shift,
    golden_mean_shift,
)

__version__ = "0.1.0"
