"""Reflection-model toolkit for multipath MIMO channels.

Specular reflections off planar surfaces admit an exact wideband channel
parametrization: each path is a mirror map (orthogonal matrix plus offset)
applied to the transmitter, so the path length at *any* pair of antenna
positions follows from a handful of parameters measured at one reference
pair.  This package implements that parametrization, two ways of estimating
it (from traced routes and from displaced-pair measurements), the classical
plane-wave approximation it replaces, an image-method ray tracer to generate
ground truth, and the MIMO channel/capacity pipeline used to compare them.
"""

from .capacity import (
    LinkBudget,
    RateModel,
    band_rate,
    optimal_streams,
    rayleigh_distance,
    rho,
    singular_values,
    spectral_efficiency,
    stream_rates,
)
from .channel import (
    MODELS,
    channel_evaluator,
    mimo_matrix,
    path_distances,
    phasor_sum,
    trace_array_pairs,
    upa,
)
from .experiments import (
    ESTIMATORS,
    DisplacementSpec,
    ErrorRecord,
    SweepCell,
    capacity_sweep,
    displacement_experiment,
)
from .fit_dp import (
    GammaSolution,
    PairObservation,
    fit_rm_dp,
    match_paths,
    solve_gamma_s,
)
from .fit_rt import fit_from_route, fit_rm_rt
from .geometry import (
    dir_to_angles,
    euler_factor_so3,
    rotation_matrix,
    spherical_dir,
    unit,
    wrap_angle,
    z_reflection,
)
from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmImage,
    RmPath,
    angles_to_image,
    image_to_angles,
    pwa_distance,
    rm_distance_angles,
    rm_distance_image,
)
from .tracer import (
    MAX_BOUNCES,
    Facet,
    Route,
    Scene,
    TracedPath,
    make_facet,
    route_length,
    to_pwa,
    trace_pairs,
    trace_paths,
    trace_sequence,
)

__all__ = [
    "C_LIGHT",
    "MAX_BOUNCES",
    "MODELS",
    "ESTIMATORS",
    "DisplacementSpec",
    "ErrorRecord",
    "Facet",
    "GammaSolution",
    "LinkBudget",
    "PairObservation",
    "PwaPath",
    "RateModel",
    "ReferencePair",
    "RmImage",
    "RmPath",
    "Route",
    "Scene",
    "SweepCell",
    "TracedPath",
    "angles_to_image",
    "band_rate",
    "capacity_sweep",
    "channel_evaluator",
    "dir_to_angles",
    "displacement_experiment",
    "euler_factor_so3",
    "fit_from_route",
    "fit_rm_dp",
    "fit_rm_rt",
    "image_to_angles",
    "make_facet",
    "match_paths",
    "mimo_matrix",
    "optimal_streams",
    "path_distances",
    "phasor_sum",
    "pwa_distance",
    "rayleigh_distance",
    "rho",
    "rm_distance_angles",
    "rm_distance_image",
    "rotation_matrix",
    "route_length",
    "singular_values",
    "solve_gamma_s",
    "spectral_efficiency",
    "spherical_dir",
    "stream_rates",
    "to_pwa",
    "trace_array_pairs",
    "trace_pairs",
    "trace_paths",
    "trace_sequence",
    "unit",
    "upa",
    "wrap_angle",
    "z_reflection",
]

__version__ = "0.1.0"
