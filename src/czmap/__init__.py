"""Numerical engine for curvature-aware second-order estimates of maps
between Riemannian chart models, with an isometric-immersion
specialization (second fundamental form against mean curvature)."""

from .engine import (BallEstimateInstance, EllipticOperatorSpec,
                     GlobalEstimateInstance, HarmonicRadii, build_cover,
                     compute_r_hat, omega_decomposition, verify_ball_estimate,
                     verify_euclidean_corollaries, verify_global_estimate,
                     verify_interior_estimate, verify_scaling_identities)
from .expressions import Expression, parse_expression, to_string
from .geodesics import metric_ball
from .geometry import (CoordinateBox, MetricChart, check_ricci_lower_bound,
                       ricci_samples)
from .harmonic import (HarmonicChartCandidate, RadiusCertificate,
                       check_hr_conditions, estimate_harmonic_radius,
                       solve_harmonic_chart)
from .maps import (ImmersionData, JetField, MapModel, generalized_hessian,
                   immersion_check, uniform_continuity_profile)
from .norms import NormRequest, dist_to_basepoint_field, holder_seminorm, lp_norm
from .report import InequalityReport, write_reports
from .runner import run_and_report, run_scenario
from .scenario import Scenario, load_scenario
from .search import MapFamily, SearchResult, extremal_ratio_search

__version__ = "0.1.0"
