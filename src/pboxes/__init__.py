"""Lower/upper probabilities and expectations from probability boxes.

P-boxes here live on arbitrary totally preordered spaces: finite ordered
quotients or the unit interval induced by a real-valued coordinate map,
which covers multivariate models built from marginals under Fréchet or
independence combination.  Inference is exact where closed forms exist and
rigorously bracketed where quadrature is needed, and every closed form is
cross-checked by a brute-force credal-polytope oracle at small scale.
"""

from .choquet import (
    DEFAULT_CONFIG,
    Oscillation,
    QuadratureConfig,
    QuadratureResult,
    cut_event,
    lower_expectation,
    lower_expectation_finite,
    threshold_solve,
    upper_expectation,
)
from .errors import ParseError, ToleranceError, ValidationError
from .multivariate import (
    FRECHET,
    INDEPENDENT,
    RealLinePBox,
    combine,
    prob_arith_add_lower,
    prob_arith_add_upper,
    prob_arith_transform,
    sublevel_box_lower,
)
from .oracle import (
    AdditivityReport,
    FiniteCredalInstance,
    FiniteLowerProbability,
    MonotonicityReport,
    RepresentabilityReport,
    additivity_check,
    complete_monotonicity_check,
    envelope_sample_bound,
    lp_lower_expectation,
    natural_extension_table,
    pbox_representability_check,
    random_credal_instance,
)
from .pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    StepCdf,
    cdf_eval,
    cdf_left_limit,
    lower_prob_event,
    lower_prob_field,
    upper_prob_event,
)
from .preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    UnitInterval,
    ZEventSet,
    ZInterval,
    complement_z,
    full_components_finite,
    normalize,
    sublevel_event,
)
from .scenarios import (
    BUILTIN_NAMES,
    Query,
    Scenario,
    builtin_scenario,
    run_query,
    run_scenario,
)

__version__ = "0.1.0"
