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
    KnotOscillation,
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
    arith_bound,
    combine,
    sublevel_box_lower,
)
from .pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    PiecewisePolynomialCdf,
    StepCdf,
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
)
from .scenarios import (
    BUILTIN_NAMES,
    Query,
    Scenario,
    builtin_scenario,
    run_query,
)

__version__ = "0.1.0"

# the rational oracle (with fractions and decimal) loads on first use, so that
# commands other than ``verify`` do without it (PEP 562)
_ORACLE_NAMES = frozenset({
    "AdditivityReport",
    "FiniteCredalInstance",
    "MobiusReport",
    "additivity_check",
    "lp_event_ratio",
    "lp_lower_expectation",
    "mobius_check",
    "natural_extension_numerators",
    "random_credal_instance",
})

# a star import binds the oracle's names too, loading it, and no submodule
__all__ = [
    "DEFAULT_CONFIG",
    "KnotOscillation",
    "Oscillation",
    "QuadratureConfig",
    "QuadratureResult",
    "cut_event",
    "lower_expectation",
    "lower_expectation_finite",
    "threshold_solve",
    "upper_expectation",
    "ParseError",
    "ToleranceError",
    "ValidationError",
    "FRECHET",
    "INDEPENDENT",
    "RealLinePBox",
    "arith_bound",
    "combine",
    "sublevel_box_lower",
    "AnalyticCdf",
    "PBox",
    "PiecewiseLinearCdf",
    "PiecewisePolynomialCdf",
    "StepCdf",
    "lower_prob_event",
    "lower_prob_field",
    "upper_prob_event",
    "EMPTY_EVENT",
    "FULL_EVENT",
    "UNIT_INTERVAL",
    "ClassSubset",
    "FiniteQuotientSpace",
    "UnitInterval",
    "ZEventSet",
    "ZInterval",
    "complement_z",
    "full_components_finite",
    "normalize",
    "BUILTIN_NAMES",
    "Query",
    "Scenario",
    "builtin_scenario",
    "run_query",
    *sorted(_ORACLE_NAMES),
]


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _ORACLE_NAMES)
