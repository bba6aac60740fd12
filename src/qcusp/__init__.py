"""Exact arithmetic for fractional-exponent q-expansions at the cusps of
p-adic modular curves at infinite level: truncated cyclotomic p-adic
coefficients, sparse series with p-power fractional exponents, the
j-invariant and Tate parameters, normalized Tate traces, q-expansion
deciders, the level-p group action with its period map, characteristic-p
tilting towers, and rank-2 valuations."""

from .coeff import CycloCoeff, RingContext, inv, new_ring, val_p, zeta
from .series import (
    Exponent,
    FamilySeries,
    FracSeries,
    compose,
    from_terms,
    monomial,
    revert,
    scale_exponents,
    substitute_power,
    twist,
    zero_series,
)
from .modular import (
    delta_series,
    eisenstein4_series,
    j_inverse_series,
    j_series,
    tate_parameter_from_j,
)
from .trace import galois_average, tate_trace
from .principles import (
    FamilyReport,
    PrincipleVerdict,
    Verdict,
    detect_level,
    extends_to_cusp,
    family_decide,
    is_integral,
    zero_test,
)
from .action import (
    CuspPoint,
    Mat2,
    ProjPoint,
    TateSymbol,
    act_cusp,
    canonical_line,
    decompose_gamma,
    ht,
    proj_action,
    splitting_section,
    subgroup_test,
    tate_basis,
)
from .tiltperf import (
    CharPSeries,
    TiltTower,
    charp_from_terms,
    frobenius,
    frobenius_inv,
    reduce_mod_p,
    sharp,
    tower_add,
    tower_from_charp,
    tower_mul,
)
from .valuation import Rank2Value, classify_point, in_Fplus, v1minus
from .errors import (
    ContextMismatchError,
    DepthError,
    DomainError,
    NotInvertibleError,
    QcuspError,
    SeriesFileError,
)

__version__ = "0.1.0"
