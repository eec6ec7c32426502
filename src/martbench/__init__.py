"""martbench: a desk-scale verification workbench for weighted martingale
inequalities with infinite-product maximal operators on tree filtrations."""

from .exponents import (
    CertifiedInterval,
    ExponentSequence,
    conjugate_at,
    conjugate_product,
    exponent_at,
    hl_bound_constant,
    make_exponent_sequence,
    sequence_from_json,
    xi_constant,
)
from .filtration import (
    EnumerationCapError,
    StoppingTime,
    TreeSpace,
    cond_exp,
    count_stopping_times,
    enumerate_stopping_times,
    first_passage_time,
    is_stopping_time,
    make_tree_space,
    sample_stopping_time,
    space_from_json,
    stopped,
    stopped_value,
    stopping_time_from_json,
)
from .holder import (
    FunctionVector,
    function_norms_product,
    function_vector,
    holder_conditional_check,
    holder_integral_check,
    level_products,
    lp_norm,
    product_function,
)
from .maximal import (
    doob_inequality_check,
    doob_maximal,
    gen_doob_maximal,
    gen_weighted_maximal,
    level_set_stopping_time,
    weak_lp_norm,
    weighted_measure,
)
from .report import VerificationReport, check_inequality
from .scalar import (
    DivergentProductError,
    ProductValue,
    WeightedSequencePair,
    exp_jensen_check,
    make_weighted_pair,
    product_eval,
    weighted_am_gm,
    young_check,
)
from .theorems import (
    SawyerCell,
    SawyerTrace,
    estimate_best_constant,
    sawyer_decomposition,
    sawyer_trace_invariants,
    snell_testing_sup,
    verify_ap_to_testing,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from .weights import (
    WeightSystem,
    ap_constant,
    make_weight_system,
    necessity_family_ap,
    rh_constant,
    sp_constant,
    support_family,
    unit_weight_system,
    weight_system_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
