"""Exact invariant theory in polynomial tensor exterior algebras over
odd finite fields: Milnor-type derivations, Dickson and orbit-product
invariants, finite matrix group actions, and a brute-force fixed-space
verifier for the predicted free module structures."""

import os
import sys

# numpy's OpenBLAS starts a busy-waiting worker per core as it loads, which
# costs every short fqinv process CPU time for no wall time (the only BLAS
# call is one small product).  So it loads with one thread, unless the
# caller chose a count or imported numpy already; OpenBLAS reads the
# variable once, and it is removed again to leave os.environ as it was.
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .field import FieldElement, FieldSpec, enumerate_elements, make_field
from .algebra import (
    Polynomial,
    TensorElement,
    exact_divide,
    from_json,
    from_json_dict,
    pretty,
    pretty_polynomial,
    tensor_act,
    to_json,
    to_json_dict,
    wedge,
)
from .milnor import (
    apply_sequence,
    extract_basis_coefficient,
    milnor_composite,
    milnor_q,
    script_d,
    sign,
)
from .dickson import (
    delta_poly,
    dickson_c,
    dickson_e,
    f_poly,
    index_subsets,
    mui_bracket,
    mui_det,
    mui_q,
    o_poly,
    o_prev,
    theorem_basis,
    top_form,
)
from .groups import (
    GroupMatrix,
    GroupPresentation,
    act,
    diagonal,
    gens_case,
    gens_standard,
    gl_order,
    group_order_bfs,
    is_invariant,
    sl_order,
    transvection,
)
from .fixedpoint import (
    Case,
    DegreeRow,
    FreeModuleDescription,
    PhiWitness,
    VerificationReport,
    WilkersonReport,
    case_elements,
    case_group,
    degree_cap,
    fixed_basis,
    fixed_dim,
    hilbert_coeff,
    module_description,
    monomial_basis,
    parse_case,
    verify_module,
    wilkerson_check,
    wilkerson_phi,
)

__version__ = "0.1.0"
