"""Quasi-Hermitian varieties over GF(q^2), with their combinatorial offspring.

The library constructs, over any desk-scale prime power q:

* the degree-2q point sets M_{a,b} in PG(n, q^2) and their hyperplane
  character spectra (``geometry``);
* the collineation section R and the mutually intersecting family of
  q^{2n-2} varieties meeting pairwise in q^{2n-2} affine points
  (``collineations``, ``family``);
* simple orthogonal arrays OA(q^{2n-1}, q^{2n-2}, q, 2) of index q^{2n-3}
  (``oa``);
* GF(q)-linear [q, 5, q-4] MDS codes equivalent to extended Reed-Solomon
  codes, plus their doubly extended [q+1, 5, q-3] forms (``codes``).

Every claimed property is verified exhaustively; ``oracles`` holds the
independent brute-force reimplementations used as ground truth.
"""

from .fields import (
    BudgetExceededError,
    ExtensionField,
    FieldCtx,
    PrimeField,
    absolute_trace,
    field_context,
    prime_power,
)
from .geometry import (
    BMParams,
    ParameterError,
    PointSet,
    bab_affine_eval,
    bm_variety,
    character_spectrum,
    classical_params,
    expected_spectrum_support,
    family_params,
    hermitian_size,
    scan_params,
    separating_map,
    separation_value,
    validate_params,
)
from .collineations import Collineation, build_R, in_psi, psi_group, r_elements
from .intersecting_family import (
    AffineForm,
    act_on_form,
    base_form,
    family,
    intersection_count,
    s_coefficients,
    separating_g,
    w_set,
)
from .oa import OrthogonalArray, build_oa, verify_simple, verify_strength, write_oa
from .codes import (
    EvalCode,
    FqLinearCode,
    OmegaSet,
    build_code,
    check_luc1,
    doubly_extend,
    min_distance,
    omega_set,
    rs_equivalence_check,
    scale_to_fq,
)
from .oracles import DEFAULT_GRID, GridInstance, GridSpec, run_grid

__version__ = "0.1.0"
