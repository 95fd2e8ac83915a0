"""Quasi-Hermitian varieties over GF(q^2), with their combinatorial offspring.

The library constructs, over any desk-scale prime power q:

* the admissible parameters (a, b) and the base form's tables
  (``params``);
* the degree-2q point sets M_{a,b} in PG(n, q^2) and their hyperplane
  character spectra (``geometry``);
* the collineation section R and the pullback of forms along group elements
  (``collineations``), and the mutually intersecting family of q^{2n-2}
  varieties meeting pairwise in q^{2n-2} affine points, as coefficient
  arrays (``intersecting_family``);
* simple orthogonal arrays OA(q^{2n-1}, q^{2n-2}, q, 2) of index q^{2n-3}
  (``oa``);
* GF(q)-linear [q, 5, q-4] MDS codes equivalent to extended Reed-Solomon
  codes, plus their doubly extended [q+1, 5, q-3] forms (``codes``).

Every claimed property is verified exhaustively; ``oracles`` holds the
independent brute-force reimplementations used as ground truth.

``import qhv`` registers every submodule in ``sys.modules`` and binds it as
an attribute of the package, but executes none of them: a submodule runs on
its first attribute access, so a command compiles only the modules it uses.
The public names in ``_MODULES`` are looked up in their submodule on
each access.
"""

import importlib.util
import sys

#: every submodule, with the public names the package re-exports from it
_MODULES = {
    "fields": ("BudgetExceededError", "ExtensionField", "FieldCtx",
               "PrimeField", "absolute_trace", "field_context", "prime_power"),
    "params": ("BMParams", "ParameterError", "bab_affine_eval",
               "classical_params", "family_params", "scan_params",
               "separating_map", "separation_value", "validate_params"),
    "geometry": ("PointSet", "bm_variety", "character_spectrum",
                 "expected_spectrum_support", "hermitian_size"),
    "collineations": ("Collineation", "act_on_form", "build_R", "in_psi",
                      "psi_group"),
    "intersecting_family": ("AffineForm", "base_form", "family",
                            "intersection_count", "separating_member",
                            "w_set"),
    "linalg": (),
    "oa": ("OrthogonalArray", "build_oa", "verify_simple", "verify_strength",
           "write_oa"),
    "codes": ("EvalCode", "FqLinearCode", "OmegaSet", "build_code",
              "check_luc1", "doubly_extend", "min_distance", "omega_set",
              "puncture", "rs_equivalence_check", "scale_to_fq"),
    "oracles": ("DEFAULT_GRID", "GridInstance", "GridSpec", "run_grid"),
}

_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def _register(fullname: str):
    """Put the module in ``sys.modules`` now; execute it on first access."""
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _module in _MODULES:
    globals()[_module] = _register(f"{__name__}.{_module}")
del _module


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return [*globals(), *__all__]
