"""Superspecial Howe curves of genus 4 in odd characteristic.

A Howe curve is the desingularized fiber product of two genus-1 double
covers of the projective line whose branch loci share exactly one point.
This package decides superspeciality of such curves, enumerates all of them
up to isomorphism over the algebraic closure of F_p by two independent
strategies (an elliptic-pair scan and a genus-2-first search through the
Richelot isogeny graph), and exposes the machinery those strategies stand
on: F_{p^2} arithmetic, supersingular elliptic curves, and superspecial
genus-2 curves.
"""

from .arith import (
    INF,
    FieldCtx,
    MobiusMap,
    UniPoly,
    is_prime,
    poly_gcd,
    poly_roots_in_fq,
    sort_key,
)
from .ellcurve import (
    enumerate_supersingular_classes,
    supersingular_lambda_set,
)
from .genus2 import (
    Genus2Curve,
    RationalityError,
    SuperspecialList,
    closure_stream,
    glue_elliptic_pair,
    igusa_key,
    iko_window,
    load_list,
    richelot_codomains,
    save_list,
    superspecial_genus2_list,
)
from .howe import (
    HoweData,
    howe_isomorphic,
    howe_key,
    is_superspecial_howe,
    normalize_split,
    special_family,
)
from .strategies import (
    DEFAULT_SEED,
    EnumReport,
    VerificationError,
    enumerate_a,
    enumerate_b,
    find_one,
    howe_jsonable,
    howe_type_points,
    match_representatives,
    supersingular_b_values,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "FieldCtx",
    "MobiusMap",
    "UniPoly",
    "is_prime",
    "poly_gcd",
    "poly_roots_in_fq",
    "sort_key",
    "enumerate_supersingular_classes",
    "supersingular_lambda_set",
    "Genus2Curve",
    "RationalityError",
    "SuperspecialList",
    "closure_stream",
    "glue_elliptic_pair",
    "igusa_key",
    "iko_window",
    "load_list",
    "richelot_codomains",
    "save_list",
    "superspecial_genus2_list",
    "HoweData",
    "howe_isomorphic",
    "howe_key",
    "is_superspecial_howe",
    "normalize_split",
    "special_family",
    "DEFAULT_SEED",
    "EnumReport",
    "VerificationError",
    "enumerate_a",
    "enumerate_b",
    "find_one",
    "howe_jsonable",
    "howe_type_points",
    "match_representatives",
    "supersingular_b_values",
    "__version__",
]
