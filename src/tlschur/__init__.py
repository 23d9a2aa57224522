"""Exact invariants of q-Schur algebras S_q(2,d) and Temperley-Lieb algebras.

Closed-form layer: decomposition matrices, tilting filtrations, relative
dominant dimensions and cover quality at quantum characteristic 2.  Oracle
layer: explicit modules over the concrete Schur algebra with exact linear
algebra, cross-checking every closed form on small degrees.
"""

from .domdim import (
    INFINITY,
    FieldRegime,
    Infinity,
    IntegralRegime,
    classify_projective,
    cover_report,
    domdim_char_tilting,
    domdim_regular,
    domdim_standard,
    encode_extnat,
    hn_batch_csv,
    hn_dimension,
    parse_extnat,
)
from .fields import GF, GF2, GF5, QQ, RationalField, field_by_name
from .hecke import (
    BLESSED_CONFIGS,
    HeckeElement,
    HeckeParams,
    classical_char2,
    kernel_generator,
    phi,
    quantum_ell2,
)
from .linalg import Matrix, RowSpace
from .oracle import (
    CertificationError,
    DomdimResult,
    ExplicitAlgebra,
    ExplicitModule,
    cyclic_submodule,
    hom_space,
    regular_module,
    relative_domdim,
    schur_algebra,
    standard_module,
    tensor_module,
    verify_suite,
)
from .permutations import Permutation, symmetric_group
from .tensor_action import (
    double_centralizer_report,
    element_action,
    hecke_action,
    tl_action,
)
from .tl import (
    PlanarDiagram,
    TLElement,
    TLParams,
    all_diagrams,
    catalan,
    check_relations,
    word_element,
)
from .weights import (
    DecompTable,
    decomp_row,
    decomposition_matrix,
    projective_column,
    tilting_delta_mults,
    twisted_filtration,
)

__version__ = "0.1.0"

__all__ = [
    "BLESSED_CONFIGS",
    "CertificationError",
    "DecompTable",
    "DomdimResult",
    "ExplicitAlgebra",
    "ExplicitModule",
    "FieldRegime",
    "GF",
    "GF2",
    "GF5",
    "HeckeElement",
    "HeckeParams",
    "INFINITY",
    "Infinity",
    "IntegralRegime",
    "Matrix",
    "Permutation",
    "PlanarDiagram",
    "QQ",
    "RationalField",
    "RowSpace",
    "TLElement",
    "TLParams",
    "all_diagrams",
    "catalan",
    "check_relations",
    "classical_char2",
    "classify_projective",
    "cover_report",
    "cyclic_submodule",
    "decomp_row",
    "decomposition_matrix",
    "domdim_char_tilting",
    "domdim_regular",
    "domdim_standard",
    "double_centralizer_report",
    "element_action",
    "encode_extnat",
    "field_by_name",
    "hecke_action",
    "hn_batch_csv",
    "hn_dimension",
    "hom_space",
    "kernel_generator",
    "parse_extnat",
    "phi",
    "projective_column",
    "quantum_ell2",
    "regular_module",
    "relative_domdim",
    "schur_algebra",
    "standard_module",
    "symmetric_group",
    "tensor_module",
    "tilting_delta_mults",
    "tl_action",
    "twisted_filtration",
    "verify_suite",
    "word_element",
]
