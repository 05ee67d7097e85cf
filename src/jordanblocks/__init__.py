"""Jordan types of unipotent actions on tensor products over GF(p).

The package computes, exactly and without floating point, how a unipotent
matrix acts on V tensor V*, exterior and symmetric squares, and the
irreducible factor of the adjoint-type highest weight, starting from the
Jordan type of its action on V.
"""

from .oracle import (
    DEFAULT_MAX_ENTRIES,
    OracleCapError,
    ext2_type,
    sym2_type,
    tensor_block_type,
    tensor_dual_type,
)
from .partitions import JordanType, parse_jordan_type, partitions_of
from .recursions import clebsch_gordan, free_rule
from .reports import DecompositionReport, build_report
from .rules import GroupContext, adjoint_rule, validate_classical

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DecompositionReport",
    "GroupContext",
    "JordanType",
    "OracleCapError",
    "adjoint_rule",
    "build_report",
    "clebsch_gordan",
    "ext2_type",
    "free_rule",
    "parse_jordan_type",
    "partitions_of",
    "sym2_type",
    "tensor_block_type",
    "tensor_dual_type",
    "validate_classical",
]
