"""Domain constraints and the constraint handler (§4 of the paper).

The handler searches with serial incremental branch-and-bound.
"""

from .base import (Constraint, HardConstraint, HardEvaluator, MatchContext,
                   SoftConstraint, SoftEvaluator, split_constraints,
                   tags_with_label)
from .column_constraints import (FunctionalDependencyConstraint,
                                 KeyConstraint)
from .feedback import AssignmentConstraint, ExclusionConstraint
from .handler import DEFAULT_SOFT_WEIGHTS, ConstraintHandler
from .parser import ConstraintSyntaxError, parse_constraints
from .schema_constraints import (ContiguityConstraint,
                                 ExclusivityConstraint, FrequencyConstraint,
                                 NestingConstraint)
from .soft import (BinarySoftConstraint, MaxCountSoftConstraint,
                   NumericSoftConstraint, ProximityConstraint)

__all__ = [
    "AssignmentConstraint", "BinarySoftConstraint", "Constraint",
    "ConstraintHandler", "ConstraintSyntaxError", "ContiguityConstraint",
    "DEFAULT_SOFT_WEIGHTS", "ExclusionConstraint", "ExclusivityConstraint",
    "FrequencyConstraint", "FunctionalDependencyConstraint",
    "HardConstraint", "HardEvaluator", "KeyConstraint", "MatchContext",
    "MaxCountSoftConstraint", "NestingConstraint", "NumericSoftConstraint",
    "ProximityConstraint", "SoftConstraint", "SoftEvaluator",
    "parse_constraints", "split_constraints", "tags_with_label",
]
