"""Exact computation with finite etale morphisms of p-adic discs.

The library computes, over declared finite extensions of Q_p: branching
trees over a point, local solutions and Vandermonde solution transfer,
direct images of differential modules, and optimal bases of horizontal
elements, all in truncated power-series arithmetic with exact rational
valuations.
"""

from .padic import (
    FieldDescriptor,
    PadicScalar,
    hensel_lift,
    root_of_unity,
    INF,
)
from .series import (
    TruncatedSeries,
    ValuationPolygon,
    RadiusEstimate,
    newton_solve,
)
from .morphism import (
    DiscMorphism,
    Fiber,
    TreeOverPoint,
    MonicRelation,
    fiber,
    tree_over_point,
    euler_count,
    image_radius,
    local_degree,
    local_solution,
    monic_relation,
    section_apply,
)
from .diffmod import (
    DiffModule,
    HorizontalMatrix,
    change_basis,
    local_solution_matrix,
    horizontal_check,
    element_radius,
    QuotientAlgebra,
    reduce_to_basis,
    direct_image,
)
from .optimal import (
    VandermondeData,
    LinkedColumn,
    FundamentalPair,
    SelectedBranches,
    OptimalBasis,
    vandermonde,
    transfer_coordinates,
    fundamental_solution_matrix,
    linked_bases,
    fundamental_pairs,
    branch_selection,
    trivial_optimal_basis,
    optimal_basis,
    optimality_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
