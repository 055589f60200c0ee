"""Exact verification toolkit for special point configurations in
projective space over prime finite fields.

Everything is exact arithmetic mod a large prime chosen to support the
roots of unity and quadratic irrationals a configuration needs.
Probabilistic checks (general projections, random sample points) are
seeded and report the prime so runs are reproducible.
"""

from .certify import (
    DEGENERATE,
    Decision,
    INCONCLUSIVE,
    NO,
    YES,
    cbp_ambient,
    detect_grid,
    geprocb,
    is_ci222_p4,
    is_geproci,
    remembers,
)
from .combinat import (
    IncidenceCensus,
    brianchon_points,
    line_census,
    plane_census,
    weak_comb_equivalent,
)
from .configs import (
    Configuration,
    FlatUnion,
    extend_standard,
    grid,
    load,
    named,
    remove_lines,
    save,
    skeleton,
    std_construction,
    unity_grid,
)
from .field import FieldSpec, make_field, minpoly_constraint, order_constraint
from .ideals import (
    deletion_h_vectors,
    hilbert_h_vector,
    ideal_dim,
    ideal_kernel,
    interp_matrix,
    macaulay_matrix,
)
from .ks import OrthoGraph, is_ks_set, ortho_graph
from .projgeom import (
    Flat,
    ProjPoint,
    cross_ratio,
    harmonic_conjugate,
    project_from,
    segre,
)
from .unexpected import (
    UnexpReport,
    adim,
    c_predicate,
    skeleton_T_coeffs,
    skeleton_dims,
    skeleton_f,
    vdim,
    verify_skeleton_T,
)
from .weddle import (
    IDENTICALLY_ZERO,
    weddle_degree,
    weddle_matrix,
    weddle_member,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
