"""Exact census of integer polygons and m-gons by perimeter.

Counts side-length sequences up to rotation and reversal (or rotation
only), with closed forms cross-checked against a group-average assembly
and a brute-force orbit-counting oracle.
"""

from .census import (
    InternalError,
    asymptotic_mgon_coefficient,
    asymptotic_mgons,
    asymptotic_polygons,
    count_mgons,
    count_mgons_cyclic,
    count_mgons_via_burnside,
    count_polygons,
    count_polygons_cyclic,
    count_polygons_via_burnside,
    quadrilaterals_nearest,
    quadrilaterals_piecewise,
    triangles_nearest,
)
from .fixcount import fix_mgons, fix_polygons
from .model import (
    CircularTuple,
    ElementClass,
    ElementKind,
    GroupElement,
    GroupKind,
    NotAPolygonError,
    apply,
    classify,
    cyclic_group,
    dihedral_group,
    element_order,
    is_good,
    to_sides,
    weight,
)
from .numtheory import HalfIntegerError, binomial, divisors, nearest_integer, totient
from .oracle import (
    ORACLE_MAX_N,
    TupleSet,
    canonical_form,
    fix_count_direct,
    orbit_count,
)

__version__ = "0.1.0"
