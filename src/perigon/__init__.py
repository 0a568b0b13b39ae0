"""Exact census of integer polygons and m-gons by perimeter.

Counts side-length sequences up to rotation and reversal (or rotation
only), with closed forms cross-checked against a group-average assembly
and a brute-force orbit-counting oracle.
"""

from .census import (
    InternalError,
    asymptotic_mgon_coefficient,
    count_mgons,
    count_mgons_via_burnside,
    count_polygons,
    count_polygons_via_burnside,
    quadrilaterals_nearest,
    triangles_nearest,
)
from .fixcount import fix_mgons, fix_polygons
from .model import (
    CircularTuple,
    ElementClass,
    ElementKind,
    GroupElement,
    GroupKind,
    apply,
    classify,
    cyclic_group,
    dihedral_group,
)
from .numtheory import binomial, divisor_totients
from .oracle import ORACLE_MAX_N, canonical_form, orbit_count

__version__ = "0.1.0"
