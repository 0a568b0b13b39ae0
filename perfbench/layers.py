"""Which `perigon` functions the traced run times, and under which layer.

Shared by run.py (which reports one metric per layer) and traced_cli.py
(which wraps the functions).  Every public function of `perigon.model` is
timed as the layer "model" besides the functions listed here.
"""

FUNCTIONS = {
    ("perigon.numtheory", "binomial"): "numtheory.binomial",
    ("perigon.numtheory", "divisors"): "numtheory.divisors",
    ("perigon.numtheory", "totient"): "numtheory.totient",
    ("perigon.census", "count_mgons"): "census.closed",
    ("perigon.census", "count_mgons_cyclic"): "census.closed",
    ("perigon.census", "count_polygons"): "census.closed",
    ("perigon.census", "count_polygons_cyclic"): "census.closed",
    ("perigon.census", "count_mgons_via_burnside"): "census.burnside",
    ("perigon.census", "count_polygons_via_burnside"): "census.burnside",
    ("perigon.census", "triangles_nearest"): "census.nearest",
    ("perigon.census", "quadrilaterals_nearest"): "census.nearest",
    ("perigon.census", "quadrilaterals_piecewise"): "census.nearest",
    ("perigon.fixcount", "fix_mgons"): "fixcount",
    ("perigon.fixcount", "fix_polygons"): "fixcount",
    ("perigon.oracle", "orbit_count"): "oracle.orbit_count",
    ("perigon.oracle", "fix_count_direct"): "oracle.fix_count_direct",
    ("perigon.oracle", "canonical_form"): "oracle.canonical_form",
}

# report order; "cli" also holds everything the command does outside the
# other layers (argument parsing, formatting, writing)
LAYERS = ("cli", "numtheory.binomial", "numtheory.divisors", "numtheory.totient",
          "census.closed", "census.burnside", "census.nearest", "fixcount", "model",
          "oracle.orbit_count", "oracle.fix_count_direct", "oracle.canonical_form")

# layers whose results are big integers; their total bit length is reported
RESULT_BITS = ("numtheory.binomial",)
