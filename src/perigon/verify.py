"""The one verification engine: the checks that `verify` reports and the tests read.

At each perimeter, from one oracle scan, it compares the closed forms with
the group average and the oracle's orbit counts, each class's fixed-set
formulas with the scan's direct counts, and two goodness rules, and probes
canonical forms at random.  Only `verify` loads it; it imports nothing from `cli`.
"""

from . import census, fixcount, model, oracle

__all__ = ["verify_checks"]


def verify_checks(max_n: int, seed: int, probes: int):
    """The checks of `verify` for perimeters 3..max_n, one record at a time:
    `n`, `m`, `subject`, `class` for a fixed-set check, `pair` (the two
    sides compared), `agree`, and `values` (both sides) when they differ.
    `seed` fixes the randomized probes, `probes` of them per perimeter."""
    import random

    rng = random.Random(seed)
    for n in range(3, max_n + 1):
        yield from _checks_at(n, rng, probes)


def _check(entry: dict, lhs, rhs) -> dict:
    entry["agree"] = lhs == rhs
    if not entry["agree"]:
        entry["values"] = [census.decimal_text(lhs), census.decimal_text(rhs)]
    return entry


def _checks_at(n: int, rng, probes: int):
    """The checks at perimeter n, from one oracle scan of n: its orbit counts
    and minima, and every element's fixed counts, come from the scan's one pass."""
    scan = oracle.Scan(n)
    dihedral, cyclic = model.GroupKind.DIHEDRAL, model.GroupKind.CYCLIC
    for m in (None, *range(3, n + 1)):
        closed = {group: census.closed_count(n, m, group) for group in (dihedral, cyclic)}
        burnside = (census.count_polygons_via_burnside(n, dihedral) if m is None
                    else census.count_mgons_via_burnside(n, m, dihedral))
        for group, method, value in ((dihedral, "burnside", burnside),
                                     (dihedral, "oracle", scan.orbit_count(dihedral, m)),
                                     (cyclic, "oracle", scan.orbit_count(cyclic, m))):
            subject = ("polygons" if m is None else "mgons") + ("-cyclic" if group is cyclic else "")
            yield _check({"n": n, "m": m, "subject": subject, "pair": ["closed-form", method]},
                         closed[group], value)

    # per class: fixed-set formulas from its first element's counts, same counts for the rest
    elements = list(model.dihedral_group(n))  # the rotations first
    seen: dict[model.ElementClass, tuple[list[int], int, int]] = {}
    independent = True
    for sigma in elements:
        cls, counts = model.classify(sigma), scan.fixed_counts(sigma)
        if cls not in seen:
            seen[cls] = good, every, bad = counts
            direct_good = sum(good)
            yield _check({"n": n, "m": None, "subject": "fix-polygons",
                          "class": str(cls), "pair": ["formula", "direct"]},
                         fixcount.fix_polygons(n, cls), direct_good)
            yield _check({"n": n, "m": None, "subject": "fix-partition",
                          "class": str(cls), "pair": ["good", "all-minus-bad"]},
                         direct_good, every - bad)
            for m in range(3, n + 1):
                yield _check({"n": n, "m": m, "subject": "fix-mgons",
                              "class": str(cls), "pair": ["formula", "direct"]},
                             fixcount.fix_mgons(n, m, cls), good[m])
        elif seen[cls] != counts:
            independent = False
    yield _check({"n": n, "m": None, "subject": "fix-class-independence",
                  "pair": ["direct", "direct"]}, independent, True)

    # randomized canonical-form probes: every member of a random tuple's
    # orbit has the explicit orbit minimum as its canonical form, and the
    # minimum is the one member that the oracle's orbit minima hold
    probes_ok = True
    for _ in range(probes):
        a = model.CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
        images = [model.apply(g, a) for g in elements]
        for kind, orbit in ((cyclic, set(images[:n])), (dihedral, set(images))):
            least = min(orbit, key=lambda t: t.bits)
            if ([b for b in orbit if scan.is_minimum(b, kind)] != [least]
                    or any(oracle.canonical_form(b, kind).bits != least.bits for b in orbit)):
                probes_ok = False
    yield _check({"n": n, "m": None, "subject": "canonical-probes",
                  "pair": ["oracle", "oracle"]}, probes_ok, True)
