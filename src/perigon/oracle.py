"""Brute-force ground truth for the closed-form counts, by exhaustive scans.

A set of packed n-tuples is an int whose bit x is set iff tuple x is in the
set (bit-slicing: E. Biham, "A fast new DES implementation in software",
FSE 1997).  Column i, the tuples with a corner at position i, is a periodic
bit pattern; a symmetry only permutes columns, and a lexicographic
comparator over them marks the least tuple of every orbit (the orbit
minima of orderly generation: R. C. Read, "Every one a winner", Ann.
Discrete Math. 2, 1978).  Every count here is a popcount of such a mask.
Tuples are packed with position 0 in the top bit, so integer order is
lexicographic order.

A Scan goes over the 2^n tuples one block of 2^k at a time, k = min(n, _LOW):
the tuples of a block share their top n - k positions, whose columns are
constants there (all ones or zero), and the low k columns are the same in
every block.  The constructor makes the one pass over the blocks: it compares
each of the 2n symmetries once per block, the rotations before the
reflections, and keeps both groups' orbit minima as bytes and counts only;
every answer is a lookup.  The module keeps no state between calls:
orbit_count and canonical_form answer one question each without a held scan.

The duplication of the formula modules is deliberate and lives here.  No
arithmetic is shared with census, fixcount or numtheory (no divisors,
totients, binomials or group averages), and goodness is stated twice,
coded two ways: the good mask drops tuples with a corner followed by a gap
of at least half the perimeter, the bad mask takes tuples with a circular
zero run of the model's threshold length anywhere.  Good + bad = all
compares the two rules.
"""

from __future__ import annotations

from operator import index

from .model import (CircularTuple, GroupElement, GroupKind, _group, bad_block_threshold,
                    dihedral_group)

__all__ = [
    "ORACLE_MAX_N",
    "Scan",
    "canonical_form",
    "orbit_count",
]

# measured with Python 3.11.7 on 2 vCPUs: `verify --max-n 24` runs in 2.1-3.6 s
# end to end with a max RSS of 20 MB; each +1 doubles the time, and only the
# orbit minima, one bit per tuple and group, grow with n
ORACLE_MAX_N = 24
_LOW = 16  # a block is 2^16 tuples: masks of 8 KB


def _check_scale(n: int) -> None:
    if not 3 <= index(n) <= ORACLE_MAX_N:
        raise ValueError(f"oracle handles 3 <= n <= {ORACLE_MAX_N}, got {index(n)}")


def _weights(n: int) -> list[int]:
    """Mask of the packed n-tuples of weight m, for m = 0..n."""
    weights = [1]  # the one tuple over no positions, of weight 0
    for k in range(n):
        # a new top position: the 2^k tuples with it set weigh one more; in
        # place and downward in m, with weights[m - 1] still the old mask
        weights.append(0)
        for m in range(k + 1, 0, -1):
            weights[m] |= weights[m - 1] << (1 << k)
    return weights


def _columns(n: int) -> list[int]:
    """Column i: the mask of the packed n-tuples with a corner at position i
    (bit n - 1 - i); the mask of bit k repeats blocks[k] below."""
    blocks = [b"\xaa", b"\xcc", b"\xf0"]
    blocks += [bytes(1 << r) + b"\xff" * (1 << r) for r in range(n - 3)]
    return [int.from_bytes(b * ((1 << n) // (8 * len(b))), "little") for b in blocks[::-1]]


def _good_mask(n: int, columns: list[int], full: int) -> int:
    """Corner-gap rule: at least three corners and every circular gap below n/2.

    A gap of at least n/2 after a corner leaves the next ceil(n/2) - 1
    positions empty, as one or two corners always do; the empty tuple, bit 0
    where no column has bit 0, is dropped on its own."""
    gapped = 0
    for c in range(n):
        after = 0
        for j in range(1, (n + 1) // 2):
            after |= columns[(c + j) % n]
        gapped |= columns[c] & ~after
    return full ^ gapped ^ (not any(c & 1 for c in columns))


def _bad_mask(n: int, columns: list[int], full: int) -> int:
    """Zero-run rule: a circular run of bad_block_threshold(n) zeros, anywhere."""
    run = bad_block_threshold(n)
    covered = full  # a corner in every window of `run` positions
    for s in range(n):
        window = 0
        for j in range(run):
            window |= columns[(s + j) % n]
        covered &= window
    return full ^ covered


def _compare(columns: list[int], full: int, sigma: GroupElement) -> tuple[int, int]:
    """Masks of the tuples x with x < sigma.x and with x = sigma.x.  Column i
    of sigma.x is column inv(i) of x; the first position that differs decides."""
    inv = sigma.inverse()
    less, equal = 0, full
    for i, a in enumerate(columns):
        b = columns[inv.permutes(i)]
        differ = equal & (a ^ b)
        less |= differ & b
        equal ^= differ
    return less, equal


def _tally(counts: list[int], mask: int, weights: list[int], shift: int) -> None:
    """Add mask's tuples to counts[m] by weight m: shift plus the weight of
    the low part, whose masks are weights."""
    for w, weight in enumerate(weights):
        counts[shift + w] += (mask & weight).bit_count()


class Scan:
    """Counts over all packed n-tuples from one pass over the blocks, made by
    the constructor: both groups' orbit minima, the good minima by weight,
    and for each of the 2n elements the tuples it fixes (good by weight,
    every and bad, by the two goodness rules).  Every method is a lookup, and
    no mask outlives its block."""

    def __init__(self, n: int):
        _check_scale(n)
        self.n, k = n, min(n, _LOW)
        full, size, low, weights = (1 << (1 << k)) - 1, 1 << k >> 3, _columns(k), _weights(k)
        elements = list(dihedral_group(n))  # the rotations first
        # orbit minima (x <= g.x for every g) as bytes, tuple x at bit x % 8
        # of byte x // 8, and the good ones by weight
        self._minima = {group: (bytearray(1 << n >> 3), [0] * (n + 1)) for group in GroupKind}
        # good by weight m = 0..n, every, bad
        self._fixed = {sigma: [0] * (n + 3) for sigma in elements}
        for block in range(1 << n - k):
            at, top = slice(block * size, (block + 1) * size), block.bit_count()
            columns = [full if block >> j & 1 else 0 for j in reversed(range(n - k))] + low
            good, bad = _good_mask(n, columns, full), _bad_mask(n, columns, full)
            # the dihedral minima are the cyclic ones that no reflection undercuts
            least = full
            for group, part in ((GroupKind.CYCLIC, elements[:n]), (GroupKind.DIHEDRAL, elements[n:])):
                for sigma in part:
                    less, equal = _compare(columns, full, sigma)
                    least &= less | equal
                    counts = self._fixed[sigma]
                    _tally(counts, equal & good, weights, top)
                    counts[-2] += equal.bit_count()
                    counts[-1] += (equal & bad).bit_count()
                minima, good_minima = self._minima[group]
                minima[at] = least.to_bytes(size, "little")
                _tally(good_minima, least & good, weights, top)

    def orbit_count(self, group: GroupKind, weight: int | None = None) -> int:
        """Number of orbits of good n-tuples under the group, counted directly
        as good orbit minima (no group-averaging involved).

        With a weight filter m this is the m-gon census (0 outside 3 <= m <= n);
        without, the polygon census.
        """
        good = self._minima[_group(group)][1]
        if weight is not None and not 3 <= index(weight) <= self.n:
            return 0
        return sum(good) if weight is None else good[weight]

    def is_minimum(self, a: CircularTuple, group: GroupKind) -> bool:
        """True iff a is the least tuple of its orbit, read from the exhaustive
        orbit minima, which hold exactly one member of every orbit."""
        if a.n != self.n:
            raise ValueError(f"tuple has {a.n} positions, scan is over {self.n}")
        x = 0
        for b in a.bits:  # position 0 in the top bit
            x = 2 * x + b
        return bool(self._minima[_group(group)][0][x >> 3] >> (x & 7) & 1)

    def fixed_counts(self, sigma: GroupElement) -> tuple[list[int], int, int]:
        """(good, every, bad) for the tuples that sigma fixes: good[m] counts the
        good ones with m corners, m = 0..n; every and bad count all and the bad.
        Good comes from the corner-gap test and bad from the zero-run rule, so
        sum(good) == every - bad compares two goodness rules."""
        if sigma.n != self.n:
            raise ValueError(f"element acts on {sigma.n} points, scan is over {self.n}")
        counts = self._fixed[sigma]
        return counts[:-2], counts[-2], counts[-1]


def canonical_form(a: CircularTuple, group: GroupKind) -> CircularTuple:
    """Lexicographically least tuple in the orbit of a under the group,
    found tuple by tuple among the turns of a (and of a read backwards).

    Idempotent and constant on orbits, so distinct canonical forms count
    orbits; the representative itself is an ordinary circular tuple."""
    _check_scale(a.n)
    n, twice = a.n, bytes(a.bits) * 2  # turn q of a is twice[q:q + n]
    turns = (twice, twice[::-1]) if _group(group) is GroupKind.DIHEDRAL else (twice,)
    return CircularTuple(tuple(min(t[q:q + n] for t in turns for q in range(n))))


def orbit_count(n: int, group: GroupKind, weight: int | None = None) -> int:
    """Scan.orbit_count at perimeter n, from a scan built for this call alone
    (0 outside 3 <= m <= n, with no scan built)."""
    n, weight, group = index(n), weight if weight is None else index(weight), _group(group)
    if weight is not None and not 3 <= weight <= n:
        return 0
    return Scan(n).orbit_count(group, weight)
