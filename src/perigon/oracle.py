"""Brute-force ground truth for the closed-form counts, by exhaustive scans.

A set of packed n-tuples is one 2^n-bit int whose bit x is set iff tuple x
is in the set (bit-slicing: E. Biham, "A fast new DES implementation in
software", FSE 1997).  Column i, the tuples with a corner at position i, is
a periodic bit pattern; a symmetry only permutes columns, and a
lexicographic comparator over them marks the least tuple of every orbit.
Every count here is the popcount of such a mask.  Tuples are packed with
position 0 in the top bit, so integer order is lexicographic order.

The masks of one perimeter live in a Scan, which its caller builds, asks
every question at that n (orbit counts, orbit minima, fixed counts) and
drops; the module keeps no state between calls.  orbit_count and
canonical_form answer one question each without a held scan.

The duplication of the formula modules is deliberate and lives here.  No
arithmetic is shared with census, fixcount or numtheory (no divisors,
totients, binomials or group averages), and goodness is stated twice,
coded two ways: the good mask drops tuples with a corner followed by a gap
of at least half the perimeter, the bad mask takes tuples with a circular
zero run of the model's threshold length anywhere.  Good + bad = all
compares the two rules.
"""

from __future__ import annotations

from functools import cached_property

from .model import CircularTuple, GroupElement, GroupKind, bad_block_threshold, cyclic_group

__all__ = [
    "ORACLE_MAX_N",
    "Scan",
    "canonical_form",
    "orbit_count",
]

# measured with Python 3.11.7 on 2 vCPUs: `verify --max-n 24` runs in 6.8-8.5 s
# end to end with a peak RSS of 148 MB, as the C heap places the 2 MB masks
# (tracemalloc's peak is 126 MB); each +1 doubles both
ORACLE_MAX_N = 24


def _check_scale(n: int) -> None:
    if not 3 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle handles 3 <= n <= {ORACLE_MAX_N}, got {n}")


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
    positions empty, as one or two corners always do; the empty tuple is
    dropped on its own."""
    gapped = 0
    for c in range(n):
        after = 0
        for j in range(1, (n + 1) // 2):
            after |= columns[(c + j) % n]
        gapped |= columns[c] & ~after
    return full ^ gapped ^ 1


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


class Scan:
    """Counts over all packed n-tuples, read from masks that stay in this
    module: every tuple, the good and the bad ones (by the two goodness
    rules); the bad and the n + 1 weight masks are built when first needed.

    The caller builds one per perimeter, asks it every question at that n
    and drops it; nothing outlives the last reference.  At n = 24 the masks
    take about 110 MB, so drop one scan before building the next."""

    def __init__(self, n: int):
        _check_scale(n)
        self.n, self._full = n, (1 << (1 << n)) - 1
        self._columns = _columns(n)
        self._good = _good_mask(n, self._columns, self._full)
        self._minima: dict[GroupKind, tuple[bytes, int]] = {}
        self._good_fixed: dict[GroupElement, int] = {}

    _bad = cached_property(lambda self: _bad_mask(self.n, self._columns, self._full))
    _weights = cached_property(lambda self: _weights(self.n))

    def _least(self, group: GroupKind) -> tuple[bytes, int]:
        """Orbit minima (x <= g.x for every g) as bytes and the good ones as a
        mask; the dihedral minima are the cyclic ones that no reflection undercuts."""
        minima = self._minima.get(group)
        if minima is None:
            if group is GroupKind.DIHEDRAL:
                least = int.from_bytes(self._least(GroupKind.CYCLIC)[0], "little")
                elements = (GroupElement.reflection(self.n, q) for q in range(self.n))
            else:
                least, elements = self._full, cyclic_group(self.n)
            for sigma in elements:
                less, equal = _compare(self._columns, self._full, sigma)
                least &= less | equal
                self._good_fixed[sigma] = (equal & self._good).bit_count()  # fixed_good_count
            # tuple x at bit x % 8 of byte x // 8: is_minimum reads one byte
            minima = self._minima[group] = (least.to_bytes(1 << self.n >> 3, "little"),
                                            least & self._good)
        return minima

    def orbit_count(self, group: GroupKind, weight: int | None = None) -> int:
        """Number of orbits of good n-tuples under the group, counted directly
        as good orbit minima (no group-averaging involved).

        With a weight filter m this is the m-gon census (0 outside 3 <= m <= n);
        without, the polygon census.
        """
        if weight is not None and not 3 <= weight <= self.n:
            return 0
        good = self._least(group)[1]
        return (good if weight is None else good & self._weights[weight]).bit_count()

    def is_minimum(self, a: CircularTuple, group: GroupKind) -> bool:
        """True iff a is the least tuple of its orbit, read from the exhaustive
        orbit minima, which hold exactly one member of every orbit."""
        if a.n != self.n:
            raise ValueError(f"tuple has {a.n} positions, scan is over {self.n}")
        x = 0
        for b in a.bits:  # position 0 in the top bit
            x = 2 * x + b
        return bool(self._least(group)[0][x >> 3] >> (x & 7) & 1)

    def fixed_counts(self, sigma: GroupElement) -> tuple[list[int], int, int]:
        """(good, every, bad) for the tuples that sigma fixes: good[m] counts the
        good ones with m corners, m = 0..n; every and bad count all and the bad.
        Good comes from the corner-gap test and bad from the zero-run rule, so
        sum(good) == every - bad compares two goodness rules."""
        fixed = _compare(self._columns, self._full, self._own(sigma))[1]
        good = fixed & self._good
        return ([*map(int.bit_count, map(good.__and__, self._weights))],
                fixed.bit_count(), (fixed & self._bad).bit_count())

    def fixed_good_count(self, sigma: GroupElement) -> int:
        """Number of good tuples that sigma fixes, kept by the orbit-minima pass."""
        self._least(GroupKind.DIHEDRAL if self._own(sigma).is_reflection else GroupKind.CYCLIC)
        return self._good_fixed[sigma]

    def _own(self, sigma: GroupElement) -> GroupElement:
        if sigma.n != self.n:
            raise ValueError(f"element acts on {sigma.n} points, scan is over {self.n}")
        return sigma


def canonical_form(a: CircularTuple, group: GroupKind) -> CircularTuple:
    """Lexicographically least tuple in the orbit of a under the group,
    found tuple by tuple among the turns of a (and of a read backwards).

    Idempotent and constant on orbits, so distinct canonical forms count
    orbits; the representative itself is an ordinary circular tuple."""
    _check_scale(a.n)
    n, twice = a.n, bytes(a.bits) * 2  # turn q of a is twice[q:q + n]
    turns = (twice, twice[::-1]) if group is GroupKind.DIHEDRAL else (twice,)
    return CircularTuple(tuple(min(t[q:q + n] for t in turns for q in range(n))))


def orbit_count(n: int, group: GroupKind, weight: int | None = None) -> int:
    """Scan.orbit_count at perimeter n, from a scan built for this call alone
    (0 outside 3 <= m <= n, with no scan built)."""
    if weight is not None and not 3 <= weight <= n:
        return 0
    return Scan(n).orbit_count(group, weight)
