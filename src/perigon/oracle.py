"""Brute-force ground truth for the closed-form counts, by exhaustive scans.

A set of packed n-tuples is one 2^n-bit int whose bit x is set iff tuple x
is in the set (bit-slicing: E. Biham, "A fast new DES implementation in
software", FSE 1997).  Column i, the tuples with a corner at position i, is
a periodic bit pattern; a symmetry only permutes columns, and a
lexicographic comparator over them marks the least tuple of every orbit.
Every count here is the popcount of such a mask.  Tuples are packed with
position 0 in the top bit, so integer order is lexicographic order.

The duplication of the formula modules is deliberate and lives here.  No
arithmetic is shared with census, fixcount or numtheory (no divisors,
totients, binomials or group averages), and goodness is stated twice,
coded two ways: the good mask drops tuples with a corner followed by a gap
of at least half the perimeter, the bad mask takes tuples with a circular
zero run of the model's threshold length anywhere.  Good + bad = all
compares the two rules.
"""

from __future__ import annotations

from enum import Enum

from .model import (CircularTuple, GroupElement, GroupKind, bad_block_threshold, cyclic_group,
                    dihedral_group)

__all__ = [
    "ORACLE_MAX_N",
    "GroupKind",
    "TupleSet",
    "canonical_form",
    "fix_count_direct",
    "is_orbit_minimum",
    "orbit_count",
]

# measured on Python 3.10-3.12: `verify --max-n 24` runs in 13-15 s end to
# end with a peak RSS of 159-177 MB; each +1 doubles both
ORACLE_MAX_N = 24


class TupleSet(Enum):
    GOOD = "good"
    BAD = "bad"
    ALL = "all"


def _check_scale(n: int) -> None:
    if not 3 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle handles 3 <= n <= {ORACLE_MAX_N}, got {n}")


def _weights(n: int) -> list[int]:
    """Mask of the packed n-tuples of weight m, for m = 0..n."""
    weights = [1]  # the one tuple over no positions, of weight 0
    for k in range(n):
        # a new top position: the 2^k tuples with it set weigh one more
        weights = [low | (high << (1 << k)) for low, high in zip(weights + [0], [0] + weights)]
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


class _Scan:
    """The masks over all packed n-tuples that the counts are read from."""

    def __init__(self, n: int):
        self.n, self.full = n, (1 << (1 << n)) - 1
        self.weights, self.columns = _weights(n), _columns(n)
        self.subsets = {TupleSet.ALL: self.full,
                        TupleSet.GOOD: _good_mask(n, self.columns, self.full),
                        TupleSet.BAD: _bad_mask(n, self.columns, self.full)}
        self._minima: dict[GroupKind, int] = {}
        self._fixed: tuple[GroupElement | None, int] = (None, 0)  # the last element asked for

    def minima(self, group: GroupKind) -> int:
        """Mask of the tuples x with x <= g.x for every g: the orbit minima."""
        if group not in self._minima:
            least = self.full
            for sigma in (dihedral_group if group is GroupKind.DIHEDRAL else cyclic_group)(self.n):
                less, equal = _compare(self.columns, self.full, sigma)
                least &= less | equal
            self._minima[group] = least
        return self._minima[group]

    def fixed(self, sigma: GroupElement) -> int:
        """Mask of the tuples that sigma fixes."""
        if self._fixed[0] != sigma:
            self._fixed = (sigma, _compare(self.columns, self.full, sigma)[1])
        return self._fixed[1]


_SCAN: list[_Scan] = []  # one perimeter's masks at a time: about 110 MB at n = 24


def _scan(n: int) -> _Scan:
    if not _SCAN or _SCAN[0].n != n:
        _SCAN.clear()  # free the old masks before building the new ones
        _SCAN.append(_Scan(n))
    return _SCAN[0]


def canonical_form(a: CircularTuple, group: GroupKind) -> CircularTuple:
    """Lexicographically least tuple in the orbit of a under the group,
    found tuple by tuple among the turns of a (and of a read backwards).

    Idempotent and constant on orbits, so distinct canonical forms count
    orbits; the representative itself is an ordinary circular tuple."""
    _check_scale(a.n)
    text = str(a)
    texts = (text, text[::-1]) if group is GroupKind.DIHEDRAL else (text,)
    return CircularTuple.from_text(min(t[q:] + t[:q] for t in texts for q in range(a.n)))


def is_orbit_minimum(a: CircularTuple, group: GroupKind) -> bool:
    """True iff a is the least tuple of its orbit, read from the exhaustive
    orbit-minima mask, which holds exactly one member of every orbit."""
    _check_scale(a.n)
    return bool(_scan(a.n).minima(group) >> int(str(a), 2) & 1)


def orbit_count(n: int, group: GroupKind, weight: int | None = None) -> int:
    """Number of orbits of good n-tuples under the group, counted directly
    as good orbit minima (no group-averaging involved).

    With a weight filter m this is the m-gon census (0 outside 3 <= m <= n);
    without, the polygon census.
    """
    if weight is not None and not 3 <= weight <= n:
        return 0
    _check_scale(n)
    scan = _scan(n)
    found = scan.minima(group) & scan.subsets[TupleSet.GOOD]
    return (found if weight is None else found & scan.weights[weight]).bit_count()


def fix_count_direct(n: int, sigma: GroupElement, subset: TupleSet,
                     weight: int | None = None) -> int:
    """Exhaustive count of the tuples in the chosen subset fixed by sigma.

    Good tuples are found by the corner-gap test and bad ones by the
    model's zero-run rule, so the check that good and bad add up to all
    tuples compares two goodness rules; `verify` and the tests lean on it.
    """
    _check_scale(n)
    if sigma.n != n:
        raise ValueError(f"element acts on {sigma.n} points, scan is over {n}")
    if weight is not None and not 0 <= weight <= n:
        raise ValueError(f"weight filter must satisfy 0 <= m <= n, got m={weight}")
    scan = _scan(n)
    found = scan.fixed(sigma) & scan.subsets[subset]
    return (found if weight is None else found & scan.weights[weight]).bit_count()
