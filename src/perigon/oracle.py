"""Brute-force ground truth for the closed-form counts.

Everything here works by exhaustive scan over packed bitstrings and shares
no arithmetic with the formula modules.  Goodness is deliberately
re-derived from corner gaps (every gap strictly below half the perimeter)
and badness from the model's zero-run rule, so the two characterisations
of "describes a polygon" check each other wherever good + bad = all.

Tuples are packed with position 0 in the top bit; integer order on packed
values is then exactly lexicographic order on tuples, and the least packed
value over an orbit is the orbit's canonical form.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .model import CircularTuple, GroupElement, GroupKind, bad_block_threshold

__all__ = [
    "ORACLE_MAX_N",
    "GroupKind",
    "TupleSet",
    "canonical_form",
    "fix_count_direct",
    "orbit_count",
]

# 2**n tuples times 2n symmetries stays desk-scale up to here
ORACLE_MAX_N = 24


class TupleSet(Enum):
    GOOD = "good"
    BAD = "bad"
    ALL = "all"


def _check_scale(n: int) -> None:
    if not 3 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle handles 3 <= n <= {ORACLE_MAX_N}, got {n}")


# ---------------------------------------------------------------------------
# packed-tuple primitives


def _pack(a: CircularTuple) -> int:
    return int(str(a), 2)


def _unpack(x: int, n: int) -> CircularTuple:
    return CircularTuple.from_text(format(x, f"0{n}b"))


def _rotate(x: int, n: int, q: int) -> int:
    """Packed action of the rotation with offset q (position i to i+q)."""
    q %= n
    if q == 0:
        return x
    mask = (1 << n) - 1
    return ((x >> q) | (x << (n - q))) & mask


def _reverse(x: int, n: int) -> int:
    return int(format(x, f"0{n}b")[::-1], 2)


def _reflect(x: int, n: int, q: int) -> int:
    """Packed action of the reflection with offset q (position i to q-i)."""
    # reversing positions then rotating by q+1 lands i exactly on q-i
    return _rotate(_reverse(x, n), n, (q + 1) % n)


def _transform(x: int, n: int, is_reflection: bool, q: int) -> int:
    return _reflect(x, n, q) if is_reflection else _rotate(x, n, q)


def _is_polygon(x: int, n: int) -> bool:
    """Corner-gap test: at least three corners, every circular gap < n/2."""
    corners = [i for i in range(n) if (x >> (n - 1 - i)) & 1]
    if len(corners) < 3:
        return False
    prev = corners[-1] - n
    for c in corners:
        if 2 * (c - prev) >= n:
            return False
        prev = c
    return True


@lru_cache(maxsize=None)
def _good_table(n: int) -> bytes:
    """Goodness flag for every packed n-tuple (built lazily, one byte each)."""
    return bytes(1 if _is_polygon(x, n) else 0 for x in range(1 << n))


@lru_cache(maxsize=None)
def _bad_table(n: int) -> bytes:
    """Badness flag for every packed n-tuple by the model's zero-run rule."""
    # doubling the text makes every circular run of zeros a substring
    run = "0" * bad_block_threshold(n)
    return bytes(1 if run in format(x, f"0{n}b") * 2 else 0 for x in range(1 << n))


def _canonical(x: int, n: int, group: GroupKind) -> int:
    best = x
    for q in range(1, n):
        y = _rotate(x, n, q)
        if y < best:
            best = y
    if group is GroupKind.DIHEDRAL:
        r = _reverse(x, n)
        for q in range(n):
            y = _rotate(r, n, q)
            if y < best:
                best = y
    return best


# ---------------------------------------------------------------------------
# public surface


def canonical_form(a: CircularTuple, group: GroupKind) -> CircularTuple:
    """Lexicographically least tuple in the orbit of a under the group.

    Idempotent and constant on orbits, so distinct canonical forms count
    orbits; the representative itself is an ordinary circular tuple.
    """
    _check_scale(a.n)
    return _unpack(_canonical(_pack(a), a.n, group), a.n)


@lru_cache(maxsize=None)
def _orbit_counts_by_weight(n: int, group: GroupKind) -> tuple[int, ...]:
    """Distinct canonical forms of good n-tuples, bucketed by weight."""
    good = _good_table(n)
    representatives = set()
    for x in range(1 << n):
        if good[x]:
            representatives.add(_canonical(x, n, group))
    counts = [0] * (n + 1)
    for x in representatives:
        counts[x.bit_count()] += 1
    return tuple(counts)


def orbit_count(n: int, group: GroupKind, weight: int | None = None) -> int:
    """Number of orbits of good n-tuples under the group, counted directly
    as distinct canonical forms (no group-averaging involved).

    With a weight filter m this is the m-gon census (0 outside 3 <= m <= n);
    without, the polygon census.
    """
    if weight is not None and not 3 <= weight <= n:
        return 0
    _check_scale(n)
    counts = _orbit_counts_by_weight(n, group)
    if weight is None:
        return sum(counts)
    return counts[weight]


@lru_cache(maxsize=None)
def _fix_profile(n: int, is_reflection: bool, q: int) -> tuple[tuple[int, ...], ...]:
    """Per-weight counts of (all, good, bad) packed tuples fixed by one element."""
    good, bad = _good_table(n), _bad_table(n)
    fixed_all = [0] * (n + 1)
    fixed_good = [0] * (n + 1)
    fixed_bad = [0] * (n + 1)
    for x in range(1 << n):
        if _transform(x, n, is_reflection, q) == x:
            w = x.bit_count()
            fixed_all[w] += 1
            fixed_good[w] += good[x]
            fixed_bad[w] += bad[x]
    return tuple(fixed_all), tuple(fixed_good), tuple(fixed_bad)


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
    fixed_all, fixed_good, fixed_bad = _fix_profile(n, sigma.is_reflection, sigma.q)
    counts = {TupleSet.ALL: fixed_all, TupleSet.GOOD: fixed_good, TupleSet.BAD: fixed_bad}[subset]
    if weight is None:
        return sum(counts)
    return counts[weight]
