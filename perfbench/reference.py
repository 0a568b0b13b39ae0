"""Independent arithmetic for checking what `perigon` prints.

Nothing here imports `perigon`.  The group-average sums are re-derived from
the corner-tuple model (see README.md, "Output checks") and written as
"fixed tuples minus the bad ones", not in the per-residue forms the program
uses.  They are evaluated in one of two rings: exact integers, or integers
modulo a prime with binomials taken by Lucas's theorem.  A third route,
`brute_force_census`, enumerates side lists directly and shares nothing with
either; `workloads.self_test` holds the derivation to it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache


# ---------------------------------------------------------------------------
# elementary number theory


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisor_list(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


# ---------------------------------------------------------------------------
# rings the group sums are evaluated in


class ExactRing:
    """Plain integers; `div` insists on exact division."""

    def two(self, e: int) -> int:
        return 1 << e

    def binom(self, a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    def div(self, x: int, d: int) -> int:
        q, r = divmod(x, d)
        if r:
            raise ArithmeticError(f"group sum {x} is not divisible by {d}")
        return q


class ModRing:
    """Integers modulo a prime p; binomials by Lucas's theorem."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        self._fact = fact

    def two(self, e: int) -> int:
        return pow(2, e, self.p)

    def _small_binom(self, a: int, b: int) -> int:
        if b < 0 or b > a:
            return 0
        f, p = self._fact, self.p
        return f[a] * pow(f[b] * f[a - b], p - 2, p) % p

    def binom(self, a: int, b: int) -> int:
        if b < 0 or b > a:
            return 0
        p, out = self.p, 1
        while a or b:
            out = out * self._small_binom(a % p, b % p) % p
            if not out:
                return 0
            a //= p
            b //= p
        return out

    def div(self, x: int, d: int) -> int:
        if d % self.p == 0:
            raise ZeroDivisionError(f"{d} is not invertible modulo {self.p}")
        return x % self.p * pow(d, -1, self.p) % self.p


# ---------------------------------------------------------------------------
# fixed good tuples, one function per kind of symmetry
#
# A corner tuple on n points is good when every circular gap between
# consecutive corners is below n/2.  Reflections are counted as "all fixed
# tuples" minus the fixed tuples with a gap of at least n/2: such a gap is
# unique unless two opposite corners are all there is, and a reflection maps
# it to itself, so it is centred on one of the two ends of the axis.


def _identity(n, m, R):
    if m is None:
        # a long gap after corner c empties the next ceil(n/2)-1 points
        bad = n * R.two(n // 2) - (n // 2 if n % 2 == 0 else 0)
        return R.two(n) - 1 - bad
    return R.binom(n, m) - n * R.binom(n // 2, m - 1)


def _rotation(n, d, m, R):
    """A rotation of order d > 1: tuples of period g = n/d."""
    g = n // d
    if m is None:
        return R.two(g) - 1 - (g if d == 2 else 0)
    return R.binom(g, m // d) if m % d == 0 else 0


def _reflection_one_fixed_point(n, m, R):
    """Odd n = 2k+1: a fixed point 0 and k mirrored pairs."""
    k = n // 2
    if m is None:
        around_point = R.two(k - (k // 2 + 1) + 1) - 1   # b0 = 0, first corner j > k/2
        around_edge = R.two(k // 2 + 1) - 1              # last corner i <= k/2
        return R.two(k + 1) - 1 - around_point - around_edge
    h = m // 2
    bad = R.binom(k // 2, h) + (R.binom(k - k // 2, h) if m % 2 == 0 else 0)
    return R.binom(k, h) - bad


def _reflection_two_fixed_points(n, m, R):
    """Even n = 2k: fixed points 0 and k and k-1 mirrored pairs."""
    k = n // 2
    if m is None:
        around_each = R.two(k // 2 + 1) - 1
        both = 1 if k % 2 == 0 else 0        # corners k/2 and 3k/2 only
        opposite_pair = 1                    # corners 0 and k only
        return R.two(k + 1) - 1 - (2 * around_each - both + opposite_pair)
    h = m // 2
    fixed = R.binom(k, h) if m % 2 == 0 else 2 * R.binom(k - 1, h)
    return fixed - 2 * R.binom(k // 2, h)


def _reflection_no_fixed_point(n, m, R):
    """Even n = 2k: k mirrored pairs, axis through two edge midpoints."""
    k = n // 2
    if m is None:
        around_first = R.two((k - 1) // 2 + 1) - 1
        around_second = R.two((k + 1) // 2) - 1
        both = 1 if k % 2 == 1 else 0
        return R.two(k) - 1 - (around_first + around_second - both)
    if m % 2:
        return 0
    h = m // 2
    return R.binom(k, h) - 2 * R.binom((k + 1) // 2, h)


def census(n: int, m: int | None = None, cyclic: bool = False, ring=None):
    """Polygons (m None) or m-gons of perimeter n, up to rotation (cyclic) or
    rotation and reversal, as an orbit count of good corner tuples."""
    R = ring or ExactRing()
    if n < 3 or (m is not None and not 3 <= m <= n):
        return 0
    total = _identity(n, m, R)
    for d in divisor_list(n)[1:]:
        total += phi(d) * _rotation(n, d, m, R)
    if cyclic:
        return R.div(total, n)
    if n % 2:
        total += n * _reflection_one_fixed_point(n, m, R)
    else:
        total += (n // 2) * (_reflection_two_fixed_points(n, m, R)
                             + _reflection_no_fixed_point(n, m, R))
    return R.div(total, 2 * n)


# ---------------------------------------------------------------------------
# the third route: side lists


def brute_force_census(n: int) -> dict[tuple[int | None, bool], int]:
    """Counts for perimeter n by listing every side sequence (each side
    below n/2) and keeping one per rotation (and reversal) class.

    Keys are (m, cyclic) with m None for all side counts.
    """
    limit = (n - 1) // 2          # largest side s with 2s < n
    dihedral: set[tuple[int, ...]] = set()
    rotational: set[tuple[int, ...]] = set()

    def extend(prefix: list[int], left: int) -> None:
        if left == 0:
            if len(prefix) >= 3:
                t = tuple(prefix)
                rots = [t[i:] + t[:i] for i in range(len(t))]
                rotational.add(min(rots))
                r = t[::-1]
                dihedral.add(min(rots + [r[i:] + r[:i] for i in range(len(r))]))
            return
        for s in range(1, min(limit, left) + 1):
            prefix.append(s)
            extend(prefix, left - s)
            prefix.pop()

    extend([], n)
    out: dict[tuple[int | None, bool], int] = {(None, False): len(dihedral),
                                               (None, True): len(rotational)}
    for m in range(3, n + 1):
        out[(m, False)] = sum(1 for t in dihedral if len(t) == m)
        out[(m, True)] = sum(1 for t in rotational if len(t) == m)
    return out


# ---------------------------------------------------------------------------
# nearest-integer rules, in integer arithmetic


def honsberger(n: int) -> int:
    """[n^2/48] for even n, [(n+3)^2/48] for odd n; [x] the nearest integer."""
    sq = n * n if n % 2 == 0 else (n + 3) ** 2
    return _nearest(sq, 48)


def quadrilateral_rule(n: int) -> int:
    """[(n^3 - 3n^2 + 20n)/96] for even n, [(n^3 - 7n)/96] for odd n."""
    c = n**3 - 3 * n**2 + 20 * n if n % 2 == 0 else n**3 - 7 * n
    return _nearest(c, 96)


def _nearest(num: int, den: int) -> int:
    q, r = divmod(2 * num + den, 2 * den)
    if r == 0:
        raise ArithmeticError(f"{num}/{den} is a half-integer")
    return q


# ---------------------------------------------------------------------------
# size and leading digits of huge values


def log10_leading(n: int, m: int | None, cyclic: bool, prec: int = 60) -> Decimal:
    """log10 of the leading-order term: 2^(n-1)/n for polygons (2^n/n for
    the cyclic census), C(n,m)/2n for m-gons (C(n,m)/n cyclic).

    For m near n/2 every other term of the group sum is smaller by a factor
    of about 2^(-n/2), so the true value's leading digits are these.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        group = Decimal(n if cyclic else 2 * n)
        if m is None:
            return (Decimal(n) * Decimal(2).ln() - group.ln()) / Decimal(10).ln()
        log_c = _ln_factorial(n, prec) - _ln_factorial(m, prec) - _ln_factorial(n - m, prec)
        return (log_c - group.ln()) / Decimal(10).ln()


def _ln_factorial(x: int, prec: int) -> Decimal:
    """ln(x!) by Stirling's series; exact below 2000, where it is summed."""
    with localcontext() as ctx:
        ctx.prec = prec + 10
        if x < 2000:
            return Decimal(math.factorial(x)).ln()
        X = Decimal(x)
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
        s = X * X.ln() - X + (2 * pi * X).ln() / 2
        # Bernoulli terms B_2k / (2k(2k-1) x^(2k-1)); at x >= 2000 the tail is < 1e-70
        for num, den, power in ((1, 12, 1), (-1, 360, 3), (1, 1260, 5), (-1, 1680, 7),
                                (1, 1188, 9), (-691, 360360, 11), (1, 156, 13)):
            s += Decimal(num) / (Decimal(den) * X**power)
        return +s


def digits_and_prefix(log10_value: Decimal, width: int) -> tuple[int, int, Decimal]:
    """Digit count, the first `width` digits (truncated), and how far the
    scaled mantissa sits from a truncation boundary (small means unsure)."""
    with localcontext() as ctx:
        ctx.prec = 60
        whole = int(log10_value)          # floor for positive values
        frac = log10_value - whole
        mantissa = (frac * Decimal(10).ln()).exp() * Decimal(10) ** (width - 1)
        prefix = int(mantissa)
        return whole + 1, prefix, min(mantissa - prefix, prefix + 1 - mantissa)


def mod_decimal_text(text: str, p: int) -> int:
    """The residue mod p of a non-negative decimal numeral, without int(text)."""
    step = 10**9
    i = len(text) % 9 or 9
    r = int(text[:i]) % p
    while i < len(text):
        r = (r * step + int(text[i:i + 9])) % p
        i += 9
    return r
