"""Jordan types (partitions with multiplicity), p-adic valuations, binomials mod p."""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every machine-word integer."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeChar(int):
    """A prime characteristic. Primality is verified once at construction."""

    def __new__(cls, p: int) -> "PrimeChar":
        if not isinstance(p, int):
            raise TypeError(f"characteristic must be an integer, got {type(p).__name__}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        return super().__new__(cls, p)


class JordanType:
    """Multiset of Jordan block sizes, stored sparsely as size -> multiplicity.

    Values are immutable; `+` is multiset union. Iteration yields (size, mult)
    pairs in ascending size order, which is also the canonical rendering order.
    """

    __slots__ = ("_pairs",)

    def __init__(self, blocks: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = blocks.items() if isinstance(blocks, Mapping) else blocks
        acc: dict[int, int] = {}
        for size, mult in items:
            size, mult = int(size), int(mult)
            if size < 1:
                raise ValueError(f"block size must be positive, got {size}")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            acc[size] = acc.get(size, 0) + mult
        self._pairs: tuple[tuple[int, int], ...] = tuple(sorted(acc.items()))

    @property
    def blocks(self) -> dict[int, int]:
        return dict(self._pairs)

    @property
    def dim(self) -> int:
        return sum(s * m for s, m in self._pairs)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Distinct block sizes, ascending."""
        return tuple(s for s, _ in self._pairs)

    @property
    def block_count(self) -> int:
        """Total number of blocks, multiplicities included."""
        return sum(m for _, m in self._pairs)

    @property
    def min_size(self) -> int:
        if not self._pairs:
            raise ValueError("empty Jordan type has no blocks")
        return self._pairs[0][0]

    @property
    def max_size(self) -> int:
        if not self._pairs:
            raise ValueError("empty Jordan type has no blocks")
        return self._pairs[-1][0]

    def multiplicity(self, size: int) -> int:
        for s, m in self._pairs:
            if s == size:
                return m
        return 0

    def is_multiplicity_free(self) -> bool:
        return all(m == 1 for _, m in self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __add__(self, other: "JordanType") -> "JordanType":
        if not isinstance(other, JordanType):
            return NotImplemented
        merged = self.blocks
        for s, m in other:
            merged[s] = merged.get(s, 0) + m
        return JordanType(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JordanType):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def render(self) -> str:
        """Canonical string: ascending sizes, `size` or `size^mult` terms."""
        return ", ".join(str(s) if m == 1 else f"{s}^{m}" for s, m in self._pairs)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"JordanType({dict(self._pairs)!r})"


_TERM = re.compile(r"(\d+)(?:\^(\d+))?\Z")


def parse_jordan_type(text: str) -> JordanType:
    """Parse `d1^m1, d2^m2, ...`; `^mult` defaults to 1, whitespace is ignored.

    Repeated sizes accumulate: `2, 2` and `2^2` are the same type.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty Jordan type string")
    pairs = []
    for term in compact.split(","):
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"bad term {term!r} in Jordan type {text!r}")
        pairs.append((int(m.group(1)), int(m.group(2) or 1)))
    return JordanType(pairs)


def partitions_of(n: int) -> Iterator[JordanType]:
    """All Jordan types of total dimension n, largest-part-first order.

    Enumeration starts at the single block {n: 1} and ends at the identity
    type {1: n}; the order is deterministic, so sweeps built on it are
    reproducible.
    """
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")

    def descend(total: int, cap: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for part in range(min(total, cap), 0, -1):
            for rest in descend(total - part, part):
                yield (part,) + rest

    for parts in descend(n, n):
        counts: dict[int, int] = {}
        for part in parts:
            counts[part] = counts.get(part, 0) + 1
        yield JordanType(counts)


def nu_p(a: int, p: int) -> int:
    """p-adic valuation of a >= 1."""
    if a < 1:
        raise ValueError(f"valuation needs a positive argument, got {a}")
    k = 0
    while a % p == 0:
        a //= p
        k += 1
    return k


def alpha_of(t: JordanType, p: int) -> int:
    """nu_p of the gcd of the distinct block sizes of t."""
    if not t:
        raise ValueError("empty Jordan type")
    return nu_p(math.gcd(*t.sizes), p)


def binom_mod_p(a: int, b: int, p: int) -> int:
    """(a choose b) mod p, digit by digit in base p; 0 whenever a < b.

    Never forms a factorial: each base-p digit pair contributes its own small
    binomial, and any digit of a falling below the matching digit of b kills
    the product.
    """
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be non-negative")
    out = 1
    while b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        if da < db:
            return 0
        out = out * math.comb(da, db) % p
    return out
