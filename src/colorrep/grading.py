"""Sign calculus on the grading group Z2^n.

Degrees compose by componentwise XOR, written multiplicatively as ``a * b``.
Everything here -- the mod-2 pairing, the commutation sign, the fourth-root
phase -- is exact integer arithmetic; no floating point is involved.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from itertools import product as _bitproduct

from .errors import RankMismatchError
from .report import Report

MAX_RANK = 16
# exhaustive pair loops are 4^n; keep them well inside a second
MAX_EXHAUSTIVE_RANK = 8

_PHASE_VALUES = (1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j)
_PHASE_NAMES = ("1", "i", "-1", "-i")


@total_ordering
class Degree:
    """An element of Z2^n stored as a tuple of 0/1 bits.

    Comparison is lexicographic on the bits, so the zero degree comes first
    and ``sorted`` on degrees reproduces the canonical sector order.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if not 1 <= len(bits) <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"degree bits must be 0 or 1, got {bits}")
        self.bits = bits

    @classmethod
    def zero(cls, rank: int) -> "Degree":
        return cls((0,) * rank)

    @classmethod
    def unit(cls, rank: int, j: int) -> "Degree":
        """The j-th standard generator (0-based)."""
        if not 0 <= j < rank:
            raise ValueError(f"generator index {j} out of range for rank {rank}")
        return cls(tuple(1 if i == j else 0 for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.bits)

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    @property
    def code(self) -> int:
        """Bitmask with the first grading bit most significant.

        Integer order on codes agrees with lexicographic order on bits.
        """
        c = 0
        for b in self.bits:
            c = (c << 1) | b
        return c

    def __mul__(self, other: "Degree") -> "Degree":
        _check_rank(self, other)
        return Degree(tuple(x ^ y for x, y in zip(self.bits, other.bits)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Degree) and self.bits == other.bits

    def __lt__(self, other: "Degree") -> bool:
        _check_rank(self, other)
        return self.bits < other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Degree({''.join(str(b) for b in self.bits)!r})"

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _check_rank(a: Degree, b: Degree) -> None:
    if a.rank != b.rank:
        raise RankMismatchError(f"rank {a.rank} vs {b.rank}")


class Parity(Enum):
    EVEN_LIKE = "even-like"
    ODD_LIKE = "odd-like"


class Phase:
    """A fourth root of unity i^k, stored by its exponent mod 4."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        self.exponent = exponent % 4

    @property
    def value(self) -> complex:
        return _PHASE_VALUES[self.exponent]

    def conjugate(self) -> "Phase":
        return Phase(-self.exponent)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def __eq__(self, other) -> bool:
        return isinstance(other, Phase) and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash(("Phase", self.exponent))

    def __repr__(self) -> str:
        return f"Phase({_PHASE_NAMES[self.exponent]})"


class Character:
    """A multiplicative sign character of Z2^n, given by its values on generators."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(int(s) for s in signs)
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"character values on generators must be +1 or -1, got {signs}")
        if not 1 <= len(signs) <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}")
        self.signs = signs

    @classmethod
    def trivial(cls, rank: int) -> "Character":
        return cls((1,) * rank)

    @property
    def rank(self) -> int:
        return len(self.signs)

    @property
    def is_trivial(self) -> bool:
        return all(s == 1 for s in self.signs)

    def __call__(self, a: Degree) -> int:
        if a.rank != self.rank:
            raise RankMismatchError(f"rank {a.rank} vs {self.rank}")
        value = 1
        for bit, s in zip(a.bits, self.signs):
            if bit:
                value *= s
        return value

    def __mul__(self, other: "Character") -> "Character":
        if other.rank != self.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        return Character(tuple(s * t for s, t in zip(self.signs, other.signs)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.signs == other.signs

    def __hash__(self) -> int:
        return hash(("Character", self.signs))

    def __repr__(self) -> str:
        return f"Character({''.join('+' if s == 1 else '-' for s in self.signs)!r})"


def bform(a: Degree, b: Degree) -> int:
    """Mod-2 pairing: sum of a_j * b_j over the grading bits."""
    _check_rank(a, b)
    return sum(x & y for x, y in zip(a.bits, b.bits)) % 2


def beta(a: Degree, b: Degree) -> int:
    """Commutation sign (-1)^bform(a, b); symmetric and bimultiplicative."""
    return -1 if bform(a, b) else 1


def ucount(a: Degree) -> int:
    """Number of set bits of the degree."""
    return sum(a.bits)


def parity(a: Degree) -> Parity:
    """Even-like iff the degree pairs to zero with itself, i.e. ucount is even."""
    return Parity.EVEN_LIKE if ucount(a) % 2 == 0 else Parity.ODD_LIKE


def is_even_like(a: Degree) -> bool:
    return ucount(a) % 2 == 0


def alpha(a: Degree, twist: Character | None = None) -> Phase:
    """The phase i^ucount(a), optionally multiplied by a sign character.

    Satisfies alpha(a*b) = beta(a, b) * alpha(a) * alpha(b), and the twisted
    variant satisfies the same identity because characters are multiplicative.
    """
    k = ucount(a)
    if twist is not None and twist(a) == -1:
        k += 2
    return Phase(k)


def lex_compare(a: Degree, b: Degree) -> int:
    """-1, 0, or +1 according to lexicographic bit order."""
    _check_rank(a, b)
    if a.bits < b.bits:
        return -1
    if a.bits > b.bits:
        return 1
    return 0


def all_degrees(rank: int) -> list[Degree]:
    """All 2^rank degrees in canonical (lexicographic) order."""
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")
    return [Degree(bits) for bits in _bitproduct((0, 1), repeat=rank)]


def even_like_degrees(rank: int) -> list[Degree]:
    return [a for a in all_degrees(rank) if is_even_like(a)]


def odd_like_degrees(rank: int) -> list[Degree]:
    return [a for a in all_degrees(rank) if not is_even_like(a)]


def _check_exhaustive_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_EXHAUSTIVE_RANK:
        raise ValueError(
            f"exhaustive verification supports rank 1..{MAX_EXHAUSTIVE_RANK}, got {rank}")


def verify_alpha_cocycle(rank: int, twist: Character | None = None) -> Report:
    """Check alpha(b*c) == beta(b, c) * alpha(b) * alpha(c) over every pair.

    Exact phase arithmetic; a violation would be a bug, not a rounding issue.
    """
    _check_exhaustive_rank(rank)
    if twist is not None and twist.rank != rank:
        raise RankMismatchError(f"twist rank {twist.rank} vs {rank}")
    degrees = all_degrees(rank)
    violations = []
    for b in degrees:
        for c in degrees:
            lhs = alpha(b * c, twist)
            sign_phase = Phase(0) if beta(b, c) == 1 else Phase(2)
            rhs = sign_phase * alpha(b, twist) * alpha(c, twist)
            if lhs != rhs:
                violations.append(f"({b},{c}): {lhs!r} != {rhs!r}")
    report = Report(f"phase cocycle, rank {rank}" + ("" if twist is None else f", twist {twist!r}"))
    report.add(
        "alpha-cocycle",
        not violations,
        detail=f"{len(violations)} violations over {len(degrees) ** 2} pairs",
    )
    if violations:
        report.context["violations"] = violations[:10]
    return report


def _delta(a: Degree, b: Degree) -> int:
    # (-1) to the number of (i, j) pairs with a_i = b_j = 1
    return -1 if (ucount(a) * ucount(b)) % 2 else 1


def _eta(a: Degree) -> int:
    # (-1) to the number of strictly ordered pairs i < j with a_i = a_j = 1
    u = ucount(a)
    return -1 if (u * (u - 1) // 2) % 2 else 1


def verify_lifting_relation(rank: int) -> Report:
    """Check beta(a,b) * delta(a,b)^-1 == eta(a) * eta(b) * eta(a*b)^-1 everywhere.

    delta(a, b) counts all index pairs between a and b; eta(a) counts the
    strictly ordered pairs inside a.  All values are signs, so inverses equal
    the values themselves; the comparison is exact.
    """
    _check_exhaustive_rank(rank)
    degrees = all_degrees(rank)
    violations = []
    for a in degrees:
        for b in degrees:
            lhs = beta(a, b) * _delta(a, b)
            rhs = _eta(a) * _eta(b) * _eta(a * b)
            if lhs != rhs:
                violations.append(f"({a},{b}): {lhs} != {rhs}")
    report = Report(f"lifting relation, rank {rank}")
    report.add(
        "beta-delta-eta",
        not violations,
        detail=f"{len(violations)} violations over {len(degrees) ** 2} pairs",
    )
    if violations:
        report.context["violations"] = violations[:10]
    return report
