"""Universal enveloping algebra with sorted-word normal forms.

Elements are finite complex combinations of words in the ordered basis of a
color Lie algebra.  A word is normal when its letters are nondecreasing and
no letter with a self-commutation sign of -1 repeats; every other word is
rewritten by the two local rules

    x_b x_a  ->  beta(b, a) x_a x_b + [x_b, x_a]      (b after a in the order)
    x_a x_a  ->  (1/2) [x_a, x_a]                     (when beta(a, a) = -1)

Rewriting terminates because each step lowers (word length, inversion count)
lexicographically.  Confluence of the two scan orders is a tested property,
not an assumption.

On top of the algebra sits the involutive monoid of pairs (group element,
enveloping element) with the twisted product used by the GNS layer.
"""
from __future__ import annotations

import numpy as np

from .colorlie import ColorLieAlgebra
from .errors import LevelCapError
from .grading import Degree, alpha
from .hcpair import GroupElement

# products in the GNS Gram matrix reach twice the sample level, so callers
# there override this
DEFAULT_LEVEL_CAP = 6

Word = tuple  # indices into the algebra basis, kept sorted when normal

_STRATEGIES = ("leftmost", "rightmost")


def word_degree(l: ColorLieAlgebra, word) -> Degree:
    deg = Degree.zero(l.rank)
    for i in word:
        deg = deg * l.degrees[i]
    return deg


def is_normal_word(l: ColorLieAlgebra, word) -> bool:
    for p in range(len(word) - 1):
        if _bad_at(l, word, p):
            return False
    return True


def _bad_at(l: ColorLieAlgebra, word, p: int) -> bool:
    a, b = word[p], word[p + 1]
    if a > b:
        return True
    return a == b and l.beta_table[a, a] == -1


def _find_bad(l: ColorLieAlgebra, word, strategy: str):
    if strategy == "leftmost":
        positions = range(len(word) - 1)
    elif strategy == "rightmost":
        positions = range(len(word) - 2, -1, -1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {_STRATEGIES}")
    for p in positions:
        if _bad_at(l, word, p):
            return p
    return None


def _acc(dst: dict, src: dict, scale: complex) -> None:
    for w, c in src.items():
        dst[w] = dst.get(w, 0j) + scale * c


def _nf(l: ColorLieAlgebra, word: tuple, strategy: str = "leftmost") -> dict:
    """Normal form of a bare word as a word -> coefficient dict, memoized."""
    key = (strategy, word)
    cached = l._nf_cache.get(key)
    if cached is not None:
        return cached
    p = _find_bad(l, word, strategy)
    if p is None:
        out = {word: 1.0 + 0j}
    else:
        out = {}
        a, b = word[p], word[p + 1]
        head, tail = word[:p], word[p + 2:]
        if a != b:
            _acc(out, _nf(l, head + (b, a) + tail, strategy), float(l.beta_table[a, b]))
        t = l.triples
        pair = slice(t.ptr[a * l.dim + b], t.ptr[a * l.dim + b + 1])
        for k, c in zip(t.k[pair].tolist(), t.c[pair].tolist()):
            _acc(out, _nf(l, head + (k,) + tail, strategy), 0.5 * c if a == b else c)
        out = {w: c for w, c in out.items() if c != 0}
    l._nf_cache[key] = out
    return out


class EnvElement:
    """Linear combination of normal words over a fixed color Lie algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: ColorLieAlgebra, terms: dict | None = None):
        self.algebra = algebra
        clean = {}
        for w, c in (terms or {}).items():
            c = complex(c)
            if c != 0:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def zero(cls, l: ColorLieAlgebra) -> "EnvElement":
        return cls(l)

    @classmethod
    def one(cls, l: ColorLieAlgebra) -> "EnvElement":
        return cls(l, {(): 1.0})

    @classmethod
    def generator(cls, l: ColorLieAlgebra, i: int) -> "EnvElement":
        if not 0 <= i < l.dim:
            raise ValueError(f"basis index {i} out of range for dimension {l.dim}")
        return cls(l, {(i,): 1.0})

    @property
    def level(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    @property
    def degree(self):
        """Common degree of all words, or None when they disagree."""
        degs = {word_degree(self.algebra, w) for w in self.terms}
        if not degs:
            return Degree.zero(self.algebra.rank)
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0j)

    def __add__(self, other: "EnvElement") -> "EnvElement":
        out = dict(self.terms)
        _acc(out, other.terms, 1.0)
        return EnvElement(self.algebra, out)

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        out = dict(self.terms)
        _acc(out, other.terms, -1.0)
        return EnvElement(self.algebra, out)

    def __neg__(self) -> "EnvElement":
        return EnvElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "EnvElement":
        return EnvElement(self.algebra, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, c) -> "EnvElement":
        if isinstance(c, EnvElement):
            return env_mul(self.algebra, self, c)
        return self.scale(c)

    def __rmul__(self, c) -> "EnvElement":
        return self.scale(c)

    def __repr__(self) -> str:
        if not self.terms:
            return "EnvElement(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            name = "*".join(self.algebra.labels[i] for i in w) if w else "1"
            bits.append(f"({c:.4g})*{name}")
        return "EnvElement(" + " + ".join(bits) + ")"


def normal_form(l: ColorLieAlgebra, word, level_cap: int = DEFAULT_LEVEL_CAP,
                strategy: str = "leftmost") -> EnvElement:
    """Rewrite an arbitrary index word into the sorted-word basis."""
    word = tuple(int(i) for i in word)
    for i in word:
        if not 0 <= i < l.dim:
            raise ValueError(f"index {i} out of range for dimension {l.dim}")
    if len(word) > level_cap:
        raise LevelCapError(
            f"word of length {len(word)} exceeds level cap {level_cap}; "
            "pass a larger level_cap if this is intended")
    return EnvElement(l, dict(_nf(l, word, strategy)))


def env_mul(l: ColorLieAlgebra, d1: EnvElement, d2: EnvElement,
            level_cap: int = DEFAULT_LEVEL_CAP) -> EnvElement:
    """Concatenate-then-normalize product, bilinear in both slots."""
    if d1.algebra is not l or d2.algebra is not l:
        raise ValueError("elements belong to a different algebra")
    out: dict = {}
    for w1, c1 in d1.terms.items():
        for w2, c2 in d2.terms.items():
            if len(w1) + len(w2) > level_cap:
                raise LevelCapError(
                    f"product word of length {len(w1) + len(w2)} exceeds level "
                    f"cap {level_cap}; pass a larger level_cap if this is intended")
            _acc(out, _nf(l, w1 + w2), c1 * c2)
    return EnvElement(l, out)


def env_star(l: ColorLieAlgebra, d: EnvElement) -> EnvElement:
    """Conjugate-linear anti-automorphism generated by x -> -conj(alpha)|x."""
    if d.algebra is not l:
        raise ValueError("element belongs to a different algebra")
    out: dict = {}
    for w, c in d.terms.items():
        phase = 1.0 + 0j
        for i in w:
            phase *= letter_star_phase(l, i)
        _acc(out, _nf(l, w[::-1]), np.conjugate(c) * phase)
    return EnvElement(l, out)


def letter_star_phase(l: ColorLieAlgebra, i: int) -> complex:
    """The phase p with x_i* = p x_i, which is -conj(alpha(deg x_i))."""
    return -np.conjugate(alpha(l.degrees[i]).value)


def env_ad(g: GroupElement, d: EnvElement) -> EnvElement:
    """Letterwise action of a group element, renormalized afterwards.

    The identity returns ``d`` itself: its words are normal already, and
    renormalizing a normal word gives the same word.
    """
    l = d.algebra
    ad = g.ad
    if ad.shape != (l.dim, l.dim):
        raise ValueError("group element acts on a different algebra")
    if g.is_identity():
        return d
    out: dict = {}
    for w, c in d.terms.items():
        expanded = {(): c}
        for letter in w:
            col = ad[:, letter]
            grown: dict = {}
            for prefix, cc in expanded.items():
                for k in np.flatnonzero(col):
                    key = prefix + (int(k),)
                    grown[key] = grown.get(key, 0j) + cc * col[k]
            expanded = grown
        for ww, cc in expanded.items():
            _acc(out, _nf(l, ww), cc)
    return EnvElement(l, out)


class MonoidElement:
    """Pair of a group element and an enveloping element."""

    __slots__ = ("group", "env")

    def __init__(self, group: GroupElement, env: EnvElement):
        if group.ad.shape != (env.algebra.dim, env.algebra.dim):
            raise ValueError("group and enveloping parts act on different algebras")
        self.group = group
        self.env = env

    @classmethod
    def identity(cls, l: ColorLieAlgebra) -> "MonoidElement":
        return cls(GroupElement.identity(l.dim), EnvElement.one(l))

    @classmethod
    def from_group(cls, l: ColorLieAlgebra, g: GroupElement) -> "MonoidElement":
        return cls(g, EnvElement.one(l))

    @classmethod
    def from_env(cls, d: EnvElement) -> "MonoidElement":
        return cls(GroupElement.identity(d.algebra.dim), d)

    @property
    def degree(self):
        return self.env.degree

    @property
    def level(self) -> int:
        return self.env.level

    def is_identity(self) -> bool:
        """The identity group element by construction, paired with the unit word."""
        return self.group.is_identity() and self.env.terms == {(): 1}

    def __repr__(self) -> str:
        return f"MonoidElement({self.group.label!r}, {self.env!r})"


def s_mul(s1: MonoidElement, s2: MonoidElement,
          level_cap: int = DEFAULT_LEVEL_CAP) -> MonoidElement:
    """Twisted product (g1, D1)(g2, D2) = (g1 g2, (g2^-1 . D1) D2)."""
    l = s1.env.algebra
    if s2.env.algebra is not l:
        raise ValueError("elements belong to different monoids")
    moved = env_ad(s2.group.inverse(), s1.env)
    return MonoidElement(s1.group.compose(s2.group),
                         env_mul(l, moved, s2.env, level_cap))


def s_star(s: MonoidElement) -> MonoidElement:
    """Involution (g, D) -> (g^-1, g . D*)."""
    l = s.env.algebra
    return MonoidElement(s.group.inverse(),
                         env_ad(s.group, env_star(l, s.env)))
