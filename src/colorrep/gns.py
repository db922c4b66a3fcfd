"""Reconstruction of cyclic representations from positive definite functions.

A function on the transformation monoid that is positive definite, supported
in degree zero, and of finite type determines a graded Hilbert space, a
distinguished cyclic vector, and unitary operators realizing the monoid by
left translation.  This module builds that data from finitely many samples,
certifies what it verified, and compares independent reconstructions.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from .colorlie import ColorLieAlgebra, _join
from .enveloping import (DEFAULT_LEVEL_CAP, EnvElement, MonoidElement, _nf,
                         is_normal_word, letter_star_phase, s_mul, s_star)
from .errors import EquivalenceError, PositivityError, StabilizationError
from .grading import Degree
from .hcpair import GroupElement, HCPair
from .report import Report, worst_entry, worst_residual
from .reps import (UnitaryRep, _zero_sector_exps, check_unitary_rep,
                   matrix_coefficient, monoid_operator)
from .spaces import GammaInnerSpace, GradedSpace, HomogeneousMap, _degree_pattern

_GNS_TOL = 1e-9
# the most normal words one level may index: a sample set lists those up to
# its level, the table route those up to twice its level; at dim 16 with 8
# odd letters there are 40,081 up to length 6 and 265,729 up to length 8
_WORD_BUDGET = 100_000
# monoid products that witness each reproducing pick on the operator route
_WITNESS = 4


class PDFunction:
    """Scalar function on the monoid, linear over the enveloping part.

    Instances remember where they came from, and the sample Gram is built
    the fastest way that provenance allows (see ``_gram_of``).  Diagonal
    coefficients of a representation keep the representation and vector and
    are evaluated through the operators; their sample columns rho(w) v are
    built by prefix sharing (``_WordColumns``), each new word's column from
    the column of its suffix, and kept across levels.  Table-backed
    functions only know their values on normal words with trivial group
    part; they keep the table, and their Grams read it through
    left-multiplication operators on normal words (``_WordOperators``).
    Those are built on first use by the PBW recursion, with
    ``enveloping._nf`` as the reference they are tested against, grown with
    the level under a word budget, and kept.  Any other evaluator is called
    once per Gram entry.
    """

    __slots__ = ("algebra", "provenance", "rep", "vector", "table", "_eval",
                 "_words", "_columns")

    def __init__(self, algebra: ColorLieAlgebra, evaluator,
                 provenance: str = "custom"):
        self.algebra = algebra
        self._eval = evaluator
        self.provenance = provenance
        self.rep = None
        self.vector = None
        self.table = None
        self._words = None
        self._columns = None

    def __call__(self, s: MonoidElement) -> complex:
        if s.env.algebra is not self.algebra:
            raise ValueError("monoid element belongs to a different algebra")
        return complex(self._eval(s))

    @classmethod
    def from_rep(cls, r: UnitaryRep, v) -> "PDFunction":
        """Diagonal matrix coefficient s -> (op(s) v, v)."""
        v = _vector_of(r, v)
        out = cls(r.algebra, lambda s: matrix_coefficient(r, v, v, s),
                  provenance="diagonal coefficient")
        out.rep = r
        out.vector = v
        return out

    @classmethod
    def from_table(cls, l: ColorLieAlgebra, table) -> "PDFunction":
        """Function given by values on normal words.

        Table keys are index tuples in rewriting-stable form.  Only elements
        whose group part is the identity by construction can be evaluated
        (see ``GroupElement.is_identity``); a group element whose matrix merely
        equals the identity is refused.  Missing words count as zero.
        """
        clean: dict[tuple, complex] = {}
        for word, val in table.items():
            word = tuple(int(i) for i in word)
            if word and not (min(word) >= 0 and max(word) < l.dim):
                raise ValueError(f"table key {word} has a letter outside the algebra")
            if not is_normal_word(l, word):
                raise ValueError(f"table key {word} is not a normal word")
            clean[word] = complex(val)

        def ev(s: MonoidElement) -> complex:
            _refuse_group_part(s.group)
            return sum((c * clean.get(w, 0.0) for w, c in s.env.terms.items()),
                       start=0.0 + 0.0j)

        out = cls(l, ev, provenance="table")
        out.table = clean
        return out

    def __repr__(self) -> str:
        return f"PDFunction({self.provenance}, dim={self.algebra.dim})"


def _vector_of(r: UnitaryRep, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (r.space_dim,):
        raise ValueError(f"vector must have length {r.space_dim}")
    return v


def _refuse_group_part(g: GroupElement) -> None:
    # a table holds values on the identity component only
    if not g.is_identity():
        raise ValueError(
            f"table-backed function cannot evaluate group element "
            f"{g.label!r}; only the identity component is tabulated")


class SampleSet:
    """Finite probe of the monoid: every group sample times every normal word.

    Sample k is (groups[k // len(words)], words[k % len(words)]).  The
    identity group element comes first and the words start with the empty
    word, so sample 0 is the identity of the monoid.  ``codes`` holds the
    degree code (``Degree.code``) of each sample; the group part has degree
    zero, so these are the word codes, tiled.  The samples are not stored as
    monoid elements: ``element(k)`` builds one on demand, for the routes
    that take monoid products.  Made by ``build_sample_set``.
    """

    __slots__ = ("algebra", "groups", "words", "level", "codes")

    def __init__(self, l: ColorLieAlgebra, groups, words, level: int):
        self.algebra = l
        self.groups = groups
        self.words = words
        self.level = level
        self.codes = np.tile(_word_codes(l, words), len(groups))

    def __len__(self) -> int:
        return len(self.groups) * len(self.words)

    def element(self, k: int) -> MonoidElement:
        """Sample k as a monoid element; a negative k counts from the end."""
        g, w = divmod(k, len(self.words))
        return MonoidElement(self.groups[g],
                             EnvElement(self.algebra, {self.words[w]: 1.0}))

    def __iter__(self):
        return (self.element(k) for k in range(len(self)))

    def __repr__(self) -> str:
        return (f"SampleSet({len(self)} samples, "
                f"level={self.level}, groups={len(self.groups)})")


def _word_codes(l: ColorLieAlgebra, words) -> np.ndarray:
    # the degree code of a word is the xor of its letters' codes
    letter = l.deg_codes.tolist()
    out = np.zeros(len(words), dtype=np.int64)
    for k, w in enumerate(words):
        code = 0
        for i in w:
            code ^= letter[i]
        out[k] = code
    return out


def _degree_of(rank: int, code: int) -> Degree:
    return Degree((code >> (rank - 1 - j)) & 1 for j in range(rank))


def normal_words(l: ColorLieAlgebra, max_level: int) -> list[tuple]:
    """All rewriting-stable index words up to the length bound, shortest first."""
    words: list[tuple] = [()]
    frontier: list[tuple] = [()]
    for _ in range(max_level):
        grown = []
        for w in frontier:
            start = w[-1] if w else 0
            for i in range(start, l.dim):
                if w and i == w[-1] and l.beta_table[i, i] == -1:
                    continue  # squares of these letters rewrite away
                grown.append(w + (i,))
        words.extend(grown)
        frontier = grown
    return words


def normal_word_count(l: ColorLieAlgebra, max_level: int) -> int:
    """How many words ``normal_words`` lists, in closed form.

    The normal words of length m number the coefficient of t^m in
    (1 - t)^-e (1 + t)^o, where o counts the letters with beta(i, i) = -1 and
    e the others; dividing by 1 - t sums the lengths up to the bound.
    """
    odd = int(np.sum(np.diag(l.beta_table) == -1))
    even = l.dim - odd
    return sum(math.comb(odd, j) * math.comb(max_level - j + even, even)
               for j in range(min(odd, max_level) + 1))


def default_group_samples(r) -> list[GroupElement]:
    """Identity, the bound extra generators, and exp samples of the zero sector.

    The exp samples are computed once per representation.  Degree-zero basis
    elements that act as exactly zero, on the algebra and on the space, give
    none: their exponentials equal the identity without being it.
    """
    out = [GroupElement.identity(r.algebra.dim, r.space_dim)]
    out.extend(g for g in r.pair.extra_generators if g.pi is not None)
    out.extend(g for i, g in _zero_sector_exps(r)
               if (r.algebra.triples.i == i).any() or r.rho_matrix(i).any())
    return out


def build_sample_set(l: ColorLieAlgebra, group_samples, level: int) -> SampleSet:
    """Pair every group sample with every normal word up to the level.

    The identity group element always comes first.  Only samples that are
    the identity by construction are folded into it; one whose matrices
    merely equal the identity stays an ordinary group sample.  Each degree
    code is computed once per normal word, and no monoid element is built.
    A negative level raises ValueError; a level whose normal words number
    more than ``_WORD_BUDGET`` raises StabilizationError before any is listed.
    """
    if level < 0:
        raise ValueError(f"sample level must be at least 0, got {level}")
    words = normal_word_count(l, level)
    if words > _WORD_BUDGET:
        raise StabilizationError(
            f"level {level} needs the {words} normal words up to length "
            f"{level}, over the budget of {_WORD_BUDGET} words")
    groups = [g for g in group_samples if not g.is_identity()]
    # bind the identity whenever the others are bound, so that star and
    # product stay inside the bound part of the monoid
    pi_dim = next((g.pi.shape[0] for g in groups if g.pi is not None), None)
    groups.insert(0, GroupElement.identity(l.dim, pi_dim))
    return SampleSet(l, groups, normal_words(l, level), level)


def _product(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    # a b, with the rewriting cap sized to the words actually present
    return s_mul(a, b, level_cap=max(1, a.level + b.level))


def _monoid_pair(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    return _product(s_star(a), b)


def _witness_gap(psi: PDFunction, samples: SampleSet, firsts, k: int,
                 route, star: bool = False) -> float:
    """Worst gap between psi(s t) through the monoid product and route(i, same).

    For each sample index i of ``firsts``, s is sample i (its star when
    ``star``), and t = s_j runs over sample i itself and the k - 1 other
    samples of its degree code where the route's value is largest in
    modulus, the first of equals first.  route(i, same) gives the route's
    own values of psi(s t) for the sample indices ``same``.  Pairs of
    different degree codes pair to zero on every route, and so do most
    pairs of one code; a wrong product shows in the entries that carry
    weight.  Only these samples are built as monoid elements.  A non-finite
    compared entry makes the result non-finite.
    """
    codes = samples.codes
    gaps = []
    for i in firsts:
        s_i = samples.element(i)
        s = s_star(s_i) if star else s_i
        same = np.flatnonzero(codes == codes[i])
        value = np.asarray(route(i, same))
        size = np.where(same == i, np.inf, np.abs(value))
        for at in np.argsort(-size, kind="stable")[:k]:
            j = int(same[at])
            t = s_i if j == i else samples.element(j)
            gaps.append(abs(psi(_product(s, t)) - value[at]))
    return float(np.max(gaps))


def _gram_of(psi: PDFunction, samples: SampleSet):
    """The Gram M[i, j] = psi(s_i* s_j) of the samples, built once.

    The only place that picks a route, from provenance alone.
    Representation-backed psi takes the operator route (``_FactoredGram``),
    table-backed psi the table route (``_TableGram``, which refuses any
    group part but the identity), and every other psi the monoid-product
    route (``_DenseGram``).  The samples must come from
    ``build_sample_set``; anything else raises TypeError.  Each route gives
    ``samples``; ``eigs``, the eigenvalues of M (of its Hermitian part off the
    operator route) ascending, None when the data are not finite; ``scale``,
    max(1, max |eigs|), which is ||M||_2 when M is Hermitian (1 when not
    finite); ``dense()``, M; ``hermitian()``, residual and detail of the
    Hermitian check; ``route_gap()``, the sampled gap between the operator
    and monoid-product routes (None on the other two); ``products(i)``,
    psi(s_i t) for every sample t, with the gap of the monoid products that
    witness it (0 where every entry is one); ``block(rows, cols)``, that
    block of M, whose row 0 is psi at the samples, as sample 0 is the
    identity of the monoid; ``times(x)``, M x; ``sector(idx)``, the
    eigenvalues of the block of M on idx ascending, with eigenvectors for
    the last of them; ``translate(m_left, c)``, c^H P with the pairings
    P[t, s] = psi(t* m_left s) (P itself when c is None), and the squared
    lengths of the translates; ``against(x)``, psi(t* x) for every sample t; and ``psd_detail``.
    """
    if not isinstance(samples, SampleSet):
        raise TypeError(f"samples must be a SampleSet made by build_sample_set, "
                        f"not {type(samples).__name__}")
    if samples.algebra is not psi.algebra:
        raise ValueError("sample set belongs to a different algebra")
    if psi.rep is not None:
        return _FactoredGram(psi, samples)
    if psi.table is not None:
        return _TableGram(psi, samples)
    return _DenseGram(psi, samples)


def _spectrum(m: np.ndarray):
    # eigenvalues of (M + M^H) / 2 ascending and max(1, their top modulus),
    # which is at most max(1, ||M||_2); None and 1 when not finite
    if not np.isfinite(m).all():
        return None, 1.0
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return eigs, max(1.0, float(np.max(np.abs(eigs))))


class _DenseGram:
    """Monoid-product route: each entry is one monoid product and one psi call."""

    psd_detail = "verified on sample set"

    def __init__(self, psi: PDFunction, samples: SampleSet):
        self.psi = psi
        self.samples = samples
        self.elements = list(samples)
        self.stars = [s_star(t) for t in self.elements]
        self.m = np.column_stack([self.against(b) for b in self.elements])
        self.eigs, self.scale = _spectrum(self.m)

    def dense(self) -> np.ndarray:
        return self.m

    def hermitian(self) -> tuple[float, str]:
        # ||M - M^H||_2 is the top |eigenvalue| of the Hermitian i (M - M^H),
        # which takes no SVD
        eigs = np.linalg.eigvalsh(1j * (self.m - self.m.conj().T))
        return float(np.max(np.abs(eigs), initial=0.0)), "verified on sample set"

    def route_gap(self):
        return None

    def block(self, rows, cols) -> np.ndarray:
        return self.m[np.ix_(rows, cols)]

    def times(self, x: np.ndarray) -> np.ndarray:
        return self.m @ x

    def sector(self, idx):
        md = self.block(idx, idx)
        return np.linalg.eigh((md + md.conj().T) / 2.0)

    def products(self, i: int) -> tuple[np.ndarray, float]:
        # every entry is a monoid product already, so nothing to witness
        s = self.samples.element(i)
        return np.array([self.psi(_product(s, t)) for t in self.samples],
                        dtype=complex), 0.0

    def translate(self, m_left: MonoidElement, c_mat=None):
        n = len(self.elements)
        pairs = np.zeros((n, n), dtype=complex)
        norms = np.zeros(n)
        for k, s in enumerate(self.elements):
            ms = _product(m_left, s)
            pairs[:, k] = self.against(ms)
            norms[k] = float(np.real(self.psi(_monoid_pair(ms, ms))))
        return pairs if c_mat is None else c_mat.conj().T @ pairs, norms

    def against(self, x: MonoidElement) -> np.ndarray:
        return np.array([self.psi(_product(t_star, x)) for t_star in self.stars],
                        dtype=complex)


class _WordOperators:
    """Left multiplication by the generators on normal words, for a table t.

    This is the left regular action of U(g) that the GNS space carries.  The
    column of L_k at the normal word u holds nf(x_k u); all columns sit in
    one flat store, the column (u, k) under the key u d + k (d = dim g).  They
    come from the PBW recursion (Scheunert, J. Math. Phys. 20 (1979)), word
    length by word length: for u = (a, u'),

        L_k e_u = e_(k, a, u')                       if k < a, or k = a and
                                                     beta(k, k) = +1;
                = 1/2 sum_j c^j_kk L_j e_u'          if k = a and
                                                     beta(k, k) = -1;
                = beta(k, a) L_a L_k e_u'
                  + sum_j c^j_ka L_j e_u'            if k > a.

    Every word of L_k e_u' that is as long as u starts at a letter >= a, so
    the last case reads only columns of shorter words and columns of the
    first two cases, which are built first.  Growth computes only the new
    columns.  Normal forms are unique when the algebra satisfies its axioms
    (Bergman, Adv. Math. 29 (1978)), so the columns are the normal forms
    that ``enveloping._nf`` rewrites to; ``_nf`` is the reference that the
    tests and the reproducing check of ``gns_construct`` compare against.

    For a normal word w = (a_1, ..., a_r), psi(w* u) = phase(w) t(x_{a_r} ...
    x_{a_1} u) with the star phase phase(w), so its row is rho_w = t^T L_{a_r}
    ... L_{a_1} = rho_{(a_2, ..., a_r)} L_{a_1}: the suffix is a shorter
    normal word, and each row costs one sparse product.  At ``top`` the words
    run up to length 2 top, the operators act on words up to length 2 top - 1,
    and the row of a word of length r is exact on words up to length
    2 top - r.  A ``top`` whose words number more than ``_WORD_BUDGET`` is
    refused before anything is allocated.  Built on first use, grown with the
    level and kept on the function.
    """

    def __init__(self, psi: PDFunction):
        l = psi.algebra
        d = l.dim
        self.algebra = l
        self.table = psi.table
        self.top = -1
        self.built = 0           # words whose columns the store holds
        self.words: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.counts = np.zeros(0, dtype=np.int64)
        self.tail = np.zeros(0, dtype=np.int64)
        # column u d + k: entries start[u d + k] onwards, count[u d + k] many
        self.start = np.zeros(0, dtype=np.int64)
        self.count = np.zeros(0, dtype=np.int64)
        self.dst = np.zeros(0, dtype=np.int64)
        self.val = np.zeros(0, dtype=complex)
        self.odd = np.diag(l.beta_table) == -1
        self.letter_phase = np.array([letter_star_phase(l, k)
                                      for k in range(d)])
        self.rows: list[np.ndarray] = []
        self.phase = np.ones(0, dtype=complex)

    @property
    def entries(self) -> int:
        """Stored nonzeros over all the L_k."""
        return self.dst.size

    def grow(self, top: int) -> None:
        if top <= self.top:
            return
        l = self.algebra
        words = normal_word_count(l, 2 * top)
        if words > _WORD_BUDGET:
            raise StabilizationError(
                f"level {top} needs the {words} normal words up to length "
                f"{2 * top}, over the budget of {_WORD_BUDGET} words")
        self.words = normal_words(l, 2 * top)
        self.index = {w: i for i, w in enumerate(self.words)}
        # counts[m]: how many words have length at most m
        self.counts = np.searchsorted([len(w) for w in self.words],
                                      np.arange(2 * top + 1), side="right")
        self._build_columns(top)
        self.top = top

        n = int(self.counts[top])
        rows = [np.array([self.table.get(w, 0.0) for w in self.words],
                         dtype=complex)]
        phase = np.ones(n, dtype=complex)
        for i in range(1, n):
            w, j = self.words[i], int(self.tail[i])
            out = int(self.counts[2 * top - len(w)])
            rows.append(self._times(w[0], rows[j], out))
            phase[i] = self.letter_phase[w[0]] * phase[j]
        self.rows, self.phase = rows, phase

    def _build_columns(self, top: int) -> None:
        # the columns of the words of length up to 2 top - 1 not yet built
        d = self.algebra.dim
        end = int(self.counts[2 * top - 1]) if top else 0
        first = np.array([w[0] if w else d for w in self.words])
        bounds = np.concatenate([[0], self.counts])
        # pre[k, u]: the index of the normal word (k,) + u, or -1.  The words
        # of one length are in lexicographic order, so the words (k,) + u are
        # a run, and so are their suffixes u
        pre = np.full((d, end), -1, dtype=np.int64)
        self.tail = np.full(len(self.words), -1, dtype=np.int64)
        for m in range(2 * top):
            lo, hi, nxt = bounds[m], bounds[m + 1], bounds[m + 2]
            for k in range(d):
                s = lo + np.searchsorted(first[lo:hi], k,
                                         side="right" if self.odd[k] else "left")
                p = hi + np.searchsorted(first[hi:nxt], k)
                pre[k, s:hi] = p + np.arange(hi - s)
                self.tail[p:p + hi - s] = np.arange(s, hi)
        grown = np.zeros((end - self.built) * d, dtype=np.int64)
        self.start = np.concatenate([self.start, grown])
        self.count = np.concatenate([self.count, grown])
        beta = self.algebra.beta_table
        for m in range(2 * top):
            lo, hi = int(bounds[m]), int(bounds[m + 1])
            if hi <= self.built:
                continue
            # prepends, and the squares of letters with beta(a, a) = -1
            ks, us = np.nonzero(pre[:, lo:hi] >= 0)
            us += lo
            parts = [(us * d + ks, pre[ks, us], np.ones(us.size))]
            if m:
                sq = lo + np.flatnonzero(self.odd[first[lo:hi]])
                a = first[sq]
                p, j, c = self._brackets(a * d + a)
                w, dst, val = self._columns(self.tail[sq[p]] * d + j, 0.5 * c)
                parts.append(((sq * d + a)[p[w]], dst, val))
            self._store(parts)
            if not m:
                continue
            # k > a: beta(k, a) L_a L_k e_u' + sum_j c^j_ka L_j e_u'
            ks, us = np.nonzero(np.arange(d)[:, None] > first[lo:hi])
            us += lo
            a, t, keys = first[us], self.tail[us], us * d + ks
            p, j, c = self._brackets(ks * d + a)
            w, dst, val = self._columns(t[p] * d + j, c)
            parts = [(keys[p[w]], dst, val)]
            w, v, cv = self._columns(t * d + ks, beta[ks, a])
            w2, dst, val = self._columns(v * d + a[w], cv)
            parts.append((keys[w[w2]], dst, val))
            self._store(parts)
        self.built = end

    def _brackets(self, pairs: np.ndarray):
        # (which pair, j, c^j) over the nonzero c^j_ab of each pair a d + b
        t = self.algebra.triples
        which, pos = _join(t.ptr[pairs], t.ptr[pairs + 1])
        return which, t.k[pos], t.c[pos]

    def _columns(self, keys: np.ndarray, coef=None):
        # (which key, row, value) over the stored columns, each scaled by coef
        lo = self.start[keys]
        which, pos = _join(lo, lo + self.count[keys])
        val = self.val[pos] if coef is None else self.val[pos] * coef[which]
        return which, self.dst[pos], val

    def _store(self, parts) -> None:
        # sum the (key, row, value) triples into columns and append them
        keys, dst, val = (np.concatenate(x) for x in zip(*parts))
        n = len(self.words)
        code, inv = np.unique(keys * n + dst, return_inverse=True)
        val = (np.bincount(inv, val.real, code.size)
               + 1j * np.bincount(inv, val.imag, code.size))
        keep = val != 0
        code, val = code[keep], val[keep]
        keys, at, count = np.unique(code // n, return_index=True,
                                    return_counts=True)
        self.start[keys] = self.dst.size + at
        self.count[keys] = count
        self.dst = np.concatenate([self.dst, code % n])
        self.val = np.concatenate([self.val, val])

    def _operator(self, k: int, cols: int):
        # L_k on the first ``cols`` words, as (column, row, value) arrays
        return self._columns(np.arange(cols) * self.algebra.dim + k)

    def _times(self, k: int, row: np.ndarray, out: int) -> np.ndarray:
        # row^T L_k on the first ``out`` words
        src, dst, val = self._operator(k, out)
        wts = row[dst] * val
        return (np.bincount(src, wts.real, out)
                + 1j * np.bincount(src, wts.imag, out))

    def coordinates(self, env: EnvElement) -> np.ndarray:
        """The normal-word coefficients of env, as one column.

        Normal words are looked up; only a word that is not normal is
        rewritten through ``_nf``.
        """
        self.grow(env.level)
        x = np.zeros((int(self.counts[env.level]), 1), dtype=complex)
        for w, c in env.terms.items():
            terms = {w: 1.0} if w in self.index else _nf(self.algebra, w)
            for v, cv in terms.items():
                x[self.index[v], 0] += c * cv
        return x

    def left_multiply(self, env: EnvElement, level: int) -> np.ndarray:
        """env times each word up to the level, as columns on longer words."""
        top = level + env.level
        self.grow(top)
        n = int(self.counts[level])
        out = np.zeros((int(self.counts[top]), n), dtype=complex)
        for word, c in env.terms.items():
            y, m = np.eye(n, dtype=complex), level
            for k in reversed(word):
                src, dst, val = self._operator(k, y.shape[0])
                op = np.zeros((int(self.counts[m + 1]), y.shape[0]),
                              dtype=complex)
                op[dst, src] = val
                y, m = op @ y, m + 1
            out[:y.shape[0]] += c * y
        return out

    def gram(self, level: int) -> np.ndarray:
        """psi(u* v) for every pair of words u, v up to the level."""
        self.grow(level)
        n = int(self.counts[level])
        return self.phase[:n, None] * np.stack([row[:n] for row in self.rows[:n]])

    def pairings(self, level: int, x: np.ndarray, x_level: int) -> np.ndarray:
        """psi(u* x) for every word u up to the level and every column x.

        The columns hold coefficients on the words up to ``x_level``.
        """
        self.grow(max(level, x_level))
        n = int(self.counts[level])
        rows = np.stack([row[:x.shape[0]] for row in self.rows[:n]])
        return self.phase[:n, None] * (rows @ x)


class _TableGram(_DenseGram):
    """Table route: Gram entries read the table through left multiplication.

    The samples are the normal words up to the level, which are the first n
    words of ``_WordOperators``, so M is the word Gram K[u, v] = psi(u* v) on
    them.  Both triangles of K are computed, so the Hermitian check stays a
    real one.  Left translation by x_k maps the samples to the columns
    Y = L_k on words one longer, so its pairings against the columns of c
    are c^H (K Y)[:n] and the squared lengths of the translates are the
    diagonal of Y^H K Y.
    """

    def __init__(self, psi: PDFunction, samples: SampleSet):
        for g in samples.groups:
            _refuse_group_part(g)
        self.psi = psi
        self.samples = samples
        if psi._words is None:
            psi._words = _WordOperators(psi)
        self.words = psi._words
        self.level = samples.level
        self.m = self.words.gram(self.level)
        self.eigs, self.scale = _spectrum(self.m)

    def translate(self, m_left: MonoidElement, c_mat=None):
        _refuse_group_part(m_left.group)
        top = self.level + m_left.level
        y = self.words.left_multiply(m_left.env, self.level)
        ky = self.words.pairings(top, y, top)
        pairs = ky[:y.shape[1]]
        return (pairs if c_mat is None else c_mat.conj().T @ pairs,
                np.real(np.sum(y.conj() * ky, axis=0)))

    def against(self, x: MonoidElement) -> np.ndarray:
        _refuse_group_part(x.group)
        col = self.words.coordinates(x.env)
        return self.words.pairings(self.level, col, x.level)[:, 0]


class _WordColumns:
    """The columns rho(w) v of words w, for a representation-backed psi.

    rho(w) is the product of the rho(x_i) over the letters of w, left to
    right, so the column of the word (i, w') is rho(x_i) times the column of
    w'.  Missing words are added together with their missing suffixes,
    shortest first, one matrix product per (length, first letter).  Built on
    first use and kept on the function, so a level computes only the columns
    of its new words.
    """

    def __init__(self, r: UnitaryRep, v: np.ndarray):
        self.rep = r
        self.index: dict[tuple, int] = {(): 0}
        self.store = np.array(v, dtype=complex)[:, None]

    def __len__(self) -> int:
        return len(self.index)

    def lookup(self, words) -> np.ndarray:
        """Store positions of the words' columns, computing the missing ones."""
        missing = set()
        for w in words:
            while w not in self.index and w not in missing:
                missing.add(w)
                w = w[1:]
        order = sorted(missing, key=lambda w: (len(w), w))
        for _, same_length in itertools.groupby(order, key=len):
            blocks = []
            for i, run in itertools.groupby(same_length, key=lambda w: w[0]):
                run = list(run)
                tails = [self.index[w[1:]] for w in run]
                blocks.append(self.rep.rho_matrix(i) @ self.store[:, tails])
                for w in run:
                    self.index[w] = len(self.index)
            self.store = np.hstack([self.store] + blocks)
        return np.array([self.index[w] for w in words], dtype=np.intp)


def _sample_columns(psi: PDFunction, samples: SampleSet) -> np.ndarray:
    """op(s) v for every sample s, as the columns of a d x n array.

    With B the block of word columns rho(w) v from ``_WordColumns``, the
    identity group sample gives B and every other group sample g gives
    pi(g) B.
    """
    if psi._columns is None:
        psi._columns = _WordColumns(psi.rep, psi.vector)
    at = psi._columns.lookup(samples.words)
    block = psi._columns.store[:, at]
    blocks = [block]
    for g in samples.groups[1:]:
        if g.pi is None:
            raise ValueError(
                f"group element {g.label!r} carries no action on the space")
        blocks.append(g.pi @ block)
    return np.hstack(blocks)


class _FactoredGram:
    """Operator route: the sample Gram in factored form.

    M = W^H W with W = R U, where U holds the sample columns op(s) v and R is
    the Cholesky factor of the space Gram, so W is d x n.  Every step over
    the samples costs O(n d^2) and forms no n x n matrix: U comes from
    ``_sample_columns``; ``eigs`` are sigma(W)^2 padded with exact zeros to
    length n, from a thin SVD of W; a sector's eigenpairs come from a thin
    SVD of its columns of W; blocks, products and translates read W and U;
    the reproducing row psi(s t) over all samples t is (G v)^H op(s) U.
    Only ``dense()`` forms M, for ``sample_gram``.  The monoid product
    (Carmeli, Cassinelli, Toigo and Varadarajan, CMP 263 (2006)) stays the
    independent side, on a fixed number of pairs drawn by ``_witness_gap``:
    eight entries of W^H W in ``route_gap`` and ``_WITNESS`` entries of each
    reproducing row.
    """

    psd_detail = "singular values of W, verified on sample set"

    def __init__(self, psi: PDFunction, samples: SampleSet):
        self.psi = psi
        self.samples = samples
        self.u = _sample_columns(psi, samples)
        self.gram = psi.rep.inner.gram_dense()
        self.eigs, self.scale = None, 1.0
        # the space Gram is finite and positive definite (GammaInnerSpace)
        self.w = np.linalg.cholesky(self.gram).conj().T @ self.u
        if np.isfinite(self.w).all():
            sv = np.linalg.svd(self.w, compute_uv=False)
            self.eigs = np.zeros(self.w.shape[1])
            self.eigs[self.eigs.size - sv.size:] = np.sort(sv) ** 2
            # ||M||_2 = sigma_max(W)^2, the last of the ascending eigenvalues
            self.scale = max(1.0, float(self.eigs[-1]))

    def dense(self) -> np.ndarray:
        return self.w.conj().T @ self.w

    def hermitian(self) -> tuple[float, str]:
        return 0.0, "by construction: M = W^H W"

    def route_gap(self) -> float:
        """Worst gap between psi(s_i* s_j) through the monoid product and W^H W.

        Four random samples s_i, each compared on its diagonal entry (i, i),
        the squared length of a translate, and on one entry (i, j) with s_j
        of the same degree (see ``_witness_gap``).  A non-finite entry makes
        the result non-finite.
        """
        n, w = len(self.samples), self.w
        rng = random.Random(0)
        firsts = [rng.randrange(n) for _ in range(min(4, n))]
        return _witness_gap(self.psi, self.samples, firsts, 2,
                            lambda i, same: w[:, i].conj() @ w[:, same],
                            star=True)

    def products(self, i: int) -> tuple[np.ndarray, float]:
        # psi(s_i t) = (G v)^H op(s_i) op(t) v for every t, in one row; the
        # witness compares ``_WITNESS`` of its entries with monoid products
        op = monoid_operator(self.psi.rep, self.samples.element(i))
        row = (self.psi.vector.conj() @ self.gram) @ op @ self.u
        return row, _witness_gap(self.psi, self.samples, [i], _WITNESS,
                                 lambda _, same: row[same])

    def block(self, rows, cols) -> np.ndarray:
        return self.w[:, rows].conj().T @ self.w[:, cols]

    def times(self, x: np.ndarray) -> np.ndarray:
        return self.w.conj().T @ (self.w @ x)

    def sector(self, idx):
        # W_a = Q S V^H gives M_a = V S^2 V^H
        _, sv, vh = np.linalg.svd(self.w[:, idx], full_matrices=False)
        lam = np.zeros(len(idx))
        lam[lam.size - sv.size:] = sv[::-1] ** 2
        return lam, vh[::-1].conj().T

    def translate(self, m_left: MonoidElement, c_mat=None):
        au = monoid_operator(self.psi.rep, m_left) @ self.u
        gau = self.gram @ au
        left = self.u if c_mat is None else self.u @ c_mat
        return (left.conj().T @ gau,
                np.real(np.sum(au.conj() * gau, axis=0)))

    def against(self, x: MonoidElement) -> np.ndarray:
        vec = monoid_operator(self.psi.rep, x) @ self.psi.vector
        return self.u.conj().T @ (self.gram @ vec)


def sample_gram(psi: PDFunction, samples: SampleSet) -> tuple[np.ndarray, float]:
    """Gram matrix M[i, j] = psi(s_i* s_j) over a sample set.

    Representation-backed functions evaluate through the operators, as
    M = W^H W from the factor W = R U (R the Cholesky factor of the space
    Gram, U the sample columns, built by prefix sharing over the words); a
    few same-degree and diagonal entries are then recomputed through the
    monoid product as an independent route, and the worst disagreement is
    returned alongside the matrix.  This is the one place that forms M on
    that route.  Tables read their values through left multiplication on
    normal words, and other functions pay for every entry through the
    monoid product; on both the returned disagreement is zero.  The samples
    must come from ``build_sample_set``; anything else raises TypeError.
    """
    gram = _gram_of(psi, samples)
    gap = gram.route_gap()
    return gram.dense(), 0.0 if gap is None else gap


def check_positive_definite(psi: PDFunction, samples: SampleSet,
                            tol: float = _GNS_TOL) -> Report:
    """Support condition and Gram positivity over a sample set.

    The support condition, the Hermitian symmetry of the Gram matrix, and the
    eigenvalue floor are all certified on the given samples only; the detail
    strings say so.  For representation-backed functions the Gram is kept
    as M = W^H W, so its Hermitian symmetry and positivity hold by
    construction, and no n x n matrix is formed: ``gram_norm`` and
    ``min_eigenvalue`` come from the singular values of W, at O(n d^2) in
    all.  What is checked numerically there is the agreement of W^H W with
    psi evaluated through the monoid product, on sampled same-degree and
    diagonal entries.  On every route the support condition reads psi on
    the samples of non-zero degree off row 0 of the Gram, since sample 0 is
    the identity of the monoid, and calls psi no further.  Non-finite
    sample data fail the Gram checks.  The samples must come from
    ``build_sample_set``; anything else raises TypeError.
    """
    return _positivity_report(_gram_of(psi, samples), tol)


def _positivity_report(gram, tol: float) -> Report:
    rep = Report("positive definiteness",
                 context={"samples": len(gram.samples), "tol": tol})

    # psi on the samples of non-zero degree: sample 0 is the identity of the
    # monoid, so row 0 of the Gram is psi(s_j)
    codes = gram.samples.codes
    idx = np.flatnonzero(codes != 0)
    rank = gram.psi.algebra.rank
    worst, at = worst_residual(
        zip(np.abs(gram.block([0], idx)[0]).tolist(), codes[idx].tolist()),
        lambda c: f"degree {_degree_of(rank, c)}")
    rep.add("support condition", worst <= tol, worst, tol,
            "verified on sample set" + (f"; worst at {at}" if at else ""))

    spot = gram.route_gap()
    if spot is not None:
        spot_tol = max(tol, 1e-8)
        rep.add("assembly route agreement", spot <= spot_tol, spot, spot_tol,
                "operator route against monoid-product route, sampled "
                "same-degree and diagonal entries")

    floor = tol * gram.scale
    if gram.eigs is None:
        for name in ("gram hermitian", "gram positive semidefinite"):
            rep.add(name, False, None, floor, "non-finite sample data")
        rep.context["min_eigenvalue"] = None
        rep.context["gram_norm"] = None
        return rep

    herm, detail = gram.hermitian()
    rep.add("gram hermitian", herm <= floor, herm, floor, detail)
    low = float(gram.eigs.min()) if gram.eigs.size else 0.0
    rep.add("gram positive semidefinite", low >= -floor,
            max(0.0, -low), floor, gram.psd_detail)
    rep.context["min_eigenvalue"] = low
    rep.context["gram_norm"] = gram.scale
    return rep


class GNSResult:
    """Outcome of a reconstruction, with the evidence kept alongside."""

    __slots__ = ("rep", "cyclic", "gram_spectrum", "level_used", "report",
                 "sample_count")

    def __init__(self, rep: UnitaryRep, cyclic: np.ndarray, gram_spectrum,
                 level_used: int, report: Report, sample_count: int):
        self.rep = rep
        self.cyclic = cyclic
        self.gram_spectrum = gram_spectrum
        self.level_used = level_used
        self.report = report
        self.sample_count = sample_count

    def __repr__(self) -> str:
        return (f"GNSResult(dim={self.rep.space_dim}, "
                f"level_used={self.level_used}, samples={self.sample_count})")


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """The columns times unit phases that make a leading entry real positive.

    The leading entry of a column is its first of at least half the largest
    modulus, a choice that rounding does not move unless two moduli sit at
    that threshold.  Eigenvectors from ``eigh`` and singular vectors from
    ``svd`` then agree wherever the eigenvalue is simple.
    """
    mod = np.abs(vecs)
    lead = np.argmax(mod >= 0.5 * mod.max(axis=0), axis=0)
    phase = vecs[lead, np.arange(vecs.shape[1])]
    return vecs * (np.abs(phase) / phase)


def _truncation_note(psi: PDFunction, level: int) -> str:
    """Why a table-backed Gram at this level can fail: it reads untabulated words."""
    if psi.table is None:
        return ""
    longest = max(map(len, psi.table), default=0)
    if longest >= 2 * level:
        return ""
    return (f"; the longest tabulated word has length {longest}, the level-{level} "
            f"Gram reads words up to length {2 * level}, and missing words "
            "count as zero")


def gns_construct(psi: PDFunction, group_samples=None,
                  level_cap: int = DEFAULT_LEVEL_CAP,
                  tol: float = _GNS_TOL) -> GNSResult:
    """Build the cyclic representation generated by a positive definite function.

    Sample sets grow level by level until the Gram rank stops moving; the
    quotient by the kernel is taken sector by sector, and left translation by
    each generator and group sample is expressed on the retained basis.  The
    reconstruction is validated before it is returned.

    Each level's sample Gram is built once and reused by the positivity
    certificate, and the degree codes of the samples come with the sample
    set.  For representation-backed functions it is kept as M = W^H W (see
    ``_FactoredGram``) and no n x n matrix is formed: every step over the n
    samples is O(n d^2).  The rank and norm are read from the singular
    values of W; the grading check reads W block by block, one pair of
    sectors at a time; each sector's basis comes from a thin SVD of its
    columns of W; the orthonormality check and the cyclic class read W; a
    translate's pairings are (U c)^H G (A U); the reproducing row psi(s t)
    of a pick s over all samples t is (G v)^H op(s) U.  Hermitian symmetry
    and positivity then hold by construction; the route agreement, grading,
    escape, orthonormality, representation and reproducing checks are
    numerical.  The monoid product is the independent side on a fixed
    number of pairs, whatever the sample count: eight Gram entries in each
    route agreement and ``_WITNESS`` entries of each reproducing row (see
    ``_witness_gap``).  The report's ``columns`` counts the word columns
    held.  For tables, every level reads the same left-multiplication
    operators, grown level by level, and the reproducing check pairs them
    against a monoid product for every sample; the report gives ``words``
    and ``operator_entries``.  Picks and draws use the standard library's
    ``random`` with fixed seeds, so a run repeats exactly.

    Raises StabilizationError when the rank is still growing at the cap, when
    a level needs more normal words than the budget allows, when
    a translate escapes the span the rank test certified, or when the
    assembled operators fail validation.  Positivity failures on the sample
    set raise PositivityError.  A function that vanishes on every sample has
    nothing to reconstruct and raises ValueError, as does a negative
    ``level_cap``.
    """
    if level_cap < 0:
        raise ValueError(f"level cap must be at least 0, got {level_cap}")
    l = psi.algebra
    if group_samples is None:
        group_samples = [] if psi.rep is None else default_group_samples(psi.rep)

    # grow until the retained rank repeats
    prev_rank = None
    history = {}
    chosen = None
    for level in range(level_cap + 1):
        ss = build_sample_set(l, group_samples, level)
        try:
            gram = _gram_of(psi, ss)
        except StabilizationError as e:   # the level is over the word budget
            raise StabilizationError(
                str(e) + _truncation_note(psi, level)) from None
        if gram.eigs is None:
            raise PositivityError(
                f"the sample Gram at level {level} is not finite")
        rank = int(np.sum(gram.eigs > tol * gram.scale))
        history[level] = gram
        if prev_rank is not None and rank == prev_rank:
            chosen = level - 1
            break
        prev_rank = rank
    if chosen is None:
        raise StabilizationError(
            f"gram rank still growing at level {level_cap} "
            f"(rank {prev_rank}); the function is not of finite type "
            "within the configured cap" + _truncation_note(psi, level_cap))

    gram = history[chosen]
    norm_scale = gram.scale
    samples = gram.samples
    n = len(samples)

    report = Report("gns reconstruction",
                    context={"level_used": chosen, "samples": n, "tol": tol})

    # certify positivity on the level that witnessed the rank repeat, not
    # just on the retained samples; it sees strictly more of the function
    pd = _positivity_report(history[chosen + 1], tol)
    report.extend(pd, prefix="pd: ")
    if not pd.passed:
        raise PositivityError(
            "the function fails positive definiteness on the sample set"
            + _truncation_note(psi, chosen + 1))

    # samples by degree code; codes sort as their degrees do (a plain set,
    # since np.unique imports numpy.ma on first use, 20 ms per process)
    codes = samples.codes
    sectors = {c: np.flatnonzero(codes == c)
               for c in sorted(set(codes.tolist()))}

    # classes of different degrees must be orthogonal already at gram level
    cross = max((float(np.max(np.abs(gram.block(ia, ib))))
                 for a, ia in sectors.items()
                 for b, ib in sectors.items() if a != b), default=0.0)
    report.add("gram respects the grading", cross <= tol * norm_scale,
               cross, tol * norm_scale, "verified on sample set")
    if cross > tol * norm_scale:
        raise PositivityError(
            "sample classes of distinct degrees fail to be orthogonal "
            f"(leakage {cross:.3e})")

    # sector-by-sector spectral quotient: the eigenvalues ascend, so the
    # retained ones are the last k, taken in descending order, each vector
    # with its phase fixed (see ``_fix_phases``) so that routes agree
    spectrum = {}
    space_dims: dict[Degree, int] = {}
    blocks = []
    for code, idx in sectors.items():
        d = _degree_of(l.rank, code)
        lam, vecs = gram.sector(idx)
        keep = lam > tol * norm_scale
        spectrum[str(d)] = {
            "retained": [float(x) for x in lam[keep]],
            "discarded": [float(x) for x in lam[~keep]],
        }
        k = int(np.sum(keep))
        if k == 0:
            continue
        space_dims[d] = k
        blocks.append((idx, _fix_phases(vecs[:, ::-1][:, :k])
                       / np.sqrt(lam[::-1][:k])))
    if not space_dims:
        raise ValueError(
            "the function vanishes on the sample set; nothing to reconstruct")

    space = GradedSpace(l.rank, space_dims)
    total = space.total_dim
    c_mat = np.zeros((n, total), dtype=complex)   # samples x dim
    col = 0
    for idx, b in blocks:
        c_mat[idx, col:col + b.shape[1]] = b
        col += b.shape[1]
    p_mat = c_mat.conj().T                    # coordinates = p_mat @ pairings

    ortho = float(np.linalg.norm(p_mat @ gram.times(c_mat) - np.eye(total), 2))
    report.add("quotient basis orthonormal", ortho <= 1e-8, ortho, 1e-8)

    # one escape budget for everything: discarded spectral mass bounds what an
    # honest translate can lose, so the threshold scales with the sample count
    escape_tol = n * max(tol, 1e-8) * norm_scale
    escapes = []   # the worst stray of each translate, as ``worst_entry`` picks it

    def translated_matrix(m_left: MonoidElement, what: str) -> np.ndarray:
        kappa, norms = gram.translate(m_left, c_mat)
        stray = norms - np.sum(np.abs(kappa) ** 2, axis=0)
        escapes.append(worst_entry(stray)[0])
        over = np.flatnonzero(stray > escape_tol)
        if over.size:
            raise StabilizationError(
                f"left translation by {what} leaves the certified span "
                f"(escape {stray[over[0]]:.3e} on sample {over[0]})")
        return kappa @ c_mat

    block_tol = max(tol * 100, 1e-8)

    def to_block(degree: Degree, dense: np.ndarray, what: str) -> HomogeneousMap:
        try:
            return HomogeneousMap.from_dense(space, space, degree, dense,
                                             rtol=block_tol)
        except ValueError as e:
            raise StabilizationError(
                f"{what} leaks across the grading: {e}") from None

    rho = []
    for i in range(l.dim):
        gen = MonoidElement.from_env(EnvElement(l, {(i,): 1.0}))
        dense = translated_matrix(gen, f"rho({l.labels[i]})")
        rho.append(to_block(l.degrees[i], dense, f"rho({l.labels[i]})"))

    new_gens = []
    for g in samples.groups[1:]:
        dense = translated_matrix(MonoidElement.from_group(l, g),
                                  f"pi({g.label})")
        new_gens.append(GroupElement(g.label, g.ad, dense))

    worst_escape, _ = worst_entry(np.array(escapes))
    report.add("translates stay in the span", worst_escape <= escape_tol,
               worst_escape, escape_tol)

    # cyclic class of the identity sample (sample 0), cleaned of
    # cross-sector dust
    e0 = np.zeros(n)
    e0[0] = 1.0
    v0 = p_mat @ gram.times(e0)
    v0_clean = np.where(space.basis_codes == 0, v0, 0.0)
    dust = float(np.linalg.norm(v0 - v0_clean))
    dust_tol = block_tol * max(1.0, float(np.linalg.norm(v0)))
    report.add("cyclic class homogeneous", dust <= dust_tol, dust, dust_tol)
    if dust > dust_tol:
        raise StabilizationError(
            f"the identity class is not of degree zero (stray mass {dust:.3e})")

    inner = GammaInnerSpace.standard(space)
    rep = UnitaryRep(HCPair(l, new_gens, validate=False), inner, rho)

    final = check_unitary_rep(rep, tol=block_tol)
    report.extend(final, prefix="rep: ")
    if not final.passed:
        raise StabilizationError(
            "the reconstructed operators fail the representation axioms; "
            "the sampled function is not consistent")

    # reproducing identity, on a handful of samples: pairing a basis class
    # against the kernel class at s must reproduce evaluation at s, whose
    # row psi(s t) over the samples t comes with its witness gap
    picks = {0, *random.Random(11).sample(range(n), min(4, n))}

    def reproducing_gaps(i: int):
        lhs = np.conj(p_mat @ gram.against(s_star(samples.element(i))))
        row, witness = gram.products(i)
        return float(np.max(np.abs(lhs - row @ c_mat))), witness

    worst_repr, _ = worst_residual((gap, None) for i in sorted(picks)
                                   for gap in reproducing_gaps(i))
    report.add("reproducing property", worst_repr <= 1e-8, worst_repr, 1e-8,
               "verified on sample set")

    cyc = check_cyclic(rep, v0_clean, tol=tol)
    report.add("identity class cyclic", cyc.passed,
               detail=str(cyc.context.get("rank")))
    if not cyc.passed:
        raise StabilizationError(
            "the identity class fails to be cyclic for the reconstruction")
    if not report.passed:
        raise StabilizationError("reconstruction consistency checks failed")

    # what each route's cost grows with
    if isinstance(gram, _TableGram):
        report.context["words"] = len(gram.words.words)
        report.context["operator_entries"] = gram.words.entries
    elif isinstance(gram, _FactoredGram):
        report.context["columns"] = len(psi._columns)
    return GNSResult(rep, v0_clean, spectrum, chosen, report, n)


def check_cyclic(r: UnitaryRep, v, tol: float = _GNS_TOL) -> Report:
    """Whether translates of the vector span the whole space.

    The span is the cyclic hull of v under every rho(x_k) and every default
    group sample but the identity (see ``_hull``); ``rank`` is its dimension
    and ``level`` the number of growth steps that added to it.
    """
    v = _vector_of(r, v)
    total = r.space_dim
    rep = Report("cyclicity", context={"dimension": total})
    basis, level = _hull(_actions(r, default_group_samples(r)[1:]), v, tol)
    rank = 0 if basis is None else basis.shape[1]
    rep.add("translates span the space", basis is not None and rank == total,
            detail=f"rank {rank} of {total} at level {level}"
            if basis is not None else f"non-finite translates at level {level}")
    rep.context["rank"] = rank
    rep.context["level"] = level
    return rep


def _actions(r: UnitaryRep, groups) -> np.ndarray:
    # every rho(x_k), then every pi(g), stacked
    return np.stack([r.rho_matrix(i) for i in range(r.algebra.dim)]
                    + [np.asarray(g.pi, dtype=complex) for g in groups])


def _hull(actions: np.ndarray, v: np.ndarray, tol: float):
    """Orthonormal basis of the smallest span that holds v and is closed
    under the stacked actions, and the number of steps that added to it.

    Block-Krylov growth (Saad, Iterative Methods for Sparse Linear Systems,
    2nd ed. (2003), ch. 6): each step applies every action to the directions
    the last one added, projects out the basis twice (CGS2) and keeps the
    singular directions above tol * max(1, longest candidate), until a step
    adds nothing or the space is full.  A non-finite candidate gives None.
    """
    n = v.size
    basis = np.zeros((n, 0), dtype=complex)
    block, step = v[:, None], 0
    while basis.shape[1] < n:
        if not np.isfinite(block).all():
            return None, step
        floor = tol * max(1.0, float(np.max(np.linalg.norm(block, axis=0))))
        for _ in range(2):
            block = block - basis @ (basis.conj().T @ block)
        u, sv, _ = np.linalg.svd(block, full_matrices=False)
        added = u[:, sv > floor]
        if not added.shape[1]:
            break
        basis = np.hstack([basis, added])
        block = np.moveaxis(actions @ added, 0, 1).reshape(n, -1)
        step += 1
    return basis, max(step - 1, 0)


def _paired_group_samples(r1: UnitaryRep, r2: UnitaryRep):
    """Group samples described abstractly, bound in both representations.

    Each side offers its bound extra generators and the exp samples of its
    zero sector, paired by label; a bound generator stands for an exp sample
    of the same label.  A label that only one side offers has nothing to be
    compared with, so EquivalenceError names it.
    """
    def offered(r):
        out = {g.label: g for g in r.pair.extra_generators if g.pi is not None}
        for _, g in _zero_sector_exps(r):
            out.setdefault(g.label, g)
        return out

    first, second = offered(r1), offered(r2)
    lonely = ([f"{lab!r} (first)" for lab in first if lab not in second]
              + [f"{lab!r} (second)" for lab in second if lab not in first])
    if lonely:
        raise EquivalenceError(
            "group samples bound in one representation only: "
            + ", ".join(lonely))
    l = r1.algebra
    return ([(GroupElement.identity(l.dim, r1.space_dim),
              GroupElement.identity(l.dim, r2.space_dim))]
            + [(g, second[lab]) for lab, g in first.items()])


def unitary_equivalence(r1: UnitaryRep, v1, r2: UnitaryRep, v2,
                        tol: float = 1e-8) -> np.ndarray:
    """Unitary intertwiner matching translates of v1 to translates of v2.

    The row blocks U1, U2 of the cyclic hull of (v1, v2) in rho1 + rho2, with
    group samples paired by label acting block-diagonally (see ``_hull`` and
    ``_paired_group_samples``), are paired translates.  Both need full row
    rank (cyclic vectors), and the matrix coefficients must agree on them;
    otherwise no such map exists and EquivalenceError says why, as it does
    for a group sample that only one representation binds.  Columns of the
    result index the first space.
    """
    if r1.algebra is not r2.algebra:
        raise EquivalenceError("representations live over different algebras")
    l = r1.algebra
    v1, v2 = _vector_of(r1, v1), _vector_of(r2, v2)

    pairs = _paired_group_samples(r1, r2)
    a1 = _actions(r1, [a for a, _ in pairs[1:]])
    a2 = _actions(r2, [b for _, b in pairs[1:]])
    d1, d2 = r1.space_dim, r2.space_dim
    actions = np.zeros((len(a1), d1 + d2, d1 + d2), dtype=complex)
    actions[:, :d1, :d1], actions[:, d1:, d1:] = a1, a2
    basis, _ = _hull(actions, np.concatenate([v1, v2]), tol)
    if basis is None:
        raise EquivalenceError("a translate of the vectors is not finite")
    u1, u2 = basis[:d1], basis[d1:]     # singular values at most 1
    if np.linalg.matrix_rank(u1, tol) < d1:
        raise EquivalenceError("the first vector is not cyclic")
    if np.linalg.matrix_rank(u2, tol) < d2:
        raise EquivalenceError("the second vector is not cyclic")

    g1d, g2d = r1.inner.gram_dense(), r2.inner.gram_dense()
    gram1 = u1.conj().T @ g1d @ u1
    gram2 = u2.conj().T @ g2d @ u2
    gap = float(np.linalg.norm(gram1 - gram2, 2))
    scale = max(1.0, float(np.linalg.norm(gram1, 2)))
    if gap > tol * scale:
        raise EquivalenceError(
            f"matrix coefficients disagree on the translates (gap {gap:.3e}); "
            "the representations are not equivalent through these vectors")

    t_mat = u2 @ np.linalg.pinv(u1, rcond=1e-12)

    def demand(name: str, resid: float, bound: float) -> None:
        if resid > bound:
            raise EquivalenceError(
                f"candidate intertwiner fails {name} (residual {resid:.3e})")

    demand("well-definedness",
           float(np.linalg.norm(t_mat @ u1 - u2, 2)),
           tol * max(1.0, float(np.linalg.norm(u2, 2))))
    demand("isometry",
           float(np.linalg.norm(t_mat.conj().T @ g2d @ t_mat - g1d, 2)),
           tol * max(1.0, float(np.linalg.norm(g1d, 2))))

    on = _degree_pattern(r2.inner.space.basis_codes, Degree.zero(l.rank),
                         r1.inner.space.basis_codes)
    demand("grading", float(np.linalg.norm(np.where(on, 0.0, t_mat))),
           tol * max(1.0, float(np.linalg.norm(t_mat))))

    names = ([f"rho({x})" for x in l.labels]
             + [f"pi({a.label})" for a, _ in pairs[1:]])
    for name, x1, x2 in zip(names, a1, a2):
        demand(f"intertwining {name}",
               float(np.linalg.norm(t_mat @ x1 - x2 @ t_mat, 2)),
               tol * max(1.0, float(np.linalg.norm(x2, 2))))
    demand("the cyclic matching", float(np.linalg.norm(t_mat @ v1 - v2)),
           tol * max(1.0, float(np.linalg.norm(v2))))
    return t_mat


def gns_roundtrip(r: UnitaryRep, v0, level_cap: int = DEFAULT_LEVEL_CAP,
                  tol: float = _GNS_TOL) -> Report:
    """Full circle: coefficient function, reconstruction, equivalence.

    Starting from a representation with a cyclic degree-zero vector, takes
    the diagonal coefficient function, rebuilds a representation from it, and
    certifies the rebuilt one is unitarily equivalent to the original.
    """
    rep = Report("gns roundtrip", context={"dimension": r.space_dim})
    base = check_unitary_rep(r)
    rep.add("original representation valid", base.passed, base.max_residual())
    v0 = np.asarray(v0, dtype=complex)
    d = r.inner.space.homogeneous_degree(v0, rtol=1e-9)
    rep.add("vector homogeneous of degree zero",
            d is not None and d.is_zero, detail=f"degree {d}")
    cyc = check_cyclic(r, v0, max(tol, 1e-9))
    rep.add("vector cyclic", cyc.passed,
            detail=f"rank {cyc.context.get('rank')} of {r.space_dim}")
    if not rep.passed:
        return rep

    psi = PDFunction.from_rep(r, v0)
    pd_samples = build_sample_set(r.algebra, default_group_samples(r),
                                  min(1, level_cap))
    pd = check_positive_definite(psi, pd_samples, tol=max(tol, 1e-9))
    rep.extend(pd, prefix="pd: ")
    if not pd.passed:
        return rep

    try:
        result = gns_construct(psi, level_cap=level_cap, tol=tol)
    except (PositivityError, StabilizationError, ValueError) as e:
        rep.add("reconstruction", False, detail=str(e))
        return rep
    rep.add("reconstruction", True,
            detail=f"dimension {result.rep.space_dim}, "
                   f"level {result.level_used}")
    rep.add("dimension matches", result.rep.space_dim == r.space_dim,
            detail=f"{result.rep.space_dim} vs {r.space_dim}")
    rep.context["level_used"] = result.level_used
    rep.context["gram_spectrum"] = result.gram_spectrum

    eq_tol = max(tol, 1e-6)
    try:
        t_mat = unitary_equivalence(r, v0, result.rep, result.cyclic,
                                    tol=eq_tol)
    except EquivalenceError as e:
        rep.add("unitary equivalence", False, detail=str(e))
        return rep
    worst, _ = worst_residual(
        (float(np.linalg.norm(t_mat @ r.rho_matrix(i)
                              - result.rep.rho_matrix(i) @ t_mat, 2)), None)
        for i in range(r.algebra.dim))
    rep.add("unitary equivalence", True, worst, eq_tol,
            "intertwiner recovered")
    return rep
