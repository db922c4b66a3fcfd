"""Reconstruction of cyclic representations from positive definite functions.

A function on the transformation monoid that is positive definite, supported
in degree zero, and of finite type determines a graded Hilbert space, a
distinguished cyclic vector, and unitary operators realizing the monoid by
left translation.  This module builds that data from finitely many samples,
certifies what it verified, and compares independent reconstructions.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from .colorlie import ColorLieAlgebra, _join
from .enveloping import (DEFAULT_LEVEL_CAP, EnvElement, MonoidElement,
                         letter_star_phase, s_mul, s_star)
from .errors import EquivalenceError, PositivityError, StabilizationError
from .grading import Degree
from .hcpair import GroupElement, HCPair
from .report import Report, worst_entry, worst_residual
from .reps import UnitaryRep, _act, _zero_sector_exps, check_unitary_rep
from .spaces import GammaInnerSpace, GradedSpace, HomogeneousMap, _degree_pattern

_GNS_TOL = 1e-9
# the most normal words one level may index: a sample set lists those up to
# its level, the table route those up to twice its level; at dim 16 with 8
# odd letters there are 40,081 up to length 6 and 265,729 up to length 8
_WORD_BUDGET = 100_000
# monoid products that witness each reproducing pick on the operator route
_WITNESS = 4
# the words per batch of the k > a step of ``_WordOperators._build_columns``:
# one batch of every word of a length sets the peak of a table task
_COLUMN_BLOCK = 64


class PDFunction:
    """Scalar function on the monoid, linear over the enveloping part.

    Instances remember where they came from, and the sample Gram is built
    the fastest way that provenance allows (see ``_gram_of``).  The two
    fast routes are one GNS construction in two coordinate systems, over
    one index of the normal words (``_WordIndex``).  Diagonal coefficients
    of a representation keep the representation and vector; a call reads
    the kept images rho(w) v (``_images``, see ``from_rep``), and their
    sample columns are kept across levels (``_sample_columns``).
    Table-backed functions know their values on normal words with trivial
    group part; they keep the table and the left multiplications L_k on
    normal words with the word Gram K (``_WordOperators``), built on first
    use and grown with the level under a word budget.  Any other evaluator
    is called once per Gram entry.
    """

    __slots__ = ("algebra", "provenance", "rep", "vector", "table", "_eval",
                 "_words", "_columns", "_images", "_dual", "_factor")

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
        self._images = None
        self._dual = self._factor = None

    def __call__(self, s: MonoidElement) -> complex:
        if s.env.algebra is not self.algebra:
            raise ValueError("monoid element belongs to a different algebra")
        return complex(self._eval(s))

    @classmethod
    def from_rep(cls, r: UnitaryRep, v) -> "PDFunction":
        """Diagonal matrix coefficient psi(g, D) = (pi(g) rho(D) v, v).

        A value costs one matrix-vector product per word it has not seen.
        The dual vector G v, G the space Gram, is computed once (``_dual``).
        The images rho(w) v are kept per word in ``_images``, each built from
        the image of its suffix by one product with rho(x_k), at most
        ``_WORD_BUDGET`` of them; past that they are computed and not kept.
        The value is vdot(G v, pi(g) sum_w c_w rho(w) v) (see ``reps._act``),
        so no operator is formed.  A group part that is not the identity and
        carries no matrix is refused, as by ``monoid_operator``.
        """
        v = _vector_of(r, v)
        out = cls(r.algebra, lambda s: np.vdot(out._dual, out._image(s)),
                  provenance="diagonal coefficient")
        out.rep = r
        out.vector = v
        out._dual = r.inner.gram_dense() @ v
        out._images = {(): v}
        return out

    def _image(self, s: MonoidElement) -> np.ndarray:
        # pi(g) rho(D) v through the kept word images
        return _act(self.rep, s.env, self.vector, s.group, self._images,
                    _WORD_BUDGET)

    @classmethod
    def from_table(cls, l: ColorLieAlgebra, table) -> "PDFunction":
        """Function given by values on normal words.

        Table keys are index tuples in rewriting-stable form, each checked in
        one pass over its letters (see ``_key_fault``); a letter that is not
        an int or a numpy integer is refused, never rounded.  Only elements
        whose group part is the identity by construction can be evaluated
        (see ``GroupElement.is_identity``); a group element whose matrix
        merely equals the identity is refused.  Missing words count as zero.
        """
        odd = _odd_letters(l)
        clean: dict[tuple, complex] = {}
        for word, val in table.items():
            word = tuple(int(k) if isinstance(k, np.integer) else k
                         for k in word)
            fault = _key_fault(word, l.dim, odd)
            if fault == "range":
                raise ValueError(f"table key {word} has a letter outside the algebra")
            if fault == "order":
                raise ValueError(f"table key {word} is not a normal word")
            clean[word] = complex(val)
        return cls._tabulated(l, clean)

    @classmethod
    def _tabulated(cls, l: ColorLieAlgebra, clean: dict) -> "PDFunction":
        # the function of a table whose keys are checked already, its values
        # complex
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


def _odd_letters(l: ColorLieAlgebra) -> list[bool]:
    """Per letter, whether beta(k, k) = -1, so that k may not repeat."""
    return (np.diag(l.beta_table) == -1).tolist()


def _key_fault(word, dim: int, odd: list[bool]) -> str | None:
    """What keeps a word from being a table key, in one pass: "range" for a
    letter that is not an int in [0, dim) (a bool is not an int here),
    else "order" for a pair out of normal order, else None."""
    normal, prev = True, -1
    for k in word:
        if type(k) is not int or not 0 <= k < dim:
            return "range"
        if k < prev or (k == prev and odd[k]):
            normal = False
        prev = k
    return None if normal else "order"


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
    word, so sample 0 is the identity of the monoid.  ``index`` is the
    ``_WordIndex`` of the words; ``codes`` holds the degree code
    (``Degree.code``) of each sample, and since the group part has degree
    zero, these are the word codes, tiled.  The samples are not stored as
    monoid elements: ``element(k)`` builds one on demand, for the routes
    that take monoid products.  Made by ``build_sample_set``.
    """

    __slots__ = ("algebra", "groups", "index", "words", "level", "codes")

    def __init__(self, l: ColorLieAlgebra, groups, index: _WordIndex,
                 level: int):
        self.algebra = l
        self.groups = groups
        self.index = index
        self.words = index.words
        self.level = level
        self.codes = np.tile(index.codes, len(groups))

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


def _degree_of(rank: int, code: int) -> Degree:
    return Degree((code >> (rank - 1 - j)) & 1 for j in range(rank))


class _WordIndex(NamedTuple):
    """The normal words up to a length, shortest first and lexicographic
    within a length.  ``counts[m]`` words have length at most m; for the
    word (a, u'), ``first`` is a and ``tail`` the index of u' (dim g and -1
    for the empty word); ``codes`` are the degree codes (``Degree.code``)."""

    words: list
    counts: np.ndarray
    first: np.ndarray
    tail: np.ndarray
    codes: np.ndarray

    def runs(self, m: int) -> list[tuple[int, int, int]]:
        """(k, a, b) for each letter k that starts words of length m >= 1:
        those are the words a..b-1."""
        lo, hi = int(self.counts[m - 1]), int(self.counts[m])
        cut = (lo + 1 + np.flatnonzero(np.diff(self.first[lo:hi]))).tolist()
        ends = [lo, *cut, hi]
        return [(int(self.first[a]), a, b)
                for a, b in zip(ends, ends[1:]) if a < b]


def _index_words(l: ColorLieAlgebra, length: int) -> _WordIndex:
    # the words of length m + 1 are the (k,) + u with u of length m starting
    # above k, or at k when beta(k, k) = +1 (squares of the other letters
    # rewrite away); those u are the last words of length m
    d = l.dim
    odd = np.diag(l.beta_table) == -1
    letters = np.arange(d)
    words: list[tuple] = [()]
    counts = [1]
    first = [np.array([d])]
    tail = [np.array([-1])]
    codes = [np.zeros(1, dtype=np.int64)]
    for m in range(length):
        lo, hi = (counts[-2] if m else 0), counts[-1]
        start = lo + np.where(odd, np.searchsorted(first[-1], letters, "right"),
                              np.searchsorted(first[-1], letters, "left"))
        f = np.repeat(letters, hi - start)
        t = hi - np.searchsorted(f, f, "right") + np.arange(f.size)
        words.extend([(k,) + words[u] for k, u in zip(f.tolist(), t.tolist())])
        counts.append(hi + f.size)
        first.append(f)
        tail.append(t)
        codes.append(l.deg_codes[f] ^ codes[-1][t - lo])
    return _WordIndex(words, np.array(counts), np.concatenate(first),
                      np.concatenate(tail), np.concatenate(codes))


def _word_index(l: ColorLieAlgebra, level: int, length: int) -> _WordIndex:
    """The ``_WordIndex`` up to the length that a level reads; more than
    ``_WORD_BUDGET`` words raise StabilizationError before any is listed."""
    words = normal_word_count(l, length)
    if words > _WORD_BUDGET:
        raise StabilizationError(
            f"level {level} needs the {words} normal words up to length "
            f"{length}, over the budget of {_WORD_BUDGET} words")
    return _index_words(l, length)


def normal_words(l: ColorLieAlgebra, max_level: int) -> list[tuple]:
    """All rewriting-stable index words up to the length bound, shortest first."""
    return _index_words(l, max_level).words


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
    index = _word_index(l, level, level)
    groups = [g for g in group_samples if not g.is_identity()]
    # bind the identity whenever the others are bound, so that star and
    # product stay inside the bound part of the monoid
    pi_dim = next((g.pi.shape[0] for g in groups if g.pi is not None), None)
    groups.insert(0, GroupElement.identity(l.dim, pi_dim))
    return SampleSet(l, groups, index, level)


def _product(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    # a b, with the rewriting cap sized to the words actually present
    return s_mul(a, b, level_cap=max(1, a.level + b.level))


def _witness_gap(psi: PDFunction, samples: SampleSet, firsts, k: int,
                 route, star: bool = False) -> float:
    """Worst gap between psi(s t) through the monoid product and route(i, same),
    each relative to max(1, |route value|).

    For each sample index i of ``firsts``, s is sample i (its star when
    ``star``), and t = s_j runs over sample i itself and the k - 1 other
    samples of its degree code where the route's value, route(i, same) for
    the sample indices ``same``, is largest in modulus, the first of equals
    first.  Pairs of different degree codes pair to zero on every route, and
    so do most pairs of one code; a wrong product shows in the entries that
    carry weight.  Those grow geometrically with the word length, and so
    does their rounding, which an absolute gap would take for a fault.  A
    non-finite compared entry makes the result non-finite.
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
            gaps.append(abs(psi(_product(s, t)) - value[at])
                        / max(1.0, abs(value[at])))
    return float(np.max(gaps))


def _gram_of(psi: PDFunction, samples: SampleSet):
    """The Gram M[i, j] = psi(s_i* s_j) of the samples, built once.

    The only place that picks a route, from provenance alone:
    representation-backed psi takes the operator route (``_FactoredGram``),
    table-backed psi the table route (``_TableGram``), and every other psi
    the monoid-product route (``_DenseGram``).  The two fast routes share
    their pairings and one evidence model (``_PairedGram``): the monoid
    product checks a fixed number of entries of each reproducing row,
    whatever the sample count.  The samples must come from
    ``build_sample_set``; anything else raises TypeError.  Each route gives
    ``samples``; ``finite``, whether its data are finite; ``sizes(idx)`` and
    ``residuals(sector, kept, cands)``, its own quantities for the rank rule
    that picks the pivot basis (``_Pivots``): lengths of the columns of W
    and of their CGS2 residuals on the operator route, the diagonals of M
    and of its Schur complement on the other two; ``eigenvalues()``, those
    of M (of its Hermitian part off the operator route) ascending, which
    only the positivity certificate computes (``_positivity_report``), and
    no route keeps; ``dense()``, M; ``hermitian()``, residual and detail of
    the Hermitian check; ``route_gap()``, the sampled
    gap between the operator and monoid-product routes (None on the other
    two); ``products(i)``, psi(s_i t) for every sample t and the gap of its
    witness (0 where every entry is a monoid product); ``block(rows,
    cols)``, whose row 0 is psi at the samples; ``translate(m_left, c)``,
    c^H P with the pairings P[t, s] = psi(t* m_left s) (P when c is None),
    and the squared lengths of the translates; ``against(x)``, psi(t* x)
    for every sample t; and ``psd_detail``.
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


class _Sector:
    """One degree sector of the nested rank rule (see ``_Pivots``): ``kept``,
    its kept samples as (group sample, word) pairs; ``t`` = R^-1 for
    M[P, P] = R^H R on them; ``lost``, (word, ratio) for each sample not
    kept.  A route's ``residuals`` leaves here the coefficients h =
    R^-H M[P, j] and the residual lengths of its candidates, and in factor
    form their residual columns and ``q``, an orthonormal basis of the kept
    columns of W."""

    def __init__(self):
        self.kept, self.lost, self.q, self.x = [], [], None, None
        self.t = np.zeros((0, 0), dtype=complex)

    def rows(self, nw: int) -> list[int]:
        # the kept samples, as indices at a level of nw words
        return [g * nw + w for g, w in self.kept]

    def keep(self, j: int, sample: tuple) -> None:
        # the factor grows to [[R, h], [0, sigma]], whose inverse this is
        h, sigma = self.h[:, j:j + 1], self.sigma[j]
        self.t = np.block([[self.t, -(self.t @ h) / sigma],
                           [np.zeros((1, len(self.t))), 1 / sigma]])
        if self.x is not None:
            self.q = np.hstack([self.q, self.x[:, j:j + 1] / sigma])
        self.kept.append(sample)


class _HeldGram:
    """A sample Gram held as its matrix ``m``: table and monoid products."""

    psd_detail = "verified on sample set"

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.m).all())

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh((self.m + self.m.conj().T) / 2.0)

    def sizes(self, idx) -> np.ndarray:
        return self.m[idx, idx].real

    def residuals(self, sector: _Sector, kept, cands) -> np.ndarray:
        # a pivoted Cholesky in the rule's order: the Schur-complement
        # diagonals M[j, j] - |R^-H M[P, j]|^2 (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed. (2002), ch. 10)
        sector.h = sector.t.conj().T @ self.block(kept, cands)
        res = self.sizes(cands) - np.sum(np.abs(sector.h) ** 2, axis=0)
        sector.sigma = np.sqrt(np.abs(res))     # read where res > 0 only
        return res

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


class _DenseGram(_HeldGram):
    """Monoid-product route: each entry is one monoid product and one psi call."""

    def __init__(self, psi: PDFunction, samples: SampleSet):
        self.psi = psi
        self.samples = samples
        self.elements = list(samples)
        self.stars = [s_star(t) for t in self.elements]
        self.m = np.column_stack([self.against(b) for b in self.elements])

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
            norms[k] = float(np.real(self.psi(_product(s_star(ms), ms))))
        return pairs if c_mat is None else c_mat.conj().T @ pairs, norms

    def against(self, x: MonoidElement) -> np.ndarray:
        return np.array([self.psi(_product(t_star, x)) for t_star in self.stars],
                        dtype=complex)


class _PairedGram:
    """The pairings of the two fast routes, which are one GNS construction.

    The GNS space is the monoid algebra modulo the kernel of <a, b> =
    psi(b* a).  The operator route works in its image D -> op(D) v, the table
    route in word coordinates, where v is the empty word.  Each supplies
    ``u``, the sample columns, whose column 0 is v (sample 0 is the identity
    of the monoid); ``_act(m, x)``, m applied to a vector or block x;
    ``_paired(y)``, G y for the Gram G that columns pair in; and ``dual``,
    G v, so that psi(D) = dual^H (D v).  A table column on fewer words is a
    longer one with zeros appended, so each product reads the leading rows
    it needs.  Translates pair as (U c)^H G (m U), with squared lengths the
    diagonal of (m U)^H G (m U); psi(t* x) is U^H G (x v); the reproducing
    row psi(s_i t) is dual^H (s_i U), and ``_WITNESS`` of its entries are
    compared with monoid products (see ``_witness_gap``).
    """

    def translate(self, m_left: MonoidElement, c_mat=None):
        au = self._act(m_left, self.u)
        gau = self._paired(au)
        left = self.u if c_mat is None else self.u @ c_mat
        return (left.conj().T @ gau[:len(left)],
                np.real(np.sum(au.conj() * gau[:len(au)], axis=0)))

    def against(self, x: MonoidElement) -> np.ndarray:
        xv = self._paired(self._act(x, self.u[:, 0]))
        return self.u.conj().T @ xv[:len(self.u)]

    def products(self, i: int) -> tuple[np.ndarray, float]:
        s = self.samples.element(i)
        su = self._act(s, self.u)
        row = self.dual[:len(su)].conj() @ su
        return row, _witness_gap(self.psi, self.samples, [i], _WITNESS,
                                 lambda _, same: row[same])


def _sum_into(at: np.ndarray, val: np.ndarray, size: int) -> np.ndarray:
    # the complex values summed by index into an array of the size
    return (np.bincount(at, val.real, size)
            + 1j * np.bincount(at, val.imag, size))


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
    first two cases, which are stored first: the store takes one append for
    the first two cases of a word length and one for its last case.  Growth
    computes only the new columns.  Normal forms are unique when the algebra
    satisfies its axioms (Bergman, Adv. Math. 29 (1978)), so the columns are
    the normal forms that ``enveloping._nf`` rewrites to, the reference of
    the tests and, through the monoid product, of the reproducing witness.

    For a normal word w = (a_1, ..., a_r), psi(w* u) = phase(w) t(x_{a_r} ...
    x_{a_1} u) with the star phase phase(w), so its row is rho_w = t^T L_{a_r}
    ... L_{a_1} = rho_{(a_2, ..., a_r)} L_{a_1}: the suffix is a shorter
    normal word, and the rows of the words of one length and first letter
    are the rows of their suffixes times one L_k.  At ``top`` the words (the
    ``_WordIndex`` fields ``words``, ``counts``, ``first`` and ``tail``) run
    up to length 2 top, the operators act on words up to length 2 top - 1,
    and the row of a word of length r is exact on words up to length
    2 top - r.  Only the phased square word Gram K[u, v] = psi(u* v) of the
    words up to length ``top`` is kept, with ``dual``, the conjugated table
    on every word of the index, so that psi(x) = dual^H x.  A ``top`` whose
    words number more than ``_WORD_BUDGET`` is refused before anything is
    allocated.  Built on first use, grown with the level and kept.
    """

    def __init__(self, psi: PDFunction):
        l = psi.algebra
        self.algebra = l
        self.table = psi.table
        self.top = -1
        self.built = 0           # words whose columns the store holds
        # column u d + k: entries start[u d + k] onwards, count[u d + k] many
        self.start = np.zeros(0, dtype=np.int64)
        self.count = np.zeros(0, dtype=np.int64)
        self.dst = np.zeros(0, dtype=np.int64)
        self.val = np.zeros(0, dtype=complex)
        self.odd = np.diag(l.beta_table) == -1
        self.letter_phase = np.array([letter_star_phase(l, k)
                                      for k in range(l.dim)])

    @property
    def entries(self) -> int:
        """Stored nonzeros over all the L_k."""
        return self.dst.size

    def grow(self, top: int) -> None:
        if top <= self.top:
            return
        index = _word_index(self.algebra, top, 2 * top)
        self.words, self.counts, self.first, self.tail, _ = index
        self._build_columns(top)
        self.top = top

        # rows: those of the words of length m - 1, on the words they are
        # exact on; K[lo:hi] holds the rows of the words of length m
        n = int(self.counts[top])
        rows = np.array([[self.table.get(w, 0.0) for w in self.words]],
                        dtype=complex)
        self.dual = rows[0].conj()
        k_mat = np.empty((n, n), dtype=complex)
        k_mat[0] = rows[0, :n]
        phase = np.ones(n, dtype=complex)
        for m in range(1, top + 1):
            lo, hi = int(self.counts[m - 1]), int(self.counts[m])
            out, base = int(self.counts[2 * top - m]), lo - len(rows)
            grown = np.empty((hi - lo, out), dtype=complex)
            for k, a, b in index.runs(m):
                grown[a - lo:b - lo] = self._times(k, rows[self.tail[a:b] - base], out)
            phase[lo:hi] = self.letter_phase[self.first[lo:hi]] * phase[self.tail[lo:hi]]
            rows, k_mat[lo:hi] = grown, grown[:, :n]
        self.k = phase[:, None] * k_mat

    def _build_columns(self, top: int) -> None:
        # the columns of the words of length up to 2 top - 1 not yet built
        d = self.algebra.dim
        end = int(self.counts[2 * top - 1]) if top else 0
        first = self.first
        bounds = np.concatenate([[0], self.counts])
        # pre[k, u]: the index of the normal word (k,) + u, or -1; the words
        # of length 1 to 2 top have suffixes up to length 2 top - 1
        pre = np.full((d, end), -1, dtype=np.int64)
        p = np.arange(1, len(self.words))
        pre[first[p], self.tail[p]] = p
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
            self._append([self._summed(parts)])
            if not m:
                continue
            # k > a: beta(k, a) L_a L_k e_u' + sum_j c^j_ka L_j e_u', which
            # reads only the columns built above, so a block of words at a
            # time; the blocks' columns are appended together
            blocks = []
            for b in range(lo, hi, _COLUMN_BLOCK):
                e = min(b + _COLUMN_BLOCK, hi)
                ks, us = np.nonzero(np.arange(d)[:, None] > first[b:e])
                us += b
                a, t, keys = first[us], self.tail[us], us * d + ks
                p, j, c = self._brackets(ks * d + a)
                w, dst, val = self._columns(t[p] * d + j, c)
                parts = [(keys[p[w]], dst, val)]
                w, v, cv = self._columns(t * d + ks, beta[ks, a])
                w2, dst, val = self._columns(v * d + a[w], cv)
                parts.append((keys[w[w2]], dst, val))
                blocks.append(self._summed(parts))
            self._append(blocks)
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

    def _summed(self, parts):
        # the (key, row, value) triples of one batch summed into columns, in
        # order of key and then row, zero sums dropped: (keys, counts, rows,
        # values); a stable sort keeps each sum in input order
        keys, dst, val = (np.concatenate(x) for x in zip(*parts))
        n = len(self.words)
        code = keys * n + dst
        order = np.argsort(code, kind="stable")
        code = code[order]
        heads = np.flatnonzero(np.diff(code, prepend=-1))
        val = np.add.reduceat(val[order].astype(complex), heads)
        keep = val != 0
        code = code[heads][keep]
        keys = code // n
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        return keys[heads], np.diff(heads, append=keys.size), code % n, val[keep]

    def _append(self, batches) -> None:
        # store summed batches, whose keys are disjoint, in one append
        at = self.dst.size
        for keys, count, dst, _ in batches:
            self.start[keys] = at + np.cumsum(count) - count
            self.count[keys] = count
            at += dst.size
        self.dst = np.concatenate([self.dst, *(b[2] for b in batches)])
        self.val = np.concatenate([self.val, *(b[3] for b in batches)])

    def _operator(self, k: int, cols: int):
        # L_k on the first ``cols`` words, as (column, row, value) arrays
        return self._columns(np.arange(cols) * self.algebra.dim + k)

    def _times(self, k: int, rows: np.ndarray, out: int) -> np.ndarray:
        # rows L_k on the first ``out`` words
        src, dst, val = self._operator(k, out)
        wts = (rows[:, dst] * val).ravel()
        at = (np.arange(len(rows))[:, None] * out + src).ravel()
        return _sum_into(at, wts, len(rows) * out).reshape(len(rows), out)

    def length(self, rows: int) -> int:
        # the shortest word length m with counts[m] >= rows
        return int(np.searchsorted(self.counts, rows))

    def act(self, env: EnvElement, x: np.ndarray) -> np.ndarray:
        """env times a word column or a block of them, on the words up to
        length m + env.level when x is zero past the words up to length m.

        Each word of env applies its letters right to left to the nonzero
        entries of x, an entry at word u taking the stored column of L_k at
        u, so no operator matrix is formed.  The operators grow only as far
        as those columns reach.
        """
        block = x.reshape(len(x), -1)
        rows, cols = np.nonzero(block)
        top = self.length(rows.max(initial=0) + 1) + env.level
        self.grow((top + 1) // 2)
        d, width = self.algebra.dim, block.shape[1]
        at, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
        for word, c in env.terms.items():
            u, col, cv = rows, cols, c * block[rows, cols]
            for k in reversed(word):
                which, u, cv = self._columns(u * d + k, cv)
                col = col[which]
            at.append(u * width + col)
            val.append(cv)
        n = int(self.counts[top])
        out = _sum_into(np.concatenate(at), np.concatenate(val), n * width)
        return out.reshape((n,) + x.shape[1:])


class _TableGram(_HeldGram, _PairedGram):
    """Table route: the GNS space in word coordinates.

    The samples are the first n words of the ``_WordIndex`` of
    ``_WordOperators``, so M is the leading n x n block of its word Gram K,
    both triangles computed, so the Hermitian check stays a real one.  For
    ``_PairedGram`` the sample columns are the unit vectors of those words,
    a monoid element acts through the stored columns of the L_k, the
    columns pair in K, reading only the rows they reach, and the dual vector
    is the conjugated table.  Any group part but the identity is refused.
    """

    def __init__(self, psi: PDFunction, samples: SampleSet):
        for g in samples.groups:
            _refuse_group_part(g)
        self.psi = psi
        self.samples = samples
        if psi._words is None:
            psi._words = _WordOperators(psi)
        self.words = psi._words
        self.words.grow(samples.level)
        self.m = self.words.k[:len(samples), :len(samples)]

    @functools.cached_property
    def u(self) -> np.ndarray:
        return np.eye(len(self.samples), dtype=complex)

    @property
    def dual(self) -> np.ndarray:
        return self.words.dual

    def _act(self, m: MonoidElement, x: np.ndarray) -> np.ndarray:
        _refuse_group_part(m.group)
        return self.words.act(m.env, x)

    def _paired(self, y: np.ndarray) -> np.ndarray:
        self.words.grow(self.words.length(len(y)))
        reach = np.flatnonzero(np.any(y.reshape(len(y), -1), axis=1))
        return self.words.k[:, reach] @ y[reach]


def _sample_columns(psi: PDFunction, samples: SampleSet) -> np.ndarray:
    """op(s) v for every sample s, as the columns of a d x n array.

    The word columns rho(w) v are built on first use and kept on the
    function as ``_columns``, column p that of word p of the ``_WordIndex``.
    rho(w) is the product of the rho(x_i) over the letters of w, left to
    right, so the column of the word (i, w') is rho(x_i) times the column of
    w': a level adds the word lengths not held, shortest first, with one
    matrix product per (length, first letter).  With B the block of word
    columns, the identity group sample gives B and every other group sample
    g gives pi(g) B.
    """
    if psi._columns is None:
        psi._columns = np.array(psi.vector, dtype=complex)[:, None]
    index, held = samples.index, psi._columns.shape[1]
    n = len(samples.words)
    if n > held:
        ops = psi.rep.rho_stack().ops
        cols = np.empty((psi._columns.shape[0], n), dtype=complex)
        cols[:, :held] = psi._columns
        for m in range(1, len(index.counts)):
            if index.counts[m] > held:
                for k, a, b in index.runs(m):
                    cols[:, a:b] = ops[k] @ cols[:, index.tail[a:b]]
        psi._columns = cols
    block = psi._columns[:, :n]
    blocks = [block]
    for g in samples.groups[1:]:
        if g.pi is None:
            raise ValueError(
                f"group element {g.label!r} carries no action on the space")
        blocks.append(g.pi @ block)
    return np.hstack(blocks)


class _FactoredGram(_PairedGram):
    """Operator route: the sample Gram in factored form.

    M = W^H W with W = R U, where U holds the sample columns op(s) v and R is
    the Cholesky factor of the space Gram, so W is d x n.  Every step over
    the samples costs O(n d^2) and forms no n x n matrix: U comes from
    ``_sample_columns``; the rank rule reads the lengths of the columns of W
    and of their CGS2 residuals; the eigenvalues are sigma(W)^2 padded with
    exact zeros to length n, from a thin SVD of W.  R and the dual vector
    G v are computed once per function and kept on it (``_factor`` and
    ``_dual``).  For ``_PairedGram`` a monoid element acts through
    ``reps._act``, which never forms op(s), and the columns pair in the
    space Gram G.  Only ``dense()`` forms M.  The monoid product (Carmeli,
    Cassinelli, Toigo and Varadarajan, CMP 263 (2006)) checks eight entries
    of W^H W in ``route_gap``.
    """

    psd_detail = "singular values of W, verified on sample set"

    def __init__(self, psi: PDFunction, samples: SampleSet):
        self.psi = psi
        self.samples = samples
        self.u = _sample_columns(psi, samples)
        self.gram = psi.rep.inner.gram_dense()
        if psi._factor is None:
            # the space Gram is finite and positive definite (GammaInnerSpace)
            psi._factor = np.linalg.cholesky(self.gram).conj().T
        # G v, kept by ``from_rep``
        self.dual = self.gram @ psi.vector if psi._dual is None else psi._dual
        self.w = psi._factor @ self.u
        self.finite = bool(np.isfinite(self.w).all())

    def eigenvalues(self) -> np.ndarray:
        sv = np.linalg.svd(self.w, compute_uv=False)
        eigs = np.zeros(self.w.shape[1])
        eigs[eigs.size - sv.size:] = np.sort(sv) ** 2
        return eigs

    def sizes(self, idx) -> np.ndarray:
        return np.linalg.norm(self.w[:, idx], axis=0)

    def residuals(self, sector: _Sector, kept, cands) -> np.ndarray:
        # the columns after two classical Gram-Schmidt passes (CGS2; Giraud,
        # Langou and Rozloznik, Comput. Math. Appl. 50 (2005))
        q = self.w[:, :0] if sector.q is None else sector.q
        x, sector.h = self.w[:, cands], 0.0
        for _ in range(2):
            c = q.conj().T @ x
            x, sector.h = x - q @ c, sector.h + c
        sector.q, sector.x, sector.sigma = q, x, np.linalg.norm(x, axis=0)
        return sector.sigma

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

    def block(self, rows, cols) -> np.ndarray:
        return self.w[:, rows].conj().T @ self.w[:, cols]

    def _act(self, m: MonoidElement, x: np.ndarray) -> np.ndarray:
        return _act(self.psi.rep, m.env, x, m.group)

    def _paired(self, y: np.ndarray) -> np.ndarray:
        return self.gram @ y


def sample_gram(psi: PDFunction, samples: SampleSet) -> tuple[np.ndarray, float]:
    """Gram matrix M[i, j] = psi(s_i* s_j) over a sample set, and a gap.

    On the operator route (see ``_gram_of``) this is the one place that
    forms M = W^H W, and the gap is the worst disagreement of a few
    same-degree and diagonal entries with the monoid product; on the other
    routes it is zero.  The samples must come from ``build_sample_set``;
    anything else raises TypeError.
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
    construction: ``gram_norm`` and ``min_eigenvalue`` come from the
    singular values of W, and what is checked numerically is the agreement
    of W^H W with the monoid product on sampled entries.  On every route the
    support condition reads psi on the samples of non-zero degree off row 0
    of the Gram (sample 0 is the identity of the monoid).  Non-finite sample
    data fail the Gram checks.  The samples must come from
    ``build_sample_set``; anything else raises TypeError.
    """
    return _positivity_report(_gram_of(psi, samples), tol)


def _positivity_report(gram, tol: float) -> Report:
    """The certificate above on a route's Gram, and the only reader of a
    sample-Gram spectrum: one per call, none for non-finite data; the
    Hermitian and eigenvalue floor is tol * max(1, ||M||_2)."""
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

    if not gram.finite:
        for name in ("gram hermitian", "gram positive semidefinite"):
            rep.add(name, False, None, tol, "non-finite sample data")
        rep.context.update(min_eigenvalue=None, gram_norm=None)
        return rep

    eigs = gram.eigenvalues()
    scale = max(1.0, float(np.max(np.abs(eigs), initial=0.0)))
    floor = tol * scale
    herm, detail = gram.hermitian()
    rep.add("gram hermitian", herm <= floor, herm, floor, detail)
    low = float(eigs.min()) if eigs.size else 0.0
    rep.add("gram positive semidefinite", low >= -floor,
            max(0.0, -low), floor, gram.psd_detail)
    rep.context.update(min_eigenvalue=low, gram_norm=scale)
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


class _Pivots:
    """The samples that the nested rank rule keeps, grown level by level.

    Level L visits its new samples, those whose word has length L, in order
    of sample index.  A sample is kept when its own size is more than tol
    times the largest own size among the samples of its word length, and
    its residual, after the kept samples of its sector (degree code) are
    projected out, is more than tol times its own size.  Each route reads
    its own quantities (``sizes`` and ``residuals``, see ``_gram_of``):
    column lengths of W, or the diagonals of M and of its Schur complement,
    which are squared lengths.  Shorter words were visited at lower levels,
    and their samples do not change with the level, so the kept set only
    grows and the rank never falls.  ``sectors`` maps each degree code to
    its ``_Sector``, ``ranks`` holds the rank after each level, and
    ``tops`` the largest own size among the new samples of each level.
    """

    def __init__(self):
        self.sectors = {}
        self.ranks = []
        self.tops = []

    def grow(self, gram, tol: float) -> None:
        samples = gram.samples
        nw = len(samples.words)
        lo = int(samples.index.counts[samples.level - 1]) if samples.level else 0
        new = (np.arange(len(samples.groups))[:, None] * nw
               + np.arange(lo, nw)).ravel()
        sizes, codes = gram.sizes(new), samples.codes[new]
        top = float(np.max(sizes, initial=0.0))
        self.tops.append(top)
        big = sizes > tol * top           # so sizes > 0 where big
        share = sizes / top if top > 0 else np.zeros(sizes.size)
        for code in sorted(set(codes.tolist())):
            sector = self.sectors.setdefault(code, _Sector())
            at = codes == code
            # a small sample fails on its share of the top size, any other
            # on its residual over its own size
            sector.lost += zip((new[at & ~big] % nw).tolist(),
                               share[at & ~big].tolist())
            cands, own = new[at & big], sizes[at & big]
            while cands.size:
                fit = gram.residuals(sector, sector.rows(nw), cands) / own
                hit = np.flatnonzero(fit > tol)
                stop = int(hit[0]) if hit.size else cands.size
                sector.lost += zip((cands[:stop] % nw).tolist(),
                                   fit[:stop].tolist())
                if not hit.size:
                    break
                sector.keep(stop, divmod(int(cands[stop]), nw))
                cands, own = cands[stop + 1:], own[stop + 1:]
        self.ranks.append(sum(len(x.kept) for x in self.sectors.values()))


def _ranks_note(ranks: list[int]) -> str:
    """The rank at each level sampled, for a refusal."""
    return f"rank {', '.join(map(str, ranks))} at levels 0 to {len(ranks) - 1}"


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

    Sample sets grow level by level until a level keeps no new sample under
    the nested rank rule (``_Pivots``): in order of word length and sample
    index, a sample is kept when its own size is more than tol times the
    largest own size among the samples of its word length, and its residual
    after the kept samples of its sector are projected out is more than tol
    times its own size.  The kept samples P of the level below are the
    quotient basis: with M[P, P] = R^H R from the rule's own factorisation,
    the basis is R^-1 on their rows, so no eigensolve runs in the level
    loop.  ``gram_spectrum`` gives per degree the ``retained`` eigenvalues
    of M on the sector through P, and as ``discarded`` the ratio each
    sample not kept failed on, each at most tol.  Left translation by each
    generator and group sample is expressed on the pivot basis, and the
    reconstruction is validated, the monoid product witnessing a fixed
    number of pairs (see ``_witness_gap``), before it is returned.  The
    positivity certificate, the one sample-Gram spectrum computed, reads
    the Gram of the level that confirmed the rank; the grading and escape
    thresholds are tol and max(tol, 1e-8) times max(1, max_j M_jj) of the
    chosen level.  The report gives ``rank_history``, the rank at each level
    sampled; ``columns``, the word columns held, on the operator route;
    ``words`` and ``operator_entries`` on the table route.

    Raises StabilizationError when the rank is still growing at the cap, or
    is left unconfirmed by a cap of 0, when a level needs more normal words
    than the budget allows (these carry ``rank_history``), when a translate
    escapes the span the rank rule certified, or when the assembled
    operators fail validation.  A failed certificate, a non-finite Gram and
    a grading leak raise PositivityError, with the certificate as
    ``report``.  A function that vanishes on every sample raises
    ValueError, as does a negative ``level_cap``.
    """
    if level_cap < 0:
        raise ValueError(f"level cap must be at least 0, got {level_cap}")
    l = psi.algebra
    if group_samples is None:
        group_samples = [] if psi.rep is None else default_group_samples(psi.rep)

    # grow until a level keeps no new sample (see ``_Pivots``)
    pivots = _Pivots()
    grams = []
    for level in range(level_cap + 1):
        try:
            gram = _gram_of(psi, build_sample_set(l, group_samples, level))
        except StabilizationError as e:   # the level is over the word budget
            raise StabilizationError(
                str(e) + _truncation_note(psi, level)
                + (f"; {_ranks_note(pivots.ranks)}" if pivots.ranks else ""),
                pivots.ranks) from None
        if not gram.finite:
            raise PositivityError(
                f"the sample Gram at level {level} is not finite",
                _positivity_report(gram, tol))
        pivots.grow(gram, tol)
        grams = [*grams[-1:], gram]
        if level and pivots.ranks[-1] == pivots.ranks[-2]:
            break
    else:
        if level_cap == 0:
            raise StabilizationError(
                f"a level cap of 0 samples level 0 only (rank {pivots.ranks[0]}), "
                "which leaves no second level to confirm the rank", pivots.ranks)
        raise StabilizationError(
            f"gram rank still growing at level {level_cap} "
            f"({_ranks_note(pivots.ranks)}); the function is not of finite "
            "type within the configured cap" + _truncation_note(psi, level_cap),
            pivots.ranks)

    gram, confirm = grams
    chosen = level - 1
    # max(1, max_j M_jj) of the chosen level, a lower bound of ||M||_2, off
    # the rule's sizes (column lengths of W on the operator route)
    top = max(pivots.tops[:level])
    scale = max(1.0, top ** 2 if isinstance(gram, _FactoredGram) else top)
    samples = gram.samples
    n, nw = len(samples), len(samples.words)

    report = Report("gns reconstruction",
                    context={"level_used": chosen, "samples": n, "tol": tol,
                             "rank_history": pivots.ranks})

    # certify positivity on the level that witnessed the rank repeat, not
    # just on the retained samples; it sees strictly more of the function
    pd = _positivity_report(confirm, tol)
    report.extend(pd, prefix="pd: ")
    if not pd.passed:
        raise PositivityError(
            "the function fails positive definiteness on the sample set"
            + _truncation_note(psi, chosen + 1), pd)

    # samples by degree code; codes sort as their degrees do (a plain set,
    # since np.unique imports numpy.ma on first use, 20 ms per process)
    codes = samples.codes
    sectors = {c: np.flatnonzero(codes == c)
               for c in sorted(set(codes.tolist()))}

    # classes of different degrees must be orthogonal already at gram level
    cross = max((float(np.max(np.abs(gram.block(ia, ib))))
                 for a, ia in sectors.items()
                 for b, ib in sectors.items() if a != b), default=0.0)
    if not report.add("gram respects the grading", cross <= tol * scale,
                      cross, tol * scale, "verified on sample set").passed:
        raise PositivityError(
            "sample classes of distinct degrees fail to be orthogonal "
            f"(leakage {cross:.3e})", pd)

    # the pivot quotient: the kept samples P of each sector are its basis,
    # c_mat is R^-1 on their rows, and the retained spectrum is that of M on
    # the sector through P, the eigenvalues of L^H L, L = M[sector, P] R^-1
    spectrum, space_dims, kept = {}, {}, []
    c_mat = np.zeros((n, pivots.ranks[-1]), dtype=complex)   # samples x dim
    for code, idx in sectors.items():
        d, sector = _degree_of(l.rank, code), pivots.sectors[code]
        rows = sector.rows(nw)
        spectrum[str(d)] = {
            "retained": [],
            "discarded": [x for w, x in sector.lost if w < nw]}
        if not rows:
            continue
        fit = gram.block(idx, rows) @ sector.t
        spectrum[str(d)]["retained"] = np.linalg.eigvalsh(
            fit.conj().T @ fit).tolist()
        space_dims[d] = len(rows)
        c_mat[rows, len(kept):len(kept) + len(rows)] = sector.t
        kept += rows
    if not space_dims:
        raise ValueError(
            "the function vanishes on the sample set; nothing to reconstruct")

    space = GradedSpace(l.rank, space_dims)
    p_mat = c_mat.conj().T                    # coordinates = p_mat @ pairings
    c_kept = c_mat[kept]                      # the rows of c_mat not zero

    ortho = float(np.linalg.norm(c_kept.conj().T @ gram.block(kept, kept)
                                 @ c_kept - np.eye(len(kept)), 2))
    report.add("quotient basis orthonormal", ortho <= 1e-8, ortho, 1e-8)

    # one escape budget for every translate, on the scale of the Gram
    escape_tol = max(tol, 1e-8) * scale
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
    v0 = c_kept.conj().T @ gram.block(kept, [0])[:, 0]
    v0_clean = np.where(space.basis_codes == 0, v0, 0.0)
    dust = float(np.linalg.norm(v0 - v0_clean))
    dust_tol = block_tol * max(1.0, float(np.linalg.norm(v0)))
    if not report.add("cyclic class homogeneous", dust <= dust_tol, dust,
                      dust_tol).passed:
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
    # row psi(s t) over the samples t comes with its witness gap; the gap is
    # relative to max(1, the largest coordinate), as in ``_witness_gap``
    picks = {0, *random.Random(11).sample(range(n), min(4, n))}

    def reproducing_gaps(i: int):
        lhs = np.conj(p_mat @ gram.against(s_star(samples.element(i))))
        row, witness = gram.products(i)
        rhs = row @ c_mat
        return (float(np.max(np.abs(lhs - rhs)))
                / max(1.0, float(np.max(np.abs(rhs)))), witness)

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
        report.context["columns"] = psi._columns.shape[1]
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
    return np.concatenate([r.rho_stack().ops]
                          + [np.asarray(g.pi, dtype=complex)[None] for g in groups])


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
    certifies the rebuilt one is unitarily equivalent to the original.  The
    ``pd:`` checks are the construction's certificate, also on a refusal
    that carries one; its samples include every level-1 sample.
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
    try:
        result = gns_construct(psi, level_cap=level_cap, tol=tol)
    except (PositivityError, StabilizationError, ValueError) as e:
        if getattr(e, "report", None) is not None:
            rep.extend(e.report, prefix="pd: ")
        rep.add("reconstruction", False, detail=str(e))
        return rep
    rep.checks += [c for c in result.report.checks if c.name.startswith("pd: ")]
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
