"""Color Lie algebras: real structure constants over a Z2^n grading.

The bracket satisfies three laws: it respects the grading, it is
antisymmetric up to the commutation sign beta, and it satisfies the
beta-twisted Jacobi identity.  ``check_axioms`` verifies all three
numerically; ``check_perfectness`` asks whether every nonzero even-like
sector is spanned by brackets of odd-like elements, the hypothesis that
drives the stability extension of partial representations.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AxiomError, PerfectnessError, RankMismatchError
from .grading import Degree, beta, is_even_like
from .report import Report, worst_entry, worst_residual
from .spaces import GradedSpace

_AXIOM_TOL = 1e-9
# bound on the terms that one block of a structure-constant kernel holds
# (the Jacobi join here, the residuals of ``reps``): its temporaries stay
# near cache size, so the peak of a check does not grow with the algebra
_TERM_BLOCK = 1 << 15


def beta_signs(degrees) -> np.ndarray:
    """beta between every two of the degrees, as an int8 sign matrix."""
    bits = np.array([deg.bits for deg in degrees] or np.zeros((0, 0)), dtype=np.int64)
    return np.where((bits @ bits.T) % 2 == 1, -1, 1).astype(np.int8)


@dataclass(frozen=True)
class StructureTriples:
    """The one store of the structure constants: entry t is c[t], the
    coefficient of x_k[t] in [x_i[t], x_j[t]], for every nonzero constant,
    all finite, sorted by (i, j, k), so the entries of the pair
    (i, j) are ptr[i * dim + j] : ptr[i * dim + j + 1], and those with first
    index i are ptr[i * dim] : ptr[(i + 1) * dim].
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    c: np.ndarray
    ptr: np.ndarray


class ColorLieAlgebra:
    """A finite-dimensional color Lie algebra given by structure constants.

    ``structure`` gives c[i, j, k], the coefficient of basis element k in
    the bracket of basis elements i and j, as a dense (d, d, d) array or a
    dict {(i, j, k): c}.  The basis is kept sorted by (lexicographic degree,
    label); constructing from unsorted input maps the indices accordingly.
    A constant that is NaN or infinite is an error that names its (i, j, k).

    ``triples`` is the one store of the constants (see ``StructureTriples``);
    readers take them from there or from ``ad_operator``, one dense ad(x).
    """

    def __init__(self, rank: int, labels, degrees, structure, validate: bool = False,
                 tol: float = _AXIOM_TOL):
        self.rank = int(rank)
        labels = list(labels)
        degrees = list(degrees)
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        for deg in degrees:
            if deg.rank != self.rank:
                raise RankMismatchError(f"degree {deg} has rank {deg.rank}, expected {self.rank}")
        d = len(labels)
        order = sorted(range(d), key=lambda i: (degrees[i].bits, labels[i]))
        self.labels = [labels[i] for i in order]
        self.degrees = [degrees[i] for i in order]
        self.triples = _triples(structure, sorted(range(d), key=order.__getitem__))
        self.deg_codes = np.array([deg.code for deg in self.degrees], dtype=np.int64)
        self.beta_table = beta_signs(self.degrees)
        self._sectors: dict[Degree, list[int]] = {}
        for i, deg in enumerate(self.degrees):
            self._sectors.setdefault(deg, []).append(i)
        self._nf_cache: dict = {}
        if validate:
            rep = check_axioms(self, tol=tol)
            if not rep.passed:
                raise AxiomError("structure constants violate the bracket axioms:\n"
                                 + rep.to_text())

    @property
    def dim(self) -> int:
        return len(self.labels)

    def sector(self, deg: Degree) -> list[int]:
        return self._sectors.get(deg, [])

    def sector_dim(self, deg: Degree) -> int:
        return len(self._sectors.get(deg, []))

    @property
    def sector_degrees(self) -> list[Degree]:
        return sorted(self._sectors)

    def even_nonzero_degrees(self) -> list[Degree]:
        zero = Degree.zero(self.rank)
        return [d for d in self.sector_degrees if is_even_like(d) and d != zero]

    def odd_degrees(self) -> list[Degree]:
        return [d for d in self.sector_degrees if not is_even_like(d)]

    def __repr__(self) -> str:
        return f"ColorLieAlgebra(rank={self.rank}, dim={self.dim})"


def _triples(structure, pos) -> StructureTriples:
    """The nonzero constants of a dense array or a dict, as triples in the
    sorted basis, where input element n is element pos[n].  Input in
    (i, j, k) order, as a dense array or a written file is, takes no sort.
    The first non-finite constant in input order is an error."""
    d = len(pos)
    if isinstance(structure, dict):
        ijk = _index_triples(list(structure))
        c = real_array(list(structure.values()), "structure constant")
        if ijk.size and not 0 <= ijk.min() <= ijk.max() < d:
            raise ValueError(f"structure index out of range for dimension {d}")
    else:
        structure = real_array(structure, "structure tensor")
        if structure.shape != (d, d, d):
            raise ValueError(f"structure tensor must be {(d, d, d)}, got {structure.shape}")
        ijk, c = np.argwhere(structure), structure[structure != 0]
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        i, j, k = ijk[bad[0]].tolist()
        raise ValueError(f"structure constant ({i}, {j}, {k}) is {c[bad[0]]}, not finite")
    ijk, c = np.array(pos, dtype=np.int64)[ijk[c != 0]], c[c != 0]
    key = ijk @ np.array([d * d, d, 1])
    if (key[1:] < key[:-1]).any():
        at = np.argsort(key)
        ijk, c = ijk[at], c[at]
    i, j, k = ijk.T.copy()
    ptr = np.concatenate([[0], np.cumsum(np.bincount(i * d + j, minlength=d * d))])
    return StructureTriples(i, j, k, c, ptr)


def _index_triples(keys) -> np.ndarray:
    """Dict keys as an (m, 3) int64 array; a key that is not three integers
    is an error that names it, where a cast would cut 1.7 to 1."""
    try:
        ijk = np.array(keys).reshape(len(keys), 3)
    except ValueError:      # ragged keys, or not three entries each
        ijk = None
    if keys and (ijk is None or ijk.dtype.kind not in "iu"):
        bad = next((key for key in keys if np.shape(key) != (3,)
                    or np.asarray(key).dtype.kind not in "iu"), keys[0])
        raise ValueError(f"structure index {bad!r} is not three integers")
    return ijk.astype(np.int64, copy=False)


def real_array(x, what: str) -> np.ndarray:
    """An array as floats: an entry with a nonzero imaginary part is an
    error that names ``what``, rather than a lost imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if (x.imag != 0).any():
            raise ValueError(f"{what} has a nonzero imaginary part")
        x = x.real
    return np.asarray(x, dtype=float)


def real_coefficients(l: ColorLieAlgebra, coeffs) -> np.ndarray:
    """A coefficient vector over the basis of l, as floats (see
    ``real_array``): its length must be l.dim."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (l.dim,):
        raise ValueError(f"coefficient vector must have length {l.dim}")
    return real_array(coeffs, "coefficient vector")


def ad_operator(l: ColorLieAlgebra, coeffs) -> np.ndarray:
    """Matrix of bracketing with sum_i coeffs[i] x_i, columns indexed by j:
    a sum over the triples."""
    coeffs = real_coefficients(l, coeffs)
    d = l.dim
    t = l.triples
    return np.bincount(t.k * d + t.j, coeffs[t.i] * t.c, d * d).reshape(d, d)


def bracket(l: ColorLieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of coefficient vectors, real or complex, summed over the triples."""
    t, x, y = l.triples, np.asarray(x), np.asarray(y)
    out = np.zeros(l.dim, dtype=np.result_type(x, y, float))
    np.add.at(out, t.k, x[t.i] * y[t.j] * t.c)
    return out


def glV(v: GradedSpace) -> ColorLieAlgebra:
    """All endomorphisms of a graded space as a color Lie algebra.

    Basis: matrix units E[p,q] (basis vector q to basis vector p), of degree
    deg(p)*deg(q), with the beta-twisted commutator as bracket.  The structure
    constants are integers.
    """
    t = v.total_dim
    if t == 0:
        raise ValueError("cannot build endomorphisms of the zero space")
    units = [(p, q) for p in range(t) for q in range(t)]
    width = len(str(t - 1))
    labels = [f"E{p:0{width}d}_{q:0{width}d}" for p, q in units]
    degs = [v.basis_degrees[p] * v.basis_degrees[q] for p, q in units]
    structure = Counter()
    index = {u: i for i, u in enumerate(units)}
    for i, (p, q) in enumerate(units):
        for j, (r, s) in enumerate(units):
            sign = beta(degs[i], degs[j])
            if q == r:
                structure[i, j, index[(p, s)]] += 1.0
            if s == p:
                structure[i, j, index[(r, q)]] -= float(sign)
    return ColorLieAlgebra(v.rank, labels, degs, structure)


def check_axioms(l: ColorLieAlgebra, tol: float = _AXIOM_TOL) -> Report:
    """Verify grading compatibility, beta-antisymmetry, and the Jacobi law.

    All three read the nonzero triples (i, j, k, c) of ``l.triples``.  The
    constants are finite, so an entry of a dense check that no triple
    touches is exactly zero.  Each residual is the largest entry of its
    dense check, and its location the first such entry in (i, j, k[, m])
    order, or the first NaN.

    - grading: the triples with deg(k) != deg(i) deg(j);
    - antisymmetry: c[i,j,k] + beta(i,j) c[j,i,k] at each triple, and at
      its mirror (j, i, k), looked up among the sorted keys;
    - Jacobi: a join of the triples with themselves on the shared index,
      summed per 4-index key (see ``_jacobi_entries``).
    """
    report = Report(f"bracket axioms, dim {l.dim}")
    d = l.dim
    t = l.triples
    codes = l.deg_codes

    # (i) each bracket lands in the product sector
    off = np.where((codes[t.i] ^ codes[t.j]) != codes[t.k], np.abs(t.c), 0.0)
    grading_res, at = worst_entry(off)
    detail = ""
    if at is not None and not grading_res <= tol:
        detail = (f"worst at ({l.labels[t.i[at]]}, {l.labels[t.j[at]]}) "
                  f"-> {l.labels[t.k[at]]}")
    report.add("grading", grading_res <= tol, grading_res, tol, detail)

    # (ii) [x,y] = -beta(x,y) [y,x]; the entries at a triple and at its
    # mirror have the same size, so the location is the smaller key
    key = (t.i * d + t.j) * d + t.k
    mirror = (t.j * d + t.i) * d + t.k
    at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
    size = np.abs(t.c + l.beta_table[t.i, t.j] * np.where(key[at] == mirror, t.c[at], 0.0))
    anti_res, _ = worst_entry(size)
    detail = ""
    if not anti_res <= tol:
        i, j, _ = np.unravel_index(np.minimum(key, mirror)[size == anti_res].min(), (d,) * 3)
        detail = f"worst at ({l.labels[i]}, {l.labels[j]})"
    report.add("antisymmetry", anti_res <= tol, anti_res, tol, detail)

    # (iii) in derivation form: [x,[y,z]] = [[x,y],z] + beta(x,y) [y,[x,z]],
    # the version satisfied by the beta-twisted matrix commutator
    def label(at):
        i, j, k, _ = np.unravel_index(at, (d,) * 4)
        return f"worst triple ({l.labels[i]}, {l.labels[j]}, {l.labels[k]})"

    jac_res, detail = worst_residual(_jacobi_entries(l), label)
    report.add("jacobi", jac_res <= tol, jac_res, tol, "" if jac_res <= tol else detail)
    return report


def _join(lo, hi):
    """All (t, u) with lo[t] <= u < hi[t], as two index arrays, t ascending."""
    counts = hi - lo
    left = np.repeat(np.arange(len(lo)), counts)
    right = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return left, right


def load_blocks(load, budget: float) -> list[slice]:
    """Consecutive slices of range(len(load)) whose loads sum to at most
    ``budget``; an entry whose load alone is more is a slice of its own."""
    edges, acc = [0], 0.0
    for n, w in enumerate(np.asarray(load, dtype=float).tolist()):
        if acc and acc + w > budget:
            edges.append(n)
            acc = 0.0
        acc += w
    edges.append(len(load))
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _grouped_triples(l: ColorLieAlgebra, axis: int):
    """((i, j, k), values, offsets) of ``l.triples`` stably sorted by index
    ``axis``, so then by the other two in order; the entries whose index
    ``axis`` is n are offsets[n] : offsets[n + 1]."""
    t = l.triples
    by = (t.i, t.j, t.k)[axis]
    order = np.argsort(by, kind="stable")
    offsets = np.zeros(l.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(by, minlength=l.dim), out=offsets[1:])
    return (t.i[order], t.j[order], t.k[order]), t.c[order], offsets


def _jacobi_entries(l: ColorLieAlgebra):
    """The worst |J[i,j,k,m]| of each block of i, with its flat (i, j, k, m)
    position, for ``worst_residual``, where

        J[i,j,k,m] = sum_n c[j,k,n] c[i,n,m] - c[i,j,n] c[n,k,m]
                     - beta(i,j) c[i,k,n] c[j,n,m],

    the coefficient of x_m in [x_i,[x_j,x_k]] - [[x_i,x_j],x_k]
    - beta(x_i,x_j) [x_j,[x_i,x_k]].  Within a block the entry is taken in
    the order of a dense scan over (i, j, k, m): the first NaN, else the
    first largest entry.

    Every product term joins two nonzero triples on their shared index n:
    in the first sum the second index of (i,n,m) with the third of (j,k,n),
    in the middle one the third of (i,j,n) with the first of (n,k,m), in the
    last the third of (i,k,n) with the second of (j,n,m).  Each join reads
    the offsets of n in the triples grouped by the index it matches, and
    keeps n ascending within each pair of indices it fixes.  The terms are
    summed per 4-index key, one block of i at a time so that no block holds
    more than about ``_TERM_BLOCK`` terms.  An algebra without triples,
    the empty one among them, has no terms.
    """
    d = l.dim
    t = l.triples
    if not t.c.size:
        return
    key = _flat_key(d)
    # the triples again, grouped by their second and by their third index
    (ji, _, jk), jc, j_off = _grouped_triples(l, 1)
    (ki, kj, _), kc, k_off = _grouped_triples(l, 2)
    i_off = t.ptr[::d]
    # the terms each triple starts, summed per first index, cut into blocks
    load = np.bincount(t.i, minlength=d, weights=(
        k_off[t.j + 1] - k_off[t.j] + j_off[t.k + 1] - j_off[t.k]
        + i_off[t.k + 1] - i_off[t.k]))
    for block in load_blocks(load, _TERM_BLOCK):
        s, e = i_off[block.start], i_off[block.stop]
        n_u, n_p = t.j[s:e], t.k[s:e]
        # first sum: u = (i,n,m) in the block, v = (j,k,n)
        u, v = _join(k_off[n_u], k_off[n_u + 1])
        u += s
        # middle sum: p = (i,j,n) in the block, q = (n,k,m)
        p, q = _join(i_off[n_p], i_off[n_p + 1])
        p += s
        # last sum: a = (i,k,n) in the block, b = (j,n,m)
        a, b = _join(j_off[n_p], j_off[n_p + 1])
        a += s
        with np.errstate(over="ignore"):
            parts = [(key(t.i[u], ki[v], kj[v], t.k[u]), t.c[u] * kc[v]),
                     (key(t.i[p], t.j[p], t.j[q], t.k[q]), t.c[p] * t.c[q]),
                     (key(t.i[a], ji[b], t.j[a], jk[b]),
                      l.beta_table[t.i[a], ji[b]] * t.c[a] * jc[b])]
        keys = np.concatenate([k for k, _ in parts])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
        keys = keys[first]
        # the three sums are kept apart, each with its terms in n order, and
        # combined in the order of J; finite constants can still overflow
        # into inf - inf = NaN
        sums = []
        for _, val in parts:
            sums.append(np.bincount(inverse[:len(val)], weights=val, minlength=len(keys)))
            inverse = inverse[len(val):]
        with np.errstate(invalid="ignore"):
            worst, pos = worst_entry(np.abs(sums[0] - sums[1] - sums[2]))
        if pos is not None:
            yield worst, int(keys[pos])


def _flat_key(d):
    return lambda i, j, k, m: ((np.asarray(i) * d + j) * d + k) * d + m


def odd_pair_columns(l: ColorLieAlgebra, a: Degree):
    """All brackets [y, z] with y, z odd-like and degrees composing to ``a``.

    Returns (pairs, columns) where columns[:, q] is the coefficient vector of
    the bracket for pairs[q] = (i, j), restricted to the coordinates of
    sector ``a``.
    """
    rows = l.sector(a)
    pairs, blocks = [], [np.zeros((len(rows), 0))]
    for b in l.odd_degrees():
        # a even-like and b odd-like force the complement a*b odd-like
        left, right = l.sector(b), l.sector(a * b)
        pairs += [(i, j) for i in left for j in right]
        blocks += [ad_operator(l, np.eye(l.dim)[i])[np.ix_(rows, right)] for i in left]
    return pairs, np.hstack(blocks)


def _relative_rank(columns: np.ndarray, tol: float) -> int:
    """Singular values above ``tol`` times the largest one; 0 when empty."""
    if not columns.size:
        return 0
    svals = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(svals > tol * svals[0])) if svals[0] > 0 else 0


def check_perfectness(l: ColorLieAlgebra, tol: float = 1e-9) -> Report:
    """Is every nonzero even-like sector spanned by odd-by-odd brackets?

    Rank is measured by singular values above ``tol`` times the largest one.
    """
    report = Report(f"perfectness, dim {l.dim}")
    sectors = {}
    targets = l.even_nonzero_degrees()
    if not targets:
        report.add("no-even-sectors", True, detail="no nonzero even-like sectors present")
    for a in targets:
        dim_a = l.sector_dim(a)
        _, columns = odd_pair_columns(l, a)
        rank = _relative_rank(columns, tol)
        sectors[str(a)] = {"dim": dim_a, "rank": rank}
        report.add(f"sector-{a}", rank >= dim_a,
                   detail=f"bracket span rank {rank} of dim {dim_a}")
    report.context["sectors"] = sectors
    return report


@dataclass
class BracketTerm:
    coefficient: float
    left: int
    right: int


@dataclass
class BracketDecomposition:
    """x expressed as a sum of brackets of odd-like basis elements."""

    degree: Degree | None
    terms: list[BracketTerm]

    def evaluate(self, l: ColorLieAlgebra) -> np.ndarray:
        out = np.zeros(l.dim)
        for t in self.terms:
            out += t.coefficient * ad_operator(l, np.eye(l.dim)[t.left])[:, t.right]
        return out


def decompose_odd(l: ColorLieAlgebra, x: np.ndarray, tol: float = 1e-9,
                  weight_seed: int | None = None) -> BracketDecomposition:
    """Write an even-like vector as a combination of odd-by-odd brackets.

    ``x`` is a real coefficient vector supported in a single nonzero
    even-like sector.  The decomposition is not unique; the default solve
    returns the least-norm one, and ``weight_seed`` reweights the columns to
    produce a genuinely different valid decomposition when slack exists.
    Raises PerfectnessError when the sector is not saturated.
    """
    x = real_coefficients(l, x)
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return BracketDecomposition(None, [])
    support = {l.degrees[i] for i in np.flatnonzero(np.abs(x) > 1e-14 * scale)}
    if len(support) != 1:
        raise ValueError(f"vector is not homogeneous: sectors {sorted(map(str, support))}")
    a = support.pop()
    if not is_even_like(a) or a.is_zero:
        raise ValueError(f"sector {a} is not a nonzero even-like degree")
    rows = l.sector(a)
    pairs, columns = odd_pair_columns(l, a)
    target = x[rows]
    rank = _relative_rank(columns, tol)
    if rank < len(rows):
        raise PerfectnessError(
            f"sector {a} is not spanned by brackets of odd-like elements "
            f"(rank {rank} < dim {len(rows)}); the stability hypothesis fails",
            sector=a)
    if weight_seed is None:
        coeffs, *_ = np.linalg.lstsq(columns, target, rcond=None)
    else:
        rng = random.Random(weight_seed)
        w = 0.5 + np.array([rng.random() for _ in range(columns.shape[1])])
        u, *_ = np.linalg.lstsq(columns * w[None, :], target, rcond=None)
        coeffs = u * w
    resid = float(np.linalg.norm(columns @ coeffs - target))
    if resid > tol * max(1.0, float(np.linalg.norm(target))):
        raise PerfectnessError(
            f"decomposition in sector {a} left residual {resid:.3e}", sector=a)
    cmax = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    terms = [BracketTerm(float(c), i, j)
             for c, (i, j) in zip(coeffs, pairs) if abs(c) > 1e-13 * max(1.0, cmax)]
    return BracketDecomposition(a, terms)
