"""Color Lie algebras: real structure constants over a Z2^n grading.

The bracket satisfies three laws: it respects the grading, it is
antisymmetric up to the commutation sign beta, and it satisfies the
beta-twisted Jacobi identity.  ``check_axioms`` verifies all three
numerically; ``check_perfectness`` asks whether every nonzero even-like
sector is spanned by brackets of odd-like elements, the hypothesis that
drives the stability extension of partial representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PerfectnessError, RankMismatchError
from .grading import Degree, beta, is_even_like
from .report import Report, worst_residual
from .spaces import GradedSpace

_AXIOM_TOL = 1e-9


class ColorLieAlgebra:
    """A finite-dimensional color Lie algebra given by structure constants.

    ``structure[i, j, k]`` is the coefficient of basis element k in the
    bracket of basis elements i and j.  The basis is kept sorted by
    (lexicographic degree, label); constructing from unsorted input permutes
    the structure tensor accordingly.
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
        structure = np.asarray(structure, dtype=float)
        if structure.shape != (d, d, d):
            raise ValueError(f"structure tensor must be {(d, d, d)}, got {structure.shape}")
        order = sorted(range(d), key=lambda i: (degrees[i].bits, labels[i]))
        if order != list(range(d)):
            labels = [labels[i] for i in order]
            degrees = [degrees[i] for i in order]
            # c'_{ij}^k = c_{order[i], order[j]}^{order[k]}
            structure = structure[np.ix_(order, order, order)]
        self.labels = labels
        self.degrees = degrees
        self.structure = structure
        self.deg_codes = np.array([deg.code for deg in degrees], dtype=np.int64)
        # beta between basis elements, as a sign matrix
        bits = np.array([deg.bits for deg in degrees], dtype=np.int64)
        self.beta_table = np.where((bits @ bits.T) % 2 == 1, -1, 1).astype(np.int8)
        self._sectors: dict[Degree, list[int]] = {}
        for i, deg in enumerate(degrees):
            self._sectors.setdefault(deg, []).append(i)
        self._nf_cache: dict = {}
        if validate:
            rep = check_axioms(self, tol=tol)
            if not rep.passed:
                from .errors import AxiomError

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

    def ad_matrix(self, i: int) -> np.ndarray:
        """Matrix of bracketing with basis element i, columns indexed by j."""
        return self.structure[i].T.copy()

    def __repr__(self) -> str:
        return f"ColorLieAlgebra(rank={self.rank}, dim={self.dim})"


def bracket(l: ColorLieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of coefficient vectors, bilinear over the structure tensor."""
    x = np.asarray(x)
    y = np.asarray(y)
    return np.einsum("i,j,ijk->k", x, y, l.structure)


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
    d = len(units)
    structure = np.zeros((d, d, d))
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
    """Verify grading compatibility, beta-antisymmetry, and the Jacobi law."""
    report = Report(f"bracket axioms, dim {l.dim}")
    c = l.structure
    d = l.dim
    codes = l.deg_codes

    # (i) each bracket lands in the product sector
    target = codes[:, None] ^ codes[None, :]
    bad = target[:, :, None] != codes[None, None, :]
    grading_res = float(np.max(np.abs(np.where(bad, c, 0.0)))) if d else 0.0
    detail = ""
    if not grading_res <= tol:
        i, j, k = np.unravel_index(np.argmax(np.abs(np.where(bad, c, 0.0))), c.shape)
        detail = f"worst at ({l.labels[i]}, {l.labels[j]}) -> {l.labels[k]}"
    report.add("grading", grading_res <= tol, grading_res, tol, detail)

    # (ii) [x,y] = -beta(x,y) [y,x]
    anti = c + l.beta_table[:, :, None] * np.transpose(c, (1, 0, 2))
    anti_res = float(np.max(np.abs(anti))) if d else 0.0
    detail = ""
    if not anti_res <= tol:
        i, j, k = np.unravel_index(np.argmax(np.abs(anti)), anti.shape)
        detail = f"worst at ({l.labels[i]}, {l.labels[j]})"
    report.add("antisymmetry", anti_res <= tol, anti_res, tol, detail)

    # (iii) in derivation form: [x,[y,z]] = [[x,y],z] + beta(x,y) [y,[x,z]],
    # the version satisfied by the beta-twisted matrix commutator
    bt = l.beta_table.astype(float)

    def entries():
        # per x_i, three BLAS products over all (j, k, l):
        # [x_i,[y,z]], [[x_i,y],z] and [y,[x_i,z]] at y = x_j, z = x_k
        for i in range(d):
            lhs = (c.reshape(d * d, d) @ c[i]).reshape(d, d, d)
            t1 = (c[i] @ c.reshape(d, d * d)).reshape(d, d, d)
            t2 = np.matmul(c[i], c)
            resid = np.abs(lhs - t1 - bt[i][:, None, None] * t2)
            at = int(np.argmax(resid))
            yield float(resid.flat[at]), (i, at)

    def label(key):
        i, at = key
        j, k, _ = np.unravel_index(at, (d, d, d))
        return f"worst triple ({l.labels[i]}, {l.labels[j]}, {l.labels[k]})"

    jac_res, at = worst_residual(entries(), label)
    report.add("jacobi", jac_res <= tol, jac_res, tol,
               "" if jac_res <= tol else at)
    return report


def odd_pair_columns(l: ColorLieAlgebra, a: Degree):
    """All brackets [y, z] with y, z odd-like and degrees composing to ``a``.

    Returns (pairs, columns) where columns[:, q] is the coefficient vector of
    the bracket for pairs[q] = (i, j), restricted to the coordinates of
    sector ``a``.
    """
    rows = l.sector(a)
    pairs: list[tuple[int, int]] = []
    cols: list[np.ndarray] = []
    for b in l.odd_degrees():
        # a even-like and b odd-like force the complement a*b odd-like
        c = a * b
        for i in l.sector(b):
            for j in l.sector(c):
                pairs.append((i, j))
                cols.append(l.structure[i, j, rows])
    if cols:
        columns = np.column_stack(cols)
    else:
        columns = np.zeros((len(rows), 0))
    return pairs, columns


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
            out += t.coefficient * l.structure[t.left, t.right]
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
    x = np.asarray(x, dtype=float)
    if x.shape != (l.dim,):
        raise ValueError(f"expected a coefficient vector of length {l.dim}")
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
        rng = np.random.default_rng(weight_seed)
        w = 0.5 + rng.random(columns.shape[1])
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
