"""Graded complex vector spaces, homogeneous maps, and the two adjoints.

A graded space stores one dimension per degree; vectors are dense complex
arrays over the canonical basis, which is ordered by (lexicographic degree,
component index).  Inner product spaces store the ordinary positive definite
Hermitian form per degree; the graded sesquilinear form is derived from it
through the phase alpha and is never stored.
"""

from __future__ import annotations

import numpy as np

from .errors import PositivityError, RankMismatchError
from .grading import Character, Degree, alpha, beta

_HERMITIAN_RTOL = 1e-10


class GradedSpace:
    """Finite-dimensional Z2^n-graded complex vector space."""

    def __init__(self, rank: int, dims: dict[Degree, int]):
        self.rank = int(rank)
        cleaned: dict[Degree, int] = {}
        for deg, d in dims.items():
            if deg.rank != self.rank:
                raise RankMismatchError(f"degree {deg} has rank {deg.rank}, expected {self.rank}")
            d = int(d)
            if d < 0:
                raise ValueError(f"dimension of sector {deg} is negative")
            if d > 0:
                cleaned[deg] = d
        self.dims = cleaned
        self.degrees = sorted(cleaned)
        self._offsets: dict[Degree, int] = {}
        off = 0
        for deg in self.degrees:
            self._offsets[deg] = off
            off += cleaned[deg]
        self.total_dim = off
        self.basis_degrees: list[Degree] = []
        for deg in self.degrees:
            self.basis_degrees.extend([deg] * cleaned[deg])

    def dim(self, deg: Degree) -> int:
        return self.dims.get(deg, 0)

    def slice_of(self, deg: Degree) -> slice:
        off = self._offsets.get(deg)
        if off is None:
            return slice(0, 0)
        return slice(off, off + self.dims[deg])

    def component(self, v: np.ndarray, deg: Degree) -> np.ndarray:
        return np.asarray(v)[..., self.slice_of(deg)]

    def homogeneous_degree(self, v: np.ndarray, rtol: float = 1e-12) -> Degree | None:
        """Degree of v if all its mass sits in one sector, else None."""
        v = np.asarray(v)
        scale = float(np.max(np.abs(v))) if v.size else 0.0
        if scale == 0.0:
            return None
        found = None
        for deg in self.degrees:
            if np.max(np.abs(self.component(v, deg))) > rtol * scale:
                if found is not None:
                    return None
                found = deg
        return found

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedSpace) and self.rank == other.rank
                and self.dims == other.dims)

    def __hash__(self):
        return hash((self.rank, tuple(sorted((d.bits, k) for d, k in self.dims.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{deg}:{d}" for deg, d in sorted(self.dims.items()))
        return f"GradedSpace(rank={self.rank}, {{{inner}}})"


class HomogeneousMap:
    """A linear map of fixed degree between graded spaces.

    Stored blockwise: for each source degree b the block maps component b of
    the source into component degree*b of the target.  Blocks for empty
    sectors are omitted.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: Degree,
                 blocks: dict[Degree, np.ndarray]):
        if source.rank != target.rank or degree.rank != source.rank:
            raise RankMismatchError("source, target, and degree must share a rank")
        self.source = source
        self.target = target
        self.degree = degree
        self.blocks: dict[Degree, np.ndarray] = {}
        for b, mat in blocks.items():
            m = np.asarray(mat, dtype=complex)
            want = (target.dim(degree * b), source.dim(b))
            if 0 in want:
                if m.size:
                    raise ValueError(f"block at {b} maps between empty sectors")
                continue
            if m.shape != want:
                raise ValueError(f"block at {b} has shape {m.shape}, expected {want}")
            self.blocks[b] = m

    @classmethod
    def zero(cls, source: GradedSpace, target: GradedSpace, degree: Degree) -> "HomogeneousMap":
        return cls(source, target, degree, {})

    @classmethod
    def identity(cls, space: GradedSpace) -> "HomogeneousMap":
        blocks = {deg: np.eye(d, dtype=complex) for deg, d in space.dims.items()}
        return cls(space, space, Degree.zero(space.rank), blocks)

    @classmethod
    def from_dense(cls, source: GradedSpace, target: GradedSpace, degree: Degree,
                   matrix: np.ndarray, rtol: float | None = None) -> "HomogeneousMap":
        """Extract the degree-homogeneous blocks of a dense matrix.

        With ``rtol`` set, mass outside the block pattern above that relative
        threshold raises ValueError.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (target.total_dim, source.total_dim):
            raise ValueError(f"dense shape {matrix.shape} does not match spaces")
        blocks = {}
        pattern = np.zeros_like(matrix, dtype=bool)
        for b in source.degrees:
            tb = degree * b
            if target.dim(tb) == 0:
                continue
            rows, cols = target.slice_of(tb), source.slice_of(b)
            blocks[b] = matrix[rows, cols]
            pattern[rows, cols] = True
        if rtol is not None:
            off = float(np.max(np.abs(np.where(pattern, 0.0, matrix)))) if matrix.size else 0.0
            scale = max(1.0, float(np.max(np.abs(matrix)))) if matrix.size else 1.0
            if off > rtol * scale:
                raise ValueError(
                    f"matrix is not homogeneous of degree {degree}: off-pattern mass {off:.3e}")
        return cls(source, target, degree, blocks)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.target.total_dim, self.source.total_dim), dtype=complex)
        for b, mat in self.blocks.items():
            out[self.target.slice_of(self.degree * b), self.source.slice_of(b)] = mat
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = np.zeros(self.target.total_dim, dtype=complex)
        for b, mat in self.blocks.items():
            out[self.target.slice_of(self.degree * b)] += mat @ v[self.source.slice_of(b)]
        return out

    def compose(self, other: "HomogeneousMap") -> "HomogeneousMap":
        """self after other; degrees multiply."""
        if other.target != self.source:
            raise ValueError("inner spaces of a composition must agree")
        blocks = {}
        for b, mat in other.blocks.items():
            mid = other.degree * b
            top = self.blocks.get(mid)
            if top is not None:
                blocks[b] = top @ mat
        return HomogeneousMap(other.source, self.target, self.degree * other.degree, blocks)

    def __add__(self, other: "HomogeneousMap") -> "HomogeneousMap":
        if (other.source, other.target, other.degree) != (self.source, self.target, self.degree):
            raise ValueError("can only add maps of equal degree between equal spaces")
        blocks = dict(self.blocks)
        for b, mat in other.blocks.items():
            blocks[b] = blocks[b] + mat if b in blocks else mat
        return HomogeneousMap(self.source, self.target, self.degree, blocks)

    def __sub__(self, other: "HomogeneousMap") -> "HomogeneousMap":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "HomogeneousMap":
        return HomogeneousMap(self.source, self.target, self.degree,
                              {b: scalar * m for b, m in self.blocks.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        if not self.blocks:
            return 0.0
        return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in self.blocks.values())))

    def distance(self, other: "HomogeneousMap") -> float:
        return (self - other).norm()

    def __repr__(self) -> str:
        return f"HomogeneousMap(degree={self.degree}, blocks={sorted(map(str, self.blocks))})"


def split_homogeneous(source: GradedSpace, target: GradedSpace,
                      matrix: np.ndarray) -> dict[Degree, HomogeneousMap]:
    """Decompose a dense matrix into its homogeneous components by degree.

    Nonzero components only; the sum of the dense forms recovers the input.
    """
    matrix = np.asarray(matrix, dtype=complex)
    out: dict[Degree, HomogeneousMap] = {}
    for tdeg in target.degrees:
        for sdeg in source.degrees:
            d = tdeg * sdeg
            block = matrix[target.slice_of(tdeg), source.slice_of(sdeg)]
            if not np.any(block):
                continue
            comp = out.get(d)
            if comp is None:
                comp = HomogeneousMap.zero(source, target, d)
                out[d] = comp
            comp.blocks[sdeg] = np.array(block)
    return out


class TensorProductSpace(GradedSpace):
    """Graded tensor product; remembers which basis pair each basis vector is.

    Within a result degree, pairs are ordered by (degree of the left factor,
    left index, right index).
    """

    def __init__(self, left: GradedSpace, right: GradedSpace):
        if left.rank != right.rank:
            raise RankMismatchError("tensor factors must share a rank")
        self.left = left
        self.right = right
        pairs_by_degree: dict[Degree, list[tuple[int, int]]] = {}
        for a in sorted({b * c for b in left.degrees for c in right.degrees}):
            plist = []
            for b in left.degrees:
                c = a * b
                if right.dim(c) == 0:
                    continue
                loff, roff = left.slice_of(b).start, right.slice_of(c).start
                for i in range(left.dims[b]):
                    for j in range(right.dims[c]):
                        plist.append((loff + i, roff + j))
            if plist:
                pairs_by_degree[a] = plist
        super().__init__(left.rank, {a: len(p) for a, p in pairs_by_degree.items()})
        self.pairs: list[tuple[int, int]] = []
        for a in self.degrees:
            self.pairs.extend(pairs_by_degree[a])
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}

    def pure_tensor(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        w = np.asarray(w, dtype=complex)
        out = np.empty(self.total_dim, dtype=complex)
        for k, (i, j) in enumerate(self.pairs):
            out[k] = v[i] * w[j]
        return out


def tensor_space(left: GradedSpace, right: GradedSpace) -> TensorProductSpace:
    """Graded tensor product with sector dims summed over degree factorizations."""
    return TensorProductSpace(left, right)


def symmetry(left: GradedSpace, right: GradedSpace) -> HomogeneousMap:
    """The braiding V (x) W -> W (x) V: swap with the commutation sign beta.

    Degree zero; composing the two directions gives the identity because the
    sign is symmetric in its arguments.
    """
    src = tensor_space(left, right)
    dst = tensor_space(right, left)
    mat = np.zeros((dst.total_dim, src.total_dim), dtype=complex)
    for k, (i, j) in enumerate(src.pairs):
        sign = beta(left.basis_degrees[i], right.basis_degrees[j])
        mat[dst.pair_index[(j, i)], k] = sign
    return HomogeneousMap.from_dense(src, dst, Degree.zero(src.rank), mat)


def tensor_map(f: HomogeneousMap, g: HomogeneousMap,
               source: TensorProductSpace | None = None,
               target: TensorProductSpace | None = None) -> HomogeneousMap:
    """The graded tensor product of maps: (f(x)g)(v(x)w) = beta(|g|,|v|) f(v)(x)g(w)."""
    if source is None:
        source = tensor_space(f.source, g.source)
    if target is None:
        target = tensor_space(f.target, g.target)
    fd, gd = f.to_dense(), g.to_dense()
    mat = np.zeros((target.total_dim, source.total_dim), dtype=complex)
    for k, (i, j) in enumerate(source.pairs):
        sign = beta(g.degree, f.source.basis_degrees[i])
        col = sign * np.outer(fd[:, i], gd[:, j])
        for m, (p, q) in enumerate(target.pairs):
            mat[m, k] += col[p, q]
    return HomogeneousMap.from_dense(source, target, f.degree * g.degree, mat)


class GammaInnerSpace:
    """A graded space with an ordinary inner product, one Hermitian positive
    definite Gram matrix per degree.

    The ordinary inner product is linear in the first slot and conjugate linear
    in the second, and different degrees are orthogonal.  The graded form is
    obtained by multiplying with the conjugated phase alpha of the degree; see
    :func:`gamma_inner`.
    """

    def __init__(self, space: GradedSpace, gram: dict[Degree, np.ndarray]):
        self.space = space
        self.gram: dict[Degree, np.ndarray] = {}
        for deg in space.degrees:
            g = gram.get(deg)
            if g is None:
                raise ValueError(f"missing Gram matrix for sector {deg}")
            g = np.asarray(g, dtype=complex)
            d = space.dims[deg]
            if g.shape != (d, d):
                raise ValueError(f"Gram at {deg} has shape {g.shape}, expected {(d, d)}")
            if not np.isfinite(g).all():
                raise PositivityError(f"Gram at {deg} has non-finite entries")
            herm = float(np.max(np.abs(g - g.conj().T)))
            scale = max(1.0, float(np.max(np.abs(g))))
            if herm > _HERMITIAN_RTOL * scale:
                raise PositivityError(f"Gram at {deg} is not Hermitian (residual {herm:.3e})")
            g = (g + g.conj().T) / 2.0
            evals = np.linalg.eigvalsh(g)
            if evals[0] <= 0:
                raise PositivityError(
                    f"Gram at {deg} is not positive definite (min eigenvalue {evals[0]:.3e})")
            self.gram[deg] = g

    @classmethod
    def standard(cls, space: GradedSpace) -> "GammaInnerSpace":
        return cls(space, {deg: np.eye(d) for deg, d in space.dims.items()})

    def gram_dense(self) -> np.ndarray:
        out = np.zeros((self.space.total_dim, self.space.total_dim), dtype=complex)
        for deg, g in self.gram.items():
            s = self.space.slice_of(deg)
            out[s, s] = g
        return out

    def ordinary_inner(self, v: np.ndarray, w: np.ndarray) -> complex:
        """(v, w): linear in v, conjugate linear in w, degrees orthogonal."""
        total = 0.0 + 0.0j
        for deg, g in self.gram.items():
            s = self.space.slice_of(deg)
            total += np.conj(np.asarray(w)[s]) @ (g @ np.asarray(v)[s])
        return complex(total)

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(0.0, self.ordinary_inner(v, v).real)))

    def __repr__(self) -> str:
        return f"GammaInnerSpace({self.space!r})"


def gamma_inner(h: GammaInnerSpace, v: np.ndarray, w: np.ndarray,
                twist: Character | None = None) -> complex:
    """The graded sesquilinear form derived from the ordinary inner product.

    On a homogeneous degree a it equals conj(alpha(a)) times the ordinary
    inner product; inhomogeneous vectors are handled componentwise.  Vectors
    of different degrees pair to zero.
    """
    total = 0.0 + 0.0j
    for deg, g in h.gram.items():
        s = h.space.slice_of(deg)
        phase = alpha(deg, twist).conjugate().value
        total += phase * (np.conj(np.asarray(w)[s]) @ (g @ np.asarray(v)[s]))
    return complex(total)


def tensor_inner(h: GammaInnerSpace, k: GammaInnerSpace) -> GammaInnerSpace:
    """Inner product on the tensor product induced by the graded forms.

    The graded form of a pair of pure tensors picks up the commutation sign
    between the inner factors; converting back through alpha must produce a
    Hermitian positive definite ordinary Gram per degree, and construction
    fails loudly if it does not.
    """
    tp = tensor_space(h.space, k.space)
    gram: dict[Degree, np.ndarray] = {}
    for a in tp.degrees:
        plist = [tp.pairs[i] for i in range(tp.slice_of(a).start, tp.slice_of(a).stop)]
        m = len(plist)
        g = np.zeros((m, m), dtype=complex)
        phase_a = alpha(a).value
        for col, (i, j) in enumerate(plist):
            b = h.space.basis_degrees[i]
            c = k.space.basis_degrees[j]
            sign = beta(c, b)
            ph = phase_a * sign * alpha(b).conjugate().value * alpha(c).conjugate().value
            gb, gc = h.gram[b], k.gram[c]
            ib = i - h.space.slice_of(b).start
            jc = j - k.space.slice_of(c).start
            for row, (p, q) in enumerate(plist):
                if h.space.basis_degrees[p] != b:
                    continue  # graded forms of unequal degrees vanish
                pb = p - h.space.slice_of(b).start
                qc = q - k.space.slice_of(c).start
                g[row, col] = ph * gb[pb, ib] * gc[qc, jc]
        gram[a] = g
    return GammaInnerSpace(tp, gram)


def star_adjoint(h: GammaInnerSpace, t: HomogeneousMap) -> HomogeneousMap:
    """Adjoint with respect to the ordinary inner product; same degree as t.

    Blockwise: the block of t* at source degree c solves
    G(dc) t*_c = t_{dc}^H G(c) where d is the degree of t.
    """
    if t.source is not h.space and t.source != h.space:
        raise ValueError("map does not act on the given inner product space")
    if t.target != t.source:
        raise ValueError("adjoints are defined for endomorphisms only")
    d = t.degree
    blocks = {}
    for c in h.space.degrees:
        dc = d * c
        block = t.blocks.get(dc)  # maps component dc -> component c
        if block is None or h.space.dim(dc) == 0:
            continue
        g_dc = h.gram[dc]
        g_c = h.gram[c]
        blocks[c] = np.linalg.solve(g_dc, block.conj().T @ g_c)
    return HomogeneousMap(t.source, t.target, d, blocks)


def dagger_adjoint(h: GammaInnerSpace, t: HomogeneousMap,
                   twist: Character | None = None) -> HomogeneousMap:
    """Adjoint with respect to the graded form: alpha(|t|) times the ordinary one.

    Applying it twice gives the map back, and on a product it contributes the
    commutation sign of the factors' degrees.
    """
    phase = alpha(t.degree, twist).value
    return star_adjoint(h, t) * phase