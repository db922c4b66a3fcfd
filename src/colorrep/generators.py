"""Ready-made algebras and representations used by tests and the CLI.

Everything here is small and concrete: a two-generator algebra with an odd
square root of an even element, the algebra of graded-skew matrices on a
graded space together with its defining representation, the rank-2 one-line
algebra whose partial data cannot extend, and randomized variants obtained
by degree-preserving changes of basis.
"""
from __future__ import annotations

import numpy as np

from .colorlie import ColorLieAlgebra, ad_operator, beta_signs, glV
from .grading import Character, Degree, alpha, ucount
from .hcpair import GroupElement, HCPair
from .reps import UnitaryRep
from .spaces import GammaInnerSpace, GradedSpace, HomogeneousMap

# off-identity scale of the random changes of basis, on a space and an algebra
_REP_SPREAD = 0.4
_ALGEBRA_SPREAD = 0.3


def clifford_algebra() -> ColorLieAlgebra:
    """Two generators: even x, odd y, with [y, y] = x and all else zero."""
    degs = [Degree((0,)), Degree((1,))]
    return ColorLieAlgebra(1, ["x", "y"], degs, {(1, 1, 0): 1.0}, validate=True)


def clifford_rep(k: int, b=None, seed: int | None = None) -> UnitaryRep:
    """A representation of the two-generator algebra on a (k|k) space.

    The odd operator is [[0, -i b^H], [b, 0]] for an arbitrary k-by-k block
    b, which makes it graded-skew for the standard inner product; the even
    operator is forced to twice its square by the bracket.
    """
    if b is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    b = np.asarray(b, dtype=complex)
    if b.shape != (k, k):
        raise ValueError(f"block must be {k}x{k}, got {b.shape}")
    l = clifford_algebra()
    even, odd = Degree((0,)), Degree((1,))
    space = GradedSpace(1, {even: k, odd: k})
    rho_y = np.zeros((2 * k, 2 * k), dtype=complex)
    rho_y[:k, k:] = -1j * b.conj().T
    rho_y[k:, :k] = b
    rho_x = 2.0 * (rho_y @ rho_y)
    inner = GammaInnerSpace.standard(space)
    rho = [HomogeneousMap.from_dense(space, space, even, rho_x),
           HomogeneousMap.from_dense(space, space, odd, rho_y)]
    return UnitaryRep(HCPair(l), inner, rho)


def clifford_parity_generator(k: int) -> GroupElement:
    """Sign flip of the odd generator, acting as diag(1, -1) blockwise."""
    pi = np.diag([1.0] * k + [-1.0] * k).astype(complex)
    return GroupElement("parity", np.diag([1.0, -1.0]), pi)


def counterexample_algebra() -> ColorLieAlgebra:
    """One abelian line in the even-like rank-2 sector (1,1).

    There are no odd-like elements at all, so nothing brackets into the
    (1,1) sector and partial data over it can never extend.
    """
    deg = Degree((1, 1))
    return ColorLieAlgebra(2, ["z"], [deg], {}, validate=True)


def counterexample_prerep():
    """The vacuous partial data over the inextensible one-line algebra."""
    from .reps import PartialRep

    l = counterexample_algebra()
    space = GradedSpace(2, {Degree((0, 0)): 1})
    return PartialRep(HCPair(l), GammaInnerSpace.standard(space), {})


def _skew_basis(v: GradedSpace):
    """Basis (label, degree, matrix) of the graded-skew matrices on v."""
    t = v.total_dim
    width = len(str(max(t - 1, 1)))
    out = []

    def unit(p, q):
        m = np.zeros((t, t), dtype=complex)
        m[p, q] = 1.0
        return m

    for p in range(t):
        out.append((f"h{p:0{width}d}", Degree.zero(v.rank), 1j * unit(p, p)))
    for p in range(t):
        for q in range(p + 1, t):
            a = v.basis_degrees[p] * v.basis_degrees[q]
            ph = alpha(a).value
            out.append((f"a{p:0{width}d}_{q:0{width}d}", a,
                        unit(p, q) - ph * unit(q, p)))
            out.append((f"b{p:0{width}d}_{q:0{width}d}", a,
                        1j * unit(p, q) + 1j * ph * unit(q, p)))
    out.sort(key=lambda item: (item[1].bits, item[0]))
    return out


def skew_matrix_algebra(v: GradedSpace, validate: bool = True):
    """The graded-skew matrices on a space, with their defining representation.

    Returns (algebra, rep).  The bracket is the beta-twisted commutator of
    matrices.  On or above the diagonal each basis matrix has one nonzero
    entry, 1 or i, and no two share both entry and part (h_p is i at (p, p),
    a_pq and b_pq are 1 and i at (p, q)), so a bracket's coordinates are
    real or imaginary parts of its entries: sums of a few unit phases,
    hence exact, and real because the span is a real form.  A bracket that
    its coordinates do not rebuild left the span.
    """
    basis = _skew_basis(v)
    labels = [b[0] for b in basis]
    degs = [b[1] for b in basis]
    d = len(basis)
    t = v.total_dim
    mats = np.array([b[2] for b in basis]).reshape(d, t, t)

    # the owned entry of each basis matrix, and the phase that reads it
    _, owned = np.nonzero(np.triu(mats).reshape(d, t * t))
    read = mats.reshape(d, t * t)[np.arange(d), owned].conj()
    flat = mats.reshape(d, t * t).view(float)
    signs = beta_signs(degs)[:, :, None, None]
    side = mats.transpose(1, 0, 2).reshape(t, d * t)   # [x_0 | x_1 | ...]

    structure = {}
    for i in range(d):
        left = (mats[i] @ side).reshape(t, d, t).transpose(1, 0, 2)
        right = (mats.reshape(d * t, t) @ mats[i]).reshape(d, t, t)
        br = (left - signs[i] * right).reshape(d, t * t)
        coeffs = (br[:, owned] * read).real
        target = br.view(float)
        resid = np.linalg.norm(coeffs @ flat - target, axis=1)
        bad = np.flatnonzero(resid > 1e-9 * np.maximum(
            1.0, np.linalg.norm(target, axis=1)))
        if bad.size:
            j = int(bad[0])
            raise RuntimeError(
                f"bracket of {labels[i]}, {labels[j]} left the span "
                f"(residual {resid[j]:.3e})")
        structure.update({(i, j, k): coeffs[j, k] for j, k in np.argwhere(coeffs).tolist()})
    l = ColorLieAlgebra(v.rank, labels, degs, structure, validate=validate)

    inner = GammaInnerSpace.standard(v)
    rho = [HomogeneousMap.from_dense(v, v, degs[i], mats[i]) for i in range(d)]
    rep = UnitaryRep(HCPair(l), inner, rho)
    return l, rep


def character_generator(v: GradedSpace, l: ColorLieAlgebra,
                        chi: Character) -> GroupElement:
    """Group element scaling each sector of a defining representation.

    Valid for representations whose operators are the basis matrices
    themselves: conjugation by diag(chi on the space) scales a matrix of
    degree a by chi(a), matching the sector scaling on the algebra.
    """
    ad = np.diag([float(chi(deg)) for deg in l.degrees])
    pi = np.diag([complex(chi(deg)) for deg in v.basis_degrees])
    return GroupElement(f"chi{chi.signs}", ad, pi)


def _block_change(space: GradedSpace, rng) -> np.ndarray:
    """Random degree-preserving invertible matrix, mildly conditioned."""
    t = space.total_dim
    p = np.zeros((t, t), dtype=complex)
    for deg in space.degrees:
        sl = space.slice_of(deg)
        k = space.dim(deg)
        p[sl, sl] = (np.eye(k) + _REP_SPREAD * rng.normal(size=(k, k))
                     + 1j * _REP_SPREAD * rng.normal(size=(k, k)))
    return p


def conjugated_rep(rep: UnitaryRep, seed: int) -> UnitaryRep:
    """Transport a representation along a random change of basis.

    The new operators are P rho P^-1 and the inner product moves with them,
    so validity is preserved while the gram matrices become nontrivial.
    """
    rng = np.random.default_rng(seed)
    space = rep.inner.space
    p = _block_change(space, rng)
    pinv = np.linalg.inv(p)
    gram = {}
    for deg in space.degrees:
        sl = space.slice_of(deg)
        block = pinv[sl, sl]
        gram[deg] = block.conj().T @ rep.inner.gram[deg] @ block
    inner = GammaInnerSpace(space, gram)
    l = rep.algebra
    rho = [HomogeneousMap.from_dense(
        space, space, l.degrees[i], p @ rep.rho_matrix(i) @ pinv)
        for i in range(l.dim)]
    gens = [GroupElement(g.label, g.ad,
                         None if g.pi is None else p @ g.pi @ pinv)
            for g in rep.pair.extra_generators]
    pair = HCPair(l, gens, validate=False)
    return UnitaryRep(pair, inner, rho)


def _conjugated_algebra(l: ColorLieAlgebra, rng):
    """Random degree-preserving real change of basis on an algebra."""
    d = l.dim
    t = np.zeros((d, d))
    for deg in sorted(l._sectors):
        idx = l.sector(deg)
        k = len(idx)
        t[np.ix_(idx, idx)] = np.eye(k) + _ALGEBRA_SPREAD * rng.normal(size=(k, k))
    tinv = np.linalg.inv(t)
    # x'_i = sum_p t[p,i] x_p, so ad(x'_i) = tinv ad(sum_p t[p,i] x_p) t
    structure = {}
    for i in range(d):
        row = (tinv @ ad_operator(l, t[:, i]) @ t).T
        structure.update({(i, j, k): row[j, k] for j, k in np.argwhere(row).tolist()})
    return ColorLieAlgebra(l.rank, list(l.labels), list(l.degrees), structure)


def _random_odd_degree(rank: int, rng) -> Degree:
    while True:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=rank))
        if ucount(Degree(bits)) % 2 == 1:
            return Degree(bits)


def random_color_algebra(rank: int, seed: int, max_dim: int = 6) -> ColorLieAlgebra:
    """A random verified color Lie algebra of dimension at most max_dim.

    Draws from three families: abelian with random degrees, a central
    extension by squares of odd generators, and endomorphism algebras of
    two-line spaces; all conjugated by a random degree-preserving change of
    basis so the structure constants are generic floats.
    """
    rng = np.random.default_rng(seed)
    family = int(rng.integers(0, 3))
    if family == 0:
        d = int(rng.integers(1, max_dim + 1))
        degs = [Degree(tuple(int(b) for b in rng.integers(0, 2, size=rank)))
                for _ in range(d)]
        labels = [f"z{i}" for i in range(d)]
        base = ColorLieAlgebra(rank, labels, degs, {})
    elif family == 1:
        # odd generators sharing one sector, bracketing into a central line
        m = int(rng.integers(1, max_dim))
        a = _random_odd_degree(rank, rng)
        degs = [Degree.zero(rank)] + [a] * m
        labels = ["z"] + [f"y{i}" for i in range(m)]
        g = rng.normal(size=(m, m))
        g = g + g.T
        base = ColorLieAlgebra(rank, labels, degs, {
            (1 + p, 1 + q, 0): g[p, q] for p in range(m) for q in range(m)})
    else:
        d1 = Degree(tuple(int(b) for b in rng.integers(0, 2, size=rank)))
        d2 = Degree(tuple(int(b) for b in rng.integers(0, 2, size=rank)))
        space = GradedSpace(rank, {d1: 1, d2: 1} if d1 != d2 else {d1: 2})
        base = glV(space)
    return _conjugated_algebra(base, rng)
