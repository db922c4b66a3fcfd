"""Shared random builders for the test suite.  Everything is seeded."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np

from colorrep.colorlie import ColorLieAlgebra, glV
from colorrep.enveloping import EnvElement, MonoidElement
from colorrep.generators import clifford_rep, conjugated_rep, skew_matrix_algebra
from colorrep.gns import PDFunction, normal_words
from colorrep.grading import Degree, all_degrees
from colorrep.hcpair import GroupElement, HCPair
from colorrep.reps import UnitaryRep
from colorrep.spaces import (GammaInnerSpace, GradedSpace, HomogeneousMap,
                             tensor_inner, tensor_map, tensor_space)


def env_max_diff(d1, d2):
    """Largest coefficient gap between two enveloping elements, over the
    joint support."""
    keys = set(d1.terms) | set(d2.terms)
    return max((abs(d1.coefficient(w) - d2.coefficient(w)) for w in keys),
               default=0.0)


def env_from_vector(l, coeffs):
    """Degree-one enveloping element from a coefficient vector on the basis."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (l.dim,):
        raise ValueError(f"coefficient vector must have length {l.dim}")
    return EnvElement(l, {(int(i),): coeffs[i] for i in np.flatnonzero(coeffs)})


def apply(t, v):
    """A homogeneous map applied to a vector, block by block."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros(t.target.total_dim, dtype=complex)
    for b, mat in t.blocks.items():
        out[t.target.slice_of(t.degree * b)] += mat @ v[t.source.slice_of(b)]
    return out


def distance(s, t):
    """The Frobenius distance between two homogeneous maps."""
    return (s - t).norm()


def bind(g, pi):
    """A group element with a representation-space matrix attached, keeping
    its algebra action."""
    return GroupElement(g.label, g.ad, pi)


def traced_peak_mb(fn):
    """(the traced peak of Python allocations while fn() runs, in MB, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 1e6, result
    finally:
        tracemalloc.stop()


def dense_constants(l):
    """The structure constants as a dense (d, d, d) array, built from the triples."""
    t = l.triples
    c = np.zeros((l.dim,) * 3)
    c[t.i, t.j, t.k] = t.c
    return c


def random_space(rng, rank, max_dim=3, min_sectors=1, ensure_zero=False):
    """A graded space with a random nonempty subset of sectors."""
    degs = all_degrees(rank)
    dims = {}
    for d in degs:
        if rng.random() < 0.6:
            dims[d] = int(rng.integers(1, max_dim + 1))
    if ensure_zero:
        dims.setdefault(Degree.zero(rank), int(rng.integers(1, max_dim + 1)))
    while len(dims) < min_sectors:
        d = degs[int(rng.integers(len(degs)))]
        dims[d] = int(rng.integers(1, max_dim + 1))
    return GradedSpace(rank, dims)


def random_gram(rng, d):
    """Hermitian positive definite with eigenvalues bounded away from zero."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a.conj().T @ a + 0.5 * np.eye(d)


def random_gamma_space(rng, space=None, rank=None, max_dim=3, identity=False):
    if space is None:
        space = random_space(rng, rank, max_dim=max_dim)
    if identity:
        return GammaInnerSpace.standard(space)
    return GammaInnerSpace(space, {deg: random_gram(rng, d) for deg, d in space.dims.items()})


def random_homog_map(rng, space, degree):
    """Random homogeneous endomorphism of the given degree."""
    blocks = {}
    for b in space.degrees:
        tb = degree * b
        if space.dim(tb) == 0:
            continue
        shape = (space.dim(tb), space.dim(b))
        blocks[b] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return HomogeneousMap(space, space, degree, blocks)


def random_vector(rng, space):
    return rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)


def random_homog_vector(rng, space, degree):
    v = np.zeros(space.total_dim, dtype=complex)
    s = space.slice_of(degree)
    n = s.stop - s.start
    v[s] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v


def spoiled_clifford(value):
    """clifford_rep(1, b=[[1.0]]) with ``value`` at entry [1, 0] of rho(y)."""
    r = clifford_rep(1, b=[[1.0]])
    space = r.inner.space
    m = r.rho_matrix(1).copy()
    m[1, 0] = value
    odd = HomogeneousMap.from_dense(space, space, r.algebra.degrees[1], m)
    return UnitaryRep(r.pair, r.inner, [r.rho[0], odd])


def spoiled_four_lines():
    """glV of the rank-2 four-lines space with one structure constant off by 0.5."""
    l = glV(GradedSpace(2, {d: 1 for d in all_degrees(2)}))
    c = dense_constants(l)
    c[3, 5, 9] += 0.5
    return ColorLieAlgebra(l.rank, l.labels, l.degrees, c)


def random_structure(seed=7, graded_antisymmetric=False):
    """A dim-9 rank-2 algebra with random structure constants.

    With ``graded_antisymmetric`` the tensor is projected onto the graded,
    beta-antisymmetric ones, so that only the Jacobi law can fail.
    """
    rng = np.random.default_rng(seed)
    degrees = [all_degrees(2)[int(k)] for k in rng.integers(0, 4, size=9)]
    l = ColorLieAlgebra(2, [f"z{i}" for i in range(9)], degrees,
                        rng.standard_normal((9, 9, 9)))
    if not graded_antisymmetric:
        return l
    c = dense_constants(l)
    c = 0.5 * (c - l.beta_table[:, :, None] * c.transpose(1, 0, 2))
    codes = l.deg_codes
    c[(codes[:, None, None] ^ codes[None, :, None]) != codes[None, None, :]] = 0.0
    return ColorLieAlgebra(2, l.labels, l.degrees, c)


@functools.lru_cache(maxsize=1)
def four_lines_values():
    """The algebra of the four-lines skew-matrix rep and a seeded coefficient.

    The diagonal coefficient of its conjugated rep (seed 7) at e0, on the
    normal words up to length 4, as the benchmark's pd-table inputs are.
    The algebra has dim 16, and 8 of its letters have beta(k, k) = -1.
    """
    space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
    r = conjugated_rep(skew_matrix_algebra(space)[1], seed=7)
    l = r.algebra
    psi = PDFunction.from_rep(r, np.array([1.0, 0.0, 0.0, 0.0]))
    return l, {w: psi(MonoidElement.from_env(EnvElement(l, {w: 1.0})))
               for w in normal_words(l, 4)}


def cut_four_lines_table():
    """``four_lines_values`` cut to the words of length at most 3.

    The level-2 Gram reads zeros for the words of length 4, so it is
    indefinite: the function is refused as not positive at level 2.
    """
    l, values = four_lines_values()
    return PDFunction.from_table(
        l, {w: v for w, v in values.items() if len(w) <= 3})


@functools.lru_cache(maxsize=1)
def four_lines_square_values():
    """The four-lines algebra and the coefficient of e0 (x) e0 in the graded
    tensor square of its conjugated rep (seed 7), on the normal words up to
    length 6.

    Level-1 words reach only v and x v = x e0 (x) e0 + (sign) e0 (x) x e0,
    so the Gram rank grows up to level 2 (rank 8), and a table rebuild
    retains the 145 level-2 samples.
    """
    space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
    r = conjugated_rep(skew_matrix_algebra(space)[1], seed=7)
    l = r.algebra
    one = HomogeneousMap.identity(space)
    square = tensor_space(space, space)
    rho = [tensor_map(x, one, square, square) + tensor_map(one, x, square, square)
           for x in r.rho]
    r2 = UnitaryRep(HCPair(l), tensor_inner(r.inner, r.inner), rho)
    e0 = np.eye(4)[0]
    psi = PDFunction.from_rep(r2, square.pure_tensor(e0, e0))
    return l, {w: psi(MonoidElement.from_env(EnvElement(l, {w: 1.0})))
               for w in normal_words(l, 6)}


def one_line_algebra():
    """Single even generator with zero bracket."""
    return ColorLieAlgebra(1, ["h"], [Degree((0,))], np.zeros((1, 1, 1)),
                           validate=True)


def moment_table():
    """The moments of the standard Gaussian on ``one_line_algebra``.

    psi(h^k) = i^k E[t^k] on the words up to length 12.  The measure has
    full support, so every Hankel slice adds rank: the Gram rank is L + 1 at
    level L, and the function is not of finite type.
    """
    g = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0, 12: 10395.0}
    return PDFunction.from_table(
        one_line_algebra(), {(0,) * k: (1j) ** k * g[k] for k in range(0, 13, 2)})


def three_cycle_rep():
    """rho = 0 on ``one_line_algebra`` and pi(h) a 3-cycle on C^3.

    Returns the representation, h and v = e1.  The vector is cyclic, but
    e3 = h h e1 is reached only through a product of group samples.
    """
    l = one_line_algebra()
    space = GradedSpace(1, {Degree((0,)): 3})
    h = GroupElement("h", np.eye(1), np.roll(np.eye(3), 1, axis=0))
    zero = HomogeneousMap.from_dense(space, space, l.degrees[0],
                                     np.zeros((3, 3)))
    r = UnitaryRep(HCPair(l, [h]), GammaInnerSpace.standard(space), [zero])
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    return r, h, v
