"""Color Lie algebras: structure constants, axioms, perfectness, decomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_space, random_structure, spoiled_four_lines

from colorrep import colorlie
from colorrep.errors import AxiomError, PerfectnessError
from colorrep.colorlie import (
    ColorLieAlgebra,
    bracket,
    check_axioms,
    check_perfectness,
    decompose_odd,
    glV,
    odd_pair_columns,
)
from colorrep.generators import clifford_algebra
from colorrep.grading import Degree, beta
from colorrep.spaces import GradedSpace


def _d(bits):
    return Degree(tuple(int(c) for c in bits))


def _gl11():
    return glV(GradedSpace(1, {_d("0"): 1, _d("1"): 1}))


def _four_lines():
    # one line in every rank-2 sector
    return GradedSpace(2, {d: 1 for d in (_d("00"), _d("01"), _d("10"), _d("11"))})


def _abelian(rank, degrees):
    d = len(degrees)
    labels = [f"z{i}" for i in range(d)]
    return ColorLieAlgebra(rank, labels, degrees, np.zeros((d, d, d)))


# frozen by hand for gl of a (1|1) space, basis order
# [E0_0, E1_1, E0_1, E1_0] = indices [0, 1, 2, 3]:
#   [E0_0, E0_1] = E0_1      [E0_0, E1_0] = -E1_0
#   [E1_1, E0_1] = -E0_1     [E1_1, E1_0] = E1_0
#   [E0_1, E1_0] = E0_0 + E1_1   (odd-odd, anticommutator)
#   [E0_1, E0_1] = 0
GL11_TABLE = {
    (0, 2): {2: 1.0},
    (0, 3): {3: -1.0},
    (1, 2): {2: -1.0},
    (1, 3): {3: 1.0},
    (2, 3): {0: 1.0, 1: 1.0},
    (3, 2): {0: 1.0, 1: 1.0},
    (2, 2): {},
    (3, 3): {},
    (0, 0): {},
    (0, 1): {},
}


def test_gl11_basis_order():
    l = _gl11()
    assert l.labels == ["E0_0", "E1_1", "E0_1", "E1_0"]
    assert [str(d) for d in l.degrees] == ["0", "0", "1", "1"]


def test_gl11_frozen_table():
    l = _gl11()
    for (i, j), expect in GL11_TABLE.items():
        got = l.structure[i, j]
        want = np.zeros(4)
        for k, c in expect.items():
            want[k] = c
        assert np.array_equal(got, want), (i, j, got)


def test_glv_matches_matrix_commutator_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        v = random_space(rng, int(rng.integers(1, 3)), max_dim=2, min_sectors=2)
        l = glV(v)
        t = v.total_dim
        units = [(p, q) for p in range(t) for q in range(t)]
        # the sorted basis permutes the units; recover the unit per label
        label_to_unit = {}
        width = len(str(t - 1))
        for p, q in units:
            label_to_unit[f"E{p:0{width}d}_{q:0{width}d}"] = (p, q)
        mats = []
        for lab in l.labels:
            p, q = label_to_unit[lab]
            m = np.zeros((t, t))
            m[p, q] = 1.0
            mats.append(m)
        for i in range(l.dim):
            for j in range(l.dim):
                sign = beta(l.degrees[i], l.degrees[j])
                comm = mats[i] @ mats[j] - sign * mats[j] @ mats[i]
                built = sum(l.structure[i, j, k] * mats[k] for k in range(l.dim))
                assert np.allclose(comm, built)


def test_bracket_bilinear():
    l = _gl11()
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    direct = bracket(l, x, y)
    expanded = sum(x[i] * y[j] * l.structure[i, j] for i in range(4) for j in range(4))
    assert np.allclose(direct, expanded)


def test_constructor_sorts_basis():
    l = _gl11()
    perm = [3, 0, 2, 1]
    shuffled = ColorLieAlgebra(
        1,
        [l.labels[i] for i in perm],
        [l.degrees[i] for i in perm],
        l.structure[np.ix_(perm, perm, perm)],
    )
    assert shuffled.labels == l.labels
    assert np.allclose(shuffled.structure, l.structure)


def test_check_axioms_glv():
    for space in (GradedSpace(1, {_d("0"): 2}), _four_lines(),
                  GradedSpace(2, {_d("00"): 1, _d("01"): 2})):
        rep = check_axioms(glV(space))
        assert rep.passed
        assert rep.max_residual() == 0.0  # integer structure constants


def test_check_axioms_flags_mutations():
    l = _gl11()
    bad = l.structure.copy()
    bad[2, 3, 0] = -1.0  # breaks antisymmetry against [3, 2]
    mutated = ColorLieAlgebra(1, l.labels, l.degrees, bad)
    rep = check_axioms(mutated)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "antisymmetry" in failed or "jacobi" in failed

    bad2 = l.structure.copy()
    bad2[0, 1, 2] = 0.5  # even bracket landing in an odd sector
    mutated2 = ColorLieAlgebra(1, l.labels, l.degrees, bad2)
    rep2 = check_axioms(mutated2)
    assert not any(c.passed for c in rep2.checks if c.name == "grading")


def test_validate_on_construction():
    l = _gl11()
    bad = l.structure.copy()
    bad[2, 3, 0] = 7.0
    with pytest.raises(AxiomError):
        ColorLieAlgebra(1, l.labels, l.degrees, bad, validate=True)
    ColorLieAlgebra(1, l.labels, l.degrees, l.structure, validate=True)


def test_abelian_any_degrees_is_valid():
    l = _abelian(2, [_d("01"), _d("01"), _d("11")])
    assert check_axioms(l).passed


def test_counterexample_fails_perfectness():
    l = _abelian(2, [_d("11")])
    rep = check_perfectness(l)
    assert not rep.passed
    assert rep.context["sectors"]["11"] == {"dim": 1, "rank": 0}


def test_perfectness_vacuous_without_even_sectors():
    l = _abelian(1, [_d("1"), _d("1")])
    rep = check_perfectness(l)
    assert rep.passed


def test_glv_four_lines_perfect_with_matrix_oracle():
    v = _four_lines()
    l = glV(v)
    rep = check_perfectness(l)
    # independent oracle: span of brackets of odd endomorphism matrices
    t = v.total_dim
    mats = {}
    units = [(p, q) for p in range(t) for q in range(t)]
    for p, q in units:
        m = np.zeros((t, t))
        m[p, q] = 1.0
        mats[(p, q)] = m
    for a in l.even_nonzero_degrees():
        odd_mats = []
        for i, deg in enumerate(l.degrees):
            if deg in l.odd_degrees():
                pass
        # collect matrices by degree directly from the space
        by_deg = {}
        for p, q in units:
            d = v.basis_degrees[p] * v.basis_degrees[q]
            by_deg.setdefault(d, []).append(mats[(p, q)])
        spans = []
        for b in l.odd_degrees():
            c = a * b
            for mb in by_deg.get(b, []):
                for mc in by_deg.get(c, []):
                    sign = beta(b, c)
                    spans.append((mb @ mc - sign * mc @ mb).ravel())
        rank_oracle = np.linalg.matrix_rank(np.array(spans)) if spans else 0
        dim_a = len(by_deg.get(a, []))
        verdict = rep.context["sectors"][str(a)]
        assert verdict["dim"] == dim_a
        assert verdict["rank"] == rank_oracle
    assert rep.passed


def test_subset_of_columns_never_increases_rank():
    l = glV(_four_lines())
    for a in l.even_nonzero_degrees():
        _, columns = odd_pair_columns(l, a)
        full = np.linalg.matrix_rank(columns)
        half = np.linalg.matrix_rank(columns[:, : columns.shape[1] // 2])
        assert half <= full


def test_decompose_odd_roundtrip():
    l = glV(_four_lines())
    a = _d("11")
    for idx in l.sector(a):
        x = np.zeros(l.dim)
        x[idx] = 1.0
        dec = decompose_odd(l, x)
        assert dec.degree == a
        assert np.linalg.norm(dec.evaluate(l) - x) < 1e-9
        # a reweighted solve gives another valid decomposition
        dec2 = decompose_odd(l, x, weight_seed=5)
        assert np.linalg.norm(dec2.evaluate(l) - x) < 1e-9


def test_decompose_odd_rejects_bad_input():
    l = glV(_four_lines())
    with pytest.raises(ValueError):
        decompose_odd(l, np.ones(l.dim))  # not homogeneous
    odd_idx = l.sector(_d("01"))[0]
    x = np.zeros(l.dim)
    x[odd_idx] = 1.0
    with pytest.raises(ValueError):
        decompose_odd(l, x)  # odd sector
    dec = decompose_odd(l, np.zeros(l.dim))
    assert dec.terms == [] and dec.degree is None


def test_decompose_odd_unsaturated_sector_raises():
    l = _abelian(2, [_d("11")])
    x = np.array([1.0])
    with pytest.raises(PerfectnessError) as err:
        decompose_odd(l, x)
    assert err.value.sector == _d("11")


def test_ad_matrix_columns():
    l = _gl11()
    a = l.ad_matrix(2)  # ad of E0_1
    assert np.allclose(a[:, 3], [1.0, 1.0, 0, 0])
    assert np.allclose(a[:, 2], 0)


def test_jacobi_fails_on_a_nan_structure_constant():
    l = glV(GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1}))
    c = l.structure.copy()
    c[0, 0, 0] = np.nan
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c, validate=False)
    jacobi = next(x for x in check_axioms(bad).checks if x.name == "jacobi")
    assert not jacobi.passed
    assert np.isnan(jacobi.residual)
    assert jacobi.detail.startswith("worst triple")


@pytest.mark.parametrize("name, at, where", [
    ("antisymmetry", (1, 1, 0), "worst at (y, y)"),
    ("grading", (0, 1, 0), "worst at (x, y) -> x"),
])
def test_nan_residual_names_its_location(name, at, where):
    l = clifford_algebra()
    c = l.structure.copy()
    c[at] = np.nan
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c, validate=False)
    check = next(x for x in check_axioms(bad).checks if x.name == name)
    assert not check.passed
    assert np.isnan(check.residual)
    assert check.detail == where


def _einsum_jacobi(l):
    """The Jacobi residual and label as the per-i einsum loop computes them."""
    c, d = l.structure, l.dim
    bt = l.beta_table.astype(float)
    top, at = 0.0, None
    for i in range(d):
        lhs = np.einsum("jkm,ml->jkl", c, c[i])
        t1 = np.einsum("jm,mkl->jkl", c[i], c)
        t2 = np.einsum("km,jml->kjl", c[i], c).transpose(1, 0, 2)
        resid = np.abs(lhs - t1 - bt[i][:, None, None] * t2)
        k = int(np.argmax(resid))
        if resid.flat[k] > top or (resid.flat[k] != resid.flat[k] and top == top):
            top, at = float(resid.flat[k]), (i, k)
    if at is None:
        return top, None
    j, k, _ = np.unravel_index(at[1], (d, d, d))
    return top, f"worst triple ({l.labels[at[0]]}, {l.labels[j]}, {l.labels[k]})"


def _nan_gl11():
    l = _gl11()
    c = l.structure.copy()
    c[2, 3, 1] = np.nan
    return ColorLieAlgebra(l.rank, l.labels, l.degrees, c)


@pytest.mark.parametrize("build", [
    spoiled_four_lines,
    random_structure,
    lambda: random_structure(9, graded_antisymmetric=True),
    _nan_gl11,
], ids=["spoiled-glV", "random-tensor", "random-bracket", "nan-gl11"])
def test_jacobi_matches_the_einsum_reference(build):
    l = build()
    want, where = _einsum_jacobi(l)
    check = next(x for x in check_axioms(l).checks if x.name == "jacobi")
    assert not check.passed
    assert check.detail == where
    if np.isnan(want):
        assert np.isnan(check.residual)
    else:
        assert check.residual == pytest.approx(want, rel=1e-12)


def test_jacobi_of_a_spoiled_integer_table_is_exact():
    # dyadic structure constants: every sum is exact in either order
    l = spoiled_four_lines()
    check = next(x for x in check_axioms(l).checks if x.name == "jacobi")
    assert check.residual == _einsum_jacobi(l)[0] == 0.5


_ALGEBRAS = {
    "random-tensor": lambda seed: random_structure(seed),
    "random-bracket": lambda seed: random_structure(seed, graded_antisymmetric=True),
    "glV-four-lines": lambda seed: spoiled_four_lines(),
    "glV-(2|1)": lambda seed: glV(GradedSpace(1, {_d("0"): 2, _d("1"): 1})),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ALGEBRAS)), seed=st.integers(0, 2 ** 16),
       spoils=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.floats(0, 1, exclude_max=True),
                                 st.floats(0, 1, exclude_max=True),
                                 st.sampled_from([np.nan, np.inf, -np.inf])),
                       min_size=1, max_size=4))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_jacobi_matches_the_einsum_reference(name, seed, spoils):
    l = _ALGEBRAS[name](seed)
    c = l.structure.copy()
    for x, y, z, value in spoils:
        c[int(x * l.dim), int(y * l.dim), int(z * l.dim)] = value
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    want, where = _einsum_jacobi(bad)
    check = next(x for x in check_axioms(bad).checks if x.name == "jacobi")
    assert not check.passed
    assert not np.isfinite(want)
    assert np.isnan(check.residual) if np.isnan(want) else check.residual == want
    assert check.detail == where


# the two Jacobi paths on small algebras: the join (forced below its
# dimension cut), in one block of terms or in one block per first index,
# and the dense scan
_PATHS = {"join": {"_DENSE_DIM": 0},
          "join-block-per-i": {"_DENSE_DIM": 0, "_TERM_BLOCK": 1},
          "dense": {}}


def _take(path, mp):
    for name, value in _PATHS[path].items():
        mp.setattr(colorlie, name, value)


@pytest.mark.parametrize("path", ["join", "join-block-per-i"])
@pytest.mark.parametrize("build", [
    spoiled_four_lines,
    random_structure,
    lambda: random_structure(9, graded_antisymmetric=True),
], ids=["spoiled-glV", "random-tensor", "random-bracket"])
def test_the_jacobi_join_matches_the_einsum_reference(build, path, monkeypatch):
    _take(path, monkeypatch)
    l = build()
    want, where = _einsum_jacobi(l)
    check = next(x for x in check_axioms(l).checks if x.name == "jacobi")
    assert check.residual == pytest.approx(want, rel=1e-12)
    assert check.detail == where


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_finite_constants_give_a_nan_jacobi_residual(path, monkeypatch):
    # finite constants whose products overflow: inf - inf is NaN in the join
    # as in the dense scan, and the NaN beats the table's 0.5 violation
    _take(path, monkeypatch)
    l = spoiled_four_lines()
    c = l.structure.copy()
    c[0, 4, 4] *= 1e200   # [E0_0, E0_1] = E0_1
    c[4, 0, 4] *= 1e200
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    assert np.isfinite(bad.structure).all()
    want, where = _einsum_jacobi(bad)
    assert np.isnan(want)
    check = next(x for x in check_axioms(bad).checks if x.name == "jacobi")
    assert not check.passed
    assert np.isnan(check.residual)
    assert check.detail == where


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ALGEBRAS)), seed=st.integers(0, 2 ** 16),
       path=st.sampled_from(sorted(_PATHS)),
       scales=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.floats(150, 300)),
                       min_size=1, max_size=4))
@example(name="random-bracket", seed=218, path="dense", scales=[(0.0, 150.0)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_jacobi_matches_the_einsum_reference(name, seed, path, scales):
    l = _ALGEBRAS[name](seed)
    c = l.structure.copy()
    t = l.triples
    # an algebra without nonzero constants has nothing to scale (seed 218
    # of random-bracket); it is still compared against the reference
    for at, power in scales if len(t.c) else []:
        q = int(at * len(t.c))
        c[t.i[q], t.j[q], t.k[q]] *= 10.0 ** power
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    want, where = _einsum_jacobi(bad)
    with pytest.MonkeyPatch.context() as mp:
        _take(path, mp)
        check = next(x for x in check_axioms(bad).checks if x.name == "jacobi")
    assert check.passed == (want <= 1e-9)
    assert np.isnan(check.residual) if np.isnan(want) else check.residual == pytest.approx(want, rel=1e-12)
    assert check.detail == ("" if check.passed else where)


def test_the_triple_index_lists_the_nonzero_structure_constants():
    l = spoiled_four_lines()
    t = l.triples
    assert t is l.triples   # built once
    dense = np.zeros_like(l.structure)
    dense[t.i, t.j, t.k] = t.c
    assert np.array_equal(dense, l.structure)
    assert np.all(t.c != 0)
    d = l.dim
    for i in range(d):
        for j in range(d):
            lo, hi = t.ptr[i * d + j], t.ptr[i * d + j + 1]
            assert (t.i[lo:hi] == i).all() and (t.j[lo:hi] == j).all()
            assert list(t.k[lo:hi]) == list(np.flatnonzero(l.structure[i, j]))
