"""Color Lie algebras: structure constants, axioms, perfectness, decomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (dense_constants, random_space, random_structure, spoiled_four_lines,
                     traced_peak_mb)

from colorrep import colorlie
from colorrep.errors import AxiomError, PerfectnessError
from colorrep.colorlie import (
    ColorLieAlgebra,
    ad_operator,
    bracket,
    check_axioms,
    check_perfectness,
    decompose_odd,
    glV,
    odd_pair_columns,
)
from colorrep.generators import (clifford_algebra, counterexample_algebra, random_color_algebra,
                                  skew_matrix_algebra)
from colorrep.grading import Degree, all_degrees, beta
from colorrep.report import worst_entry
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
    dense = dense_constants(l)
    for (i, j), expect in GL11_TABLE.items():
        got = dense[i, j]
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
        c = dense_constants(l)
        for i in range(l.dim):
            for j in range(l.dim):
                sign = beta(l.degrees[i], l.degrees[j])
                comm = mats[i] @ mats[j] - sign * mats[j] @ mats[i]
                built = sum(c[i, j, k] * mats[k] for k in range(l.dim))
                assert np.allclose(comm, built)


def test_bracket_bilinear():
    l = _gl11()
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    direct = bracket(l, x, y)
    c = dense_constants(l)
    expanded = sum(x[i] * y[j] * c[i, j] for i in range(4) for j in range(4))
    assert np.allclose(direct, expanded)
    # complex coefficients too: the bracket is bilinear over C
    z = x + 1j * rng.standard_normal(4)
    assert np.allclose(bracket(l, z, y), bracket(l, x, y) + 1j * bracket(l, z.imag, y))


def test_constructor_sorts_basis():
    l = _gl11()
    perm = [3, 0, 2, 1]
    shuffled = ColorLieAlgebra(
        1,
        [l.labels[i] for i in perm],
        [l.degrees[i] for i in perm],
        dense_constants(l)[np.ix_(perm, perm, perm)],
    )
    assert shuffled.labels == l.labels
    assert np.array_equal(dense_constants(shuffled), dense_constants(l))
    # the mapping form maps its indices the same way, in any entry order
    t = l.triples
    entries = {(perm.index(i), perm.index(j), perm.index(k)): c
               for i, j, k, c in zip(t.i, t.j, t.k, t.c)}
    mapped = ColorLieAlgebra(1, [l.labels[i] for i in perm], [l.degrees[i] for i in perm],
                             dict(reversed(entries.items())))
    assert mapped.labels == l.labels
    for name in "ijkc":
        assert np.array_equal(getattr(mapped.triples, name), getattr(t, name))
    assert np.array_equal(mapped.triples.ptr, t.ptr)


def test_check_axioms_glv():
    for space in (GradedSpace(1, {_d("0"): 2}), _four_lines(),
                  GradedSpace(2, {_d("00"): 1, _d("01"): 2})):
        rep = check_axioms(glV(space))
        assert rep.passed
        assert rep.max_residual() == 0.0  # integer structure constants


def test_check_axioms_flags_mutations():
    l = _gl11()
    bad = dense_constants(l)
    bad[2, 3, 0] = -1.0  # breaks antisymmetry against [3, 2]
    mutated = ColorLieAlgebra(1, l.labels, l.degrees, bad)
    rep = check_axioms(mutated)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "antisymmetry" in failed or "jacobi" in failed

    bad2 = dense_constants(l)
    bad2[0, 1, 2] = 0.5  # even bracket landing in an odd sector
    mutated2 = ColorLieAlgebra(1, l.labels, l.degrees, bad2)
    rep2 = check_axioms(mutated2)
    assert not any(c.passed for c in rep2.checks if c.name == "grading")


def test_validate_on_construction():
    l = _gl11()
    bad = dense_constants(l)
    bad[2, 3, 0] = 7.0
    with pytest.raises(AxiomError):
        ColorLieAlgebra(1, l.labels, l.degrees, bad, validate=True)
    ColorLieAlgebra(1, l.labels, l.degrees, dense_constants(l), validate=True)


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
    # a cast to float would drop it and return the empty decomposition
    even_idx = l.sector(_d("11"))[0]
    x = np.zeros(l.dim, dtype=complex)
    x[even_idx] = 1j
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        decompose_odd(l, x)


def test_decompose_odd_unsaturated_sector_raises():
    l = _abelian(2, [_d("11")])
    x = np.array([1.0])
    with pytest.raises(PerfectnessError) as err:
        decompose_odd(l, x)
    assert err.value.sector == _d("11")


def test_ad_operator_columns():
    l = _gl11()
    a = ad_operator(l, np.eye(4)[2])  # ad of E0_1
    assert np.allclose(a[:, 3], [1.0, 1.0, 0, 0])
    assert np.allclose(a[:, 2], 0)


@pytest.mark.parametrize("validate", [False, True], ids=["unvalidated", "validated"])
@pytest.mark.parametrize("form", ["dense", "dict"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_structure_constant_is_refused(value, form, validate):
    # the basis is given unsorted, and the error names the input indices of
    # the first non-finite constant in input order: (i, j, k) order for a
    # dense array, key order for a dict
    l = _gl11()
    perm = [3, 0, 2, 1]
    if form == "dense":
        structure = dense_constants(l)[np.ix_(perm, perm, perm)]
        structure[2, 3, 0], structure[3, 0, 1] = value, np.nan
        first = (2, 3, 0)
    else:
        structure = {(0, 0, 0): 1.0, (3, 0, 1): value, (2, 3, 0): np.nan}
        first = (3, 0, 1)
    with pytest.raises(ValueError) as raised:
        ColorLieAlgebra(1, [l.labels[i] for i in perm], [l.degrees[i] for i in perm],
                        structure, validate=validate)
    assert str(raised.value) == f"structure constant {first} is {value}, not finite"


def _einsum_jacobi(l):
    """The Jacobi residual and label as the per-i einsum loop computes them."""
    c, d = dense_constants(l), l.dim
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


@pytest.mark.parametrize("build", [
    spoiled_four_lines,
    random_structure,
    lambda: random_structure(9, graded_antisymmetric=True),
], ids=["spoiled-glV", "random-tensor", "random-bracket"])
def test_jacobi_matches_the_einsum_reference(build):
    l = build()
    want, where = _einsum_jacobi(l)
    check = next(x for x in check_axioms(l).checks if x.name == "jacobi")
    assert not check.passed
    assert check.detail == where
    assert check.residual == pytest.approx(want, rel=1e-12)


def test_jacobi_of_a_spoiled_integer_table_is_exact():
    # dyadic structure constants: every sum is exact in either order
    l = spoiled_four_lines()
    check = next(x for x in check_axioms(l).checks if x.name == "jacobi")
    assert check.residual == _einsum_jacobi(l)[0] == 0.5


@pytest.mark.parametrize("build", [
    lambda: ColorLieAlgebra(1, [], [], {}),
    clifford_algebra,
    counterexample_algebra,
    lambda: glV(_four_lines()),
    lambda: glV(GradedSpace(1, {_d("0"): 2, _d("1"): 1})),
    lambda: skew_matrix_algebra(_four_lines())[0],
    *(lambda seed=seed: random_color_algebra(2, seed) for seed in range(4)),
], ids=["empty", "clifford", "counterexample", "glV-four-lines", "glV-(2|1)",
        "skew-four-lines", *(f"random-{seed}" for seed in range(4))])
def test_the_join_matches_the_einsum_reference_on_small_algebras(build):
    # algebras of dimension up to 16; at tolerance 0 any rounding residual
    # fails, so its label is compared too
    l = build()
    want, where = _einsum_jacobi(l)
    check = next(x for x in check_axioms(l, tol=0.0).checks if x.name == "jacobi")
    assert check.residual == pytest.approx(want, rel=1e-12)
    assert check.detail == (where or "")


_ALGEBRAS = {
    "random-tensor": lambda seed: random_structure(seed),
    "random-bracket": lambda seed: random_structure(seed, graded_antisymmetric=True),
    "glV-four-lines": lambda seed: spoiled_four_lines(),
    "glV-(2|1)": lambda seed: glV(GradedSpace(1, {_d("0"): 2, _d("1"): 1})),
}


def _refused(l, c):
    """Whether building l's basis over constants c is refused, as it must be
    exactly when a constant is not finite, naming the first in (i, j, k)
    order."""
    bad = np.argwhere(~np.isfinite(c))
    if not len(bad):
        return False
    i, j, k = bad[0]
    with pytest.raises(ValueError, match=rf"^structure constant \({i}, {j}, {k}\) is "):
        ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    return True


def _dense_antisymmetry(l):
    """The antisymmetry residual and label of a dense scan over the nonzero
    entries and their mirrors (j, i, k), in (i, j, k) order."""
    c = dense_constants(l)
    nonzero = c != 0
    i, j, k = np.nonzero(nonzero | nonzero.transpose(1, 0, 2))
    res, at = worst_entry(np.abs(c[i, j, k] + l.beta_table[i, j] * c[j, i, k]))
    return res, "" if at is None else f"worst at ({l.labels[i[at]]}, {l.labels[j[at]]})"


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ALGEBRAS)), seed=st.integers(0, 2 ** 16),
       spoils=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.floats(0, 1, exclude_max=True),
                                 st.floats(0, 1, exclude_max=True),
                                 st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 2.5])),
                       max_size=4))
@example(name="glV-(2|1)", seed=0, spoils=[])
def test_antisymmetry_matches_the_dense_reference(name, seed, spoils):
    # the mirror of each triple is looked up among the sorted keys; spoiled
    # constants (zeroed or scaled) move the worst entry, and a NaN or
    # infinite one is refused when the algebra is built
    l = _ALGEBRAS[name](seed)
    c = dense_constants(l)
    for x, y, z, value in spoils:
        at = int(x * l.dim), int(y * l.dim), int(z * l.dim)
        c[at] = c[at] * value if value == 2.5 else value
    if _refused(l, c):
        return
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    want, where = _dense_antisymmetry(bad)
    check = next(x for x in check_axioms(bad).checks if x.name == "antisymmetry")
    assert check.passed == (want <= 1e-9)
    assert check.residual == want
    assert check.detail == ("" if check.passed else where)


# the Jacobi join in its own blocks of terms, in blocks of 2^19 terms, or in
# one block per first index
_PATHS = {"join": {},
          "join-2^19": {"_TERM_BLOCK": 1 << 19},
          "join-block-per-i": {"_TERM_BLOCK": 1}}


def _take(path, mp):
    for name, value in _PATHS[path].items():
        mp.setattr(colorlie, name, value)


@pytest.mark.parametrize("path", sorted(_PATHS))
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


def _overflowing_four_lines():
    """``spoiled_four_lines`` with [E0_0, E0_1] = E0_1 scaled by 1e200."""
    l = spoiled_four_lines()
    c = dense_constants(l)
    c[0, 4, 4] *= 1e200
    c[4, 0, 4] *= 1e200
    return ColorLieAlgebra(l.rank, l.labels, l.degrees, c)


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_finite_constants_give_a_nan_jacobi_residual(path, monkeypatch):
    # finite constants whose products overflow: inf - inf is NaN in the join
    # as in the einsum reference, and the NaN beats the table's 0.5 violation
    _take(path, monkeypatch)
    bad = _overflowing_four_lines()
    assert np.isfinite(dense_constants(bad)).all()
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
@example(name="random-bracket", seed=218, path="join", scales=[(0.0, 150.0)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_jacobi_matches_the_einsum_reference(name, seed, path, scales):
    l = _ALGEBRAS[name](seed)
    c = dense_constants(l)
    t = l.triples
    # an algebra without nonzero constants has nothing to scale (seed 218
    # of random-bracket); it is still compared against the reference.  A
    # constant scaled twice can overflow to infinity, and is refused
    for at, power in scales if len(t.c) else []:
        q = int(at * len(t.c))
        c[t.i[q], t.j[q], t.k[q]] *= 10.0 ** power
    if _refused(l, c):
        return
    bad = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    want, where = _einsum_jacobi(bad)
    with pytest.MonkeyPatch.context() as mp:
        _take(path, mp)
        check = next(x for x in check_axioms(bad).checks if x.name == "jacobi")
    assert check.passed == (want <= 1e-9)
    assert np.isnan(check.residual) if np.isnan(want) else check.residual == pytest.approx(want, rel=1e-12)
    assert check.detail == ("" if check.passed else where)


def _skew_2222(spoil=0.0):
    """The dim-64 skew-matrix algebra of the (2,2,2,2) space, with ``spoil``
    added to one structure constant."""
    l, _ = skew_matrix_algebra(GradedSpace(2, {d: 2 for d in all_degrees(2)}))
    if not spoil:
        return l
    c = dense_constants(l)
    t = l.triples
    c[t.i[100], t.j[100], t.k[100]] += spoil
    return ColorLieAlgebra(l.rank, l.labels, l.degrees, c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("build", [
    spoiled_four_lines,
    random_structure,
    lambda: random_structure(9, graded_antisymmetric=True),
    _overflowing_four_lines,
    _skew_2222,
    lambda: _skew_2222(0.5),
], ids=["spoiled-glV", "random-tensor", "random-bracket", "overflow", "skew-2222",
        "spoiled-skew-2222"])
def test_every_block_of_the_join_gives_the_same_report(build):
    # the residuals are bit-identical (repr of a float is exact) and so are
    # the labels, whatever the blocks
    l = build()
    seen = set()
    for path in _PATHS:
        with pytest.MonkeyPatch.context() as mp:
            _take(path, mp)
            report = check_axioms(l)
        seen.add(tuple((c.name, repr(c.residual), c.detail) for c in report.checks))
    assert len(seen) == 1


@pytest.mark.parametrize("width, bound", [(2, 5.0), (4, 10.0)], ids=["dim-64", "dim-256"])
def test_the_jacobi_join_keeps_its_working_set_small(width, bound):
    # blocks of 2^19 terms peaked at 10.1 MB (dim 64) and 48.3 MB (dim 256)
    l, _ = skew_matrix_algebra(GradedSpace(2, {d: width for d in all_degrees(2)}))
    peak, report = traced_peak_mb(lambda: check_axioms(l))
    assert report.passed
    assert peak < bound, f"traced peak {peak:.1f} MB"


def test_the_triple_index_lists_the_nonzero_structure_constants():
    base = spoiled_four_lines()
    c = np.random.default_rng(3).standard_normal((base.dim,) * 3)
    c[np.abs(c) < 1.0] = 0.0
    l = ColorLieAlgebra(base.rank, base.labels, base.degrees, c)
    t = l.triples
    assert np.array_equal(dense_constants(l), c)
    assert np.all(t.c != 0)
    d = l.dim
    for i in range(d):
        for j in range(d):
            lo, hi = t.ptr[i * d + j], t.ptr[i * d + j + 1]
            assert (t.i[lo:hi] == i).all() and (t.j[lo:hi] == j).all()
            assert list(t.k[lo:hi]) == list(np.flatnonzero(c[i, j]))


def _dense_grouped(c, axis):
    """The nonzero entries of c by a scan of the tensor transposed to put
    index ``axis`` first, as ``colorlie._grouped_triples`` returns them."""
    axes = (axis,) + tuple(a for a in range(3) if a != axis)
    found = np.nonzero(c.transpose(axes))
    ijk = tuple(found[axes.index(a)] for a in range(3))
    offsets = np.zeros(len(c) + 1, dtype=np.int64)
    np.cumsum(np.bincount(found[0], minlength=len(c)), out=offsets[1:])
    return ijk, c[ijk], offsets


@pytest.mark.parametrize("build", [
    *(lambda seed=seed: random_color_algebra(2, seed) for seed in range(6)),
    lambda: random_structure(5, graded_antisymmetric=True),
    spoiled_four_lines,
], ids=[*(f"random-{seed}" for seed in range(6)), "random-bracket", "spoiled-glV"])
def test_the_regrouped_triples_match_a_dense_scan(build, monkeypatch):
    # the join regroups ``l.triples`` by their second and third index
    seen = []
    real = colorlie._grouped_triples
    monkeypatch.setattr(colorlie, "_grouped_triples",
                        lambda l, axis: seen.append((axis, real(l, axis))) or seen[-1][1])
    l = build()
    check_axioms(l)
    assert [axis for axis, _ in seen] == [1, 2]
    for axis, ((i, j, k), c, offsets) in seen:
        (ri, rj, rk), rc, roff = _dense_grouped(dense_constants(l), axis)
        for got, want in ((i, ri), (j, rj), (k, rk), (c, rc), (offsets, roff)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("key", [(1.7, 1, 0), (1, 1.0, 0), ("1", 1, 0), (1, 1)],
                         ids=["float", "integral-float", "string", "pair"])
def test_a_structure_index_that_is_not_an_integer_is_refused(key):
    # a cast to int64 would read (1.7, 1, 0) as the triple (1, 1, 0)
    degs = [_d("0"), _d("0")]
    with pytest.raises(ValueError) as raised:
        ColorLieAlgebra(1, ["x", "y"], degs, {(0, 1, 1): 0.0, key: 1.0})
    assert str(raised.value) == f"structure index {key!r} is not three integers"


def test_integer_structure_indices_of_any_integer_type_are_read():
    degs = [_d("0"), _d("0")]
    l = ColorLieAlgebra(1, ["x", "y"], degs, {(np.int32(0), 1, np.int64(1)): 2.0})
    assert (list(l.triples.i), list(l.triples.j), list(l.triples.k)) == ([0], [1], [1])
    assert list(l.triples.c) == [2.0]


@pytest.mark.parametrize("form", ["dense", "dict"])
def test_a_complex_structure_constant_is_refused(form):
    # a cast to float would build the abelian algebra from the dense tensor
    degs = [_d("0"), _d("0")]
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 1, 1], c[1, 0, 1] = 1j, -1j
    structure = c if form == "dense" else {(0, 1, 1): 1j, (1, 0, 1): -1j}
    with pytest.raises(ValueError, match="has a nonzero imaginary part"):
        ColorLieAlgebra(1, ["x", "y"], degs, structure)
    # constants whose imaginary part is zero are read as their real part
    structure = c.imag + 0j if form == "dense" else {(0, 1, 1): 1 + 0j, (1, 0, 1): -1 + 0j}
    l = ColorLieAlgebra(1, ["x", "y"], degs, structure, validate=True)
    assert l.triples.c.tolist() == [1.0, -1.0]


def test_ad_operator_refuses_a_complex_coefficient():
    l = clifford_algebra()
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        ad_operator(l, np.array([0, 1j]))
    # a complex vector whose imaginary part is zero is read as its real part
    np.testing.assert_array_equal(ad_operator(l, np.array([0, 1 + 0j])),
                                  ad_operator(l, np.array([0.0, 1.0])))
