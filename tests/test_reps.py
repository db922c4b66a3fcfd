"""Representation checkers, the stability extension, and character twists."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dense_constants, distance, spoiled_clifford

from colorrep import colorlie, hcpair, reps

from colorrep.colorlie import (ColorLieAlgebra, ad_operator, check_perfectness,
                               decompose_odd, glV, odd_pair_columns)
from colorrep.enveloping import (
    EnvElement,
    MonoidElement,
    env_star,
    normal_form,
    s_mul,
    s_star,
)
from colorrep.errors import ExtensionError, PerfectnessError, RankMismatchError
from colorrep.generators import (
    clifford_algebra,
    clifford_rep,
    conjugated_rep,
    counterexample_prerep,
    skew_matrix_algebra,
)
from colorrep.grading import Character, Degree, all_degrees, beta, is_even_like
from colorrep.hcpair import GroupElement, HCPair, _expm
from colorrep.report import worst_residual
from colorrep.reps import (
    PartialRep,
    UnitaryRep,
    check_pre_rep,
    check_unitary_rep,
    exp_group_element,
    matrix_coefficient,
    monoid_operator,
    ordinary_adjoint,
    restrict,
    rho_env,
    stability_extend,
    twist_rep,
)
from colorrep.spaces import GammaInnerSpace, GradedSpace, HomogeneousMap, dagger_adjoint

ONE_ONE = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1})
FOUR_LINES = GradedSpace(2, {Degree((0, 0)): 1, Degree((0, 1)): 1,
                             Degree((1, 0)): 1, Degree((1, 1)): 1})


def failing_names(report):
    return [c.name for c in report.checks if not c.passed]


# ---------------------------------------------------------------- containers

def test_unitary_rep_wants_one_operator_per_basis_element():
    l, r = skew_matrix_algebra(ONE_ONE)
    with pytest.raises(ValueError, match="need 4 operators"):
        UnitaryRep(r.pair, r.inner, r.rho[:3])


def test_unitary_rep_rejects_mismatched_degree():
    l, r = skew_matrix_algebra(ONE_ONE)
    rho = list(r.rho)
    rho[0] = HomogeneousMap.zero(ONE_ONE, ONE_ONE, Degree((1,)))
    with pytest.raises(ValueError, match="degree"):
        UnitaryRep(r.pair, r.inner, rho)


def test_partial_rep_requires_odd_coverage():
    l, r = skew_matrix_algebra(ONE_ONE)
    part = restrict(r)
    rho = dict(part.rho)
    del rho[2]  # a0_1
    with pytest.raises(ValueError, match="missing basis elements.*a0_1"):
        PartialRep(r.pair, r.inner, rho)


def test_partial_rep_rejects_even_nonzero_entries():
    l4, r4 = skew_matrix_algebra(FOUR_LINES)
    part = restrict(r4)
    rho = dict(part.rho)
    extra = next(i for i in range(l4.dim)
                 if is_even_like(l4.degrees[i]) and not l4.degrees[i].is_zero)
    rho[extra] = r4.rho[extra]
    with pytest.raises(ValueError, match="may only cover"):
        PartialRep(r4.pair, r4.inner, rho)


def test_partial_rep_names_uncovered_elements():
    l4, r4 = skew_matrix_algebra(FOUR_LINES)
    part = restrict(r4)
    hidden = next(i for i in range(l4.dim)
                  if is_even_like(l4.degrees[i]) and not l4.degrees[i].is_zero)
    with pytest.raises(ValueError, match="not covered by the partial data"):
        part.rho_matrix(hidden)


def test_zero_operators_are_a_valid_rep():
    # one central line never acts; every axiom is an exact zero
    deg = Degree((1, 1))
    l = ColorLieAlgebra(2, ["z"], [deg], np.zeros((1, 1, 1)), validate=True)
    space = GradedSpace(2, {Degree((0, 0)): 2})
    r = UnitaryRep(HCPair(l), GammaInnerSpace.standard(space),
                   [HomogeneousMap.zero(space, space, deg)])
    rep = check_unitary_rep(r)
    assert rep.passed, rep.to_text()
    assert rep.max_residual() == 0.0


# ----------------------------------------------------- checker discrimination

@pytest.mark.parametrize("up,down,ok", [
    (-1.0j, 1.0, True),
    (-2.0j, 2.0, True),
    (2.0 - 3.0j, 3.0 - 2.0j, True),   # up = -i conj(down)
    (1.0j, 1.0, False),
    (1.0, 1.0, False),
    (-1.05j, 1.0, False),
])
def test_clifford_family_skewness_criterion(up, down, ok):
    # [[0, u], [d, 0]] is graded-skew for the standard product iff
    # u = -i conj(d); the even operator is forced by the bracket
    l = clifford_algebra()
    space = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1})
    rho_y = np.array([[0.0, up], [down, 0.0]], dtype=complex)
    rho_x = 2.0 * rho_y @ rho_y
    r = UnitaryRep(HCPair(l), GammaInnerSpace.standard(space),
                   [HomogeneousMap.from_dense(space, space, Degree((0,)), rho_x),
                    HomogeneousMap.from_dense(space, space, Degree((1,)), rho_y)])
    rep = check_unitary_rep(r)
    assert rep.passed == ok, rep.to_text()
    if not ok:
        assert "graded skew-adjointness" in failing_names(rep)
        assert "bracket property" not in failing_names(rep)


def test_checker_pinpoints_bracket_mutation():
    l, r = skew_matrix_algebra(ONE_ONE)
    # real scale of the whole odd sector keeps skewness and equivariance
    # but breaks [a, a] = -2 h0 - 2 h1 quadratically
    rho = [t if is_even_like(l.degrees[i]) else t * 1.01
           for i, t in enumerate(r.rho)]
    rep = check_unitary_rep(UnitaryRep(r.pair, r.inner, rho))
    assert failing_names(rep) == ["bracket property"]


# --------------------------------------------------------------- rho on words

def test_rho_env_empty_and_single_words():
    l, r = skew_matrix_algebra(ONE_ONE)
    assert np.allclose(rho_env(r, EnvElement.one(l)), np.eye(2))
    for i in range(l.dim):
        assert np.allclose(rho_env(r, EnvElement.generator(l, i)),
                           r.rho_matrix(i))


def test_rho_env_rejects_foreign_elements():
    l, r = skew_matrix_algebra(ONE_ONE)
    other = clifford_algebra()
    with pytest.raises(ValueError, match="different algebra"):
        rho_env(r, EnvElement.one(other))


def word_matrix(r, word):
    m = np.eye(r.space_dim, dtype=complex)
    for i in word:
        m = m @ r.rho_matrix(i)
    return m


@pytest.mark.parametrize("space", [ONE_ONE, FOUR_LINES])
def test_normal_form_matches_defining_rep(space):
    # the rewriting system must agree with honest matrix multiplication
    l, r = skew_matrix_algebra(space)
    rng = np.random.default_rng(42)
    for _ in range(40):
        word = tuple(rng.integers(0, l.dim, size=rng.integers(1, 4)))
        nf = normal_form(l, word)
        assert np.max(np.abs(rho_env(r, nf) - word_matrix(r, word))) < 1e-9


def test_normal_form_matches_unit_matrix_rep():
    # same cross-check on the full matrix algebra, where rho is not skew
    l = glV(ONE_ONE)
    mats = []
    for lab in l.labels:
        p, q = (int(s) for s in lab[1:].split("_"))
        m = np.zeros((2, 2), dtype=complex)
        m[p, q] = 1.0
        mats.append(m)
    rho = [HomogeneousMap.from_dense(ONE_ONE, ONE_ONE, l.degrees[i], mats[i])
           for i in range(l.dim)]
    r = UnitaryRep(HCPair(l), GammaInnerSpace.standard(ONE_ONE), rho)
    rng = np.random.default_rng(7)
    for _ in range(40):
        word = tuple(rng.integers(0, l.dim, size=rng.integers(1, 4)))
        nf = normal_form(l, word)
        assert np.max(np.abs(rho_env(r, nf) - word_matrix(r, word))) < 1e-9


def random_env(l, rng, max_len=3, nterms=3):
    d = EnvElement.zero(l)
    for _ in range(nterms):
        word = tuple(rng.integers(0, l.dim, size=rng.integers(0, max_len + 1)))
        c = complex(rng.normal(), rng.normal())
        d = d + EnvElement(l, {word: c})
    return d


def test_env_star_matches_operator_adjoint():
    # the involution on words must land on the ordinary adjoint, with the
    # gram matrix nontrivial so the adjoint is not a bare conjugate transpose
    base = skew_matrix_algebra(ONE_ONE)[1]
    r = conjugated_rep(base, seed=19)
    l = r.algebra
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = random_env(l, rng)
        lhs = rho_env(r, env_star(l, d))
        rhs = ordinary_adjoint(r.inner, rho_env(r, d))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# ------------------------------------------------------------- group elements

def test_exp_group_element_is_unitary_and_equivariant():
    l, r = skew_matrix_algebra(ONE_ONE)
    coeffs = np.zeros(l.dim)
    coeffs[0], coeffs[1] = 0.7, -0.2
    g = exp_group_element(r, coeffs, t=0.9)
    pi = np.asarray(g.pi)
    assert np.allclose(pi.conj().T @ pi, np.eye(2))
    with_g = UnitaryRep(HCPair(l, [g]), r.inner, r.rho)
    rep = check_unitary_rep(with_g)
    assert rep.passed, rep.to_text()


def test_ad_operator_reads_ad_from_the_structure_constants():
    # ad(x) is the contraction sum_i x_i structure[i, j, k], columns j
    r = _skew_2222()
    l = r.algebra
    c = dense_constants(l)
    for i in range(l.dim):
        coeffs = np.zeros(l.dim)
        coeffs[i] = 1.0
        assert np.array_equal(ad_operator(l, coeffs), np.einsum("i,ijk->kj", coeffs, c))
    x = np.linspace(-1.0, 1.0, l.dim)
    assert np.allclose(ad_operator(l, x), np.einsum("i,ijk->kj", x, c), rtol=0, atol=1e-13)
    # the exp samples exponentiate it
    zero = l.sector(Degree.zero(l.rank))
    exps = reps._zero_sector_exps(r)
    assert [i for i, _ in exps] == [i for i in zero for _ in reps._EXP_TIMES]
    for (i, g), t in zip(exps, reps._EXP_TIMES * len(zero)):
        coeffs = np.zeros(l.dim)
        coeffs[i] = 1.0
        assert np.array_equal(
            g.ad, _expm(t * np.einsum("i,ijk->kj", coeffs, c)))


def test_exp_group_element_refuses_a_complex_coefficient():
    # a cast to float would drop the imaginary part and give the identity
    r = clifford_rep(1, b=[[1.0]])
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        exp_group_element(r, np.array([1j, 0]))


def test_exp_group_element_rejects_odd_support():
    l, r = skew_matrix_algebra(ONE_ONE)
    coeffs = np.zeros(l.dim)
    coeffs[2] = 1.0
    with pytest.raises(ValueError, match="degree-zero"):
        exp_group_element(r, coeffs)


def test_monoid_operator_composes_group_and_env():
    l, r = skew_matrix_algebra(ONE_ONE)
    coeffs = np.zeros(l.dim)
    coeffs[0] = 0.5
    g = exp_group_element(r, coeffs)
    d = EnvElement.generator(l, 2)
    s = MonoidElement(g, d)
    assert np.allclose(monoid_operator(r, s), g.pi @ r.rho_matrix(2))
    assert np.allclose(monoid_operator(r, MonoidElement.identity(l)), np.eye(2))


def test_monoid_operator_needs_a_bound_action():
    l, r = skew_matrix_algebra(ONE_ONE)
    free = GroupElement("abstract", np.diag([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(ValueError, match="carries no action"):
        monoid_operator(r, MonoidElement.from_group(l, free))


def test_monoid_star_is_operator_adjoint():
    l, r = skew_matrix_algebra(ONE_ONE)
    coeffs = np.zeros(l.dim)
    coeffs[0], coeffs[1] = 0.4, 0.3
    g = exp_group_element(r, coeffs)
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = MonoidElement(g, random_env(l, rng, max_len=2))
        lhs = monoid_operator(r, s_star(s))
        rhs = ordinary_adjoint(r.inner, monoid_operator(r, s))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------- matrix coefficients

def test_matrix_coefficient_at_identity_is_the_inner_product():
    r = conjugated_rep(skew_matrix_algebra(ONE_ONE)[1], seed=5)
    l = r.algebra
    rng = np.random.default_rng(1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    one = MonoidElement.identity(l)
    assert matrix_coefficient(r, v, w, one) == pytest.approx(
        complex(r.inner.ordinary_inner(v, w)))


def test_matrix_coefficient_vanishes_off_degree_zero():
    # with v, w in one sector, an operator of nonzero degree moves v away
    l, r = skew_matrix_algebra(ONE_ONE)
    v = np.array([1.0, 0.0], dtype=complex)  # even line
    s = MonoidElement.from_env(EnvElement.generator(l, 2))
    assert abs(matrix_coefficient(r, v, v, s)) == 0.0


def test_matrix_coefficient_positivity():
    r = conjugated_rep(skew_matrix_algebra(ONE_ONE)[1], seed=9)
    l = r.algebra
    coeffs = np.zeros(l.dim)
    coeffs[1] = 0.6
    g = exp_group_element(r, coeffs)
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = MonoidElement(g, random_env(l, rng, max_len=2))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        val = matrix_coefficient(r, v, v, s_mul(s_star(s), s, level_cap=10))
        norm_sq = float(np.real(r.inner.ordinary_inner(
            monoid_operator(r, s) @ v, monoid_operator(r, s) @ v)))
        assert abs(val.imag) < 1e-9
        assert val.real >= -1e-12
        assert val.real == pytest.approx(norm_sq, abs=1e-8)


# ------------------------------------------------------------------- pre-reps

@pytest.mark.parametrize("make", [
    lambda: clifford_rep(2, seed=6),
    lambda: skew_matrix_algebra(FOUR_LINES)[1],
])
def test_restriction_passes_pre_rep_axioms(make):
    rep = check_pre_rep(restrict(make()))
    assert rep.passed, rep.to_text()


def test_pre_rep_flags_nonequivariant_generator():
    l, r = skew_matrix_algebra(ONE_ONE)
    # identity on the algebra, so conjugation must fix every operator;
    # diag(1, i) is unitary and grading-preserving but moves the odd ones
    bad = GroupElement("bad", np.eye(l.dim), np.diag([1.0, 1.0j]))
    part = restrict(UnitaryRep(HCPair(l, [bad]), r.inner, r.rho))
    rep = check_pre_rep(part)
    assert not rep.passed
    assert "equivariance: bad" in failing_names(rep)


def test_pi_grading_flags_one_off_block_entry():
    space = GradedSpace(1, {Degree((0,)): 2, Degree((1,)): 1})
    l, r = skew_matrix_algebra(space)
    pi = np.eye(3, dtype=complex)
    pi[0, 1] = 0.75  # inside the even block: allowed by the grading
    pi[2, 0] = 0.5   # even to odd: the one entry the grading forbids
    rep = check_unitary_rep(UnitaryRep(HCPair(l, [GroupElement("leak", np.eye(l.dim), pi)]),
                                       r.inner, r.rho))
    assert "pi grading: leak" in failing_names(rep)
    assert [c.residual for c in rep.checks if c.name == "pi grading: leak"] == [0.5]


@pytest.mark.parametrize("pi, detail", [
    (None, "generator carries no matrix on the space"),
    (np.eye(3), "matrix is (3, 3), space has 2"),
], ids=["no-matrix", "wrong-shape"])
def test_a_generator_not_bound_to_the_space_fails_pi_bound(pi, detail):
    r = clifford_rep(1, b=[[1.0]])
    g = GroupElement("parity", np.diag([1.0, -1.0]), pi)
    unbound = UnitaryRep(HCPair(r.algebra, [g]), r.inner, r.rho)
    for checker in (check_unitary_rep, check_pre_rep):
        rep = checker(unbound)
        assert not rep.passed
        check = next(c for c in rep.checks if c.name == "pi bound: parity")
        assert not check.passed
        assert check.detail == detail
        # nothing more is read of that generator's matrix
        assert not [c for c in rep.checks if c.name.endswith(": parity")
                    and c.name != "pi bound: parity"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pi_grading_fails_a_nan_on_a_single_sector_space():
    # every entry is allowed on a (2|0) space, so only the NaN can fail it
    l, r = skew_matrix_algebra(GradedSpace(1, {Degree((0,)): 2}))
    pi = np.eye(2, dtype=complex)
    pi[0, 1] = np.nan
    rep = check_unitary_rep(UnitaryRep(HCPair(l, [GroupElement("g", np.eye(l.dim), pi)]),
                                       r.inner, r.rho))
    check = next(c for c in rep.checks if c.name == "pi grading: g")
    assert not check.passed
    assert not np.isfinite(check.residual)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_degree_zero_operator_fails_the_sampled_equivariance():
    # the exponential of a NaN operator is NaN, not an exception
    r = clifford_rep(1, b=[[1.0]])
    space = r.inner.space
    m = r.rho_matrix(0).copy()
    m[0, 0] = np.nan
    x = HomogeneousMap.from_dense(space, space, r.algebra.degrees[0], m)
    rep = check_unitary_rep(UnitaryRep(r.pair, r.inner, [x, r.rho[1]]))
    check = next(c for c in rep.checks
                 if c.name == "equivariance: sampled one-parameter elements")
    assert not check.passed
    assert np.isnan(check.residual)


# ------------------------------------------------------------------ stability

def test_stability_roundtrip_without_even_sectors_is_exact():
    r = clifford_rep(2, seed=2)
    full, _ = stability_extend(restrict(r))
    for i in range(r.algebra.dim):
        assert np.array_equal(full.rho_matrix(i), r.rho_matrix(i))


@pytest.mark.parametrize("seed", [None, 13])
def test_stability_roundtrip_recovers_even_sectors(seed):
    l4, base = skew_matrix_algebra(FOUR_LINES)
    r = base if seed is None else conjugated_rep(base, seed=seed)
    full, final = stability_extend(restrict(r))
    worst = max(float(np.max(np.abs(full.rho_matrix(i) - r.rho_matrix(i))))
                for i in range(l4.dim))
    assert worst < 1e-8
    assert check_unitary_rep(full).passed
    # the returned report is the final check, at the extension's tolerance
    assert final.passed
    assert {c.tolerance for c in final.checks} - {None} == {1e-8}


@pytest.mark.parametrize("build", [
    lambda: clifford_rep(1, b=[[1.0]]),
    lambda: conjugated_rep(skew_matrix_algebra(FOUR_LINES)[1], seed=13),
], ids=["clifford-n1", "four-lines"])
def test_a_full_rep_is_checked_and_extended_as_its_restriction(build):
    r = build()
    assert check_pre_rep(r).to_dict() == check_pre_rep(restrict(r)).to_dict()
    (full, final), (want, want_final) = stability_extend(r), stability_extend(restrict(r))
    assert final.to_dict() == want_final.to_dict()
    for i in range(r.algebra.dim):
        assert np.array_equal(full.rho_matrix(i), want.rho_matrix(i))


def test_stability_requires_perfectness():
    with pytest.raises(PerfectnessError) as exc:
        stability_extend(counterexample_prerep())
    assert exc.value.sector == "11"


def test_stability_rejects_inconsistent_partial_data():
    l4, r4 = skew_matrix_algebra(FOUR_LINES)
    part = restrict(r4)
    scaled = {i: (t if is_even_like(l4.degrees[i]) else t * 2.0)
              for i, t in part.rho.items()}
    with pytest.raises(ExtensionError, match="pre-representation"):
        stability_extend(PartialRep(part.pair, part.inner, scaled))


def _extension_of(shape, seed):
    # the conjugated skew rep on the space of the given sector dims, one per
    # degree of rank log2(len(shape))
    rank = len(shape).bit_length() - 1
    space = GradedSpace(rank, {d: k for d, k in zip(all_degrees(rank), shape) if k})
    l, base = skew_matrix_algebra(space, validate=False)
    return l, conjugated_rep(base, seed=seed)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.tuples(*[st.integers(0, 2)] * 4).filter(any), seed=st.integers(0, 2 ** 16))
def test_stability_extend_matches_the_per_element_rebuild(shape, seed):
    # each filled operator is the least-norm decomposition of decompose_odd,
    # rebuilt term by term as acceptance criterion 8 does, and recovers the
    # operator that restrict dropped
    l, r = _extension_of(shape, seed)
    assume(check_perfectness(l).passed)
    part = restrict(r)
    full, _ = stability_extend(part)
    for i in range(l.dim):
        if part.defined(i):
            continue
        x = np.zeros(l.dim)
        x[i] = 1.0
        want = np.zeros((r.space_dim, r.space_dim), dtype=complex)
        for term in decompose_odd(l, x).terms:
            ry, rz = r.rho_matrix(term.left), r.rho_matrix(term.right)
            sign = beta(l.degrees[term.left], l.degrees[term.right])
            want += term.coefficient * (ry @ rz - sign * rz @ ry)
        scale = max(1.0, float(np.max(np.abs(r.rho_matrix(i)))))
        assert np.max(np.abs(full.rho_matrix(i) - want)) <= 1e-12 * scale
        assert np.max(np.abs(full.rho_matrix(i) - r.rho_matrix(i))) < 1e-8


@pytest.mark.parametrize("shape", [(1, 1, 0, 0, 0, 0, 0, 1), (1,) * 8])
def test_stability_extend_signs_each_odd_pair_by_beta(shape):
    # at rank 2 every odd pair of an even-like sector commutes (beta = +1);
    # these rank-3 sectors also hold pairs with beta = -1
    l, r = _extension_of(shape, seed=2)
    pairs = np.vstack([odd_pair_columns(l, a)[0] for a in l.even_nonzero_degrees()])
    assert (l.beta_table[pairs[:, 0], pairs[:, 1]] == -1).any()
    full, _ = stability_extend(restrict(r))
    for i in range(l.dim):
        assert np.max(np.abs(full.rho_matrix(i) - r.rho_matrix(i))) < 1e-8


def test_stability_extend_builds_each_sectors_columns_once(monkeypatch):
    # one set of bracket columns per even-like sector, read off the triples;
    # the only dense ad matrices are those of the exp samples
    l, r = _extension_of((2, 2, 2, 2), seed=3)
    built, ads = [], []
    real_columns, real_ad = colorlie.odd_pair_columns, colorlie.ad_operator

    def columns(l, a):
        built.append(a)
        return real_columns(l, a)

    def ad(l, coeffs):
        ads.append(np.flatnonzero(coeffs).tolist())
        return real_ad(l, coeffs)
    monkeypatch.setattr(colorlie, "odd_pair_columns", columns)
    for module in (colorlie, reps, hcpair):
        monkeypatch.setattr(module, "ad_operator", ad)
    full, _ = stability_extend(restrict(r))
    assert l.dim == 64 and built == l.even_nonzero_degrees()
    zero = l.sector(Degree.zero(2))
    assert len(ads) == len(reps._EXP_TIMES) * len(zero)
    assert sorted(ads) == sorted([i] for i in zero for _ in reps._EXP_TIMES)


def test_stability_extend_in_blocks_of_pairs_matches_one_block(monkeypatch):
    l, r = _extension_of((2, 2, 2, 2), seed=3)
    want, _ = stability_extend(restrict(r))
    monkeypatch.setattr(reps, "_BLOCK", 5 * 6 * r.space_dim ** 2)   # 5 pairs a block
    got, _ = stability_extend(restrict(r))
    for i in range(l.dim):
        assert np.max(np.abs(got.rho_matrix(i) - want.rho_matrix(i))) <= 1e-12


def two_route_fixture():
    """Two odd routes to the same even-like element, represented differently.

    The algebra says w = [y1, z1] = [y2, z2], with all four odd elements
    squaring to h.  The operators below satisfy every axiom that only sees
    the zero sector together with one odd sector, but the two routes to w
    disagree, so no single-valued extension exists.
    """
    degs = [Degree((0, 0)), Degree((0, 1)), Degree((0, 1)),
            Degree((1, 0)), Degree((1, 0)), Degree((1, 1))]
    s = np.zeros((6, 6, 6))
    for i in (1, 2, 3, 4):
        s[i, i, 0] = 2.0
    s[1, 3, 5], s[3, 1, 5] = 1.0, -1.0
    s[2, 4, 5], s[4, 2, 5] = 1.0, -1.0
    l = ColorLieAlgebra(2, ["h", "y1", "y2", "z1", "z2", "w"], degs, s,
                        validate=True)
    space = FOUR_LINES
    inner = GammaInnerSpace.standard(space)

    def coupled(deg, blocks):
        m = np.zeros((4, 4), dtype=complex)
        for to, frm, c in blocks:
            m[to, frm] = c
            m[frm, to] = -1j * np.conj(c)
        return HomogeneousMap.from_dense(space, space, deg, m)

    rho = {
        0: HomogeneousMap.from_dense(space, space, degs[0], -1j * np.eye(4)),
        1: coupled(degs[1], [(1, 0, 1.0), (3, 2, 1.0)]),
        2: coupled(degs[2], [(1, 0, 1.0j), (3, 2, 1.0j)]),
        3: coupled(degs[3], [(2, 0, 1.0), (3, 1, -1.0)]),
        4: coupled(degs[4], [(2, 0, 1.0j), (3, 1, -1.0j)]),
    }
    return PartialRep(HCPair(l), inner, rho)


def test_stability_detects_decomposition_dependence():
    p = two_route_fixture()
    assert check_pre_rep(p).passed  # the flaw is invisible sector by sector
    assert check_perfectness(p.algebra).passed
    with pytest.raises(ExtensionError, match="depends on the decomposition"):
        stability_extend(p)


# --------------------------------------------------------------------- twists

def test_twist_by_trivial_character_changes_nothing():
    r = clifford_rep(2, seed=1)
    t = twist_rep(r, Character((1,)))
    for i in range(r.algebra.dim):
        assert np.array_equal(t.rho_matrix(i), r.rho_matrix(i))


def test_double_twist_restores_exactly():
    l4, r4 = skew_matrix_algebra(FOUR_LINES)
    chi = Character((-1, 1))
    back = twist_rep(twist_rep(r4, chi), chi)
    for i in range(l4.dim):
        assert np.array_equal(back.rho_matrix(i), r4.rho_matrix(i))
    assert back.inner is r4.inner
    assert back.pair is r4.pair


def test_twist_rank_mismatch():
    with pytest.raises(RankMismatchError):
        twist_rep(clifford_rep(1), Character((-1, 1)))


@pytest.mark.parametrize("signs", [(-1,), (1,)])
def test_twisted_rep_passes_the_same_checker(signs):
    r = conjugated_rep(clifford_rep(2, seed=8), seed=30)
    t = twist_rep(r, Character(signs))
    rep = check_unitary_rep(t)
    assert rep.passed, rep.to_text()
    assert rep.max_residual() < 1e-10


def test_twist_moves_skewness_class_and_preserves_residuals():
    # rescaling by a sign character keeps operators in the original
    # skewness class; judged against the chi-rescaled phase both the
    # original and the twisted data miss by exactly the same amount
    r = clifford_rep(1, b=[[1.0]])
    chi = Character((-1,))
    t = twist_rep(r, chi)
    rep_t = check_unitary_rep(t, twist=chi)
    rep_r = check_unitary_rep(r, twist=chi)
    assert failing_names(rep_t) == ["graded skew-adjointness"]
    assert failing_names(rep_r) == ["graded skew-adjointness"]
    assert rep_t.max_residual() == rep_r.max_residual()
    assert rep_t.max_residual() == pytest.approx(2.0 * np.sqrt(2.0))


def test_rescaled_phase_checker_accepts_its_own_class():
    # built for the chi-rescaled phase directly: up block i conj(c) instead
    # of -i conj(c); this passes under twist=chi and fails plainly
    l = clifford_algebra()
    space = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1})
    c = 2.0 - 1.0j
    rho_y = np.array([[0.0, c], [1.0j * np.conj(c), 0.0]])
    rho_x = 2.0 * rho_y @ rho_y
    r = UnitaryRep(HCPair(l), GammaInnerSpace.standard(space),
                   [HomogeneousMap.from_dense(space, space, Degree((0,)), rho_x),
                    HomogeneousMap.from_dense(space, space, Degree((1,)), rho_y)])
    chi = Character((-1,))
    assert check_unitary_rep(r, twist=chi).passed
    plain = check_unitary_rep(r)
    assert failing_names(plain) == ["graded skew-adjointness"]


def test_twist_preserves_intertwiners():
    base = clifford_rep(2, seed=14)
    l = base.algebra
    space = base.inner.space
    rng = np.random.default_rng(33)
    p = np.zeros((4, 4), dtype=complex)
    for deg in space.degrees:
        sl = space.slice_of(deg)
        n = sl.stop - sl.start
        p[sl, sl] = np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                                       + 1j * rng.normal(size=(n, n)))
    pinv = np.linalg.inv(p)
    gram = {deg: pinv[space.slice_of(deg), space.slice_of(deg)].conj().T
            @ base.inner.gram[deg]
            @ pinv[space.slice_of(deg), space.slice_of(deg)]
            for deg in space.degrees}
    moved = UnitaryRep(
        base.pair, GammaInnerSpace(space, gram),
        [HomogeneousMap.from_dense(space, space, l.degrees[i],
                                   p @ base.rho_matrix(i) @ pinv)
         for i in range(l.dim)])
    assert check_unitary_rep(moved).passed

    def intertwining_residual(r1, r2):
        return max(float(np.max(np.abs(p @ r1.rho_matrix(i)
                                       - r2.rho_matrix(i) @ p)))
                   for i in range(l.dim))

    assert intertwining_residual(base, moved) < 1e-9
    chi = Character((-1,))
    assert intertwining_residual(twist_rep(base, chi),
                                 twist_rep(moved, chi)) < 1e-9


# ------------------------------------------------------------- non-finite data

@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_operator_fails_both_checkers(value):
    bad = spoiled_clifford(value)
    for rep, name in ((check_unitary_rep(bad), "bracket property"),
                      (check_pre_rep(restrict(bad)),
                       "bracket property on even-plus-one-odd subalgebras")):
        assert not rep.passed
        assert {name, "graded skew-adjointness"} <= set(failing_names(rep))
        assert np.isnan(rep.max_residual())
        for c in rep.checks:
            if c.residual is not None:
                assert c.passed == bool(np.isfinite(c.residual))


# ------------------------------------------- batched residuals, loop reference

def _loop_bracket(r, idx):
    """The bracket residual and label over the pairs of idx, one pair at a
    time: the undefined terms first, each as a residual, then the pair."""
    l = r.algebra
    c = dense_constants(l)

    def entries():
        for i in idx:
            for j in idx:
                lhs = np.zeros((r.space_dim, r.space_dim), dtype=complex)
                for k in np.flatnonzero(c[i, j]):
                    k = int(k)
                    if not r.defined(k):
                        yield abs(float(c[i, j, k])), (i, j, k)
                        continue
                    lhs += c[i, j, k] * r.rho_matrix(k)
                mi, mj = r.rho_matrix(i), r.rho_matrix(j)
                rhs = mi @ mj - float(l.beta_table[i, j]) * (mj @ mi)
                yield float(np.max(np.abs(lhs - rhs))), (i, j)

    def label(key):
        a, b, *leak = (l.labels[x] for x in key)
        return (f"bracket of ({a}, {b}) leaks onto uncovered {leak[0]}"
                if leak else f"worst pair ({a}, {b})")

    return worst_residual(entries(), label)


def _loop_conjugation(r, g, indices):
    """pi rho(x_i) pi^-1 against the sum of ad[k, i] rho(x_k) over the
    covered k with |ad[k, i]| > 1e-300, one index at a time."""
    pi = np.asarray(g.pi, dtype=complex)
    pinv = np.linalg.inv(pi)

    def res(i):
        lhs = pi @ r.rho_matrix(i) @ pinv
        rhs = np.zeros_like(lhs)
        for k in np.flatnonzero(np.abs(g.ad[:, i]) > 1e-300):
            if r.defined(int(k)):
                rhs += g.ad[k, i] * r.rho_matrix(int(k))
        return float(np.max(np.abs(lhs - rhs)))

    return worst_residual(((res(i), i) for i in indices),
                          lambda i: f"worst at {r.algebra.labels[i]}")


def _loop_checks(r, twist=None):
    """{check name: (residual, detail)} for every check of check_unitary_rep
    or check_pre_rep that reads a bracket, conjugation or graded skewness
    residual; detail is None where the check's detail is fixed text, and
    names the worst location only where the check fails."""
    l = r.algebra
    zero_idx = l.sector(Degree.zero(l.rank))
    out = {}
    if isinstance(r, UnitaryRep):
        out["bracket property"] = _loop_bracket(r, range(l.dim))
        indices = range(l.dim)
        if zero_idx:
            out["equivariance: sampled one-parameter elements"] = (worst_residual(
                (_loop_conjugation(r, g, indices)[0], None)
                for _, g in reps._zero_sector_exps(r))[0], None)
    else:
        per_sector = [(a, *_loop_bracket(r, zero_idx + l.sector(a)))
                      for a in l.odd_degrees()]
        out["bracket property on even-plus-one-odd subalgebras"] = worst_residual(
            (val, f"sector {a}, {d}") for a, val, d in per_sector)
        indices = sorted(r.rho)
    for g in r.pair.extra_generators:
        if g.pi is not None:
            out[f"equivariance: {g.label}"] = _loop_conjugation(r, g, indices)
    out["graded skew-adjointness"] = worst_residual(
        ((distance(dagger_adjoint(r.inner, r.rho[i], twist=twist), r.rho[i] * -1.0), i)
         for i in indices), lambda i: f"worst at {l.labels[i]}")
    return {name: (value, "" if detail is not None and value <= reps._REP_TOL else detail)
            for name, (value, detail) in out.items()}


def _with_generators(r, gens, algebra=None):
    l = r.algebra if algebra is None else algebra
    return UnitaryRep(HCPair(l, gens, validate=False), r.inner, r.rho)


def _with_operator(r, i, m):
    space = r.inner.space
    rho = list(r.rho)
    rho[i] = HomogeneousMap.from_dense(space, space, r.algebra.degrees[i], m)
    return UnitaryRep(r.pair, r.inner, rho)


def _skew_2222(seed=3):
    """The dim-64 skew-matrix rep of the (2,2,2,2) space, conjugated, with a
    group generator exp(x) for a random x in the degree-zero sector."""
    space = GradedSpace(2, {d: 2 for d in all_degrees(2)})
    r = conjugated_rep(skew_matrix_algebra(space)[1], seed=seed)
    l = r.algebra
    x = np.zeros(l.dim)
    zero = l.sector(Degree.zero(l.rank))
    x[zero] = np.random.default_rng(seed).standard_normal(len(zero))
    return _with_generators(r, [exp_group_element(r, x, label="g")])


def _spoiled_2222():
    # the odd operators scaled: every odd-odd bracket is off by 2 %
    r = _skew_2222()
    l = r.algebra
    return UnitaryRep(r.pair, r.inner, [t if is_even_like(l.degrees[i]) else t * 1.01
                                        for i, t in enumerate(r.rho)])


def _leaking_four_lines():
    # [h, y] for h in the zero sector and y odd gains a term on an
    # even-like nonzero element, which a partial rep does not cover
    l, r = skew_matrix_algebra(FOUR_LINES)
    c = dense_constants(l)
    h = l.sector(Degree((0, 0)))[0]
    y = l.sector(Degree((0, 1)))[0]
    w = l.sector(Degree((1, 1)))[-1]
    c[h, y, w] = 0.3
    spoiled = ColorLieAlgebra(l.rank, l.labels, l.degrees, c)
    return _with_generators(r, [], algebra=spoiled)


def _nan_rho_2222():
    r = _skew_2222()
    k = r.algebra.sector(Degree((0, 1)))[1]
    m = r.rho_matrix(k).copy()
    m[np.flatnonzero(m.any(axis=1))[0], np.flatnonzero(m.any(axis=0))[-1]] = np.nan
    return _with_operator(r, k, m)


def _nan_pi_four_lines():
    l, r = skew_matrix_algebra(FOUR_LINES)
    pi = np.eye(4, dtype=complex)
    pi[1, 1] = np.nan
    return _with_generators(r, [GroupElement("g", np.eye(l.dim), pi)])


def _tiny_ad_four_lines(nan_at=None):
    # ad is the identity plus 1e-305 everywhere: the tiny entries are below
    # the 1e-300 cut, so they may not bring in a NaN operator
    l, r = skew_matrix_algebra(FOUR_LINES)
    ad = np.eye(l.dim) + 1e-305
    r = _with_generators(r, [GroupElement("g", ad, np.eye(4, dtype=complex))])
    if nan_at is None:
        return r
    m = r.rho_matrix(nan_at).copy()
    m[np.nonzero(m)[0][0], np.nonzero(m)[1][0]] = np.nan
    return _with_operator(r, nan_at, m)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("build", [
    _skew_2222, _spoiled_2222, _leaking_four_lines, _nan_rho_2222,
    _nan_pi_four_lines, _tiny_ad_four_lines, lambda: _tiny_ad_four_lines(5),
    lambda: spoiled_clifford(np.nan),
], ids=["skew-2222", "spoiled-2222", "leak", "nan-rho", "nan-pi", "tiny-ad",
        "tiny-ad-nan-rho", "nan-clifford"])
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_batched_residuals_match_the_per_pair_loop(build, partial):
    _assert_matches_the_loop(restrict(build()) if partial else build())


def _assert_matches_the_loop(r, twist=None):
    check = check_pre_rep if isinstance(r, PartialRep) else check_unitary_rep
    report = check(r, twist=twist)
    want = _loop_checks(r, twist)
    got = {c.name: c for c in report.checks if c.name in want}
    assert set(got) == set(want)
    for name, (value, detail) in want.items():
        check = got[name]
        if np.isnan(value):
            assert np.isnan(check.residual), name
        else:
            assert abs(check.residual - value) <= 1e-12 * max(1.0, value), name
        if detail is not None:
            assert check.detail == detail, name


def test_a_leak_onto_an_uncovered_sector_is_named():
    rep = check_pre_rep(restrict(_leaking_four_lines()))
    check = next(c for c in rep.checks if c.name.startswith("bracket property"))
    assert not check.passed
    assert check.residual == 0.3
    assert "leaks onto uncovered" in check.detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_row_or_index_per_block_matches_the_loop(monkeypatch):
    monkeypatch.setattr(reps, "_BLOCK", 1)
    for r in (_spoiled_2222(), restrict(_leaking_four_lines()), _nan_rho_2222(),
              _tiny_ad_four_lines(5)):
        _assert_matches_the_loop(r)


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_the_twisted_skewness_matches_the_graded_adjoint(partial):
    # under the twist the odd sectors sit in the other skewness class, so
    # the check fails there with a residual of 2 |rho(x)|
    r = _skew_2222()
    chi = Character((-1, 1))
    _assert_matches_the_loop(restrict(r) if partial else r, twist=chi)
    report = check_unitary_rep(r, twist=chi)
    assert "graded skew-adjointness" in failing_names(report)
