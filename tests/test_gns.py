"""Positive definite functions and the reconstruction of cyclic representations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (cut_four_lines_table, one_line_algebra, spoiled_clifford,
                     three_cycle_rep)
from helpers import four_lines_values as _four_lines_values

from colorrep import enveloping, gns, reps
from colorrep.colorlie import check_axioms
from colorrep.enveloping import (EnvElement, MonoidElement, _find_bad, _nf, env_ad,
                                  env_mul, s_mul, s_star, word_degree)
from colorrep.errors import EquivalenceError, PositivityError, StabilizationError
from colorrep.generators import (
    _block_change,
    clifford_algebra,
    clifford_parity_generator,
    clifford_rep,
    conjugated_rep,
    skew_matrix_algebra,
)
from colorrep.gns import (
    GNSResult,
    PDFunction,
    build_sample_set,
    check_cyclic,
    check_positive_definite,
    default_group_samples,
    gns_construct,
    gns_roundtrip,
    normal_word_count,
    normal_words,
    sample_gram,
    unitary_equivalence,
)
from colorrep.grading import Degree, all_degrees
from colorrep.hcpair import GroupElement, HCPair
from colorrep.reps import (UnitaryRep, check_unitary_rep, matrix_coefficient,
                           monoid_operator)
from colorrep.spaces import GammaInnerSpace, GradedSpace, HomogeneousMap

FOUR_LINES = GradedSpace(2, {Degree((0, 0)): 1, Degree((0, 1)): 1,
                             Degree((1, 0)): 1, Degree((1, 1)): 1})


def clifford_state():
    r = clifford_rep(1)
    v0 = np.array([1.0, 0.0], dtype=complex)
    return r, v0


def four_lines_state():
    l, r = skew_matrix_algebra(FOUR_LINES)
    v0 = np.zeros(4, dtype=complex)
    v0[0] = 1.0
    return r, v0


def failing_names(report):
    return [c.name for c in report.checks if not c.passed]


# ---------------------------------------------------------------- functions

def test_from_rep_rejects_wrong_vector_length():
    r, _ = clifford_state()
    with pytest.raises(ValueError, match="length"):
        PDFunction.from_rep(r, np.zeros(3))


def test_from_table_rejects_non_normal_words():
    l = clifford_algebra()
    with pytest.raises(ValueError, match="normal"):
        PDFunction.from_table(l, {(1, 0): 1.0})


@pytest.mark.parametrize("key", [(99,), (-1,), (0, 2)])
def test_from_table_rejects_letters_outside_the_algebra(key):
    l = clifford_algebra()          # letters 0 and 1
    with pytest.raises(ValueError) as err:
        PDFunction.from_table(l, {(): 1.0, key: 1.0})
    assert str(err.value) == f"table key {key} has a letter outside the algebra"


def test_table_function_rejects_group_parts():
    l = clifford_algebra()
    psi = PDFunction.from_table(l, {(): 1.0})
    g = GroupElement("flip", np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="group element"):
        psi(MonoidElement.from_group(l, g))


def test_table_function_rejects_a_group_part_that_only_equals_the_identity():
    l = clifford_algebra()
    psi = PDFunction.from_table(l, {(): 1.0})
    g = clifford_parity_generator(1)
    unit = g.compose(g.inverse())
    np.testing.assert_array_equal(unit.ad, np.eye(2))
    with pytest.raises(ValueError, match="group element"):
        psi(MonoidElement.from_group(l, unit))


def test_table_function_is_linear():
    l = one_line_algebra()
    psi = PDFunction.from_table(l, {(): 2.0, (0,): 3.0})
    d = EnvElement(l, {(): 1.5, (0,): -1.0j})
    assert psi(MonoidElement.from_env(d)) == pytest.approx(3.0 - 3.0j)


def test_rep_function_matches_matrix_coefficient():
    r, v0 = clifford_state()
    psi = PDFunction.from_rep(r, v0)
    s = MonoidElement.from_env(EnvElement(r.algebra, {(1,): 1.0}))
    assert psi(s) == pytest.approx(matrix_coefficient(r, v0, v0, s))


def _operator_coefficient(r, v, s):
    # (pi(g) rho(D) v, v) through the formed operator
    return np.vdot(r.inner.gram_dense() @ v, monoid_operator(r, s) @ v)


def test_a_rep_function_refuses_unbound_groups_and_foreign_algebras():
    r, v0 = clifford_state()
    psi = PDFunction.from_rep(r, v0)
    unbound = MonoidElement.from_group(r.algebra, GroupElement("flip", np.diag([1.0, -1.0])))
    for evaluate in (psi, lambda s: matrix_coefficient(r, v0, v0, s),
                     lambda s: monoid_operator(r, s)):
        with pytest.raises(ValueError) as err:
            evaluate(unbound)
        assert str(err.value) == "group element 'flip' carries no action on the space"
    foreign = MonoidElement.from_env(EnvElement.one(clifford_algebra()))
    with pytest.raises(ValueError) as err:
        psi(foreign)
    assert str(err.value) == "monoid element belongs to a different algebra"
    for evaluate in (lambda s: matrix_coefficient(r, v0, v0, s),
                     lambda s: monoid_operator(r, s), lambda s: reps.rho_env(r, s.env)):
        with pytest.raises(ValueError) as err:
            evaluate(foreign)
        assert str(err.value) == "element belongs to a different algebra"
    assert psi._images == {(): v0}


def test_the_word_images_stop_growing_at_the_word_budget(monkeypatch):
    monkeypatch.setattr(gns, "_WORD_BUDGET", 10)
    r = conjugated_rep(skew_matrix_algebra(FOUR_LINES)[1], seed=3)
    v = np.array([1.0, 0.5j, 0.0, 0.0])
    psi = PDFunction.from_rep(r, v)
    words = normal_words(r.algebra, 3)
    elements = [MonoidElement.from_env(EnvElement(r.algebra, {w: 1.0})) for w in words]
    values = [psi(s) for s in elements]
    assert len(psi._images) == 10
    assert list(psi._images) == words[:10]
    values += [psi(s) for s in elements]
    assert len(psi._images) == 10
    expected = [_operator_coefficient(r, v, s) for s in elements]
    np.testing.assert_allclose(values, expected * 2, rtol=1e-12, atol=1e-12)


def test_tabulating_a_coefficient_forms_no_operator_and_one_product_per_word(
        monkeypatch):
    # the words of the benchmark's pd-table inputs, on the four-lines rep
    formed, products = [], []
    for name in ("rho_env", "monoid_operator"):
        monkeypatch.setattr(reps, name, lambda *a, name=name: formed.append(name))
    rho_matrix = reps._Rep.rho_matrix

    def counted(self, i):
        products.append(i)
        return rho_matrix(self, i)

    monkeypatch.setattr(reps._Rep, "rho_matrix", counted)
    r = conjugated_rep(skew_matrix_algebra(FOUR_LINES)[1], seed=7)
    l = r.algebra
    psi = PDFunction.from_rep(r, np.array([1.0, 0.0, 0.0, 0.0]))
    words = normal_words(l, 4)
    assert len(words) == 3649
    products.clear()
    for w in words:
        psi(MonoidElement.from_env(EnvElement(l, {w: 1.0})))
    for w in words[::7]:
        psi(MonoidElement.from_env(EnvElement(l, {w: 2.0})))
    assert formed == []
    assert len(products) <= len(set(words))


# ------------------------------------------------------------------ samples

def test_normal_words_skip_odd_squares():
    l = clifford_algebra()
    words = normal_words(l, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1)]


def test_sample_set_starts_with_identity_and_binds_it():
    r, _ = clifford_state()
    ss = build_sample_set(r.algebra, default_group_samples(r), 1)
    assert ss.element(0).is_identity()
    # bound so that stars and products keep their actions
    assert ss.groups[0].pi is not None
    assert len(ss) == len(ss.groups) * 3


def test_a_negative_sample_level_is_refused():
    with pytest.raises(ValueError, match="at least 0"):
        build_sample_set(clifford_algebra(), [], -1)


def test_a_sample_level_over_the_word_budget_is_refused_before_any_word_is_listed(
        monkeypatch):
    # clifford-n1 has 3 normal words up to length 1 and 5 up to length 2
    l = clifford_algebra()
    monkeypatch.setattr(gns, "_WORD_BUDGET", 4)
    listed = []
    index_words = gns._index_words
    monkeypatch.setattr(gns, "_index_words",
                        lambda *a: listed.append(a) or index_words(*a))
    assert len(build_sample_set(l, [], 1).words) == 3
    listed.clear()
    with pytest.raises(StabilizationError,
                       match="level 2 needs the 5 normal words up to length 2, "
                             "over the budget of 4 words"):
        build_sample_set(l, [], 2)
    assert listed == []


def test_a_negative_level_cap_is_refused_before_any_sampling(monkeypatch):
    r, v = clifford_state()
    built = []
    monkeypatch.setattr(gns, "build_sample_set",
                        lambda *a: built.append(a) or build_sample_set(*a))
    with pytest.raises(ValueError, match="level cap must be at least 0, got -1"):
        gns_construct(PDFunction.from_rep(r, v), level_cap=-1)
    assert built == []


def test_the_certificate_builds_no_per_sample_elements(monkeypatch):
    # counts the monoid and enveloping elements that gns builds itself; the
    # products that the route agreement takes are built inside enveloping
    built = []

    class CountedMonoid(MonoidElement):
        __slots__ = ()

        def __init__(self, group, env):
            built.append("monoid")
            super().__init__(group, env)

    class CountedEnv(EnvElement):
        __slots__ = ()

        def __init__(self, algebra, terms=None):
            built.append("env")
            super().__init__(algebra, terms)

    monkeypatch.setattr(gns, "MonoidElement", CountedMonoid)
    monkeypatch.setattr(gns, "EnvElement", CountedEnv)
    r, v = conjugated_four_lines_state()
    samples = build_sample_set(r.algebra, default_group_samples(r), 2)
    assert len(samples) > 1000 and built == []
    assert check_positive_definite(PDFunction.from_rep(r, v), samples).passed
    # the four route-agreement draws, two samples each
    assert built.count("monoid") <= 8


def test_default_group_samples_cover_the_zero_sector():
    r, _ = clifford_state()
    labels = [g.label for g in default_group_samples(r)]
    assert labels[0] == "1"
    assert "exp(0.5*x)" in labels and "exp(1*x)" in labels


def test_an_element_acting_as_zero_gives_no_group_samples():
    # b = 0: the central x has a zero bracket column and rho(x) = 0, so its
    # exponentials equal the identity without being it
    r = clifford_rep(1, b=[[0.0]])
    result = gns_construct(PDFunction.from_rep(r, np.array([1.0, 0.0])))
    assert result.sample_count == 1
    assert result.rep.pair.extra_generators == []
    assert result.report.passed
    # the consistency sample of the rep checker still exponentiates x
    names = [c.name for c in check_unitary_rep(r).checks]
    assert "equivariance: sampled one-parameter elements" in names


# ----------------------------------------------------------- positivity

def test_diagonal_coefficient_is_positive_definite():
    r, v0 = clifford_state()
    psi = PDFunction.from_rep(r, v0)
    samples = build_sample_set(r.algebra, default_group_samples(r), 2)
    rep = check_positive_definite(psi, samples)
    assert rep.passed, failing_names(rep)
    support = next(c for c in rep.checks if c.name == "support condition")
    assert "verified on sample set" in support.detail


def test_zero_function_is_positive_definite():
    l = one_line_algebra()
    psi = PDFunction.from_table(l, {})
    rep = check_positive_definite(psi, build_sample_set(l, [], 2))
    assert rep.passed


def test_orthogonal_off_diagonal_coefficient_fails():
    r, v0 = clifford_state()
    w0 = np.array([0.0, 1.0], dtype=complex)
    psi = PDFunction(r.algebra, lambda s: matrix_coefficient(r, v0, w0, s),
                     provenance="off diagonal")
    rep = check_positive_definite(
        psi, build_sample_set(r.algebra, default_group_samples(r), 1))
    assert "gram hermitian" in failing_names(rep)


def conjugated_four_lines_state():
    """Four-lines rep in a non-orthonormal basis: a non-trivial space Gram."""
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=21)
    p = _block_change(FOUR_LINES, np.random.default_rng(21))
    return rc, p @ v0


def test_route_agreement_catches_a_scaled_monoid_route():
    r, v0 = conjugated_four_lines_state()
    # the operator route reads rep and vector, the monoid-product route
    # reads the evaluator; scale only the latter
    psi = PDFunction(r.algebra,
                     lambda s: 1.001 * matrix_coefficient(r, v0, v0, s))
    psi.rep, psi.vector = r, v0
    samples = build_sample_set(r.algebra, default_group_samples(r), 1)
    rep = check_positive_definite(psi, samples)
    assert "assembly route agreement" in failing_names(rep)
    assert check_positive_definite(PDFunction.from_rep(r, v0), samples).passed


# --------------------------------------------------- broken monoid products

def _scaled_product(monkeypatch):
    def mutant(a, b, level_cap):
        s = s_mul(a, b, level_cap=level_cap)
        return MonoidElement(s.group, s.env.scale(1.001))
    monkeypatch.setattr(gns, "s_mul", mutant)


def _unsigned_ad(monkeypatch):
    # (g1 g2, (g2 . D1) D2): Ad(g2) where the product takes Ad(g2^-1)
    def mutant(a, b, level_cap):
        moved = env_ad(b.group, a.env)
        return MonoidElement(a.group.compose(b.group),
                             env_mul(a.env.algebra, moved, b.env, level_cap))
    monkeypatch.setattr(gns, "s_mul", mutant)


def _bracketless_rewriting(monkeypatch):
    # x_b x_a -> beta(b, a) x_a x_b and x_a x_a -> 0: the bracket terms dropped
    cache = {}

    def mutant(l, word, strategy="leftmost"):
        key = (id(l), word)
        if key not in cache:
            p = _find_bad(l, word, "leftmost")
            if p is None:
                out = {word: 1.0 + 0j}
            elif word[p] == word[p + 1]:
                out = {}
            else:
                sign = float(l.beta_table[word[p], word[p + 1]])
                swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2:]
                out = {w: sign * c for w, c in mutant(l, swapped).items()}
            cache[key] = out
        return cache[key]
    monkeypatch.setattr(enveloping, "_nf", mutant)


_BROKEN_PRODUCTS = {"scaled": _scaled_product, "unsigned-ad": _unsigned_ad,
                    "bracketless": _bracketless_rewriting}


def _grouped_states():
    """Reps whose default group samples are not only the identity: exp
    samples of a zero sector that moves the odd letters, and a bound
    parity generator."""
    return {"conjugated-four-lines": conjugated_four_lines_state(),
            "parity": _parity_rep()}


# the parity generator is an involution, so Ad(g) = Ad(g^-1) there and the
# unsigned-ad mutant equals the product on the parity rep
_BROKEN_CASES = [(m, s) for m in sorted(_BROKEN_PRODUCTS)
                 for s in ("conjugated-four-lines", "parity")
                 if (m, s) != ("unsigned-ad", "parity")]


@pytest.mark.parametrize("mutation, state", _BROKEN_CASES)
def test_a_broken_monoid_product_fails_the_reconstruction(mutation, state,
                                                          monkeypatch):
    r, v = _grouped_states()[state]
    assert len(default_group_samples(r)) > 1
    assert gns_construct(PDFunction.from_rep(r, v)).report.passed
    _BROKEN_PRODUCTS[mutation](monkeypatch)
    with pytest.raises((PositivityError, StabilizationError)):
        gns_construct(PDFunction.from_rep(r, v))


@pytest.mark.parametrize("mutation, state", _BROKEN_CASES)
def test_the_reproducing_check_alone_catches_a_broken_monoid_product(
        mutation, state, monkeypatch):
    # with the route agreement blinded, the reproducing check is the only
    # step of the operator route that takes monoid products
    r, v = _grouped_states()[state]
    monkeypatch.setattr(gns._FactoredGram, "route_gap", lambda self: 0.0)
    assert gns_construct(PDFunction.from_rep(r, v)).report.passed
    _BROKEN_PRODUCTS[mutation](monkeypatch)
    with pytest.raises(StabilizationError, match="consistency checks failed"):
        gns_construct(PDFunction.from_rep(r, v))


def test_the_operator_route_takes_a_fixed_number_of_monoid_products(monkeypatch):
    # the route agreement's four diagonal and four same-degree entries, and
    # at most five reproducing picks of _WITNESS entries each
    space = GradedSpace(2, {d: 2 for d in (Degree((0, 0)), Degree((0, 1)),
                                          Degree((1, 0)), Degree((1, 1)))})
    r64 = conjugated_rep(skew_matrix_algebra(space)[1], seed=3)
    v64 = np.zeros(8, dtype=complex)
    v64[0] = 1.0
    calls = []
    monkeypatch.setattr(gns, "s_mul",
                        lambda *a, **k: calls.append(a) or s_mul(*a, **k))
    sizes = []
    for r, v in (conjugated_four_lines_state(), (r64, v64)):
        calls.clear()
        res = gns_construct(PDFunction.from_rep(r, v))
        assert res.report.passed
        assert 8 < len(calls) <= 8 + 5 * gns._WITNESS
        sizes.append(res.sample_count)
    assert sizes[0] < 1000 < sizes[1]


def test_the_witness_pairs_each_pick_with_itself_and_its_largest_entries(
        monkeypatch):
    r, v = conjugated_four_lines_state()
    psi = PDFunction.from_rep(r, v)
    samples = build_sample_set(r.algebra, default_group_samples(r), 1)
    key = {}
    for j, t in enumerate(samples):
        key[(t.group.label, tuple(t.env.terms))] = j
    assert len(key) == len(samples)
    i = 41  # 18 of the 36 entries of its degree code are nonzero
    row, gap = gns._gram_of(psi, samples).products(i)
    assert gap <= 1e-12
    # entries of another degree are zero on the operator route as well
    same = samples.codes == samples.codes[i]
    assert (~same).any() and (row[~same] == 0).all()
    taken = []
    real = gns._product
    monkeypatch.setattr(gns, "_product",
                        lambda s, t: taken.append(t) or real(s, t))
    gns._witness_gap(psi, samples, [i], 4, lambda _, idx: row[idx])
    picked = [key[(t.group.label, tuple(t.env.terms))] for t in taken]
    # the pick itself first, then three other samples of its degree code
    assert picked[0] == i and len(set(picked)) == 4
    assert all(same[j] for j in picked)
    # no same-degree entry left out outweighs the smallest partner taken
    left = np.ones(len(samples), dtype=bool)
    left[picked] = False
    smallest = min(abs(row[j]) for j in picked[1:])
    assert smallest > 0
    assert (np.abs(row[same & left]) <= smallest).all()


def _route_states():
    """(rep, vector, group samples, level) for the factored/dense comparison.

    The conjugated states have a non-trivial space Gram.  The last vector
    lies in one summand of a direct sum: it is not cyclic, so W has zero
    singular values besides the zero padding.  The four-lines state stays at
    level 1 because its level-2 Gram costs 145^2 monoid products densely.
    """
    rc = clifford_rep(2, seed=3)
    pc = _block_change(rc.inner.space, np.random.default_rng(21))
    rc = conjugated_rep(rc, seed=21)
    vc = np.zeros(4, dtype=complex)
    vc[0] = 1.0
    rw = clifford_rep(3)
    vw = np.zeros(6, dtype=complex)
    vw[0] = 1.0
    rs = direct_sum_of_cliffords()
    vs = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    r4, v4 = conjugated_four_lines_state()
    return [(rc, pc @ vc, default_group_samples(rc), 2),
            (rw, vw, default_group_samples(rw), 2),
            (rs, vs, default_group_samples(rs), 2),
            (r4, v4, [], 1)]


def _both_routes(r, v):
    return (PDFunction.from_rep(r, v),
            PDFunction(r.algebra, lambda s: matrix_coefficient(r, v, v, s)))


def _verdicts(report):
    # the dense route has no second route to compare against
    return [(c.name, c.passed) for c in report.checks
            if not c.name.endswith("assembly route agreement")]


@pytest.mark.parametrize("case", range(4))
def test_factored_and_dense_gram_checks_agree(case):
    r, v, groups, level = _route_states()[case]
    factored, dense = _both_routes(r, v)
    samples = build_sample_set(r.algebra, groups, level)
    pd_f = check_positive_definite(factored, samples)
    pd_d = check_positive_definite(dense, samples)
    assert pd_f.passed and _verdicts(pd_f) == _verdicts(pd_d)
    assert pd_f.context["gram_norm"] == pytest.approx(
        pd_d.context["gram_norm"], rel=1e-9)


@pytest.mark.parametrize("case", range(3))
def test_factored_and_dense_reconstructions_agree(case):
    r, v, groups, _ = _route_states()[case]
    factored, dense = _both_routes(r, v)
    res_f = gns_construct(factored, group_samples=groups)
    res_d = gns_construct(dense, group_samples=groups)
    assert _verdicts(res_f.report) == _verdicts(res_d.report)
    assert res_f.level_used == res_d.level_used
    assert res_f.rep.space_dim == res_d.rep.space_dim
    assert sorted(res_f.gram_spectrum) == sorted(res_d.gram_spectrum)
    for d, spec in res_f.gram_spectrum.items():
        assert np.allclose(spec["retained"],
                           res_d.gram_spectrum[d]["retained"],
                           rtol=1e-9, atol=0.0)


def _parity_rep():
    """clifford_rep(1) with the parity generator bound, and the vector e0."""
    r = clifford_rep(1)
    r_g = UnitaryRep(HCPair(r.algebra, [clifford_parity_generator(1)]),
                     r.inner, r.rho)
    return r_g, np.array([1.0, 0.0], dtype=complex)


def _column_states():
    """Reps and vectors for the sample-column tests, with their samples.

    The conjugated four-lines rep has a non-trivial space Gram, and the
    parity rep a bound extra generator among its group samples.
    """
    r4, v4 = conjugated_four_lines_state()
    rg, vg = _parity_rep()
    return [(r4, v4, build_sample_set(r4.algebra, default_group_samples(r4), 2)),
            (rg, vg, build_sample_set(rg.algebra, default_group_samples(rg), 3))]


@pytest.mark.parametrize("case", range(2))
def test_prefix_shared_columns_are_the_monoid_operator_columns(case):
    r, v, samples = _column_states()[case]
    psi = PDFunction.from_rep(r, v)
    u = gns._sample_columns(psi, samples)
    ref = np.column_stack([monoid_operator(r, s) @ v for s in samples])
    assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))
    # column p is that of word p of the sample set's index; kept on the
    # function, so a second call computes no new word column
    store = psi._columns
    assert store.shape[1] == int(samples.index.counts[-1]) == len(samples.words)
    gns._sample_columns(psi, samples)
    assert psi._columns is store
    # a lower level reads the leading columns, a higher one adds whole lengths
    low = build_sample_set(r.algebra, samples.groups, samples.level - 1)
    gns._sample_columns(psi, low)
    assert psi._columns is store
    high = build_sample_set(r.algebra, samples.groups, samples.level + 1)
    grown = gns._sample_columns(psi, high)
    assert np.array_equal(psi._columns[:, :store.shape[1]], store)
    ref = np.column_stack([monoid_operator(r, s) @ v for s in high])
    assert np.max(np.abs(grown - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("case", range(2))
def test_support_values_from_the_columns_are_psi(case):
    r, v, samples = _column_states()[case]
    psi = PDFunction.from_rep(r, v)
    gram = gns._gram_of(psi, samples)
    values = gram.block([0], np.arange(len(samples)))[0]
    direct = np.array([psi(s) for s in samples])
    assert np.max(np.abs(values - direct)) <= 1e-14 * gram.scale


def test_sample_codes_are_the_word_degree_codes():
    r, v, samples = _column_states()[0]
    l = r.algebra
    want = [word_degree(l, next(iter(s.env.terms))).code for s in samples]
    assert samples.codes.tolist() == want


def test_rep_route_forms_no_dense_gram_and_calls_no_psi_for_support(monkeypatch):
    r, v, samples = _column_states()[1]
    psi = PDFunction.from_rep(r, v)
    calls, dense = [], []
    real_call, real_dense = PDFunction.__call__, gns._FactoredGram.dense
    monkeypatch.setattr(PDFunction, "__call__",
                        lambda self, s: calls.append(s) or real_call(self, s))
    monkeypatch.setattr(gns._FactoredGram, "dense",
                        lambda self: dense.append(self) or real_dense(self))
    gram = gns._gram_of(psi, samples)
    assert np.sum(samples.codes != 0) > 8
    assert gns._positivity_report(gram, 1e-9).passed
    # only the route agreement's four draws of two monoid-product entries
    assert len(calls) == 8
    res = gns_construct(psi)
    assert res.report.passed and dense == []


def test_escaping_translate_is_refused_on_both_routes():
    # rho = 0 and a 3-cycle pi(h): the samples 1 and h see e1 and e2, but
    # h translates the class of h to e3, outside the certified span
    r, h, v = three_cycle_rep()
    for psi in _both_routes(r, v):
        with pytest.raises(StabilizationError) as err:
            gns_construct(psi, group_samples=[GroupElement.identity(1, 3), h])
        assert str(err.value) == (
            "left translation by pi(h) leaves the certified span "
            "(escape 1.000e+00 on sample 1)")


@pytest.mark.parametrize("state", sorted(_grouped_states()))
def test_the_escape_residual_is_the_worst_stray_of_every_translated_sample(
        state, monkeypatch):
    # a sample's stray is its translate's squared length less the part the
    # retained basis carries, recomputed here from each translate's pairings
    r, v = _grouped_states()[state]
    seen = []
    translate = gns._FactoredGram.translate
    monkeypatch.setattr(gns._FactoredGram, "translate",
                        lambda self, *a: seen.append(translate(self, *a)) or seen[-1])
    res = gns_construct(PDFunction.from_rep(r, v))
    assert len(seen) == r.algebra.dim + len(default_group_samples(r)) - 1
    strays = [x for kappa, norms in seen
              for x in (norms - np.sum(np.abs(kappa) ** 2, axis=0)).tolist()]
    assert len(strays) == len(seen) * res.sample_count
    check = next(c for c in res.report.checks if c.name == "translates stay in the span")
    assert check.residual == max(0.0, *strays)


def test_each_sample_gram_is_built_once():
    l = clifford_algebra()
    table = PDFunction.from_table(l, {(): 1.0})
    calls = []
    psi = PDFunction(l, lambda s: calls.append(s) or table(s))
    res = gns_construct(psi)
    assert res.level_used == 0
    # Grams at levels 0 and 1 (1 + 9), two generators translating one
    # sample (2 * (1 + 1)) and one reproducing pick (1 + 1); the level-1
    # Gram is not built again, and the support condition reads its row 0
    assert len(calls) == 1 + 9 + 4 + 2


def test_dense_gram_stars_each_sample_once(monkeypatch):
    l = clifford_algebra()
    samples = build_sample_set(l, [], 2)
    assert len(samples) == 5
    stars = []
    monkeypatch.setattr(gns, "s_star", lambda s: stars.append(s) or s_star(s))
    # a custom evaluator takes the monoid-product route; a bare table would not
    table = PDFunction.from_table(l, {(): 1.0})
    check_positive_definite(PDFunction(l, table), samples)
    assert len(stars) == 5


def test_empty_sample_set_is_an_error():
    psi = PDFunction.from_table(one_line_algebra(), {(): 1.0})
    with pytest.raises(TypeError, match="build_sample_set"):
        check_positive_definite(psi, [])


def test_sample_gram_refuses_an_empty_sample_set():
    psi = PDFunction.from_table(one_line_algebra(), {(): 1.0})
    with pytest.raises(TypeError, match="build_sample_set"):
        sample_gram(psi, [])


def test_a_plain_list_of_samples_is_refused():
    l = one_line_algebra()
    psi = PDFunction.from_table(l, {(): 1.0})
    samples = list(build_sample_set(l, [], 1))
    for check in (check_positive_definite, sample_gram):
        with pytest.raises(TypeError, match="build_sample_set"):
            check(psi, samples)


def test_a_sample_set_of_another_algebra_is_refused():
    psi = PDFunction.from_table(clifford_algebra(), {(): 1.0})
    samples = build_sample_set(clifford_algebra(), [], 1)
    with pytest.raises(ValueError, match="different algebra"):
        check_positive_definite(psi, samples)


@pytest.mark.parametrize("route", ["rep", "table"])
def test_sample_gram_matches_the_monoid_product_route(route):
    if route == "rep":
        r = clifford_rep(2, seed=3)
        v0 = np.zeros(4, dtype=complex)
        v0[0] = 1.0
        psi, groups, level = PDFunction.from_rep(r, v0), default_group_samples(r), 2
    else:
        psi, groups, level = PDFunction.from_table(*_four_lines_values()), [], 1
    samples = build_sample_set(psi.algebra, groups, level)
    m, gap = sample_gram(psi, samples)
    # a custom evaluator takes every entry through the monoid product
    ref, ref_gap = sample_gram(PDFunction(psi.algebra, psi), samples)
    assert ref_gap == 0.0
    scale = max(1.0, float(np.linalg.norm(ref, 2)))
    assert np.max(np.abs(m - ref)) <= 1e-12 * scale
    if route == "rep":      # a few entries recomputed by the monoid product
        assert gap <= 1e-8
    else:
        assert gap == 0.0


# ------------------------------------------------------------ reconstruction

def test_trivial_table_reconstructs_one_dimension():
    l = one_line_algebra()
    res = gns_construct(PDFunction.from_table(l, {(): 1.0}))
    assert isinstance(res, GNSResult)
    assert res.rep.space_dim == 1
    assert res.level_used == 0
    assert np.allclose(res.rep.rho_matrix(0), 0.0)
    assert np.allclose(res.cyclic, [1.0])
    assert res.gram_spectrum == {"0": {"retained": [1.0], "discarded": []}}


def test_trivial_table_on_clifford_gives_the_zero_rep():
    l = clifford_algebra()
    res = gns_construct(PDFunction.from_table(l, {(): 1.0}))
    assert res.rep.space_dim == 1
    assert np.allclose(res.rep.rho_matrix(0), 0.0)
    assert np.allclose(res.rep.rho_matrix(1), 0.0)
    assert check_unitary_rep(res.rep).passed


def test_clifford_reconstruction_invariants():
    r, v0 = clifford_state()
    res = gns_construct(PDFunction.from_rep(r, v0))
    assert res.rep.space_dim == 2
    assert res.level_used == 1
    assert check_unitary_rep(res.rep).passed
    assert res.rep.inner.space.homogeneous_degree(res.cyclic).is_zero
    assert check_cyclic(res.rep, res.cyclic).passed
    # one retained direction per sector
    assert sorted(res.gram_spectrum) == ["0", "1"]
    assert all(len(v["retained"]) == 1 for v in res.gram_spectrum.values())
    # every non-identity group sample returns as a bound generator
    labels = {g.label for g in res.rep.pair.extra_generators}
    assert "exp(0.5*x)" in labels and "exp(1*x)" in labels
    checked = {c.name: c for c in res.report.checks}
    assert "reproducing property" in checked
    assert "verified on sample set" in checked["gram respects the grading"].detail


def test_scaling_the_function_scales_only_the_cyclic_vector():
    r, v0 = clifford_state()
    psi = PDFunction.from_rep(r, v0)
    lam = 2.5
    scaled = PDFunction(r.algebra, lambda s: lam * psi(s), provenance="scaled")
    base = gns_construct(psi)
    other = gns_construct(scaled, group_samples=default_group_samples(r))
    for i in range(r.algebra.dim):
        assert np.allclose(base.rep.rho_matrix(i), other.rep.rho_matrix(i),
                           atol=1e-10)
    assert np.allclose(other.cyclic, np.sqrt(lam) * base.cyclic, atol=1e-10)


def test_vanishing_function_has_nothing_to_reconstruct():
    l = one_line_algebra()
    with pytest.raises(ValueError, match="vanishes"):
        gns_construct(PDFunction.from_table(l, {}))


def test_moment_table_of_infinite_type_never_stabilizes():
    # moments of a full-support measure: every Hankel slice adds rank
    l = one_line_algebra()
    g = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0, 12: 10395.0}
    table = {(0,) * k: (1j) ** k * g[k] for k in range(0, 13, 2)}
    with pytest.raises(StabilizationError, match="still growing"):
        gns_construct(PDFunction.from_table(l, table))


def clifford_table(max_len):
    """The coefficient of e0 in clifford_rep(1, b=[[1]]), on words up to max_len."""
    r = clifford_rep(1, b=[[1.0]])
    l = r.algebra
    psi = PDFunction.from_rep(r, np.array([1.0, 0.0]))
    return PDFunction.from_table(
        l, {w: psi(MonoidElement.from_env(EnvElement(l, {w: 1.0})))
            for w in normal_words(l, max_len)})


@pytest.mark.parametrize("max_len, level_cap, error", [
    (2, 2, StabilizationError),
    (1, 2, PositivityError),
])
def test_truncated_table_says_which_words_are_missing(max_len, level_cap, error):
    with pytest.raises(error) as err:
        gns_construct(clifford_table(max_len), level_cap=level_cap)
    assert str(err.value).endswith(
        f"the longest tabulated word has length {max_len}, the level-2 Gram "
        "reads words up to length 4, and missing words count as zero")


def test_a_genuine_level_cap_carries_no_truncation_note():
    with pytest.raises(StabilizationError) as err:
        gns_construct(clifford_table(4), level_cap=1)
    assert "tabulated" not in str(err.value)


def test_table_route_gram_inverts_no_matrix(monkeypatch):
    # every group part on this route is the identity, whose inverse is itself
    psi = clifford_table(4)
    samples = build_sample_set(psi.algebra, [], 2)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
    assert check_positive_definite(psi, samples).passed
    assert calls == []


def four_lines_table():
    """A seeded four-lines coefficient tabulated up to length 4, as the
    benchmark's pd-table inputs are: the conjugated skew-matrix rep with e0."""
    return PDFunction.from_table(*_four_lines_values())


_TABLES = {"clifford": lambda: clifford_table(4), "four-lines": four_lines_table}


@pytest.mark.parametrize("name, level", [("clifford", 1), ("clifford", 2),
                                         ("four-lines", 2)])
def test_table_and_monoid_product_grams_agree(name, level):
    psi = _TABLES[name]()
    samples = build_sample_set(psi.algebra, [], level)
    table = gns._gram_of(psi, samples)
    dense = gns._gram_of(PDFunction(psi.algebra, psi), samples)
    assert isinstance(table, gns._TableGram)
    assert isinstance(dense, gns._DenseGram)
    tol = 1e-12 * dense.scale
    assert np.max(np.abs(table.dense() - dense.dense())) <= tol
    x = s_star(samples.element(-1))
    assert np.max(np.abs(table.against(x) - dense.against(x))) <= tol


@pytest.mark.parametrize("name, level", [("clifford", 1), ("clifford", 2),
                                         ("four-lines", 1)])
def test_table_and_monoid_product_translates_agree(name, level):
    psi = _TABLES[name]()
    l = psi.algebra
    samples = build_sample_set(l, [], level)
    table = gns._gram_of(psi, samples)
    dense = gns._gram_of(PDFunction(l, psi), samples)
    for k in range(l.dim):
        gen = MonoidElement.from_env(EnvElement.generator(l, k))
        (tp, tn), (dp, dn) = table.translate(gen), dense.translate(gen)
        scale = max(1.0, float(np.max(np.abs(dn))))
        assert np.max(np.abs(tp - dp)) <= 1e-12 * scale
        assert np.max(np.abs(tn - dn)) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_table_and_monoid_product_reconstructions_agree(name):
    psi = _TABLES[name]()
    res_t = gns_construct(psi)
    res_d = gns_construct(PDFunction(psi.algebra, psi))
    assert res_t.report.passed
    assert ([(c.name, c.passed) for c in res_t.report.checks]
            == [(c.name, c.passed) for c in res_d.report.checks])
    assert res_t.level_used == res_d.level_used
    assert res_t.rep.space_dim == res_d.rep.space_dim
    assert sorted(res_t.gram_spectrum) == sorted(res_d.gram_spectrum)
    for d, spec in res_t.gram_spectrum.items():
        assert np.allclose(spec["retained"],
                           res_d.gram_spectrum[d]["retained"],
                           rtol=1e-9, atol=0.0)


def test_table_with_a_group_sample_is_refused():
    psi = clifford_table(4)
    l = psi.algebra
    g = clifford_parity_generator(1)
    samples = build_sample_set(l, [g], 1)
    with pytest.raises(ValueError, match="group element"):
        check_positive_definite(psi, samples)
    with pytest.raises(ValueError, match="group element"):
        gns_construct(psi, group_samples=[GroupElement.identity(l.dim, 2), g])
    table = gns._gram_of(psi, build_sample_set(l, [], 1))
    with pytest.raises(ValueError, match="group element"):
        table.translate(MonoidElement.from_group(l, g))
    with pytest.raises(ValueError, match="group element"):
        table.against(MonoidElement.from_group(l, g))


def test_nan_table_value_fails_the_gram_checks():
    l = clifford_algebra()          # x = basis element 0 is even
    psi = PDFunction.from_table(l, {(): 1.0, (0,): np.nan})
    samples = build_sample_set(l, [], 1)
    assert isinstance(gns._gram_of(psi, samples), gns._TableGram)
    rep = check_positive_definite(psi, samples)
    checks = {c.name: c for c in rep.checks}
    for name in ("gram hermitian", "gram positive semidefinite"):
        assert not checks[name].passed
        assert checks[name].detail == "non-finite sample data"
    assert checks["support condition"].passed
    with pytest.raises(PositivityError, match="not finite"):
        gns_construct(psi)


_ALGEBRAS = {"four-lines": lambda: _four_lines_values()[0],
             "clifford": clifford_algebra}


def _operators(l, top):
    ops = gns._WordOperators(PDFunction.from_table(l, {(): 1.0}))
    ops.grow(top)
    return ops


@pytest.mark.parametrize("name, top, odd", [("four-lines", 2, 8),
                                            ("clifford", 3, 1)])
def test_every_operator_column_is_the_normal_form(name, top, odd):
    # odd letters (beta(k, k) = -1) take the square branch of the recursion
    l = _ALGEBRAS[name]()
    assert int(np.sum(np.diag(l.beta_table) == -1)) == odd
    ops = _operators(l, top)
    assert ops.built == int(ops.counts[2 * top - 1])
    for k in range(l.dim):
        got: dict = {}
        for u, w, c in zip(*ops._operator(k, ops.built)):
            got[u, w] = got.get((u, w), 0j) + c
        want = {(u, ops.index[w]): c for u in range(ops.built)
                for w, c in _nf(l, (k,) + ops.words[u]).items()}
        assert max(abs(got.get(x, 0j) - want.get(x, 0j))
                   for x in got.keys() | want.keys()) <= 1e-14


class _ReadCounter:
    """Passes attribute reads through to an object, counting them."""

    def __init__(self, inner):
        self.inner, self.reads = inner, 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(self.inner, name)


def test_the_operators_and_the_axiom_check_read_one_triple_index(monkeypatch):
    l = _ALGEBRAS["four-lines"]()
    counter = _ReadCounter(l.triples)
    monkeypatch.setattr(l, "triples", counter)
    check_axioms(l)
    by_axioms = counter.reads
    _operators(l, 2)
    assert 0 < by_axioms < counter.reads


def test_the_table_route_rewrites_no_normal_word(monkeypatch):
    psi = four_lines_table()
    l = psi.algebra
    calls = []
    nf = gns._nf
    monkeypatch.setattr(gns, "_nf", lambda *a: calls.append(a) or nf(*a))
    cached = len(l._nf_cache)
    gram = gns._gram_of(psi, build_sample_set(l, [], 2))
    for k in range(l.dim):
        gram.translate(MonoidElement.from_env(EnvElement.generator(l, k)))
    gram.against(s_star(gram.samples.element(-1)))
    assert psi._words.top == 3
    assert calls == []
    assert len(l._nf_cache) == cached


def test_growing_the_operators_matches_building_them_at_once():
    l = _four_lines_values()[0]
    once = _operators(l, 2)
    step = _operators(l, 1)
    low = step.k
    step.grow(2)
    assert step.words == once.words
    for name in ("counts", "first", "tail", "start", "count", "dst", "val", "k"):
        np.testing.assert_array_equal(getattr(step, name), getattr(once, name))
    # the word Gram of a lower top is a leading block of the higher one
    np.testing.assert_array_equal(once.k[:len(low), :len(low)], low)
    assert once.k.shape == (int(once.counts[2]),) * 2


def test_the_word_index_is_the_normal_words_with_their_first_letters_and_suffixes():
    l = _four_lines_values()[0]
    index = gns._word_index(l, 2, 4)
    # distinct normal words, as many as the closed form counts: all of them
    assert all(enveloping.is_normal_word(l, w) for w in index.words)
    assert index.words == sorted(set(index.words), key=lambda w: (len(w), w))
    assert index.counts.tolist() == [normal_word_count(l, m) for m in range(5)]
    assert (index.first[0], index.tail[0], index.codes[0]) == (l.dim, -1, 0)
    for p, w in enumerate(index.words[1:], start=1):
        assert (index.first[p], index.words[index.tail[p]]) == (w[0], w[1:])
        assert index.codes[p] == word_degree(l, w).code
    # runs: one per first letter, covering each length in order
    for m in range(1, 5):
        runs = index.runs(m)
        cover = [p for _, a, b in runs for p in range(a, b)]
        assert cover == list(range(int(index.counts[m - 1]), int(index.counts[m])))
        assert all(index.words[p][0] == k for k, a, b in runs for p in range(a, b))
        assert len({k for k, _, _ in runs}) == len(runs)


def test_a_sample_set_lists_the_first_words_of_the_table_route_index():
    # _TableGram reads the samples as the leading words of the operators' index
    psi = four_lines_table()
    l = psi.algebra
    ops = gns._WordOperators(psi)
    ops.grow(2)
    for level in range(3):
        samples = build_sample_set(l, [], level)
        n = len(samples)
        assert ops.words[:n] == samples.words
        assert int(ops.counts[level]) == n
        for name in ("counts", "first", "tail", "codes"):
            mine = getattr(samples.index, name)
            theirs = getattr(gns._word_index(l, 2, 4), name)
            np.testing.assert_array_equal(theirs[:mine.size], mine)
        np.testing.assert_array_equal(gns._gram_of(psi, samples).dense(),
                                      ops.k[:n, :n])


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
def test_word_count_closed_form_matches_the_enumeration(name):
    l = _ALGEBRAS[name]()
    lengths = np.bincount([len(w) for w in normal_words(l, 8)])
    for m in range(9):
        assert normal_word_count(l, m) == int(lengths[:m + 1].sum())


def test_a_level_over_the_word_budget_is_refused():
    # cut at length 3, the rank keeps growing; level 3 (40,081 words) is
    # built, level 4 (265,729) is refused before it is allocated
    assert normal_word_count(_four_lines_values()[0], 6) <= gns._WORD_BUDGET
    psi = cut_four_lines_table()
    with pytest.raises(StabilizationError) as err:
        gns_construct(psi)
    assert str(err.value).startswith(
        "level 4 needs the 265729 normal words up to length 8, over the "
        f"budget of {gns._WORD_BUDGET} words; the longest tabulated word has "
        "length 3")
    assert psi._words.top == 3
    assert len(psi._words.words) == 40081


def test_support_violation_raises_positivity_error():
    l = clifford_algebra()
    psi = PDFunction.from_table(l, {(): 1.0, (1,): 0.5})
    with pytest.raises(PositivityError):
        gns_construct(psi)


def test_non_hermitian_function_raises_positivity_error():
    r, v0 = clifford_state()
    w0 = np.array([0.0, 1.0], dtype=complex)
    psi = PDFunction(r.algebra, lambda s: matrix_coefficient(r, v0, w0, s),
                     provenance="off diagonal")
    with pytest.raises(PositivityError):
        gns_construct(psi, group_samples=default_group_samples(r))


def _off_diagonal_gram():
    r, v0 = clifford_state()
    w0 = np.array([0.0, 1.0], dtype=complex)
    psi = PDFunction(r.algebra, lambda s: matrix_coefficient(r, v0, w0, s))
    return gns._gram_of(psi, build_sample_set(r.algebra, default_group_samples(r), 1))


def _spoiled_table_gram():
    psi = four_lines_table()
    gram = gns._gram_of(psi, build_sample_set(psi.algebra, [], 2))
    rng = np.random.default_rng(5)
    gram.m = gram.m + 1e-3 * (rng.standard_normal(gram.m.shape)
                              + 1j * rng.standard_normal(gram.m.shape))
    return gram


@pytest.mark.parametrize("build", [_off_diagonal_gram, _spoiled_table_gram],
                         ids=["off-diagonal", "spoiled-table"])
def test_the_hermitian_residual_is_the_spectral_norm_of_m_minus_m_dagger(build):
    # read off the eigenvalues of i (M - M^H), it is the 2-norm an SVD gives
    gram = build()
    want = np.linalg.norm(gram.m - gram.m.conj().T, 2)
    got, _ = gram.hermitian()
    assert want > 1e-3
    assert abs(got - want) <= 1e-12 * want


# ------------------------------------------------------------------ cyclicity

def direct_sum_of_cliffords():
    """Two inequivalent summands on a (2|2) space, slots interleaved."""
    ra = clifford_rep(1, b=[[1.0]])
    rb = clifford_rep(1, b=[[2.0]])
    space = GradedSpace(1, {Degree((0,)): 2, Degree((1,)): 2})
    rho = []
    for i in range(ra.algebra.dim):
        a, b = ra.rho_matrix(i), rb.rho_matrix(i)
        m = np.zeros((4, 4), dtype=complex)
        for p in range(2):
            for q in range(2):
                m[2 * p, 2 * q] = a[p, q]
                m[2 * p + 1, 2 * q + 1] = b[p, q]
        rho.append(HomogeneousMap.from_dense(space, space,
                                             ra.algebra.degrees[i], m))
    return UnitaryRep(HCPair(ra.algebra), GammaInnerSpace.standard(space), rho)


def test_cyclic_vector_spans():
    r, v0 = four_lines_state()
    rep = check_cyclic(r, v0)
    assert rep.passed
    assert rep.context["rank"] == 4


def test_zero_vector_is_not_cyclic():
    r, _ = four_lines_state()
    assert not check_cyclic(r, np.zeros(4)).passed


def test_vector_in_one_summand_is_not_cyclic():
    r = direct_sum_of_cliffords()
    assert check_unitary_rep(r).passed
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    rep = check_cyclic(r, v)
    assert not rep.passed
    assert rep.context["rank"] == 2


def test_cyclic_rejects_wrong_length():
    r, _ = clifford_state()
    with pytest.raises(ValueError, match="length"):
        check_cyclic(r, np.zeros(5))


def test_the_hull_reaches_products_of_group_samples():
    # e3 = h h e1 is the translate of e1 by no single sample
    r, _, v = three_cycle_rep()
    rep = check_cyclic(r, v)
    assert rep.passed
    assert (rep.context["rank"], rep.context["level"]) == (3, 2)
    assert np.allclose(unitary_equivalence(r, v, r, v), np.eye(3), atol=1e-12)


def test_hull_basis_is_orthonormal_and_invariant():
    r = direct_sum_of_cliffords()
    actions = gns._actions(r, default_group_samples(r)[1:])
    basis, steps = gns._hull(actions, np.array([1.0, 0.0, 0.0, 0.0]), 1e-9)
    assert (basis.shape, steps) == ((4, 2), 1)
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-14)
    for a in actions:
        moved = a @ basis
        assert np.linalg.norm(moved - basis @ (basis.conj().T @ moved)) < 1e-14


def test_non_finite_vector_is_not_cyclic():
    r, _ = four_lines_state()
    rep = check_cyclic(r, np.array([np.nan, 0.0, 0.0, 0.0]))
    assert not rep.passed
    assert rep.context["rank"] == 0
    assert rep.checks[0].detail == "non-finite translates at level 0"


# ---------------------------------------------------------------- equivalence

def test_equivalence_refuses_a_generator_bound_on_one_side_only():
    r_g, e0 = _parity_rep()
    r = UnitaryRep(HCPair(r_g.algebra), r_g.inner, r_g.rho)
    with pytest.raises(EquivalenceError, match=r"only: 'parity' \(first\)$"):
        unitary_equivalence(r_g, e0, r, e0)
    with pytest.raises(EquivalenceError, match=r"only: 'parity' \(second\)$"):
        unitary_equivalence(r, e0, r_g, e0)
    assert np.allclose(unitary_equivalence(r_g, e0, r_g, e0), np.eye(2),
                       atol=1e-12)


def test_equivalence_pairs_a_generator_bound_on_both_sides():
    r_g, e0 = _parity_rep()
    res = gns_construct(PDFunction.from_rep(r_g, e0))
    assert [g.label for g in res.rep.pair.extra_generators] == [
        "parity", "exp(0.5*x)", "exp(1*x)"]
    assert gns_roundtrip(r_g, e0).passed
    # the rebuilt parity is compared: flipping its sign is refused
    flipped = [GroupElement(g.label, g.ad, -g.pi if g.label == "parity" else g.pi)
               for g in res.rep.pair.extra_generators]
    bad = UnitaryRep(HCPair(r_g.algebra, flipped, validate=False),
                     res.rep.inner, res.rep.rho)
    with pytest.raises(EquivalenceError):
        unitary_equivalence(r_g, e0, bad, res.cyclic)


def test_self_equivalence_is_the_identity():
    r, v0 = four_lines_state()
    t = unitary_equivalence(r, v0, r, v0)
    assert np.allclose(t, np.eye(4), atol=1e-12)


def test_equivalence_recovers_the_change_of_basis():
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=13)
    p = _block_change(FOUR_LINES, np.random.default_rng(13))
    t = unitary_equivalence(r, v0, rc, p @ v0)
    assert np.allclose(t, p, atol=1e-12)


def test_equivalence_rejects_mutated_operators():
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=13)
    p = _block_change(FOUR_LINES, np.random.default_rng(13))
    l = r.algebra
    rho = [rc.rho_matrix(i).copy() for i in range(l.dim)]
    rho[2] = 1.05 * rho[2]
    bad = UnitaryRep(rc.pair, rc.inner,
                     [HomogeneousMap.from_dense(FOUR_LINES, FOUR_LINES,
                                                l.degrees[i], rho[i])
                      for i in range(l.dim)])
    with pytest.raises(EquivalenceError, match="coefficients disagree"):
        unitary_equivalence(r, v0, bad, p @ v0)


def test_equivalence_requires_cyclic_vectors():
    r = direct_sum_of_cliffords()
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(EquivalenceError, match="not cyclic"):
        unitary_equivalence(r, v, r, v)


def test_equivalence_names_the_second_vector_when_only_it_fails():
    r = direct_sum_of_cliffords()
    both = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    one = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert check_cyclic(r, both).passed
    with pytest.raises(EquivalenceError,
                       match="^the second vector is not cyclic$"):
        unitary_equivalence(r, both, r, one)
    with pytest.raises(EquivalenceError,
                       match="^the first vector is not cyclic$"):
        unitary_equivalence(r, one, r, both)


def test_equivalence_refuses_a_non_finite_vector():
    r, v0 = four_lines_state()
    with pytest.raises(EquivalenceError, match="not finite"):
        unitary_equivalence(r, v0, r, np.full(4, np.nan))


def test_equivalence_leaves_cyclicity_to_the_hull(monkeypatch):
    calls = []
    real = gns.check_cyclic
    monkeypatch.setattr(gns, "check_cyclic",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    r, v0 = clifford_state()
    unitary_equivalence(r, v0, r, v0)
    assert len(calls) == 0
    # the roundtrip's own check and the one of gns_construct
    assert gns_roundtrip(r, v0).passed
    assert len(calls) == 2


def test_equivalence_requires_a_shared_algebra():
    r1, v1 = clifford_state()
    r2, v2 = four_lines_state()
    with pytest.raises(EquivalenceError, match="different algebras"):
        unitary_equivalence(r1, v1, r2, v2)


def test_reconstructions_from_different_sample_orders_agree():
    r = clifford_rep(2, seed=3)
    v0 = np.zeros(4, dtype=complex)
    v0[0] = 1.0
    psi = PDFunction.from_rep(r, v0)
    groups = default_group_samples(r)
    res_a = gns_construct(psi, group_samples=groups)
    res_b = gns_construct(psi, group_samples=[groups[0]] + groups[:0:-1])
    t = unitary_equivalence(res_a.rep, res_a.cyclic, res_b.rep, res_b.cyclic,
                            tol=1e-6)
    assert t.shape == (4, 4)


# ------------------------------------------------------------------ roundtrip

def test_clifford_roundtrip():
    r, v0 = clifford_state()
    rep = gns_roundtrip(r, v0)
    assert rep.passed, failing_names(rep)
    assert rep.context["level_used"] == 1


def test_four_lines_roundtrip():
    r, v0 = four_lines_state()
    rep = gns_roundtrip(r, v0)
    assert rep.passed, failing_names(rep)


def test_conjugated_roundtrip_with_nontrivial_gram():
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=21)
    p = _block_change(FOUR_LINES, np.random.default_rng(21))
    rep = gns_roundtrip(rc, p @ v0)
    assert rep.passed, failing_names(rep)


def test_wide_clifford_roundtrip():
    r = clifford_rep(3, seed=5)
    v0 = np.zeros(6, dtype=complex)
    v0[0] = 1.0
    rep = gns_roundtrip(r, v0)
    assert rep.passed, failing_names(rep)
    assert rep.context["level_used"] <= 2


def test_dim_64_roundtrip():
    # the (2,2,2,2) skew-matrix rep: algebra dim 64, space dim 8
    space = GradedSpace(2, {d: 2 for d in (Degree((0, 0)), Degree((0, 1)),
                                          Degree((1, 0)), Degree((1, 1)))})
    _, r = skew_matrix_algebra(space)
    r = conjugated_rep(r, seed=3)
    v0 = np.zeros(8, dtype=complex)
    v0[0] = 1.0
    rep = gns_roundtrip(r, v0)
    assert rep.passed, failing_names(rep)
    assert rep.context["level_used"] == 1
    checked = {c.name: c for c in rep.checks}
    assert checked["reconstruction"].detail == "dimension 8, level 1"


def test_roundtrip_exponentiates_the_group_samples_once(monkeypatch):
    r, v0 = four_lines_state()
    l = r.algebra
    calls = []
    real = reps.exp_group_element
    monkeypatch.setattr(reps, "exp_group_element",
                        lambda rr, *a, **k: calls.append(rr) or real(rr, *a, **k))
    assert gns_roundtrip(r, v0).passed
    # every time for every degree-zero element, once for the original and
    # once for the rebuilt representation
    per_rep = len(reps._EXP_TIMES) * len(l.sector(Degree.zero(l.rank)))
    assert len(calls) == 2 * per_rep == 16
    both = {id(rr): rr for rr in calls}
    assert len(both) == 2 and id(r) in both
    assert [sum(rr is x for rr in calls) for x in both.values()] == [per_rep] * 2
    # later users read the kept samples
    for x in both.values():
        default_group_samples(x)
        check_unitary_rep(x)
    assert len(calls) == 2 * per_rep


def test_roundtrip_reports_non_cyclic_vectors():
    r = direct_sum_of_cliffords()
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    rep = gns_roundtrip(r, v)
    assert not rep.passed
    assert "vector cyclic" in failing_names(rep)


def test_roundtrip_rejects_inhomogeneous_vectors():
    r, _ = clifford_state()
    rep = gns_roundtrip(r, np.array([1.0, 1.0]))
    assert not rep.passed
    assert "vector homogeneous of degree zero" in failing_names(rep)


def _skew_shape_state(rank, dims, seed):
    """The conjugated skew-matrix rep of the space with these sector dims,
    in the order of ``all_degrees``, the slice of its degree-zero sector and
    the Gram there."""
    space = GradedSpace(rank, {d: n for d, n in zip(all_degrees(rank), dims) if n})
    r = conjugated_rep(skew_matrix_algebra(space)[1], seed=seed)
    zero = Degree.zero(rank)
    return r, space.slice_of(zero), r.inner.gram[zero]


@st.composite
def _skew_shapes(draw):
    rank = draw(st.sampled_from([2, 3]))
    top = 2 if rank == 2 else 1
    dims = [draw(st.integers(1, top))] + [draw(st.integers(0, top))
                                          for _ in range(2 ** rank - 1)]
    return rank, dims, draw(st.integers(0, 2 ** 16))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(shape=_skew_shapes(), data=st.data())
def test_the_gns_correspondence_holds_on_random_shapes(shape, data):
    # the rebuilt rep has the dimension of the cyclic hull of v; and the
    # difference of the coefficients of two orthogonal degree-zero vectors of
    # equal norm vanishes at 1 but not at some degree-zero x, so it is not
    # positive definite on the level-1 samples
    rank, dims, seed = shape
    r, zero, g0 = _skew_shape_state(rank, dims, seed)
    entries = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    v0 = np.array(data.draw(st.lists(entries, min_size=dims[0], max_size=dims[0])))
    assume(np.linalg.norm(v0) >= 0.5)
    v = np.zeros(r.space_dim, dtype=complex)
    v[zero] = v0
    rep = gns_roundtrip(r, v)
    assert rep.passed, rep.to_text()
    assert rep.context["level_used"] <= 2
    rank_v = check_cyclic(r, v).context["rank"]
    check = next(c for c in rep.checks if c.name == "reconstruction")
    assert check.detail == f"dimension {rank_v}, level {rep.context['level_used']}"
    if dims[0] < 2:
        return
    # w: the unit vector of the zero sector furthest from v, made
    # orthogonal to v and as long, in the Gram of that sector
    norm2 = np.real(v0.conj() @ g0 @ v0)
    rest = np.eye(dims[0]) - np.outer(v0, v0.conj() @ g0) / norm2
    w0 = rest[:, np.argmax(np.real(np.sum(rest.conj() * (g0 @ rest), axis=0)))]
    w0 *= np.sqrt(norm2 / np.real(w0.conj() @ g0 @ w0))
    w = np.zeros(r.space_dim, dtype=complex)
    w[zero] = w0
    psi_v, psi_w = PDFunction.from_rep(r, v), PDFunction.from_rep(r, w)
    diff = PDFunction(r.algebra, lambda s: psi_v(s) - psi_w(s))
    pd = check_positive_definite(diff, build_sample_set(r.algebra, [], 1))
    assert "gram positive semidefinite" in failing_names(pd)


@st.composite
def _unit_rank_two_shapes(draw):
    return [1] + [draw(st.integers(0, 1)) for _ in range(3)], draw(st.integers(0, 2 ** 16))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(shape=_unit_rank_two_shapes(),
       v0=st.complex_numbers(min_magnitude=0.5, max_magnitude=2,
                             allow_nan=False, allow_infinity=False))
def test_the_table_route_rebuilds_the_rep_route_on_random_shapes(shape, v0):
    # psi = (rho(w) v, v) tabulated on the words the table route reads at
    # the level after the one the rep route settles on, without group samples
    dims, seed = shape
    r, zero, _ = _skew_shape_state(2, dims, seed)
    l = r.algebra
    v = np.zeros(r.space_dim, dtype=complex)
    v[zero] = v0
    by_rep = gns_construct(PDFunction.from_rep(r, v), group_samples=[])
    gv = r.inner.gram_dense() @ v
    cols, table = {(): v}, {}
    for w in normal_words(l, 2 * (by_rep.level_used + 1)):
        if w:
            cols[w] = r.rho_matrix(w[0]) @ cols[w[1:]]
        table[w] = gv.conj() @ cols[w]
    by_table = gns_construct(PDFunction.from_table(l, table))
    assert ((by_table.rep.space_dim, by_table.level_used)
            == (by_rep.rep.space_dim, by_rep.level_used))
    unitary_equivalence(r, v, by_table.rep, by_table.cyclic)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=_skew_shapes(), data=st.data())
def test_a_rep_function_is_the_coefficient_of_the_formed_operator(shape, data):
    # conjugated reps have non-standard Grams; every element has a word out
    # of normal order among its terms, and the group part is drawn from the
    # default samples, all bound to the space
    rank, dims, seed = shape
    r, _, _ = _skew_shape_state(rank, dims, seed)
    l = r.algebra
    assume(l.dim >= 2)
    entries = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    v = np.array(data.draw(st.lists(entries, min_size=r.space_dim,
                                    max_size=r.space_dim)), dtype=complex)
    letters = st.integers(0, l.dim - 1)
    words = st.lists(letters, max_size=4).map(tuple)
    top = data.draw(st.integers(1, l.dim - 1))
    unordered = (top, data.draw(st.integers(0, top - 1))) + data.draw(words)
    terms = {unordered: data.draw(entries), **data.draw(
        st.dictionaries(words, entries, min_size=1, max_size=4))}
    groups = default_group_samples(r)
    assert all(g.pi is not None for g in groups)
    psi = PDFunction.from_rep(r, v)
    for g in (groups[0], groups[data.draw(st.integers(0, len(groups) - 1))]):
        for s in (MonoidElement(g, EnvElement(l, terms)),
                  MonoidElement(g, EnvElement(l, {unordered: 1.0}))):
            value = psi(s)
            assert abs(value - _operator_coefficient(r, v, s)) <= 1e-12 * max(1.0, abs(value))


# ------------------------------------------------------------- non-finite data

def test_nan_value_fails_the_support_condition():
    l = clifford_state()[0].algebra     # y = basis element 1 is odd
    psi = PDFunction.from_table(l, {(): 1.0, (1,): np.nan})
    rep = check_positive_definite(psi, build_sample_set(l, [], 1))
    support = next(c for c in rep.checks if c.name == "support condition")
    assert not support.passed
    assert np.isnan(support.residual)
    assert "worst at degree" in support.detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_operator_fails_positivity_in_memory():
    r = spoiled_clifford(np.nan)
    psi = PDFunction.from_rep(r, np.array([1.0, 0.0]))
    samples = build_sample_set(r.algebra, default_group_samples(r), 2)
    rep = check_positive_definite(psi, samples)
    assert {"gram hermitian", "gram positive semidefinite"} <= set(
        failing_names(rep))
    with pytest.raises(PositivityError):
        gns_construct(psi)
