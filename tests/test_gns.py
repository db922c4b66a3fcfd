"""Positive definite functions and the reconstruction of cyclic representations."""

import numpy as np
import pytest

from helpers import spoiled_clifford

from colorrep import gns
from colorrep.colorlie import ColorLieAlgebra
from colorrep.enveloping import EnvElement, MonoidElement, s_star
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
    normal_words,
    sample_gram,
    unitary_equivalence,
)
from colorrep.grading import Degree
from colorrep.hcpair import GroupElement, HCPair
from colorrep.reps import UnitaryRep, check_unitary_rep, matrix_coefficient
from colorrep.spaces import GammaInnerSpace, GradedSpace, HomogeneousMap

FOUR_LINES = GradedSpace(2, {Degree((0, 0)): 1, Degree((0, 1)): 1,
                             Degree((1, 0)): 1, Degree((1, 1)): 1})


def one_line_algebra():
    """Single even generator with zero bracket."""
    return ColorLieAlgebra(1, ["h"], [Degree((0,))], np.zeros((1, 1, 1)),
                           validate=True)


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


# ------------------------------------------------------------------ samples

def test_normal_words_skip_odd_squares():
    l = clifford_algebra()
    words = normal_words(l, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1)]


def test_sample_set_starts_with_identity_and_binds_it():
    r, _ = clifford_state()
    ss = build_sample_set(r.algebra, default_group_samples(r), 1)
    assert ss.elements[0].is_identity()
    # bound so that stars and products keep their actions
    assert ss.elements[0].group.pi is not None
    assert len(ss) == ss.group_count * 3


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
    p = _block_change(FOUR_LINES, np.random.default_rng(21), 0.4)
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


def _route_states():
    """(rep, vector, group samples, level) for the factored/dense comparison.

    The conjugated states have a non-trivial space Gram.  The last vector
    lies in one summand of a direct sum: it is not cyclic, so W has zero
    singular values besides the zero padding.  The four-lines state stays at
    level 1 because its level-2 Gram costs 145^2 monoid products densely.
    """
    rc = clifford_rep(2, seed=3)
    pc = _block_change(rc.inner.space, np.random.default_rng(21), 0.4)
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


def test_escaping_translate_is_refused_on_both_routes():
    # rho = 0 and a 3-cycle pi(h): the samples 1 and h see e1 and e2, but
    # h translates the class of h to e3, outside the certified span
    l = one_line_algebra()
    space = GradedSpace(1, {Degree((0,)): 3})
    h = GroupElement("h", np.eye(1), np.roll(np.eye(3), 1, axis=0))
    zero = HomogeneousMap.from_dense(space, space, l.degrees[0],
                                     np.zeros((3, 3)))
    r = UnitaryRep(HCPair(l, [h]), GammaInnerSpace.standard(space), [zero])
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    for psi in _both_routes(r, v):
        with pytest.raises(StabilizationError) as err:
            gns_construct(psi, group_samples=[GroupElement.identity(1, 3), h])
        assert str(err.value) == (
            "left translation by pi(h) leaves the certified span "
            "(escape 1.000e+00 on sample 1)")


def test_each_sample_gram_is_built_once():
    l = clifford_algebra()
    table = PDFunction.from_table(l, {(): 1.0})
    calls = []
    psi = PDFunction(l, lambda s: calls.append(s) or table(s))
    res = gns_construct(psi)
    assert res.level_used == 0
    # Grams at levels 0 and 1 (1 + 9), the support condition on the odd
    # sample (1), two generators translating one sample (2 * (1 + 1)) and
    # one reproducing pick (1 + 1); the level-1 Gram is not built again
    assert len(calls) == 1 + 9 + 1 + 4 + 2


def test_dense_gram_stars_each_sample_once(monkeypatch):
    l = clifford_algebra()
    samples = build_sample_set(l, [], 2)
    assert len(samples) == 5
    stars = []
    monkeypatch.setattr(gns, "s_star", lambda s: stars.append(s) or s_star(s))
    check_positive_definite(PDFunction.from_table(l, {(): 1.0}), samples)
    assert len(stars) == 5


def test_empty_sample_set_is_an_error():
    l = one_line_algebra()
    psi = PDFunction.from_table(l, {(): 1.0})
    with pytest.raises(ValueError, match="empty"):
        check_positive_definite(psi, [])


def test_sample_gram_refuses_an_empty_sample_set():
    psi = PDFunction.from_table(one_line_algebra(), {(): 1.0})
    with pytest.raises(ValueError, match="sample set is empty"):
        sample_gram(psi, [])


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


# ---------------------------------------------------------------- equivalence

def test_self_equivalence_is_the_identity():
    r, v0 = four_lines_state()
    t = unitary_equivalence(r, v0, r, v0)
    assert np.allclose(t, np.eye(4), atol=1e-12)


def test_equivalence_recovers_the_change_of_basis():
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=13)
    p = _block_change(FOUR_LINES, np.random.default_rng(13), 0.4)
    t = unitary_equivalence(r, v0, rc, p @ v0)
    assert np.allclose(t, p, atol=1e-12)


def test_equivalence_rejects_mutated_operators():
    r, v0 = four_lines_state()
    rc = conjugated_rep(r, seed=13)
    p = _block_change(FOUR_LINES, np.random.default_rng(13), 0.4)
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
    p = _block_change(FOUR_LINES, np.random.default_rng(21), 0.4)
    rep = gns_roundtrip(rc, p @ v0)
    assert rep.passed, failing_names(rep)


def test_wide_clifford_roundtrip():
    r = clifford_rep(3, seed=5)
    v0 = np.zeros(6, dtype=complex)
    v0[0] = 1.0
    rep = gns_roundtrip(r, v0)
    assert rep.passed, failing_names(rep)
    assert rep.context["level_used"] <= 2


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
