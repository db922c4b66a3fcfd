"""Stock algebras and representations used as fixtures everywhere else."""

import numpy as np
import pytest

from helpers import dense_constants

from colorrep import generators
from colorrep.colorlie import check_axioms, check_perfectness
from colorrep.generators import (
    _skew_basis,
    character_generator,
    clifford_algebra,
    clifford_parity_generator,
    clifford_rep,
    conjugated_rep,
    counterexample_algebra,
    counterexample_prerep,
    random_color_algebra,
    skew_matrix_algebra,
)
from colorrep.grading import Character, Degree, all_degrees, beta
from colorrep.hcpair import HCPair, check_ad_map
from colorrep.reps import UnitaryRep, check_pre_rep, check_unitary_rep
from colorrep.spaces import GradedSpace


def test_clifford_algebra_structure():
    l = clifford_algebra()
    assert l.dim == 2
    assert l.labels == ["x", "y"]
    assert l.degrees == [Degree((0,)), Degree((1,))]
    expected = np.zeros((2, 2, 2))
    expected[1, 1, 0] = 1.0  # [y, y] = x
    assert np.array_equal(dense_constants(l), expected)
    assert check_axioms(l).passed


def test_clifford_rep_frozen_one_dim():
    # b = 2 pins every entry of both operators
    r = clifford_rep(1, b=[[2.0]])
    assert np.allclose(r.rho_matrix(1), [[0.0, -2.0j], [2.0, 0.0]])
    assert np.allclose(r.rho_matrix(0), [[-8.0j, 0.0], [0.0, -8.0j]])
    rep = check_unitary_rep(r)
    assert rep.passed, rep.to_text()


def test_clifford_rep_random_block_passes():
    r = clifford_rep(3, seed=5)
    rep = check_unitary_rep(r)
    assert rep.passed, rep.to_text()
    assert rep.max_residual() < 1e-12


def test_clifford_rep_rejects_bad_block_shape():
    with pytest.raises(ValueError, match="2x2"):
        clifford_rep(2, b=[[1.0]])


def test_clifford_parity_generator_equivariant():
    r = clifford_rep(2, seed=11)
    gen = clifford_parity_generator(2)
    assert check_ad_map(r.algebra, gen.ad).passed
    with_parity = UnitaryRep(HCPair(r.algebra, [gen]), r.inner, r.rho)
    rep = check_unitary_rep(with_parity)
    assert rep.passed, rep.to_text()


def test_counterexample_algebra_is_valid_but_not_perfect():
    l = counterexample_algebra()
    assert check_axioms(l).passed
    rep = check_perfectness(l)
    assert not rep.passed
    assert rep.context["sectors"]["11"]["rank"] == 0
    assert rep.context["sectors"]["11"]["dim"] == 1


def test_counterexample_prerep_is_vacuously_consistent():
    p = counterexample_prerep()
    assert p.rho == {}
    rep = check_pre_rep(p)
    assert rep.passed, rep.to_text()


def test_skew_matrix_algebra_one_one_frozen():
    v = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1})
    l, r = skew_matrix_algebra(v)
    assert l.dim == 4
    assert l.labels == ["h0", "h1", "a0_1", "b0_1"]
    # worked by hand: [a, a] = 2 a^2 = -2i I and [h0, a] = b
    c = dense_constants(l)
    assert c[2, 2, 0] == pytest.approx(-2.0)
    assert c[2, 2, 1] == pytest.approx(-2.0)
    assert c[0, 2, 3] == pytest.approx(1.0)
    assert np.allclose(r.rho_matrix(0), [[1.0j, 0.0], [0.0, 0.0]])
    assert np.allclose(r.rho_matrix(2), [[0.0, 1.0], [-1.0j, 0.0]])
    assert np.allclose(r.rho_matrix(3), [[0.0, 1.0j], [-1.0, 0.0]])
    assert check_axioms(l).passed
    rep = check_unitary_rep(r)
    assert rep.passed, rep.to_text()


def test_skew_matrix_algebra_four_lines():
    dims = {Degree((0, 0)): 1, Degree((0, 1)): 1,
            Degree((1, 0)): 1, Degree((1, 1)): 1}
    l, r = skew_matrix_algebra(GradedSpace(2, dims))
    assert l.dim == 16
    assert check_axioms(l).passed
    rep = check_unitary_rep(r)
    assert rep.passed, rep.to_text()


def _pinv_structure(v):
    """The skew-matrix constants by a least-squares expansion of every
    bracket over the flattened basis, with the solver dust left in."""
    basis = _skew_basis(v)
    mats = [m for _, _, m in basis]
    cols = np.column_stack([np.concatenate([m.real.ravel(), m.imag.ravel()])
                            for m in mats])
    solver = np.linalg.pinv(cols)
    d = len(mats)
    out = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            sign = beta(basis[i][1], basis[j][1])
            br = mats[i] @ mats[j] - sign * (mats[j] @ mats[i])
            out[i, j] = solver @ np.concatenate([br.real.ravel(), br.imag.ravel()])
    return out


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 1, 1, 0), (2, 2, 2, 2)])
def test_skew_matrix_constants_are_exact(shape):
    v = GradedSpace(2, {d: n for d, n in zip(all_degrees(2), shape) if n})
    l, _ = skew_matrix_algebra(v, validate=False)
    c = dense_constants(l)
    # sums of a few unit phases: small integers, read off with no solve
    assert set(np.unique(c)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}
    want = _pinv_structure(v)
    assert np.max(np.abs(c - want)) <= 1e-15
    assert np.array_equal(c != 0, np.abs(want) > 1e-12)


def test_a_bracket_outside_the_basis_span_is_refused(monkeypatch):
    # without h0, the bracket [a0_1, a0_1] = -2i I has no coordinates
    monkeypatch.setattr(generators, "_skew_basis",
                        lambda v: [b for b in _skew_basis(v) if b[0] != "h0"])
    v = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1})
    with pytest.raises(RuntimeError) as err:
        skew_matrix_algebra(v)
    # h1 takes the -2i at (1, 1); the -2i at (0, 0) is left over
    assert str(err.value) == "bracket of a0_1, a0_1 left the span (residual 2.000e+00)"


def test_character_generator_equivariant():
    v = GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 2})
    l, r = skew_matrix_algebra(v)
    gen = character_generator(v, l, Character((-1,)))
    assert check_ad_map(l, gen.ad).passed
    with_gen = UnitaryRep(HCPair(l, [gen]), r.inner, r.rho)
    rep = check_unitary_rep(with_gen)
    assert rep.passed, rep.to_text()


def test_conjugated_rep_stays_valid_with_nontrivial_gram():
    base = clifford_rep(2, seed=3)
    moved = conjugated_rep(base, seed=8)
    rep = check_unitary_rep(moved)
    assert rep.passed, rep.to_text()
    even = Degree((0,))
    assert not np.allclose(moved.inner.gram[even], np.eye(2))


def test_conjugated_rep_transports_generators():
    base = clifford_rep(2, seed=3)
    gen = clifford_parity_generator(2)
    with_gen = UnitaryRep(HCPair(base.algebra, [gen]), base.inner, base.rho)
    moved = conjugated_rep(with_gen, seed=21)
    assert len(moved.pair.extra_generators) == 1
    rep = check_unitary_rep(moved)
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_random_color_algebra_always_valid(rank, seed):
    l = random_color_algebra(rank, seed)
    assert l.rank == rank
    assert 1 <= l.dim <= 6
    rep = check_axioms(l)
    assert rep.passed, rep.to_text()


def test_random_color_algebra_hits_odd_sectors():
    # at least some draws must produce odd-like generators or the
    # stability fixtures would be vacuous
    seen_odd = False
    for seed in range(8):
        l = random_color_algebra(2, seed)
        if l.odd_degrees():
            seen_odd = True
            break
    assert seen_odd
