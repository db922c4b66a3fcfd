"""Sorted-word rewriting, the star anti-automorphism, and the monoid."""

import numpy as np
import pytest

from colorrep.colorlie import ColorLieAlgebra, glV
from colorrep.enveloping import (
    DEFAULT_LEVEL_CAP,
    EnvElement,
    MonoidElement,
    env_ad,
    env_max_diff,
    env_mul,
    env_star,
    is_normal_word,
    normal_form,
    s_mul,
    s_star,
    word_degree,
)
from colorrep.errors import LevelCapError
from colorrep.grading import Degree
from colorrep.hcpair import GroupElement, inner_element
from colorrep.spaces import GradedSpace


def _d(bits):
    return Degree(tuple(int(c) for c in bits))


def _gl11():
    return glV(GradedSpace(1, {_d("0"): 1, _d("1"): 1}))


def _four_lines():
    space = GradedSpace(2, {d: 1 for d in (_d("00"), _d("01"), _d("10"), _d("11"))})
    return glV(space)


def _unit_matrix(l, i):
    # labels look like E{p}_{q}; the matrix is the (p, q) unit
    p, q = (int(s) for s in l.labels[i][1:].split("_"))
    t = int(round(np.sqrt(l.dim)))
    m = np.zeros((t, t))
    m[p, q] = 1.0
    return m


def _word_matrix(l, word):
    t = int(round(np.sqrt(l.dim)))
    m = np.eye(t)
    for i in word:
        m = m @ _unit_matrix(l, i)
    return m


def _env_matrix(l, d):
    t = int(round(np.sqrt(l.dim)))
    m = np.zeros((t, t), dtype=complex)
    for w, c in d.terms.items():
        m += c * _word_matrix(l, w)
    return m


def _random_env(l, rng, max_len=2, nterms=2):
    terms = {}
    for _ in range(nterms):
        length = int(rng.integers(0, max_len + 1))
        word = tuple(int(i) for i in rng.integers(0, l.dim, size=length))
        coeff = complex(rng.normal(), rng.normal())
        nf = normal_form(l, word, level_cap=max(DEFAULT_LEVEL_CAP, length))
        for w, c in nf.terms.items():
            terms[w] = terms.get(w, 0j) + coeff * c
    return EnvElement(l, terms)


class TestNormalWords:
    def test_sorted_word_is_normal(self):
        l = _gl11()
        assert is_normal_word(l, (0, 1, 2, 3))

    def test_descent_is_not_normal(self):
        assert not is_normal_word(_gl11(), (3, 2))

    def test_odd_square_is_not_normal(self):
        assert not is_normal_word(_gl11(), (2, 2))

    def test_even_square_is_normal(self):
        assert is_normal_word(_gl11(), (0, 0))

    def test_word_degree_is_xor(self):
        l = _four_lines()
        w = (1, 2, 3)
        expect = l.degrees[1] * l.degrees[2] * l.degrees[3]
        assert word_degree(l, w) == expect


class TestNormalForm:
    def test_sorted_word_fixed(self):
        l = _gl11()
        nf = normal_form(l, (0, 2, 3))
        assert nf.terms == {(0, 2, 3): 1.0 + 0j}

    def test_empty_word(self):
        l = _gl11()
        assert normal_form(l, ()).terms == {(): 1.0 + 0j}

    # frozen by hand: x3 x2 = beta x2 x3 + [x3, x2], beta = -1,
    # [E1_0, E0_1] = E0_0 + E1_1
    def test_single_swap(self):
        l = _gl11()
        nf = normal_form(l, (3, 2))
        assert set(nf.terms) == {(2, 3), (0,), (1,)}
        assert nf.terms[(2, 3)] == pytest.approx(-1.0)
        assert nf.terms[(0,)] == pytest.approx(1.0)
        assert nf.terms[(1,)] == pytest.approx(1.0)

    # frozen: square of an odd generator with [x, x] = 0 vanishes
    def test_odd_square_vanishes(self):
        l = _gl11()
        assert normal_form(l, (2, 2)).is_zero

    def test_commuting_odd_lines_anticommute(self):
        # two generators in one odd sector of an abelian algebra: beta = -1
        degs = [_d("1"), _d("1")]
        l = ColorLieAlgebra(1, ["a", "b"], degs, np.zeros((2, 2, 2)))
        nf = normal_form(l, (1, 0))
        assert nf.terms == {(0, 1): -1.0 + 0j}

    def test_distinct_odd_sectors_commute(self):
        # rank 2, sectors (0,1) and (1,0): the pairing form vanishes, beta = +1
        degs = [_d("01"), _d("10")]
        l = ColorLieAlgebra(2, ["a", "b"], degs, np.zeros((2, 2, 2)))
        nf = normal_form(l, (1, 0))
        assert nf.terms == {(0, 1): 1.0 + 0j}

    def test_level_filtration(self):
        l = _four_lines()
        rng = np.random.default_rng(5)
        for _ in range(20):
            word = tuple(int(i) for i in rng.integers(0, l.dim, size=4))
            assert normal_form(l, word).level <= len(word)

    def test_degree_preserved(self):
        l = _four_lines()
        rng = np.random.default_rng(6)
        for _ in range(20):
            word = tuple(int(i) for i in rng.integers(0, l.dim, size=3))
            nf = normal_form(l, word)
            if not nf.is_zero:
                assert nf.degree == word_degree(l, word)

    def test_matrix_faithfulness(self):
        # the rewriting is invisible to the defining matrix representation
        for l in (_gl11(), _four_lines()):
            rng = np.random.default_rng(7)
            for _ in range(30):
                word = tuple(int(i) for i in rng.integers(0, l.dim, size=5))
                nf = normal_form(l, word)
                np.testing.assert_allclose(_env_matrix(l, nf),
                                           _word_matrix(l, word), atol=1e-9)

    def test_confluence(self):
        for l in (_gl11(), _four_lines()):
            rng = np.random.default_rng(8)
            for _ in range(40):
                word = tuple(int(i) for i in rng.integers(0, l.dim, size=6))
                left = normal_form(l, word, strategy="leftmost")
                right = normal_form(l, word, strategy="rightmost")
                assert env_max_diff(left, right) <= 1e-8

    def test_level_cap(self):
        l = _gl11()
        with pytest.raises(LevelCapError):
            normal_form(l, (0,) * 7)
        assert normal_form(l, (0,) * 7, level_cap=8).level == 7

    def test_bad_index(self):
        with pytest.raises(ValueError):
            normal_form(_gl11(), (9,))

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            normal_form(_gl11(), (2, 3), strategy="sideways")


class TestEnvElement:
    def test_zero_coefficients_dropped(self):
        l = _gl11()
        d = EnvElement(l, {(0,): 0.0, (1,): 2.0})
        assert set(d.terms) == {(1,)}

    def test_degree_mixed(self):
        l = _gl11()
        assert EnvElement(l, {(0,): 1.0, (2,): 1.0}).degree is None
        assert EnvElement(l, {(2,): 1.0}).degree == _d("1")
        assert EnvElement.one(l).degree == _d("0")

    def test_linear_ops(self):
        l = _gl11()
        x = EnvElement.generator(l, 2)
        y = EnvElement.generator(l, 3)
        z = 2.0 * x + y * (1j) - x
        assert z.coefficient((2,)) == pytest.approx(1.0)
        assert z.coefficient((3,)) == pytest.approx(1j)
        assert (z - z).is_zero

    def test_from_vector(self):
        l = _gl11()
        d = EnvElement.from_vector(l, [0.0, 1.5, 0.0, -2.0])
        assert d.terms == {(1,): 1.5 + 0j, (3,): -2.0 + 0j}


class TestEnvMul:
    def test_one_is_neutral(self):
        l = _gl11()
        rng = np.random.default_rng(9)
        d = _random_env(l, rng)
        one = EnvElement.one(l)
        assert env_max_diff(env_mul(l, one, d), d) <= 1e-12
        assert env_max_diff(env_mul(l, d, one), d) <= 1e-12

    def test_generators_multiply_to_words(self):
        l = _gl11()
        x, y = EnvElement.generator(l, 2), EnvElement.generator(l, 3)
        assert env_mul(l, x, y).terms == {(2, 3): 1.0 + 0j}

    def test_associative(self):
        for l in (_gl11(), _four_lines()):
            rng = np.random.default_rng(10)
            for _ in range(10):
                a, b, c = (_random_env(l, rng) for _ in range(3))
                lhs = env_mul(l, env_mul(l, a, b), c)
                rhs = env_mul(l, a, env_mul(l, b, c))
                assert env_max_diff(lhs, rhs) <= 1e-10

    def test_degree_multiplies(self):
        l = _four_lines()
        x = EnvElement.generator(l, 1)
        y = EnvElement.generator(l, 2)
        prod = env_mul(l, x, y)
        assert prod.degree == l.degrees[1] * l.degrees[2]

    def test_level_cap(self):
        l = _gl11()
        d = EnvElement(l, {(0, 0, 2, 3): 1.0})  # level 4, product level 8
        with pytest.raises(LevelCapError):
            env_mul(l, d, d)
        env_mul(l, d, d, level_cap=8)

    def test_matrix_faithfulness(self):
        l = _gl11()
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = _random_env(l, rng), _random_env(l, rng)
            prod = env_mul(l, a, b)
            np.testing.assert_allclose(_env_matrix(l, prod),
                                       _env_matrix(l, a) @ _env_matrix(l, b),
                                       atol=1e-9)


class TestEnvStar:
    # frozen: alpha(0) = 1 so x* = -x; alpha(e1) = i so x* = i x
    def test_even_generator(self):
        l = _gl11()
        d = env_star(l, EnvElement.generator(l, 0))
        assert d.terms == {(0,): -1.0 + 0j}

    def test_odd_generator(self):
        l = _gl11()
        d = env_star(l, EnvElement.generator(l, 2))
        assert d.terms == {(2,): 1j}

    # frozen by hand: (x2 x3)* = x3* x2* = (i x3)(i x2) = -x3 x2
    #               = x2 x3 - x0 - x1
    def test_product_word(self):
        l = _gl11()
        d = env_star(l, EnvElement(l, {(2, 3): 1.0}))
        assert set(d.terms) == {(2, 3), (0,), (1,)}
        assert d.terms[(2, 3)] == pytest.approx(1.0)
        assert d.terms[(0,)] == pytest.approx(-1.0)
        assert d.terms[(1,)] == pytest.approx(-1.0)

    def test_conjugate_linear(self):
        l = _gl11()
        rng = np.random.default_rng(12)
        d = _random_env(l, rng)
        c = complex(rng.normal(), rng.normal())
        lhs = env_star(l, d.scale(c))
        rhs = env_star(l, d).scale(np.conjugate(c))
        assert env_max_diff(lhs, rhs) <= 1e-12

    def test_involutive(self):
        for l in (_gl11(), _four_lines()):
            rng = np.random.default_rng(13)
            for _ in range(10):
                d = _random_env(l, rng, max_len=3)
                assert env_max_diff(env_star(l, env_star(l, d)), d) <= 1e-10

    def test_anti_multiplicative(self):
        for l in (_gl11(), _four_lines()):
            rng = np.random.default_rng(14)
            for _ in range(10):
                a, b = _random_env(l, rng), _random_env(l, rng)
                lhs = env_star(l, env_mul(l, a, b))
                rhs = env_mul(l, env_star(l, b), env_star(l, a))
                assert env_max_diff(lhs, rhs) <= 1e-10


class TestEnvAd:
    def test_identity_fixes(self):
        l = _gl11()
        rng = np.random.default_rng(15)
        d = _random_env(l, rng)
        g = GroupElement.identity(l.dim)
        assert env_max_diff(env_ad(g, d), d) <= 1e-12

    def test_identity_returns_the_element_itself(self):
        l = _gl11()
        d = _random_env(l, np.random.default_rng(15))
        assert env_ad(GroupElement.identity(l.dim), d) is d

    # flipping both odd sectors: a level-2 word in them picks up (-1)^2
    def test_parity_fixes_even_words(self):
        l = _gl11()
        g = GroupElement("p", np.diag([1.0, 1.0, -1.0, -1.0]))
        d = EnvElement(l, {(2, 3): 1.0})
        assert env_max_diff(env_ad(g, d), d) <= 1e-12

    def test_parity_negates_odd_words(self):
        l = _gl11()
        g = GroupElement("p", np.diag([1.0, 1.0, -1.0, -1.0]))
        d = EnvElement(l, {(2,): 1.0})
        assert env_max_diff(env_ad(g, d), -d) <= 1e-12

    def test_multiplicative_in_group(self):
        l = _gl11()
        rng = np.random.default_rng(16)
        g1 = inner_element(l, np.array([0.3, -0.7, 0, 0]), t=1.0, label="g1")
        g2 = GroupElement("p", np.diag([1.0, 1.0, -1.0, -1.0]))
        d = _random_env(l, rng, max_len=3)
        lhs = env_ad(g1.compose(g2), d)
        rhs = env_ad(g1, env_ad(g2, d))
        assert env_max_diff(lhs, rhs) <= 1e-10

    def test_algebra_map(self):
        # automorphisms act multiplicatively on the enveloping algebra
        l = _gl11()
        rng = np.random.default_rng(17)
        g = inner_element(l, np.array([0.4, 0.9, 0, 0]), t=0.8)
        a, b = _random_env(l, rng), _random_env(l, rng)
        lhs = env_ad(g, env_mul(l, a, b))
        rhs = env_mul(l, env_ad(g, a), env_ad(g, b))
        assert env_max_diff(lhs, rhs) <= 1e-10

    def test_preserves_degree(self):
        l = _gl11()
        g = inner_element(l, np.array([1.0, 0.5, 0, 0]), t=0.5)
        d = EnvElement(l, {(2,): 1.0 + 0j})
        out = env_ad(g, d)
        assert out.degree == _d("1")


def _random_monoid_element(l, rng, groups):
    g = groups[int(rng.integers(0, len(groups)))]
    return MonoidElement(g, _random_env(l, rng))


def _monoid_close(s1, s2, tol=1e-10):
    if not np.allclose(s1.group.ad, s2.group.ad, atol=tol):
        return False
    return env_max_diff(s1.env, s2.env) <= tol


class TestMonoid:
    def _setup(self):
        l = _gl11()
        rng = np.random.default_rng(18)
        groups = [
            GroupElement.identity(l.dim),
            GroupElement("p", np.diag([1.0, 1.0, -1.0, -1.0])),
            inner_element(l, np.array([0.5, -0.3, 0, 0]), t=1.0, label="e"),
        ]
        return l, rng, groups

    def test_neutral(self):
        l, rng, groups = self._setup()
        e = MonoidElement.identity(l)
        s = _random_monoid_element(l, rng, groups)
        assert _monoid_close(s_mul(e, s), s)
        assert _monoid_close(s_mul(s, e), s)

    def test_group_only_elements_compose(self):
        l, _, groups = self._setup()
        g1, g2 = groups[1], groups[2]
        prod = s_mul(MonoidElement.from_group(l, g1), MonoidElement.from_group(l, g2))
        np.testing.assert_allclose(prod.group.ad, g1.ad @ g2.ad, atol=1e-12)
        assert env_max_diff(prod.env, EnvElement.one(l)) <= 1e-12

    def test_associative(self):
        l, rng, groups = self._setup()
        for _ in range(10):
            a, b, c = (_random_monoid_element(l, rng, groups) for _ in range(3))
            cap = 12
            lhs = s_mul(s_mul(a, b, level_cap=cap), c, level_cap=cap)
            rhs = s_mul(a, s_mul(b, c, level_cap=cap), level_cap=cap)
            assert _monoid_close(lhs, rhs)

    def test_star_involutive(self):
        l, rng, groups = self._setup()
        for _ in range(10):
            s = _random_monoid_element(l, rng, groups)
            assert _monoid_close(s_star(s_star(s)), s)

    def test_star_antimultiplicative(self):
        l, rng, groups = self._setup()
        for _ in range(10):
            a, b = (_random_monoid_element(l, rng, groups) for _ in range(2))
            cap = 12
            lhs = s_star(s_mul(a, b, level_cap=cap))
            rhs = s_mul(s_star(b), s_star(a), level_cap=cap)
            assert _monoid_close(lhs, rhs)

    def test_star_env_only(self):
        l = _gl11()
        x = EnvElement.generator(l, 2)
        s = s_star(MonoidElement.from_env(x))
        assert s.group.is_identity()
        assert env_max_diff(s.env, env_star(l, x)) <= 1e-12

    def test_star_group_only(self):
        l, _, groups = self._setup()
        g = groups[2]
        s = s_star(MonoidElement.from_group(l, g))
        np.testing.assert_allclose(s.group.ad, np.linalg.inv(g.ad), atol=1e-10)
        assert env_max_diff(s.env, EnvElement.one(l)) <= 1e-10

    def test_identity_detection(self):
        l = _gl11()
        assert MonoidElement.identity(l).is_identity()
        assert not MonoidElement.from_env(EnvElement.generator(l, 0)).is_identity()
