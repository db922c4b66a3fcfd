"""Group elements acting on a color Lie algebra: automorphism validation."""

import numpy as np
import pytest

from helpers import bind, dense_constants, random_structure, spoiled_four_lines

from colorrep.colorlie import ColorLieAlgebra, ad_operator, bracket, glV
from colorrep.errors import AxiomError, RankMismatchError
from colorrep.generators import clifford_algebra, skew_matrix_algebra
from colorrep.grading import Degree
from colorrep.hcpair import (
    _THETA,
    _THETA13,
    GroupElement,
    HCPair,
    _expm,
    check_ad_map,
    check_pair,
    inner_element,
)
from colorrep.spaces import GradedSpace


def _d(bits):
    return Degree(tuple(int(c) for c in bits))


def _gl11():
    return glV(GradedSpace(1, {_d("0"): 1, _d("1"): 1}))


# basis [E0_0, E1_1, E0_1, E1_0]; flipping the sign of the odd part
# preserves every bracket (odd-odd products lose the sign twice)
def _parity_ad():
    return np.diag([1.0, 1.0, -1.0, -1.0])


def _abelian(dim):
    """An abelian algebra of even lines: every invertible map is automorphic."""
    return ColorLieAlgebra(1, [f"z{i:02d}" for i in range(dim)],
                           [_d("0")] * dim, np.zeros((dim, dim, dim)))


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestGroupElement:
    def test_identity(self):
        e = GroupElement.identity(4)
        assert e.is_identity()
        assert e.pi is None

    def test_identity_with_pi(self):
        e = GroupElement.identity(4, pi_dim=3)
        assert e.is_identity()
        assert e.pi.shape == (3, 3)

    def test_the_identity_is_shared_and_read_only(self):
        e = GroupElement.identity(4, pi_dim=3)
        assert GroupElement.identity(4, 3) is e
        assert GroupElement.identity(4) is not e
        for m in (e.ad, e.pi, GroupElement.identity(4).ad):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                m += 1.0
        np.testing.assert_array_equal(e.ad, np.eye(4))
        np.testing.assert_array_equal(e.pi, np.eye(3))

    def test_compose_inverse_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + np.eye(4) * 3
        g = GroupElement("g", m)
        prod = g.compose(g.inverse())
        np.testing.assert_allclose(prod.ad, np.eye(4), atol=1e-10)
        # equal to the identity matrix, but not the identity by construction
        assert not prod.is_identity()

    def test_compose_is_matrix_product(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 3, 3))
        g = GroupElement("a", a).compose(GroupElement("b", b))
        np.testing.assert_allclose(g.ad, a @ b)

    def test_compose_drops_pi_against_unbound_non_identity(self):
        a = GroupElement("a", np.eye(2), pi=2 * np.eye(2))
        b = GroupElement("b", np.diag([1.0, -1.0]))
        assert a.compose(b).pi is None
        assert a.compose(a).pi is not None

    def test_unbound_identity_is_neutral_in_compose(self):
        # composing with the plain identity must not strip a bound action
        a = GroupElement("a", np.eye(2), pi=2 * np.eye(2))
        e = GroupElement.identity(2)
        np.testing.assert_allclose(a.compose(e).pi, a.pi)
        np.testing.assert_allclose(e.compose(a).pi, a.pi)

    def test_compose_keeps_ad_and_pi_on_every_identity_pairing(self):
        def reference_pi(x, y):
            # a bound pair multiplies; an unbound identity passes the other
            # side's action through; anything else unbound drops it
            if x.pi is not None and y.pi is not None:
                return x.pi @ y.pi
            if x.pi is None and x.is_identity():
                return y.pi
            if y.pi is None and y.is_identity():
                return x.pi
            return None

        flip = np.diag([1.0, -1.0])
        elements = [GroupElement.identity(2), GroupElement.identity(2, 2),
                    GroupElement("a", flip), GroupElement("b", flip, pi=2 * np.eye(2))]
        for x in elements:
            for y in elements:
                prod = x.compose(y)
                np.testing.assert_array_equal(prod.ad, x.ad @ y.ad)
                want = reference_pi(x, y)
                if want is None:
                    assert prod.pi is None
                else:
                    np.testing.assert_array_equal(prod.pi, want)
                assert prod.is_identity() == (x.is_identity() and y.is_identity())

    def test_identity_is_its_own_inverse(self):
        e = GroupElement.identity(3, pi_dim=2)
        assert e.inverse() is e

    def test_inverse_is_computed_once(self, monkeypatch):
        g = GroupElement("b", np.diag([1.0, -1.0]), pi=2 * np.eye(2))
        calls = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: calls.append(a) or real(a))
        inv = g.inverse()
        assert g.inverse() is inv and len(calls) == 2   # ad and pi, once
        np.testing.assert_array_equal(inv.ad, np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(inv.pi, 0.5 * np.eye(2))
        assert inv.label == "b^-1"

    def test_a_matrix_equal_to_the_identity_is_not_the_identity(self):
        l = _gl11()
        at_zero = inner_element(l, np.array([1.0, -1.0, 0, 0]), t=0.0)
        g = GroupElement("p", _parity_ad())
        assert not at_zero.is_identity()
        assert not g.compose(g.inverse()).is_identity()

    def test_bind(self):
        g = GroupElement("g", np.eye(2))
        h = bind(g, np.eye(5))
        assert h.pi.shape == (5, 5)
        assert g.pi is None

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GroupElement("g", np.zeros((2, 3)))

    def test_a_complex_ad_matrix_is_refused(self):
        # a cast to float would keep the zero matrix, with only a warning
        with pytest.raises(ValueError, match="ad matrix has a nonzero imaginary part"):
            GroupElement("g", 1j * np.eye(2))
        # a complex matrix whose imaginary part is zero is read as its real part
        g = GroupElement("g", np.eye(2) + 0j)
        assert g.ad.dtype == float
        np.testing.assert_array_equal(g.ad, np.eye(2))


class TestAdOperator:
    def test_matches_basis_ad(self):
        l = _gl11()
        for i in range(l.dim):
            e = np.zeros(l.dim)
            e[i] = 1.0
            np.testing.assert_array_equal(ad_operator(l, e), dense_constants(l)[i].T)

    def test_matches_bracket(self):
        l = _gl11()
        rng = np.random.default_rng(11)
        x = rng.normal(size=l.dim)
        y = rng.normal(size=l.dim)
        np.testing.assert_allclose(ad_operator(l, x) @ y, bracket(l, x, y),
                                   atol=1e-12)

    def test_length_check(self):
        with pytest.raises(ValueError):
            ad_operator(_gl11(), np.ones(3))


def test_inner_element_refuses_a_complex_coefficient():
    # a cast to float would drop the imaginary part and give exp(0) = I
    l = _gl11()
    coeffs = np.zeros(l.dim, dtype=complex)
    coeffs[0] = 1j
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        inner_element(l, coeffs)


class TestCheckAdMap:
    def test_identity_passes(self):
        l = _gl11()
        assert check_ad_map(l, np.eye(l.dim)).passed

    def test_parity_flip_passes(self):
        assert check_ad_map(_gl11(), _parity_ad()).passed

    def test_broken_bracket_fails(self):
        l = _gl11()
        bad = _parity_ad()
        bad[2, 2] = -2.0  # scales one odd line only: breaks odd-odd brackets
        rep = check_ad_map(l, bad)
        assert not rep.passed
        names = [c.name for c in rep.checks if not c.passed]
        assert names == ["bracket automorphism"]

    def test_degree_violation_fails(self):
        l = _gl11()
        bad = np.eye(l.dim)
        bad[0, 2] = 0.5  # even row, odd column
        rep = check_ad_map(l, bad)
        assert not any(c.passed for c in rep.checks if c.name == "grading preserved")

    def test_singular_fails(self):
        l = _gl11()
        rep = check_ad_map(l, np.zeros((l.dim, l.dim)))
        assert not rep.passed

    def test_a_complex_map_is_refused(self):
        # a cast to float would judge the zero matrix: "invertible (rank 0 of 2)"
        l = clifford_algebra()
        with pytest.raises(ValueError, match="ad matrix has a nonzero imaginary part"):
            check_ad_map(l, 1j * np.eye(2))
        assert check_ad_map(l, np.eye(2) + 0j).passed

    def test_shape_mismatch(self):
        with pytest.raises(RankMismatchError):
            check_ad_map(_gl11(), np.eye(3))

    def test_a_small_determinant_does_not_make_a_scaling_singular(self):
        # det(0.5 I) = 9.1e-13 on 40 lines, yet every singular value is 0.5
        l = _abelian(40)
        half = GroupElement("half", 0.5 * np.eye(40))
        assert _check(check_ad_map(l, half.ad), "invertible").passed
        assert HCPair(l, [half]).extra_generators == [half]

    def test_a_rounding_determinant_does_not_make_a_singular_map_invertible(self):
        # rank 2: the rounded det is about 1e-5, the least singular value 1e-13
        ad = 1e3 * np.arange(1.0, 10.0).reshape(3, 3)
        check = _check(check_ad_map(_abelian(3), ad), "invertible")
        assert not check.passed
        assert check.detail == "rank 2 of 3"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_map_is_not_invertible(self, bad):
        ad = np.eye(3)
        ad[1, 2] = bad
        check = _check(check_ad_map(_abelian(3), ad), "invertible")
        assert not check.passed
        assert check.detail == "non-finite entries"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_fails_grading_on_a_single_sector_algebra(self):
        # one sector: the grading allows every entry, so only the NaN fails
        l, _ = skew_matrix_algebra(GradedSpace(1, {_d("0"): 2}))
        bad = np.eye(l.dim)
        bad[0, 0] = np.nan
        check = next(c for c in check_ad_map(l, bad).checks
                     if c.name == "grading preserved")
        assert not check.passed
        assert not np.isfinite(check.residual)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_bracket_residual_names_its_pair(self):
        l = _gl11()
        bad = _parity_ad()
        bad[2, 2] = np.nan
        check = next(c for c in check_ad_map(l, bad).checks
                     if c.name == "bracket automorphism")
        assert not check.passed
        assert np.isnan(check.residual)
        assert check.detail.startswith("worst pair (")


def _einsum_ad_bracket(l, ad):
    """The bracket-automorphism residual and detail in the einsum form."""
    c = dense_constants(l)
    resid = (np.einsum("ijm,km->ijk", c, ad)
             - np.einsum("pi,qj,pqk->ijk", ad, ad, c))
    i, j, _ = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
    return float(np.max(np.abs(resid))), f"worst pair ({l.labels[i]}, {l.labels[j]})"


class TestCheckAdMapAgainstEinsum:
    @pytest.mark.parametrize("build", [spoiled_four_lines, random_structure],
                             ids=["spoiled-glV", "random-tensor"])
    def test_residual_and_pair_match(self, build):
        l = build()
        rng = np.random.default_rng(11)
        for ad in (np.eye(l.dim) + 0.25 * np.diag(rng.integers(-2, 3, size=l.dim)),
                   rng.standard_normal((l.dim, l.dim))):
            want, where = _einsum_ad_bracket(l, ad)
            check = next(c for c in check_ad_map(l, ad).checks
                         if c.name == "bracket automorphism")
            assert not check.passed
            assert check.residual == pytest.approx(want, rel=1e-12)
            assert check.detail == where


def _scaled(a, norm):
    return a * (norm / np.linalg.norm(a, 1))


class TestExpm:
    @pytest.mark.parametrize("kind", ["real", "complex", "skew-hermitian"])
    @pytest.mark.parametrize("norm", [1e-3, 0.7, 5.0, 40.0, 300.0])
    def test_matches_scipy(self, kind, norm):
        sl = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(int(norm * 1000) + len(kind))
        for n in (1, 3, 8):
            a = rng.standard_normal((n, n))
            if kind != "real":
                a = a + 1j * rng.standard_normal((n, n))
            if kind == "skew-hermitian":
                a = a - a.conj().T
            a = _scaled(a, norm)
            got, want = _expm(a), sl.expm(a)
            assert got.dtype == want.dtype
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
            if kind == "skew-hermitian":
                assert np.max(np.abs(got.conj().T @ got - np.eye(n))) <= 1e-11

    def test_norms_above_theta_force_squaring(self):
        # exp(A)^2 = exp(2A) exactly in theory; the squaring branch must agree
        a = _scaled(np.random.default_rng(3).standard_normal((6, 6)), _THETA13)
        two = _expm(2 * a)
        assert np.linalg.norm(two - _expm(a) @ _expm(a)) <= 1e-11 * np.linalg.norm(two)

    @pytest.mark.parametrize("band", range(6))
    def test_each_pade_degree_matches_scipy_on_skew_matrices(self, band):
        # one 1-norm inside each band: degrees 3, 5, 7, 9, 13 unscaled, and
        # 13 with squaring above theta_13
        sl = pytest.importorskip("scipy.linalg")
        edges = [0.0, *_THETA.values(), _THETA13, 4 * _THETA13]
        norm = (edges[band] + edges[band + 1]) / 2
        rng = np.random.default_rng(band)
        for n in (2, 3, 8):
            for a in (rng.standard_normal((n, n)),
                      rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n))):
                a = _scaled(a - a.conj().T, norm)
                got, want = _expm(a), sl.expm(a)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_gives_the_identity_exactly(self, dtype):
        e = _expm(np.zeros((4, 4), dtype=dtype))
        assert e.dtype == dtype
        np.testing.assert_array_equal(e, np.eye(4))


class TestInnerElement:
    def test_exponential_is_automorphism(self):
        l = _gl11()
        rng = np.random.default_rng(21)
        coeffs = np.zeros(l.dim)
        coeffs[:2] = rng.normal(size=2)  # even-like support
        g = inner_element(l, coeffs, t=0.7)
        assert check_ad_map(l, g.ad, tol=1e-9).passed

    def test_rejects_odd_support(self):
        l = _gl11()
        coeffs = np.zeros(l.dim)
        coeffs[2] = 1.0
        with pytest.raises(ValueError):
            inner_element(l, coeffs)

    def test_t_zero_is_identity(self):
        l = _gl11()
        g = inner_element(l, np.array([1.0, -1.0, 0, 0]), t=0.0)
        np.testing.assert_array_equal(g.ad, np.eye(4))


class TestHCPair:
    def test_good_pair(self):
        l = _gl11()
        pair = HCPair(l, [GroupElement("p", _parity_ad())])
        assert check_pair(pair).passed

    def test_empty_pair(self):
        pair = HCPair(_gl11())
        rep = check_pair(pair)
        assert rep.passed

    def test_bad_generator_raises(self):
        l = _gl11()
        bad = np.eye(l.dim)
        bad[2, 2] = 3.0
        with pytest.raises(AxiomError):
            HCPair(l, [GroupElement("bad", bad)])

    def test_validation_can_be_deferred(self):
        l = _gl11()
        bad = np.eye(l.dim)
        bad[2, 2] = 3.0
        pair = HCPair(l, [GroupElement("bad", bad)], validate=False)
        assert not check_pair(pair).passed

    def test_dimension_mismatch(self):
        with pytest.raises(RankMismatchError):
            HCPair(_gl11(), [GroupElement("g", np.eye(3))], validate=False)
