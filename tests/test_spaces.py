"""Graded spaces, homogeneous maps, tensor structure, and the two adjoints."""

import numpy as np
import pytest

from helpers import (
    random_gamma_space,
    random_homog_map,
    random_homog_vector,
    random_space,
    random_vector,
)

from colorrep.errors import PositivityError
from colorrep.grading import Character, Degree, alpha, beta
from colorrep.spaces import (
    GammaInnerSpace,
    GradedSpace,
    HomogeneousMap,
    dagger_adjoint,
    gamma_inner,
    split_homogeneous,
    star_adjoint,
    symmetry,
    tensor_inner,
    tensor_map,
    tensor_space,
)


def _d(bits):
    return Degree(tuple(int(c) for c in bits))


def _super_space(even, odd):
    # rank-1 space with the usual (even|odd) shape
    return GradedSpace(1, {_d("0"): even, _d("1"): odd})


def test_graded_space_layout():
    v = GradedSpace(2, {_d("10"): 2, _d("00"): 1, _d("11"): 3})
    assert v.total_dim == 6
    assert [str(d) for d in v.degrees] == ["00", "10", "11"]
    assert v.slice_of(_d("10")) == slice(1, 3)
    assert v.dim(_d("01")) == 0
    assert v.basis_degrees[0] == _d("00")
    assert v.basis_degrees[-1] == _d("11")


def test_graded_space_drops_empty_sectors():
    v = GradedSpace(1, {_d("0"): 2, _d("1"): 0})
    assert v.degrees == [_d("0")]
    assert v.total_dim == 2


def test_homogeneous_degree_detection():
    v = _super_space(2, 2)
    rng = np.random.default_rng(0)
    x = random_homog_vector(rng, v, _d("1"))
    assert v.homogeneous_degree(x) == _d("1")
    assert v.homogeneous_degree(x + random_homog_vector(rng, v, _d("0"))) is None
    assert v.homogeneous_degree(np.zeros(4)) is None


def test_homogeneous_map_blocks_and_dense():
    rng = np.random.default_rng(1)
    v = _super_space(1, 1)
    t = random_homog_map(rng, v, _d("1"))
    dense = t.to_dense()
    # degree-1 map on (1|1): off-diagonal pattern
    assert dense[0, 0] == 0 and dense[1, 1] == 0
    back = HomogeneousMap.from_dense(v, v, _d("1"), dense, rtol=1e-12)
    assert back.distance(t) < 1e-14
    with pytest.raises(ValueError):
        HomogeneousMap.from_dense(v, v, _d("0"), dense, rtol=1e-12)


def test_compose_degrees_multiply():
    rng = np.random.default_rng(2)
    v = random_space(rng, 2, ensure_zero=True, min_sectors=4)
    s = random_homog_map(rng, v, _d("10"))
    t = random_homog_map(rng, v, _d("11"))
    st = s.compose(t)
    assert st.degree == _d("01")
    assert np.allclose(st.to_dense(), s.to_dense() @ t.to_dense())


def test_apply_matches_dense():
    rng = np.random.default_rng(3)
    v = random_space(rng, 2, min_sectors=3)
    for deg in v.degrees:
        t = random_homog_map(rng, v, deg)
        x = random_vector(rng, v)
        assert np.allclose(t.apply(x), t.to_dense() @ x)


def test_split_homogeneous_roundtrip():
    rng = np.random.default_rng(4)
    v = random_space(rng, 2, min_sectors=3)
    m = rng.standard_normal((v.total_dim, v.total_dim)) * (1 + 0j)
    comps = split_homogeneous(v, v, m)
    total = sum(c.to_dense() for c in comps.values())
    assert np.allclose(total, m)
    for d, c in comps.items():
        assert c.degree == d


# ---------------------------------------------------------------- tensor


def test_tensor_dims_super_case():
    v = _super_space(1, 1)
    tp = tensor_space(v, v)
    assert tp.dim(_d("0")) == 2
    assert tp.dim(_d("1")) == 2


def test_tensor_with_unit_object():
    rng = np.random.default_rng(5)
    unit = GradedSpace(2, {_d("00"): 1})
    w = random_space(rng, 2, min_sectors=3)
    tp = tensor_space(unit, w)
    assert tp.dims == w.dims


def test_tensor_single_pair_rank2():
    v = GradedSpace(2, {_d("10"): 1})
    w = GradedSpace(2, {_d("01"): 1})
    tp = tensor_space(v, w)
    assert tp.dims == {_d("11"): 1}


def test_pure_tensor_pairs():
    rng = np.random.default_rng(6)
    v = _super_space(2, 1)
    w = _super_space(1, 2)
    tp = tensor_space(v, w)
    x, y = random_vector(rng, v), random_vector(rng, w)
    t = tp.pure_tensor(x, y)
    for k, (i, j) in enumerate(tp.pairs):
        assert t[k] == x[i] * y[j]


# ---------------------------------------------------------------- inner products


def test_gamma_inner_frozen_values():
    h = GammaInnerSpace.standard(_super_space(1, 1))
    e0, e1 = np.array([1, 0], complex), np.array([0, 1], complex)
    assert gamma_inner(h, e0, e0) == 1
    # degree e1: conj(alpha) = conj(i) = -i
    assert gamma_inner(h, e1, e1) == -1j
    assert gamma_inner(h, e0, e1) == 0
    # recovering the ordinary square norm through alpha
    val = alpha(_d("1")).value * gamma_inner(h, e1, e1)
    assert val == pytest.approx(1.0)


def test_gamma_inner_hermitian_like():
    rng = np.random.default_rng(7)
    h = random_gamma_space(rng, rank=2)
    for deg in h.space.degrees:
        v = random_homog_vector(rng, h.space, deg)
        w = random_homog_vector(rng, h.space, deg)
        lhs = gamma_inner(h, w, v)
        rhs = beta(deg, deg) * np.conj(gamma_inner(h, v, w))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        # positivity after multiplying by alpha
        pos = alpha(deg).value * gamma_inner(h, v, v)
        assert abs(pos.imag) < 1e-10 * max(1.0, abs(pos))
        assert pos.real > 0


def test_gram_validation_rejects_bad_input():
    v = _super_space(2, 0)
    with pytest.raises(PositivityError):
        GammaInnerSpace(v, {_d("0"): np.array([[1, 1j], [1j, 1]])})
    with pytest.raises(PositivityError):
        GammaInnerSpace(v, {_d("0"): np.array([[1, 0], [0, -2]])})
    with pytest.raises(ValueError):
        GammaInnerSpace(v, {})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gram_validation_rejects_non_finite_entries(value):
    v = _super_space(2, 0)
    with pytest.raises(PositivityError, match="non-finite"):
        GammaInnerSpace(v, {_d("0"): np.array([[1.0, 0.0], [0.0, value]])})


# ---------------------------------------------------------------- adjoints


def _dense_star_oracle(h, t):
    # independent route: solve against the full dense Gram
    g = h.gram_dense()
    return np.linalg.solve(g, t.to_dense().conj().T @ g)


def test_star_identity_fixed():
    rng = np.random.default_rng(8)
    h = random_gamma_space(rng, rank=2)
    ident = HomogeneousMap.identity(h.space)
    assert star_adjoint(h, ident).distance(ident) < 1e-12


def test_star_standard_gram_is_conj_transpose():
    rng = np.random.default_rng(9)
    v = random_space(rng, 2, min_sectors=4)
    h = GammaInnerSpace.standard(v)
    for deg in v.degrees:
        t = random_homog_map(rng, v, deg)
        assert np.allclose(star_adjoint(h, t).to_dense(), t.to_dense().conj().T)


def test_star_matches_dense_oracle_and_defining_relation():
    rng = np.random.default_rng(10)
    for _ in range(10):
        h = random_gamma_space(rng, rank=2)
        for deg in h.space.degrees:
            t = random_homog_map(rng, h.space, deg)
            ts = star_adjoint(h, t)
            assert np.max(np.abs(ts.to_dense() - _dense_star_oracle(h, t))) < 1e-9
            v, w = random_vector(rng, h.space), random_vector(rng, h.space)
            lhs = h.ordinary_inner(t.apply(v), w)
            rhs = h.ordinary_inner(v, ts.apply(w))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_dagger_phase_relation():
    rng = np.random.default_rng(11)
    h = random_gamma_space(rng, rank=1, max_dim=2)
    if _d("1") not in h.space.dims or _d("0") not in h.space.dims:
        h = random_gamma_space(rng, space=_super_space(2, 2))
    t0 = random_homog_map(rng, h.space, _d("0"))
    t1 = random_homog_map(rng, h.space, _d("1"))
    assert dagger_adjoint(h, t0).distance(star_adjoint(h, t0)) < 1e-12
    assert dagger_adjoint(h, t1).distance(star_adjoint(h, t1) * 1j) < 1e-12


def test_dagger_involution_and_product_rule():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_gamma_space(rng, rank=2)
        degs = h.space.degrees
        s = random_homog_map(rng, h.space, degs[int(rng.integers(len(degs)))])
        t = random_homog_map(rng, h.space, degs[int(rng.integers(len(degs)))])
        tdd = dagger_adjoint(h, dagger_adjoint(h, t))
        assert tdd.distance(t) < 1e-9 * max(1.0, t.norm())
        lhs = dagger_adjoint(h, s.compose(t))
        rhs = dagger_adjoint(h, t).compose(dagger_adjoint(h, s)) * beta(s.degree, t.degree)
        assert lhs.distance(rhs) < 1e-9 * max(1.0, lhs.norm())


def test_dagger_defining_relation_graded_form():
    rng = np.random.default_rng(13)
    h = random_gamma_space(rng, rank=2)
    for deg in h.space.degrees:
        t = random_homog_map(rng, h.space, deg)
        td = dagger_adjoint(h, t)
        for vdeg in h.space.degrees:
            v = random_homog_vector(rng, h.space, deg * vdeg)
            w = random_homog_vector(rng, h.space, vdeg)
            lhs = gamma_inner(h, v, t.apply(w))
            rhs = beta(t.degree, (deg * vdeg)) * gamma_inner(h, td.apply(v), w)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_dagger_with_twist():
    rng = np.random.default_rng(14)
    h = random_gamma_space(rng, rank=2)
    chi = Character((-1, 1))
    for deg in h.space.degrees:
        t = random_homog_map(rng, h.space, deg)
        expected = star_adjoint(h, t) * alpha(deg, chi).value
        assert dagger_adjoint(h, t, twist=chi).distance(expected) < 1e-12


# ---------------------------------------------------------------- tensor inner


def test_tensor_inner_scalar_case():
    # two lines of degree zero: the induced form is the product
    line = GammaInnerSpace(GradedSpace(1, {_d("0"): 1}), {_d("0"): np.array([[2.0]])})
    other = GammaInnerSpace(GradedSpace(1, {_d("0"): 1}), {_d("0"): np.array([[3.0]])})
    hk = tensor_inner(line, other)
    assert np.allclose(hk.gram[_d("0")], [[6.0]])


def test_tensor_inner_single_odd_pair():
    v = GammaInnerSpace.standard(GradedSpace(2, {_d("10"): 1}))
    w = GammaInnerSpace.standard(GradedSpace(2, {_d("01"): 1}))
    hk = tensor_inner(v, w)
    # the phases conspire to give an ordinary Gram of +1
    assert np.allclose(hk.gram[_d("11")], [[1.0]])


def test_tensor_inner_matches_kron_oracle():
    rng = np.random.default_rng(15)
    for _ in range(8):
        h = random_gamma_space(rng, rank=2, max_dim=2)
        k = random_gamma_space(rng, rank=2, max_dim=2)
        hk = tensor_inner(h, k)
        tp = hk.space
        for a in tp.degrees:
            # independent oracle: block diagonal of kron(G_b, G_c) in pair order
            blocks = []
            for b in h.space.degrees:
                c = a * b
                if k.space.dim(c) == 0:
                    continue
                blocks.append(np.kron(h.gram[b], k.gram[c]))
            expect = np.zeros((tp.dim(a), tp.dim(a)), dtype=complex)
            at = 0
            for blk in blocks:
                m = blk.shape[0]
                expect[at:at + m, at:at + m] = blk
                at += m
            assert np.max(np.abs(hk.gram[a] - expect)) < 1e-10


def test_tensor_inner_positive():
    rng = np.random.default_rng(16)
    for _ in range(10):
        h = random_gamma_space(rng, rank=1, max_dim=3)
        k = random_gamma_space(rng, rank=1, max_dim=3)
        hk = tensor_inner(h, k)  # construction validates positivity
        for g in hk.gram.values():
            assert np.linalg.eigvalsh(g)[0] > 0


# ---------------------------------------------------------------- symmetry


def test_symmetry_sign_on_odd_pair():
    v = GradedSpace(1, {_d("1"): 1})
    s = symmetry(v, v)
    assert np.allclose(s.to_dense(), [[-1.0]])


def test_symmetry_sign_on_even_pair():
    v = GradedSpace(1, {_d("0"): 1})
    s = symmetry(v, v)
    assert np.allclose(s.to_dense(), [[1.0]])


def test_symmetry_involutive():
    rng = np.random.default_rng(17)
    for _ in range(5):
        v = random_space(rng, 2, max_dim=2, min_sectors=2)
        w = random_space(rng, 2, max_dim=2, min_sectors=2)
        s_vw = symmetry(v, w)
        s_wv = symmetry(w, v)
        comp = s_wv.compose(s_vw)
        assert comp.distance(HomogeneousMap.identity(s_vw.source)) < 1e-12


def test_symmetry_swaps_pure_tensors_with_sign():
    rng = np.random.default_rng(18)
    v = random_space(rng, 2, max_dim=2, min_sectors=2)
    w = random_space(rng, 2, max_dim=2, min_sectors=2)
    s = symmetry(v, w)
    src, dst = s.source, s.target
    for bdeg in v.degrees:
        for cdeg in w.degrees:
            x = random_homog_vector(rng, v, bdeg)
            y = random_homog_vector(rng, w, cdeg)
            lhs = s.apply(src.pure_tensor(x, y))
            rhs = beta(bdeg, cdeg) * dst.pure_tensor(y, x)
            assert np.allclose(lhs, rhs)


def test_symmetry_naturality():
    rng = np.random.default_rng(19)
    for _ in range(6):
        v = random_space(rng, 2, max_dim=2, min_sectors=2)
        w = random_space(rng, 2, max_dim=2, min_sectors=2)
        degs_v = v.degrees
        degs_w = w.degrees
        f = random_homog_map(rng, v, degs_v[int(rng.integers(len(degs_v)))])
        g = random_homog_map(rng, w, degs_w[int(rng.integers(len(degs_w)))])
        s = symmetry(v, w)
        fg = tensor_map(f, g, source=s.source)
        gf = tensor_map(g, f, target=s.target)
        lhs = s.compose(fg)
        rhs = gf.compose(s) * beta(f.degree, g.degree)
        assert lhs.distance(rhs) < 1e-9 * max(1.0, lhs.norm())
