"""End-to-end acceptance suite, one test per criterion.

Each test prints a single verdict line straight to the terminal (bypassing
capture), carrying the worst measured residual, the pinned tolerance, and
the elapsed time, then asserts the same facts.
"""

import time

import numpy as np
import pytest

from helpers import (distance, env_max_diff, random_gamma_space, random_homog_map,
                     random_homog_vector, random_space, traced_peak_mb)

from colorrep.colorlie import check_axioms, check_perfectness, decompose_odd, glV
from colorrep.enveloping import (DEFAULT_LEVEL_CAP, EnvElement, MonoidElement,
                                 env_mul, env_star, normal_form,
                                 s_mul, s_star, word_degree)
from colorrep.errors import PerfectnessError
from colorrep.generators import (clifford_rep, conjugated_rep,
                                 counterexample_algebra, counterexample_prerep,
                                 random_color_algebra, skew_matrix_algebra)
from colorrep.gns import (PDFunction, build_sample_set, check_cyclic,
                          check_positive_definite, default_group_samples,
                          gns_construct, unitary_equivalence)
from colorrep.grading import (Character, Degree, all_degrees, alpha, beta,
                              verify_alpha_cocycle, verify_lifting_relation)
from colorrep.hcpair import GroupElement, inner_element
from colorrep.reps import (check_unitary_rep, matrix_coefficient, restrict,
                           rho_env, stability_extend, twist_rep)
from colorrep.spaces import (GradedSpace, dagger_adjoint, gamma_inner,
                             star_adjoint, tensor_inner)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def _four_lines():
    return GradedSpace(2, {d: 1 for d in all_degrees(2)})


def _e0(r):
    v = np.zeros(r.space_dim, dtype=complex)
    v[0] = 1.0
    return v


def test_criterion_01_phase_cocycle(capsys):
    t0 = time.perf_counter()
    reports = [verify_alpha_cocycle(n) for n in range(1, 5)]
    elapsed = time.perf_counter() - t0
    clean = all(r.passed and all("0 violations" in c.detail for c in r.checks)
                for r in reports)
    ok = clean and elapsed < 1.0
    _verdict(capsys, 1, "phase cocycle, exhaustive ranks 1..4", ok,
             f"exact, {elapsed:.2f}s < 1s")
    assert clean, "\n".join(r.to_text() for r in reports)
    assert elapsed < 1.0


def test_criterion_02_lifting_identity(capsys):
    t0 = time.perf_counter()
    reports = [verify_lifting_relation(n) for n in range(1, 4)]
    elapsed = time.perf_counter() - t0
    clean = all(r.passed for r in reports)
    ok = clean and elapsed < 1.0
    _verdict(capsys, 2, "sign lifting identity, exhaustive ranks 1..3", ok,
             f"exact, {elapsed:.2f}s < 1s")
    assert clean, "\n".join(r.to_text() for r in reports)
    assert elapsed < 1.0


def test_criterion_03_graded_adjoints(capsys):
    tol = 1e-12
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        h = random_gamma_space(rng, rank=n, max_dim=3)
        degs = h.space.degrees
        t = random_homog_map(rng, h.space, degs[int(rng.integers(len(degs)))])
        s = random_homog_map(rng, h.space, degs[int(rng.integers(len(degs)))])
        tdd = dagger_adjoint(h, dagger_adjoint(h, t))
        worst = max(worst, distance(tdd, t) / max(1.0, t.norm()))
        lhs = dagger_adjoint(h, s.compose(t))
        rhs = dagger_adjoint(h, t).compose(dagger_adjoint(h, s)) \
            * beta(s.degree, t.degree)
        worst = max(worst, distance(lhs, rhs) / max(1.0, lhs.norm()))
        st = star_adjoint(h, t)
        expect = dagger_adjoint(h, t) * np.conj(alpha(t.degree).value)
        worst = max(worst, distance(st, expect) / max(1.0, st.norm()))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 5.0
    _verdict(capsys, 3, "double dagger, product rule, star phase", ok,
             f"200 maps, worst {worst:.1e} < {tol:.0e}, {elapsed:.2f}s < 5s")
    assert worst < tol
    assert elapsed < 5.0


def test_criterion_04_general_linear_axioms(capsys):
    tol = 1e-10
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        v = random_space(rng, n, max_dim=2)
        # keep the endomorphism algebra at desk scale
        while v.total_dim > 6:
            v = random_space(rng, n, max_dim=2)
        rep = check_axioms(glV(v))
        assert rep.passed, rep.to_text()
        worst = max(worst, rep.max_residual())
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 30.0
    _verdict(capsys, 4, "matrix algebra bracket axioms", ok,
             f"50 spaces, worst {worst:.1e} < {tol:.0e}, {elapsed:.2f}s < 30s")
    assert worst < tol
    assert elapsed < 30.0


def test_criterion_05_tensor_positivity(capsys):
    tol = 1e-12
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    min_eig = np.inf
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        h = random_gamma_space(rng, rank=n, max_dim=2)
        k = random_gamma_space(rng, rank=n, max_dim=2)
        hk = tensor_inner(h, k)
        for g in hk.gram.values():
            min_eig = min(min_eig, float(np.linalg.eigvalsh(g)[0]))
        tp = hk.space
        a = tp.degrees[int(rng.integers(len(tp.degrees)))]
        v = random_homog_vector(rng, tp, a)
        w = random_homog_vector(rng, tp, a)
        norm = alpha(a).value * gamma_inner(hk, v, v)
        scale = max(1.0, abs(norm))
        worst = max(worst, abs(norm.imag) / scale, max(0.0, -norm.real) / scale)
        lhs = gamma_inner(hk, w, v)
        rhs = beta(a, a) * np.conj(gamma_inner(hk, v, w))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.perf_counter() - t0
    ok = min_eig > 0 and worst < tol and elapsed < 10.0
    _verdict(capsys, 5, "tensor product inner structure", ok,
             f"100 pairs, min eig {min_eig:.1e} > 0, worst {worst:.1e} < "
             f"{tol:.0e}, {elapsed:.2f}s < 10s")
    assert min_eig > 0
    assert worst < tol
    assert elapsed < 10.0


class _TautologicalAction:
    """Matrix units acting on their own column space; enough for rho_env."""

    def __init__(self, l):
        self.algebra = l
        self.space_dim = int(round(np.sqrt(l.dim)))

    def rho_matrix(self, i):
        p, q = (int(s) for s in self.algebra.labels[i][1:].split("_"))
        m = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        m[p, q] = 1.0
        return m


def test_criterion_06_rewriting_confluence(capsys):
    tol_conf = 1e-8
    tol_faith = 1e-9
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    worst_conf = 0.0
    for k in range(20):
        l = random_color_algebra(1 + k % 2, seed=300 + k)
        for _ in range(25):
            size = int(rng.integers(1, 7))
            word = tuple(int(i) for i in rng.integers(0, l.dim, size=size))
            left = normal_form(l, word, strategy="leftmost")
            right = normal_form(l, word, strategy="rightmost")
            worst_conf = max(worst_conf, env_max_diff(left, right))

    worst_faith = 0.0
    for space in (GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1}),
                  _four_lines()):
        l = glV(space)
        act = _TautologicalAction(l)
        for _ in range(30):
            size = int(rng.integers(1, 7))
            word = tuple(int(i) for i in rng.integers(0, l.dim, size=size))
            direct = np.eye(act.space_dim, dtype=complex)
            for i in word:
                direct = direct @ act.rho_matrix(i)
            via_nf = rho_env(act, normal_form(l, word))
            worst_faith = max(worst_faith,
                              float(np.max(np.abs(via_nf - direct))))
    elapsed = time.perf_counter() - t0
    ok = worst_conf < tol_conf and worst_faith < tol_faith and elapsed < 60.0
    _verdict(capsys, 6, "normal form confluence and faithfulness", ok,
             f"500 words, strategies {worst_conf:.1e} < {tol_conf:.0e}, "
             f"matrix check {worst_faith:.1e} < {tol_faith:.0e}, "
             f"{elapsed:.2f}s < 60s")
    assert worst_conf < tol_conf
    assert worst_faith < tol_faith
    assert elapsed < 60.0


def _random_env(l, rng, max_len=2, nterms=2):
    terms = {}
    for _ in range(nterms):
        size = int(rng.integers(0, max_len + 1))
        word = tuple(int(i) for i in rng.integers(0, l.dim, size=size))
        coeff = complex(rng.normal(), rng.normal())
        nf = normal_form(l, word, level_cap=max(DEFAULT_LEVEL_CAP, size))
        for w, c in nf.terms.items():
            terms[w] = terms.get(w, 0j) + coeff * c
    return EnvElement(l, terms)


def _monoid_gap(s1, s2):
    gap = float(np.max(np.abs(s1.group.ad - s2.group.ad)))
    return max(gap, env_max_diff(s1.env, s2.env))


def test_criterion_07_star_monoid(capsys):
    tol = 1e-10
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    cap = 12
    gl11 = glV(GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1}))
    gl4 = glV(_four_lines())
    pools = []
    for l in (gl11, gl4):
        zero = l.sector(Degree.zero(l.rank))
        coeffs = np.zeros(l.dim)
        for i in zero:
            coeffs[i] = rng.normal() * 0.4
        pools.append((l, [GroupElement.identity(l.dim),
                          inner_element(l, coeffs, t=1.0, label="e")]))
    count = 0
    while count < 200:
        l, groups = pools[count % 2]
        draw = [MonoidElement(groups[int(rng.integers(len(groups)))],
                              _random_env(l, rng)) for _ in range(3)]
        a, b, c = draw
        count += 3
        # star of a product against the reversed product of stars
        worst = max(worst, _monoid_gap(
            s_star(s_mul(a, b, level_cap=cap)),
            s_mul(s_star(b), s_star(a), level_cap=cap)))
        # the involution squares to the identity
        worst = max(worst, _monoid_gap(s_star(s_star(c)), c))
        # same facts one floor down, for bare enveloping elements
        d1, d2 = a.env, b.env
        worst = max(worst, env_max_diff(env_star(l, env_star(l, d1)), d1))
        lhs = env_star(l, env_mul(l, d1, d2, level_cap=cap))
        rhs = env_mul(l, env_star(l, d2), env_star(l, d1), level_cap=cap)
        worst = max(worst, env_max_diff(lhs, rhs))
        # associativity of the twisted product
        lhs = s_mul(s_mul(a, b, level_cap=cap), c, level_cap=cap)
        rhs = s_mul(a, s_mul(b, c, level_cap=cap), level_cap=cap)
        worst = max(worst, _monoid_gap(lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 10.0
    _verdict(capsys, 7, "involution and twisted product", ok,
             f"{count} elements, worst {worst:.1e} < {tol:.0e}, "
             f"{elapsed:.2f}s < 10s")
    assert worst < tol
    assert elapsed < 10.0


_SHAPES = [
    {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1},
    {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1},
    {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2},
]


def test_criterion_08_stability_roundtrip(capsys):
    tol = 1e-8
    t0 = time.perf_counter()
    worst = 0.0
    worst_dec = 0.0
    count = 0
    for si, dims in enumerate(_SHAPES):
        space = GradedSpace(2, {Degree(k): v for k, v in dims.items()})
        l, base = skew_matrix_algebra(space)
        targets = [i for i in range(l.dim)
                   if not restrict(base).defined(i)]
        assert targets, "fixture must have sectors to reconstruct"
        for seed in range(4):
            r = conjugated_rep(base, seed=100 * si + seed)
            full, _ = stability_extend(restrict(r))
            diff = max(float(np.max(np.abs(full.rho_matrix(i)
                                           - r.rho_matrix(i))))
                       for i in targets)
            worst = max(worst, diff)
            count += 1
            # decomposition independence through the public pieces
            i = targets[seed % len(targets)]
            x = np.zeros(l.dim)
            x[i] = 1.0

            def rebuild(dec):
                m = np.zeros((r.space_dim, r.space_dim), dtype=complex)
                for term in dec.terms:
                    ry = r.rho_matrix(term.left)
                    rz = r.rho_matrix(term.right)
                    sign = beta(l.degrees[term.left], l.degrees[term.right])
                    m += term.coefficient * (ry @ rz - sign * rz @ ry)
                return m

            m1 = rebuild(decompose_odd(l, x))
            m2 = rebuild(decompose_odd(l, x, weight_seed=4000 + count))
            worst_dec = max(worst_dec, float(np.max(np.abs(m1 - m2))))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and worst_dec < tol and count == 20 and elapsed < 60.0
    _verdict(capsys, 8, "extension recovers restricted operators", ok,
             f"20 reps, recovery {worst:.1e} < {tol:.0e}, decomposition "
             f"gap {worst_dec:.1e} < {tol:.0e}, {elapsed:.2f}s < 60s")
    assert worst < tol
    assert worst_dec < tol
    assert count == 20
    assert elapsed < 60.0


def test_criterion_09_negative_control(capsys):
    t0 = time.perf_counter()
    l = counterexample_algebra()
    rep = check_perfectness(l)
    sector = rep.context["sectors"]["11"]
    refused = False
    message = ""
    try:
        stability_extend(counterexample_prerep())
    except PerfectnessError as e:
        refused = True
        message = str(e)
    elapsed = time.perf_counter() - t0
    exact = (not rep.passed and sector == {"dim": 1, "rank": 0}
             and refused and "hypothesis" in message)
    ok = exact and elapsed < 1.0
    _verdict(capsys, 9, "one-generator counterexample refused", ok,
             f"rank 0 of dim 1, extension refused, {elapsed:.2f}s < 1s")
    assert not rep.passed
    assert sector == {"dim": 1, "rank": 0}
    assert refused and "hypothesis" in message
    assert elapsed < 1.0


def _gns_fixtures():
    four = skew_matrix_algebra(_four_lines())[1]
    return [
        ("bundled clifford", clifford_rep(1, b=[[1.0]])),
        ("clifford seed 2", clifford_rep(1, seed=2)),
        ("clifford width 2 seed 3", clifford_rep(2, seed=3)),
        ("clifford width 3 seed 5", clifford_rep(3, seed=5)),
        ("clifford width 2 seed 8", clifford_rep(2, seed=8)),
        ("four lines", four),
        ("conjugated four lines 13", conjugated_rep(four, seed=13)),
        ("conjugated four lines 21", conjugated_rep(four, seed=21)),
        ("conjugated four lines 34", conjugated_rep(four, seed=34)),
        ("clifford block 2", clifford_rep(1, b=[[2.0]])),
        ("clifford width 3 seed 9", clifford_rep(3, seed=9)),
    ]


def test_criterion_10_gns_roundtrip(capsys):
    eq_tol = 1e-6
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_v0 = 0.0
    worst_eig = 0.0
    for name, r in _gns_fixtures():
        l = r.algebra
        v0 = _e0(r)
        psi = PDFunction.from_rep(r, v0)
        pd = check_positive_definite(
            psi, build_sample_set(l, default_group_samples(r), 1))
        assert pd.passed, f"{name}: {pd.to_text()}"
        floor = -1e-8 * pd.context["gram_norm"]
        assert pd.context["min_eigenvalue"] >= floor, name
        worst_eig = max(worst_eig,
                        -pd.context["min_eigenvalue"] / pd.context["gram_norm"])

        result = gns_construct(psi)
        rank = check_cyclic(r, v0).context["rank"]
        assert result.rep.space_dim == rank, name

        t = unitary_equivalence(r, v0, result.rep, result.cyclic, tol=eq_tol)
        resid = max(float(np.max(np.abs(t @ r.rho_matrix(i)
                                        - result.rep.rho_matrix(i) @ t)))
                    for i in range(l.dim))
        gap = float(np.linalg.norm(t @ v0 - result.cyclic))
        worst_eq = max(worst_eq, resid)
        worst_v0 = max(worst_v0, gap)
        assert resid < eq_tol, name
        assert gap < eq_tol, name
    elapsed = time.perf_counter() - t0
    ok = worst_eq < eq_tol and worst_v0 < eq_tol and elapsed < 120.0
    _verdict(capsys, 10, "reconstruction from diagonal coefficients", ok,
             f"11 reps, intertwining {worst_eq:.1e} < {eq_tol:.0e}, cyclic "
             f"match {worst_v0:.1e}, spectra above {-worst_eig:.1e}, "
             f"{elapsed:.0f}s < 120s")
    assert elapsed < 120.0


def test_criterion_11_support_condition(capsys):
    tol = 1e-10
    t0 = time.perf_counter()
    worst = 0.0
    counted = 0
    for r in (skew_matrix_algebra(_four_lines())[1], clifford_rep(2, seed=6)):
        l = r.algebra
        samples = build_sample_set(l, default_group_samples(r), 2)
        space = r.inner.space
        for deg in space.degrees:
            v = np.zeros(r.space_dim, dtype=complex)
            sl = space.slice_of(deg)
            v[sl] = np.linspace(1.0, 2.0, sl.stop - sl.start)
            v /= np.linalg.norm(v)
            for s in samples:
                degs = {word_degree(l, w) for w in s.env.terms}
                if degs <= {Degree.zero(l.rank)}:
                    continue
                counted += 1
                worst = max(worst, abs(matrix_coefficient(r, v, v, s)))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 5.0
    _verdict(capsys, 11, "diagonal coefficients vanish off degree zero", ok,
             f"{counted} samples, worst {worst:.1e} < {tol:.0e}, "
             f"{elapsed:.2f}s < 5s")
    assert counted > 100
    assert worst < tol
    assert elapsed < 5.0


def test_criterion_12_character_twists(capsys):
    tol = 1e-9
    rng = np.random.default_rng(120)
    t0 = time.perf_counter()
    four = skew_matrix_algebra(_four_lines())[1]
    pool = [clifford_rep(2, seed=8), clifford_rep(1, seed=4), four,
            conjugated_rep(four, seed=13)]
    worst_res = 0.0
    for k in range(10):
        r = pool[k % len(pool)]
        chi = Character(tuple(int(s) for s in
                              rng.choice([-1, 1], size=r.algebra.rank)))
        t = twist_rep(r, chi)
        plain = check_unitary_rep(t)
        assert plain.passed, plain.to_text()
        # judged against the rescaled phase, original and twisted data
        # give the same verdict and the same residual
        rep_t = check_unitary_rep(t, twist=chi)
        rep_r = check_unitary_rep(r, twist=chi)
        assert rep_t.passed == rep_r.passed
        worst_res = max(worst_res,
                        abs(rep_t.max_residual() - rep_r.max_residual()))
        back = twist_rep(t, chi)
        for i in range(r.algebra.dim):
            assert np.array_equal(back.rho_matrix(i), r.rho_matrix(i))

    # a fixed intertwiner keeps working after both sides are twisted
    built = gns_construct(PDFunction.from_rep(four, _e0(four)))
    r2 = built.rep
    t_map = unitary_equivalence(four, _e0(four), r2, built.cyclic)
    worst_int = 0.0
    for signs in ((-1, 1), (1, -1), (-1, -1)):
        chi = Character(signs)
        t1, t2 = twist_rep(four, chi), twist_rep(r2, chi)
        worst_int = max(worst_int, max(
            float(np.max(np.abs(t_map @ t1.rho_matrix(i)
                                - t2.rho_matrix(i) @ t_map)))
            for i in range(four.algebra.dim)))
    elapsed = time.perf_counter() - t0
    ok = worst_res < tol and worst_int < tol and elapsed < 10.0
    _verdict(capsys, 12, "sign character twists", ok,
             f"10 characters, residual drift {worst_res:.1e} < {tol:.0e}, "
             f"intertwiner {worst_int:.1e} < {tol:.0e}, {elapsed:.2f}s < 10s")
    assert worst_res < tol
    assert worst_int < tol
    assert elapsed < 10.0


def test_criterion_13_dim_256_validated_build_memory(capsys):
    # the (4,4,4,4) skew algebra has 14,880 nonzero structure constants of
    # 16.7M entries; a dense d x d x d tensor alone would take 134 MB
    space = GradedSpace(2, {d: 4 for d in all_degrees(2)})
    t0 = time.perf_counter()
    peak, (l, _) = traced_peak_mb(lambda: skew_matrix_algebra(space, validate=True))
    elapsed = time.perf_counter() - t0
    worst = check_axioms(l).max_residual()
    ok = l.dim == 256 and worst == 0.0 and peak < 100.0
    _verdict(capsys, 13, "dim-256 validated build", ok,
             f"residual {worst:.1e}, traced peak {peak:.0f} MB < 100 MB, "
             f"{elapsed:.2f}s")
    assert l.dim == 256
    assert worst == 0.0
    assert peak < 100.0
