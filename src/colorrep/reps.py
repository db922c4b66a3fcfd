"""Representations of a pair on a graded inner-product space.

A full representation assigns a homogeneous operator to every basis element
of the algebra; a partial one covers only the degree-zero sector and the
odd-like sectors, the data the stability extension starts from.  Checkers
return reports rather than raising, so callers can inspect residuals; the
extension operation raises when its hypotheses fail.
"""
from __future__ import annotations

import numpy as np

from .colorlie import ColorLieAlgebra, check_perfectness, decompose_odd
from .enveloping import EnvElement, MonoidElement
from .errors import ExtensionError, PerfectnessError, RankMismatchError
from .grading import Character, Degree, is_even_like
from .hcpair import GroupElement, HCPair, _expm, ad_operator
from .report import Report, worst_residual
from .spaces import GammaInnerSpace, HomogeneousMap, _degree_pattern, dagger_adjoint

_REP_TOL = 1e-9
_EXTEND_TOL = 1e-8


def _check_rho_entry(space, degrees, i, t):
    if not isinstance(t, HomogeneousMap):
        raise TypeError(f"rho entries must be homogeneous maps, got {type(t)!r}")
    if t.source is not space and t.source != space:
        raise RankMismatchError(f"rho[{i}] acts on a different space")
    if t.degree != degrees[i]:
        raise ValueError(
            f"rho[{i}] has degree {t.degree}, basis element has {degrees[i]}")


class _Rep:
    """What full and partial representations share: pair, space, operators."""

    __slots__ = ("pair", "inner", "rho", "_dense")

    @property
    def algebra(self) -> ColorLieAlgebra:
        return self.pair.algebra

    @property
    def space_dim(self) -> int:
        return self.inner.space.total_dim

    def rho_matrix(self, i: int) -> np.ndarray:
        m = self._dense.get(i)
        if m is None:
            m = self.rho[i].to_dense()
            self._dense[i] = m
        return m


class UnitaryRep(_Rep):
    """A candidate unitary representation; run check_unitary_rep to verify."""

    __slots__ = ()

    def __init__(self, pair: HCPair, inner: GammaInnerSpace, rho):
        self.pair = pair
        self.inner = inner
        self.rho = list(rho)
        l = pair.algebra
        if len(self.rho) != l.dim:
            raise ValueError(f"need {l.dim} operators, got {len(self.rho)}")
        for i, t in enumerate(self.rho):
            _check_rho_entry(inner.space, l.degrees, i, t)
        self._dense: dict[int, np.ndarray] = {}

    def defined(self, i: int) -> bool:
        return 0 <= i < len(self.rho)

    def __repr__(self) -> str:
        return (f"UnitaryRep(algebra dim={self.algebra.dim}, "
                f"space dim={self.space_dim})")


class PartialRep(_Rep):
    """Operators on the degree-zero and odd-like sectors only."""

    __slots__ = ()

    def __init__(self, pair: HCPair, inner: GammaInnerSpace, rho: dict):
        self.pair = pair
        self.inner = inner
        self.rho = dict(rho)
        l = pair.algebra
        zero = Degree.zero(l.rank)
        allowed = [i for i in range(l.dim)
                   if l.degrees[i] == zero or not is_even_like(l.degrees[i])]
        missing = [i for i in allowed if i not in self.rho]
        if missing:
            raise ValueError(
                "partial data must cover the degree-zero and odd-like sectors; "
                f"missing basis elements {[l.labels[i] for i in missing]}")
        extra = [i for i in self.rho if i not in allowed]
        if extra:
            raise ValueError(
                "partial data may only cover degree-zero and odd-like sectors; "
                f"unexpected basis elements {[l.labels[i] for i in extra]}")
        for i, t in self.rho.items():
            _check_rho_entry(inner.space, l.degrees, i, t)
        self._dense = {}

    def defined(self, i: int) -> bool:
        return i in self.rho

    def rho_matrix(self, i: int) -> np.ndarray:
        if i not in self.rho:
            l = self.algebra
            raise ValueError(
                f"basis element {l.labels[i]} (sector {l.degrees[i]}) is not "
                "covered by the partial data")
        return super().rho_matrix(i)

    def __repr__(self) -> str:
        return (f"PartialRep(algebra dim={self.algebra.dim}, "
                f"defined on {len(self.rho)}, space dim={self.space_dim})")


def rho_env(r, d: EnvElement) -> np.ndarray:
    """Multiplicative extension of rho to enveloping elements, as a matrix."""
    if d.algebra is not r.algebra:
        raise ValueError("element belongs to a different algebra")
    t = r.space_dim
    out = np.zeros((t, t), dtype=complex)
    for w, c in d.terms.items():
        m = np.eye(t, dtype=complex)
        for i in w:
            m = m @ r.rho_matrix(i)
        out += c * m
    return out


def monoid_operator(r, s: MonoidElement) -> np.ndarray:
    """The operator pi(g) rho(D) attached to a monoid element."""
    m = rho_env(r, s.env)
    g = s.group
    if g.pi is not None:
        return np.asarray(g.pi, dtype=complex) @ m
    if g.is_identity():
        return m
    raise ValueError(f"group element {g.label!r} carries no action on the space")


def ordinary_adjoint(h: GammaInnerSpace, m: np.ndarray) -> np.ndarray:
    """Adjoint of a dense operator for the ordinary inner product."""
    g = h.gram_dense()
    return np.linalg.solve(g, m.conj().T @ g)


def matrix_coefficient(r: UnitaryRep, v, w, s: MonoidElement) -> complex:
    """The function value (pi(g) rho(D) v, w) in the ordinary inner product."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return complex(r.inner.ordinary_inner(monoid_operator(r, s) @ v, w))


def exp_group_element(r, coeffs, t: float = 1.0,
                      label: str | None = None) -> GroupElement:
    """Identity-component element exp(t x), bound to the representation.

    The coefficient vector must be supported on the degree-zero sector, the
    finite-dimensional stand-in for the group's Lie algebra.
    """
    l = r.algebra
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (l.dim,):
        raise ValueError(f"coefficient vector must have length {l.dim}")
    zero = Degree.zero(l.rank)
    for i in np.flatnonzero(coeffs):
        if l.degrees[i] != zero:
            raise ValueError(
                f"basis element {l.labels[i]} lies outside the degree-zero "
                "sector; group samples exponentiate degree-zero elements")
    mat = np.zeros((r.space_dim, r.space_dim), dtype=complex)
    for i in np.flatnonzero(coeffs):
        mat += coeffs[i] * r.rho_matrix(i)
    if label is None:
        label = f"exp({t:g}x)"
    return GroupElement(label, _expm(t * ad_operator(l, coeffs)), _expm(t * mat))


def _zero_sector_exps(r, ts, acting_only: bool = False):
    """exp(t*x_i), bound to r, for each degree-zero basis element and time.

    With ``acting_only``, a basis element whose bracket column and operator
    are exactly zero is skipped: its exponentials equal the identity without
    being it.
    """
    l = r.algebra
    for i in l.sector(Degree.zero(l.rank)):
        if acting_only and not (l.structure[i].any() or r.rho_matrix(i).any()):
            continue
        coeffs = np.zeros(l.dim)
        coeffs[i] = 1.0
        for t in ts:
            yield exp_group_element(r, coeffs, t=t,
                                    label=f"exp({t:g}*{l.labels[i]})")


def _pi_checks(r, rep: Report, tol: float) -> None:
    """Shared first axiom: bound group matrices unitary and degree-preserving."""
    space = r.inner.space
    g_dense = r.inner.gram_dense()
    gens = r.pair.extra_generators
    if not gens:
        rep.add("group action present", True, detail="identity component only")
        return
    for g in gens:
        if g.pi is None:
            rep.add(f"pi bound: {g.label}", False,
                    detail="generator carries no matrix on the space")
            continue
        pi = np.asarray(g.pi, dtype=complex)
        if pi.shape != (space.total_dim, space.total_dim):
            rep.add(f"pi bound: {g.label}", False,
                    detail=f"matrix is {pi.shape}, space has {space.total_dim}")
            continue
        mask = ~_degree_pattern(space.basis_codes, Degree.zero(space.rank), space.basis_codes)
        off = float(np.max(np.abs(pi * mask))) if pi.size else 0.0
        rep.add(f"pi grading: {g.label}", off <= tol, off, tol)
        scale = max(1.0, float(np.linalg.norm(g_dense)))
        ures = float(np.linalg.norm(pi.conj().T @ g_dense @ pi - g_dense)) / scale
        rep.add(f"pi unitary: {g.label}", ures <= tol, ures, tol)


def _bracket_residual(r, pairs) -> tuple[float, str]:
    l = r.algebra

    def entries():
        for i, j in pairs:
            lhs = np.zeros((r.space_dim, r.space_dim), dtype=complex)
            for k in np.flatnonzero(l.structure[i, j]):
                k = int(k)
                if not r.defined(k):
                    # structure leaking outside the covered sectors counts as
                    # residual; exact data has exact zeros here
                    yield abs(float(l.structure[i, j, k])), (i, j, k)
                    continue
                lhs += l.structure[i, j, k] * r.rho_matrix(k)
            mi, mj = r.rho_matrix(i), r.rho_matrix(j)
            rhs = mi @ mj - float(l.beta_table[i, j]) * (mj @ mi)
            yield float(np.max(np.abs(lhs - rhs))), (i, j)

    def label(key):
        a, b, *leak = (l.labels[x] for x in key)
        return (f"bracket of ({a}, {b}) leaks onto uncovered {leak[0]}"
                if leak else f"worst pair ({a}, {b})")

    return worst_residual(entries(), label)


def _skew_residual(r, indices, twist):
    return worst_residual(
        ((dagger_adjoint(r.inner, r.rho[i], twist=twist).distance(
            r.rho[i] * (-1.0)), i) for i in indices),
        lambda i: f"worst at {r.algebra.labels[i]}")


def _zero_skew_residual(r, indices) -> float:
    """Ordinary skewness of the degree-zero operators, worst over indices."""
    mats = (r.rho_matrix(i) for i in indices)
    return worst_residual(
        (float(np.max(np.abs(ordinary_adjoint(r.inner, m) + m))), None)
        for m in mats)[0]


def _conjugation_residual(r, g: GroupElement, indices) -> tuple[float, str]:
    """pi rho(x) pi^-1 against rho(Ad(g) x), maximized over given indices."""
    pi = np.asarray(g.pi, dtype=complex)
    pinv = np.linalg.inv(pi)

    def res(i):
        lhs = pi @ r.rho_matrix(i) @ pinv
        rhs = np.zeros_like(lhs)
        for k in np.flatnonzero(np.abs(g.ad[:, i]) > 1e-300):
            if not r.defined(int(k)):
                continue
            rhs += g.ad[k, i] * r.rho_matrix(int(k))
        return float(np.max(np.abs(lhs - rhs)))

    return worst_residual(((res(i), i) for i in indices),
                          lambda i: f"worst at {r.algebra.labels[i]}")


def check_unitary_rep(r: UnitaryRep, tol: float = _REP_TOL,
                      twist: Character | None = None) -> Report:
    """All five representation axioms, in their finite-dimensional forms."""
    l = r.algebra
    rep = Report("unitary representation check",
                 context={"algebra_dim": l.dim, "space_dim": r.space_dim,
                          "twisted": twist is not None and not twist.is_trivial})
    _pi_checks(r, rep, tol)

    pairs = [(i, j) for i in range(l.dim) for j in range(l.dim)]
    res, detail = _bracket_residual(r, pairs)
    rep.add("bracket property", res <= tol, res, tol, detail)

    zero_idx = l.sector(Degree.zero(l.rank))
    res = _zero_skew_residual(r, zero_idx)
    rep.add("degree-zero skewness", res <= tol, res, tol,
            "exponentials of the degree-zero sector are unitary; the "
            "one-parameter group exists by construction at finite dimension")

    res, detail = _skew_residual(r, range(l.dim), twist)
    rep.add("graded skew-adjointness", res <= tol, res, tol, detail)

    for g in r.pair.extra_generators:
        if g.pi is None:
            continue
        res, detail = _conjugation_residual(r, g, range(l.dim))
        rep.add(f"equivariance: {g.label}", res <= tol, res, tol, detail)
    if zero_idx:
        res, _ = worst_residual((_conjugation_residual(r, g, range(l.dim))[0],
                                 None) for g in _zero_sector_exps(r, (0.3, 1.0)))
        rep.add("equivariance: sampled one-parameter elements",
                res <= max(tol, 1e-8), res, max(tol, 1e-8),
                "redundant with the bracket property; consistency sample")
    return rep


def check_pre_rep(p: PartialRep, tol: float = _REP_TOL,
                  twist: Character | None = None) -> Report:
    """Pre-representation axioms on the supplied sectors only."""
    l = p.algebra
    rep = Report("pre-representation check",
                 context={"algebra_dim": l.dim, "space_dim": p.space_dim,
                          "defined": len(p.rho)})
    _pi_checks(p, rep, tol)
    rep.add("domain density", True, detail="automatic at finite dimension")

    zero_idx = l.sector(Degree.zero(l.rank))

    def square(idx):
        return [(i, j) for i in idx for j in idx]

    if l.odd_degrees():
        per_sector = [(a, *_bracket_residual(p, square(zero_idx + l.sector(a))))
                      for a in l.odd_degrees()]
        res, detail = worst_residual(((val, f"sector {a}, {d}")
                                      for a, val, d in per_sector))
    else:
        res, detail = _bracket_residual(p, square(zero_idx))
    rep.add("bracket property on even-plus-one-odd subalgebras",
            res <= tol, res, tol, detail)

    rep.add("essential skew-adjointness", True,
            detail="matrix skewness below carries the content at finite dimension")

    res = _zero_skew_residual(p, zero_idx)
    rep.add("degree-zero skewness", res <= tol, res, tol)

    res, detail = _skew_residual(p, sorted(p.rho), twist)
    rep.add("graded skew-adjointness", res <= tol, res, tol, detail)

    for g in p.pair.extra_generators:
        if g.pi is None:
            continue
        res, detail = _conjugation_residual(p, g, sorted(p.rho))
        rep.add(f"equivariance: {g.label}", res <= tol, res, tol, detail)
    return rep


def restrict(r: UnitaryRep) -> PartialRep:
    """Forget the even-like nonzero sectors, keeping the extendable data."""
    l = r.algebra
    zero = Degree.zero(l.rank)
    rho = {i: r.rho[i] for i in range(l.dim)
           if l.degrees[i] == zero or not is_even_like(l.degrees[i])}
    return PartialRep(r.pair, r.inner, rho)


def _extension_matrix(p: PartialRep, dec) -> np.ndarray:
    l = p.algebra
    t = p.space_dim
    out = np.zeros((t, t), dtype=complex)
    for term in dec.terms:
        my = p.rho_matrix(term.left)
        mz = p.rho_matrix(term.right)
        sign = float(l.beta_table[term.left, term.right])
        out += term.coefficient * (my @ mz - sign * (mz @ my))
    return out


def stability_extend(p: PartialRep, tol: float = _EXTEND_TOL) -> UnitaryRep:
    """Fill in the even-like nonzero sectors from the partial data.

    Each basis element there is decomposed into brackets of odd-like pairs
    and represented through the bracket property.  Two independent
    decompositions are compared to witness well-definedness, and the
    completed representation is checked in full before being returned.
    """
    l = p.algebra
    pre = check_pre_rep(p)
    if not pre.passed:
        raise ExtensionError("partial data fails the pre-representation axioms",
                             report=pre)
    perf = check_perfectness(l)
    if not perf.passed:
        bad = [name for name, info in perf.context.get("sectors", {}).items()
               if info["rank"] < info["dim"]]
        raise PerfectnessError(
            "extension hypothesis fails: even-like sector(s) "
            f"{bad} are not spanned by brackets of odd-like elements",
            sector=bad[0] if bad else None)

    space = p.inner.space
    rho = dict(p.rho)
    for a in l.even_nonzero_degrees():
        for i in l.sector(a):
            x = np.zeros(l.dim)
            x[i] = 1.0
            dec1 = decompose_odd(l, x)
            dec2 = decompose_odd(l, x, weight_seed=997 + i)
            m1 = _extension_matrix(p, dec1)
            m2 = _extension_matrix(p, dec2)
            scale = max(1.0, float(np.max(np.abs(m1))))
            gap = float(np.max(np.abs(m1 - m2)))
            if gap > tol * scale:
                raise ExtensionError(
                    f"extension of {l.labels[i]} depends on the decomposition "
                    f"(gap {gap:.3e}); the partial data is inconsistent")
            rho[i] = HomogeneousMap.from_dense(space, space, a, m1)

    full = UnitaryRep(p.pair, p.inner, [rho[i] for i in range(l.dim)])
    final = check_unitary_rep(full, tol=tol)
    if not final.passed:
        raise ExtensionError("extended operators fail the representation axioms",
                             report=final)
    return full


def twist_rep(r: UnitaryRep, chi: Character) -> UnitaryRep:
    """Rescale each operator by a sign character of its degree.

    The ordinary inner product is untouched: the twisted graded product and
    the twisted phase change by the same sign, which cancels.  Twisting twice
    by the same character restores the original operators exactly, and any
    intertwiner between two representations intertwines their twists.

    A real character commutes through every check, so the twist preserves
    each checker's verdict and residuals: the twisted triple passes
    `check_unitary_rep` under the same phase convention it started from.
    Sectors where the character is -1 land in the opposite skewness class of
    the chi-rescaled convention; `check_unitary_rep(..., twist=chi)` reports
    that as a skewness residual of exactly 2 * |rho| there, for the original
    and twisted data alike.
    """
    l = r.algebra
    if chi.rank != l.rank:
        raise RankMismatchError(
            f"character has rank {chi.rank}, algebra has {l.rank}")
    rho = [r.rho[i] * float(chi(l.degrees[i])) for i in range(l.dim)]
    return UnitaryRep(r.pair, r.inner, rho)
