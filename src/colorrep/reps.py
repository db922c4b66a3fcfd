"""Representations of a pair on a graded inner-product space.

A full representation assigns a homogeneous operator to every basis element
of the algebra; a partial one covers only the degree-zero sector and the
odd-like sectors, the data the stability extension starts from.  Checkers
return reports rather than raising, so callers can inspect residuals, and
name a check's worst location only when it fails (below tolerance it moves
with rounding); the extension operation raises when its hypotheses fail.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .colorlie import (_TERM_BLOCK, ColorLieAlgebra, OddBracketSpan, _join, ad_operator,
                       load_blocks, real_coefficients)
from .enveloping import EnvElement, MonoidElement
from .errors import ExtensionError, PerfectnessError, RankMismatchError
from .grading import Character, Degree, alpha, is_even_like
from .hcpair import GroupElement, HCPair, _expm
from .report import Report, worst_entry, worst_residual
from .spaces import GammaInnerSpace, HomogeneousMap, _degree_pattern

_REP_TOL = 1e-9
_EXTEND_TOL = 1e-8
_EXP_TIMES = (0.5, 1.0)
# the seed of the extension's reweighted decompositions, one per sector
_WEIGHT_SEED = 997


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

    __slots__ = ("pair", "inner", "rho", "_dense", "_stack", "_exps")

    def __init__(self, pair: HCPair, inner: GammaInnerSpace, rho):
        self.pair = pair
        self.inner = inner
        self.rho = rho
        self._dense: dict[int, np.ndarray] = {}
        self._stack = None      # see rho_stack
        self._exps = None       # see _zero_sector_exps

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

    def rho_stack(self) -> _Stack:
        """The operators stacked for the batched checkers; built once and kept."""
        if self._stack is None:
            d, n = self.algebra.dim, self.space_dim
            defined = np.array([self.defined(i) for i in range(d)], dtype=bool)
            ops = np.zeros((d, n, n), dtype=complex)
            for i in np.flatnonzero(defined):
                ops[i] = self.rho_matrix(int(i))
            self._stack = _Stack(ops, defined)
        return self._stack


class _Stack(NamedTuple):
    """rho(x_i) as ops[i], a (dim, n, n) array that is zero where ``defined``
    is False."""

    ops: np.ndarray
    defined: np.ndarray


class UnitaryRep(_Rep):
    """A candidate unitary representation; run check_unitary_rep to verify."""

    __slots__ = ()

    def __init__(self, pair: HCPair, inner: GammaInnerSpace, rho):
        super().__init__(pair, inner, list(rho))
        l = pair.algebra
        if len(self.rho) != l.dim:
            raise ValueError(f"need {l.dim} operators, got {len(self.rho)}")
        for i, t in enumerate(self.rho):
            _check_rho_entry(inner.space, l.degrees, i, t)

    def defined(self, i: int) -> bool:
        return 0 <= i < len(self.rho)

    def __repr__(self) -> str:
        return (f"UnitaryRep(algebra dim={self.algebra.dim}, "
                f"space dim={self.space_dim})")


class PartialRep(_Rep):
    """Operators on the degree-zero and odd-like sectors only."""

    __slots__ = ()

    def __init__(self, pair: HCPair, inner: GammaInnerSpace, rho: dict):
        super().__init__(pair, inner, dict(rho))
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


def _act(r, d: EnvElement, x: np.ndarray, group: GroupElement | None = None,
         memo: dict | None = None, budget: int = 0) -> np.ndarray:
    """pi(g) rho(D) x for a vector or a block of columns x: the one place
    where a monoid element acts on the space.

    rho(w) x for a word w = (a_1, ..., a_r) is rho(x_{a_1}) applied to
    rho(w') x, w' = (a_2, ..., a_r), so each word costs one product per
    letter, right to left.  ``memo`` maps words u to rho(u) x and holds
    () -> x; a word starts from its longest suffix there, and each image
    made on the way is kept while the memo holds fewer than ``budget``.
    An element of another algebra is refused first, then a ``group`` that
    is not the identity and carries no matrix; the identity applies
    nothing.
    """
    if d.algebra is not r.algebra:
        raise ValueError("element belongs to a different algebra")
    moved = group is not None and not group.is_identity()
    if moved and group.pi is None:
        raise ValueError(f"group element {group.label!r} carries no action on the space")
    if memo is None:
        memo = {(): x}
    out = None
    for w, c in d.terms.items():
        j = 0
        while w[j:] not in memo:
            j += 1
        y = memo[w[j:]]
        for p in range(j - 1, -1, -1):
            y = r.rho_matrix(w[p]) @ y
            if len(memo) < budget:
                memo[w[p:]] = y
        out = c * y if out is None else out + c * y
    if out is None:
        out = np.zeros(np.shape(x), dtype=complex)
    return group.pi @ out if moved else out


def rho_env(r, d: EnvElement) -> np.ndarray:
    """Multiplicative extension of rho to enveloping elements, as a matrix."""
    return _act(r, d, np.eye(r.space_dim, dtype=complex))


def monoid_operator(r, s: MonoidElement) -> np.ndarray:
    """The operator pi(g) rho(D) attached to a monoid element."""
    return _act(r, s.env, np.eye(r.space_dim, dtype=complex), s.group)


def ordinary_adjoint(h: GammaInnerSpace, m: np.ndarray) -> np.ndarray:
    """Adjoint of a dense operator for the ordinary inner product."""
    g = h.gram_dense()
    return np.linalg.solve(g, m.conj().T @ g)


def matrix_coefficient(r: UnitaryRep, v, w, s: MonoidElement) -> complex:
    """The function value (pi(g) rho(D) v, w) in the ordinary inner product.

    pi(g) rho(D) acts on v alone (see ``_act``): no operator is formed, and
    the value is vdot(G w, pi(g) rho(D) v) with the space Gram G.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return complex(np.vdot(r.inner.gram_dense() @ w, _act(r, s.env, v, s.group)))


def exp_group_element(r, coeffs, t: float = 1.0,
                      label: str | None = None) -> GroupElement:
    """Identity-component element exp(t x), bound to the representation.

    The coefficient vector must be supported on the degree-zero sector, the
    finite-dimensional stand-in for the group's Lie algebra.
    """
    l = r.algebra
    coeffs = real_coefficients(l, coeffs)
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


def _zero_sector_exps(r) -> list[tuple[int, GroupElement]]:
    """(i, exp(t*x_i)) bound to r, for each degree-zero basis element x_i and
    each t in ``_EXP_TIMES``; computed once per representation and kept."""
    if r._exps is None:
        l = r.algebra
        r._exps = []
        for i in l.sector(Degree.zero(l.rank)):
            coeffs = np.zeros(l.dim)
            coeffs[i] = 1.0
            for t in _EXP_TIMES:
                r._exps.append((i, exp_group_element(
                    r, coeffs, t=t, label=f"exp({t:g}*{l.labels[i]})")))
    return r._exps


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


# the Jacobi join's term budget, for the residuals here: a block of indices
# holds about ``_BLOCK`` entries per temporary, n x n per index or per term
_BLOCK = _TERM_BLOCK


def _ranks(key: np.ndarray) -> np.ndarray:
    """The place of each entry of the sorted ``key`` among its equal ones.

    The terms of one rank fall on distinct places, so a residual takes its
    terms off one rank at a time, and only the terms count: an operator
    holding a NaN or an infinity adds nothing where no term reads it.
    """
    return np.arange(len(key)) - np.searchsorted(key, key)


def _bracket_residual(r, idx) -> tuple[float, str]:
    """rho([x_i, x_j]) against rho(x_i) rho(x_j) - beta rho(x_j) rho(x_i),
    worst over the pairs i, j in ``idx``, in row-major order.

    rho([x_i, x_j]) is the sum of c rho(x_k) over the triples (i, j, k, c)
    in the slice ``ptr[i*d] : ptr[(i+1)*d]`` of row i.  A triple onto a
    basis element that ``r`` does not cover counts as a residual of its
    own, streamed just before its pair: exact data has exact zeros there.
    A block of rows of one degree takes two products for the right side
    over every j, and its terms are taken off the pairs they fall on.
    """
    l = r.algebra
    t = l.triples
    st = r.rho_stack()
    d, n = l.dim, r.space_dim
    idx = np.asarray(idx, dtype=np.int64)
    m = len(idx)
    pos = np.full(d, -1)
    pos[idx] = np.arange(m)
    # rho(x_j)[p, q] for j in idx at [p, j, q], read as rows (p, j) or as
    # columns (j, q)
    cols = np.ascontiguousarray(st.ops[idx].transpose(1, 0, 2))
    # the triples of the rows with j in idx, by flat pair position, then k
    _, u = _join(t.ptr[idx * d], t.ptr[idx * d + d])
    u = u[pos[t.j[u]] >= 0]
    pair = pos[t.i[u]] * m + pos[t.j[u]]
    order = np.argsort(pair, kind="stable")
    pair, k, c = pair[order], t.k[u[order]], t.c[u[order]]
    rank = _ranks(pair)
    start = np.searchsorted(pair, np.arange(m + 1) * m)
    leak = ~st.defined[k]
    load = (m + np.diff(start)) * n * n
    codes = l.deg_codes[idx]

    def entries():
        runs = np.flatnonzero(np.diff(codes, prepend=-1))
        for lo, hi in zip(runs, np.append(runs[1:], m)):
            # beta(x_i, x_j) rho(x_j) at [p, j, q] for the rows i of this degree
            signed = (cols * l.beta_table[idx[lo], idx][:, None]).reshape(n * m, n)
            for block in load_blocks(load[lo:hi], _BLOCK):
                block = slice(lo + block.start, lo + block.stop)
                rows, b = st.ops[idx[block]], block.stop - block.start
                # rho(x_i) rho(x_j) - beta rho(x_j) rho(x_i) at [i, p, j, s]
                diff = (rows @ cols.reshape(n, m * n)).reshape(b, n, m, n)
                diff -= (signed @ rows).reshape(b, n, m, n)
                s = np.arange(start[block.start], start[block.stop])
                for q in range(rank[s].max(initial=-1) + 1):
                    at = s[rank[s] == q]
                    p = pair[at] - block.start * m
                    diff[p // m, :, p % m] -= c[at, None, None] * st.ops[k[at]]
                # the leaks and the pairs of the block, in stream order
                worst = np.abs(diff).transpose(0, 2, 1, 3).reshape(b * m, n * n).max(axis=1)
                lk = s[leak[s]]
                keys = np.concatenate([pair[lk] * (d + 1) + k[lk],
                                       np.arange(block.start * m, block.stop * m) * (d + 1) + d])
                order = np.argsort(keys)
                value, at = worst_entry(np.concatenate([np.abs(c[lk]), worst])[order])
                if at is not None:
                    yield value, int(keys[order[at]])

    def label(key):
        p, k = divmod(key, d + 1)
        a, b = (l.labels[idx[x]] for x in divmod(p, m))
        return (f"bracket of ({a}, {b}) leaks onto uncovered {l.labels[k]}"
                if k < d else f"worst pair ({a}, {b})")

    return worst_residual(entries(), label)


def _skew_residual(r, indices, twist):
    """|| rho(x)^dagger + rho(x) ||, worst over the given indices.

    The graded adjoint is alpha(deg x) G^-1 rho(x)^H G (see
    ``spaces.dagger_adjoint``), for a block of indices at once.
    """
    l = r.algebra
    stack = r.rho_stack().ops
    gram = r.inner.gram_dense()
    n = r.space_dim
    indices = np.asarray(list(indices), dtype=np.int64)
    phase = np.array([alpha(l.degrees[i], twist).value for i in indices])

    def entries():
        for block in load_blocks(np.full(len(indices), n * n), _BLOCK):
            ops = stack[indices[block]]
            adj = np.linalg.solve(gram, ops.conj().transpose(0, 2, 1) @ gram)
            value, at = worst_entry(
                np.linalg.norm(phase[block, None, None] * adj + ops, axis=(1, 2)))
            if at is not None:
                yield value, int(indices[block][at])

    return worst_residual(entries(), lambda i: f"worst at {l.labels[i]}")


def _zero_skew_residual(r, indices) -> float:
    """Ordinary skewness of the degree-zero operators, worst over indices."""
    mats = (r.rho_matrix(i) for i in indices)
    return worst_residual(
        (float(np.max(np.abs(ordinary_adjoint(r.inner, m) + m))), None)
        for m in mats)[0]


def _conjugation_residual(r, g: GroupElement, indices) -> tuple[float, str]:
    """pi rho(x) pi^-1 against rho(Ad(g) x), maximized over given indices.

    rho(Ad(g) x_i) is a gather over column i of ``g.ad``: the sum of
    ad[k, i] rho(x_k) over its entries above 1e-300 in size at the basis
    elements ``r`` covers.  A block of indices is one batched conjugation,
    from which its terms are taken off.
    """
    pi = np.asarray(g.pi, dtype=complex)
    pinv = np.linalg.inv(pi)
    st = r.rho_stack()
    d, n = r.algebra.dim, r.space_dim
    indices = np.asarray(indices, dtype=np.int64)
    pos = np.full(d, -1)
    pos[indices] = np.arange(len(indices))
    # the terms (k, col), col the index position: cols ascending, then k
    k, i = np.divmod(np.flatnonzero(g.ad), d)
    keep = (np.abs(g.ad[k, i]) > 1e-300) & st.defined[k] & (pos[i] >= 0)
    order = np.argsort(pos[i[keep]], kind="stable")
    k, i = k[keep][order], i[keep][order]
    col, coef = pos[i], g.ad[k, i]
    rank = _ranks(col)
    start = np.searchsorted(col, np.arange(len(indices) + 1))

    def entries():
        for block in load_blocks((1 + np.diff(start)) * n * n, _BLOCK):
            b = block.stop - block.start
            # pi rho(x_i) pi^-1 at [p, i, s]
            diff = pi @ st.ops[indices[block]].transpose(1, 0, 2).reshape(n, b * n)
            diff = (diff.reshape(n * b, n) @ pinv).reshape(n, b, n)
            s = np.arange(start[block.start], start[block.stop])
            for q in range(rank[s].max(initial=-1) + 1):
                e = s[rank[s] == q]
                diff.transpose(1, 0, 2)[col[e] - block.start] -= coef[e, None, None] * st.ops[k[e]]
            value, at = worst_entry(np.abs(diff).transpose(1, 0, 2).reshape(b, n * n).max(axis=1))
            if at is not None:
                yield value, int(indices[block][at])

    return worst_residual(entries(), lambda i: f"worst at {r.algebra.labels[i]}")


def check_unitary_rep(r: UnitaryRep, tol: float = _REP_TOL,
                      twist: Character | None = None) -> Report:
    """All five representation axioms, in their finite-dimensional forms."""
    l = r.algebra
    rep = Report("unitary representation check",
                 context={"algebra_dim": l.dim, "space_dim": r.space_dim,
                          "twisted": twist is not None and not twist.is_trivial})
    _pi_checks(r, rep, tol)

    res, detail = _bracket_residual(r, range(l.dim))
    rep.add("bracket property", res <= tol, res, tol, "" if res <= tol else detail)

    zero_idx = l.sector(Degree.zero(l.rank))
    res = _zero_skew_residual(r, zero_idx)
    rep.add("degree-zero skewness", res <= tol, res, tol,
            "exponentials of the degree-zero sector are unitary; the "
            "one-parameter group exists by construction at finite dimension")

    res, detail = _skew_residual(r, range(l.dim), twist)
    rep.add("graded skew-adjointness", res <= tol, res, tol, "" if res <= tol else detail)

    for g in r.pair.extra_generators:
        if g.pi is None:
            continue
        res, detail = _conjugation_residual(r, g, range(l.dim))
        rep.add(f"equivariance: {g.label}", res <= tol, res, tol, "" if res <= tol else detail)
    if zero_idx:
        res, _ = worst_residual((_conjugation_residual(r, g, range(l.dim))[0],
                                 None) for _, g in _zero_sector_exps(r))
        rep.add("equivariance: sampled one-parameter elements",
                res <= max(tol, 1e-8), res, max(tol, 1e-8),
                "redundant with the bracket property; consistency sample")
    return rep


def check_pre_rep(p: PartialRep | UnitaryRep, tol: float = _REP_TOL,
                  twist: Character | None = None) -> Report:
    """Pre-representation axioms on the supplied sectors only; a full
    representation is checked on its ``restrict``."""
    p = _partial(p)
    l = p.algebra
    rep = Report("pre-representation check",
                 context={"algebra_dim": l.dim, "space_dim": p.space_dim,
                          "defined": len(p.rho)})
    _pi_checks(p, rep, tol)
    rep.add("domain density", True, detail="automatic at finite dimension")

    zero_idx = l.sector(Degree.zero(l.rank))

    if l.odd_degrees():
        per_sector = [(a, *_bracket_residual(p, zero_idx + l.sector(a)))
                      for a in l.odd_degrees()]
        res, detail = worst_residual(((val, f"sector {a}, {d}")
                                      for a, val, d in per_sector))
    else:
        res, detail = _bracket_residual(p, zero_idx)
    rep.add("bracket property on even-plus-one-odd subalgebras",
            res <= tol, res, tol, "" if res <= tol else detail)

    rep.add("essential skew-adjointness", True,
            detail="matrix skewness below carries the content at finite dimension")

    res = _zero_skew_residual(p, zero_idx)
    rep.add("degree-zero skewness", res <= tol, res, tol)

    res, detail = _skew_residual(p, sorted(p.rho), twist)
    rep.add("graded skew-adjointness", res <= tol, res, tol, "" if res <= tol else detail)

    for g in p.pair.extra_generators:
        if g.pi is None:
            continue
        res, detail = _conjugation_residual(p, g, sorted(p.rho))
        rep.add(f"equivariance: {g.label}", res <= tol, res, tol, "" if res <= tol else detail)
    return rep


def _partial(r: PartialRep | UnitaryRep) -> PartialRep:
    """Partial data as given, or restricted from a full representation."""
    return restrict(r) if isinstance(r, UnitaryRep) else r


def restrict(r: UnitaryRep) -> PartialRep:
    """Forget the even-like nonzero sectors, keeping the extendable data."""
    l = r.algebra
    zero = Degree.zero(l.rank)
    rho = {i: r.rho[i] for i in range(l.dim)
           if l.degrees[i] == zero or not is_even_like(l.degrees[i])}
    return PartialRep(r.pair, r.inner, rho)


def _extended(p: PartialRep, tol: float) -> UnitaryRep:
    """p with the nonzero even-like sectors filled in (``stability_extend``)."""
    l, rho, space = p.algebra, dict(p.rho), p.inner.space
    ops, n = p.rho_stack().ops, p.space_dim
    spans = [OddBracketSpan(l, a) for a in l.even_nonzero_degrees()]
    bad = [str(s.degree) for s in spans if s.rank < len(s.rows)]
    if bad:
        raise PerfectnessError(
            "extension hypothesis fails: even-like sector(s) "
            f"{bad} are not spanned by brackets of odd-like elements", sector=bad[0])
    for s in spans:
        eye, (i, j) = np.eye(len(s.rows)), s.pairs.T
        coeffs = np.hstack([s.solve(eye), s.solve(eye, _WEIGHT_SEED)])
        ext = np.zeros((coeffs.shape[1], n, n), dtype=complex)
        # each pair's bracket once; a block's six temporaries hold about _BLOCK entries
        for b in load_blocks(np.full(len(i), 6 * n * n), _BLOCK):
            y, z, sign = ops[i[b]], ops[j[b]], l.beta_table[i[b], j[b], None, None]
            ext += np.tensordot(coeffs[b], y @ z - sign * (z @ y), axes=(0, 0))
        for x, one, two in zip(s.rows, ext, ext[len(s.rows):]):
            gap = float(np.max(np.abs(one - two)))
            if gap > tol * max(1.0, float(np.max(np.abs(one)))):
                raise ExtensionError(
                    f"extension of {l.labels[x]} depends on the decomposition "
                    f"(gap {gap:.3e}); the partial data is inconsistent")
            rho[x] = HomogeneousMap.from_dense(space, space, s.degree, one.copy())
    return UnitaryRep(p.pair, p.inner, [rho[x] for x in range(l.dim)])


def stability_extend(p: PartialRep | UnitaryRep,
                     tol: float = _EXTEND_TOL) -> tuple[UnitaryRep, Report]:
    """Fill in the even-like nonzero sectors from the partial data, or from
    the ``restrict`` of a full representation.

    Each sector is solved once (``OddBracketSpan``) for all its basis
    elements, least-norm and with a fixed-seed reweighting.  The two
    extensions through the bracket property must agree at ``tol``, and so
    must the full check of the result, whose report is returned with it.
    """
    p = _partial(p)
    pre = check_pre_rep(p)
    if not pre.passed:
        raise ExtensionError("partial data fails the pre-representation axioms",
                             report=pre)
    full = _extended(p, tol)    # the sector columns are freed before the final check
    final = check_unitary_rep(full, tol=tol)
    if not final.passed:
        raise ExtensionError("extended operators fail the representation axioms",
                             report=final)
    return full, final


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
