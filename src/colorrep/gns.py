"""Reconstruction of cyclic representations from positive definite functions.

A function on the transformation monoid that is positive definite, supported
in degree zero, and of finite type determines a graded Hilbert space, a
distinguished cyclic vector, and unitary operators realizing the monoid by
left translation.  This module builds that data from finitely many samples,
certifies what it verified, and compares independent reconstructions.
"""

from __future__ import annotations

import numpy as np

from .colorlie import ColorLieAlgebra
from .enveloping import (DEFAULT_LEVEL_CAP, EnvElement, MonoidElement,
                         is_normal_word, s_mul, s_star)
from .errors import EquivalenceError, PositivityError, StabilizationError
from .grading import Degree
from .hcpair import GroupElement, HCPair
from .report import Report, worst_residual
from .reps import (UnitaryRep, _zero_sector_exps, check_unitary_rep,
                   matrix_coefficient, monoid_operator)
from .spaces import GammaInnerSpace, GradedSpace, HomogeneousMap, _degree_pattern

_GNS_TOL = 1e-9
_EXP_TIMES = (0.5, 1.0)


class PDFunction:
    """Scalar function on the monoid, linear over the enveloping part.

    Instances remember where they came from.  Diagonal coefficients of a
    representation keep the representation and vector, which unlocks a much
    faster Gram assembly; table-backed functions only know their values on
    normal words with trivial group part.
    """

    __slots__ = ("algebra", "provenance", "rep", "vector", "table", "_eval")

    def __init__(self, algebra: ColorLieAlgebra, evaluator,
                 provenance: str = "custom"):
        self.algebra = algebra
        self._eval = evaluator
        self.provenance = provenance
        self.rep = None
        self.vector = None
        self.table = None

    def __call__(self, s: MonoidElement) -> complex:
        if s.env.algebra is not self.algebra:
            raise ValueError("monoid element belongs to a different algebra")
        return complex(self._eval(s))

    @classmethod
    def from_rep(cls, r: UnitaryRep, v) -> "PDFunction":
        """Diagonal matrix coefficient s -> (op(s) v, v)."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (r.space_dim,):
            raise ValueError(f"vector must have length {r.space_dim}")
        out = cls(r.algebra, lambda s: matrix_coefficient(r, v, v, s),
                  provenance="diagonal coefficient")
        out.rep = r
        out.vector = v
        return out

    @classmethod
    def from_table(cls, l: ColorLieAlgebra, table) -> "PDFunction":
        """Function given by values on normal words.

        Table keys are index tuples in rewriting-stable form.  Only elements
        whose group part is the identity by construction can be evaluated
        (see ``GroupElement.is_identity``); a group element whose matrix merely
        equals the identity is refused.  Missing words count as zero.
        """
        clean: dict[tuple, complex] = {}
        for word, val in table.items():
            word = tuple(int(i) for i in word)
            if not is_normal_word(l, word):
                raise ValueError(f"table key {word} is not a normal word")
            clean[word] = complex(val)

        def ev(s: MonoidElement) -> complex:
            if not s.group.is_identity():
                raise ValueError(
                    f"table-backed function cannot evaluate group element "
                    f"{s.group.label!r}; only the identity component is tabulated")
            return sum((c * clean.get(w, 0.0) for w, c in s.env.terms.items()),
                       start=0.0 + 0.0j)

        out = cls(l, ev, provenance="table")
        out.table = clean
        return out

    def __repr__(self) -> str:
        return f"PDFunction({self.provenance}, dim={self.algebra.dim})"


class SampleSet:
    """Finite probe of the monoid: group samples times basis monomials."""

    __slots__ = ("elements", "level", "group_count")

    def __init__(self, elements, level: int, group_count: int):
        self.elements = list(elements)
        self.level = int(level)
        self.group_count = int(group_count)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return (f"SampleSet({len(self.elements)} elements, "
                f"level={self.level}, groups={self.group_count})")


def normal_words(l: ColorLieAlgebra, max_level: int) -> list[tuple]:
    """All rewriting-stable index words up to the length bound, shortest first."""
    words: list[tuple] = [()]
    frontier: list[tuple] = [()]
    for _ in range(max_level):
        grown = []
        for w in frontier:
            start = w[-1] if w else 0
            for i in range(start, l.dim):
                if w and i == w[-1] and l.beta_table[i, i] == -1:
                    continue  # squares of these letters rewrite away
                grown.append(w + (i,))
        words.extend(grown)
        frontier = grown
    return words


def default_group_samples(r, ts=_EXP_TIMES) -> list[GroupElement]:
    """Identity, the bound extra generators, and exp samples of the zero sector.

    Degree-zero basis elements that act as exactly zero, on the algebra and
    on the space, give no samples.
    """
    out = [GroupElement.identity(r.algebra.dim, r.space_dim)]
    out.extend(g for g in r.pair.extra_generators if g.pi is not None)
    out.extend(_zero_sector_exps(r, ts, acting_only=True))
    return out


def build_sample_set(l: ColorLieAlgebra, group_samples, level: int) -> SampleSet:
    """Pair every group sample with every monomial up to the level.

    The identity monoid element always sits at index zero.  Only samples
    that are the identity by construction are folded into it; one whose
    matrices merely equal the identity stays an ordinary group sample.
    """
    groups = [g for g in group_samples if not g.is_identity()]
    # bind the identity whenever the others are bound, so that star and
    # product stay inside the bound part of the monoid
    pi_dim = next((g.pi.shape[0] for g in groups if g.pi is not None), None)
    groups.insert(0, GroupElement.identity(l.dim, pi_dim))
    elements = []
    for g in groups:
        for w in normal_words(l, level):
            elements.append(MonoidElement(g, EnvElement(l, {w: 1.0})))
    return SampleSet(elements, level, len(groups))


def _product(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    # a b, with the rewriting cap sized to the words actually present
    return s_mul(a, b, level_cap=max(1, a.level + b.level))


def _monoid_pair(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    return _product(s_star(a), b)


def _gram_of(psi: PDFunction, elements):
    """The Gram M[i, j] = psi(s_i* s_j) of the elements, built once.

    The only place that picks the operator route (representation-backed
    psi) or the monoid-product route (all others).  Both give ``eigs``, the
    eigenvalues of M ascending (None when the data are not finite);
    ``scale``, max(1, ||M||_2) (1 when not finite); ``dense()``, M;
    ``hermitian()``, residual and detail of the Hermitian check;
    ``route_gap()``, the sampled gap between the two routes (None with one
    route); ``translate(m_left)``, the pairings psi(t* m_left s) indexed
    [t, s] and the squared lengths of the translates; ``against(x)``,
    psi(t* x) for every sample t; and ``psd_detail``.
    """
    if not elements:
        raise ValueError("sample set is empty")
    route = _FactoredGram if psi.rep is not None else _DenseGram
    return route(psi, elements)


class _DenseGram:
    """Monoid-product route: each entry is one monoid product and one psi call."""

    psd_detail = "verified on sample set"

    def __init__(self, psi: PDFunction, elements):
        self.psi = psi
        self.elements = elements
        self.stars = [s_star(t) for t in elements]
        self.m = np.column_stack([self.against(b) for b in elements])
        self.eigs, self.scale = None, 1.0
        if np.isfinite(self.m).all():
            self.eigs = np.linalg.eigvalsh((self.m + self.m.conj().T) / 2.0)
            self.scale = max(1.0, float(np.linalg.norm(self.m, 2)))

    def dense(self) -> np.ndarray:
        return self.m

    def hermitian(self) -> tuple[float, str]:
        return (float(np.linalg.norm(self.m - self.m.conj().T, 2)),
                "verified on sample set")

    def route_gap(self):
        return None

    def translate(self, m_left: MonoidElement):
        n = len(self.elements)
        pairs = np.zeros((n, n), dtype=complex)
        norms = np.zeros(n)
        for k, s in enumerate(self.elements):
            ms = _product(m_left, s)
            pairs[:, k] = self.against(ms)
            norms[k] = float(np.real(self.psi(_monoid_pair(ms, ms))))
        return pairs, norms

    def against(self, x: MonoidElement) -> np.ndarray:
        return np.array([self.psi(_product(t_star, x)) for t_star in self.stars],
                        dtype=complex)


class _FactoredGram:
    """Operator route: the sample Gram in factored form.

    M = W^H W with W = R U, where U holds the sample columns op(s) v and R is
    the Cholesky factor of the space Gram, so W is d x n and every spectral
    fact about M comes from a thin SVD of W at O(n d^2) cost: ``eigs`` are
    sigma(W)^2 padded with exact zeros to length n.
    """

    psd_detail = "singular values of W, verified on sample set"

    def __init__(self, psi: PDFunction, elements):
        self.psi = psi
        self.elements = elements
        self.u = np.column_stack([monoid_operator(psi.rep, s) @ psi.vector
                                  for s in elements])
        self.gram = psi.rep.inner.gram_dense()
        self.eigs, self.scale = None, 1.0
        if not np.isfinite(self.gram).all():
            self.w = np.full(self.u.shape, np.nan, dtype=complex)
            return
        self.w = np.linalg.cholesky(self.gram).conj().T @ self.u
        if np.isfinite(self.w).all():
            sv = np.linalg.svd(self.w, compute_uv=False)
            self.eigs = np.zeros(self.w.shape[1])
            self.eigs[self.eigs.size - sv.size:] = np.sort(sv) ** 2
            # ||M||_2 = sigma_max(W)^2, the last of the ascending eigenvalues
            self.scale = max(1.0, float(self.eigs[-1]))

    def dense(self) -> np.ndarray:
        return self.w.conj().T @ self.w

    def hermitian(self) -> tuple[float, str]:
        return 0.0, "by construction: M = W^H W"

    def route_gap(self) -> float:
        """Worst gap between psi(s_i* s_j) through the monoid product and W^H W.

        Pairs of different degrees pair to zero on both routes, so each of
        four draws takes a random sample s_i, a random sample s_j of the same
        degree, and compares both (i, j) and the diagonal entry (i, i), which
        is the squared length of a translate.  A non-finite entry makes the
        result non-finite.
        """
        elements, w = self.elements, self.w
        rng = np.random.default_rng(0)
        degs = [s.degree for s in elements]
        peers: dict = {}
        for i, d in enumerate(degs):
            peers.setdefault(d, []).append(i)
        gaps = []
        for _ in range(min(4, len(elements))):
            i = int(rng.integers(len(elements)))
            same = peers[degs[i]]
            j = same[int(rng.integers(len(same)))]
            for a, b in ((i, i), (i, j)):
                direct = self.psi(_monoid_pair(elements[a], elements[b]))
                gaps.append(abs(direct - np.vdot(w[:, a], w[:, b])))
        return float(np.max(gaps)) if gaps else 0.0

    def translate(self, m_left: MonoidElement):
        au = monoid_operator(self.psi.rep, m_left) @ self.u
        gau = self.gram @ au
        return (self.u.conj().T @ gau,
                np.real(np.sum(au.conj() * gau, axis=0)))

    def against(self, x: MonoidElement) -> np.ndarray:
        vec = monoid_operator(self.psi.rep, x) @ self.psi.vector
        return self.u.conj().T @ (self.gram @ vec)


def sample_gram(psi: PDFunction, samples) -> tuple[np.ndarray, float]:
    """Gram matrix M[i, j] = psi(s_i* s_j) over the samples.

    Representation-backed functions evaluate through the operators, as
    M = W^H W from the factor W = R U (R the Cholesky factor of the space
    Gram, U the sample columns); a few same-degree and diagonal entries are
    then recomputed through the monoid product as an independent route, and
    the worst disagreement is returned alongside the matrix.  Other
    functions pay for every entry through the monoid product, and the
    returned disagreement is zero.
    """
    gram = _gram_of(psi, list(samples))
    gap = gram.route_gap()
    return gram.dense(), 0.0 if gap is None else gap


def check_positive_definite(psi: PDFunction, samples,
                            tol: float = _GNS_TOL) -> Report:
    """Support condition and Gram positivity over a finite sample set.

    The support condition, the Hermitian symmetry of the Gram matrix, and the
    eigenvalue floor are all certified on the given samples only; the detail
    strings say so.  For representation-backed functions the Gram is kept
    as M = W^H W, so its Hermitian symmetry and positivity hold by
    construction, and no n x n matrix is formed: ``gram_norm`` and
    ``min_eigenvalue`` come from the singular values of W.  What is checked
    numerically there is the agreement of W^H W with psi evaluated through
    the monoid product, on sampled same-degree and diagonal entries.
    Non-finite sample data fail the Gram checks.
    """
    return _positivity_report(_gram_of(psi, list(samples)), tol)


def _positivity_report(gram, tol: float) -> Report:
    psi, elements = gram.psi, gram.elements
    rep = Report("positive definiteness",
                 context={"samples": len(elements), "tol": tol})

    worst, at = worst_residual(
        ((abs(psi(s)), s.degree) for s in elements
         if s.degree is not None and not s.degree.is_zero),
        lambda d: f"degree {d}")
    rep.add("support condition", worst <= tol, worst, tol,
            "verified on sample set" + (f"; worst at {at}" if at else ""))

    spot = gram.route_gap()
    if spot is not None:
        spot_tol = max(tol, 1e-8)
        rep.add("assembly route agreement", spot <= spot_tol, spot, spot_tol,
                "operator route against monoid-product route, sampled "
                "same-degree and diagonal entries")

    floor = tol * gram.scale
    if gram.eigs is None:
        for name in ("gram hermitian", "gram positive semidefinite"):
            rep.add(name, False, None, floor, "non-finite sample data")
        rep.context["min_eigenvalue"] = None
        rep.context["gram_norm"] = None
        return rep

    herm, detail = gram.hermitian()
    rep.add("gram hermitian", herm <= floor, herm, floor, detail)
    low = float(gram.eigs.min()) if gram.eigs.size else 0.0
    rep.add("gram positive semidefinite", low >= -floor,
            max(0.0, -low), floor, gram.psd_detail)
    rep.context["min_eigenvalue"] = low
    rep.context["gram_norm"] = gram.scale
    return rep


class GNSResult:
    """Outcome of a reconstruction, with the evidence kept alongside."""

    __slots__ = ("rep", "cyclic", "gram_spectrum", "level_used", "report",
                 "sample_count")

    def __init__(self, rep: UnitaryRep, cyclic: np.ndarray, gram_spectrum,
                 level_used: int, report: Report, sample_count: int):
        self.rep = rep
        self.cyclic = cyclic
        self.gram_spectrum = gram_spectrum
        self.level_used = level_used
        self.report = report
        self.sample_count = sample_count

    def __repr__(self) -> str:
        return (f"GNSResult(dim={self.rep.space_dim}, "
                f"level_used={self.level_used}, samples={self.sample_count})")


def _truncation_note(psi: PDFunction, level: int) -> str:
    """Why a table-backed Gram at this level can fail: it reads untabulated words."""
    if psi.table is None:
        return ""
    longest = max(map(len, psi.table), default=0)
    if longest >= 2 * level:
        return ""
    return (f"; the longest tabulated word has length {longest}, the level-{level} "
            f"Gram reads words up to length {2 * level}, and missing words "
            "count as zero")


def gns_construct(psi: PDFunction, group_samples=None,
                  level_cap: int = DEFAULT_LEVEL_CAP,
                  tol: float = _GNS_TOL) -> GNSResult:
    """Build the cyclic representation generated by a positive definite function.

    Sample sets grow level by level until the Gram rank stops moving; the
    quotient by the kernel is taken sector by sector, and left translation by
    each generator and group sample is expressed on the retained basis.  The
    reconstruction is validated before it is returned.

    Each level's sample Gram is built once and reused by the positivity
    certificate.  For representation-backed functions it is kept as
    M = W^H W (see ``sample_gram``): its rank and norm are read from the
    singular values of W, and only the chosen level forms M densely for the
    per-sector quotient.  Hermitian symmetry and positivity then hold by
    construction; the route agreement, grading, escape, orthonormality,
    representation and reproducing checks are numerical.

    Raises StabilizationError when the rank is still growing at the cap, when
    a translate escapes the span the rank test certified, or when the
    assembled operators fail validation.  Positivity failures on the sample
    set raise PositivityError.  A function that vanishes on every sample has
    nothing to reconstruct and raises ValueError.
    """
    l = psi.algebra
    if group_samples is None:
        if psi.rep is not None:
            group_samples = default_group_samples(psi.rep)
        else:
            group_samples = [GroupElement.identity(l.dim)]

    # grow until the retained rank repeats
    prev_rank = None
    history = {}
    chosen = None
    for level in range(level_cap + 1):
        ss = build_sample_set(l, group_samples, level)
        gram = _gram_of(psi, ss.elements)
        if gram.eigs is None:
            raise PositivityError(
                f"the sample Gram at level {level} is not finite")
        rank = int(np.sum(gram.eigs > tol * gram.scale))
        history[level] = gram
        if prev_rank is not None and rank == prev_rank:
            chosen = level - 1
            break
        prev_rank = rank
    if chosen is None:
        raise StabilizationError(
            f"gram rank still growing at level {level_cap} "
            f"(rank {prev_rank}); the function is not of finite type "
            "within the configured cap" + _truncation_note(psi, level_cap))

    gram = history[chosen]
    norm_scale = gram.scale
    elements = gram.elements
    n = len(elements)
    if not elements[0].is_identity():
        raise ValueError("sample set does not start with the identity")

    report = Report("gns reconstruction",
                    context={"level_used": chosen, "samples": n, "tol": tol})

    # certify positivity on the level that witnessed the rank repeat, not
    # just on the retained samples; it sees strictly more of the function
    pd = _positivity_report(history[chosen + 1], tol)
    report.extend(pd, prefix="pd: ")
    if not pd.passed:
        raise PositivityError(
            "the function fails positive definiteness on the sample set"
            + _truncation_note(psi, chosen + 1))

    m = gram.dense()
    by_degree: dict[Degree, list[int]] = {}
    for i, s in enumerate(elements):
        by_degree.setdefault(s.degree, []).append(i)

    # classes of different degrees must be orthogonal already at gram level
    zero = Degree.zero(l.rank)
    codes = np.empty(n, dtype=np.int64)
    for d, idx in by_degree.items():
        codes[idx] = d.code
    same = _degree_pattern(codes, zero, codes)
    cross = float(np.max(np.abs(np.where(same, 0.0, m))))
    report.add("gram respects the grading", cross <= tol * norm_scale,
               cross, tol * norm_scale, "verified on sample set")
    if cross > tol * norm_scale:
        raise PositivityError(
            "sample classes of distinct degrees fail to be orthogonal "
            f"(leakage {cross:.3e})")

    # sector-by-sector spectral quotient
    spectrum = {}
    space_dims: dict[Degree, int] = {}
    basis_cols = []
    for d in sorted(by_degree):
        idx = np.array(by_degree[d])
        md = m[np.ix_(idx, idx)]
        lam, vecs = np.linalg.eigh((md + md.conj().T) / 2.0)
        keep = lam > tol * norm_scale
        spectrum[str(d)] = {
            "retained": [float(x) for x in lam[keep]],
            "discarded": [float(x) for x in lam[~keep]],
        }
        k = int(np.sum(keep))
        if k == 0:
            continue
        space_dims[d] = k
        for j in reversed(range(len(lam))):
            if not keep[j]:
                continue
            c = np.zeros(n, dtype=complex)
            c[idx] = vecs[:, j] / np.sqrt(lam[j])
            basis_cols.append(c)
    if not space_dims:
        raise ValueError(
            "the function vanishes on the sample set; nothing to reconstruct")

    space = GradedSpace(l.rank, space_dims)
    c_mat = np.column_stack(basis_cols)       # samples x dim
    p_mat = c_mat.conj().T                    # coordinates = p_mat @ pairings
    total = space.total_dim

    ortho = float(np.linalg.norm(p_mat @ m @ c_mat - np.eye(total), 2))
    report.add("quotient basis orthonormal", ortho <= 1e-8, ortho, 1e-8)

    # one escape budget for everything: discarded spectral mass bounds what an
    # honest translate can lose, so the threshold scales with the sample count
    escape_tol = n * max(tol, 1e-8) * norm_scale
    strays = []

    def translated_matrix(m_left: MonoidElement, what: str) -> np.ndarray:
        pairs, norms = gram.translate(m_left)
        kappa = p_mat @ pairs
        stray = norms - np.sum(np.abs(kappa) ** 2, axis=0)
        strays.extend((float(x), None) for x in stray)
        over = np.flatnonzero(stray > escape_tol)
        if over.size:
            raise StabilizationError(
                f"left translation by {what} leaves the certified span "
                f"(escape {stray[over[0]]:.3e} on sample {over[0]})")
        return kappa @ c_mat

    block_tol = max(tol * 100, 1e-8)

    def to_block(degree: Degree, dense: np.ndarray, what: str) -> HomogeneousMap:
        try:
            return HomogeneousMap.from_dense(space, space, degree, dense,
                                             rtol=block_tol)
        except ValueError as e:
            raise StabilizationError(
                f"{what} leaks across the grading: {e}") from None

    rho = []
    for i in range(l.dim):
        gen = MonoidElement.from_env(EnvElement(l, {(i,): 1.0}))
        dense = translated_matrix(gen, f"rho({l.labels[i]})")
        rho.append(to_block(l.degrees[i], dense, f"rho({l.labels[i]})"))

    new_gens = []
    for g in group_samples:
        if g.is_identity():
            continue
        dense = translated_matrix(MonoidElement.from_group(l, g),
                                  f"pi({g.label})")
        new_gens.append(GroupElement(g.label, g.ad, dense))

    worst_escape, _ = worst_residual(strays)
    report.add("translates stay in the span", worst_escape <= escape_tol,
               worst_escape, escape_tol)

    # cyclic class of the identity sample, cleaned of cross-sector dust
    v0 = p_mat @ m[:, 0]
    v0_clean = np.where(space.basis_codes == zero.code, v0, 0.0)
    dust = float(np.linalg.norm(v0 - v0_clean))
    dust_tol = block_tol * max(1.0, float(np.linalg.norm(v0)))
    report.add("cyclic class homogeneous", dust <= dust_tol, dust, dust_tol)
    if dust > dust_tol:
        raise StabilizationError(
            f"the identity class is not of degree zero (stray mass {dust:.3e})")

    inner = GammaInnerSpace.standard(space)
    rep = UnitaryRep(HCPair(l, new_gens, validate=False), inner, rho)

    final = check_unitary_rep(rep, tol=block_tol)
    report.extend(final, prefix="rep: ")
    if not final.passed:
        raise StabilizationError(
            "the reconstructed operators fail the representation axioms; "
            "the sampled function is not consistent")

    # reproducing identity, on a handful of samples: pairing a basis class
    # against the kernel class at s must reproduce evaluation at s
    rng = np.random.default_rng(11)
    picks = [0] + sorted(rng.choice(n, size=min(4, n), replace=False).tolist())

    def reproducing_gap(s: MonoidElement) -> float:
        lhs = np.conj(p_mat @ gram.against(s_star(s)))
        rhs = np.zeros(total, dtype=complex)
        for t_idx, t in enumerate(elements):
            rhs += c_mat[t_idx, :] * psi(_product(s, t))
        return float(np.max(np.abs(lhs - rhs)))

    worst_repr, _ = worst_residual((reproducing_gap(elements[i]), None)
                                   for i in set(picks))
    report.add("reproducing property", worst_repr <= 1e-8, worst_repr, 1e-8,
               "verified on sample set")

    cyc = check_cyclic(rep, v0_clean, tol=tol, level_cap=level_cap)
    report.add("identity class cyclic", cyc.passed,
               detail=str(cyc.context.get("rank")))
    if not cyc.passed:
        raise StabilizationError(
            "the identity class fails to be cyclic for the reconstruction")
    if not report.passed:
        raise StabilizationError("reconstruction consistency checks failed")

    return GNSResult(rep, v0_clean, spectrum, chosen, report, n)


def check_cyclic(r: UnitaryRep, v, tol: float = _GNS_TOL,
                 level_cap: int = DEFAULT_LEVEL_CAP) -> Report:
    """Whether translates of the vector span the whole space."""
    l = r.algebra
    v = np.asarray(v, dtype=complex)
    if v.shape != (r.space_dim,):
        raise ValueError(f"vector must have length {r.space_dim}")
    total = r.space_dim
    rep = Report("cyclicity", context={"dimension": total})
    groups = default_group_samples(r)
    rank = 0
    prev_rank = None
    level = 0
    finite = True
    for level in range(level_cap + 1):
        cols = _orbit_columns(r, v, groups, l, level)
        finite = bool(np.isfinite(cols).all())
        if not finite:
            rank = 0
            break
        rank = _numeric_rank(cols, tol)
        if rank == total or rank == prev_rank:
            break
        prev_rank = rank
    rep.add("translates span the space", finite and rank == total,
            detail=f"rank {rank} of {total} at level {level}" if finite
            else f"non-finite translates at level {level}")
    rep.context["rank"] = rank
    rep.context["level"] = level
    return rep


def _paired_group_samples(r1: UnitaryRep, r2: UnitaryRep, ts=_EXP_TIMES):
    """Group samples described abstractly, bound in both representations."""
    l = r1.algebra
    pairs = [(GroupElement.identity(l.dim, r1.space_dim),
              GroupElement.identity(l.dim, r2.space_dim))]
    by_label = {g.label: g for g in r2.pair.extra_generators
                if g.pi is not None}
    for g in r1.pair.extra_generators:
        if g.pi is not None and g.label in by_label:
            pairs.append((g, by_label[g.label]))
    pairs.extend(zip(_zero_sector_exps(r1, ts), _zero_sector_exps(r2, ts)))
    return pairs


def _orbit_columns(r: UnitaryRep, v: np.ndarray, groups, l, level: int):
    cols = []
    for g in groups:
        pig = np.asarray(g.pi, dtype=complex)
        for w in normal_words(l, level):
            u = v
            for i in reversed(w):
                u = r.rho_matrix(i) @ u
            cols.append(pig @ u)
    return np.column_stack(cols)


def _numeric_rank(mat: np.ndarray, tol: float) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if not sv.size:
        return 0
    return int(np.sum(sv > tol * max(1.0, float(sv[0]))))


def unitary_equivalence(r1: UnitaryRep, v1, r2: UnitaryRep, v2,
                        tol: float = 1e-8,
                        level_cap: int = DEFAULT_LEVEL_CAP) -> np.ndarray:
    """Unitary intertwiner matching translates of v1 to translates of v2.

    Both vectors must be cyclic and the matrix coefficients must agree on a
    shared abstract sample set; otherwise no such map exists and
    EquivalenceError reports which way it failed.  Returns the matrix of the
    intertwiner, columns indexed by the first space.
    """
    if r1.algebra is not r2.algebra:
        raise EquivalenceError("representations live over different algebras")
    l = r1.algebra
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)

    if not check_cyclic(r1, v1, level_cap=level_cap).passed:
        raise EquivalenceError("the first vector is not cyclic")
    if not check_cyclic(r2, v2, level_cap=level_cap).passed:
        raise EquivalenceError("the second vector is not cyclic")

    pairs = _paired_group_samples(r1, r2)
    g1s = [p[0] for p in pairs]
    g2s = [p[1] for p in pairs]
    u1 = u2 = None
    for level in range(level_cap + 1):
        u1 = _orbit_columns(r1, v1, g1s, l, level)
        u2 = _orbit_columns(r2, v2, g2s, l, level)
        if (_numeric_rank(u1, tol) == r1.space_dim
                and _numeric_rank(u2, tol) == r2.space_dim):
            break
    else:
        raise EquivalenceError(
            "sampled translates never span both spaces")

    g1d = r1.inner.gram_dense()
    g2d = r2.inner.gram_dense()
    gram1 = u1.conj().T @ g1d @ u1
    gram2 = u2.conj().T @ g2d @ u2
    gap = float(np.linalg.norm(gram1 - gram2, 2))
    scale = max(1.0, float(np.linalg.norm(gram1, 2)))
    if gap > tol * scale:
        raise EquivalenceError(
            f"matrix coefficients disagree on the sample set (gap {gap:.3e}); "
            "the representations are not equivalent through these vectors")

    t_mat = u2 @ np.linalg.pinv(u1, rcond=1e-12)

    def demand(name: str, resid: float, bound: float) -> None:
        if resid > bound:
            raise EquivalenceError(
                f"candidate intertwiner fails {name} (residual {resid:.3e})")

    demand("well-definedness",
           float(np.linalg.norm(t_mat @ u1 - u2, 2)),
           tol * max(1.0, float(np.linalg.norm(u2, 2))))
    demand("isometry",
           float(np.linalg.norm(t_mat.conj().T @ g2d @ t_mat - g1d, 2)),
           tol * max(1.0, float(np.linalg.norm(g1d, 2))))

    on = _degree_pattern(r2.inner.space.basis_codes, Degree.zero(l.rank),
                         r1.inner.space.basis_codes)
    demand("grading", float(np.linalg.norm(np.where(on, 0.0, t_mat))),
           tol * max(1.0, float(np.linalg.norm(t_mat))))

    for i in range(l.dim):
        demand(f"intertwining rho({l.labels[i]})",
               float(np.linalg.norm(t_mat @ r1.rho_matrix(i)
                                    - r2.rho_matrix(i) @ t_mat, 2)),
               tol * max(1.0, float(np.linalg.norm(r2.rho_matrix(i), 2))))
    for a, b in pairs[1:]:
        demand(f"intertwining pi({a.label})",
               float(np.linalg.norm(t_mat @ np.asarray(a.pi, dtype=complex)
                                    - np.asarray(b.pi, dtype=complex) @ t_mat,
                                    2)),
               tol * max(1.0, float(np.linalg.norm(b.pi, 2))))
    demand("the cyclic matching", float(np.linalg.norm(t_mat @ v1 - v2)),
           tol * max(1.0, float(np.linalg.norm(v2))))
    return t_mat


def gns_roundtrip(r: UnitaryRep, v0, level_cap: int = DEFAULT_LEVEL_CAP,
                  tol: float = _GNS_TOL) -> Report:
    """Full circle: coefficient function, reconstruction, equivalence.

    Starting from a representation with a cyclic degree-zero vector, takes
    the diagonal coefficient function, rebuilds a representation from it, and
    certifies the rebuilt one is unitarily equivalent to the original.
    """
    rep = Report("gns roundtrip", context={"dimension": r.space_dim})
    base = check_unitary_rep(r)
    rep.add("original representation valid", base.passed, base.max_residual())
    v0 = np.asarray(v0, dtype=complex)
    d = r.inner.space.homogeneous_degree(v0, rtol=1e-9)
    rep.add("vector homogeneous of degree zero",
            d is not None and d.is_zero, detail=f"degree {d}")
    cyc = check_cyclic(r, v0, tol=max(tol, 1e-9), level_cap=level_cap)
    rep.add("vector cyclic", cyc.passed,
            detail=f"rank {cyc.context.get('rank')} of {r.space_dim}")
    if not rep.passed:
        return rep

    psi = PDFunction.from_rep(r, v0)
    pd_samples = build_sample_set(r.algebra, default_group_samples(r),
                                  min(1, level_cap))
    pd = check_positive_definite(psi, pd_samples, tol=max(tol, 1e-9))
    rep.extend(pd, prefix="pd: ")
    if not pd.passed:
        return rep

    try:
        result = gns_construct(psi, level_cap=level_cap, tol=tol)
    except (PositivityError, StabilizationError, ValueError) as e:
        rep.add("reconstruction", False, detail=str(e))
        return rep
    rep.add("reconstruction", True,
            detail=f"dimension {result.rep.space_dim}, "
                   f"level {result.level_used}")
    rep.add("dimension matches", result.rep.space_dim == r.space_dim,
            detail=f"{result.rep.space_dim} vs {r.space_dim}")
    rep.context["level_used"] = result.level_used
    rep.context["gram_spectrum"] = result.gram_spectrum

    eq_tol = max(tol, 1e-6)
    try:
        t_mat = unitary_equivalence(r, v0, result.rep, result.cyclic,
                                    tol=eq_tol, level_cap=level_cap)
    except EquivalenceError as e:
        rep.add("unitary equivalence", False, detail=str(e))
        return rep
    worst, _ = worst_residual(
        (float(np.linalg.norm(t_mat @ r.rho_matrix(i)
                              - result.rep.rho_matrix(i) @ t_mat, 2)), None)
        for i in range(r.algebra.dim))
    rep.add("unitary equivalence", True, worst, eq_tol,
            "intertwiner recovered")
    return rep
