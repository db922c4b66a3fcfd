"""Group data attached to a color Lie algebra.

A pair couples the algebra with a group acting on it: the identity component
acts through exponentials of inner derivations and needs no explicit storage,
while disconnected parts are carried as a finite list of extra generators,
each one a degree-preserving bracket automorphism of the algebra.  Group
elements optionally also carry a unitary action on a representation space,
bound later by the representation layer.
"""
from __future__ import annotations

import numpy as np

from .colorlie import ColorLieAlgebra, _relative_rank, ad_operator, real_array, real_coefficients
from .errors import AxiomError, RankMismatchError
from .grading import Degree, is_even_like
from .report import Report, worst_entry, worst_residual
from .spaces import _degree_pattern

_PAIR_TOL = 1e-9

# coefficients of the degree-m Pade approximants of exp, and the largest
# 1-norm for which each is accurate to double precision without scaling
# (Higham 2005, Table 2.3); above theta_9 the matrix is scaled for degree 13
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068}
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with Pade approximants.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the lowest degree m of
    3, 5, 7 and 9 whose theta_m bounds the 1-norm needs no scaling and
    m // 2 + 1 products.  Above theta_9, scale by 2^-s so that the 1-norm is
    at most theta_13, evaluate the degree-13 approximant with six products,
    then square s times.  Every branch ends in one solve.  An exactly zero
    matrix gives exactly the identity.
    """
    a = np.asarray(a)
    ident = np.eye(a.shape[0], dtype=a.dtype)
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return ident
    degree = next((m for m in _THETA if norm <= _THETA[m]), None)
    if degree is not None:
        b = _PADE[degree]
        powers = [ident, a @ a]    # the even powers up to a^(m - 1)
        while len(powers) <= degree // 2:
            powers.append(powers[-1] @ powers[1])
        u = a @ sum(b[2 * i + 1] * p for i, p in enumerate(powers))
        v = sum(b[2 * i] * p for i, p in enumerate(powers))
        return np.linalg.solve(v - u, v + u)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if np.isfinite(norm) else 0
    a = a / 2.0 ** s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


class GroupElement:
    """One group sample: its action on the algebra and, optionally, a space.

    ``ad`` is the matrix of the action on the algebra basis (columns are
    images of basis vectors), read by ``real_array``.  ``pi`` is the matrix
    on a representation space, present only once a representation has bound
    it.  The inverse is computed on first use and kept.
    """

    __slots__ = ("label", "ad", "pi", "_identity", "_inverse")

    def __init__(self, label: str, ad, pi=None):
        self.label = str(label)
        self.ad = real_array(ad, "ad matrix")
        if self.ad.ndim != 2 or self.ad.shape[0] != self.ad.shape[1]:
            raise ValueError("ad matrix must be square")
        self.pi = None if pi is None else np.asarray(pi, dtype=complex)
        self._identity = False
        self._inverse = None

    @classmethod
    def identity(cls, dim: int, pi_dim: int | None = None) -> "GroupElement":
        """The identity on an algebra of dimension ``dim``, bound to a space
        of dimension ``pi_dim`` when that is given.

        One element per (dim, pi_dim) is made, on first use, and shared by
        every caller, so building a monoid element costs no new matrix.
        Its ``ad`` and ``pi`` are read-only: writing into them raises.
        """
        key = (dim, pi_dim)
        e = _IDENTITIES.get(key)
        if e is None:
            ad = np.eye(dim)
            pi = None if pi_dim is None else np.eye(pi_dim, dtype=complex)
            for m in (ad, pi):
                if m is not None:
                    m.flags.writeable = False
            e = cls("1", ad, pi)
            e._identity = True
            _IDENTITIES[key] = e
        return e

    def compose(self, other: "GroupElement") -> "GroupElement":
        if self.ad.shape != other.ad.shape:
            raise ValueError("group elements act on different algebras")
        # the identity is neutral, and of two identities the bound one wins,
        # so that an unbound identity never strips a bound action
        if other._identity and other.pi is None:
            return self
        if self._identity:
            return other
        pi = None
        if self.pi is not None and other.pi is not None:
            pi = self.pi @ other.pi
        return GroupElement(f"({self.label} {other.label})", self.ad @ other.ad, pi)

    def inverse(self) -> "GroupElement":
        if self._identity:
            return self
        if self._inverse is None:
            pi = None if self.pi is None else np.linalg.inv(self.pi)
            self._inverse = GroupElement(f"{self.label}^-1",
                                         np.linalg.inv(self.ad), pi)
        return self._inverse

    def is_identity(self) -> bool:
        """Whether this is the identity by construction.

        True exactly for elements built by ``identity()`` and for what
        ``compose`` and ``inverse`` return from them.  A matrix that merely
        equals the identity is not the identity: ``inner_element(..., t=0)``,
        ``g.compose(g.inverse())`` and a loaded generator stay ordinary group
        elements.
        """
        return self._identity

    def __repr__(self) -> str:
        bound = "bound" if self.pi is not None else "unbound"
        return f"GroupElement({self.label!r}, dim={self.ad.shape[0]}, {bound})"


# the shared identity elements of ``GroupElement.identity``, by (dim, pi_dim)
_IDENTITIES: dict[tuple, GroupElement] = {}


def inner_element(l: ColorLieAlgebra, coeffs, t: float = 1.0,
                  label: str | None = None) -> GroupElement:
    """Identity-component sample exp(t ad(x)) for x in the even-like part.

    The coefficient vector must be supported on even-like sectors, otherwise
    the exponential leaves the group acting on the algebra.
    """
    coeffs = real_coefficients(l, coeffs)
    for i in np.flatnonzero(coeffs):
        if not is_even_like(l.degrees[i]):
            raise ValueError(f"basis element {l.labels[i]} is odd-like; inner "
                             "group samples come from the even-like part")
    if label is None:
        label = f"exp({t:g}*ad)"
    return GroupElement(label, _expm(t * ad_operator(l, coeffs)))


def check_ad_map(l: ColorLieAlgebra, ad, tol: float = _PAIR_TOL,
                 name: str = "ad") -> Report:
    """Is a matrix, read by ``real_array``, a degree-preserving bracket
    automorphism of the algebra?"""
    ad = real_array(ad, "ad matrix")
    rep = Report(f"automorphism check: {name}", context={"dim": l.dim})
    if ad.shape != (l.dim, l.dim):
        raise RankMismatchError(
            f"ad matrix is {ad.shape}, algebra has dimension {l.dim}")

    off = ~_degree_pattern(l.deg_codes, Degree.zero(l.rank), l.deg_codes)
    grade_res = float(np.max(np.abs(ad * off))) if ad.size else 0.0
    rep.add("grading preserved", grade_res <= tol, grade_res, tol)

    # invertible when every singular value is above tol times the largest
    finite = bool(np.isfinite(ad).all())
    rank = _relative_rank(ad, tol) if finite else 0
    rep.add("invertible", finite and rank == l.dim,
            detail=f"rank {rank} of {l.dim}" if finite else "non-finite entries")

    # Ad [x_i, x_j] = [Ad x_i, Ad x_j] as columns j of Ad ad(x_i) = ad(Ad x_i) Ad
    def entries():
        for i, unit in enumerate(np.eye(l.dim)):
            resid = ad @ ad_operator(l, unit) - ad_operator(l, ad[:, i]) @ ad
            value, at = worst_entry(np.abs(resid.T))
            yield value, (i, at)   # at is None only where value is 0, which never wins

    br_res, detail = worst_residual(
        entries(), lambda at: f"worst pair ({l.labels[at[0]]}, {l.labels[at[1] // l.dim]})")
    rep.add("bracket automorphism", br_res <= tol, br_res, tol, "" if br_res <= tol else detail)
    return rep


class HCPair:
    """A color Lie algebra together with group generators acting on it."""

    __slots__ = ("algebra", "extra_generators")

    def __init__(self, algebra: ColorLieAlgebra, extra_generators=(),
                 validate: bool = True, tol: float = _PAIR_TOL):
        self.algebra = algebra
        self.extra_generators = list(extra_generators)
        for g in self.extra_generators:
            if g.ad.shape != (algebra.dim, algebra.dim):
                raise RankMismatchError(
                    f"generator {g.label!r} acts on dimension {g.ad.shape[0]}, "
                    f"algebra has {algebra.dim}")
        if validate:
            rep = check_pair(self, tol=tol)
            if not rep.passed:
                raise AxiomError("group generators fail to act by automorphisms:\n"
                                 + rep.to_text())

    def __repr__(self) -> str:
        return (f"HCPair(dim={self.algebra.dim}, "
                f"extra_generators={len(self.extra_generators)})")


def check_pair(pair: HCPair, tol: float = _PAIR_TOL) -> Report:
    """Validate every stored generator of the pair."""
    rep = Report("pair check", context={"generators": len(pair.extra_generators)})
    for g in pair.extra_generators:
        sub = check_ad_map(pair.algebra, g.ad, tol=tol, name=g.label)
        rep.extend(sub, prefix=f"{g.label}: ")
    if not pair.extra_generators:
        rep.add("no extra generators", True, detail="identity component only")
    return rep
