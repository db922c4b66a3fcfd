"""Self-describing JSON files for algebras, representations, and tables.

Every document carries a "schema" tag with a version suffix and its rank.
Complex numbers serialize as [re, im] pairs; degrees as arrays of 0/1 bits.
Loaders fail with SchemaError naming the offending field.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .colorlie import ColorLieAlgebra
from .errors import AxiomError, ColorrepError, SchemaError
from .gns import PDFunction
from .grading import Degree
from .hcpair import GroupElement, HCPair
from .reps import PartialRep, UnitaryRep
from .spaces import GammaInnerSpace, GradedSpace, HomogeneousMap

ALGEBRA_SCHEMA = "color-lie-algebra/1"
REP_SCHEMA = "unitary-rep/1"
TABLE_SCHEMA = "pd-table/1"
REPORT_SCHEMA = "report/1"


def _is_int(x) -> bool:
    # bool subclasses int, but true and false are not numbers in these files
    return isinstance(x, int) and not isinstance(x, bool)


def _need(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = doc[key]
    if kind is not None and not (_is_int(val) if kind is int
                                 else isinstance(val, kind)):
        raise SchemaError(
            f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


@contextmanager
def _built(where: str):
    """Constructor errors on loaded data, bar AxiomError, become SchemaError."""
    try:
        yield
    except (AxiomError, SchemaError):
        raise
    except (ValueError, ColorrepError) as e:
        raise SchemaError(f"{where}: {e}") from None


def _check_schema(doc: dict, expected: str, where: str) -> None:
    tag = _need(doc, "schema", str, where)
    if tag != expected:
        raise SchemaError(f"{where}.schema: expected {expected!r}, got {tag!r}")


def _degree_to_json(deg: Degree) -> list:
    return [int(b) for b in deg.bits]


def _degree_from_json(data, rank: int, where: str) -> Degree:
    if not isinstance(data, list) or len(data) != rank:
        raise SchemaError(f"{where}: degree must be a list of {rank} bits")
    if any(isinstance(b, bool) or b not in (0, 1) for b in data):
        raise SchemaError(f"{where}: degree bits must be 0 or 1, got {data}")
    return Degree(tuple(int(b) for b in data))


def _real_from_json(x, where: str) -> float:
    """The one reader of numeric leaves: a finite real number or SchemaError."""
    try:
        val = float(x) if _is_int(x) or isinstance(x, float) else math.nan
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise SchemaError(f"{where}: expected a finite real number, got {x!r}")
    return val


def _complex_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _complex_from_json(data, where: str) -> complex:
    if not isinstance(data, list) or len(data) != 2:
        raise SchemaError(f"{where}: expected a [re, im] pair")
    return complex(_real_from_json(data[0], where),
                   _real_from_json(data[1], where))


def _matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[_complex_to_json(z) for z in row] for row in m]


def _matrix_from_json(data, where: str, real: bool = False) -> np.ndarray:
    """A rectangular matrix of [re, im] pairs, or of real numbers if ``real``."""
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a non-empty matrix")
    entry = _real_from_json if real else _complex_from_json
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise SchemaError(f"{where}[{i}]: expected a list")
        if rows and len(row) != len(rows[0]):
            raise SchemaError(f"{where}[{i}]: ragged row of length {len(row)}")
        rows.append([entry(z, f"{where}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=float if real else complex)


def _real_matrix_to_json(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _vector_to_json(v: np.ndarray) -> list:
    return [_complex_to_json(z) for z in np.asarray(v, dtype=complex)]


def _vector_from_json(data, where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list")
    return np.array([_complex_from_json(z, f"{where}[{i}]")
                     for i, z in enumerate(data)], dtype=complex)


# ------------------------------------------------------------------ algebras

def algebra_to_doc(l: ColorLieAlgebra) -> dict:
    t = l.triples
    triples = [list(x) for x in zip(t.i.tolist(), t.j.tolist(), t.k.tolist(),
                                    t.c.tolist())]
    return {
        "schema": ALGEBRA_SCHEMA,
        "rank": l.rank,
        "labels": list(l.labels),
        "degrees": [_degree_to_json(d) for d in l.degrees],
        "structure": triples,
    }


def algebra_from_doc(doc: dict, validate: bool = True) -> ColorLieAlgebra:
    _check_schema(doc, ALGEBRA_SCHEMA, "algebra")
    rank = _need(doc, "rank", int, "algebra")
    if rank < 1:
        raise SchemaError("algebra.rank: must be at least 1")
    labels = _need(doc, "labels", list, "algebra")
    raw_degs = _need(doc, "degrees", list, "algebra")
    if len(labels) != len(raw_degs):
        raise SchemaError("algebra.degrees: length differs from labels")
    degrees = [_degree_from_json(d, rank, f"algebra.degrees[{i}]")
               for i, d in enumerate(raw_degs)]
    dim = len(labels)
    structure = {}
    for t, triple in enumerate(_need(doc, "structure", list, "algebra")):
        where = f"algebra.structure[{t}]"
        if not isinstance(triple, list) or len(triple) != 4:
            raise SchemaError(f"{where}: expected [i, j, k, coefficient]")
        i, j, k, c = triple
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_int(idx) or not 0 <= idx < dim:
                raise SchemaError(f"{where}.{name}: index {idx} out of range")
        structure[i, j, k] = _real_from_json(c, f"{where}.coefficient")
    with _built("algebra"):
        return ColorLieAlgebra(rank, labels, degrees, structure,
                               validate=validate)


def _write_doc(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_algebra(path, l: ColorLieAlgebra) -> None:
    _write_doc(path, algebra_to_doc(l))


def load_algebra(path, validate: bool = True) -> ColorLieAlgebra:
    return algebra_from_doc(_read_doc(path), validate=validate)


def _read_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors
        raise SchemaError(f"{path}: not valid JSON ({e})") from None


# ------------------------------------------------------------- representations

def _space_to_doc(space: GradedSpace) -> list:
    return [[_degree_to_json(d), space.dims[d]] for d in space.degrees]


def _space_from_doc(data, rank: int, where: str, gram: dict) -> GradedSpace:
    # sized against the Gram blocks first, so no bogus size gets allocated
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a non-empty list of [degree, dim]")
    dims = {}
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}[{i}]: expected [degree, dim]")
        deg = _degree_from_json(pair[0], rank, f"{where}[{i}]")
        if not _is_int(pair[1]) or pair[1] < 1:
            raise SchemaError(f"{where}[{i}]: dimension must be a positive int")
        block = gram.get(deg)
        if block is None or block.shape != (pair[1], pair[1]):
            raise SchemaError(f"{where}[{i}]: dimension does not match the "
                              f"Gram block of degree {deg}")
        dims[deg] = pair[1]
    return GradedSpace(rank, dims)


def rep_to_doc(r, cyclic=None) -> dict:
    """Document for a full or partial representation.

    Missing operators of a partial representation serialize as null in the
    rho array; the cyclic vector is optional extra data.
    """
    l = r.algebra
    space = r.inner.space
    rho = []
    for i in range(l.dim):
        if r.defined(i):
            rho.append(_matrix_to_json(r.rho_matrix(i)))
        else:
            rho.append(None)
    gens = []
    for g in r.pair.extra_generators:
        gens.append({
            "label": g.label,
            "ad": _real_matrix_to_json(g.ad),
            "pi": None if g.pi is None else _matrix_to_json(g.pi),
        })
    doc = {
        "schema": REP_SCHEMA,
        "rank": l.rank,
        "algebra": algebra_to_doc(l),
        "space": _space_to_doc(space),
        "gram": [[_degree_to_json(d), _matrix_to_json(r.inner.gram[d])]
                 for d in space.degrees],
        "rho": rho,
        "generators": gens,
    }
    if cyclic is not None:
        doc["cyclic"] = _vector_to_json(cyclic)
    return doc


def rep_from_doc(doc: dict, validate_algebra: bool = True):
    """Rebuild a representation file.

    Returns (rep, cyclic) where rep is a UnitaryRep, or a PartialRep when
    some rho entries are null, and cyclic is the stored vector or None.
    """
    _check_schema(doc, REP_SCHEMA, "rep")
    rank = _need(doc, "rank", int, "rep")
    l = algebra_from_doc(_need(doc, "algebra", dict, "rep"),
                         validate=validate_algebra)
    if l.rank != rank:
        raise SchemaError("rep.rank: differs from the embedded algebra rank")
    gram = {}
    for i, pair in enumerate(_need(doc, "gram", list, "rep")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"rep.gram[{i}]: expected [degree, matrix]")
        deg = _degree_from_json(pair[0], rank, f"rep.gram[{i}]")
        gram[deg] = _matrix_from_json(pair[1], f"rep.gram[{i}]")
    space = _space_from_doc(_need(doc, "space", list, "rep"), rank,
                            "rep.space", gram)
    with _built("rep.gram"):
        inner = GammaInnerSpace(space, gram)

    raw_rho = _need(doc, "rho", list, "rep")
    if len(raw_rho) != l.dim:
        raise SchemaError(
            f"rep.rho: expected {l.dim} entries, got {len(raw_rho)}")
    rho = {}
    for i, entry in enumerate(raw_rho):
        if entry is None:
            continue
        mat = _matrix_from_json(entry, f"rep.rho[{i}]")
        with _built(f"rep.rho[{i}]"):   # off-pattern entries must be exact zeros
            rho[i] = HomogeneousMap.from_dense(space, space, l.degrees[i], mat,
                                               rtol=0.0)

    gens = []
    for i, g in enumerate(_need(doc, "generators", list, "rep")):
        where = f"rep.generators[{i}]"
        label = _need(g, "label", str, where)
        ad = _matrix_from_json(_need(g, "ad", list, where), f"{where}.ad",
                               real=True)
        pi = g.get("pi")
        if pi is not None:
            pi = _matrix_from_json(pi, f"{where}.pi")
        with _built(where):
            gens.append(GroupElement(label, ad, pi))
    with _built("rep.generators"):
        pair = HCPair(l, gens, validate=False)

    cyclic = None
    if doc.get("cyclic") is not None:
        cyclic = _vector_from_json(doc["cyclic"], "rep.cyclic")
        if cyclic.shape != (space.total_dim,):
            raise SchemaError("rep.cyclic: length does not match the space")

    with _built("rep.rho"):
        if len(rho) == l.dim:
            rep = UnitaryRep(pair, inner, [rho[i] for i in range(l.dim)])
        else:
            rep = PartialRep(pair, inner, rho)
    return rep, cyclic


def save_rep(path, r, cyclic=None) -> None:
    _write_doc(path, rep_to_doc(r, cyclic=cyclic))


def load_rep(path, validate_algebra: bool = True):
    """Load a representation file; returns (rep, cyclic or None)."""
    return rep_from_doc(_read_doc(path), validate_algebra=validate_algebra)


# ------------------------------------------------------------------- tables

def table_to_doc(psi: PDFunction) -> dict:
    if psi.table is None:
        raise ValueError("only table-backed functions can be saved")
    return {
        "schema": TABLE_SCHEMA,
        "rank": psi.algebra.rank,
        "algebra": algebra_to_doc(psi.algebra),
        "values": [[list(w), _complex_to_json(c)]
                   for w, c in sorted(psi.table.items())],
    }


def table_from_doc(doc: dict, validate_algebra: bool = True) -> PDFunction:
    _check_schema(doc, TABLE_SCHEMA, "table")
    rank = _need(doc, "rank", int, "table")
    l = algebra_from_doc(_need(doc, "algebra", dict, "table"),
                         validate=validate_algebra)
    if l.rank != rank:
        raise SchemaError("table.rank: differs from the embedded algebra rank")
    values = {}
    for i, pair in enumerate(_need(doc, "values", list, "table")):
        where = f"table.values[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}: expected [word, value]")
        word, val = pair
        if (not isinstance(word, list)
                or any(not _is_int(x) or not 0 <= x < l.dim
                       for x in word)):
            raise SchemaError(f"{where}: word indices out of range")
        values[tuple(word)] = _complex_from_json(val, where)
    with _built("table.values"):
        return PDFunction.from_table(l, values)


def save_table(path, psi: PDFunction) -> None:
    _write_doc(path, table_to_doc(psi))


def load_table(path, validate_algebra: bool = True) -> PDFunction:
    return table_from_doc(_read_doc(path), validate_algebra=validate_algebra)
