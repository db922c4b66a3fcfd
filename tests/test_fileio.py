import json
import math

import numpy as np
import pytest

from helpers import dense_constants, spoiled_clifford

from colorrep import fileio
from colorrep.colorlie import check_axioms
from colorrep.errors import AxiomError, SchemaError
from colorrep.fileio import (algebra_from_doc, algebra_to_doc, load_algebra,
                             load_rep, load_table, rep_from_doc, rep_to_doc,
                             save_algebra, save_rep, save_table, table_from_doc,
                             table_to_doc)
from colorrep.generators import (clifford_algebra, clifford_parity_generator,
                                 clifford_rep, counterexample_algebra, glV,
                                 random_color_algebra, skew_matrix_algebra)
from colorrep.gns import PDFunction
from colorrep.grading import Degree, all_degrees
from colorrep.hcpair import HCPair
from colorrep.reps import (PartialRep, UnitaryRep, check_pre_rep,
                           check_unitary_rep, restrict)
from colorrep.spaces import GradedSpace


def small_glv():
    return glV(GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1}))


def four_line_space():
    return GradedSpace(2, {d: 1 for d in all_degrees(2)})


# ----------------------------------------------------------------- algebras

def test_algebra_roundtrip(tmp_path):
    l = small_glv()
    path = tmp_path / "a.json"
    save_algebra(path, l)
    back = load_algebra(path)
    assert back.labels == l.labels
    assert back.degrees == l.degrees
    assert np.allclose(dense_constants(back), dense_constants(l))
    assert check_axioms(back).passed


def test_random_algebra_roundtrip(tmp_path):
    l = random_color_algebra(2, seed=3)
    path = tmp_path / "a.json"
    save_algebra(path, l)
    back = load_algebra(path)
    assert np.allclose(dense_constants(back), dense_constants(l))


def test_counterexample_roundtrip(tmp_path):
    path = tmp_path / "cx.json"
    save_algebra(path, counterexample_algebra())
    back = load_algebra(path)
    assert back.dim == 1
    assert back.degrees[0] == Degree((1, 1))


def test_algebra_doc_is_sparse():
    doc = algebra_to_doc(small_glv())
    total = doc["rank"] and len(doc["labels"]) ** 3
    assert len(doc["structure"]) < total
    for i, j, k, c in doc["structure"]:
        assert isinstance(c, float)


@pytest.mark.parametrize("seed", range(4))
def test_algebra_doc_lists_the_nonzero_constants_in_index_order(seed):
    l = random_color_algebra(2, seed)
    c = dense_constants(l)
    want = [[int(i), int(j), int(k), float(c[i, j, k])] for i, j, k in zip(*np.nonzero(c))]
    got = algebra_to_doc(l)["structure"]
    assert json.dumps(got) == json.dumps(want)
    assert all(type(x) is int for t in got for x in t[:3])


def test_bad_schema_tag():
    with pytest.raises(SchemaError, match="algebra.schema"):
        algebra_from_doc({"schema": "mystery/9"})


def test_malformed_degree_length():
    doc = algebra_to_doc(small_glv())
    doc["degrees"][1] = [0, 1, 1]
    with pytest.raises(SchemaError, match=r"degrees\[1\]"):
        algebra_from_doc(doc)


def test_degree_bits_checked():
    doc = algebra_to_doc(small_glv())
    doc["degrees"][0] = [2]
    with pytest.raises(SchemaError, match="0 or 1"):
        algebra_from_doc(doc)


def test_structure_index_out_of_range():
    doc = algebra_to_doc(small_glv())
    doc["structure"][0][1] = 40
    with pytest.raises(SchemaError, match=r"structure\[0\].j"):
        algebra_from_doc(doc)


def test_loaded_constants_keep_the_last_value_and_drop_listed_zeros(monkeypatch):
    doc = algebra_to_doc(clifford_algebra())
    doc["structure"] = [
        [1, 1, 0, 5.0], [1, 1, 0, 1.0],   # a repeated (i, j, k): the last value wins
        [0, 1, 1, 0.0],                   # a listed 0: no triple
    ]
    l = algebra_from_doc(doc, validate=False)
    t = l.triples
    assert list(zip(t.i.tolist(), t.j.tolist(), t.k.tolist())) == [(1, 1, 0)]
    assert t.c.tolist() == [1.0]
    # the number reader refuses NaN; let it through to see that the
    # constructor's refusal of it is a schema error too
    monkeypatch.setattr(fileio, "_real_from_json", lambda x, where: float(x))
    doc["structure"].append([0, 0, 0, math.nan])
    with pytest.raises(SchemaError, match=r"^algebra: structure constant \(0, 0, 0\) is nan"):
        algebra_from_doc(doc, validate=False)


def test_structure_triple_shape():
    doc = algebra_to_doc(small_glv())
    doc["structure"].append([0, 0])
    with pytest.raises(SchemaError, match="coefficient"):
        algebra_from_doc(doc)


def test_axiom_violation_fails_loudly(tmp_path):
    doc = algebra_to_doc(small_glv())
    doc["structure"][0][3] = 7.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AxiomError):
        load_algebra(path)
    # the escape hatch loads it anyway, and the checker reports the damage
    back = load_algebra(path, validate=False)
    assert not check_axioms(back).passed


def test_unreadable_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_algebra(path)


# ----------------------------------------------------------- representations

def test_rep_roundtrip(tmp_path):
    r = clifford_rep(1)
    path = tmp_path / "r.json"
    save_rep(path, r)
    back, cyclic = load_rep(path)
    assert isinstance(back, UnitaryRep)
    assert cyclic is None
    for i in range(r.algebra.dim):
        assert np.allclose(back.rho_matrix(i), r.rho_matrix(i))
    assert check_unitary_rep(back).passed


def parity_rep():
    base = clifford_rep(1)
    gen = clifford_parity_generator(1)
    return UnitaryRep(HCPair(base.algebra, [gen]), base.inner, base.rho)


def test_rep_roundtrip_with_generator(tmp_path):
    r = parity_rep()
    path = tmp_path / "r.json"
    save_rep(path, r)
    back, _ = load_rep(path)
    labels = [g.label for g in back.pair.extra_generators]
    assert labels == [g.label for g in r.pair.extra_generators]
    orig = r.pair.extra_generators[0]
    loaded = back.pair.extra_generators[0]
    assert np.allclose(loaded.ad, orig.ad)
    assert np.allclose(loaded.pi, orig.pi)
    assert check_unitary_rep(back).passed


def test_partial_rep_roundtrip(tmp_path):
    _, r = skew_matrix_algebra(four_line_space())
    p = restrict(r)
    path = tmp_path / "p.json"
    save_rep(path, p)
    back, _ = load_rep(path)
    assert isinstance(back, PartialRep)
    assert [back.defined(i) for i in range(p.algebra.dim)] \
        == [p.defined(i) for i in range(p.algebra.dim)]
    assert check_pre_rep(back).passed


def test_cyclic_vector_stored(tmp_path):
    r = clifford_rep(1)
    v = np.array([0.5, 0.0], dtype=complex)
    path = tmp_path / "r.json"
    save_rep(path, r, cyclic=v)
    _, back = load_rep(path)
    assert np.allclose(back, v)


def test_rep_rank_mismatch():
    doc = rep_to_doc(clifford_rep(1))
    doc["rank"] = 2
    with pytest.raises(SchemaError, match="rep.rank"):
        rep_from_doc(doc)


def test_rep_rho_count_checked():
    doc = rep_to_doc(clifford_rep(1))
    doc["rho"].append(None)
    with pytest.raises(SchemaError, match="rep.rho"):
        rep_from_doc(doc)


def test_rep_rho_shape_checked():
    doc = rep_to_doc(clifford_rep(1))
    doc["rho"][0] = [[[1.0, 0.0]]]
    with pytest.raises(SchemaError, match=r"rho\[0\]"):
        rep_from_doc(doc)


def test_ragged_matrix_rejected():
    doc = rep_to_doc(clifford_rep(1))
    doc["rho"][0][1] = [[0.0, 0.0]]
    with pytest.raises(SchemaError, match="ragged"):
        rep_from_doc(doc)


def test_bad_complex_pair():
    doc = rep_to_doc(clifford_rep(1))
    doc["rho"][0][0][0] = [1.0]
    with pytest.raises(SchemaError, match=r"\[re, im\]"):
        rep_from_doc(doc)


def test_cyclic_length_checked():
    doc = rep_to_doc(clifford_rep(1), cyclic=np.array([1.0, 0.0]))
    doc["cyclic"].append([0.0, 0.0])
    with pytest.raises(SchemaError, match="rep.cyclic"):
        rep_from_doc(doc)


def test_rep_files_stay_real_where_possible(tmp_path):
    # ad matrices serialize as plain numbers, not [re, im] pairs
    doc = rep_to_doc(parity_rep())
    ad = doc["generators"][0]["ad"]
    assert all(isinstance(x, float) for row in ad for x in row)


# ------------------------------------------------------------------- tables

def test_table_roundtrip(tmp_path):
    l = small_glv()
    psi = PDFunction.from_table(l, {(): 1.5, (0, 2): -2.0j})
    path = tmp_path / "t.json"
    save_table(path, psi)
    back = load_table(path)
    assert back.table == psi.table
    assert back.table[(0, 2)] == pytest.approx(-2.0j)


def test_table_rejects_rep_backed():
    r = clifford_rep(1)
    psi = PDFunction.from_rep(r, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="table-backed"):
        table_to_doc(psi)


def test_table_word_indices_checked():
    l = small_glv()
    doc = table_to_doc(PDFunction.from_table(l, {(): 1.0}))
    doc["values"].append([[99], [0.0, 0.0]])
    with pytest.raises(SchemaError, match="out of range"):
        from colorrep.fileio import table_from_doc
        table_from_doc(doc)


def test_table_requires_normal_words():
    l = small_glv()
    doc = table_to_doc(PDFunction.from_table(l, {(): 1.0}))
    doc["values"].append([[2, 0], [1.0, 0.0]])
    from colorrep.fileio import table_from_doc
    with pytest.raises(SchemaError, match="normal"):
        table_from_doc(doc)


# ------------------------------------------------------------- file layout

def _saved_docs():
    """(saver, object, its document, the document of what a load gives back)
    for each kind of data file."""
    rep = skew_matrix_algebra(four_line_space())[1]
    cyclic = np.array([1.0, 0.5j, 0.0, 0.0])
    table = PDFunction.from_table(small_glv(), {(): 1.5, (0,): 0.25j, (0, 2): -2.0j})

    def reloaded_rep(path):
        return rep_to_doc(*load_rep(path))

    return [
        (save_algebra, rep.algebra, algebra_to_doc(rep.algebra),
         lambda p: algebra_to_doc(load_algebra(p))),
        (save_rep, parity_rep(), rep_to_doc(parity_rep()), reloaded_rep),
        (lambda p, r: save_rep(p, r, cyclic=cyclic), rep,
         rep_to_doc(rep, cyclic=cyclic), reloaded_rep),
        (save_rep, restrict(rep), rep_to_doc(restrict(rep)), reloaded_rep),
        (save_table, table, table_to_doc(table),
         lambda p: table_to_doc(load_table(p))),
    ]


def test_data_files_round_trip_to_equal_documents(tmp_path):
    path = tmp_path / "doc.json"
    for save, obj, doc, reloaded in _saved_docs():
        save(path, obj)
        assert json.loads(path.read_text(encoding="utf-8")) == doc
        assert reloaded(path) == doc


def test_data_files_take_one_line_per_field_and_per_list_element(tmp_path):
    path = tmp_path / "doc.json"
    for save, obj, doc, _ in _saved_docs():
        save(path, obj)
        expected = ["{"]
        for n, (key, val) in enumerate(doc.items()):
            comma = "," if n < len(doc) - 1 else ""
            if isinstance(val, list) and val:
                expected.append(f" {json.dumps(key)}: [")
                expected += [f"  {json.dumps(x)}" + ("," if m < len(val) - 1 else "")
                             for m, x in enumerate(val)]
                expected.append(" ]" + comma)
            else:
                expected.append(f" {json.dumps(key)}: {json.dumps(val)}" + comma)
        assert path.read_text(encoding="utf-8").split("\n") == expected + ["}", ""]


def test_files_in_the_indent_one_layout_still_load(tmp_path):
    path = tmp_path / "doc.json"
    for _, _, doc, reloaded in _saved_docs():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        assert reloaded(path) == doc


def test_a_nan_is_written_as_nan_and_refused_on_load(tmp_path):
    path = tmp_path / "nan.json"
    save_rep(path, spoiled_clifford(np.nan))
    assert "[NaN, 0.0]" in path.read_text(encoding="utf-8")
    with pytest.raises(SchemaError, match=r"rep.rho\[1\]\[1\]\[0\]: expected a finite real number, got nan"):
        load_rep(path)


# ------------------------------------------------------------ schema files

def test_shipped_schemas_accept_generated_docs():
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    from pathlib import Path
    sdir = Path(__file__).resolve().parents[1] / "schemas"
    schemas = {p.name: json.loads(p.read_text())
               for p in sdir.glob("*.schema.json")}
    registry = referencing.Registry().with_resources(
        (name, referencing.Resource.from_contents(doc))
        for name, doc in schemas.items())

    def assert_valid(schema_name, doc):
        v = jsonschema.Draft202012Validator(
            schemas[schema_name], registry=registry)
        errs = list(v.iter_errors(doc))
        assert not errs, errs[0]

    assert_valid("color-lie-algebra-1.schema.json", algebra_to_doc(small_glv()))
    r = clifford_rep(1)
    assert_valid("unitary-rep-1.schema.json",
                 rep_to_doc(r, cyclic=np.array([1.0, 0.0])))
    _, r4 = skew_matrix_algebra(four_line_space())
    assert_valid("unitary-rep-1.schema.json", rep_to_doc(restrict(r4)))
    assert_valid("pd-table-1.schema.json",
                 table_to_doc(PDFunction.from_table(small_glv(), {(): 1.0})))


# ------------------------------------------------------------ finite numbers

def _valid_doc(kind):
    if kind == "algebra":
        return algebra_from_doc, algebra_to_doc(small_glv())
    if kind == "table":
        psi = PDFunction.from_table(small_glv(), {(): 1.0})
        return table_from_doc, table_to_doc(psi)
    return rep_from_doc, rep_to_doc(parity_rep(), cyclic=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 10 ** 400, "1.0"],
                         ids=["nan", "inf", "-inf", "huge-int", "string"])
@pytest.mark.parametrize("kind, path, where", [
    ("algebra", ("structure", 0, 3), r"algebra.structure\[0\].coefficient"),
    ("rep", ("gram", 0, 1, 0, 0, 1), r"rep.gram\[0\]\[0\]\[0\]"),
    ("rep", ("generators", 0, "ad", 1, 0), r"rep.generators\[0\].ad\[1\]\[0\]"),
    ("rep", ("generators", 0, "pi", 0, 1, 0), r"rep.generators\[0\].pi\[0\]\[1\]"),
    ("rep", ("cyclic", 1, 0), r"rep.cyclic\[1\]"),
    ("table", ("values", 0, 1, 0), r"table.values\[0\]"),
], ids=["coefficient", "gram", "ad", "pi", "cyclic", "table-value"])
def test_numeric_fields_must_be_finite_reals(kind, path, where, bad):
    load, doc = _valid_doc(kind)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(SchemaError, match=where):
        load(doc)
