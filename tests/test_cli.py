import argparse
import filecmp
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (cut_four_lines_table, four_lines_values, moment_table,
                     spoiled_clifford)

import colorrep
from colorrep import cli, gns, reps
from colorrep.cli import _render, main
from colorrep.fileio import load_algebra, load_rep, save_rep, save_table
from colorrep.generators import clifford_algebra, counterexample_prerep
from colorrep.gns import PDFunction, _WordOperators, normal_words
from colorrep.report import Report
from colorrep.reps import PartialRep, UnitaryRep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def cliff_file(tmp_path, capsys):
    path = tmp_path / "cliff.json"
    assert main(["generate", "clifford-n1", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


# ------------------------------------------------------------------ checks

def test_check_grading_exhaustive(capsys):
    code, out, _ = run(capsys, "check-grading", "--n", "3")
    assert code == 0
    assert "0 violations" in out


def test_check_grading_bad_rank(capsys):
    code, _, err = run(capsys, "check-grading", "--n", "0")
    assert code == 2
    assert "at least 1" in err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_generate_glv_sixteen_elements(tmp_path, capsys):
    path = tmp_path / "gl.json"
    code, _, _ = run(capsys, "generate", "glV", "-o", str(path),
                     "--n", "2", "--dims", "1,1,1,1")
    assert code == 0
    assert load_algebra(path).dim == 16
    assert main(["check-algebra", str(path)]) == 0


def test_generate_glv_needs_dims(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "glV",
                       "-o", str(tmp_path / "x.json"), "--n", "2")
    assert code == 2
    assert "--dims" in err


def test_generate_glv_dims_count(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "glV",
                       "-o", str(tmp_path / "x.json"), "--n", "2",
                       "--dims", "1,1")
    assert code == 2
    assert "4 entries" in err


def test_generate_unknown_name(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "wat",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown example" in err


def test_generated_files_pass_their_checkers(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    rr = tmp_path / "rr.json"
    assert main(["generate", "counterexample-n2", "-o", str(cx)]) == 0
    assert main(["generate", "random-rep", "-o", str(rr), "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["check-algebra", str(cx)]) == 0
    assert main(["check-rep", str(rr)]) == 0
    assert main(["check-rep", cliff_file(tmp_path, capsys)]) == 0


def test_random_rep_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert main(["generate", "random-rep", "-o", str(path),
                     "--seed", seed]) == 0
    capsys.readouterr()
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)


def test_counterexample_fails_perfectness(tmp_path, capsys):
    path = tmp_path / "cx.json"
    assert main(["generate", "counterexample-n2", "-o", str(path)]) == 0
    code, out, _ = run(capsys, "check-perfect", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command, check", [("check-algebra", "jacobi"),
                                            ("check-perfect", "no-even-sectors")])
def test_an_algebra_without_basis_elements_passes_vacuously(tmp_path, capsys, command, check):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": "color-lie-algebra/1", "rank": 1, "labels": [],
                                "degrees": [], "structure": []}))
    code, doc, _ = run_json(capsys, command, str(path))
    assert code == 0
    assert doc["passed"]
    assert check in [c["name"] for c in doc["checks"]]


def test_stability_extend_counterexample_cites_hypothesis(tmp_path, capsys):
    path = tmp_path / "pre.json"
    save_rep(path, counterexample_prerep())
    code, out, _ = run(capsys, "stability-extend", str(path))
    assert code == 1
    assert "hypothesis" in out


def partial_file(tmp_path):
    # the four-line algebra has a sector the extension must reconstruct
    from colorrep.generators import skew_matrix_algebra
    from colorrep.grading import all_degrees
    from colorrep.reps import restrict
    from colorrep.spaces import GradedSpace
    space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
    _, rep = skew_matrix_algebra(space)
    pre = tmp_path / "pre.json"
    save_rep(pre, restrict(rep))
    return str(pre), rep


def test_stability_extend_writes_full_rep(tmp_path, capsys):
    pre, rep = partial_file(tmp_path)
    loaded, _ = load_rep(pre)
    assert isinstance(loaded, PartialRep)
    out_path = tmp_path / "full.json"
    code, out, _ = run(capsys, "stability-extend", pre, "-o", str(out_path))
    assert code == 0
    back, _ = load_rep(out_path)
    assert isinstance(back, UnitaryRep)
    assert main(["check-rep", str(out_path)]) == 0


def test_stability_extend_reports_the_extensions_own_check(tmp_path, capsys,
                                                          monkeypatch):
    pre, _ = partial_file(tmp_path)
    calls = []
    real = reps.check_unitary_rep

    def counted(r, **kw):
        calls.append(kw)
        return real(r, **kw)
    monkeypatch.setattr(reps, "check_unitary_rep", counted)
    monkeypatch.setattr(cli, "check_unitary_rep", counted)
    code, doc, _ = run_json(capsys, "stability-extend", pre)
    assert code == 0
    # one check of the extended rep, the extension's own at its tolerance
    assert calls == [{"tol": 1e-8}]
    bracket = [c for c in doc["checks"]
               if c["name"] == "extended rep: bracket property"]
    assert bracket and bracket[0]["tolerance"] == 1e-8
    calls.clear()
    code, doc, _ = run_json(capsys, "stability-extend", pre, "--tol", "1e-7")
    assert code == 0 and calls == [{"tol": 1e-7}]


def test_stability_extend_shows_the_failed_pre_rep_check(tmp_path, capsys):
    # the doubled odd operators of the four-line rep fail the pre-rep check
    from colorrep.grading import is_even_like
    pre, _ = partial_file(tmp_path)
    part, _ = load_rep(pre)
    doubled = {i: (t if is_even_like(part.algebra.degrees[i]) else t * 2.0)
               for i, t in part.rho.items()}
    save_rep(pre, PartialRep(part.pair, part.inner, doubled))
    code, doc, _ = run_json(capsys, "stability-extend", pre)
    assert code == 1 and not doc["passed"]
    first, *carried = doc["checks"]
    assert first["name"] == "extension" and not first["passed"]
    assert "pre-representation" in first["detail"]
    assert carried and all(c["name"].startswith("pre-rep: ") for c in carried)
    assert "pre-rep: bracket property on even-plus-one-odd subalgebras" in [
        c["name"] for c in carried if not c["passed"]]


def test_stability_extend_shows_the_failed_final_check(tmp_path, capsys, monkeypatch):
    pre, _ = partial_file(tmp_path)
    calls = []

    def failing(r, **kw):
        calls.append(kw)
        out = Report("unitary representation check")
        out.add("bracket property", False, 1.0, kw["tol"], "worst pair (a, b)")
        return out
    monkeypatch.setattr(reps, "check_unitary_rep", failing)
    code, doc, _ = run_json(capsys, "stability-extend", pre)
    assert code == 1 and calls == [{"tol": 1e-8}]
    assert [(c["name"], c["passed"]) for c in doc["checks"]] == [
        ("extension", False), ("extended rep: bracket property", False)]
    assert "fail the representation axioms" in doc["checks"][0]["detail"]


def test_check_prerep_accepts_partial_file(tmp_path, capsys):
    pre, _ = partial_file(tmp_path)
    assert main(["check-prerep", str(pre)]) == 0
    # but the full checker refuses partial input
    code, _, err = run(capsys, "check-rep", str(pre))
    assert code == 2
    assert "partial" in err


def test_gns_roundtrip_bundled_clifford(tmp_path, capsys):
    code, doc, _ = run_json(capsys, "gns-roundtrip",
                            "--rep", cliff_file(tmp_path, capsys))
    assert code == 0
    assert doc["schema"] == "report/1"
    eq = [c for c in doc["checks"] if c["name"] == "unitary equivalence"]
    assert eq and eq[0]["residual"] < 1e-6


def test_gns_roundtrip_vector_override(tmp_path, capsys):
    cliff = cliff_file(tmp_path, capsys)
    assert main(["gns-roundtrip", "--rep", cliff, "--vector", "2,0"]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "gns-roundtrip", "--rep", cliff,
                       "--vector", "1,0,0")
    assert code == 2
    assert "length 3" in err
    code, _, err = run(capsys, "gns-roundtrip", "--rep", cliff,
                       "--vector", "1,zap")
    assert code == 2
    assert "parse" in err


def test_gns_construct_writes_valid_rep(tmp_path, capsys):
    out_path = tmp_path / "rebuilt.json"
    code, doc, _ = run_json(capsys, "gns-construct",
                            "--rep", cliff_file(tmp_path, capsys),
                            "-o", str(out_path))
    assert code == 0
    assert doc["context"]["level_used"] == 1
    assert main(["check-rep", str(out_path)]) == 0
    back, cyclic = load_rep(out_path)
    assert back.space_dim == 2
    assert cyclic is not None


def test_table_route(tmp_path, capsys):
    l = clifford_algebra()
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    save_table(good, PDFunction.from_table(l, {(): 1.0}))
    save_table(bad, PDFunction.from_table(l, {(): 1.0, (1,): 0.5}))
    assert main(["check-pd", "--table", str(good)]) == 0
    assert main(["check-pd", "--table", str(bad)]) == 1
    assert main(["gns-construct", "--table", str(good)]) == 0
    assert main(["gns-construct", "--table", str(bad)]) == 1
    capsys.readouterr()
    code, _, err = run(capsys, "gns-roundtrip", "--table", str(good))
    assert code == 2
    assert "--rep" in err



def test_table_construction_reports_its_operator_size(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).resolve().parents[1] / "schemas"
                         / "report-1.schema.json").read_text())
    psi = PDFunction.from_table(*four_lines_values())
    path = tmp_path / "table.json"
    save_table(path, psi)
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(path))
    assert code == 0
    jsonschema.Draft202012Validator(schema).validate(doc)
    ops = _WordOperators(psi)
    ops.grow(doc["context"]["level_used"] + 1)
    assert doc["context"]["words"] == len(ops.words) == 3649
    assert doc["context"]["operator_entries"] == ops.entries
    code, doc, _ = run_json(capsys, "gns-construct",
                            "--rep", cliff_file(tmp_path, capsys))
    assert code == 0
    assert "words" not in doc["context"]
    assert "operator_entries" not in doc["context"]


def test_rep_construction_reports_its_word_columns(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).resolve().parents[1] / "schemas"
                         / "report-1.schema.json").read_text())
    path = cliff_file(tmp_path, capsys)
    code, doc, _ = run_json(capsys, "gns-construct", "--rep", path)
    assert code == 0
    jsonschema.Draft202012Validator(schema).validate(doc)
    # every normal word up to the certificate's level, the empty one included
    rep, _ = load_rep(path)
    level = doc["context"]["level_used"] + 1
    assert doc["context"]["columns"] == len(normal_words(rep.algebra, level))
    psi = PDFunction.from_table(*four_lines_values())
    table = tmp_path / "table.json"
    save_table(table, psi)
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(table))
    assert code == 0
    assert "columns" not in doc["context"]


def test_a_level_cap_of_zero_says_no_second_level_confirms_the_rank(tmp_path, capsys):
    # level 0 alone sees no growth; the rank is unconfirmed, not growing
    table = tmp_path / "table.json"
    save_table(table, PDFunction.from_table(*four_lines_values()))
    want = ("a level cap of 0 samples level 0 only (rank 1), which leaves no "
            "second level to confirm the rank")
    for argv in (["gns-roundtrip", "--rep", cliff_file(tmp_path, capsys)],
                 ["gns-construct", "--table", str(table)]):
        code, doc, _ = run_json(capsys, *argv, "--level-cap", "0")
        assert code == 1
        check = next(c for c in doc["checks"] if c["name"] == "reconstruction")
        assert (check["passed"], check["detail"]) == (False, want)


def test_a_table_over_the_word_budget_fails_reconstruction(
        tmp_path, capsys, monkeypatch):
    # the moment table's rank grows by one per level; a budget of 6 words
    # stands in for a level of millions and refuses level 3
    monkeypatch.setattr(gns, "_WORD_BUDGET", 6)
    path = tmp_path / "moments.json"
    save_table(path, moment_table())
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(path))
    assert code == 1
    assert [(c["name"], c["passed"]) for c in doc["checks"]] == [
        ("reconstruction", False)]
    assert doc["checks"][0]["detail"].startswith(
        "level 3 needs the 7 normal words")
    assert doc["context"]["rank_history"] == [1, 2, 3]


def test_a_table_refused_as_not_positive_shows_its_certificate(tmp_path, capsys):
    # cut at length 3, the level-2 Gram reads zeros for the words of length
    # 4; the refusal lists the certificate's checks after the reconstruction
    path = tmp_path / "cut.json"
    save_table(path, cut_four_lines_table())
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(path))
    assert code == 1
    checks = [(c["name"], c["passed"]) for c in doc["checks"]]
    assert checks[0] == ("reconstruction", False)
    assert doc["checks"][0]["detail"].startswith(
        "the function fails positive definiteness on the sample set")
    assert ("pd: gram positive semidefinite", False) in checks
    assert [name for name, _ in checks[1:]] == [
        "pd: support condition", "pd: gram hermitian",
        "pd: gram positive semidefinite"]


def test_gns_construct_reports_the_rank_at_each_level(tmp_path, capsys):
    table = tmp_path / "table.json"
    save_table(table, PDFunction.from_table(*four_lines_values()))
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(table))
    assert code == 0
    assert doc["context"]["rank_history"] == [1, 4, 4]
    path = tmp_path / "moments.json"
    save_table(path, moment_table())
    code, doc, _ = run_json(capsys, "gns-construct", "--table", str(path))
    assert code == 1
    assert doc["context"]["rank_history"] == [1, 2, 3, 4, 5, 6, 7]


def test_check_pd_at_a_level_over_the_word_budget_is_input_error(tmp_path, capsys):
    path = tmp_path / "table.json"
    save_table(path, PDFunction.from_table(*four_lines_values()))
    code, out, err = run(capsys, "check-pd", "--table", str(path), "--level", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: --level 4: level 4 needs the 265729 normal words")
    assert "Traceback" not in err


def test_check_pd_on_a_rep_at_a_level_over_the_word_budget_is_input_error(
        tmp_path, capsys, monkeypatch):
    # the rep route refuses the level before it lists a word, as the table
    # route does; a small budget stands in for a level of millions of words
    monkeypatch.setattr(gns, "_WORD_BUDGET", 4)
    cliff = cliff_file(tmp_path, capsys)
    assert run(capsys, "check-pd", "--rep", cliff, "--level", "1")[0] == 0
    code, out, err = run(capsys, "check-pd", "--rep", cliff, "--level", "2")
    assert (code, out) == (2, "")
    assert err == ("error: --level 2: level 2 needs the 5 normal words up to "
                   "length 2, over the budget of 4 words\n")


def test_vanishing_table_is_input_error(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_table(path, PDFunction.from_table(clifford_algebra(), {}))
    code, _, err = run(capsys, "gns-construct", "--table", str(path))
    assert code == 2
    assert "vanishes" in err


def test_pd_source_must_be_unique(tmp_path, capsys):
    code, _, err = run(capsys, "check-pd")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "check-pd", "--table", "a", "--rep", "b")
    assert code == 2


def test_twist_rep_roundtrip(tmp_path, capsys):
    cliff = cliff_file(tmp_path, capsys)
    out_path = tmp_path / "twisted.json"
    assert main(["twist-rep", cliff, "--signs", "-1",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check-rep", str(out_path)]) == 0
    back, _ = load_rep(out_path)
    orig, _ = load_rep(cliff)
    # the odd operator picks up the sign, the even one does not
    assert np.allclose(back.rho_matrix(1), -orig.rho_matrix(1))
    assert np.allclose(back.rho_matrix(0), orig.rho_matrix(0))


def test_twist_rep_sign_count(tmp_path, capsys):
    code, _, err = run(capsys, "twist-rep", cliff_file(tmp_path, capsys),
                       "--signs", "1,-1")
    assert code == 2
    assert "rank" in err


# ------------------------------------------------------------------ errors

def test_missing_file(capsys):
    code, _, err = run(capsys, "check-algebra", "no-such-file.json")
    assert code == 2
    assert "no such file" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "check-rep", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_wrong_document_kind(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    assert main(["generate", "counterexample-n2", "-o", str(cx)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "check-rep", str(cx))
    assert code == 2
    assert "unitary-rep/1" in err


_REP_ARGS = {"check-rep": [], "check-prerep": [], "check-pd": ["--rep"],
             "gns-roundtrip": ["--rep"], "gns-construct": ["--rep"]}


@pytest.mark.parametrize("command", ["check-rep", "check-prerep", "check-pd",
                                     "gns-roundtrip", "gns-construct"])
def test_non_finite_operator_fails_without_traceback(tmp_path, capsys,
                                                     command):
    # clifford-n1 with one NaN entry in its odd operator: the loader rejects
    # the number, naming the field, before any checker runs
    path = tmp_path / "nan.json"
    save_rep(path, spoiled_clifford(np.nan), cyclic=np.array([1.0, 0.0]))
    src = os.path.dirname(os.path.dirname(colorrep.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "colorrep.cli", command, *_REP_ARGS[command],
         str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "rep.rho[1]" in proc.stderr
    # the same for the other non-finite spellings, in process
    text = path.read_text()
    assert "NaN" in text
    for token in ("Infinity", "-Infinity", "1e999", "-1e999"):
        path.write_text(text.replace("NaN", token))
        code, out, err = run(capsys, command, *_REP_ARGS[command], str(path))
        assert (code, out) == (2, ""), token
        assert "rep.rho[1]" in err, token


def test_non_finite_table_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_table(path, PDFunction.from_table(clifford_algebra(), {(): 1.0}))
    doc = json.loads(path.read_text())
    doc["values"][0][1][1] = float("nan")
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-pd", "--table", str(path))
    assert (code, out) == (2, "")
    assert "table.values[0]" in err


def _clifford_doc(tmp_path, capsys):
    with open(cliff_file(tmp_path, capsys), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("spoil, where", [
    (lambda d: d["gram"][0].__setitem__(1, [[[-1.0, 0.0]]]), "rep.gram"),
    (lambda d: d["generators"].append(
        {"label": "g", "ad": [[1.0, 0.0]], "pi": None}), "rep.generators[0]"),
    (lambda d: d["generators"].append(
        {"label": "g", "ad": [[1.0]], "pi": None}), "rep.generators"),
    (lambda d: d["generators"].append(
        {"label": "g", "ad": [[1.0, 0.0], [0.0]], "pi": None}),
     "rep.generators[0].ad[1]"),
    (lambda d: d["rho"].__setitem__(0, None), "rep.rho"),
    (lambda d: d["algebra"].__setitem__("rank", True), "algebra.rank"),
], ids=["gram-not-positive", "ad-not-square", "ad-wrong-size", "ad-ragged",
        "partial-without-degree-zero", "boolean-rank"])
def test_malformed_rep_data_is_input_error(tmp_path, capsys, spoil, where):
    # non-positive Gram, non-square or mis-sized ad, ragged ad, partial data
    # without its degree-zero operator, a boolean where an int belongs
    doc = _clifford_doc(tmp_path, capsys)
    spoil(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-rep", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}")


@pytest.mark.parametrize("command", ["check-rep", "gns-roundtrip"])
def test_off_pattern_operator_entry_is_input_error(tmp_path, capsys, command):
    # an entry outside the operator's degree pattern is refused, not dropped
    path = tmp_path / "rr.json"
    assert main(["generate", "random-rep", "-o", str(path), "--seed", "3"]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["rho"][0][0][1] == [0.0, 0.0]
    doc["rho"][0][0][1] = [0.5, 0.0]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, *_REP_ARGS[command], str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: rep.rho[0]: ")


def test_non_utf8_files_are_input_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "check-rep", str(bad))
    assert (code, out) == (2, "")
    assert "not valid JSON" in err
    monkeypatch.setenv("COLORREP_CONFIG", str(bad))
    code, out, err = run(capsys, "check-grading", "--n", "1")
    assert (code, out) == (2, "")
    assert "config file" in err


def test_json_report_writes_non_finite_numbers_as_null():
    rep = Report("t", context={"gram_norm": float("inf"), "spectrum": [np.nan]})
    rep.add("route", True, float("nan"), 1e-8)

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(_render(rep, "json"), parse_constant=refuse)
    assert doc["passed"] is False
    assert doc["checks"][0]["residual"] is None
    assert doc["checks"][0]["tolerance"] == 1e-8
    assert doc["context"] == {"gram_norm": None, "spectrum": [None]}


def test_axiom_failure_on_load(tmp_path, capsys):
    gl = tmp_path / "gl.json"
    assert main(["generate", "glV", "-o", str(gl),
                 "--n", "2", "--dims", "1,1,1,1"]) == 0
    capsys.readouterr()
    doc = json.loads(gl.read_text())
    doc["structure"][0][3] = 99.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # validating commands refuse the file, check-algebra reports instead
    assert main(["check-perfect", str(bad)]) == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "check-algebra", str(bad))
    assert code == 1
    assert "FAIL" in out


# ------------------------------------------------------------------ config

def test_env_config_sets_format(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    monkeypatch.setenv("COLORREP_CONFIG", str(cfg))
    code, out, _ = run(capsys, "check-grading", "--n", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True
    # an explicit flag wins over the config file
    code, out, _ = run(capsys, "check-grading", "--n", "1",
                       "--format", "text")
    assert out.startswith("==")


def test_env_config_must_parse(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[")
    monkeypatch.setenv("COLORREP_CONFIG", str(cfg))
    code, _, err = run(capsys, "check-grading", "--n", "1")
    assert code == 2
    assert "config file" in err


def _perturbed_file(tmp_path, capsys):
    # clifford-n1 with one in-pattern entry of its odd operator shifted
    doc = _clifford_doc(tmp_path, capsys)
    doc["rho"][1][1][0] = [1.1, 0.0]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_input_error(
        tmp_path, capsys, tol):
    path = _perturbed_file(tmp_path, capsys)
    assert run(capsys, "check-rep", path)[0] == 1
    code, out, err = run(capsys, "check-rep", path, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite number")


def test_a_zero_tolerance_is_accepted(tmp_path, capsys):
    code, doc, _ = run_json(capsys, "check-rep", _perturbed_file(tmp_path, capsys),
                            "--tol", "0")
    assert code == 1
    bracket = [c for c in doc["checks"] if c["name"] == "bracket property"]
    assert bracket and bracket[0]["tolerance"] == 0.0


@pytest.mark.parametrize("argv, where", [
    (["gns-construct", "--level-cap", "-1"], "--level-cap"),
    (["check-pd", "--level", "-1"], "--level"),
])
def test_a_negative_level_is_input_error(tmp_path, capsys, argv, where):
    code, out, err = run(capsys, *argv, "--rep", cliff_file(tmp_path, capsys))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where} must be")


@pytest.mark.parametrize("config, key", [
    ({"tol": "abc"}, "tol"), ({"tol": -1e-9}, "tol"),
    ({"seed": "x"}, "seed"), ({"seed": -1}, "seed"),
    ({"level_cap": 2.5}, "level_cap"), ({"level_cap": "3"}, "level_cap"),
    ({"level_cap": -1}, "level_cap"),
])
def test_a_config_value_of_the_wrong_type_is_input_error(tmp_path, capsys,
                                                        monkeypatch, config, key):
    cliff = cliff_file(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("COLORREP_CONFIG", str(cfg))
    code, out, err = run(capsys, "gns-construct", "--rep", cliff)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {key} must be")


def test_a_null_config_value_counts_as_unset(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": None, "level_cap": None, "seed": None,
                               "format": None}))
    monkeypatch.setenv("COLORREP_CONFIG", str(cfg))
    out = tmp_path / "rr.json"
    assert main(["generate", "random-rep", "-o", str(out)]) == 0
    code, text, _ = run(capsys, "gns-construct", "--rep", str(out))
    assert code == 0 and text.startswith("==")
    # the same file as with no config at all
    monkeypatch.delenv("COLORREP_CONFIG")
    again = tmp_path / "again.json"
    assert main(["generate", "random-rep", "-o", str(again), "--seed", "0"]) == 0
    assert filecmp.cmp(out, again, shallow=False)


def test_reports_deterministic(tmp_path, capsys):
    cliff = cliff_file(tmp_path, capsys)
    _, first, _ = run(capsys, "gns-construct", "--rep", cliff,
                      "--format", "json")
    _, second, _ = run(capsys, "gns-construct", "--rep", cliff,
                       "--format", "json")
    assert first == second


def test_tol_flag_reaches_checker(tmp_path, capsys):
    code, doc, _ = run_json(capsys, "check-rep",
                            cliff_file(tmp_path, capsys), "--tol", "1e-20")
    assert code in (0, 1)
    bracket = [c for c in doc["checks"] if c["name"] == "bracket property"]
    assert bracket and bracket[0]["tolerance"] == 1e-20


def test_tol_flag_reaches_extended_rep_checks(tmp_path, capsys):
    pre, _ = partial_file(tmp_path)
    code, doc, _ = run_json(capsys, "stability-extend", pre, "--tol", "1e-3")
    assert code == 0
    tols = [c["tolerance"] for c in doc["checks"]
            if c["name"].startswith("extended rep: ") and c["tolerance"] is not None]
    assert tols and set(tols) == {1e-3}


# ------------------------------------------------------------------ parser

# the flags each command takes besides --format: only those it reads
COMMAND_FLAGS = {
    "check-grading": {"--n"},
    "check-algebra": {"--tol"},
    "check-perfect": {"--tol", "--skip-validate"},
    "check-rep": {"--tol", "--skip-validate"},
    "check-prerep": {"--tol", "--skip-validate"},
    "stability-extend": {"-o", "--tol", "--skip-validate"},
    "twist-rep": {"--signs", "-o", "--tol", "--skip-validate"},
    "check-pd": {"--table", "--rep", "--vector", "--level", "--tol", "--skip-validate"},
    "gns-construct": {"--table", "--rep", "--vector", "-o", "--level-cap", "--tol",
                      "--skip-validate"},
    "gns-roundtrip": {"--rep", "--vector", "--level-cap", "--tol", "--skip-validate"},
    "generate": {"-o", "--n", "--dims", "--seed"},
}
# arguments each command needs before the parser looks at a removed flag
_REQUIRED = {"check-grading": ["--n", "2"], "twist-rep": ["r.json", "--signs", "1"],
             "check-pd": ["--rep", "r.json"], "gns-construct": ["--rep", "r.json"],
             "gns-roundtrip": ["--rep", "r.json"], "generate": ["clifford-n1", "-o", "f.json"]}
# every command took these four and --format before each declared its own flags
_ONCE_COMMON = {"--tol", "--level-cap", "--seed", "--skip-validate"}


def parser_flags():
    """Each subcommand's flags, by the first option string of each."""
    subs = next(a for a in cli._parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0] for a in sub._actions
                   if a.option_strings and a.dest != "help"}
            for name, sub in subs.choices.items()}


def _removed():
    out = [(name, flag) for name in COMMAND_FLAGS
           for flag in sorted(_ONCE_COMMON - COMMAND_FLAGS[name])]
    return out + [("gns-roundtrip", "--table")]


@pytest.mark.parametrize("name", sorted(COMMAND_FLAGS))
def test_each_command_declares_only_the_flags_it_reads(name):
    assert parser_flags()[name] == COMMAND_FLAGS[name] | {"--format"}


def test_the_parser_has_no_command_without_a_flag_row():
    assert set(parser_flags()) == set(COMMAND_FLAGS)
    # 73 flags when every command took the once-common ones, 48 now
    assert len(_removed()) == 25


@pytest.mark.parametrize("name, flag", _removed(), ids=" ".join)
def test_a_removed_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, name, flag):
    # e.g. check-grading --n 2 --seed 1 or generate clifford-n1 -o f.json --tol 1
    monkeypatch.chdir(tmp_path)
    extra = [flag] if flag == "--skip-validate" else [flag, "1"]
    code, out, err = run(capsys, name, *_REQUIRED.get(name, ["in.json"]), *extra)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(extra)}" in err
    assert list(tmp_path.iterdir()) == []


def readme_flag_table():
    """The README's table of the flags each command takes besides --format."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = row.strip("|").split("|")
        if row.startswith("| `") and len(cells) == 2:
            for name in re.findall(r"`([^`]+)`", cells[0]):
                table[name] = set(re.findall(r"`(-[^`]+)`", cells[1]))
    return table


def test_the_readme_flag_table_matches_the_parser():
    flags = parser_flags()
    assert readme_flag_table() == {name: f - {"--format"} for name, f in flags.items()}


def readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("colorrep ")]


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
