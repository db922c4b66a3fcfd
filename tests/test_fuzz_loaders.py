"""Mutated algebra, rep and table files keep the command-line exit contract.

Each example takes a valid document and either spoils one numeric leaf
(NaN, +-inf, an overflowing literal, a huge integer, a string, null or a
boolean) or makes one row of an operator, Gram or generator matrix one entry
shorter or longer.  It then runs a command on the file in process.  No exception may
escape ``main``, and since every such mutation breaks the schema, the
command must exit 2 with an error line: never 0 with PASS, nor 1 from a
checker that ran on it.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from colorrep.cli import main
from colorrep.colorlie import glV
from colorrep.fileio import algebra_to_doc, rep_to_doc, table_to_doc
from colorrep.generators import (clifford_algebra, clifford_parity_generator,
                                 clifford_rep)
from colorrep.gns import PDFunction
from colorrep.grading import Degree
from colorrep.hcpair import HCPair
from colorrep.reps import UnitaryRep
from colorrep.spaces import GradedSpace


def _docs():
    glv = glV(GradedSpace(1, {Degree((0,)): 1, Degree((1,)): 1}))
    base = clifford_rep(1)
    rep = UnitaryRep(HCPair(base.algebra, [clifford_parity_generator(1)]),
                     base.inner, base.rho)
    table = PDFunction.from_table(clifford_algebra(), {(): 1.0})
    return {
        "algebra": algebra_to_doc(glv),
        "rep": rep_to_doc(rep, cyclic=np.array([1.0, 0.0])),
        "table": table_to_doc(table),
    }


DOCS = _docs()
COMMANDS = {
    "algebra": [["check-algebra"], ["check-perfect"]],
    "rep": [["check-rep"], ["check-prerep"], ["check-pd", "--level", "1",
                                              "--rep"]],
    "table": [["check-pd", "--table"], ["gns-construct", "--table"]],
}
BIG = "__overflowing literal__"
SPOILERS = [float("nan"), float("inf"), -float("inf"), BIG, 10 ** 400, "0.5",
            None, True, False]


def _number_paths(node, path=()):
    """Paths to the numeric leaves of a document."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _number_paths(child, path + (key,))


def _matrix_paths(doc):
    """Paths to the operator, Gram and generator matrices of a rep document."""
    paths = [("rho", i) for i, m in enumerate(doc["rho"]) if m is not None]
    paths += [("gram", i, 1) for i in range(len(doc["gram"]))]
    for i, g in enumerate(doc["generators"]):
        paths += [("generators", i, key) for key in ("ad", "pi")
                  if g.get(key) is not None]
    return paths


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _run(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [path])
    return code, out.getvalue(), err.getvalue()


def test_unspoiled_documents_pass():
    for kind, doc in DOCS.items():
        for command in COMMANDS[kind]:
            assert _run(command, json.dumps(doc))[0] == 0, command


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_files_keep_the_exit_contract(data):
    kind = data.draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[kind])
    if kind != "rep" or data.draw(st.booleans()):
        path = data.draw(st.sampled_from(list(_number_paths(doc))))
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(SPOILERS))
    else:
        matrix = _at(doc, data.draw(st.sampled_from(_matrix_paths(doc))))
        row = matrix[data.draw(st.integers(0, len(matrix) - 1))]
        if data.draw(st.booleans()):
            row.pop()
        else:
            row.append(copy.deepcopy(row[-1]))
    text = json.dumps(doc).replace(json.dumps(BIG), "1e999")
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    code, out, err = _run(command, text)
    # every mutation breaks the schema, so the load itself must refuse it
    assert code == 2, (command, text, out)
    assert err.startswith("error: ")
