"""Seeded inputs and task lists for the three benchmark workloads.

Every input is built through the public colorrep API: ``colorrep generate``
(called in-process through ``colorrep.cli.main``), ``skew_matrix_algebra`` /
``conjugated_rep`` / ``clifford_rep`` with ``save_rep``, and
``PDFunction.from_table`` with ``save_table``.  The one exception is the
schema-broken control, which is a saved file with its ``rho`` field removed,
because the public savers only ever write valid files.  The program under
test sees nothing but the files written here.

Run as a script to write one workload's inputs into a directory:

    PYTHONPATH=src python3 perfbench/gen.py --workload gns-rep --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os

import numpy as np

WORKLOADS = ("gns-rep", "gns-table", "checkers")

WHY = {
    "gns-rep": "gns-roundtrip on rep files: dense O(n^3) Gram algebra in "
               "gns_construct dominates, rewriting is about 2 percent",
    "gns-table": "gns-construct on pd-table files: same gns_construct, but "
                 "every Gram entry goes through the monoid product "
                 "(enveloping, hcpair)",
    "checkers": "many short checker tasks plus negative controls: import, "
                "file load with validation and the colorlie/reps checkers "
                "dominate; gns and enveloping do almost no work",
}

# The four-lines space of `colorrep generate random-rep`: rank 2, one
# dimension in each of the four degrees.
FOUR_LINES = (1, 1, 1, 1)
# Sector shapes of the skew-matrix reps in `checkers`; (2, 2, 2, 2) gives
# space dim 8 and algebra dim 64.  check-pd runs only on the space-dim-4
# shapes: on the dim-64 algebra it is 14 s of GNS work, which would turn
# `checkers` into a GNS workload.
SKEW_SHAPES = ((1, 1, 1, 1), (2, 1, 1, 0), (2, 2, 2, 2))
PD_SHAPES = ((1, 1, 1, 1), (2, 1, 1, 0))
TABLE_WORD_LENGTH = 4
RANDOM_REPS = 4          # random-rep files per gns-rep pass
TABLES = 2               # pd-table files per gns-table pass


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent per-file seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def task(tid: str, argv: list[str], exit_code: int, checks=(),
         known_defect: int | None = None) -> dict:
    """One CLI invocation and the verdict it must produce.

    For exit codes 0 and 1 the report is read through ``--format json``:
    ``passed`` must equal ``exit_code == 0`` and every name in ``checks``
    must appear among the report's checks.  Exit code 2 prints no report.

    ``known_defect`` is the exit code the program is known to give instead,
    with the matching ``passed`` flag.  That outcome still counts as a wrong
    verdict in ``fail_frac``, but it is reported as the known defect rather
    than as a new failure; any other wrong outcome is a new failure.
    """
    if exit_code != 2 or known_defect is not None:
        argv = argv + ["--format", "json"]
    t = {"id": tid, "argv": argv, "exit": exit_code,
         "passed": exit_code == 0, "checks": list(checks)}
    if known_defect is not None:
        t["known_defect"] = {"exit": known_defect,
                             "passed": known_defect == 0}
    return t


# ------------------------------------------------------------------ helpers

def _quiet_cli(argv: list[str]) -> None:
    from colorrep.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"colorrep {' '.join(argv)} exited {code}")


def _space(dims):
    from colorrep import GradedSpace, all_degrees

    return GradedSpace(2, {d: k for d, k in zip(all_degrees(2), dims) if k})


def _e0(n: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


def _write_table(path: str, rep_seed: int) -> None:
    """Diagonal coefficient of the random-rep with this seed, tabulated."""
    from colorrep import (EnvElement, MonoidElement, PDFunction,
                          conjugated_rep, normal_words, save_table,
                          skew_matrix_algebra)

    space = _space(FOUR_LINES)
    rep = conjugated_rep(skew_matrix_algebra(space)[1], seed=rep_seed)
    psi = PDFunction.from_rep(rep, _e0(space.total_dim))
    l = rep.algebra
    values = {w: psi(MonoidElement.from_env(EnvElement(l, {w: 1.0})))
              for w in normal_words(l, TABLE_WORD_LENGTH)}
    save_table(path, PDFunction.from_table(l, values))


# ---------------------------------------------------------------- workloads

def _gns_rep(out: str, seed: int) -> list[dict]:
    from colorrep import clifford_rep, save_rep

    tasks = []
    for k, s in enumerate(sub_seeds(seed, RANDOM_REPS)):
        path = os.path.join(out, f"random-rep-{k}.json")
        _quiet_cli(["generate", "random-rep", "--seed", str(s), "-o", path])
        tasks.append(task(f"roundtrip-random-{k}",
                          ["gns-roundtrip", "--rep", path], 0,
                          ["reconstruction", "dimension matches",
                           "unitary equivalence"]))
    path = os.path.join(out, "clifford-n1.json")
    _quiet_cli(["generate", "clifford-n1", "-o", path])
    tasks.append(task("roundtrip-clifford-n1",
                      ["gns-roundtrip", "--rep", path], 0,
                      ["reconstruction", "unitary equivalence"]))
    width = 3
    path = os.path.join(out, f"clifford-w{width}.json")
    save_rep(path, clifford_rep(width, seed=sub_seeds(seed + 1, 1)[0]),
             cyclic=_e0(2 * width))
    tasks.append(task(f"roundtrip-clifford-w{width}",
                      ["gns-roundtrip", "--rep", path], 0,
                      ["reconstruction", "unitary equivalence"]))
    return tasks


def _gns_table(out: str, seed: int) -> list[dict]:
    # the same seeds as the first random-rep files of gns-rep
    tasks = []
    for k, s in enumerate(sub_seeds(seed, RANDOM_REPS)[:TABLES]):
        path = os.path.join(out, f"table-{k}.json")
        _write_table(path, s)
        tasks.append(task(f"construct-table-{k}",
                          ["gns-construct", "--table", path,
                           "-o", os.path.join(out, f"table-{k}.rebuilt.json")],
                          0, ["reconstruction", "reproducing property",
                              "identity class cyclic"]))
    return tasks


def _perturbed(rep, index: int, eps: float = 0.1):
    """The same rep with one in-block entry of one operator shifted."""
    from colorrep import HomogeneousMap, UnitaryRep

    space = rep.inner.space
    deg = rep.algebra.degrees[index]
    m = rep.rho_matrix(index).copy()
    src = space.degrees[0]
    m[space.slice_of(deg * src).start, space.slice_of(src).start] += eps
    rho = list(rep.rho)
    rho[index] = HomogeneousMap.from_dense(space, space, deg, m)
    return UnitaryRep(rep.pair, rep.inner, rho)


def _nan_clifford():
    """clifford-n1 with one NaN entry in its odd operator."""
    from colorrep import HomogeneousMap, UnitaryRep, clifford_rep

    rep = clifford_rep(1, b=[[1.0]])
    space = rep.inner.space
    m = rep.rho_matrix(1).copy()
    m[1, 0] = np.nan
    rho = [rep.rho[0],
           HomogeneousMap.from_dense(space, space, rep.algebra.degrees[1], m)]
    return UnitaryRep(rep.pair, rep.inner, rho)


def _checkers(out: str, seed: int) -> list[dict]:
    from colorrep import (conjugated_rep, counterexample_prerep, save_rep,
                          skew_matrix_algebra)

    rng = np.random.default_rng(seed)
    tasks = [task(f"grading-n{n}", ["check-grading", "--n", str(n)], 0,
                  ["alpha-cocycle", "beta-delta-eta"])
             for n in (4, 5, 6)]

    dims2 = [int(x) for x in rng.permutation([2, 1, 1, 0])]
    for name, n, dims, sectors in (
            ("glv-r2", 2, dims2, ["sector-11"]),
            ("glv-r3", 3, [1] * 8, ["sector-011", "sector-101", "sector-110"])):
        path = os.path.join(out, f"{name}.json")
        _quiet_cli(["generate", "glV", "--n", str(n),
                    "--dims", ",".join(map(str, dims)), "-o", path])
        tasks.append(task(f"{name}-algebra", ["check-algebra", path], 0,
                          ["grading", "antisymmetry", "jacobi"]))
        tasks.append(task(f"{name}-perfect", ["check-perfect", path], 0,
                          sectors))

    four = None
    for shape in SKEW_SHAPES:
        space = _space(shape)
        base = skew_matrix_algebra(space, validate=False)[1]
        rep = conjugated_rep(base, seed=int(rng.integers(2**31 - 1)))
        if shape == FOUR_LINES:
            four = rep
        name = "skew-" + "".join(map(str, shape))
        path = os.path.join(out, f"{name}.json")
        save_rep(path, rep, cyclic=_e0(space.total_dim))
        signs = [(-1, 1), (1, -1), (-1, -1)][int(rng.integers(3))]
        stem = os.path.join(out, name)
        tasks += [
            task(f"{name}-rep", ["check-rep", path], 0,
                 ["bracket property", "graded skew-adjointness"]),
            task(f"{name}-prerep", ["check-prerep", path], 0),
            task(f"{name}-extend",
                 ["stability-extend", path, "-o", stem + ".extended.json"], 0,
                 ["extension"]),
            task(f"{name}-twist",
                 ["twist-rep", path, "--signs=" + ",".join(map(str, signs)),
                  "-o", stem + ".twisted.json"], 0,
                 ["twisted rep: bracket property"]),
        ]
        if shape in PD_SHAPES:
            tasks.append(task(f"{name}-pd",
                              ["check-pd", "--rep", path, "--level", "1"], 0,
                              ["gram positive semidefinite"]))

    # the smallest end-to-end reconstruction, so that every gns stage does
    # some work on this workload too
    path = os.path.join(out, "clifford-n1.json")
    _quiet_cli(["generate", "clifford-n1", "-o", path])
    tasks.append(task("roundtrip-clifford-n1", ["gns-roundtrip", "--rep", path],
                      0, ["reconstruction", "unitary equivalence"]))

    # negative controls
    path = os.path.join(out, "counterexample-n2.json")
    _quiet_cli(["generate", "counterexample-n2", "-o", path])
    tasks.append(task("control-perfect", ["check-perfect", path], 1,
                      ["sector-11"]))

    path = os.path.join(out, "counterexample-prerep.json")
    save_rep(path, counterexample_prerep())
    tasks.append(task("control-extend", ["stability-extend", path], 1,
                      ["extension"]))

    path = os.path.join(out, "perturbed.json")
    save_rep(path, _perturbed(four, int(rng.integers(four.algebra.dim))))
    tasks.append(task("control-perturbed", ["check-rep", path], 1,
                      ["bracket property"]))

    with open(os.path.join(out, "skew-1111.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["rho"]
    path = os.path.join(out, "schema-broken.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    tasks.append(task("control-schema", ["check-rep", path], 2))

    # known defect: a NaN entry passes check-rep with exit 0 instead of 2
    path = os.path.join(out, "clifford-nan.json")
    save_rep(path, _nan_clifford(), cyclic=_e0(2))
    tasks.append(task("control-nan", ["check-rep", path], 2, known_defect=0))
    return tasks


_BUILDERS = {"gns-rep": _gns_rep, "gns-table": _gns_table,
             "checkers": _checkers}


def generate(workload: str, out: str, seed: int) -> list[dict]:
    """Write the workload's inputs into ``out``; return its task list."""
    os.makedirs(out, exist_ok=True)
    return _BUILDERS[workload](out, seed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    tasks = generate(args.workload, args.out, args.seed)
    with open(os.path.join(args.out, "tasks.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "why": WHY[args.workload], "tasks": tasks}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
