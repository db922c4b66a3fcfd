"""Command-line driver exposing every checker and construction.

Exit codes follow a scripting contract: 0 when the requested check passed,
1 when it ran and failed, 2 for input problems (unreadable files, schema
violations, bad parameters).  Reports print to stdout as text or JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .colorlie import check_axioms, check_perfectness, glV
from .enveloping import DEFAULT_LEVEL_CAP
from .errors import (AxiomError, ExtensionError, PerfectnessError,
                     PositivityError, SchemaError, StabilizationError)
from .fileio import (REPORT_SCHEMA, load_algebra, load_rep, load_table,
                     save_algebra, save_rep)
from .generators import (clifford_rep, conjugated_rep, counterexample_algebra,
                         skew_matrix_algebra)
from .gns import (PDFunction, build_sample_set, check_positive_definite,
                  default_group_samples, gns_construct, gns_roundtrip)
from .grading import (Character, all_degrees, verify_alpha_cocycle,
                      verify_lifting_relation)
from .report import Report
from .reps import (PartialRep, UnitaryRep, check_pre_rep, check_unitary_rep,
                   stability_extend, twist_rep)
from .spaces import GradedSpace

CONFIG_ENV = "COLORREP_CONFIG"


class CommandError(Exception):
    """Bad input or parameters; maps to exit code 2."""


def _env_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise CommandError(f"config file {path}: {e}") from None
    if not isinstance(doc, dict):
        raise CommandError(f"config file {path}: expected an object")
    return doc


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([complex(part.strip().replace(" ", ""))
                         for part in text.split(",")], dtype=complex)
    except ValueError:
        raise CommandError(f"cannot parse vector {text!r}; expected "
                           "comma-separated complex entries") from None


def _parse_signs(text: str) -> Character:
    try:
        return Character([int(p) for p in text.split(",")])
    except ValueError as e:
        raise CommandError(f"bad character signs {text!r}: {e}") from None


def _need_full(rep, path: str) -> UnitaryRep:
    if isinstance(rep, PartialRep):
        raise CommandError(
            f"{path} holds a partial representation; use check-prerep "
            "or stability-extend")
    return rep


def _tol_kw(args: argparse.Namespace) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _function(args: argparse.Namespace) -> PDFunction:
    """The positive definite function of --table, or of --rep and a vector;
    one from a rep keeps it and the vector as ``rep`` and ``vector``."""
    table = getattr(args, "table", None)    # gns-roundtrip takes --rep only
    if (table is None) == (args.rep is None):
        raise CommandError("give exactly one of --table or --rep")
    if table is not None:
        return load_table(table, validate_algebra=not args.skip_validate)
    rep, stored = load_rep(args.rep, validate_algebra=not args.skip_validate)
    rep = _need_full(rep, args.rep)
    if args.vector is not None:
        v0 = _parse_vector(args.vector)
    elif stored is not None:
        v0 = stored
    else:
        raise CommandError(
            f"{args.rep} stores no cyclic vector; pass --vector")
    if v0.shape != (rep.space_dim,):
        raise CommandError(
            f"vector has length {v0.shape[0]}, space has {rep.space_dim}")
    return PDFunction.from_rep(rep, v0)


# ----------------------------------------------------------------- handlers
# each takes the parsed namespace, with the settings resolved by ``_settle``

def _do_check_grading(args: argparse.Namespace) -> Report:
    if args.n < 1:
        raise CommandError("--n must be at least 1")
    rep = Report("grading checks", context={"rank": args.n})
    rep.extend(verify_alpha_cocycle(args.n))
    rep.extend(verify_lifting_relation(args.n))
    return rep


def _do_check_algebra(args: argparse.Namespace) -> Report:
    l = load_algebra(args.algebra, validate=False)
    return check_axioms(l, **_tol_kw(args))


def _do_check_perfect(args: argparse.Namespace) -> Report:
    l = load_algebra(args.algebra, validate=not args.skip_validate)
    return check_perfectness(l, **_tol_kw(args))


def _do_check_rep(args: argparse.Namespace) -> Report:
    rep, _ = load_rep(args.rep, validate_algebra=not args.skip_validate)
    return check_unitary_rep(_need_full(rep, args.rep), **_tol_kw(args))


def _do_check_prerep(args: argparse.Namespace) -> Report:
    rep, _ = load_rep(args.rep, validate_algebra=not args.skip_validate)
    return check_pre_rep(rep, **_tol_kw(args))


def _do_stability_extend(args: argparse.Namespace) -> Report:
    rep, _ = load_rep(args.rep, validate_algebra=not args.skip_validate)
    out = Report("stability extension")
    try:
        full, final = stability_extend(rep, **_tol_kw(args))
    except (PerfectnessError, ExtensionError) as e:
        out.add("extension", False, detail=str(e))
        failed = getattr(e, "report", None)   # the partial data's check or the final one
        if failed is not None:
            pre = failed.title == "pre-representation check"
            out.extend(failed, prefix="pre-rep: " if pre else "extended rep: ")
        return out
    l = rep.algebra
    filled = sum(l.sector_dim(a) for a in l.even_nonzero_degrees())
    out.add("extension", True,
            detail=f"extended {l.dim - filled} given operators to {l.dim}")
    out.extend(final, prefix="extended rep: ")
    if args.output:
        save_rep(args.output, full)
        out.context["output"] = args.output
    return out


def _do_check_pd(args: argparse.Namespace) -> Report:
    psi = _function(args)
    if args.level < 0:
        raise CommandError(f"--level must be at least 0, got {args.level}")
    groups = [] if psi.rep is None else default_group_samples(psi.rep)
    try:
        samples = build_sample_set(psi.algebra, groups, args.level)
        return check_positive_definite(psi, samples, **_tol_kw(args))
    except StabilizationError as e:   # the level is over the word budget
        raise CommandError(f"--level {args.level}: {e}") from None


def _do_gns_construct(args: argparse.Namespace) -> Report:
    psi = _function(args)
    out = Report("gns construction")
    try:
        result = gns_construct(psi, level_cap=args.level_cap, **_tol_kw(args))
    except (StabilizationError, PositivityError) as e:
        out.add("reconstruction", False, detail=str(e))
        if getattr(e, "rank_history", None) is not None:
            out.context["rank_history"] = e.rank_history
        if getattr(e, "report", None) is not None:   # the positivity certificate
            out.extend(e.report, prefix="pd: ")
        return out
    except ValueError as e:
        # degenerate input, e.g. a function that vanishes on every sample
        raise CommandError(str(e)) from None
    out.add("reconstruction", True,
            detail=f"dimension {result.rep.space_dim}, "
                   f"level {result.level_used}")
    out.extend(result.report)
    out.context["gram_spectrum"] = result.gram_spectrum
    out.context["level_used"] = result.level_used
    # the rank at each level sampled; the size the route's cost grows
    # with: words and operator entries on the table route, word columns on
    # the representation route
    for key in ("rank_history", "words", "operator_entries", "columns"):
        if key in result.report.context:
            out.context[key] = result.report.context[key]
    if args.output:
        save_rep(args.output, result.rep, cyclic=result.cyclic)
        out.context["output"] = args.output
    return out


def _do_gns_roundtrip(args: argparse.Namespace) -> Report:
    psi = _function(args)
    return gns_roundtrip(psi.rep, psi.vector, level_cap=args.level_cap,
                         **_tol_kw(args))


def _do_twist_rep(args: argparse.Namespace) -> Report:
    rep, stored = load_rep(args.rep, validate_algebra=not args.skip_validate)
    rep = _need_full(rep, args.rep)
    chi = _parse_signs(args.signs)
    if len(chi.signs) != rep.algebra.rank:
        raise CommandError(
            f"character has {len(chi.signs)} signs, rank is {rep.algebra.rank}")
    twisted = twist_rep(rep, chi)
    out = Report("character twist", context={"signs": list(chi.signs)})
    out.extend(check_unitary_rep(twisted, **_tol_kw(args)),
               prefix="twisted rep: ")
    if args.output:
        save_rep(args.output, twisted, cyclic=stored)
        out.context["output"] = args.output
    return out


def _generate_glv(args: argparse.Namespace):
    if args.n is None or args.dims is None:
        raise CommandError("generate glV needs --n and --dims")
    try:
        dims = [int(p) for p in args.dims.split(",")]
    except ValueError:
        raise CommandError(f"bad --dims {args.dims!r}") from None
    degrees = all_degrees(args.n)
    if len(dims) != len(degrees):
        raise CommandError(
            f"--dims needs {len(degrees)} entries for rank {args.n}, got {len(dims)}")
    space = GradedSpace(args.n, {d: k for d, k in zip(degrees, dims) if k > 0})
    return glV(space), None, None


def _do_generate(args: argparse.Namespace) -> Report:
    name, output = args.name, args.output
    if not output:
        raise CommandError("generate needs -o for the output file")
    if name == "glV":
        obj, rep, cyclic = _generate_glv(args)
    elif name == "counterexample-n2":
        obj, rep, cyclic = counterexample_algebra(), None, None
    elif name == "clifford-n1":
        obj = None
        rep = clifford_rep(1, b=[[1.0]])
        cyclic = np.array([1.0, 0.0], dtype=complex)
    elif name == "random-rep":
        space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
        base = skew_matrix_algebra(space)[1]
        rep = conjugated_rep(base, seed=args.seed)
        obj = None
        cyclic = np.zeros(space.total_dim, dtype=complex)
        cyclic[0] = 1.0
    else:
        raise CommandError(
            f"unknown example {name!r}; choose glV, counterexample-n2, "
            "clifford-n1, or random-rep")
    out = Report("generate", context={"name": name, "output": output})
    if obj is not None:
        save_algebra(output, obj)
        out.add("algebra written", True, detail=f"{obj.dim} basis elements")
    else:
        save_rep(output, rep, cyclic=cyclic)
        final = check_unitary_rep(rep)
        out.add("representation written", final.passed, final.max_residual(),
                detail=f"dimension {rep.space_dim}")
    return out


# -------------------------------------------------------------------- parser

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colorrep",
        description="checkers and constructions for graded unitary "
                    "representations")
    subs = p.add_subparsers(dest="command", required=True)

    def command(name, run, help_text, tol=True, skip_validate=True):
        s = subs.add_parser(name, help=help_text)
        s.set_defaults(run=run)
        s.add_argument("--format", choices=("text", "json"),
                       help="report format")
        if tol:
            s.add_argument("--tol", type=float,
                           help="override the checker tolerance")
        if skip_validate:
            s.add_argument("--skip-validate", action="store_true",
                           help="skip axiom validation while loading")
        return s

    def function_source(s, table=True):
        if table:
            s.add_argument("--table")
        s.add_argument("--rep", required=not table)
        s.add_argument("--vector", help="comma-separated complex entries")

    def level_cap(s):
        s.add_argument("--level-cap", type=int,
                       help="sampling level cap of the reconstruction")

    s = command("check-grading", _do_check_grading, "sign calculus identities",
                tol=False, skip_validate=False)
    s.add_argument("--n", type=int, required=True)

    s = command("check-algebra", _do_check_algebra,
                "bracket axioms of an algebra file", skip_validate=False)
    s.add_argument("algebra")
    s = command("check-perfect", _do_check_perfect, "perfectness hypothesis")
    s.add_argument("algebra")

    command("check-rep", _do_check_rep,
            "unitary representation axioms").add_argument("rep")
    command("check-prerep", _do_check_prerep,
            "pre-representation axioms").add_argument("rep")

    s = command("stability-extend", _do_stability_extend,
                "extend a pre-representation")
    s.add_argument("rep")
    s.add_argument("-o", "--output")

    s = command("check-pd", _do_check_pd, "positive definiteness")
    function_source(s)
    s.add_argument("--level", type=int, default=2)

    s = command("gns-construct", _do_gns_construct, "reconstruct from a function")
    function_source(s)
    s.add_argument("-o", "--output")
    level_cap(s)

    s = command("gns-roundtrip", _do_gns_roundtrip,
                "coefficient, rebuild, compare")
    function_source(s, table=False)
    level_cap(s)

    s = command("twist-rep", _do_twist_rep, "rescale by a sign character")
    s.add_argument("rep")
    s.add_argument("--signs", required=True,
                   help="comma-separated +1/-1 per grading generator")
    s.add_argument("-o", "--output")

    s = command("generate", _do_generate, "write a bundled example",
                tol=False, skip_validate=False)
    s.add_argument("name")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--n", type=int)
    s.add_argument("--dims")
    s.add_argument("--seed", type=int, help="seed for seeded constructions")
    return p


def _count(val, where: str) -> int:
    # a non-negative 64-bit integer; true and false are not numbers
    if isinstance(val, bool) or not isinstance(val, int) or not 0 <= val < 2 ** 63:
        raise CommandError(
            f"{where} must be an integer from 0 to 2**63 - 1, got {val!r}")
    return val


def _tolerance(val, where: str) -> float:
    # a finite real >= 0; an integer too large for a float is not finite
    try:
        ok = not isinstance(val, bool) and math.isfinite(val) and val >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise CommandError(
            f"{where} must be a finite number at least 0, got {val!r}")
    return val


def _report_format(val, where: str) -> str:
    if val not in ("text", "json"):
        raise CommandError(f"{where} must be text or json, got {val!r}")
    return val


def _settle(args: argparse.Namespace) -> None:
    """Put each setting on the namespace: its flag, else the config file,
    where null counts as unset, else its default.

    Each setting is checked once, here, whichever of the two it came from;
    a value in the file is checked also where the command has no flag for it.
    """
    env = _env_defaults()
    for name, default, check in (("format", "text", _report_format),
                                 ("tol", None, _tolerance),
                                 ("level_cap", DEFAULT_LEVEL_CAP, _count),
                                 ("seed", 0, _count)):
        val, where = getattr(args, name, None), "--" + name.replace("_", "-")
        if val is None:
            val, where = env.get(name), f"config {name}"
        setattr(args, name, default if val is None else check(val, where))


def _finite_or_null(x):
    """The value with every non-finite float, at any depth, replaced by None."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        doc = {"schema": REPORT_SCHEMA}
        doc.update(report.to_dict())
        # standard JSON has no NaN or Infinity; the schema allows null
        return json.dumps(_finite_or_null(doc), indent=1, default=str,
                          allow_nan=False)
    return report.to_text()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage already; normalize other codes
        return 0 if e.code in (0, None) else 2
    try:
        _settle(args)
        report = args.run(args)
    except (CommandError, SchemaError, AxiomError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(_render(report, args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
