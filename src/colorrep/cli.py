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
from dataclasses import dataclass, field

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
                   restrict, stability_extend, twist_rep)
from .spaces import GradedSpace

CONFIG_ENV = "COLORREP_CONFIG"


class CommandError(Exception):
    """Bad input or parameters; maps to exit code 2."""


@dataclass
class SessionConfig:
    tol: float | None = None
    level_cap: int | None = None
    seed: int = 0
    fmt: str = "text"
    skip_validate: bool = False


@dataclass
class Task:
    command: str
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


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


def _load_rep_file(path: str, config: SessionConfig):
    return load_rep(path, validate_algebra=not config.skip_validate)


def _need_full(rep, path: str) -> UnitaryRep:
    if isinstance(rep, PartialRep):
        raise CommandError(
            f"{path} holds a partial representation; use check-prerep "
            "or stability-extend")
    return rep


def _tol_kw(config: SessionConfig) -> dict:
    return {} if config.tol is None else {"tol": config.tol}


def _cap(config: SessionConfig) -> int:
    return DEFAULT_LEVEL_CAP if config.level_cap is None else config.level_cap


def _function_and_rep(config: SessionConfig, task: Task):
    """The positive definite function a task refers to, plus its rep if any."""
    table = task.inputs.get("table")
    rep_path = task.inputs.get("rep")
    if (table is None) == (rep_path is None):
        raise CommandError("give exactly one of --table or --rep")
    if table is not None:
        return load_table(
            table, validate_algebra=not config.skip_validate), None, None
    rep, stored = _load_rep_file(rep_path, config)
    rep = _need_full(rep, rep_path)
    vec_text = task.params.get("vector")
    if vec_text is not None:
        v0 = _parse_vector(vec_text)
    elif stored is not None:
        v0 = stored
    else:
        raise CommandError(
            f"{rep_path} stores no cyclic vector; pass --vector")
    if v0.shape != (rep.space_dim,):
        raise CommandError(
            f"vector has length {v0.shape[0]}, space has {rep.space_dim}")
    return PDFunction.from_rep(rep, v0), rep, v0


# ----------------------------------------------------------------- handlers

def _do_check_grading(config: SessionConfig, task: Task) -> Report:
    n = task.params["n"]
    if n < 1:
        raise CommandError("--n must be at least 1")
    rep = Report("grading checks", context={"rank": n})
    rep.extend(verify_alpha_cocycle(n))
    rep.extend(verify_lifting_relation(n))
    return rep


def _do_check_algebra(config: SessionConfig, task: Task) -> Report:
    l = load_algebra(task.inputs["algebra"], validate=False)
    return check_axioms(l, **_tol_kw(config))


def _do_check_perfect(config: SessionConfig, task: Task) -> Report:
    l = load_algebra(task.inputs["algebra"], validate=not config.skip_validate)
    return check_perfectness(l, **_tol_kw(config))


def _do_check_rep(config: SessionConfig, task: Task) -> Report:
    rep, _ = _load_rep_file(task.inputs["rep"], config)
    return check_unitary_rep(_need_full(rep, task.inputs["rep"]),
                             **_tol_kw(config))


def _do_check_prerep(config: SessionConfig, task: Task) -> Report:
    rep, _ = _load_rep_file(task.inputs["rep"], config)
    if isinstance(rep, UnitaryRep):
        rep = restrict(rep)
    return check_pre_rep(rep, **_tol_kw(config))


def _do_stability_extend(config: SessionConfig, task: Task) -> Report:
    rep, _ = _load_rep_file(task.inputs["rep"], config)
    if isinstance(rep, UnitaryRep):
        rep = restrict(rep)
    out = Report("stability extension")
    try:
        full, final = stability_extend(rep, **_tol_kw(config))
    except (PerfectnessError, ExtensionError) as e:
        out.add("extension", False, detail=str(e))
        return out
    out.add("extension", True,
            detail=f"extended {sum(rep.defined(i) for i in range(rep.algebra.dim))}"
                   f" given operators to {rep.algebra.dim}")
    out.extend(final, prefix="extended rep: ")
    if task.params.get("output"):
        save_rep(task.params["output"], full)
        out.context["output"] = task.params["output"]
    return out


def _do_check_pd(config: SessionConfig, task: Task) -> Report:
    psi, rep, _ = _function_and_rep(config, task)
    level = task.params.get("level")
    if level is None:
        level = 2
    if level < 0:
        raise CommandError(f"--level must be at least 0, got {level}")
    groups = default_group_samples(rep) if rep is not None else []
    samples = build_sample_set(psi.algebra, groups, level)
    try:
        return check_positive_definite(psi, samples, **_tol_kw(config))
    except StabilizationError as e:   # the level is over the word budget
        raise CommandError(f"--level {level}: {e}") from None


def _do_gns_construct(config: SessionConfig, task: Task) -> Report:
    psi, rep, _ = _function_and_rep(config, task)
    out = Report("gns construction")
    try:
        result = gns_construct(psi, level_cap=_cap(config), **_tol_kw(config))
    except (StabilizationError, PositivityError) as e:
        out.add("reconstruction", False, detail=str(e))
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
    # the size the route's cost grows with: words and operator entries on
    # the table route, word columns on the representation route
    for key in ("words", "operator_entries", "columns"):
        if key in result.report.context:
            out.context[key] = result.report.context[key]
    if task.params.get("output"):
        save_rep(task.params["output"], result.rep, cyclic=result.cyclic)
        out.context["output"] = task.params["output"]
    return out


def _do_gns_roundtrip(config: SessionConfig, task: Task) -> Report:
    psi, rep, v0 = _function_and_rep(config, task)
    if rep is None:
        raise CommandError("gns-roundtrip needs --rep, not --table")
    return gns_roundtrip(rep, v0, level_cap=_cap(config), **_tol_kw(config))


def _do_twist_rep(config: SessionConfig, task: Task) -> Report:
    rep, stored = _load_rep_file(task.inputs["rep"], config)
    rep = _need_full(rep, task.inputs["rep"])
    chi = _parse_signs(task.params["signs"])
    if len(chi.signs) != rep.algebra.rank:
        raise CommandError(
            f"character has {len(chi.signs)} signs, rank is {rep.algebra.rank}")
    twisted = twist_rep(rep, chi)
    out = Report("character twist", context={"signs": list(chi.signs)})
    out.extend(check_unitary_rep(twisted, **_tol_kw(config)),
               prefix="twisted rep: ")
    if task.params.get("output"):
        save_rep(task.params["output"], twisted, cyclic=stored)
        out.context["output"] = task.params["output"]
    return out


def _generate_glv(task: Task):
    n = task.params.get("n")
    dims_text = task.params.get("dims")
    if n is None or dims_text is None:
        raise CommandError("generate glV needs --n and --dims")
    try:
        dims = [int(p) for p in dims_text.split(",")]
    except ValueError:
        raise CommandError(f"bad --dims {dims_text!r}") from None
    degrees = all_degrees(n)
    if len(dims) != len(degrees):
        raise CommandError(
            f"--dims needs {len(degrees)} entries for rank {n}, got {len(dims)}")
    space = GradedSpace(n, {d: k for d, k in zip(degrees, dims) if k > 0})
    return glV(space), None, None


def _do_generate(config: SessionConfig, task: Task) -> Report:
    name = task.params["name"]
    output = task.params.get("output")
    if not output:
        raise CommandError("generate needs -o for the output file")
    if name == "glV":
        obj, rep, cyclic = _generate_glv(task)
    elif name == "counterexample-n2":
        obj, rep, cyclic = counterexample_algebra(), None, None
    elif name == "clifford-n1":
        obj = None
        rep = clifford_rep(1, b=[[1.0]])
        cyclic = np.array([1.0, 0.0], dtype=complex)
    elif name == "random-rep":
        space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
        base = skew_matrix_algebra(space)[1]
        rep = conjugated_rep(base, seed=config.seed)
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


_HANDLERS = {
    "check-grading": _do_check_grading,
    "check-algebra": _do_check_algebra,
    "check-perfect": _do_check_perfect,
    "check-rep": _do_check_rep,
    "check-prerep": _do_check_prerep,
    "stability-extend": _do_stability_extend,
    "check-pd": _do_check_pd,
    "gns-construct": _do_gns_construct,
    "gns-roundtrip": _do_gns_roundtrip,
    "twist-rep": _do_twist_rep,
    "generate": _do_generate,
}


def run_task(config: SessionConfig, task: Task) -> Report:
    handler = _HANDLERS.get(task.command)
    if handler is None:
        raise CommandError(f"unknown command {task.command!r}")
    return handler(config, task)


# -------------------------------------------------------------------- parser

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help="override the checker tolerance")
    sub.add_argument("--level-cap", type=int, default=None,
                     help="rewriting and sampling level cap")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for seeded constructions")
    sub.add_argument("--format", choices=("text", "json"), default=None,
                     help="report format")
    sub.add_argument("--skip-validate", action="store_true",
                     help="skip axiom validation while loading")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colorrep",
        description="checkers and constructions for graded unitary "
                    "representations")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check-grading", help="sign calculus identities")
    s.add_argument("--n", type=int, required=True)
    _add_common(s)

    for name, help_text in (("check-algebra", "bracket axioms of an algebra file"),
                            ("check-perfect", "perfectness hypothesis")):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("algebra")
        _add_common(s)

    for name, help_text in (("check-rep", "unitary representation axioms"),
                            ("check-prerep", "pre-representation axioms")):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("rep")
        _add_common(s)

    s = subs.add_parser("stability-extend",
                        help="extend a pre-representation")
    s.add_argument("rep")
    s.add_argument("-o", "--output", default=None)
    _add_common(s)

    for name, help_text in (("check-pd", "positive definiteness"),
                            ("gns-construct", "reconstruct from a function"),
                            ("gns-roundtrip", "coefficient, rebuild, compare")):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--table", default=None)
        s.add_argument("--rep", default=None)
        s.add_argument("--vector", default=None,
                       help="comma-separated complex entries")
        if name == "check-pd":
            s.add_argument("--level", type=int, default=None)
        if name == "gns-construct":
            s.add_argument("-o", "--output", default=None)
        _add_common(s)

    s = subs.add_parser("twist-rep", help="rescale by a sign character")
    s.add_argument("rep")
    s.add_argument("--signs", required=True,
                   help="comma-separated +1/-1 per grading generator")
    s.add_argument("-o", "--output", default=None)
    _add_common(s)

    s = subs.add_parser("generate", help="write a bundled example")
    s.add_argument("name")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--dims", default=None)
    _add_common(s)
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


def _session(args: argparse.Namespace) -> SessionConfig:
    """Settings from the flags, else the config file; null counts as unset.

    Each setting is checked once, here, whichever of the two it came from.
    """
    env = _env_defaults()

    def pick(name, fallback=None, check=None):
        val, where = getattr(args, name, None), "--" + name.replace("_", "-")
        if val is None:
            val, where = env.get(name), f"config {name}"
        if val is None:
            return fallback
        return val if check is None else check(val, where)

    fmt = pick("format", "text")
    if fmt not in ("text", "json"):
        raise CommandError(f"config format must be text or json, got {fmt!r}")
    return SessionConfig(
        tol=pick("tol", check=_tolerance),
        level_cap=pick("level_cap", check=_count),
        seed=pick("seed", 0, _count),
        fmt=fmt,
        skip_validate=bool(getattr(args, "skip_validate", False)),
    )


def _task(args: argparse.Namespace) -> Task:
    inputs = {}
    params = {}
    for key in ("algebra", "rep", "table"):
        val = getattr(args, key, None)
        if val is not None:
            inputs[key] = val
    for key in ("n", "dims", "vector", "signs", "output", "level", "name"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return Task(args.command, inputs, params)


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
        config = _session(args)
        report = run_task(config, _task(args))
    except (CommandError, SchemaError, AxiomError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(_render(report, config.fmt))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
