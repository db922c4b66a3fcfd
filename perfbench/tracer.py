"""Traced run of one colorrep CLI task, and the per-layer arithmetic.

As a script this is the child process of a traced task:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz -- check-rep rep.json

It times ``import colorrep.cli``, installs span and counter wrappers around
the public colorrep functions named in ``SPANS`` and ``COUNTS`` (under every
name the package looks them up by), runs ``colorrep.cli.main(argv)`` and,
when main returns, writes the spans and counters it kept in memory to
SPANS.npz.  The exit code is main's.

The module also holds what the harness computes from those files:
``self_times`` and ``layer_metrics``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (module, attribute, span name).  A span records name, start, end and the
# enclosing span; its self time is what its child spans do not cover.
SPANS = (
    ("colorrep.cli", "main", "cli.main"),
    ("colorrep.fileio", "load_rep", "fileio.load_rep"),
    ("colorrep.fileio", "load_table", "fileio.load_table"),
    ("colorrep.fileio", "load_algebra", "fileio.load_algebra"),
    ("colorrep.fileio", "save_rep", "fileio.save_rep"),
    ("colorrep.grading", "verify_alpha_cocycle", "grading.verify"),
    ("colorrep.grading", "verify_lifting_relation", "grading.verify"),
    ("colorrep.spaces", "dagger_adjoint", "spaces.dagger_adjoint"),
    ("colorrep.spaces", "HomogeneousMap.from_dense",
     "spaces.HomogeneousMap.from_dense"),
    ("colorrep.colorlie", "check_axioms", "colorlie.check_axioms"),
    ("colorrep.colorlie", "check_perfectness", "colorlie.check_perfectness"),
    ("colorrep.colorlie", "decompose_odd", "colorlie.decompose_odd"),
    ("colorrep.hcpair", "GroupElement.is_identity",
     "hcpair.GroupElement.is_identity"),
    ("colorrep.enveloping", "s_mul", "enveloping.s_mul"),
    ("colorrep.enveloping", "s_star", "enveloping.s_star"),
    ("colorrep.enveloping", "env_ad", "enveloping.env_ad"),
    ("colorrep.enveloping", "env_mul", "enveloping.env_mul"),
    ("colorrep.reps", "check_unitary_rep", "reps.check_unitary_rep"),
    ("colorrep.reps", "check_pre_rep", "reps.check_pre_rep"),
    ("colorrep.reps", "stability_extend", "reps.stability_extend"),
    ("colorrep.reps", "monoid_operator", "reps.monoid_operator"),
    ("colorrep.reps", "exp_group_element", "reps.exp_group_element"),
    ("colorrep.gns", "gns_roundtrip", "gns.gns_roundtrip"),
    ("colorrep.gns", "gns_construct", "gns.gns_construct"),
    ("colorrep.gns", "check_positive_definite", "gns.check_positive_definite"),
    ("colorrep.gns", "sample_gram", "gns.sample_gram"),
    ("colorrep.gns", "check_cyclic", "gns.check_cyclic"),
    ("colorrep.gns", "unitary_equivalence", "gns.unitary_equivalence"),
)

# (module, attribute, counter name): calls counted without a span, for
# functions too small or too frequent to time one by one.
COUNTS = (
    ("colorrep.hcpair", "GroupElement.inverse", "hcpair.GroupElement.inverse.calls"),
    ("colorrep.hcpair", "GroupElement.compose", "hcpair.GroupElement.compose.calls"),
    ("colorrep.gns", "PDFunction.__call__", "gns.psi_evals"),
)

LAYERS = ("fileio", "grading", "spaces", "colorlie", "hcpair", "enveloping",
          "reps", "gns")

# Per-layer metrics of a traced run, summed over its tasks, with units.
# ``<span>.calls`` and ``<span>.self_s`` come from the spans, and
# ``<layer>.self_s`` is the self time of all the layer's spans; the rest are
# counters the wrappers keep.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("fileio.load_rep.self_s", "s"),
    ("fileio.load_table.self_s", "s"),
    ("fileio.load_algebra.self_s", "s"),
    ("fileio.save_rep.self_s", "s"),
    ("fileio.bytes_read", "B"),
    ("fileio.bytes_written", "B"),
    ("grading.verify.calls", "count"),
    ("grading.verify.self_s", "s"),
    ("spaces.dagger_adjoint.calls", "count"),
    ("spaces.dagger_adjoint.self_s", "s"),
    ("spaces.HomogeneousMap.from_dense.calls", "count"),
    ("spaces.HomogeneousMap.from_dense.self_s", "s"),
    ("colorlie.check_axioms.calls", "count"),
    ("colorlie.check_axioms.self_s", "s"),
    ("colorlie.check_perfectness.self_s", "s"),
    ("colorlie.decompose_odd.calls", "count"),
    ("colorlie.decompose_odd.self_s", "s"),
    ("hcpair.GroupElement.is_identity.calls", "count"),
    ("hcpair.GroupElement.is_identity.self_s", "s"),
    ("hcpair.GroupElement.inverse.calls", "count"),
    ("hcpair.GroupElement.compose.calls", "count"),
    ("enveloping.s_mul.calls", "count"),
    ("enveloping.s_mul.self_s", "s"),
    ("enveloping.s_star.calls", "count"),
    ("enveloping.s_star.self_s", "s"),
    ("enveloping.env_ad.calls", "count"),
    ("enveloping.env_ad.self_s", "s"),
    ("enveloping.env_mul.calls", "count"),
    ("enveloping.env_mul.self_s", "s"),
    ("enveloping.nf_cache_entries", "count"),
    ("reps.check_unitary_rep.calls", "count"),
    ("reps.check_unitary_rep.self_s", "s"),
    ("reps.check_pre_rep.self_s", "s"),
    ("reps.stability_extend.self_s", "s"),
    ("reps.monoid_operator.calls", "count"),
    ("reps.monoid_operator.self_s", "s"),
    ("reps.exp_group_element.calls", "count"),
    ("reps.exp_group_element.self_s", "s"),
    ("gns.gns_construct.self_s", "s"),
    ("gns.check_positive_definite.self_s", "s"),
    ("gns.sample_gram.calls", "count"),
    ("gns.sample_gram.self_s", "s"),
    ("gns.sample_gram.entries", "count"),
    ("gns.gram_n3", "count"),
    ("gns.psi_evals", "count"),
    ("gns.check_cyclic.self_s", "s"),
    ("gns.unitary_equivalence.self_s", "s"),
    ("gns.retained_ratio", "ratio"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)


class Tracer:
    """Spans and counters of one process, kept in memory until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.algebras: list = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so that each call records one span.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` update
        counters around the call; they run outside the timed interval.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path: str, meta: dict) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps(dict(meta, counters=self.counters))))


def _patch(module: str, attr: str, make) -> None:
    """Replace module.attr by make(original) wherever colorrep binds it."""
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    orig = getattr(mod, attr)
    new = make(orig)
    for name, m in list(sys.modules.items()):
        if name == "colorrep" or name.startswith("colorrep."):
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(tracer: Tracer) -> None:
    """Install every wrapper of ``SPANS`` and ``COUNTS`` on the loaded package."""
    from colorrep.colorlie import ColorLieAlgebra

    def read(args, kwargs):
        tracer.count("fileio.bytes_read", _path_size(args[0] if args else None))

    def written(args, kwargs, result):
        tracer.count("fileio.bytes_written", _path_size(args[0] if args else None))

    def gram_size(args, kwargs):
        samples = args[1] if len(args) > 1 else kwargs["samples"]
        n = len(samples)
        tracer.count("gns.sample_gram.entries", n * n)
        tracer.count("gns.gram_n3", n ** 3)

    def retained(args, kwargs, result):
        tracer.count("gns.retained_dim", result.rep.space_dim)
        tracer.count("gns.retained_samples", result.sample_count)

    hooks = {
        "fileio.load_rep": (read, None),
        "fileio.load_table": (read, None),
        "fileio.load_algebra": (read, None),
        "fileio.save_rep": (None, written),
        "gns.sample_gram": (gram_size, None),
        "gns.gns_construct": (None, retained),
    }
    for module, attr, name in SPANS:
        before, after = hooks.get(name, (None, None))
        _patch(module, attr,
               lambda fn, name=name, b=before, a=after: tracer.span(name, fn, b, a))
    for module, attr, key in COUNTS:
        _patch(module, attr, lambda fn, key=key: tracer.counter(key, fn))

    # every algebra the task builds, kept alive so that the size of its
    # normal-form cache can be read when main returns
    init = ColorLieAlgebra.__init__

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.algebras.append(self)

    ColorLieAlgebra.__init__ = tracked_init


# ------------------------------------------------------- harness arithmetic

def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    ``parent[i]`` is the index of span i's enclosing span, or -1.  Child
    intervals are clipped to their parent before they are merged.
    """
    parent = list(parent)
    start = list(start)
    end = list(end)
    out = [e - s for s, e in zip(start, end)]
    order = sorted((p, s, i) for i, (p, s) in enumerate(zip(parent, start))
                   if p >= 0)
    cur, lo, hi = -1, 0.0, 0.0
    for p, _, i in order:
        s = max(start[i], start[p])
        e = min(end[i], end[p])
        if e <= s:
            continue
        if p != cur:
            if cur >= 0:
                out[cur] -= hi - lo
            cur, lo, hi = p, s, e
        elif s > hi:
            out[cur] -= hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        out[cur] -= hi - lo
    return out


def layer_metrics(span_files) -> dict[str, float]:
    """Sum the spans and counters of traced tasks into ``LAYER_METRICS``."""
    import numpy as np

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for path in span_files:
        with np.load(path) as z:
            names = [str(x) for x in z["names"]]
            ids = z["name"]
            own = self_times(z["parent"], z["start"], z["end"])
            meta = json.loads(str(z["meta"]))
        for key, val in meta["counters"].items():
            counters[key] = counters.get(key, 0) + val
        counters["cli.import_s"] = counters.get("cli.import_s", 0.0) + meta["import_s"]
        per_name = np.bincount(ids, weights=own, minlength=len(names))
        counts = np.bincount(ids, minlength=len(names))
        for k, name in enumerate(names):
            for key in (name, name.split(".")[0]):
                self_s[key] = self_s.get(key, 0.0) + float(per_name[k])
            calls[name] = calls.get(name, 0) + int(counts[k])

    samples = counters.get("gns.retained_samples", 0)
    counters["gns.retained_ratio"] = (
        counters.get("gns.retained_dim", 0) / samples if samples else 0.0)
    spans = {name for _, _, name in SPANS}
    out = {}
    for metric, _ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "self_s" and (base in spans or base in LAYERS):
            out[metric] = self_s.get(base, 0.0)
        elif base in spans and field == "calls":
            out[metric] = calls.get(base, 0)
        else:
            out[metric] = counters.get(metric, 0)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <colorrep arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import colorrep.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = colorrep.cli.main(cli_args)
    finally:
        cache = sum(len(l._nf_cache) for l in tracer.algebras)
        tracer.counters["enveloping.nf_cache_entries"] = cache
        tracer.save(spans_path, {"import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
