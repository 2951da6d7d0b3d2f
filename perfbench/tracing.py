"""Spans around toposq's public functions, for the benchmark's traced run.

``Tracer.install()`` wraps every public function of the layer modules, the
``cmd_*`` handlers of the CLI, and the constructors and restriction lookup of
contexts and posets. Each wrapper is set on every toposq module that holds
the function, so internal calls such as ``contexts.operator_norm`` are
counted too. A span records its name, start, end, parent span and operation
id; spans stay in compact in-memory arrays until ``save``.

Self time is a span's duration minus the time its child spans cover. A
span's ``.s`` metric sums the spans of that name that have no ancestor of
the same name, so recursion is not counted twice. ``Spans`` can scale each
operation's spans to a reference host speed; the saved spans are as measured.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "contexts", "presheaf", "daseinisation", "operators", "states", "serialization", "cli")
METHODS = {
    "contexts.context_init": ("Context", "__init__"),
    "contexts.poset_init": ("ContextPoset", "__init__"),
    "contexts.restriction_index": ("ContextPoset", "restriction_index"),
}


def _ids(args, kwargs, result):
    return [c.id for c in result] if isinstance(result, tuple) else [result.id]


def _seeds_and_poset(args, kwargs, result):
    seeds = args[0] if args else kwargs["seeds"]
    return {c.id for c in seeds}, result


# Spans whose arguments or results the derived counts need, and what to keep.
KEEP = {
    "contexts.build_poset": _seeds_and_poset,
    "contexts.coarsenings": _ids,
    "contexts.intersect": _ids,
    "operators.operator_arrow": lambda args, kwargs, result: result,
    "states.check_containment": lambda args, kwargs, result: result,
    "presheaf.global_sections": lambda args, kwargs, result: len(result),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.kept: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span_name, fn):
        code = len(self.names)
        self.names.append(span_name)
        keep = KEEP.get(span_name)
        tracer, stack = self, self._stack
        name, parent, op = self.name, self.parent, self.op
        start, end, child, kept = self.start, self.end, self.child, self.kept

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if keep is not None:
                kept[idx] = keep(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, callers=()):
        """Wrap the layer functions in every toposq module and in ``callers``,
        the benchmark modules that imported them by name."""
        modules = {layer: importlib.import_module(f"toposq.{layer}") for layer in LAYERS}
        holders = [m for n, m in list(sys.modules.items()) if n == "toposq" or n.startswith("toposq.")]
        holders += callers
        for layer, module in modules.items():
            attrs = list(getattr(module, "__all__", ()))
            if layer == "cli":
                attrs += [a for a in vars(module) if a.startswith("cmd_")]
            for attr in attrs:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, key, wrapper)
        for span_name, (cls_name, attr) in METHODS.items():
            cls = getattr(modules["contexts"], cls_name)
            self._patch(cls, attr, self._wrap(span_name, getattr(cls, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        origin = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - origin,
            end=np.frombuffer(self.end, dtype=np.float64) - origin,
        )


class Spans:
    """Numpy views of a tracer's spans with the derived per-span quantities.

    ``op_scale[i]`` multiplies every duration in operation ``i``."""

    def __init__(self, tracer: Tracer, op_scale):
        self.tracer = tracer
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        op = np.frombuffer(tracer.op, dtype=np.int32)
        if len(op) and op.min() < 0:
            raise ValueError("a span ran outside any operation")
        scale = np.asarray(op_scale, dtype=np.float64)[op]
        start = np.frombuffer(tracer.start, dtype=np.float64)
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64) - start) * scale
        self.self_time = self.dur - np.frombuffer(tracer.child, dtype=np.float64) * scale
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)
        self.layer = layer_of_name[self.name]

    def codes(self, names):
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, names):
        return np.isin(self.name, self.codes(names))

    def _ancestor_flag(self, member):
        """For every span, whether some strict ancestor satisfies member."""
        flag = np.zeros(len(self.name), dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return flag
            flag[live] |= member[anc[live]]
            anc[live] = self.parent[anc[live]]

    def calls(self, name):
        return int(self.mask([name]).sum())

    def self_s(self, name):
        return float(self.self_time[self.mask([name])].sum())

    def outer_s(self, names):
        """Summed duration of the named spans that have no named ancestor."""
        member = self.mask(names)
        return float(self.dur[member & ~self._ancestor_flag(member)].sum())

    def inside(self, name, ancestor):
        return int((self.mask([name]) & self._ancestor_flag(self.mask([ancestor]))).sum())

    def attributed_layer(self):
        """Layer charged with each span: its own, except that linalg kernels
        are charged to the nearest calling span outside linalg."""
        linalg = LAYERS.index("linalg")
        owner = np.arange(len(self.name))
        anc = self.parent.copy()
        todo = self.layer[owner] == linalg
        while True:
            step = todo & (anc >= 0)
            if not step.any():
                break
            owner[step] = anc[step]
            todo = step & (self.layer[owner] == linalg)
            anc[step] = self.parent[anc[step]]
        return self.layer[owner]

    def kept(self, name):
        codes = self.codes([name])
        return [v for k, v in sorted(self.tracer.kept.items()) if self.name[k] in codes]


def layer_table(spans: Spans, wall: float):
    """Per layer: calls, self time, attributed time and their shares of the
    traced wall time."""
    attributed = spans.attributed_layer()
    table = {}
    for k, layer in enumerate(LAYERS):
        mine = spans.layer == k
        self_s = float(spans.self_time[mine].sum())
        attr_s = float(spans.self_time[attributed == k].sum())
        table[layer] = {
            "calls": int(mine.sum()),
            "self_s": self_s,
            "attributed_s": attr_s,
            "self_share": self_s / wall,
            "attributed_share": attr_s / wall,
        }
    return table


def layer_metrics(spans: Spans):
    """The per-layer metrics, named as in the benchmark's README."""
    m = {}
    for fn in ("operator_norm", "proj_leq", "eigenstructure", "spectral_family"):
        m[f"linalg.{fn}.calls"] = spans.calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = spans.self_s(f"linalg.{fn}")
    m["linalg.canonical_projection.calls"] = spans.calls("linalg.canonical_projection")

    builds = spans.kept("contexts.build_poset")
    n_contexts = sum(len(poset) for _, poset in builds)
    n_pairs = sum(len(poset.strict_pairs()) for _, poset in builds)
    new = _new_contexts(spans)
    m["contexts.build_poset.s"] = spans.outer_s(["contexts.build_poset"])
    m["contexts.poset_init.s"] = spans.outer_s(["contexts.poset_init"])
    m["contexts.includes.calls"] = spans.calls("contexts.includes")
    m["contexts.includes.hit_ratio"] = _ratio(n_pairs, m["contexts.includes.calls"])
    m["contexts.coarsenings.s"] = spans.outer_s(["contexts.coarsenings"])
    m["contexts.coarsenings.new_ratio"] = _ratio(*new["contexts.coarsenings"])
    m["contexts.intersect.calls"] = spans.calls("contexts.intersect")
    m["contexts.intersect.s"] = spans.outer_s(["contexts.intersect"])
    m["contexts.intersect.new_ratio"] = _ratio(*new["contexts.intersect"])
    m["contexts.context_init.calls"] = spans.calls("contexts.context_init")
    m["contexts.restriction_index.calls"] = spans.calls("contexts.restriction_index")
    m["contexts.n_contexts"] = n_contexts
    m["contexts.n_strict_pairs"] = n_pairs

    m["presheaf.global_sections.s"] = spans.outer_s(["presheaf.global_sections"])
    m["presheaf.global_sections.sections"] = sum(spans.kept("presheaf.global_sections"))
    m["presheaf.global_sections.lookups"] = spans.inside(
        "contexts.restriction_index", "presheaf.global_sections"
    )
    for fn in ("restrict", "evaluate"):
        m[f"presheaf.{fn}.calls"] = spans.calls(f"presheaf.{fn}")
        m[f"presheaf.{fn}.self_s"] = spans.self_s(f"presheaf.{fn}")

    for fn in ("outer_projection", "inner_projection"):
        m[f"daseinisation.{fn}.calls"] = spans.calls(f"daseinisation.{fn}")
        m[f"daseinisation.{fn}.self_s"] = spans.self_s(f"daseinisation.{fn}")
    m["daseinisation.daseinise_projection.s"] = spans.outer_s(["daseinisation.daseinise_projection"])

    m["operators.operator_arrow.s"] = spans.outer_s(["operators.operator_arrow"])
    for fn in ("inner_operator", "outer_operator"):
        m[f"operators.{fn}.calls"] = spans.calls(f"operators.{fn}")
        m[f"operators.{fn}.s"] = spans.outer_s([f"operators.{fn}"])
    m["operators.arrow_intervals"] = sum(
        len(pair.intervals())
        for arrow in spans.kept("operators.operator_arrow")
        for v in arrow.poset
        for pair in arrow.pairs(v)
    )

    reports = spans.kept("states.check_containment")
    for fn in ("pseudo_state", "value", "check_containment"):
        m[f"states.{fn}.s"] = spans.outer_s([f"states.{fn}"])
    m["states.report_rows"] = sum(len(r.rows) for r in reports)
    m["states.violations"] = sum(len(r.violations) for r in reports)

    m["serialization.to_doc.s"] = spans.outer_s([n for n in spans.names if n.endswith("_to_doc")])
    m["serialization.load.s"] = spans.outer_s(
        [n for n in spans.names if n.startswith("serialization.load_")]
    )
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def _new_contexts(spans: Spans):
    """(new, generated) context counts per generator inside each build_poset:
    a generated context is new when no seed or earlier output had its id."""
    counts = {"contexts.coarsenings": [0, 0], "contexts.intersect": [0, 0]}
    build = spans.codes(["contexts.build_poset"])
    gens = {code: spans.names[code] for code in spans.codes(list(counts))}
    seen = set()
    for idx in sorted(spans.tracer.kept):
        code = spans.name[idx]
        if code in build:
            seen = set(spans.tracer.kept[idx][0])
        elif code in gens:
            for cid in spans.tracer.kept[idx]:
                counts[gens[code]][1] += 1
                if cid not in seen:
                    counts[gens[code]][0] += 1
                    seen.add(cid)
    return counts
