"""Span tracer that wraps weylruns layer functions from outside the package.

Each layer maps to candidate functions, named by module and attribute.  A
candidate that the loaded code no longer has is recorded as absent rather
than raising, so the tracer keeps working after a refactor deletes or
renames a function.  Installing the tracer rebinds every `weylruns` module
attribute that holds the candidate, so `from x import f` copies are wrapped
too; uninstalling puts the originals back.

A span records layer, name, parent, thread, phase, iteration, start, end and
busy time.  For a plain call busy time is end - start.  A generator gets one
span per generator object whose busy time is the sum of its `next()` steps,
so the consumer's work between steps is not charged to it.  Self time is busy
time minus the busy time of child spans in the same thread; children that run
in worker threads are concurrent and are not subtracted.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from statistics import median

CALL, GEN, SPLIT = "call", "gen", "split"


def _oracle(kind, *names):
    return [("weylruns.oracle", name, kind) for name in names]


def _python_walk_words(args, _kwargs):
    # _scan_*_python(n, lo, hi): the words walked are the index range.
    if len(args) >= 3 and isinstance(args[1], int) and isinstance(args[2], int):
        return args[2] - args[1]
    return 0


# layer -> candidates (module, attribute path, kind).  "*" expands to every
# function defined in the module.  Layer names are the benchmark's metric names.
LAYERS = {
    "perm_core.iter_group": [("weylruns.perm_core", "iter_group", GEN)],
    "oracle.gen": _oracle(GEN, "_perm_blocks", "_signed_blocks"),
    "oracle.kernel": _oracle(CALL, "_scan_a_numpy", "_scan_b_numpy", "_subset_scan_numpy", "_stats_word_block"),
    "oracle.decode": _oracle(CALL, "_decode_a", "_decode_b"),
    "oracle.split": _oracle(SPLIT, "_run_split"),
    "oracle.python_walk": _oracle(CALL, "_scan_a_python", "_scan_b_python", "_subset_scan_python"),
    "oracle.cache": _oracle(CALL, "joint_a", "joint_b", "_subset_scan"),
    "oracle.marginal": _oracle(CALL, "_sum_a", "_sum_b"),
    "oracle.subset_scan": _oracle(CALL, "scan_subsets"),
    "oracle.snake_walk": _oracle(CALL, "snake_words_b"),
    "closed_forms": [("weylruns.closed_forms", "*", CALL)],
    "series": [("weylruns.series", "*", CALL)]
    + [("weylruns.series", f"Series.{m}", CALL) for m in ("__mul__", "__rmul__", "__truediv__", "scale_arg")],
    "poly": [("weylruns.poly", f"{c}.{m}", CALL) for c in ("UniPoly", "BiPoly")
                                      for m in ("__mul__", "__rmul__", "__pow__")]
    + [("weylruns.poly", name, CALL) for name in (
        "BiPoly.substitute_diag", "one_plus_t_multiplicity", "moment_check", "poly_to_json", "poly_from_json")],
    "cli": [("weylruns.cli", name, CALL) for name in ("build_parser", "cmd_dist", "cmd_verify", "cmd_table", "_render_poly")],
}
WORD_COUNTERS = {"oracle.python_walk": _python_walk_words}

# Registry checks get one span each, named "verify.<id>".
VERIFY_MODULE, VERIFY_REGISTRY = "weylruns.verify", "REGISTRY"


@dataclasses.dataclass
class Span:
    sid: int
    parent: "Span | None"
    layer: str
    name: str
    phase: str | None
    iteration: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0
    child: float = 0.0
    nchild: int = 0
    words: int = 0
    nbytes: int = 0

    @property
    def self_s(self) -> float:
        return self.busy - self.child

    def to_json(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent.sid if self.parent else None,
            "layer": self.layer, "name": self.name, "phase": self.phase,
            "iteration": self.iteration, "thread": self.thread,
            "start": self.start, "end": self.end, "busy": self.busy, "self": self.self_s,
            "words": self.words, "bytes": self.nbytes,
        }


class Tracer:
    """Collects spans in memory while installed; `write` dumps them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self.phase: str | None = None
        self.iteration = 0
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _new(self, layer: str, name: str, parent: Span | None = None) -> Span:
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        sp = Span(next(self._ids), parent, layer, name, self.phase, self.iteration, threading.get_ident())
        self.spans.append(sp)
        return sp

    def _charge(self, sp: Span, dt: float) -> None:
        sp.busy += dt
        p = sp.parent
        if p is not None and p.thread == sp.thread:
            p.child += dt
            p.nchild += 1

    def _open(self, layer: str, name: str, parent: Span | None = None) -> Span:
        sp = self._new(layer, name, parent)
        self._stack().append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()
        self._charge(sp, sp.end - sp.start)

    # ------------------------------------------------------------ wrappers

    def _wrap_call(self, fn, layer: str, name: str):
        counter = WORD_COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(layer, name)
            if counter is not None:
                sp.words = counter(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sp)

        return wrapper

    def _wrap_gen(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            sp = None
            try:
                while True:
                    if sp is None:
                        sp = self._new(layer, name)
                    st = self._stack()
                    st.append(sp)
                    t0 = time.perf_counter()
                    if not sp.start:
                        sp.start = t0
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        sp.end = time.perf_counter()
                        st.pop()
                        self._charge(sp, sp.end - t0)
                    shape = getattr(item, "shape", None)
                    sp.words += shape[0] if shape else 1
                    sp.nbytes += getattr(item, "nbytes", 0)
                    yield item
            finally:
                it.close()

        return wrapper

    def _wrap_split(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(part_fn, *args, **kwargs):
            split = self._open(layer, name)

            def part(*a, **k):
                sp = self._open(layer, "part", parent=split)
                try:
                    return part_fn(*a, **k)
                finally:
                    self._close(sp)

            try:
                return fn(part, *args, **kwargs)
            finally:
                self._close(split)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self) -> None:
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "weylruns" or name.startswith("weylruns.")}
        for layer, candidates in LAYERS.items():
            for modname, path, kind in candidates:
                for target in self._resolve(modname, path):
                    self._patch(mods, layer, target, kind)
        self._patch_registry()

    def _resolve(self, modname: str, path: str):
        """Yield (owner, attribute, label) for the candidate, or record it absent."""
        label = f"{modname}.{path}"
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            self.absent.append(label)
            return
        if path == "*":
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    yield mod, attr, f"{modname}.{attr}"
            return
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            self.absent.append(label)
            return
        yield owner, attr, label

    def _patch(self, mods: dict, layer: str, target, kind: str) -> None:
        owner, attr, label = target
        orig = getattr(owner, attr)
        if getattr(orig, "__perfbench_wrapped__", False):
            return
        make = {CALL: self._wrap_call, GEN: self._wrap_gen, SPLIT: self._wrap_split}[kind]
        wrapped = make(orig, layer, attr)
        wrapped.__perfbench_wrapped__ = True
        self.wrapped.append(label)
        if inspect.isclass(owner):
            self._set(owner, attr, wrapped, orig)
            return
        for mod in mods.values():
            if vars(mod).get(attr) is orig:
                self._set(mod, attr, wrapped, orig)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch_registry(self) -> None:
        try:
            registry = getattr(importlib.import_module(VERIFY_MODULE), VERIFY_REGISTRY)
            entries = list(registry.items())
        except (ImportError, AttributeError):
            self.absent.append(f"{VERIFY_MODULE}.{VERIFY_REGISTRY}")
            return
        for ident, entry in entries:
            fn = getattr(entry, "fn", None)
            if fn is None or not dataclasses.is_dataclass(entry):
                self.absent.append(f"{VERIFY_MODULE}.{VERIFY_REGISTRY}[{ident}].fn")
                continue
            registry[ident] = dataclasses.replace(entry, fn=self._wrap_call(fn, "verify", f"verify.{ident}"))
            self._undo.append(lambda i=ident, e=entry: registry.__setitem__(i, e))
        self.wrapped.append(f"{VERIFY_MODULE}.{VERIFY_REGISTRY}")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ output

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "absent": sorted(set(self.absent)),
                                 "wrapped": sorted(set(self.wrapped))}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


# ---------------------------------------------------------------- metrics

def layer_metrics(spans: list[Span], iteration: int, read_phase: str, verify_ids) -> dict[str, float]:
    """Per-layer values of one traced iteration.

    Each metric reads the phase whose end-to-end figure it is meant to move:
    "cold" (the 1-worker cold job), "w2" (the 2-worker cold job) or the
    read path (`read_phase`).
    """
    mine = [s for s in spans if s.iteration == iteration]

    def select(layer, phase, name=None):
        return [s for s in mine if s.layer == layer and s.phase == phase and (name is None or s.name == name)]

    def self_s(layer, phase):
        return sum(s.self_s for s in select(layer, phase))

    out: dict[str, float] = {}
    gen = select("oracle.gen", "cold")
    top_gen = [s for s in gen if s.parent is None or s.parent.layer != "oracle.gen"]
    out["oracle.gen.s"] = sum(s.self_s for s in gen)
    out["oracle.gen.words"] = sum(s.words for s in top_gen)
    out["oracle.gen.bytes_computed"] = sum(s.nbytes for s in top_gen)
    out["oracle.kernel.s"] = self_s("oracle.kernel", "cold")

    parts_by_split: dict[int, list[float]] = {}
    for s in select("oracle.split", "w2", "part"):
        parts_by_split.setdefault(s.parent.sid, []).append(s.busy)
    out["oracle.split.parts"] = sum(len(v) for v in parts_by_split.values())
    out["oracle.split.part_max_s"] = sum(max(v) for v in parts_by_split.values())
    out["oracle.split.part_min_s"] = sum(min(v) for v in parts_by_split.values())

    walk = select("oracle.python_walk", "cold")
    out["oracle.python_walk.s"] = sum(s.self_s for s in walk)
    out["oracle.python_walk.words"] = sum(s.words for s in walk)

    cache = select("oracle.cache", "cold")
    fills = [s for s in cache if s.nchild]
    out["oracle.cache.fills"] = len(fills)
    out["oracle.cache.hits"] = len(cache) - len(fills)
    out["oracle.cache.fill_s"] = sum(s.busy for s in fills)
    for layer in ("oracle.subset_scan", "oracle.snake_walk"):
        sel = select(layer, "cold")
        out[f"{layer}.s"] = sum(s.busy for s in sel)
        out[f"{layer}.calls"] = len(sel)
    walk = select("perm_core.iter_group", "cold")
    out["perm_core.iter_group.s"] = sum(s.self_s for s in walk)
    out["perm_core.iter_group.words"] = sum(s.words for s in walk)

    marg = select("oracle.marginal", read_phase)
    out["oracle.marginal.s"] = sum(s.self_s for s in marg)
    out["oracle.marginal.calls"] = len(marg)
    out["oracle.decode.s"] = self_s("oracle.decode", read_phase)
    for layer in ("closed_forms", "series", "poly"):
        out[f"{layer}.s"] = self_s(layer, read_phase)
    out["cli.render.s"] = self_s("cli", "cold") + (self_s("cli", read_phase) if read_phase != "cold" else 0.0)

    for ident in verify_ids:
        out[f"verify.{ident}.s"] = sum(s.busy for s in select("verify", "cold", f"verify.{ident}"))
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    keys = per_iteration[0].keys()
    return {k: median(d[k] for d in per_iteration) for k in keys}
