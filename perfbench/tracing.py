"""Traced runs: spans around tge's public functions, counters on hot methods.

Tracer.install() wraps every public function of every tge module (a name
without a leading underscore, defined in that module) and rebinds the
wrapper wherever the original is bound: in each module namespace that
imported it with `from ... import`, and in module-level dicts such as the
CLI's handler table.  A handful of hot methods get call counters only.
uninstall() puts every original back.  Spans are kept in memory and
written to a side file by write_spans().

A span records its layer (the module), its function, its parent span and
the request it belongs to.  A layer's self time is the time of its spans
minus the time covered by their child spans.  Generator functions are
timed only while they run, not while their consumer holds them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "entropy_report", "path_counting", "graph_core", "exact_matrix",
          "laurent_algebra", "bimodule_engine", "monomial_rewriter")

# hot methods: (layer, class, method, counter name)
COUNTED_METHODS = (
    ("graph_core", "CircleGraph", "require_valid", "graph_core.require_valid.calls"),
    ("graph_core", "CircleGraph", "edge_named", "graph_core.edge_named.calls"),
    ("exact_matrix", "ExactMatrix", "__matmul__", "exact_matrix.matmul.calls"),
    ("laurent_algebra", "LaurentPoly", "__mul__", "laurent_algebra.poly_mul.calls"),
    ("laurent_algebra", "GaussianRational", "__mul__", "laurent_algebra.gr_mul.calls"),
)

STORED_SPAN_LIMIT = 50_000


class _Frame:
    __slots__ = ("span_id", "name", "layer", "start", "child")

    def __init__(self, span_id, name, layer, start):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.request = None           # id of the traced request that is running
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []  # (request, span, parent, name, start, end, self)
        self.span_count = 0
        self.calls = defaultdict(int)       # function name -> calls
        self.inclusive = defaultdict(float) # function name -> time, outermost calls only
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(int)
        self.values = defaultdict(float)    # summed payload values, e.g. radius iterations
        self.matrices = set()
        self.loop_tables = 0                # loop_table calls; the runner resets it per request
        self.present: set[str] = set()      # wrapped functions and counted methods
        self._depth = defaultdict(int)
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # installation -----------------------------------------------------------

    def modules(self):
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"tge.{layer}")
            except ImportError:
                continue
        return mods

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self.modules()
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or id(obj) in wrappers):
                    continue
                qual = f"{layer}.{obj.__name__}"
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, qual))
                self.present.add(qual)
        namespaces = [importlib.import_module("tge"), *mods.values()]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patch(ns, attr, val, wrappers[id(val)][1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._patch_item(val, key, item, wrappers[id(item)][1])
        for layer, cls_name, meth, counter in COUNTED_METHODS:
            cls = getattr(mods.get(layer), cls_name, None)
            orig = cls.__dict__.get(meth) if cls is not None else None
            if orig is None:
                continue
            self._patch(cls, meth, orig, self._count(orig, counter))
            self.present.add(counter)

    def uninstall(self) -> None:
        for kind, target, key, orig in reversed(self._patches):
            if kind == "attr":
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, target, attr, orig, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patches.append(("attr", target, attr, orig))

    def _patch_item(self, mapping, key, orig, wrapper) -> None:
        mapping[key] = wrapper
        self._patches.append(("item", mapping, key, orig))

    # wrappers ----------------------------------------------------------------

    def _count(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, layer, qual):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.active:
                    return gen
                return self._run_generator(gen, layer, qual)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(layer, qual)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame)
                self._on_error(layer, qual, exc)
                raise
            self._exit(frame)
            self._on_return(qual, args, result)
            return result
        return traced

    def _run_generator(self, gen, layer, qual):
        """Yield from gen, timing only its resumptions; one span in total."""
        self.calls[qual] += 1
        self.layer_calls[layer] += 1
        parent = self.stack[-1].span_id if self.stack else None
        span_id = self._new_span_id()
        busy = own = 0.0
        first = None
        try:
            while True:
                frame = _Frame(span_id, qual, layer, time.perf_counter())
                first = frame.start if first is None else first
                self.stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._on_error(layer, qual, exc)
                    raise
                finally:
                    self.stack.pop()
                    spent = time.perf_counter() - frame.start
                    busy += spent
                    own += spent - frame.child
                    if self.stack:
                        self.stack[-1].child += spent
                yield item
        finally:
            gen.close()
            self.layer_self[layer] += own
            self.inclusive[qual] += busy
            self._store(span_id, parent, qual, first or 0.0, (first or 0.0) + busy, own)

    def _new_span_id(self) -> int:
        self.span_count += 1
        return self.span_count

    def _enter(self, layer, qual) -> _Frame:
        frame = _Frame(self._new_span_id(), qual, layer, time.perf_counter())
        self.stack.append(frame)
        self._depth[qual] += 1
        self.calls[qual] += 1
        self.layer_calls[layer] += 1
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        self.layer_self[frame.layer] += own
        self._depth[frame.name] -= 1
        if self._depth[frame.name] == 0:
            self.inclusive[frame.name] += duration
        if self.stack:
            self.stack[-1].child += duration
        parent = self.stack[-1].span_id if self.stack else None
        self._store(frame.span_id, parent, frame.name, frame.start, end, own)

    def _store(self, span_id, parent, name, start, end, own) -> None:
        if len(self.spans) < STORED_SPAN_LIMIT:
            self.spans.append((self.request, span_id, parent, name, start - self._origin,
                               end - self._origin, own))

    def _on_error(self, layer, qual, exc) -> None:
        if getattr(exc, "_perfbench_seen", False):
            return
        try:
            exc._perfbench_seen = True
        except AttributeError:
            pass
        kind = type(exc).__name__
        if kind == "CapExceededError" and layer == "graph_core":
            self.counters["graph_core.cap_exceeded"] += 1
        if kind == "SpectralConvergenceError" and qual == "exact_matrix.spectral_radius":
            self.counters["exact_matrix.spectral_radius.failures"] += 1

    def _on_return(self, qual, args, result) -> None:
        if qual == "exact_matrix.spectral_radius":
            self.values["exact_matrix.spectral_radius.iterations"] += getattr(result, "iterations", 0)
            entries = getattr(args[0], "entries", None) if args else None
            self.matrices.add(hash(entries))
        elif qual == "monomial_rewriter.normalize":
            self.values["monomial_rewriter.normalize.terms_in"] += len(getattr(args[0], "terms", ()))
            self.values["monomial_rewriter.normalize.terms_out"] += len(getattr(result, "terms", ()))
        elif qual == "path_counting.loop_table":
            self.loop_tables += 1

    # results -----------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_recorded": self.span_count,
                                 "spans_written": len(self.spans),
                                 "fields": ["request", "span", "parent", "name",
                                            "start_s", "end_s", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
