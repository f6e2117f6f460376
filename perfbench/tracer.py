"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of the `ppl` modules with
wrappers, on every namespace that bound them: `ppl.cli` binds several engine
and kb functions at import, `kb` calls `classical.*` through the module
attribute, `engine` calls `PlausibleDescription` methods, and the package
re-exports most names.  `Tracer.uninstall()` puts the originals back.

Each wrapped call records a span (layer, start, end, parent span, query id)
into flat arrays (26 bytes a span, so the ~650k spans of a rule-ladder round
take about 17 MB), and the spans are written out once at the end.  Self time
is a call's duration minus the time covered by wrapped calls nested inside
it.  Counts are gathered at the same boundaries, so the ratios below are
measured where the work happens:

* ``clauses_out`` / ``rules_out`` / ``nodes_out`` / ``bytes_out``: size of
  what the call returned;
* ``miss_ratio``: share of calls inside which some ``classical`` call ran
  (a description-cache miss);
* ``yield_ratio``: supporters returned / rules scanned;
* ``keep_ratio``: axioms kept / clauses produced by the resolution
  closures nested inside ``build_axioms``.

`formulas` is deliberately not wrapped: `evaluate` and `Lit.complement` run
millions of times per run, so wrapping them would time the wrapper.  Their
cost shows in `classical` self time.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

# Layer name -> attribute path from the module that defines it.
LAYERS = {
    "kbtext.parse_kb": ("ppl.kbtext", "parse_kb"),
    "classical.clauses_of": ("ppl.classical", "clauses_of"),
    "classical.resolution_closure": ("ppl.classical", "resolution_closure"),
    "classical.err": ("ppl.classical", "err"),
    "classical.entails": ("ppl.classical", "entails"),
    "classical.satisfiable": ("ppl.classical", "satisfiable"),
    "kb.build_axioms": ("ppl.kb", "build_axioms"),
    "kb.build_strict_rules": ("ppl.kb", "build_strict_rules"),
    "kb.validate_description": ("ppl.kb", "validate_description"),
    "kb.is_fact": ("ppl.kb", "PlausibleDescription.is_fact"),
    "kb.supporters": ("ppl.kb", "PlausibleDescription.supporters"),
    "kb.superior_supporters": ("ppl.kb", "PlausibleDescription.superior_supporters"),
    "engine.prove": ("ppl.engine", "prove"),
    "engine.foes": ("ppl.engine", "foes"),
    "engine.truth_value": ("ppl.engine", "truth_value"),
    "engine.evaluation_tree": ("ppl.engine", "evaluation_tree"),
    "engine.tree_json": ("ppl.engine", "tree_json"),
    "engine.tree_dot": ("ppl.engine", "tree_dot"),
    "cli.main": ("ppl.cli", "main"),
}

# tree_json recurses through its own module global; wrapping that binding
# would put a wrapper frame under every tree level (halving the depth a
# user gets before RecursionError) and time the wrapper, so only the
# bindings callers use are wrapped.
_SKIP_BINDINGS = {("engine.tree_json", "ppl.engine")}

# (metric, unit) pairs reported by the traced run, in report order.
METRICS = [
    ("kbtext.parse_kb.calls", "count"),
    ("kbtext.parse_kb.self_s", "s"),
    ("classical.clauses_of.calls", "count"),
    ("classical.clauses_of.self_s", "s"),
    ("classical.clauses_of.clauses_out", "count"),
    ("classical.resolution_closure.calls", "count"),
    ("classical.resolution_closure.self_s", "s"),
    ("classical.resolution_closure.clauses_out", "count"),
    ("classical.err.self_s", "s"),
    ("kb.build_axioms.self_s", "s"),
    ("kb.build_axioms.clauses_out", "count"),
    ("kb.build_axioms.keep_ratio", "ratio"),
    ("kb.build_strict_rules.self_s", "s"),
    ("kb.build_strict_rules.rules_out", "count"),
    ("kb.validate_description.self_s", "s"),
    ("classical.entails.calls", "count"),
    ("classical.entails.self_s", "s"),
    ("classical.satisfiable.calls", "count"),
    ("classical.satisfiable.self_s", "s"),
    ("kb.is_fact.calls", "count"),
    ("kb.is_fact.self_s", "s"),
    ("kb.is_fact.miss_ratio", "ratio"),
    ("kb.supporters.calls", "count"),
    ("kb.supporters.self_s", "s"),
    ("kb.supporters.yield_ratio", "ratio"),
    ("kb.supporters.miss_ratio", "ratio"),
    ("kb.superior_supporters.calls", "count"),
    ("kb.superior_supporters.self_s", "s"),
    ("engine.prove.calls", "count"),
    ("engine.prove.self_s", "s"),
    ("engine.prove.errors", "count"),
    ("engine.foes.calls", "count"),
    ("engine.foes.self_s", "s"),
    ("engine.truth_value.calls", "count"),
    ("engine.evaluation_tree.calls", "count"),
    ("engine.evaluation_tree.self_s", "s"),
    ("engine.evaluation_tree.nodes_out", "count"),
    ("engine.evaluation_tree.errors", "count"),
    ("engine.tree_json.self_s", "s"),
    ("engine.tree_json.bytes_out", "bytes"),
    ("engine.tree_dot.self_s", "s"),
    ("engine.tree_dot.bytes_out", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
]

# Frame slots: layer index, start time, nested wrapped time, whether a
# classical call ran inside, span index, closure clauses produced inside,
# stack depth.
_LAYER, _START, _NESTED, _REACHED, _SPAN, _CLOSURE, _DEPTH = range(7)


def _count_nodes(root) -> int:
    """Distinct nodes of an evaluation DAG (shared subtrees counted once)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop().children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class Tracer:
    """Wraps the `ppl` layers, accumulates per-layer metrics, keeps spans."""

    def __init__(self):
        self.names = list(LAYERS)
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.misses = [0] * n
        self.extra: dict[str, float] = {}
        self.stack: list[list] = []
        self.query_id = -1
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self._patched: list[tuple[object, str, object]] = []
        self._classical = {i for i, name in enumerate(self.names)
                           if name.startswith("classical.")}
        self.t0 = perf_counter()

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "ppl" or name.startswith("ppl.")]
        for idx, layer in enumerate(self.names):
            modname, path = LAYERS[layer]
            owner = sys.modules[modname]
            if "." in path:  # a method: patch the class attribute
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                attr = path
                targets = namespaces
            original = getattr(owner, attr, None)
            if original is None:  # layer renamed or removed: reports zeros
                continue
            wrapper = self._wrap(original, idx, layer)
            for ns in targets:
                if (layer, getattr(ns, "__name__", "")) in _SKIP_BINDINGS:
                    continue
                if vars(ns).get(attr) is original:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # --- recording --------------------------------------------------------

    def _wrap(self, fn, idx: int, layer: str):
        post = _POST.get(layer)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, None, args, kwargs, None, True)
                raise
            leave(frame, post, args, kwargs, result, False)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _enter(self, idx: int) -> list:
        stack = self.stack
        span = len(self.span_layer)
        self.span_layer.append(idx)
        self.span_parent.append(stack[-1][_SPAN] if stack else -1)
        self.span_query.append(self.query_id)
        self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0, False, span, 0, len(stack)]
        stack.append(frame)
        start = perf_counter()
        frame[_START] = start
        self.span_start.append(start - self.t0)
        return frame

    def _leave(self, frame, post, args, kwargs, result, failed) -> None:
        end = perf_counter()
        idx = frame[_LAYER]
        self.span_end[frame[_SPAN]] = end - self.t0
        # Truncate to this frame's depth: a RecursionError can unwind
        # through an inner wrapper before it recorded its exit.
        del self.stack[frame[_DEPTH]:]
        self.calls[idx] += 1
        self.self_s[idx] += (end - frame[_START]) - frame[_NESTED]
        if failed:
            self.errors[idx] += 1
        elif post is not None:
            post(self, frame, args, kwargs, result)
        reached = frame[_REACHED] or idx in self._classical
        if frame[_REACHED]:
            self.misses[idx] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[_REACHED] = parent[_REACHED] or reached
            parent[_CLOSURE] += frame[_CLOSURE]
            # The parent's self time excludes this call and its bookkeeping.
            parent[_NESTED] += perf_counter() - frame[_START]

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    # --- reporting --------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        raw: dict[str, float] = {}
        for i, name in enumerate(self.names):
            raw[f"{name}.calls"] = self.calls[i]
            raw[f"{name}.errors"] = self.errors[i]
            raw[f"{name}.self_s"] = self.self_s[i]
            raw[f"{name}.miss_ratio"] = self.misses[i] / self.calls[i] if self.calls[i] else 0.0
        raw.update(self.extra)

        def ratio(num, den):
            return raw.get(num, 0) / raw[den] if raw.get(den) else 0.0

        raw["kb.build_axioms.keep_ratio"] = ratio(
            "kb.build_axioms.clauses_out", "kb.build_axioms.closure_clauses")
        raw["kb.supporters.yield_ratio"] = ratio(
            "kb.supporters.returned", "kb.supporters.scanned")
        raw["trace.overhead_ratio"] = overhead_ratio
        return {name: raw.get(name, 0) for name, _ in METRICS}

    def write_spans(self, path: str) -> None:
        """Header line (JSON) then the raw span arrays, in header order."""
        columns = [("layer", self.span_layer), ("start_s", self.span_start),
                   ("end_s", self.span_end), ("parent", self.span_parent),
                   ("query", self.span_query)]
        header = {
            "layers": self.names,
            "count": len(self.span_layer),
            "columns": [[name, arr.typecode, arr.itemsize] for name, arr in columns],
            "byteorder": sys.byteorder,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)


def _out(key):
    def post(tracer, frame, args, kwargs, result):
        tracer.add(key, len(result))
    return post


def _closure(tracer, frame, args, kwargs, result):
    tracer.add("classical.resolution_closure.clauses_out", len(result))
    frame[_CLOSURE] += len(result)


def _axioms(tracer, frame, args, kwargs, result):
    tracer.add("kb.build_axioms.clauses_out", len(result))
    tracer.add("kb.build_axioms.closure_clauses", frame[_CLOSURE])


def _supporters(tracer, frame, args, kwargs, result):
    desc = args[0]
    rules = args[2] if len(args) > 2 else kwargs.get("rules")
    tracer.add("kb.supporters.returned", len(result))
    tracer.add("kb.supporters.scanned", len(desc.rules if rules is None else rules))


def _tree(tracer, frame, args, kwargs, result):
    tracer.add("engine.evaluation_tree.nodes_out", _count_nodes(result))


def _cli(tracer, frame, args, kwargs, result):
    if result == 2:  # usage, parse or validation error
        tracer.errors[frame[_LAYER]] += 1


_POST = {
    "classical.clauses_of": _out("classical.clauses_of.clauses_out"),
    "classical.resolution_closure": _closure,
    "kb.build_axioms": _axioms,
    "kb.build_strict_rules": _out("kb.build_strict_rules.rules_out"),
    "kb.supporters": _supporters,
    "engine.evaluation_tree": _tree,
    "engine.tree_dot": _out("engine.tree_dot.bytes_out"),
    "cli.main": _cli,
}
