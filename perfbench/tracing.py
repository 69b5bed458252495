"""Span tracing for the benchmark's traced runs (``--trace 1``).

The traced run wraps the public functions of every layer named in
``LAYERS`` and records one span per call: name, start, end, parent
span and op id.  Spans stay in memory and are written out once, when
the run ends.  Untraced runs never import this module's wrappers, so
end-to-end numbers carry no tracing cost.

The package binds most functions with ``from ... import``, so
replacing one module attribute would miss most callers.
:func:`install` therefore replaces a function wherever a ``repro``
module binds it (its own module, re-exports and importers).

Self time of a layer is the time spent in its spans minus the time in
their child spans; summed over a layer's spans this is the layer's
time excluding nested calls into other layers (nested calls of the
same layer are counted once).  A call counts towards ``<layer>.calls``
when it enters the layer: its parent span is absent or belongs to
another layer.

Lazy properties (``Structure.bitset_index`` and friends) are traced
only when the read builds the value; a cached read is an attribute
read, not layer work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
import types
from pathlib import Path

# (module, attribute) per layer; "Class.attr" names methods,
# properties and classmethods.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "structure": (
        ("repro.core.structure", "Structure.bitset_index"),
        ("repro.core.structure", "Structure.matrix_index"),
        ("repro.core.structure", "Structure.fingerprint"),
        ("repro.core.structure", "Structure.extended"),
        ("repro.core.structure", "StructureBuilder.build"),
    ),
    "homengine": tuple(
        ("repro.core.homengine", name)
        for name in (
            "find_homomorphism",
            "has_homomorphism",
            "iter_homomorphisms",
            "covers_any",
            "evaluate_batch",
            "semiring_evaluate",
        )
    ),
    "decomp": (
        ("repro.core.decomp", "decomp_plan"),
        ("repro.core.decomp", "tree_decomposition"),
        ("repro.core.decomp", "count_decomp"),
        ("repro.core.decomp", "semiring_decomp"),
        ("repro.core.decomp", "CoverageState.cold"),
        ("repro.core.decomp", "CoverageState.extended"),
        ("repro.core.decomp", "MaskCoverageState.cold"),
        ("repro.core.decomp", "MaskCoverageState.extended"),
        ("repro.core.decomp", "ProbeCoverage.covered_by_any"),
    ),
    "cactus": (
        ("repro.core.cactus", "CactusFactory.cactus"),
        ("repro.core.cactus", "iter_cactuses"),
        ("repro.core.cactus", "build_cactus"),
    ),
    "boundedness": (
        ("repro.core.boundedness", "probe_boundedness"),
        ("repro.core.boundedness", "ucq_rewriting"),
        ("repro.core.boundedness", "ucq_certain_answers"),
    ),
    "lambda_cq": (
        ("repro.ditree.lambda_cq", "decide_lambda"),
        ("repro.ditree.lambda_cq", "analyse"),
    ),
    "classify": (
        ("repro.ditree.classify", "classify_plain"),
        ("repro.ditree.classify", "classify_disjoint"),
        ("repro.ditree.classify", "theorem11_trichotomy"),
    ),
    "dsirup": tuple(
        ("repro.core.dsirup", name)
        for name in (
            "evaluate_dsirup",
            "evaluate_exhaustive",
            "evaluate_branching",
            "evaluate_via_pi",
            "evaluate_via_cactuses",
        )
    ),
    "datalog": (
        ("repro.core.datalog", "evaluate"),
        ("repro.core.datalog", "goal_holds"),
    ),
    "runtime": tuple(
        ("repro.core.runtime", name)
        for name in (
            "parallel_screen",
            "parallel_screen_stream",
            "parallel_evaluate_batch",
            "parallel_semiring_batch",
        )
    ),
    "store": tuple(
        ("repro.core.store", "DurableStore." + name)
        for name in (
            "get",
            "put",
            "flush",
            "write_rows",
            "job_put",
            "lease_acquire",
            "lease_renew",
            "lease_release",
            "lease_get",
            "lease_list",
            "stats",
        )
    ),
    "encoding": (
        ("repro.atm.encoding", "ideal_tree_cut"),
        ("repro.atm.encoding", "desired_tree_cut"),
        ("repro.atm.encoding", "incorrect_nodes"),
        ("repro.atm.encoding", "ZeroOneTree.cut"),
        ("repro.atm.encoding", "ZeroOneTree.subtree"),
        ("repro.atm.encoding", "ZeroOneTree.with_context"),
        ("repro.atm.encoding", "ZeroOneTree.add_paths"),
        ("repro.atm.encoding", "ZeroOneTree.remove_subtree"),
    ),
    "library": tuple(
        ("repro.circuits.library", name)
        for name in (
            "build_library",
            "good_formula",
            "must_branch_formula",
            "no_branch_zero_formula",
            "no_branch_one_formula",
            "no_branch_pair_formula",
            "head_formula",
            "state_formula",
            "cell_formula",
            "same_cell_formula",
            "reject_formula",
            "accept_formula",
            "init_formula",
            "step_formula",
        )
    ),
    "gather": (
        ("repro.circuits.gather", "fires_at"),
        ("repro.circuits.gather", "gather_inputs"),
    ),
    "reduction": (
        ("repro.atm.reduction", "build_query"),
        ("repro.atm.reduction", "segment_verdict"),
        ("repro.atm.reduction", "formula_incorrectness"),
    ),
    "wire": tuple(
        ("repro.service.wire", name)
        for name in (
            "structure_from_json",
            "structure_to_json",
            "answer_to_json",
            "evaluation_to_json",
            "probe_to_json",
            "decision_to_json",
            "shard_to_json",
        )
    ),
}

# Lazy properties: the instance slot that holds the built value.  A
# read whose slot is already filled is not traced.
LAZY_SLOTS = {
    "Structure.bitset_index": "_bitset_index",
    "Structure.matrix_index": "_matrix_index",
    "Structure.fingerprint": "_fingerprint",
}

CALL, RESUME = 1, 0


class Tracer:
    """In-memory span recorder shared by every thread of a process.

    A span is ``(id, parent, fid, start, end, op, kind)``; ``fid``
    indexes :attr:`names` (``(layer, function)`` pairs), ``kind`` is
    :data:`CALL` for a call and :data:`RESUME` for one step of a
    traced generator.  ``op`` is the op id current on the thread.
    """

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.op = -1
        # Cleared once the timed phase ends: the output checks call the
        # same functions and must not count as layer work.
        self.active = True
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        return getattr(self._local, "op", self.op)

    def set_thread_op(self, op) -> None:
        self._local.op = op

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def register(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def entering(self, fid: int) -> bool:
        """Whether a call of ``fid`` now would enter its layer."""
        stack = self._stack()
        if not stack:
            return True
        return self.names[stack[-1][1]][0] != self.names[fid][0]

    def run(self, fid: int, kind: int, fn, /, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((sid, fid))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, fid, start, end, self.current_op(), kind)
            )

    def dump(self, path: Path) -> None:
        """Write names, counters and spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: Path) -> tuple[list, dict, list]:
    """Read back a :meth:`Tracer.dump` file."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    names = [tuple(n) for n in head["names"]]
    return names, head["counters"], spans


def aggregate(names: list, spans: list) -> dict[str, dict[str, float]]:
    """Per-layer ``calls`` and ``self_s`` from span records."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for sid, parent, fid, start, end, _op, _kind in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {layer: {"calls": 0, "self_s": 0.0} for layer, _ in names}
    for sid, parent, fid, start, end, _op, kind in spans:
        layer = names[fid][0]
        out[layer]["self_s"] += (end - start) - child_time.get(sid, 0.0)
        if kind == CALL:
            outer = by_id.get(parent)
            if outer is None or names[outer[2]][0] != layer:
                out[layer]["calls"] += 1
    return out


class _TracedGenerator:
    """Times each step of a generator as a RESUME span of ``fid``."""

    def __init__(self, tracer: Tracer, fid: int, gen, on_item) -> None:
        self._tracer = tracer
        self._fid = fid
        self._gen = gen
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        if not self._tracer.active:
            return next(self._gen)
        item = self._tracer.run(self._fid, RESUME, next, self._gen)
        if self._on_item is not None:
            self._on_item(item)
        return item

    def close(self):
        self._gen.close()


def _wrap_function(tracer: Tracer, fid: int, fn, post=None, on_item=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        entry = tracer.entering(fid)
        result = tracer.run(fid, CALL, fn, *args, **kwargs)
        if post is not None:
            post(result, entry)
        if isinstance(result, types.GeneratorType):
            return _TracedGenerator(tracer, fid, result, on_item)
        return result

    return traced


def _repro_modules() -> list[types.ModuleType]:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(modules, original, replacement) -> None:
    """Replace ``original`` wherever a repro module binds it."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _post_hooks(tracer: Tracer) -> dict[str, object]:
    from repro.atm.encoding import ZeroOneTree

    def nodes_built(result, entry):
        if entry and isinstance(result, ZeroOneTree):
            tracer.count("encoding.nodes_built", len(result))

    def query_nodes(result, entry):
        tracer.count("reduction.query_nodes", len(result.query))

    hooks = {
        name: nodes_built
        for module, name in LAYERS["encoding"]
        if name != "incorrect_nodes"
    }
    hooks["build_query"] = query_nodes
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYERS` (call once ``repro`` is
    importable).  A name missing from the program raises: the layer
    table must follow the program's public functions."""
    modules = _repro_modules()
    hooks = _post_hooks(tracer)
    shard_items = {"parallel_screen_stream"}
    for layer, entries in LAYERS.items():
        for module_name, qualname in entries:
            module = sys.modules[module_name]
            fid = tracer.register(layer, qualname)
            post = hooks.get(qualname)
            on_item = (
                (lambda _item: tracer.count("runtime.shards"))
                if qualname in shard_items
                else None
            )
            if "." not in qualname:
                original = getattr(module, qualname)
                wrapped = _wrap_function(tracer, fid, original, post, on_item)
                _rebind(modules, original, wrapped)
                continue
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            member = vars(cls)[attr]
            if isinstance(member, property):
                wrapped = _wrap_property(tracer, fid, member, LAZY_SLOTS.get(qualname))
            elif isinstance(member, classmethod):
                wrapped = classmethod(
                    _wrap_function(tracer, fid, member.__func__, post)
                )
            elif qualname == "CactusFactory.cactus":
                wrapped = _wrap_cactus_build(tracer, fid, member)
            else:
                wrapped = _wrap_function(tracer, fid, member, post, on_item)
            setattr(cls, attr, wrapped)
    _wrap_job_execute(tracer)


def _wrap_property(tracer: Tracer, fid: int, prop: property, slot):
    getter = prop.fget

    def traced(self):
        if not tracer.active or (
            slot is not None and getattr(self, slot, None) is not None
        ):
            return getter(self)
        return tracer.run(fid, CALL, getter, self)

    return property(traced, prop.fset, prop.fdel, prop.__doc__)


def _wrap_cactus_build(tracer: Tracer, fid: int, method):
    """``CactusFactory.cactus`` plus ``cactus.built``: a call whose
    shape is not memoised materialises a new cactus."""

    @functools.wraps(method)
    def traced(self, shape):
        if not tracer.active:
            return method(self, shape)
        memo = getattr(self, "_cactuses", None)
        if memo is None or shape not in memo:
            tracer.count("cactus.built")
        return tracer.run(fid, CALL, method, self, shape)

    return traced


def _wrap_job_execute(tracer: Tracer) -> None:
    """Make the job id the op id of spans on a service executor thread."""
    from repro.service.jobs import JobManager

    execute = JobManager._execute

    @functools.wraps(execute)
    def traced(self, job):
        tracer.set_thread_op(job.id)
        try:
            return execute(self, job)
        finally:
            tracer.set_thread_op(-1)

    JobManager._execute = traced
