"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (listed in
:data:`TARGETS`) with a timer, from the benchmark's own code: no file of
the program is changed, and an untraced run installs nothing.  Every
span records its layer, start, end, parent span and request id; spans
are kept in memory and handed back when the run ends.

The client's round trip is the root span of each request.  A span
opened on a server thread with nothing open on that thread is parented
to the round trip in flight (the benchmark's client is closed-loop, so
there is exactly one).  A layer's self time is its span's duration
minus its children's; the round trip's self time is the transport
residual - the time no layer claimed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute) of every wrapped entry point.  A dotted
#: attribute is a method, patched on its class; a plain one is a module
#: function, patched everywhere the program imported it by name.
TARGETS = (
    ("service.handle", "repro.server.service", "CheckingService.handle"),
    ("service.handle_batch", "repro.server.service", "CheckingService.handle_batch"),
    ("logic.parse", "repro.logic.parser", "parse_mfcsl"),
    ("logic.rewrite", "repro.logic.rewrite", "optimize"),
    ("meanfield.trajectory", "repro.meanfield.overall_model", "MeanFieldModel.trajectory"),
    # The occupancy ODE is extended lazily past the first horizon.
    ("meanfield.trajectory", "repro.meanfield.ode", "OccupancyTrajectory._extend_to"),
    ("compiled.generator", "repro.meanfield.compiled", "CompiledGenerator.__call__"),
    ("compiled.generator", "repro.meanfield.compiled", "CompiledGenerator.batch"),
    ("compiled.generator", "repro.meanfield.compiled", "CompiledGenerator.sparse"),
    ("solver.solve_ivp", "repro.diagnostics", "robust_solve_ivp"),
    ("context.transient", "repro.checking.context", "EvaluationContext.transient_matrix"),
    ("context.transient", "repro.checking.context", "EvaluationContext.transient_apply"),
    ("csat", "repro.checking.csat", "conditional_sat"),
    ("reachability.crossing", "repro.checking.reachability", "ProbabilityCurve.crossing_times"),
    ("nested", "repro.checking.nested", "TimeVaryingUntil.curve"),
    ("nested", "repro.checking.nested", "TimeVaryingUntil.probabilities"),
    ("nested", "repro.checking.nested", "TimeVaryingUntil.sat_states_bounded"),
    ("steady", "repro.checking.steady", "steady_state_probability"),
    ("steady", "repro.checking.steady", "steady_sat_states"),
    ("steady", "repro.checking.steady", "expected_steady_state_value"),
    ("checker", "repro.checking.global_", "MFModelChecker.check_detailed"),
    ("checker", "repro.checking.global_", "MFModelChecker.value"),
    ("checker", "repro.checking.global_", "MFModelChecker.conditional_sat"),
)

#: Layer of the builder calls ``CheckingService._parse_model`` makes
#: through ``MODEL_REGISTRY`` on every request, before the cache probe.
MODEL_BUILD = "service.model_build"

#: Layer of the client's round trip (the root span of a request).
CLIENT = "client"

_START, _END, _PARENT, _REQUEST = 1, 2, 3, 4


class Tracer:
    """Span recorder; :meth:`install` wraps the layers, :meth:`uninstall`
    restores them.  Wrapped layers record only inside :meth:`request`, so
    the benchmark's own untimed checks leave no spans."""

    def __init__(self):
        self.spans: "list[list]" = []
        self.active = False
        self._local = threading.local()
        self._root = None
        self._request = None
        self._undo: "list[tuple]" = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> "tuple[list, list]":
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = [layer, time.perf_counter(), None, parent, self._request]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span, stack

    def wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span, stack = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()

        return traced

    def request(self, request_id: int):
        """Context manager: the client round trip of one request."""
        return _RequestSpan(self, request_id)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(layer, original), original)
            else:
                original = getattr(module, attribute)
                wrapped = self.wrap(layer, original)
                # Patch every binding ``from module import name`` made.
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, name, wrapped, original)
        from repro.models import MODEL_REGISTRY

        for name, builder in list(MODEL_REGISTRY.items()):
            MODEL_REGISTRY[name] = self.wrap(MODEL_BUILD, builder)
            self._undo.append((MODEL_REGISTRY, name, builder, True))

    def _patch(self, owner, name, value, original) -> None:
        setattr(owner, name, value)
        self._undo.append((owner, name, original, False))

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


class _RequestSpan:
    def __init__(self, tracer: Tracer, request_id: int):
        self.tracer = tracer
        self.request_id = request_id

    def __enter__(self):
        tracer = self.tracer
        tracer._request = self.request_id
        self.span = [CLIENT, time.perf_counter(), None, None, self.request_id]
        tracer._root = len(tracer.spans)
        tracer.spans.append(self.span)
        tracer.active = True
        return self

    def __exit__(self, *exc_info):
        self.tracer.active = False
        self.span[_END] = time.perf_counter()
        self.tracer._root = None
        self.tracer._request = None


def _child_times(spans: "list[list]") -> "list[float]":
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[_PARENT]
        if parent is not None and span[_END] is not None:
            child_time[parent] += span[_END] - span[_START]
    return child_time


def span_faults(spans: "list[list]") -> "list[tuple[int, str]]":
    """Spans that break the layer breakdown, as ``(index, reason)``.

    Self times add up to the round trips by construction, so the sum
    proves nothing on its own.  What makes the breakdown hold is that
    every span was closed, lies inside its parent's ``[start, end]``,
    belongs to its parent's request, and leaves a self time of at least
    zero - for a round trip, a transport residual of at least zero.  A
    server span that outlives its round trip, or one left open on
    another thread, fails here.
    """
    faults = []
    for i, span in enumerate(spans):
        parent = span[_PARENT]
        if span[_END] is None:
            faults.append((i, "never closed"))
        elif parent is None:
            if span[0] != CLIENT:
                faults.append((i, "outside every round trip"))
        else:
            outer = spans[parent]
            if outer[_END] is None or not (
                outer[_START] <= span[_START] and span[_END] <= outer[_END]
            ):
                faults.append((i, "not inside its parent"))
            elif span[_REQUEST] != outer[_REQUEST]:
                faults.append((i, "in another request than its parent"))
    child_time = _child_times(spans)
    for i, span in enumerate(spans):
        if span[_END] is not None and span[_END] - span[_START] < child_time[i]:
            faults.append((i, "children outlast it"))
    return faults


def layer_times(spans: "list[list]") -> "dict[str, dict[str, float]]":
    """Per layer: summed self time, summed outermost time and its count.

    Self time is a span's duration minus its children's.  Outermost
    time counts a layer's span only when no ancestor belongs to the same
    layer, so a re-entrant layer is not counted twice.  Spans never
    closed are left out (:func:`span_faults` reports them).
    """
    child_time = _child_times(spans)
    out: "dict[str, dict[str, float]]" = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "outermost": 0}
    )
    for i, span in enumerate(spans):
        if span[_END] is None:
            continue
        layer = span[0]
        duration = span[_END] - span[_START]
        entry = out[layer]
        entry["self_s"] += duration - child_time[i]
        ancestor = span[_PARENT]
        while ancestor is not None and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][_PARENT]
        if ancestor is None:
            entry["total_s"] += duration
            entry["outermost"] += 1
    return dict(out)
