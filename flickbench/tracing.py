"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits :mod:`repro`; it swaps timing wrappers in
for the public entry points of each layer (front ends, presentation
generator, MIR build and passes, back end, C emitter, loader), for the
generated stub module's codec entries, and for the transport, dispatch
function and servant it hands to the runtime.  Every wrapper records a
span only while :attr:`Tracer.on` is set, so a traced run can alternate
traced and untraced blocks and report the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time

now = time.perf_counter_ns

#: Stub-module entry prefixes and the layer each one belongs to.
CLIENT_STUB_LAYERS = (("_m_req_", "stubs.client_encode"),
                      ("_u_rep_", "stubs.client_decode"))
SERVER_STUB_LAYERS = (("_u_req_", "stubs.server_decode"),
                      ("_m_rep_ok_", "stubs.server_encode"))


class Tracer:
    """In-memory spans: ``(request id, layer, start ns, end ns, self ns)``.

    A span's self time is its duration minus the time its child spans
    (nested calls on the same thread) cover.
    """

    def __init__(self):
        self.on = False
        self.spans = []
        self.counts = {}
        self._local = threading.local()

    def set_request(self, request):
        self._local.request = request

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, after=None):
        """*fn* timed as *layer*; *after(result)* may count its output."""
        tracer = self

        def timed(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                tracer.spans.append((
                    getattr(tracer._local, "request", 0), layer, start, end,
                    end - start - child,
                ))
            if after is not None:
                after(result)
            return result

        timed.__wrapped__ = fn
        return timed

    def record(self, layer, start, end, request):
        """A span timed by the caller (an awaited call, which may
        overlap others on one thread and so has no nesting)."""
        if self.on:
            self.spans.append((request, layer, start, end, end - start))

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_wire(self, request, reply):
        if self.on:
            self.count("wire.request_bytes", len(request))
            self.count("wire.reply_bytes", len(reply))
            self.count("wire.calls", 1)

    def summary(self):
        """``{layer: {"n", "self_ns", "p50_ns"}}`` over recorded spans."""
        durations = {}
        self_ns = {}
        for _request, layer, start, end, own in self.spans:
            durations.setdefault(layer, []).append(end - start)
            self_ns[layer] = self_ns.get(layer, 0) + own
        out = {}
        for layer, values in durations.items():
            values.sort()
            out[layer] = {
                "n": len(values),
                "self_ns": self_ns[layer],
                "p50_ns": values[len(values) // 2],
            }
        return out

    def write(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def patch(tracer, owner, name, layer, after=None):
    setattr(owner, name, tracer.wrap(layer, getattr(owner, name), after))


def count_ops(ops):
    """MIR ops, counting the bodies of loop and list ops too."""
    from repro.mir.ops import Op

    total = 0
    for op in ops:
        total += 1
        for value in vars(op).values():
            if isinstance(value, list) and value and isinstance(value[0], Op):
                total += count_ops(value)
    return total


def program_ops(program):
    return sum(count_ops(fn.ops) for fn in program.functions)


def install_compiler(tracer):
    """Wrap the compiler's layer entry points (process-wide)."""
    from repro import frontends
    from repro.backend import base as backend_base
    from repro.backend import cemit
    from repro.core import loader
    from repro.mir import build, passes
    from repro.pgen import base as pgen_base

    # For the conjoined MIG front end ``lower`` yields PRES_C, so its
    # presentation work is counted under aoi.lower.
    for fe in frontends.all_frontends():
        frontends.register(dataclasses.replace(
            fe,
            parse=tracer.wrap("frontends.parse", fe.parse),
            lower=tracer.wrap("aoi.lower", fe.lower),
        ))
    patch(tracer, pgen_base.PresentationGenerator, "generate",
          "pgen.present")
    patch(tracer, build, "build_program", "mir.build",
          lambda program: tracer.count("mir.ops_built",
                                       program_ops(program)))
    patch(tracer, passes.PassManager, "run", "mir.passes",
          lambda program: tracer.count("mir.ops_after_passes",
                                       program_ops(program)))
    patch(tracer, backend_base.OptimizingBackEnd, "generate",
          "backend.generate")
    patch(tracer, cemit, "emit_c_stubs", "cemit.emit")
    patch(tracer, loader, "load_stub_module", "loader.load")


def install_stubs(tracer, module, layers):
    """Swap timing wrappers into a stub module's codec entries; the
    generated proxies and handlers look them up at call time."""
    for name, value in list(vars(module).items()):
        for prefix, layer in layers:
            if name.startswith(prefix) and callable(value):
                setattr(module, name, tracer.wrap(layer, value))


class TimedTransport:
    """A transport whose ``call`` is a span carrying wire byte counts."""

    def __init__(self, inner, tracer, layer):
        self._tracer = tracer
        self._call = tracer.wrap(layer, inner.call)

    def call(self, request):
        reply = self._call(request)
        self._tracer.count_wire(request, reply)
        return reply


def count_python_calls(fn):
    """Run *fn* under ``sys.setprofile``; return its Python call count."""
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]
