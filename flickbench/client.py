"""One workload run in a fresh interpreter; started by ``run.py``.

    python3 client.py --workload W --seed N --seconds S --trace 0|1 \\
        --phase setup|measure --out DIR

Prints ``READY`` once the workload is ready (the first correct reply on
every stack it uses, or for ``compile`` the first interface compiled
and loaded); ``run.py`` times set-up up to that line.  In the
``measure`` phase it then does the workload's fixed amount of work.
Finally it prints ``RESULT <json>`` and exits.

Each run does a fixed count of operations derived from ``--seconds``
(not a duration): a faster program finishes sooner, and does not do
more work that would then read as a memory or CPU regression.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import subprocess
import sys
import time

import common
import tracing

now = time.perf_counter_ns

#: Fixed work per second of ``--seconds``: on a 2-core Xeon host one
#: run's measured work then takes about ``--seconds``.
SMALL_CALLS_PER_S = 1800
BULK_CALLS_PER_S = 120
PIPELINED_REQUESTS_PER_S = 400
PIPELINED_BLOCKING_PER_S = 60
COMPILE_ROUNDS_PER_S = 1.6

#: Offered rate of the ``pipelined_rpc`` open loop, requests/s.  At
#: 1000/s client and server use ~0.8 CPU-s per second on a 2-core host,
#: and a neighbour's load then pushed the server into queueing (p90
#: 4.5 ms in most runs, 9-22 ms in some); at 500/s it keeps up.
PIPELINED_RATE = 500
PIPELINED_PHASE = 500
SERVE_CHECK_CALLS = 500
#: Compiles per calibrated cycle (about 0.1 s).
COMPILE_CYCLE = 10


class Failed(Exception):
    """A call raised or missed its deadline: the run stops there."""


class ServerChild:
    """The server process, driven over its stdin/stdout."""

    def __init__(self, spec):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "server.py"),
             json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self._read()
        self.pid = ready["pid"]
        self.ports = ready["ports"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited")
        return json.loads(line)

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, span_path="-"):
        try:
            if self.proc.poll() is None:
                self.command("quit " + span_path)
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def new_acc():
    """Samples of one stack.  ``calls``: ``(latency ns, scale, stolen)``;
    ``windows``: ``(calls, wall ns, scale, stolen)``, where *scale*
    converts to the reference host speed and *stolen* says whether the
    hypervisor took CPU time during the window; CPU (``*_cpu`` scaled,
    ``raw_*_cpu`` as measured) and context-switch totals."""
    return {"calls": [], "windows": [], "ops": 0, "client_cpu": 0,
            "server_cpu": 0, "raw_client_cpu": 0, "raw_server_cpu": 0,
            "client_sw": 0, "server_sw": 0}


def unstolen(acc):
    """(calls, windows) to report: those from windows in which the
    hypervisor took no CPU time (it stole 2-28 s per run in episodes,
    tripling tail latency), unless they are under a quarter of all."""
    calls = [call for call in acc["calls"] if not call[2]]
    windows = [window for window in acc["windows"] if not window[3]]
    if len(calls) < len(acc["calls"]) / 4:
        return acc["calls"], acc["windows"]
    return calls, windows


class StealWindows:
    """Splits a closed loop into windows of at least ``WINDOW_NS`` and
    flags each window in which the hypervisor's steal counter moved."""

    WINDOW_NS = 5_000_000

    def __init__(self):
        self.windows = []
        self.first = 0
        self.steal = common.steal_ticks()
        self.start = now()

    def after(self, calls, end, final=False):
        """Call after each call; *calls* completed so far, *end* its end."""
        if end - self.start < self.WINDOW_NS and not final:
            return
        steal = common.steal_ticks()
        if calls > self.first:
            self.windows.append((calls - self.first, end - self.start,
                                 steal != self.steal))
        self.first = calls
        self.steal = steal
        self.start = now()

    def flags(self):
        """Per-call stolen flags, in call order."""
        return [stolen for count, _wall, stolen in self.windows
                for _ in range(count)]


class Stack:
    """One client stack; per traced/untraced accumulators."""

    def __init__(self, plain, traced, transport):
        self.plain = plain
        self.traced = traced
        self.transport = transport
        self.acc = {flag: new_acc() for flag in (False, True)}


def client_class(module):
    for name, value in vars(module).items():
        if name.endswith("Client") and isinstance(value, type):
            return value
    raise RuntimeError("stub module has no client class")


class Workload:
    """Shared machinery: compile, server child, closed-loop blocks."""

    #: The stack the main e2e metrics describe, the stacks on the aio
    #: runtime (``runtime.*`` layers) and on the blocking one.
    primary = "aio"
    aio = ("aio",)
    blocking = ("blocking",)
    #: Whether times are scaled to the reference host speed (see
    #: :meth:`end_cycle`); false where a schedule, not CPU, sets them.
    normalize = True

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.traced = bool(args.trace)
        self.tracer = tracing.Tracer()
        self.server = None
        self.stacks = {}
        self.results = {}
        self.compiles_traced = 0
        self.planned = 0
        self.completed = 0
        self.wrong = 0
        self.stopped = None
        self.gaps = []
        self.request = 0
        self.setup_ms = {}
        self.layers = {}
        self.pending = []
        self.calibrations = []

    def scaled(self, per_second, minimum):
        return max(minimum, int(round(per_second * self.args.seconds)))

    def compile(self, name, text, backend):
        from repro import api

        result = api.compile(text, name=name, backend=backend)
        module = result.module
        if self.tracer.on:
            self.compiles_traced += 1
        self.results.setdefault((name, backend), result)
        return result, module

    def compile_schema(self):
        """Compile the workload's own schema (traced in a traced run)."""
        text, name = common.schema_source(self.schema)
        self.tracer.on = self.traced
        started = now()
        _result, self.module = self.compile(name, text, self.backend)
        if self.traced:
            tracing.install_stubs(self.tracer, self.module,
                                  tracing.CLIENT_STUB_LAYERS)
        self.setup_ms["first_compile_ms"] = (now() - started) / 1e6

    def start_server(self, endpoints):
        started = now()
        self.server = ServerChild({"trace": self.traced,
                                   "endpoints": endpoints})
        self.setup_ms["server_ready_ms"] = (now() - started) / 1e6
        return self.server.ports

    def closed_stack(self, module, port, kind):
        from repro.runtime import (AioClientTransport, CallOptions,
                                   TcpClientTransport)

        if kind == "aio":
            transport = AioClientTransport(
                "127.0.0.1", port, pool_size=1,
                options=CallOptions(deadline=common.DEADLINE_S, retry=None),
            )
            layer = "runtime.round_trip"
        else:
            transport = TcpClientTransport("127.0.0.1", port,
                                           deadline=common.DEADLINE_S)
            layer = "socket_transport.round_trip"
        cls = client_class(module)
        plain = cls(transport)
        traced = plain
        if self.traced:
            traced = cls(tracing.TimedTransport(transport, self.tracer, layer))
        return Stack(plain, traced, transport)

    def set_trace(self, on):
        if self.traced and self.tracer.on != on:
            self.tracer.on = on
            if self.server is not None:
                self.server.command("trace on" if on else "trace off")

    def snapshot(self):
        client = common.task_counters(os.getpid())
        server = (common.task_counters(self.server.pid)
                  if self.server is not None else (0, 0))
        return client, server

    def account(self, acc, before, after, calls, windows):
        """Hold a block's ``(latency, stolen)`` calls and its windows
        until its cycle's calibration ends."""
        self.pending.append((acc, before, after, calls, windows))

    def begin_cycles(self):
        self.calibration = self.calibrate()

    def calibrate(self):
        if not self.normalize:
            return common.REFERENCE_CALIBRATION_NS
        value = common.calibration_ns()
        self.calibrations.append(value)
        return value

    def end_cycle(self):
        """Scale the cycle's times to the reference host speed.

        The host's speed drifts by tens of percent within minutes; a
        fixed pure-Python calibration unit timed before and after each
        cycle (on this thread's CPU clock, so other threads cannot slow
        it) measures that speed, and every time in the cycle is
        multiplied by reference / measured.
        """
        calibration = self.calibrate()
        scale = (2 * common.REFERENCE_CALIBRATION_NS
                 / (self.calibration + calibration))
        self.calibration = calibration
        for acc, (c0, s0), (c1, s1), calls, windows in self.pending:
            acc["calls"].extend((latency, scale, stolen)
                                for latency, stolen in calls)
            acc["windows"].extend((count, wall, scale, stolen)
                                  for count, wall, stolen in windows)
            acc["ops"] += len(calls)
            acc["client_cpu"] += (c1[0] - c0[0]) * scale
            acc["server_cpu"] += (s1[0] - s0[0]) * scale
            acc["raw_client_cpu"] += c1[0] - c0[0]
            acc["raw_server_cpu"] += s1[0] - s0[0]
            acc["client_sw"] += c1[1] - c0[1]
            acc["server_sw"] += s1[1] - s0[1]
        self.pending = []

    def fail(self, what, error):
        self.stopped = "%s: %s: %s" % (what, type(error).__name__, error)
        print("flickbench: run stopped at %s" % self.stopped,
              file=sys.stderr)
        raise Failed(self.stopped)

    def run_block(self, name, calls, traced, check):
        """A closed loop over *calls* (``(op, args)``) on stack *name*."""
        stack = self.stacks[name]
        self.set_trace(traced)
        client = stack.traced if traced else stack.plain
        bound = [(getattr(client, op), args) for op, args in calls]
        replies = []
        latencies = []
        gaps = self.gaps
        tracer = self.tracer
        before = self.snapshot()
        windows = StealWindows()
        previous = now()
        for fn, args in bound:
            self.request += 1
            tracer.set_request(self.request)
            start = now()
            try:
                reply = fn(*args)
            except Exception as error:
                self.fail("%s call %d" % (name, self.request), error)
            end = now()
            latencies.append(end - start)
            gaps.append(start - previous)
            replies.append(reply)
            windows.after(len(latencies), end)
            previous = now()
        windows.after(len(latencies), previous, final=True)
        self.account(stack.acc[traced], before, self.snapshot(),
                     list(zip(latencies, windows.flags())), windows.windows)
        self.completed += len(bound)
        for (op, args), reply in zip(calls, replies):
            if not check(op, args, reply):
                self.wrong += 1
                print("flickbench: wrong %s reply on %s" % (op, name),
                      file=sys.stderr)

    def run_cycles(self, calls, size, kinds, check):
        """Closed loops over *calls* in blocks of *size*; each cycle runs
        one block on every stack in *kinds*.  In a traced run, cycles
        alternate between traced and untraced."""
        self.begin_cycles()
        cycle = size * len(kinds)
        for index, first in enumerate(range(0, len(calls), cycle)):
            traced = self.traced and index % 2 == 0
            for offset, kind in enumerate(kinds):
                start = first + offset * size
                block = calls[start:start + size]
                if block:
                    self.run_block(kind, self.prepare(block), traced, check)
            self.end_cycle()

    def prepare(self, block):
        return block

    # ------------------------------------------------------------------

    def merged(self, names, traced=False):
        acc = new_acc()
        for name in names:
            part = self.stacks[name].acc[traced]
            for key in acc:
                acc[key] += part[key]
        return acc

    def primary_acc(self, traced=False):
        return self.merged([self.primary], traced)

    def e2e(self, raw=False):
        """End-to-end metrics; *raw* gives them unscaled, for the record."""
        main = self.primary_acc()
        blocking = self.merged(self.blocking)
        calls, windows = unstolen(main)
        latencies = [latency * (1 if raw else scale)
                     for latency, scale, _stolen in calls]
        wall = sum(wall * (1 if raw else scale)
                   for _count, wall, scale, _stolen in windows)
        blocking_latencies = [latency * (1 if raw else scale)
                              for latency, scale, _stolen
                              in unstolen(blocking)[0]]
        cpu = ("raw_client_cpu", "raw_server_cpu") if raw else (
            "client_cpu", "server_cpu")
        server_kb = 0
        if self.server is not None:
            server_kb = self.server_stats["peak_rss_kb"]
        client_kb = common.proc_status_kb(os.getpid(), "VmHWM")
        return {
            "latency_p50_us": common.pct(latencies, 0.5) / 1e3,
            "latency_p90_us": common.pct(latencies, 0.9) / 1e3,
            "ops_s": sum(window[0] for window in windows) / (wall / 1e9),
            "cpu_us_per_op": (main[cpu[0]] + main[cpu[1]])
            / main["ops"] / 1e3,
            "peak_rss_MiB": (client_kb + server_kb) / 1024.0,
            "stub_kB": self.stub_bytes("py_source") / 1e3,
            "blocking_latency_p50_us": common.pct(blocking_latencies, 0.5)
            / 1e3,
        }

    def unstolen_share(self):
        """Share of the main stack's calls that the e2e metrics use."""
        main = self.primary_acc()
        return len(unstolen(main)[0]) / max(1, len(main["calls"]))

    def stub_bytes(self, field):
        return sum(len(getattr(result.stubs, field) or "")
                   for result in self.results.values())

    def compile_layers(self):
        """Per-compile compiler layer times, counts per distinct set."""
        spans = self.tracer.summary()
        compiles = max(1, self.compiles_traced)
        sets = compiles / len(self.results)
        out = {}
        for layer in ("frontends.parse", "aoi.lower", "pgen.present",
                      "mir.build", "mir.passes", "backend.generate",
                      "cemit.emit", "loader.load"):
            out[layer + "_ms"] = (spans.get(layer, {}).get("self_ns", 0)
                                  / compiles / 1e6)
        for name in ("mir.ops_built", "mir.ops_after_passes"):
            out[name] = self.tracer.counts.get(name, 0) / sets
        out["stubs.py_kB"] = self.stub_bytes("py_source") / 1e3
        out["stubs.c_kB"] = self.stub_bytes("c_source") / 1e3
        out.update(self.probe_compiles())
        return out

    def probe_compiles(self):
        """Python calls per compile and memory retained per compile."""
        from repro import api

        self.tracer.on = False
        pairs = sorted(self.results)
        texts = {key: self.source_text(key[0]) for key in pairs}

        def compile_pair(key):
            api.compile(texts[key], name=key[0], backend=key[1]).module

        calls = [tracing.count_python_calls(lambda: compile_pair(key))
                 for key in pairs]
        repeats = max(1, 40 // len(pairs))
        rss_before = common.proc_status_kb(os.getpid(), "VmRSS")
        for _ in range(repeats):
            for key in pairs:
                compile_pair(key)
        rss_after = common.proc_status_kb(os.getpid(), "VmRSS")
        return {
            "compile.py_calls": sum(calls) / len(calls),
            "compile.retained_kB_per_compile":
                (rss_after - rss_before) / (repeats * len(pairs)),
        }

    def source_text(self, name):
        return common.schema_source(self.schema)[0]

    def start_counting(self):
        """Buffer counters before the measured RPC calls."""
        from repro.encoding.buffer import buffer_counters

        self.buffers = (buffer_counters(),
                        self.server.command("stats")["buffers"])

    def report_layers(self):
        """Server statistics, and in a traced run the per-layer metrics."""
        if self.server is None:
            return
        self.server_stats = self.server.command("stats")
        if self.traced and not self.stopped:
            self.layers.update(self.runtime_layers())
            self.layers.update(self.loop_layers())
            self.layers.update(self.compile_layers())

    def runtime_layers(self):
        """Runtime, socket, encoding and wire layers from the RPC calls."""
        from repro.encoding.buffer import buffer_counters

        spans = self.tracer.summary()
        server = self.server_stats["spans"]

        def p50_us(table, layer):
            return table.get(layer, {}).get("p50_ns", 0) / 1e3

        def mean_us(table, layer):
            entry = table.get(layer)
            return entry["self_ns"] / entry["n"] / 1e3 if entry else 0.0

        aio = self.merged(self.aio)
        blocking = self.merged(self.blocking)
        calls = sum(self.merged(self.aio + self.blocking, traced)["ops"]
                    for traced in (False, True))
        buffers_before, server_buffers_before = self.buffers
        client_buf = buffer_counters()
        server_buf = self.server_stats["buffers"]
        kcalls = calls / 1e3
        counts = self.tracer.counts
        wire_calls = max(1, counts.get("wire.calls", 0))
        out = {
            "stubs.client_encode_us": mean_us(spans, "stubs.client_encode"),
            "stubs.server_decode_us": mean_us(server, "stubs.server_decode"),
            "stubs.server_encode_us": mean_us(server, "stubs.server_encode"),
            "stubs.client_decode_us": mean_us(spans, "stubs.client_decode"),
            "servant_us": mean_us(server, "servant"),
            "runtime.round_trip_us": p50_us(spans, "runtime.round_trip"),
            "runtime.server_dispatch_us":
                p50_us(server, "runtime.server_dispatch"),
            "runtime.client_ctx_switches_per_call":
                aio["client_sw"] / aio["ops"],
            "runtime.server_ctx_switches_per_call":
                aio["server_sw"] / aio["ops"],
            "runtime.client_cpu_us_per_call":
                aio["raw_client_cpu"] / aio["ops"] / 1e3,
            "runtime.server_cpu_us_per_call":
                aio["raw_server_cpu"] / aio["ops"] / 1e3,
            "socket_transport.round_trip_us":
                p50_us(spans, "socket_transport.round_trip"),
            "socket_transport.ctx_switches_per_call":
                (blocking["client_sw"] + blocking["server_sw"])
                / blocking["ops"],
            "encoding.client_buffer_allocs_per_kcall":
                (client_buf["allocations"] - buffers_before["allocations"])
                / kcalls,
            "encoding.server_buffer_allocs_per_kcall":
                (server_buf["allocations"]
                 - server_buffers_before["allocations"]) / kcalls,
            "encoding.buffer_grows_per_kcall":
                (client_buf["grows"] - buffers_before["grows"]
                 + server_buf["grows"] - server_buffers_before["grows"])
                / kcalls,
            "wire.request_bytes_per_call":
                counts.get("wire.request_bytes", 0) / wire_calls,
            "wire.reply_bytes_per_call":
                counts.get("wire.reply_bytes", 0) / wire_calls,
        }
        out["runtime.overhead_us"] = (out["runtime.round_trip_us"]
                                      - out["runtime.server_dispatch_us"])
        return out

    def loop_layers(self):
        untraced = [call[0] for call in self.primary_acc(False)["calls"]]
        traced = [call[0] for call in self.primary_acc(True)["calls"]]
        return {
            "generator.late_us": common.pct(self.gaps, 0.5) / 1e3,
            "pipelined.in_flight_mean": 1.0,
            "trace.overhead_us":
                (common.pct(traced, 0.5) - common.pct(untraced, 0.5)) / 1e3,
        }

    def close(self):
        for stack in self.stacks.values():
            if stack.transport is not None:
                stack.transport.close()
        if self.server is not None:
            path = "-"
            if self.traced:
                path = os.path.join(self.args.out, "spans-server.jsonl")
            self.server.close(path)


# ----------------------------------------------------------------------
# Closed-loop RPC workloads
# ----------------------------------------------------------------------

class RpcWorkload(Workload):
    schema = backend = servant = None

    def setup(self):
        self.compile_schema()
        ports = self.start_server([
            {"schema": self.schema, "backend": self.backend,
             "servant": self.servant, "stack": stack}
            for stack in ("aio", "blocking")
        ])
        started = now()
        for kind, port in zip(("aio", "blocking"), ports):
            self.stacks[kind] = self.closed_stack(self.module, port, kind)
        self.first_replies()
        self.setup_ms["first_reply_ms"] = (now() - started) / 1e6
        self.set_trace(False)

    def measure(self):
        calls = self.make_calls()
        self.planned = len(calls)
        self.start_counting()
        try:
            self.run_cycles(calls, self.block_size, ("aio", "blocking"),
                            self.check)
        except Failed:
            pass
        self.set_trace(False)


class SmallRpc(RpcWorkload):
    """The paper's Mail interface over IIOP (``examples/idl/mail.idl``)."""

    schema, backend, servant = "mail", "iiop", "mail"
    block_size = 100

    def first_replies(self):
        self.model = common.MailStore()
        for stack in self.stacks.values():
            reply = stack.plain.check("ready")
            if reply != self.model.check("ready"):
                raise RuntimeError("wrong first reply: %r" % (reply,))

    def make_calls(self):
        rng = common.new_rng(self.seed, "small_rpc")
        calls = []
        for index in range(self.scaled(SMALL_CALLS_PER_S, 400)):
            op = ("check", "send", "fetch")[index % 3]
            if op == "check":
                args = (common.seeded_text(rng, 4, 32),)
            elif op == "send":
                args = (common.seeded_text(rng, 8, 64), rng.randint(0, 9))
            else:
                args = (rng.randrange(1000),)
            calls.append((op, args))
        return calls

    def check(self, op, args, reply):
        return reply == getattr(self.model, op)(*args)


class BulkRpc(RpcWorkload):
    """The benchmark's Fig. 3 interface over ONC RPC/XDR."""

    schema, backend, servant = "bulk", "oncrpc-xdr", "bulk"
    block_size = 8

    def first_replies(self):
        for stack in self.stacks.values():
            if stack.plain.echo(7) != common.echo_value(7):
                raise RuntimeError("wrong first reply")

    def make_calls(self):
        """Ops round-robin; each stack gets its own stratified sizes per
        op, laid out in the order :meth:`run_cycles` splits calls."""
        self.bases = common.bulk_bases(self.module,
                                       common.new_rng(self.seed, "values"))
        rng = common.new_rng(self.seed, "sizes")
        kinds = ("aio", "blocking")
        cycles = self.scaled(BULK_CALLS_PER_S, 32) // (2 * self.block_size)
        per_op = cycles * self.block_size // len(common.BULK_OPS)
        sizes = {
            (kind, op): iter(common.stratified_sizes(
                rng, per_op, common.BULK_MIN_BYTES, common.BULK_MAX_BYTES))
            for kind in kinds for op in common.BULK_OPS
        }
        calls = []
        for _ in range(cycles):
            for kind in kinds:
                for index in range(self.block_size):
                    op = common.BULK_OPS[index % len(common.BULK_OPS)]
                    calls.append((op, (next(sizes[kind, op]),
                                       rng.getrandbits(31))))
        return calls

    def prepare(self, block):
        """Build the call arguments just before a block, so only one
        block's payload slices are alive at a time."""
        element = {"ints": common.INT_BYTES, "rects": common.RECT_BYTES,
                   "dirents": common.DIRENT_BYTES,
                   "read_ints": common.INT_BYTES}
        out = []
        for op, (size, seed) in block:
            count = max(1, size // element[op])
            if op == "read_ints":
                out.append((op, (self.module.read_args(count, seed),)))
            else:
                out.append((op, (self.bases[op][:count],)))
        return out

    def check(self, op, args, reply):
        if op == "read_ints":
            return reply == common.read_ints_values(args[0].count,
                                                    args[0].seed)
        checksum = getattr(common, op + "_checksum")
        return reply == checksum(args[0])


# ----------------------------------------------------------------------
# Open-loop pipelined RPC
# ----------------------------------------------------------------------

class PipelinedRpc(Workload):
    """Small ONC requests at a fixed offered rate over a 2-connection
    ``ConnectionPool``; the servant waits 2 ms per request."""

    primary = "open"
    aio = ("open",)
    schema, backend = "bulk", "oncrpc-xdr"
    normalize = False

    def setup(self):
        from repro.encoding import MarshalBuffer
        from repro.runtime import CallOptions, ConnectionPool

        self.compile_schema()
        ports = self.start_server([
            {"schema": self.schema, "backend": self.backend,
             "servant": "slow", "stack": stack}
            for stack in ("aio", "blocking")
        ])
        started = now()
        self.loop = asyncio.new_event_loop()
        self.pool = ConnectionPool(
            "127.0.0.1", ports[0], pool_size=2,
            options=CallOptions(deadline=common.DEADLINE_S, retry=None))
        self.buffer = MarshalBuffer()
        self.stacks["open"] = Stack(None, None, None)
        self.stacks["blocking"] = self.closed_stack(self.module, ports[1],
                                                    "blocking")
        if self.loop.run_until_complete(self.echo(7)) != common.echo_value(7):
            raise RuntimeError("wrong first reply")
        if self.stacks["blocking"].plain.echo(7) != common.echo_value(7):
            raise RuntimeError("wrong first reply")
        self.setup_ms["first_reply_ms"] = (now() - started) / 1e6
        self.set_trace(False)
        self.in_flight = 0
        self.in_flight_samples = []
        self.late = []

    async def echo(self, value):
        module = self.module
        self.request += 1
        xid = self.request
        self.tracer.set_request(xid)
        self.buffer.reset()
        module._m_req_echo(self.buffer, xid, value)
        payload = self.buffer.getvalue()
        start = now()
        reply = await self.pool.acall(payload)
        self.tracer.record("runtime.round_trip", start, now(), xid)
        self.tracer.count_wire(payload, reply)
        self.tracer.set_request(xid)
        return module._u_rep_echo(reply, module._check_reply(reply, xid))

    async def one(self, due, value, calls):
        steal = common.steal_ticks()
        try:
            reply = await self.echo(value)
        except Exception as error:
            self.stopped = self.stopped or "open-loop call: %s: %s" % (
                type(error).__name__, error)
            return
        finally:
            self.in_flight -= 1
        calls.append((now() - due, common.steal_ticks() != steal))
        self.completed += 1
        if reply != common.echo_value(value):
            self.wrong += 1

    async def phase(self, values):
        """The open loop over *values*: ``(calls, wall ns)``."""
        calls = []
        interval = 1e9 / PIPELINED_RATE
        tasks = []
        start = now()
        for index, value in enumerate(values):
            if self.stopped:
                break
            due = start + int(index * interval)
            current = now()
            if due > current:
                await asyncio.sleep((due - current) / 1e9)
                current = now()
            self.late.append(current - due)
            self.in_flight += 1
            self.in_flight_samples.append(self.in_flight)
            tasks.append(asyncio.ensure_future(
                self.one(due, value, calls)))
        await asyncio.gather(*tasks)
        return calls, now() - start

    def measure(self):
        rng = common.new_rng(self.seed, "pipelined")
        opened = self.scaled(PIPELINED_REQUESTS_PER_S, 2 * PIPELINED_PHASE)
        phases = max(2, opened // PIPELINED_PHASE)
        blocking = self.scaled(PIPELINED_BLOCKING_PER_S, 2 * phases)
        self.planned = opened + blocking
        values = [rng.getrandbits(31) for _ in range(opened)]
        calls = [("echo", (rng.getrandbits(31),)) for _ in range(blocking)]
        self.start_counting()
        per_phase = -(-opened // phases)
        per_block = -(-blocking // phases)
        check = (lambda op, args, reply:
                 reply == common.echo_value(args[0]))
        try:
            self.begin_cycles()
            for index in range(phases):
                traced = self.traced and index % 2 == 0
                self.set_trace(traced)
                chunk = values[index * per_phase:(index + 1) * per_phase]
                before = self.snapshot()
                # The offered rate, not the host, sets the rate: every
                # phase counts towards ops_s.
                samples, wall = self.loop.run_until_complete(
                    self.phase(chunk))
                self.account(self.stacks["open"].acc[traced], before,
                             self.snapshot(), samples,
                             [(len(samples), wall, False)])
                if self.stopped:
                    raise Failed(self.stopped)
                block = calls[index * per_block:(index + 1) * per_block]
                self.run_block("blocking", block, traced, check)
                self.end_cycle()
        except Failed:
            pass
        self.set_trace(False)

    def loop_layers(self):
        out = super().loop_layers()
        out["generator.late_us"] = common.pct(self.late, 0.5) / 1e3
        out["pipelined.in_flight_mean"] = (sum(self.in_flight_samples)
                                           / len(self.in_flight_samples))
        return out

    def close(self):
        if getattr(self, "pool", None) is not None:
            self.loop.run_until_complete(self.pool.aclose())
            self.loop.close()
        super().close()


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------

class CompileWorkload(Workload):
    """Every example schema and the four bench schemas on four back ends."""

    primary = "compile"
    aio = ("aio:oncrpc-xdr", "aio:iiop")
    blocking = ("blocking:oncrpc-xdr", "blocking:iiop")

    def setup(self):
        rng = common.new_rng(self.seed, "compile")
        self.rng = rng
        corpus = common.compile_corpus()
        self.texts = dict(corpus)
        self.pairs = [(name, backend) for name, _text in corpus
                      for backend in common.COMPILE_BACKENDS]
        rng.shuffle(self.pairs)
        started = now()
        name, backend = self.pairs[0]
        self.first = {self.pairs[0]: self.compile(
            name, self.texts[name], backend)[0].stubs.py_source}
        self.setup_ms["first_compile_ms"] = (now() - started) / 1e6
        self.stacks["compile"] = Stack(None, None, None)

    def source_text(self, name):
        return self.texts[name]

    def measure(self):
        """Compile rounds; after the first, the round's bench stubs are
        served, and one serve-check block runs in each later cycle so
        its calls are spread over the run like the compiles."""
        rounds = self.scaled(COMPILE_ROUNDS_PER_S, 2)
        self.planned = rounds * len(self.pairs) + 4 * SERVE_CHECK_CALLS
        if self.traced:
            tracing.install_compiler(self.tracer)
        try:
            self.begin_cycles()
            serve = None
            for index in range(rounds):
                traced = self.traced and index % 2 == 0
                self.set_trace(traced)
                self.rng.shuffle(self.pairs)
                modules = self.compile_round(self.pairs, traced, serve)
                if index == 0:
                    self.set_trace(False)
                    self.check_wire(modules)
                    serve = self.start_serving(modules, rounds - 1)
            for kind, block in serve:
                self.run_block(kind, block, False, self.check_serve)
            self.end_cycle()
        except Failed:
            pass
        self.set_trace(False)

    @staticmethod
    def check_serve(op, args, reply):
        return reply is None

    def compile_round(self, pairs, traced, serve):
        """Compile and load every pair; a cycle per ``COMPILE_CYCLE``,
        each with the next serve-check block when *serve* is given."""
        modules = {}
        sources = {}
        for first in range(0, len(pairs), COMPILE_CYCLE):
            self.compile_block(pairs[first:first + COMPILE_CYCLE], traced,
                               modules, sources)
            for kind, block in itertools.islice(serve or (), 1):
                self.run_block(kind, block, traced, self.check_serve)
            self.end_cycle()
        if traced:
            self.compiles_traced += len(pairs)
        for key, source in sources.items():
            if self.first.setdefault(key, source) != source:
                self.wrong += 1
                print("flickbench: %s/%s compiled to different source"
                      % key, file=sys.stderr)
        return modules

    def compile_block(self, pairs, traced, modules, sources):
        from repro import api

        latencies = []
        before = self.snapshot()
        windows = StealWindows()
        previous = now()
        for key in pairs:
            name, backend = key
            start = now()
            try:
                result = api.compile(self.texts[name], name=name,
                                     backend=backend)
                modules[key] = result.module
            except Exception as error:
                self.fail("compile %s/%s" % key, error)
            end = now()
            latencies.append(end - start)
            self.gaps.append(start - previous)
            sources[key] = result.stubs.py_source
            self.results[key] = result
            windows.after(len(latencies), end)
            previous = now()
        windows.after(len(latencies), previous, final=True)
        self.account(self.stacks["compile"].acc[traced], before,
                     self.snapshot(), list(zip(latencies, windows.flags())),
                     windows.windows)
        self.completed += len(pairs)

    def check_wire(self, modules):
        """The generated request for each bench op must equal the
        interpretive codec's encoding of the same seeded values."""
        from repro.encoding import FORMATS, MarshalBuffer
        from repro.pres import InterpretiveCodec
        from repro.pres.values import normalize

        formats = {"iiop": "cdr-be", "oncrpc-xdr": "xdr",
                   "mach3": "mach3", "fluke": "fluke"}
        rng = common.new_rng(self.seed, "wire")
        for key, module in sorted(modules.items()):
            if not key[0].startswith("bench."):
                continue
            presc = self.results[key].presc
            codec = InterpretiveCodec(FORMATS[formats[key[1]]],
                                      presc.pres_registry,
                                      presc.mint_registry)
            values = {"ints": [rng.getrandbits(31) for _ in range(64)]}
            if hasattr(module, "_m_req_rects"):
                rect, coord = (getattr(module, "Bench_Rect", None)
                               or module.rect,
                               getattr(module, "Bench_Coord", None)
                               or module.coord)
                values["rects"] = [
                    rect(coord(*[rng.getrandbits(31) for _ in "xy"]),
                         coord(*[rng.getrandbits(31) for _ in "xy"]))
                    for _ in range(8)
                ]
            for op, value in values.items():
                generated = MarshalBuffer()
                getattr(module, "_m_req_" + op)(generated, 7, value)
                generated = generated.getvalue()
                stub = presc.stub_named(op)
                field = stub.request_pres.fields[0].name
                if not self.body_matches(codec, stub, field,
                                         normalize(value), generated):
                    self.wrong += 1
                    print("flickbench: %s/%s %s request differs from the "
                          "interpretive codec" % (key + (op,)),
                          file=sys.stderr)

    @staticmethod
    def body_matches(codec, stub, field, value, generated):
        """True when the body after some header length equals the
        interpretive encoding made at that same offset (alignment)."""
        from repro.encoding import MarshalBuffer

        guess = len(generated) - len(
            codec.encode(stub.request_pres, {field: value}).getvalue())
        for header in range(max(0, guess - 8), guess + 9):
            buffer = MarshalBuffer()
            buffer.reserve(header)
            codec.encode(stub.request_pres, {field: value}, buffer)
            if buffer.getvalue()[header:] == generated[header:]:
                return True
        return False

    def start_serving(self, modules, rounds):
        """Serve the bench stubs on both stacks and both protocols; they
        must interoperate with a separately compiled server.  Returns
        an iterator over ``(stack, calls)`` blocks, one per cycle of the
        remaining *rounds*."""

        targets = (("bench_onc", "oncrpc-xdr", "bench.x"),
                   ("bench_corba", "iiop", "bench.idl"))
        endpoints = [{"schema": schema, "backend": backend,
                      "servant": "bench", "stack": stack}
                     for schema, backend, _name in targets
                     for stack in ("aio", "blocking")]
        ports = iter(self.start_server(endpoints))
        started = now()
        names = []
        for _schema, backend, name in targets:
            module = modules[(name, backend)]
            if self.traced:
                tracing.install_stubs(self.tracer, module,
                                      tracing.CLIENT_STUB_LAYERS)
            for kind in ("aio", "blocking"):
                stack_name = "%s:%s" % (kind, backend)
                self.stacks[stack_name] = self.closed_stack(
                    module, next(ports), kind)
                self.stacks[stack_name].plain.ints([1, 2, 3])
                names.append(stack_name)
        self.setup_ms["first_reply_ms"] = (now() - started) / 1e6
        rng = common.new_rng(self.seed, "serve")
        calls = [("ints", ([rng.getrandbits(31)
                            for _ in range(rng.randint(1, 64))],))
                 for _ in range(len(names) * SERVE_CHECK_CALLS)]
        self.start_counting()
        cycles = max(len(names), rounds * -(-len(self.pairs)
                                            // COMPILE_CYCLE))
        size = -(-len(calls) // cycles)
        return iter([(names[index % len(names)],
                      calls[index * size:(index + 1) * size])
                     for index in range(-(-len(calls) // size))])



WORKLOADS = {
    "small_rpc": SmallRpc,
    "bulk_rpc": BulkRpc,
    "pipelined_rpc": PipelinedRpc,
    "compile": CompileWorkload,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    # Set-up trials are never traced: they time set-up as users see it.
    args.trace = args.trace if args.phase == "measure" else 0

    started = now()
    import repro.api  # noqa: F401  (the import is what is timed)
    import repro.runtime  # noqa: F401

    workload = WORKLOADS[args.workload](args)
    workload.setup_ms["import_ms"] = (now() - started) / 1e6
    if args.trace and args.workload != "compile":
        tracing.install_compiler(workload.tracer)
    try:
        workload.setup()
        print("READY", flush=True)
        result = {"setup_ms": workload.setup_ms}
        if args.phase == "measure":
            workload.measure()
            workload.report_layers()
            result.update({
                "planned": workload.planned,
                "completed": workload.completed,
                "wrong": workload.wrong,
                "stopped": workload.stopped,
                "e2e": workload.e2e() if not workload.stopped else {},
                "e2e_raw": workload.e2e(raw=True)
                if not workload.stopped else {},
                "calibration_ns": common.median(workload.calibrations),
                "unstolen_share": workload.unstolen_share()
                if not workload.stopped else 0,
                "layers": workload.layers,
            })
    finally:
        workload.close()
    if args.trace and args.phase == "measure":
        workload.tracer.write(os.path.join(args.out, "spans-client.jsonl"))
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
