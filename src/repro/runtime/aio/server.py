"""The asyncio RPC server: concurrent serving of generated stub modules.

:class:`AioTcpServer` serves the *same* generated ``dispatch`` functions
and the *same* record-marked wire traffic as the blocking
:class:`~repro.runtime.socket_transport.TcpServer`, but concurrently:

* many connections multiplex onto one event loop;
* many requests per connection run **in flight at once** (pipelining) —
  replies carry the protocol's own correlation id (ONC XID / GIOP
  request_id, echoed by the generated dispatch), so they may legally
  complete out of order and blocking clients still interoperate because a
  serial client only ever has one id outstanding;
* each dispatch runs either on a worker thread pool (safe for blocking
  servants) or inline on the loop (fastest for CPU-light servants);
* a semaphore caps in-flight requests: when full, the server stops
  *reading*, so TCP flow control pushes back on aggressive clients;
* shutdown is graceful: stop accepting, drain in-flight requests with a
  timeout, then close connections.

The server is usable from asyncio code (``await server.start_async()`` /
``await server.aclose()``) and from synchronous code (``start()`` /
``stop()`` / ``with server:`` run the event loop on a daemon thread),
mirroring the blocking servers' context-manager idiom.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.encoding.buffer import MarshalBuffer
from repro.errors import OverloadError, RuntimeFlickError, TransportError
from repro.obs import propagation, trace
from repro.runtime.framing import MAX_RECORD_SIZE, RecordDecoder, \
    encode_record
from repro.runtime.aio.correlation import probe

#: Marshal buffers retained per connection for reuse across requests.
BUFFER_POOL_LIMIT = 32

#: Socket read chunk size.
READ_CHUNK = 65536


class _Connection:
    """Per-connection serving state."""

    __slots__ = ("reader", "writer", "decoder", "write_lock", "buffers",
                 "tasks")

    def __init__(self, reader, writer, max_record_size):
        self.reader = reader
        self.writer = writer
        self.decoder = RecordDecoder(max_record_size)
        self.write_lock = asyncio.Lock()
        self.buffers = []
        self.tasks = set()

    def take_buffer(self):
        if self.buffers:
            return self.buffers.pop()
        return MarshalBuffer()

    def give_buffer(self, buffer):
        if len(self.buffers) < BUFFER_POOL_LIMIT:
            buffer.reset()
            self.buffers.append(buffer)


class AioTcpServer:
    """An asyncio server around a generated dispatch function.

    Args:
        dispatch: the stub module's ``dispatch(request, impl, buffer)``.
        impl: the servant.
        host, port: bind address; port 0 picks a free port.
        max_concurrency: cap on server-wide in-flight requests; reading
            stops while the cap is reached (backpressure).
        dispatch_mode: ``"thread"`` (default) runs each dispatch on a
            thread pool sized *max_concurrency* so blocking servants
            still interleave; ``"inline"`` runs dispatch directly on the
            event loop — fastest when servants never block.
        stats: an optional :class:`~repro.runtime.aio.stats.ServerStats`.
        op_names: optional mapping from demux keys to display names for
            stats (see :func:`repro.runtime.server.operation_names`).
        drain_timeout: seconds granted to in-flight requests at shutdown.
        max_record_size: per-record framing limit.
        error_encoder: the stub module's ``encode_error_reply(request,
            error, buffer)``.  When present, malformed requests and
            servant crashes are answered with protocol-correct error
            replies instead of dropping the connection; without it the
            historical close-on-error behaviour is kept.
        max_pending: overload bound — when all *max_concurrency* slots
            are busy, at most this many further requests wait for one;
            beyond that requests are shed with a protocol error reply
            (``None`` queues unboundedly via backpressure).
        fault_plan: an optional :class:`repro.faults.FaultPlan` applied
            to inbound requests (chaos testing of this server's clients).
        listen_sock: an already-bound ``socket.socket`` to accept on
            instead of binding *host*/*port* — how supervised workers
            share one address (their own ``SO_REUSEPORT`` socket, or a
            listener inherited from the parent process).
    """

    def __init__(self, dispatch, impl, host="127.0.0.1", port=0, *,
                 max_concurrency=64, dispatch_mode="thread", stats=None,
                 op_names=None, drain_timeout=5.0,
                 max_record_size=MAX_RECORD_SIZE, error_encoder=None,
                 max_pending=None, fault_plan=None, listen_sock=None):
        if dispatch_mode not in ("thread", "inline"):
            raise ValueError(
                "dispatch_mode must be 'thread' or 'inline', not %r"
                % (dispatch_mode,)
            )
        self._dispatch = dispatch
        self._impl = impl
        self._host = host
        self._port = port
        self.max_concurrency = max_concurrency
        self.dispatch_mode = dispatch_mode
        self.stats = stats
        self._op_names = op_names or {}
        self.drain_timeout = drain_timeout
        self.max_record_size = max_record_size
        self.error_encoder = error_encoder
        self.max_pending = max_pending
        self.fault_plan = fault_plan
        self.listen_sock = listen_sock
        self._injector = None
        self._pending_waiters = 0
        self.address = None
        # Async state (valid between start_async and aclose).
        self._server = None
        self._loop = None
        self._executor = None
        self._semaphore = None
        self._connections = set()
        self._tasks = set()
        self._closing = False
        # Sync-facade state.
        self._thread = None
        self._stop_event = None
        self._start_error = None

    # ------------------------------------------------------------------
    # Async API
    # ------------------------------------------------------------------

    async def start_async(self):
        """Bind and start accepting; returns self."""
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._pending_waiters = 0
        if self.fault_plan is not None:
            self._injector = self.fault_plan.injector()
        if self.dispatch_mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_concurrency,
                thread_name_prefix="flick-aio",
            )
        self._closing = False
        if self.listen_sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self.listen_sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        self.address = self._server.sockets[0].getsockname()
        return self

    @property
    def accepting(self):
        """True while the listener is open and not draining."""
        return self._server is not None and not self._closing

    @property
    def in_flight(self):
        """Requests currently being served (draining waits on these)."""
        return len(self._tasks)

    async def drain_async(self):
        """Stop accepting new connections; keep in-flight work running.

        The first half of :meth:`aclose`, exposed separately so a
        supervised worker can refuse new accepts the moment a rollout
        (or SIGTERM) arrives, finish its in-flight replies, and only
        then tear connections down.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def aclose(self, drain=True):
        """Graceful shutdown: refuse new work, drain in-flight, close."""
        await self.drain_async()
        if drain and self._tasks:
            done, pending = await asyncio.wait(
                set(self._tasks), timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            del done
        for connection in list(self._connections):
            connection.writer.close()
        # Give transports a tick to run their close callbacks.
        await asyncio.sleep(0)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self._server = None

    async def __aenter__(self):
        return await self.start_async()

    async def __aexit__(self, exc_type, exc_value, traceback):
        await self.aclose()
        return False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        connection = _Connection(reader, writer, self.max_record_size)
        self._connections.add(connection)
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                import socket as _socket

                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
            while not self._closing:
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                try:
                    records = connection.decoder.feed(data)
                except TransportError:
                    if self.stats is not None:
                        self.stats.malformed.inc()
                    break  # framing lost sync; drop the connection
                if not await self._admit_records(connection, records):
                    break  # injected connection reset
            # Half-close: the peer may still be waiting on in-flight
            # replies after shutting down its write side.
            if connection.tasks:
                await asyncio.wait(set(connection.tasks))
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            self._connections.discard(connection)
            writer.close()

    async def _admit_records(self, connection, records):
        """Run fault injection and overload shedding, then start tasks.

        Returns False when an injected fault calls for a connection
        reset (the caller drops the connection).
        """
        injector = self._injector
        for record in records:
            if injector is not None:
                outcome = injector.on_message(record)
                if outcome.reset:
                    return False
                deliveries = outcome.deliveries
            else:
                deliveries = ((record, 0.0),)
            for delivery in deliveries:
                if injector is not None:
                    payload, delay_s = delivery.payload, delivery.delay_s
                else:
                    payload, delay_s = delivery
                if delay_s:
                    await asyncio.sleep(delay_s)
                if not await self._admit_one(connection, payload):
                    continue  # shed; answered with an overload reply
        return True

    async def _admit_one(self, connection, record):
        """Shed or admit one record; admitted records become tasks."""
        if (self.max_pending is not None
                and self._semaphore.locked()
                and self._pending_waiters >= self.max_pending):
            if self.stats is not None:
                self.stats.shed.inc()
            buffer = connection.take_buffer()
            try:
                await self._send_error_reply(
                    connection, record,
                    OverloadError("server overloaded; try again"),
                    buffer, close_on_failure=False,
                )
            finally:
                connection.give_buffer(buffer)
            return False
        # Backpressure: block here (stopping further reads) until an
        # in-flight slot frees up.
        self._pending_waiters += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._pending_waiters -= 1
        task = self._loop.create_task(
            self._serve_request(connection, record)
        )
        connection.tasks.add(task)
        self._tasks.add(task)
        task.add_done_callback(connection.tasks.discard)
        task.add_done_callback(self._tasks.discard)
        return True

    async def _send_error_reply(self, connection, record, error, buffer,
                                close_on_failure=True):
        """Answer *record* with a protocol error reply for *error*.

        Falls back to closing the connection (the pre-hardening
        behaviour) when no encoder is configured, the request is too
        damaged to answer (the encoder returns False — e.g. a oneway or
        an unparseable header), or encoding itself fails.
        """
        buffer.reset()
        encoded = False
        if self.error_encoder is not None:
            try:
                encoded = self.error_encoder(record, error, buffer)
            except Exception:  # a buggy encoder must not kill the loop
                encoded = False
        if not encoded:
            if close_on_failure:
                connection.writer.close()
            return False
        try:
            payload = encode_record(buffer.view())
            async with connection.write_lock:
                connection.writer.write(payload)
                await connection.writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    async def _serve_request(self, connection, record):
        tracer = trace.active()
        if tracer is None:
            await self._serve_one(connection, record, None)
            return
        # Join the client's trace if the request carries a context.
        with tracer.span("server.request",
                         parent=propagation.extract(record)) as span:
            await self._serve_one(connection, record, span)

    async def _invoke(self, record, buffer, span):
        """Produce the reply for one admitted record; returns has_reply.

        The default runs the generated ``dispatch`` on the executor (or
        inline); subclasses that answer a record some other way — the
        protocol gateway forwards it upstream — override this single
        seam and inherit all of the connection, shedding, fault, error
        reply, and tracing machinery.
        """
        if self._executor is not None:
            if span is not None:
                # Executor threads do not inherit this task's
                # contextvars; carry them over so the stub's
                # decode/encode spans nest here.
                context = contextvars.copy_context()
                return await self._loop.run_in_executor(
                    self._executor, context.run,
                    self._dispatch, record, self._impl, buffer,
                )
            return await self._loop.run_in_executor(
                self._executor, self._dispatch, record, self._impl,
                buffer,
            )
        return self._dispatch(record, self._impl, buffer)

    async def _serve_one(self, connection, record, span):
        started = time.perf_counter()
        op_key = None
        error = False
        buffer = connection.take_buffer()
        try:
            if self.stats is not None or span is not None:
                with trace.span("demux"):
                    try:
                        info = probe(record)
                        op_key = self._op_names.get(
                            info.op_key, info.op_key
                        )
                    except TransportError:
                        op_key = "?"
                if span is not None and op_key is not None:
                    span.set(op=str(op_key))
            try:
                with trace.span("dispatch"):
                    has_reply = await self._invoke(record, buffer, span)
            except RuntimeFlickError as exc:
                # Malformed or unsupported request.  The wire stayed in
                # sync (framing delivered a whole record), so answer
                # with a protocol error reply and keep serving the
                # connection; pipelined peers are unaffected.
                error = True
                if self.stats is not None:
                    self.stats.malformed.inc()
                if span is not None:
                    span.set(error=type(exc).__name__)
                await self._send_error_reply(connection, record, exc,
                                             buffer)
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # The servant itself crashed: an implementation bug, not
                # wire damage.  Report it as a system error and close
                # the connection — its state is suspect.
                error = True
                if self.stats is not None:
                    self.stats.servant_errors.inc()
                if span is not None:
                    span.set(error=type(exc).__name__,
                             error_detail=str(exc))
                await self._send_error_reply(connection, record, exc,
                                             buffer)
                connection.writer.close()
                return
            if has_reply:
                payload = encode_record(buffer.view())
                with trace.span("write", bytes=len(payload)):
                    async with connection.write_lock:
                        connection.writer.write(payload)
                        await connection.writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            error = True
        finally:
            connection.give_buffer(buffer)
            self._semaphore.release()
            if self.stats is not None and op_key is not None:
                self.stats.record(
                    op_key, time.perf_counter() - started, error=error
                )

    # ------------------------------------------------------------------
    # Sync facade (event loop on a daemon thread)
    # ------------------------------------------------------------------

    def start(self):
        """Start serving on a background event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        self._start_error = None

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._run_on_thread(started))
            finally:
                started.set()  # in case startup itself failed
                asyncio.set_event_loop(None)
                loop.close()

        self._thread = threading.Thread(
            target=run, name="flick-aio-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            self._thread = None
            raise error
        return self

    async def _run_on_thread(self, started):
        self._stop_event = asyncio.Event()
        try:
            await self.start_async()
        except Exception as error:  # surfaced by start()
            self._start_error = error
            return
        finally:
            started.set()
        await self._stop_event.wait()
        await self.aclose()

    def drain(self, timeout=None):
        """Bounded graceful drain (the SIGTERM path).

        :meth:`stop` already refuses new work and drains in-flight
        requests (``aclose`` grants them *drain_timeout* seconds); this
        alias gives every server the same drain verb.
        """
        self.stop(timeout=timeout)

    def stop(self, timeout=None):
        """Gracefully stop a server started with :meth:`start`."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(
            timeout=timeout if timeout is not None
            else self.drain_timeout + 5.0
        )
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
