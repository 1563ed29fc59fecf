"""The benchmark's server child process.

Usage (started by ``client.py``, never by hand)::

    python3 server.py '{"trace": false, "endpoints": [
        {"schema": "mail", "backend": "iiop", "servant": "mail",
         "stack": "aio"}, ...]}'

It compiles each schema, serves every endpoint on loopback (``aio``:
``AioTcpServer`` with thread dispatch; ``blocking``: ``TcpServer``),
prints one JSON line ``{"pid", "ports"}`` and then answers
commands read from stdin, one JSON line each:

``stats``      server-side spans, buffer counters and peak RSS;
``trace on`` / ``trace off``   start / stop recording spans;
``quit <path>`` stop the servers, write spans to *path* (or ``-``).
"""

from __future__ import annotations

import json
import os
import sys

import common
import tracing


def main():
    spec = json.loads(sys.argv[1])
    from repro import api
    from repro.encoding.buffer import buffer_counters
    from repro.runtime import AioTcpServer, TcpServer, operation_names

    tracer = tracing.Tracer()
    modules = {}
    servants = {}
    servers = []
    for endpoint in spec["endpoints"]:
        key = (endpoint["schema"], endpoint["backend"])
        if key not in modules:
            text, name = common.schema_source(endpoint["schema"])
            module = api.compile(text, name=name,
                                 backend=endpoint["backend"]).module
            if spec["trace"]:
                tracing.install_stubs(tracer, module,
                                      tracing.SERVER_STUB_LAYERS)
            modules[key] = module
        module = modules[key]
        servant_key = (endpoint["servant"], endpoint["schema"])
        if servant_key not in servants:
            servant = common.SERVANTS[endpoint["servant"]]()
            if spec["trace"]:
                for op in operation_names(module).values():
                    setattr(servant, op, tracer.wrap(
                        "servant", getattr(servant, op)))
            servants[servant_key] = servant
        dispatch = module.dispatch
        if spec["trace"]:
            layer = ("runtime.server_dispatch" if endpoint["stack"] == "aio"
                     else "socket_transport.server_dispatch")
            dispatch = tracer.wrap(layer, dispatch)
        options = dict(op_names=operation_names(module),
                       error_encoder=module.encode_error_reply)
        if endpoint["stack"] == "aio":
            server = AioTcpServer(dispatch, servants[servant_key],
                                  dispatch_mode="thread", **options)
        else:
            server = TcpServer(dispatch, servants[servant_key], **options)
        servers.append(server.start())
    print(json.dumps({
        "pid": os.getpid(),
        "ports": [server.address[1] for server in servers],
    }), flush=True)

    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "stats":
            reply = {
                "buffers": buffer_counters(),
                "spans": tracer.summary(),
                "peak_rss_kb": common.proc_status_kb(os.getpid(), "VmHWM"),
            }
        elif command[0] == "trace":
            tracer.on = command[1] == "on"
            reply = {"ok": True}
        elif command[0] == "quit":
            for server in servers:
                server.stop()
            if command[1] != "-":
                tracer.write(command[1])
            print(json.dumps({"ok": True}), flush=True)
            return
        else:
            reply = {"error": "unknown command %r" % line}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
