"""The JSON contract between the supervisor and its workers.

A worker process is spawned as ``python -m
repro.runtime.supervisor.worker CONFIG.json``; everything it needs —
what to compile, how to bind, which inherited file descriptors are the
shared listener and the control channel — travels in one
:class:`WorkerConfig` file the parent writes per spawn.  Keeping the
contract on disk (rather than pickled over a pipe) makes a worker
independently launchable for debugging: copy the file, run the module.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional


@dataclass
class WorkerConfig:
    """Everything one worker process needs to serve its share.

    Attributes:
        kind: ``"serve"`` (stub server) or ``"gateway"`` (protocol
            bridge).
        idl_path: the generation's IDL file (a content-named copy the
            supervisor wrote; never the operator's mutable original).
        lang: IDL language (``corba``/``oncrpc``) or None to detect.
        pgen, backend, interface: the compile selection, as for
            ``flick serve``.
        impl: ``module:Class`` servant spec (serve kind only).
        host, port: the shared listen address.  The supervisor resolves
            port 0 to a concrete port before the first spawn so every
            worker binds the same one.
        listen_fd: inherited listener file descriptor, or None when the
            worker should bind its own ``SO_REUSEPORT`` socket.
        control_fd: inherited socketpair end for the control channel.
        slot: stable worker index (restart metrics are labelled by it).
        generation: schema generation this worker serves.
        max_concurrency, dispatch_mode, max_pending: asyncio-server
            knobs, as for ``flick serve --aio``.
        drain_timeout: seconds granted to in-flight work at drain.
        profile_dir: when set, enable the payload-shape profiler and
            write ``profile.<pid>.json`` there at exit.
        profile_sample: profiler sampling rate (1/N).
        sys_paths: extra ``sys.path`` entries (the parent's working
            directory, so ``--impl`` specs resolve the same way).
        upstream_host, upstream_port, upstream_backend,
        upstream_idl_path, pool_size, fuse: gateway-kind settings
            mirroring ``flick gateway``.
    """

    kind: str = "serve"
    idl_path: str = ""
    lang: Optional[str] = None
    pgen: Optional[str] = None
    backend: Optional[str] = None
    interface: Optional[str] = None
    impl: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    listen_fd: Optional[int] = None
    control_fd: int = -1
    slot: int = 0
    generation: int = 0
    max_concurrency: int = 64
    dispatch_mode: str = "thread"
    max_pending: Optional[int] = None
    drain_timeout: float = 5.0
    profile_dir: Optional[str] = None
    profile_sample: int = 64
    sys_paths: list = field(default_factory=list)
    upstream_host: Optional[str] = None
    upstream_port: Optional[int] = None
    upstream_backend: Optional[str] = None
    upstream_idl_path: Optional[str] = None
    pool_size: int = 4
    fuse: bool = True

    def but(self, **changes):
        """A copy with *changes* applied (the template-to-slot step)."""
        return replace(self, **changes)

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown worker-config fields: %s"
                % ", ".join(sorted(unknown)))
        return cls(**data)

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(json.load(handle))
