"""Tests for the unified compile facade and its compatibility shims.

Covers the API-redesign satellites: ``repro.api`` language
auto-detection, the deprecated per-frontend entry points, the aligned
runtime constructor keywords (old spellings warn but keep working), the
content-hashed stub module names that let two versions of one interface
load side by side, the ``CompiledInterface`` handle (live codec table,
per-op recompile with atomic install), and the ``flick diff`` /
``flick lint`` exit codes.
"""

import json
import socket

import pytest

from repro import Flick, OptFlags, api
from repro.core.handle import CompiledInterface, codec_form
from repro.errors import FlickError, TransportError
from repro.faults import FaultPlan
from repro.runtime import StubServer
from repro.runtime.aio.client import ConnectionPool
from repro.runtime.socket_transport import (
    TcpClientTransport,
    TcpServer,
    UdpClientTransport,
    UdpServer,
)
from repro.tools.cli import main

from tests.conftest import DB_IDL

CORBA = "interface Mail { void send(in string<64> msg); };\n"
ONC = "program P { version V { int f(int) = 1; } = 1; } = 0x20000042;\n"
MIG = "subsystem s 100;\nroutine f(p : mach_port_t; x : int);\n"


class TestDetectLang:
    def test_suffixes_win(self):
        assert api.detect_lang("anything", name="x.idl") == "corba"
        assert api.detect_lang("anything", name="x.x") == "oncrpc"
        assert api.detect_lang("anything", name="x.defs") == "mig"

    def test_content_heuristics(self):
        assert api.detect_lang(CORBA) == "corba"
        assert api.detect_lang(ONC) == "oncrpc"
        assert api.detect_lang(MIG) == "mig"

    def test_autodetect_equals_explicit(self):
        auto = api.compile(CORBA)
        explicit = api.compile(CORBA, "corba")
        assert auto.stubs.backend_name == explicit.stubs.backend_name
        assert auto.presc.interface_name == explicit.presc.interface_name

    def test_mig_autodetect_compiles(self):
        result = api.compile(MIG)
        assert result.aoi is None
        assert result.presc is not None
        assert result.timings["total_s"] >= 0


class TestDeprecatedShims:
    def test_compile_corba_idl_warns_and_works(self):
        from repro.corba import compile_corba_idl
        with pytest.deprecated_call():
            root = compile_corba_idl(CORBA)
        assert root is not None

    def test_compile_oncrpc_idl_warns_and_works(self):
        from repro.oncrpc import compile_oncrpc_idl
        with pytest.deprecated_call():
            root = compile_oncrpc_idl(ONC)
        assert root is not None

    def test_compile_mig_idl_warns_and_works(self):
        from repro.mig import compile_mig_idl
        with pytest.deprecated_call():
            presc = compile_mig_idl(MIG)
        assert presc.stubs


class TestRenamedConstructorKwargs:
    def test_connection_pool_size_warns(self):
        with pytest.deprecated_call():
            pool = ConnectionPool("127.0.0.1", 1, size=3)
        assert pool.pool_size == 3
        assert pool.size == 3

    def test_connection_pool_both_spellings_conflict(self):
        with pytest.raises(TypeError):
            ConnectionPool("127.0.0.1", 1, size=3, pool_size=4)

    def test_tcp_client_timeout_warns(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            with pytest.deprecated_call():
                client = TcpClientTransport(
                    "127.0.0.1", listener.getsockname()[1], timeout=5.0)
            client.close()
        finally:
            listener.close()

    def test_udp_client_timeout_warns(self):
        with pytest.deprecated_call():
            client = UdpClientTransport("127.0.0.1", 9, timeout=5.0)
        client.close()


def _noop_dispatch(request, impl, buffer):
    return False


class TestServerConstructorAlignment:
    def test_tcp_server_accepts_max_record_size(self):
        server = TcpServer(_noop_dispatch, None, max_record_size=4096)
        assert server._max_record_size == 4096
        server._listener.close()

    def test_udp_server_accepts_fault_plan(self):
        server = UdpServer(_noop_dispatch, None,
                           fault_plan=FaultPlan(drop=1.0))
        assert server._fault_plan is not None
        server._sock.close()

    def test_udp_fault_plan_drops_datagrams(self):
        from tests.conftest import compile_db
        from repro.encoding.buffer import MarshalBuffer

        result = compile_db()
        module = result.stubs.load()
        server = UdpServer(
            module.dispatch, _DbSink(),
            fault_plan=FaultPlan(drop=1.0),
        ).start()
        try:
            client = UdpClientTransport(
                "127.0.0.1", server.address[1], deadline=0.3)
            try:
                buffer = MarshalBuffer()
                module._m_req_echo(buffer, 1, b"ping")
                # drop=1.0 swallows every datagram, so the client's
                # deadline is the only way out.
                with pytest.raises(OSError):
                    client.call(buffer.getvalue())
            finally:
                client.close()
        finally:
            server.stop()


class _DbSink:
    """Servant for conftest's DB_IDL; never reached under drop=1.0."""

    def echo(self, blob):
        return blob

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return lambda *args: None


class TestSideBySideVersions:
    def test_two_versions_load_independently(self):
        old = api.compile("interface T { void f(in string<16> s); };",
                          "corba")
        new = api.compile("interface T { void f(in string<64> s); };",
                          "corba")
        old_mod = old.stubs.load()
        new_mod = new.stubs.load()
        assert old.stubs.module_name != new.stubs.module_name
        assert old_mod is not new_mod
        # Both stay functional after loading the other: the wide value
        # marshals only with the new schema's stubs.
        from repro.encoding.buffer import MarshalBuffer
        wide = "x" * 40
        buffer = MarshalBuffer()
        new_mod._m_req_f(buffer, 1, wide)
        assert buffer.getvalue()
        with pytest.raises(Exception):
            old_mod._m_req_f(MarshalBuffer(), 1, wide)

    def test_identical_sources_share_hash_prefix(self):
        first = api.compile(CORBA, "corba")
        second = api.compile(CORBA, "corba")
        # Content-hashed base name is equal; the loader still keeps the
        # loaded modules distinct.
        assert first.stubs.module_name == second.stubs.module_name
        assert first.stubs.load() is not second.stubs.load()


class TestCliExitCodes:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_diff_identity_exits_zero(self, tmp_path):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["diff", path, path]) == 0

    def test_diff_compatible_exits_one(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<128> msg); };\n")
        assert main(["diff", old, new]) == 1

    def test_diff_breaking_exits_two(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<8> msg); };\n")
        assert main(["diff", old, new]) == 2

    def test_diff_bad_input_exits_three(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        bad = self._write(tmp_path, "new.idl", "interface {{{ nope")
        assert main(["diff", old, bad]) == 3

    def test_diff_json_schema(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<8> msg); };\n")
        code = main(["diff", old, new, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["verdict"] == "BREAKING"
        assert set(payload["protocols"]) == {"oncrpc-xdr", "iiop"}
        operation = payload["protocols"]["iiop"]["operations"]["send"]
        assert operation["verdict"] == "BREAKING"
        assert "request:old->new" in operation["channels"]

    def test_lint_clean_exits_zero(self, tmp_path):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["lint", path]) == 0

    def test_lint_warning_exits_one(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "a.x",
            "program P { version V { int f(string) = 1; } = 1; }"
            " = 0x20000043;\n")
        assert main(["lint", path]) == 1
        assert "unbounded" in capsys.readouterr().out

    def test_lint_fail_on_error_tolerates_warnings(self, tmp_path):
        path = self._write(
            tmp_path, "a.x",
            "program P { version V { int f(string) = 1; } = 1; }"
            " = 0x20000043;\n")
        assert main(["lint", path, "--fail-on", "error"]) == 0

    def test_lint_bad_input_exits_three(self, tmp_path):
        path = self._write(tmp_path, "a.idl", "interface {{{ nope")
        assert main(["lint", path]) == 3

    def test_lint_json_schema(self, tmp_path, capsys):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["lint", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["file"].endswith("a.idl")


# ----------------------------------------------------------------------
# The CompiledInterface handle
# ----------------------------------------------------------------------

class DbImpl:
    def lookup(self, name):
        return (0, None)

    def store(self, e):
        return 1

    def echo(self, data):
        return bytes(data)

    def rev(self, xs):
        return list(xs)[::-1]


def fresh_db():
    """A fresh compile per test: recompiles mutate the module dict, so
    the cached conftest compilations must never be used here."""
    return Flick(frontend="oncrpc").compile(DB_IDL)


def capture_requests(module, calls):
    """Raw request frames the module's client puts on the wire."""

    class Capture:
        last = None

        def call(self, request):
            self.last = bytes(request)
            raise TransportError("captured")

        def send(self, request):
            self.last = bytes(request)

        def close(self):
            pass

    transport = Capture()
    client_class = next(getattr(module, name) for name in dir(module)
                        if name.endswith("Client"))
    client = client_class(transport)
    frames = []
    for operation, args in calls:
        try:
            getattr(client, operation)(*args)
        except TransportError:
            pass
        frames.append(transport.last)
    return frames


class TestCompiledInterface:
    def test_compile_returns_handle(self):
        handle = fresh_db()
        assert isinstance(handle, CompiledInterface)
        assert handle.module is handle.stubs.load()
        assert handle.module is handle.module  # cached, same object

    def test_operations_sorted(self):
        assert fresh_db().operations() == ["echo", "lookup", "rev",
                                           "store"]

    def test_codec_form(self):
        assert codec_form("_u_req_rev") == ("u_req", "rev")
        assert codec_form("_m_rep_ok_rev") == ("m_rep_ok", "rev")
        assert codec_form("_m_rep_x1_send") == ("m_rep_exc", "send")
        assert codec_form("dispatch") == (None, None)

    def test_codec_table_is_live(self):
        handle = fresh_db()
        table = handle.codec_table
        assert "_u_req_rev" in table["rev"]
        assert table["rev"]["_u_req_rev"] is handle.module._u_req_rev
        # Swap an entry underneath; the table reflects it on re-read.
        sentinel = lambda d, o: ((), o)  # noqa: E731
        handle.module.__dict__["_u_req_rev"] = sentinel
        assert handle.codec_table["rev"]["_u_req_rev"] is sentinel

    def test_recompile_byte_identity(self):
        """Codecs recompiled under any pass configuration serve
        byte-identical replies — what makes an in-place install safe."""
        handle = fresh_db()
        reference = fresh_db()
        impl = DbImpl()
        chain = handle.module.entry(
            "a", 1, handle.module.entry("b", 2, None))
        frames = capture_requests(handle.module, [
            ("echo", (b"abcdef",)),
            ("rev", ([1, 2, 3],)),
            ("lookup", ("k",)),
            ("store", (chain,)),
        ])
        want = [StubServer(reference.module, impl).serve_bytes(f)
                for f in frames]
        for flags in (OptFlags(), OptFlags.all_off(),
                      OptFlags().disable_pass("chunk_atoms")):
            handle.recompile(flags=flags, install=True)
            got = [StubServer(handle.module, impl).serve_bytes(f)
                   for f in frames]
            assert got == want, flags

    def test_recompile_install_false_leaves_module_alone(self):
        handle = fresh_db()
        before = handle.module._m_rep_ok_rev
        new = handle.recompile("rev", flags=OptFlags.all_off(),
                               install=False)
        assert "_m_rep_ok_rev" in new and "_u_req_rev" in new
        assert handle.module._m_rep_ok_rev is before
        handle.recompile("rev", flags=OptFlags.all_off(), install=True)
        assert handle.module._m_rep_ok_rev is not before

    def test_recompile_unknown_op(self):
        with pytest.raises(FlickError, match="no operation"):
            fresh_db().recompile("bogus")

    def test_deprecation_shim_forwards_with_warning(self):
        handle = fresh_db()
        with pytest.warns(DeprecationWarning, match="dispatch"):
            dispatch = handle.dispatch
        assert dispatch is handle.module.dispatch

    def test_missing_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            fresh_db().definitely_not_an_attribute
