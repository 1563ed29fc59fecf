"""Tests for the flick command-line interface."""

import os

import pytest

from repro.tools.cli import main

MAIL = "interface Mail { void send(in string msg); };\n"
ONC = "program P { version V { int f(int) = 1; } = 1; } = 9;\n"
MIG = "subsystem s 100;\nroutine f(p : mach_port_t; x : int);\n"


@pytest.fixture
def outdir(tmp_path):
    return str(tmp_path / "out")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCompile:
    def test_corba_default(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "mail_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "mail_iiop.c"))
        assert os.path.exists(os.path.join(outdir, "mail_iiop.h"))
        assert "compiled Mail" in capsys.readouterr().out

    def test_frontend_guessed_from_suffix(self, tmp_path, outdir):
        source = write(tmp_path, "db.x", ONC)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "p_v_oncrpc_xdr.py"))

    def test_mig_suffix(self, tmp_path, outdir):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "s_mach3.py"))

    def test_emit_subset(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["compile", source, "-o", outdir, "--emit", "py"]) == 0
        assert os.path.exists(os.path.join(outdir, "mail_iiop.py"))
        assert not os.path.exists(os.path.join(outdir, "mail_iiop.c"))

    def test_explicit_backend(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--backend", "fluke"]
        ) == 0
        assert os.path.exists(os.path.join(outdir, "mail_fluke.py"))

    def test_generated_module_is_valid_python(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        main(["compile", source, "-o", outdir, "--emit", "py"])
        path = os.path.join(outdir, "mail_iiop.py")
        compile(open(path).read(), path, "exec")

    def test_disable_flag(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py",
             "--disable", "hash_demux"]
        ) == 0
        text = open(os.path.join(outdir, "mail_iiop.py")).read()
        assert "_HANDLERS" not in text

    def test_timing_flag(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py", "--timing"]
        ) == 0
        out = capsys.readouterr().out
        assert "timing Mail:" in out
        assert "parse" in out and "emit" in out and "total" in out
        assert "emitted:" in out
        assert "marshal chunk" in out

    def test_syntax_error_reported(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "bad.idl", "interface {")
        assert main(["compile", source, "-o", outdir]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reported(self, outdir, capsys):
        assert main(["compile", "/no/such/file.idl", "-o", outdir]) == 1

    def test_multi_interface_file_compiles_all(self, tmp_path, outdir):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); }; interface B { void g(); };",
        )
        assert main(["compile", source, "-o", outdir, "--emit", "py"]) == 0
        assert os.path.exists(os.path.join(outdir, "a_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "b_iiop.py"))

    def test_interface_selection(self, tmp_path, outdir):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); }; interface B { void g(); };",
        )
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py",
             "--interface", "B"]
        ) == 0
        assert not os.path.exists(os.path.join(outdir, "a_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "b_iiop.py"))


class TestBaselineAndInspect:
    def test_baseline_generation(self, tmp_path, outdir):
        source = write(tmp_path, "db.x", ONC)
        assert main(
            ["compile", source, "-o", outdir, "--baseline", "rpcgen",
             "--emit", "py"]
        ) == 0
        text = open(os.path.join(outdir, "p_v_rpcgen.py")).read()
        assert "_rt.put_" in text

    def test_baseline_ilu(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--baseline", "ilu",
             "--emit", "py"]
        ) == 0

    def test_inspect_output(self, tmp_path, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface Mail" in out
        assert "demux:   hash" in out
        assert "send" in out

    def test_inspect_onc(self, tmp_path, capsys):
        source = write(tmp_path, "db.x", ONC)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface P::V" in out
        assert "key=1" in out

    def test_little_endian_flag(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--little-endian",
             "--emit", "py"]
        ) == 0
        text = open(os.path.join(outdir, "mail_iiop.py")).read()
        assert "'<I'" in text  # little-endian CDR packs

    def test_little_endian_wrong_backend_rejected(self, tmp_path, outdir,
                                                  capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--little-endian",
             "--backend", "fluke"]
        ) == 1
        assert "little-endian" in capsys.readouterr().err

    def test_inspect_mig(self, tmp_path, capsys):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface s" in out


class TestList:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "corba" in out
        assert "oncrpc-xdr" in out
        assert "ilu" in out


SERVE_IDL = """
interface Calc {
  double avg(in sequence<long> xs);
  oneway void ping(in long x);
};
"""

SERVE_IMPL = """
class CalcImpl:
    def __init__(self):
        self.last_ping = None

    def avg(self, xs):
        return sum(xs) / len(xs)

    def ping(self, x):
        self.last_ping = x
"""


def _free_port():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _serve_and_call(tmp_path, monkeypatch, extra_args):
    """Run `flick serve` on a thread, make one stub call against it,
    then stop it the way a signal would (``--duration`` only caps a
    hang)."""
    import socket
    import threading
    import time

    from repro import Flick
    from repro.runtime import TcpClientTransport, signals

    source = write(tmp_path, "calc.idl", SERVE_IDL)
    write(tmp_path, "calc_impl.py", SERVE_IMPL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    drivers = []

    class RecordingDriver(signals.SignalDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(self)

    monkeypatch.setattr(signals, "SignalDriver", RecordingDriver)
    port = _free_port()
    rc = {}

    def run():
        rc["value"] = main(
            ["serve", source, "--impl", "calc_impl:CalcImpl",
             "--backend", "oncrpc-xdr", "--port", str(port),
             "--duration", "30"] + extra_args
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    # Poll until the server is accepting.
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            break
        except OSError:
            time.sleep(0.05)
    module = Flick(
        frontend="corba", backend="oncrpc-xdr"
    ).compile(SERVE_IDL).load_module()
    transport = TcpClientTransport("127.0.0.1", port)
    try:
        client = module.CalcClient(transport)
        assert client.avg([4, 6, 8]) == 6.0
    finally:
        transport.close()
    # The server accepted, so its driver exists.
    (driver,) = drivers
    driver.request_shutdown()
    thread.join(timeout=15)
    assert not thread.is_alive()
    return rc["value"]


class TestServe:
    def test_serve_blocking(self, tmp_path, monkeypatch, capsys):
        assert _serve_and_call(tmp_path, monkeypatch, []) == 0
        out = capsys.readouterr().out
        assert "serving Calc" in out
        assert "thread-per-connection" in out

    def test_serve_aio_with_stats(self, tmp_path, monkeypatch, capsys):
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--aio", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "asyncio runtime" in out
        assert "avg" in out          # the stats table names the op
        assert "p95" in out

    def test_serve_blocking_with_stats(self, tmp_path, monkeypatch,
                                       capsys):
        assert _serve_and_call(tmp_path, monkeypatch, ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "thread-per-connection" in out
        assert "avg" in out          # the stats table names the op
        assert "p95" in out

    def test_serve_with_trace(self, tmp_path, monkeypatch, capsys):
        import json

        trace_path = tmp_path / "spans.jsonl"
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--trace", str(trace_path)]
        ) == 0
        assert "tracing spans to" in capsys.readouterr().out
        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "server.request" in names
        assert "dispatch" in names
        (request_span,) = [s for s in spans
                           if s["name"] == "server.request"]
        assert request_span["attrs"]["op"].endswith("avg")

    def test_serve_with_metrics_port(self, tmp_path, monkeypatch,
                                     capsys):
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--metrics-port", "0"]
        ) == 0
        out = capsys.readouterr().out
        # --metrics-port implies --stats and announces the endpoint.
        assert "metrics on http://" in out
        assert "p95" in out

    def test_serve_with_profile_writes_a_snapshot(self, tmp_path,
                                                  monkeypatch, capsys):
        import json

        snap_path = tmp_path / "prof.json"
        assert _serve_and_call(
            tmp_path, monkeypatch,
            ["--profile", str(snap_path), "--profile-sample", "1"],
        ) == 0
        out = capsys.readouterr().out
        assert "profiling payload shapes" in out
        assert "profile snapshot saved" in out
        document = json.loads(snap_path.read_text())
        assert document["kind"] == "flick-profile"
        ops = {entry["op"] for entry in document["ops"]}
        assert "avg" in ops
        # flick profile reads what flick serve wrote.
        assert main(["profile", str(snap_path)]) == 0
        assert "avg" in capsys.readouterr().out

    def test_bad_impl_spec_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        assert main(["serve", source, "--impl", "no-colon"]) == 1
        assert "module:Class" in capsys.readouterr().err

    def test_missing_impl_module_rejected(self, tmp_path, monkeypatch,
                                          capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        monkeypatch.chdir(tmp_path)
        assert main(
            ["serve", source, "--impl", "nonexistent_module:Impl"]
        ) == 1
        assert "cannot import servant module" in capsys.readouterr().err

    def test_mig_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["serve", source, "--impl", "m:C"]) == 1
        assert "kernel IPC" in capsys.readouterr().err

    def test_unservable_backend_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        assert main(
            ["serve", source, "--impl", "m:C", "--backend", "fluke"]
        ) == 1
        assert "serve supports" in capsys.readouterr().err

    def test_multiple_interfaces_need_choice(self, tmp_path, capsys):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); };\ninterface B { void g(); };\n",
        )
        assert main(["serve", source, "--impl", "m:C"]) == 1
        assert "--interface" in capsys.readouterr().err
