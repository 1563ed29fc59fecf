"""The rendered codecs against the oracle: byte-identical traffic.

The optimizing back end renders the optimized MIR as Python source.
These tests drive full loopback RPC sessions — requests, replies, user
exceptions, oneways, recursive lists — through the generated stubs for
every front end and wire protocol, and check every codec call against
the interpretive marshaller :mod:`repro.pres.interp`, which walks the
PRES tree directly and shares no code with the MIR: *identical bytes in
both directions* and identical decoded values (:mod:`tests.oracle`).
Each MIR pass is also disabled in turn, on every back end.
"""

import functools

import pytest

from repro import Flick, OptFlags, api
from repro.backend.pywriter import PyWriter
from repro.compilers import make_baseline
from repro.encoding import MarshalBuffer
from repro.errors import MarshalError
from repro.mir import render_py
from repro.mir.passes import PASS_NAMES
from repro.runtime import LoopbackTransport
from repro.workloads import BENCH_IDL_ONC, make_rect_array

from tests.conftest import DB_IDL, MAIL_IDL, MIG_IDL, MailImpl
from tests.oracle import OracleRecorder, comparable


class RecordingTransport:
    """Wrap a transport; keep every request/reply byte string."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def call(self, request):
        reply = self.inner.call(request)
        self.log.append((bytes(request), bytes(reply)))
        return reply

    def send(self, request):
        self.log.append((bytes(request), None))
        self.inner.send(request)


# ----------------------------------------------------------------------
# Scripted sessions: one per schema, covering every codec path
# ----------------------------------------------------------------------


def drive_mail(module):
    """Requests, replies, unions, the exception arm, oneway, arrays."""
    impl = MailImpl(module)
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    client = module.Test_MailClient(transport)
    results = []
    rect = module.Test_Rect(module.Test_Point(1, 2), module.Test_Point(3, 4))
    results.append(client.send("hello", rect, (1, 2.5)))
    results.append(client.send("ab", rect, (2, "deflt")))
    try:
        client.send("fail", rect, (0, 7))
        results.append("no exception")
    except module.Test_Bad as error:
        results.append(("Test_Bad", error.why, error.code))
    client.ping(123)
    results.append(("ping", impl.last_ping))
    results.append(client.avg(list(range(101))))
    results.append(bytes(client.reverse(b"\x01\x02\x03")))
    client.tri([module.Test_Point(0, 0)] * 3)
    results.append(client._get_counter())
    return results, transport.log


def drive_db(module):
    """Recursive lists (the iterative-list loop), opaques, unions."""

    class Impl:
        def lookup(self, key):
            head = None
            for index in range(40):
                head = module.entry("node%d" % index, index, head)
            return (0, head) if key == "deep" else (1, None)

        def store(self, node):
            total = 0
            while node is not None:
                total += node.value
                node = node.next
            return total

        def echo(self, data):
            return bytes(data)

        def rev(self, xs):
            return list(reversed(xs))

    transport = RecordingTransport(
        LoopbackTransport(module.dispatch, Impl())
    )
    client = module.DB_DBVClient(transport)
    results = []
    status, head = client.lookup("deep")
    chain = []
    while head is not None:
        chain.append((head.name, head.value))
        head = head.next
    results.append((status, chain))
    results.append(client.lookup("missing"))
    node = module.entry("a", 1, module.entry("b", 2, None))
    results.append(client.store(node))
    results.append(bytes(client.echo(b"xyzzy")))
    results.append(client.rev([5, 4, 3]))
    return results, transport.log


def drive_mig(module):
    """Mach typed messages: scalars, arrays, oneway, strings."""

    class Impl(module.arithServant):
        def add(self, a, b):
            return a + b

        def total(self, values):
            return sum(values)

        def poke(self, value):
            self.poked = value

        def greet(self, who):
            return "hi " + who

    impl = Impl()
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    client = module.arithClient(transport)
    results = []
    results.append(client.add(1, 2))
    results.append(client.total(list(range(64))))
    client.poke(9)
    results.append(("poke", impl.poked))
    results.append(client.greet("x"))
    return results, transport.log


#: (schema id, IDL text, front end, drive function).
SCHEMAS = {
    "mail": (MAIL_IDL, "corba", drive_mail),
    "db": (DB_IDL, "oncrpc", drive_db),
    "mig": (MIG_IDL, "mig", drive_mig),
}

#: Wire protocols each schema is driven over.  MIG pairs with the
#: kernel-IPC back ends; the AOI languages cross both TCP protocols
#: (CDR and XDR) plus the kernel formats.
PROTOCOLS = {
    "mail": ("iiop", "oncrpc-xdr", "mach3", "fluke"),
    "db": ("oncrpc-xdr", "iiop", "mach3", "fluke"),
    "mig": ("mach3", "fluke"),
}

CASES = [
    (schema, backend)
    for schema in SCHEMAS
    for backend in PROTOCOLS[schema]
]


def _compile(schema, backend, flags=None):
    text, lang, drive = SCHEMAS[schema]
    return api.compile(text, lang, backend=backend, flags=flags), drive


def _assert_matches_oracle(result, drive):
    """Drive the session; every codec call must agree with the oracle.

    Returns the session's comparable results."""
    recorder = OracleRecorder(result)
    results, log = drive(result.module)
    assert recorder.verify() > 0
    # What crossed the transport is exactly what the stubs encoded.
    requests = [message for _op, direction, _values, message
                in recorder.encoded if direction == "request"]
    assert [request for request, _reply in log] == requests
    return comparable(results)


@functools.lru_cache(maxsize=None)
def _reference_results(schema):
    """The schema's session results on its first protocol, all passes
    on: every protocol and pass configuration must decode the same."""
    result, drive = _compile(schema, PROTOCOLS[schema][0])
    return comparable(drive(result.module)[0])


def _assert_same_results(schema, results):
    assert results == _reference_results(schema)


class TestRendererByteIdentity:
    @pytest.mark.parametrize("schema,backend", CASES)
    def test_wire_traffic_identical(self, schema, backend):
        result, drive = _compile(schema, backend)
        _assert_same_results(schema, _assert_matches_oracle(result, drive))

    @pytest.mark.parametrize("schema,backend", CASES)
    def test_same_source_same_ir(self, schema, backend):
        """The stubs carry the IR their codecs were rendered from:
        rendering it again reproduces the codec source exactly."""
        result, _drive = _compile(schema, backend)
        assert result.stubs.mir is not None
        w = PyWriter()
        render_py.render_program(w, result.stubs.mir)
        assert w.getvalue() in result.stubs.py_source


class TestRendererUnderAblation:
    """The stubs agree with the oracle under every pass configuration,
    on every back end."""

    @pytest.mark.parametrize("pass_name", sorted(PASS_NAMES))
    def test_each_pass_disabled(self, pass_name):
        flags = OptFlags().disable_pass(pass_name)
        for schema, backend in CASES:
            result, drive = _compile(schema, backend, flags)
            assert result.stubs.mir.passes[pass_name] is False
            _assert_same_results(
                schema, _assert_matches_oracle(result, drive))

    def test_all_passes_off(self):
        for schema, backend in CASES:
            result, drive = _compile(schema, backend, OptFlags.all_off())
            _assert_same_results(
                schema, _assert_matches_oracle(result, drive))


class TestRendererSelection:
    """There is one Python renderer; ``renderer=`` is not an option."""

    def test_unknown_renderer_rejected(self):
        for renderer in ("fortran", "closures", "py"):
            with pytest.raises(TypeError):
                api.compile(MAIL_IDL, "corba", renderer=renderer)

    def test_flick_facade_rejects_renderer_option(self):
        with pytest.raises(TypeError):
            Flick(frontend="corba", renderer="closures").compile(MAIL_IDL)

    def test_compile_all_rejects_renderer_option(self):
        with pytest.raises(TypeError):
            api.compile_all(MAIL_IDL, "corba", renderer="closures")

    def test_baselines_reject_closures(self):
        presc = api.compile(DB_IDL, "oncrpc").presc
        with pytest.raises(TypeError):
            make_baseline("rpcgen").generate(presc, renderer="closures")


# ----------------------------------------------------------------------
# Constant-stride element loops (Figure 3 ``rects``)
# ----------------------------------------------------------------------


class _CountingBuffer(MarshalBuffer):
    __slots__ = ("reserves",)

    def __init__(self):
        super().__init__()
        self.reserves = 0

    def reserve(self, size):
        self.reserves += 1
        return super().reserve(size)


class TestFusedElementLoop:
    """A struct array marshals with one free-space check, not one per
    element (section 3.1), and still agrees with the oracle."""

    @pytest.fixture(scope="class")
    def rects(self):
        return api.compile(BENCH_IDL_ONC, "oncrpc")

    def _reserves(self, module, count):
        buffer = _CountingBuffer()
        module._m_req_rects(buffer, 1, make_rect_array(
            module, 16 * count, ""))
        return buffer.reserves

    def test_reserve_count_is_constant(self, rects):
        counts = {self._reserves(rects.module, n) for n in (0, 1, 5, 300)}
        assert counts == {2}  # the header, then the count word + array

    def test_matches_oracle(self, rects):
        recorder = OracleRecorder(rects)
        for count in (0, 1, 7, 100):
            rects.module._m_req_rects(MarshalBuffer(), 1, make_rect_array(
                rects.module, 16 * count, ""))
        assert recorder.verify() == 4

    def test_out_of_range_element_raises(self, rects):
        module = rects.module
        values = make_rect_array(module, 16 * 4, "")
        values[2].lr.y = 2 ** 31
        client = module.BENCH_BENCHVClient(LoopbackTransport(
            module.dispatch, None))
        with pytest.raises(MarshalError, match="cannot marshal rects"):
            client.rects(values)

    def test_only_constant_stride_loops_fuse(self, rects):
        source = rects.stubs.py_source
        rects_fn = source[source.index("def _m_req_rects("):]
        rects_fn = rects_fn[:rects_fn.index("\ndef ")]
        dirents_fn = source[source.index("def _m_req_dirents("):]
        dirents_fn = dirents_fn[:dirents_fn.index("\ndef ")]
        assert "b.reserve" not in rects_fn.split("for ", 1)[1]
        assert "b.reserve" in dirents_fn.split("for ", 1)[1]
