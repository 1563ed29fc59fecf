"""Property tests for the renderer contract and pass pipeline.

Two guarantees, fuzzed over random AOI type trees (shared with
:mod:`tests.test_property_fuzz_types`):

* **Oracle equivalence** — for any type, the rendered codecs produce
  the same wire bytes in both directions as the interpretive marshaller
  (:mod:`repro.pres.interp`), and decode the values it decodes.
* **Pass soundness** — every MIR pass is semantics-preserving: the
  round trip still holds with each pass individually disabled, and the
  codecs still agree with the oracle on the bytes.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptFlags
from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiFloat,
    AoiInteger,
    AoiInterface,
    AoiOctet,
    AoiOperation,
    AoiOptional,
    AoiParameter,
    AoiRoot,
    AoiSequence,
    AoiStruct,
    AoiStructField,
    Direction,
    validate,
)
from repro.backend import make_backend
from repro.core.handle import CompiledInterface
from repro.mir.passes import PASS_NAMES
from repro.pgen import make_presentation
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

from tests.oracle import OracleRecorder
from tests.test_mir_renderers import RecordingTransport
from tests.test_property_fuzz_types import (
    _cmp,
    _uniquify,
    denormalize,
    type_value_pairs,
)

BACKENDS = ("oncrpc-xdr", "iiop", "mach3", "fluke")


def _build(aoi_type, backend_name, flags):
    root = AoiRoot("<fuzz>")
    operation = AoiOperation(
        "echo",
        (AoiParameter("v", aoi_type, Direction.IN),),
        aoi_type,
        request_code=1,
    )
    interface = AoiInterface("Fuzz", (operation,), code=(0x20009999, 1))
    root.add_interface(interface)
    validate(root)
    presc = make_presentation("corba-c").generate(root, interface)
    stubs = make_backend(backend_name).generate(presc, flags)
    return CompiledInterface(aoi=root, interface=interface, presc=presc,
                             stubs=stubs)


def _echo(presc, module, value):
    class Impl:
        def echo(self, received):
            return received

    transport = RecordingTransport(
        LoopbackTransport(module.dispatch, Impl())
    )
    client = module.FuzzClient(transport)
    pres = presc.stub_named("echo").request_pres.fields[0].pres
    presented = denormalize(module, presc, pres, value)
    result = client.echo(presented)
    return _cmp(normalize(result)), transport.log


def _assert_matches_oracle(pair, backend_name, flags=None):
    aoi_type, value = pair
    aoi_type = _uniquify(aoi_type, itertools.count())
    result = _build(aoi_type, backend_name, flags)
    recorder = OracleRecorder(result)
    echoed, log = _echo(result.presc, result.module, value)
    assert echoed == _cmp(normalize(value))
    assert recorder.verify() == 4  # request and reply, each both ways
    assert [request for request, _reply in log] == [
        message for _op, direction, _values, message in recorder.encoded
        if direction == "request"]


class TestRendererEquivalenceFuzz:
    @settings(max_examples=50, deadline=None)
    @given(pair=type_value_pairs, backend=st.sampled_from(BACKENDS))
    def test_random_types_byte_identical(self, pair, backend):
        _assert_matches_oracle(pair, backend)


class TestPassSoundnessFuzz:
    @settings(max_examples=50, deadline=None)
    @given(pair=type_value_pairs,
           pass_name=st.sampled_from(sorted(PASS_NAMES)),
           backend=st.sampled_from(BACKENDS))
    def test_each_pass_preserves_semantics(self, pair, pass_name,
                                           backend):
        flags = OptFlags().disable_pass(pass_name)
        _assert_matches_oracle(pair, backend, flags)

    @settings(max_examples=25, deadline=None)
    @given(pair=type_value_pairs, backend=st.sampled_from(BACKENDS))
    def test_all_passes_off_preserves_semantics(self, pair, backend):
        _assert_matches_oracle(pair, backend, OptFlags.all_off())


def _struct(*types):
    return AoiStruct("S", tuple(AoiStructField("f%d" % index, aoi_type)
                                for index, aoi_type in enumerate(types)))


#: Shapes on which the generated codecs once disagreed with the oracle
#: (pinned here because random search finds them only sometimes).
ORACLE_REGRESSIONS = [
    # Mach in-line arrays of sub-word atoms pad to 4 after the elements,
    # also at the end of the message.
    ("mach3", AoiArray(AoiChar(), 3), list("abc")),
    ("mach3", AoiSequence(AoiInteger(16, True), None), [1, 2, 3]),
    ("mach3", _struct(AoiArray(AoiChar(), 3), AoiOctet()),
     {"f0": list("abc"), "f1": 5}),
    ("mach3", _struct(AoiSequence(AoiChar(), None), AoiChar()),
     {"f0": list("ab"), "f1": "z"}),
    # CDR pads before a primitive only when it is there: an empty
    # sequence of doubles ends at its count word.
    ("iiop", _struct(AoiSequence(AoiFloat(64), None),
                     AoiInteger(32, True)), {"f0": [], "f1": 7}),
    ("iiop", AoiSequence(AoiInteger(64, False), None), []),
    # A headerless byte run (fixed octet array) needs no alignment.
    ("iiop", _struct(
        AoiOptional(_struct(AoiBoolean(), AoiInteger(64, False))),
        AoiChar(), AoiArray(AoiOctet(), 1)),
     {"f0": None, "f1": "0", "f2": b"\x1f"}),
]


class TestOracleRegressions:
    @pytest.mark.parametrize("backend,aoi_type,value", ORACLE_REGRESSIONS)
    def test_shape_matches_oracle(self, backend, aoi_type, value):
        for flags in (OptFlags(), OptFlags.all_off()):
            _assert_matches_oracle((aoi_type, value), backend, flags)
