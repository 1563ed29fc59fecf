"""Check generated codecs against the interpretive marshaller.

:class:`OracleRecorder` wraps every codec entry of a loaded stub module
(``_m_req_*``, ``_u_req_*``, ``_m_rep_ok_*``, ``_m_rep_x<N>_*``,
``_u_rep_*``) and records what each call encoded or decoded.  After a
session, :meth:`OracleRecorder.verify` replays every record through
:class:`repro.pres.interp.InterpretiveCodec`, which walks the PRES tree
directly and shares no code with the marshal IR:

* every message body the stubs encoded equals the oracle's encoding of
  the same values, byte for byte, and
* every body the stubs decoded yields the values the oracle decodes
  from the same bytes.
"""

from repro.core.handle import codec_form
from repro.encoding import MarshalBuffer, ReadCursor
from repro.pres import InterpretiveCodec
from repro.pres.values import normalize


def comparable(value):
    """Normalized *value* with byte views as bytes (zero-copy decode
    hands back memoryviews; the oracle hands back bytes) and exceptions
    as their fields (the oracle decodes an exception to a dict)."""
    value = normalize(value)
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()
                if key != "_exception"}
    if isinstance(value, (list, tuple)):
        return type(value)(comparable(item) for item in value)
    return value


class OracleRecorder:
    """Record one module's codec traffic; verify it against the oracle."""

    def __init__(self, result):
        self.presc = result.presc
        self.backend = result.stubs.backend_instance
        self.codec = InterpretiveCodec(
            self.backend.wire_format, self.presc.pres_registry,
            self.presc.mint_registry,
        )
        self.encoded = []   # (op, "request"|"reply", values, message)
        self.decoded = []   # (op, "request"|"reply", d, o, values)
        module = result.module
        for name, function in list(vars(module).items()):
            form, op = codec_form(name)
            if form is not None:
                setattr(module, name, self._wrap(form, op, name, function))

    def _wrap(self, form, op, name, inner):
        if form == "m_req":
            def m_req(b, ctx, *args):
                start = b.length
                inner(b, ctx, *args)
                self.encoded.append(
                    (op, "request", args, bytes(b.data[start:b.length])))
            return m_req
        if form in ("m_rep_ok", "m_rep_exc"):
            label = 0 if form == "m_rep_ok" else int(
                name[len("_m_rep_x"):].split("_", 1)[0])

            def m_rep(b, ctx, *values):
                start = b.length
                inner(b, ctx, *values)
                self.encoded.append(
                    (op, "reply", (label, values),
                     bytes(b.data[start:b.length])))
            return m_rep
        if form == "u_req":
            def u_req(d, o):
                args, end = inner(d, o)
                self.decoded.append((op, "request", bytes(d[:end]), o, args))
                return args, end
            return u_req

        def u_rep(d, o):
            try:
                value = inner(d, o)
            except Exception as error:
                self.decoded.append((op, "reply", bytes(d), o, error))
                raise
            self.decoded.append((op, "reply", bytes(d), o, value))
            return value
        return u_rep

    # -- the oracle's view ---------------------------------------------

    def _header(self, op, direction):
        stub = self.presc.stub_named(op)
        if direction == "request":
            return len(self.backend.request_header(self.presc, stub).template)
        return len(self.backend.reply_header(self.presc, stub).template)

    def _oracle_value(self, op, direction, values):
        """The presented values as the oracle's PRES value."""
        stub = self.presc.stub_named(op)
        if direction == "request":
            return {field.name: value for field, value
                    in zip(stub.request_pres.fields, values)}
        label, payload = values
        if label == 0:
            fields = stub.reply_pres.arms[0].pres.fields
            return (0, {field.name: value
                        for field, value in zip(fields, payload)})
        (error,) = payload
        return (label, error)

    def _pres(self, op, direction):
        stub = self.presc.stub_named(op)
        return stub.request_pres if direction == "request" \
            else stub.reply_pres

    def oracle_encode(self, op, direction, values):
        header = self._header(op, direction)
        buffer = MarshalBuffer()
        buffer.reserve(header)
        self.codec.encode(self._pres(op, direction),
                          self._oracle_value(op, direction, values), buffer)
        return buffer.getvalue()[header:]

    def oracle_decode(self, op, direction, message, offset):
        """Decode the body of *message* at *offset* with the oracle; it
        must consume the message exactly."""
        cursor = ReadCursor(message, offset)
        value = self.codec._decode(self._pres(op, direction), cursor)
        assert cursor.offset == len(cursor.data), (op, direction)
        return value

    def _as_generated(self, op, decoded):
        """The oracle's decoded reply in ``_u_rep_*``'s return shape."""
        label, payload = decoded
        if label != 0:
            return label, payload
        fields = self.presc.stub_named(op).reply_pres.arms[0].pres.fields
        values = [payload[field.name] for field in fields]
        if not values:
            return 0, None
        return 0, values[0] if len(values) == 1 else tuple(values)

    # -- verification --------------------------------------------------

    def verify(self):
        """Assert every recorded codec call agrees with the oracle;
        returns the number of calls checked."""
        for op, direction, values, message in self.encoded:
            header = self._header(op, direction)
            assert message[header:] == self.oracle_encode(
                op, direction, values), (op, direction, values)
            decoded = self.oracle_decode(op, direction, message, header)
            assert comparable(decoded) == comparable(
                self._oracle_value(op, direction, values)), (op, direction)
        for op, direction, message, offset, values in self.decoded:
            decoded = self.oracle_decode(op, direction, message, offset)
            if direction == "request":
                fields = self.presc.stub_named(op).request_pres.fields
                assert comparable(values) == comparable(
                    tuple(decoded[field.name] for field in fields)), op
                continue
            label, expected = self._as_generated(op, decoded)
            assert (label != 0) == isinstance(values, BaseException), \
                (op, values)
            assert comparable(values) == comparable(expected), op
        return len(self.encoded) + len(self.decoded)
