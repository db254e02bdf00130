"""RPC envelope shapes and the staging-error wire mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DecodingError,
    ObjectNotFound,
    ServerUnavailable,
    StagingDegradedError,
    StagingError,
    TransientServerError,
    VersionConflict,
)
from repro.net import (
    ProtocolError,
    decode_message,
    error_kind_for,
    raise_wire_error,
)
from repro.net.protocol import (
    WIRE_ERRORS,
    encode_error,
    encode_request_iov,
    encode_response_iov,
)


def joined(parts: list) -> bytes:
    """An iovec as the receiver sees it: one contiguous frame payload."""
    return b"".join(bytes(p) for p in parts)


class TestEnvelopes:
    def test_request_roundtrip(self):
        msg = decode_message(joined(encode_request_iov("get", (("x", 3),))))
        assert msg == ("req", "get", (("x", 3),))

    def test_response_roundtrip(self):
        assert decode_message(joined(encode_response_iov([1, 2]))) == ("ok", [1, 2])

    @pytest.mark.parametrize(
        "raw",
        [
            ("req", "get"),  # missing args
            ("req", 7, ()),  # non-str op
            ("req", "get", [1]),  # args not a tuple
            ("ok",),
            ("err", "transient", "not-an-int", "m"),
            ("sreq", "get", ()),  # no grant
            ("mystery", 1),
            [1, 2, 3],  # not a tuple at all
            (),
        ],
    )
    def test_malformed_envelopes_rejected(self, raw):
        from repro.net import encode

        with pytest.raises(ProtocolError):
            decode_message(encode(raw))


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc,kind",
        [
            (ObjectNotFound("x"), "not_found"),
            (VersionConflict("x"), "version_conflict"),
            (ServerUnavailable(2, "down"), "unavailable"),
            (TransientServerError(2, "blip"), "transient"),
            (StagingDegradedError("deg"), "degraded"),
            (DecodingError("bad shards"), "decoding"),
            (StagingError("generic"), "staging"),
        ],
    )
    def test_every_wire_error_kind_roundtrips_typed(self, exc, kind):
        """Each staging exception crosses the wire and re-raises as itself."""
        assert error_kind_for(exc) == kind
        msg = decode_message(encode_error(exc, server_id=5))
        assert msg[0] == "err" and msg[1] == kind
        with pytest.raises(type(exc)) as ei:
            raise_wire_error(msg[1], msg[2], msg[3])
        assert type(ei.value) is type(exc)  # exact type, not a parent

    def test_server_scoped_errors_keep_their_server_id(self):
        msg = decode_message(encode_error(TransientServerError(7, "blip"), server_id=0))
        assert msg[2] == 7  # the exception's own id wins over the dispatcher's
        with pytest.raises(TransientServerError) as ei:
            raise_wire_error(msg[1], msg[2], msg[3])
        assert ei.value.server_id == 7

    def test_unknown_subclass_maps_to_nearest_ancestor(self):
        class Weird(ObjectNotFound):
            pass

        assert error_kind_for(Weird("gone")) == "not_found"

    def test_unknown_kind_degrades_to_staging_error(self):
        with pytest.raises(StagingError):
            raise_wire_error("future-kind", 0, "??")

    def test_wire_errors_table_is_leaf_first(self):
        """A subclass must never be shadowed by an ancestor earlier in the table."""
        kinds = list(WIRE_ERRORS.values())
        for i, cls in enumerate(kinds):
            for ancestor in kinds[:i]:
                assert not issubclass(cls, ancestor), (cls, ancestor)


@settings(max_examples=100, deadline=None)
@given(
    st.text(min_size=1, max_size=12),
    st.lists(st.integers(-100, 100), max_size=5).map(tuple),
)
def test_request_envelope_property(op, args):
    assert decode_message(joined(encode_request_iov(op, (args,)))) == ("req", op, (args,))
