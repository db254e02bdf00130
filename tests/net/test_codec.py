"""Property tests: the wire codec round-trips every RPC value shape.

The staging RPC surface moves python scalars/containers, numpy arrays,
and the staging identity types (BBox / ObjectDescriptor / StoredObject).
Hypothesis drives arbitrary compositions of those; every value must
satisfy ``decode(encode(v)) == v`` with types preserved exactly —
a tuple that comes back as a list would silently break dict keys and
the ``("req", op, args)`` envelope.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.descriptors import ObjectDescriptor
from repro.geometry import BBox
from repro.net import ProtocolError, decode, encode
from repro.staging.store import StoredObject

# ---------------------------------------------------------------------------
# strategies

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(I64_MIN, I64_MAX),
    st.floats(allow_nan=False),  # NaN != NaN breaks equality, tested separately
    st.text(max_size=40),
    st.binary(max_size=40),
)

# Zero-byte payloads are a real case: itemsize-0 void dtypes ("V0") store
# geometry-only fragments (see test_store_index_invariant).
ARRAY_DTYPES = ["float64", "float32", "int64", "int32", "uint8", "complex128", "V0"]


@st.composite
def ndarrays(draw):
    dtype = np.dtype(draw(st.sampled_from(ARRAY_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
    if dtype.itemsize == 0:
        return np.zeros(shape, dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if dtype.kind == "c":
        value = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elif dtype.kind == "f":
        value = rng.standard_normal(shape)  # finite values: NaN != NaN
    else:
        value = rng.integers(0, 100, size=shape)
    # asarray + reshape: keep 0-d shapes as true arrays, not numpy scalars.
    return np.asarray(value).astype(dtype).reshape(shape)


@st.composite
def bboxes(draw):
    ndim = draw(st.integers(1, 4))
    lo = [draw(st.integers(0, 16)) for _ in range(ndim)]
    hi = [l + draw(st.integers(1, 16)) for l in lo]
    return BBox(tuple(lo), tuple(hi))


@st.composite
def descriptors(draw):
    return ObjectDescriptor(
        draw(st.text(min_size=1, max_size=12)),
        draw(st.integers(0, 1000)),
        draw(bboxes()),
        dtype=draw(st.sampled_from(["float64", "float32", "int32", "V0"])),
    )


@st.composite
def stored_objects(draw):
    desc = draw(descriptors())
    if np.dtype(desc.dtype).itemsize == 0:
        data = np.zeros(desc.bbox.shape, dtype=desc.dtype)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        data = rng.standard_normal(desc.bbox.shape).astype(desc.dtype)
    return StoredObject(desc, data)


leaves = st.one_of(scalars, ndarrays(), bboxes(), descriptors(), stored_objects())

values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers(-100, 100)), inner, max_size=4
        ),
        st.sets(st.integers(-100, 100), max_size=4),
    ),
    max_leaves=8,
)


def assert_same(a, b) -> None:
    """Structural equality with exact type preservation."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, StoredObject):
        assert a.desc == b.desc
        assert_same(a.data, b.data)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert sorted(map(repr, a)) == sorted(map(repr, b))
        for k in a:
            assert_same(a[k], b[k])
    else:
        assert a == b


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None)
@given(values)
def test_roundtrip_preserves_value_and_type(v):
    assert_same(v, decode(encode(v)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=10), values), max_size=4))
def test_request_envelope_roundtrip(calls):
    """Every RPC message type survives the wire: req, ok, err."""
    reqs = [("req", op, (arg,)) for op, arg in calls]
    for msg in (
        *reqs,
        ("ok", [arg for _op, arg in calls]),
        ("err", "transient", 3, "injected"),
    ):
        assert_same(msg, decode(encode(msg)))


@settings(max_examples=50, deadline=None)
@given(ndarrays())
def test_decoded_arrays_are_writable_copies(arr):
    out = decode(encode(arr))
    if out.dtype.itemsize:
        assert out.flags.writeable  # never a view into the receive buffer
    assert out.flags.c_contiguous or out.size <= 1 or 0 in out.shape


class TestEdgeCases:
    def test_zero_byte_fragment(self):
        """Itemsize-0 dtypes produce 0-byte arrays that must still carry shape."""
        arr = np.zeros((4, 3), dtype="V0")
        out = decode(encode(arr))
        assert out.shape == (4, 3) and out.dtype == np.dtype("V0")
        assert out.nbytes == 0

    def test_empty_containers(self):
        for v in ([], (), {}, set(), "", b""):
            assert_same(v, decode(encode(v)))

    def test_i64_boundaries_and_bignum_fallback(self):
        for n in (I64_MIN, I64_MAX, 0, -1):
            assert decode(encode(n)) == n
        for n in (I64_MAX + 1, I64_MIN - 1, 10**30):  # pickle fallback path
            assert decode(encode(n)) == n

    def test_float_specials(self):
        for v in (0.0, -0.0, float("inf"), float("-inf"), 5e-324, 1.7e308):
            out = decode(encode(v))
            assert out == v and np.signbit(out) == np.signbit(v)
        assert np.isnan(decode(encode(float("nan"))))

    def test_max_size_payload_roundtrips_untransformed(self):
        """A large array's bytes cross the wire verbatim (no transform)."""
        arr = np.arange(4 << 20, dtype=np.uint8)  # 4 MiB
        blob = encode(arr)
        assert arr.tobytes() in blob  # raw C-order bytes embedded as-is
        np.testing.assert_array_equal(decode(blob), arr)

    def test_noncontiguous_array(self):
        base = np.arange(64, dtype=np.float64).reshape(8, 8)
        view = base[::2, ::2]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(decode(encode(view)), view)

    def test_numpy_scalars_decode_as_python(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float64(2.5))) == 2.5

    def test_object_dtype_falls_back_to_pickle(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        out = decode(encode(arr))
        assert out.dtype == object and out[0] == {"a": 1} and out[1] is None

    def test_unknown_types_ride_pickle(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(server=2, op=5, kind="flaky", calls=3)
        assert decode(encode(plan)) == plan

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode(encode(1) + b"\x00")

    def test_truncated_payload_rejected(self):
        blob = encode(np.arange(100, dtype=np.float64))
        with pytest.raises(ProtocolError):
            decode(blob[:-5])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode(b"\xff")


# ---------------------------------------------------------------------------
# scatter-gather: encode_iov / zero-copy decode / out-of-band SegRefs


@settings(max_examples=150, deadline=None)
@given(values)
def test_encode_iov_join_equals_encode(v):
    """The iovec form is byte-identical to the contiguous form."""
    from repro.net.codec import encode_iov

    assert b"".join(bytes(p) for p in encode_iov(v)) == encode(v)


class TestScatterGather:
    def test_large_contiguous_payload_is_zero_copy(self):
        """≥ IOV_MIN_BYTES contiguous arrays ride the iovec as memoryviews
        of the caller's buffer — the regression test for the no-copy fast
        path."""
        from repro.net.codec import encode_iov

        arr = np.arange(2048, dtype=np.float64)  # 16 KiB
        views = [p for p in encode_iov(arr) if isinstance(p, memoryview)]
        assert len(views) == 1
        assert np.shares_memory(np.frombuffer(views[0], dtype=np.uint8), arr)

    def test_small_payload_inlines_into_control_stream(self):
        from repro.net.codec import encode_iov

        parts = encode_iov(np.arange(8, dtype=np.float64))  # 64 B
        assert not any(isinstance(p, memoryview) for p in parts)

    def test_zero_copy_decode_returns_views_over_frame(self):
        arr = np.arange(2048, dtype=np.float64)
        buf = bytearray(encode(arr))  # writable, like recv_frame's buffer
        frame = np.frombuffer(buf, dtype=np.uint8)
        view = decode(buf, copy_arrays=False)
        assert np.shares_memory(view, frame)
        np.testing.assert_array_equal(view, arr)
        owned = decode(buf)  # default: owning, writable copy
        assert not np.shares_memory(owned, frame)
        owned[0] = -1.0

    def test_array_sink_claims_arrays_and_source_restores(self):
        from repro.net.codec import SegRef

        arr = np.arange(1024, dtype=np.float64)
        placed: dict[tuple, np.ndarray] = {}

        def sink(a):
            ref = SegRef("seg-x", 3, len(placed) * 8192, a.nbytes, a.dtype.str, a.shape)
            placed[(ref.segment, ref.offset)] = a.copy()
            return ref

        payload = encode({"x": arr, "n": 5}, array_sink=sink)
        assert arr.tobytes() not in payload  # bytes went out-of-band
        out = decode(payload, array_source=lambda ref: placed[(ref.segment, ref.offset)])
        np.testing.assert_array_equal(out["x"], arr)
        assert out["n"] == 5

    def test_segref_without_resolver_is_protocol_error(self):
        arr = np.arange(64, dtype=np.float64)

        def sink(a):
            from repro.net.codec import SegRef

            return SegRef("seg-x", 0, 0, a.nbytes, a.dtype.str, a.shape)

        payload = encode(arr, array_sink=sink)
        with pytest.raises(ProtocolError):
            decode(payload)

    def test_ndarray_subclass_encodes_as_base_data(self):
        """Subclassed arrays (the shm transport's leased reply views) must
        encode as plain array data — pickling them would drag transport
        state (an unpicklable lease here) onto the wire."""
        import threading

        class Tagged(np.ndarray):
            pass

        arr = np.arange(640, dtype=np.float64).view(Tagged)
        arr._lease = threading.Lock()  # pickle would blow up on this
        out = decode(encode(arr))
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, np.arange(640, dtype=np.float64))
