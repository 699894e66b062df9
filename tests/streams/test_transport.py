"""Wire-format tests: framing, versioning, and integrity checks.

The distributed tier's protocol promise is that malformed bytes fail
loudly (:class:`~repro.errors.ProtocolError`) instead of deserialising
garbage: every frame carries a magic, a protocol version, and a
declared length; checkpoint payloads additionally carry a CRC-32. These
tests drive the framing layer directly over socket pairs — no executor,
no host agent — so each validation rule is pinned down in isolation.
"""

import socket

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.graph.stream import EventBlock
from repro.samplers.checkpoint import state_from_wire, state_to_wire
from repro.streams.transport import (
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HELLO,
    PROTOCOL_VERSION,
    _FRAME_HEADER,
    _FRAME_MAGIC,
    block_from_frame,
    expect_hello,
    hello_payload,
    parse_address,
    read_frame,
    write_frame,
)


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def make_block(n=5):
    rng = np.random.default_rng(7)
    u = rng.integers(0, 50, size=n)
    v = u + 1 + rng.integers(0, 10, size=n)
    return EventBlock(np.ones(n, dtype=bool), u, v)


class TestFraming:
    @pytest.mark.parametrize(
        "kind,payload",
        [
            (FRAME_HELLO, b'{"protocol": 1}'),
            (FRAME_CONTROL, b"\x80\x05pickled"),
            (FRAME_BLOCK, b"columns"),
            (FRAME_CONTROL, b""),  # zero-length payloads are legal
        ],
    )
    def test_round_trip(self, pair, kind, payload):
        left, right = pair
        write_frame(left, kind, payload)
        assert read_frame(right) == (kind, payload)

    def test_frames_preserve_order(self, pair):
        left, right = pair
        for i in range(5):
            write_frame(left, FRAME_CONTROL, bytes([i]))
        for i in range(5):
            assert read_frame(right) == (FRAME_CONTROL, bytes([i]))

    def test_clean_close_between_frames_is_none(self, pair):
        left, right = pair
        write_frame(left, FRAME_CONTROL, b"last")
        left.close()
        assert read_frame(right) == (FRAME_CONTROL, b"last")
        assert read_frame(right) is None

    def test_truncated_payload_raises(self, pair):
        left, right = pair
        header = _FRAME_HEADER.pack(
            _FRAME_MAGIC, PROTOCOL_VERSION, FRAME_CONTROL, 100
        )
        left.sendall(header + b"only a few bytes")
        left.close()
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(right)

    def test_truncated_header_raises(self, pair):
        left, right = pair
        left.sendall(b"RS")  # partial magic, then EOF
        left.close()
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(right)

    def test_bad_magic_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(b"NOPE", PROTOCOL_VERSION, FRAME_CONTROL, 0)
        )
        with pytest.raises(ProtocolError, match="magic"):
            read_frame(right)

    def test_cross_version_frame_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION + 1, FRAME_CONTROL, 0
            )
        )
        with pytest.raises(ProtocolError, match="version"):
            read_frame(right)

    def test_unknown_kind_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(_FRAME_MAGIC, PROTOCOL_VERSION, 99, 0)
        )
        with pytest.raises(ProtocolError, match="kind"):
            read_frame(right)

    def test_absurd_length_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION, FRAME_CONTROL, 1 << 40
            )
        )
        with pytest.raises(ProtocolError, match="frame cap"):
            read_frame(right)


class TestHandshake:
    def test_hello_round_trip(self, pair):
        left, right = pair
        write_frame(left, FRAME_HELLO, hello_payload("coordinator"))
        meta = expect_hello(right, peer="coordinator")
        assert meta["protocol"] == PROTOCOL_VERSION
        assert meta["role"] == "coordinator"

    def test_version_mismatch_rejected_at_handshake(self, pair):
        left, right = pair
        payload = (
            '{"protocol": %d, "role": "x"}' % (PROTOCOL_VERSION + 5)
        ).encode()
        write_frame(left, FRAME_HELLO, payload)
        with pytest.raises(ProtocolError, match="protocol"):
            expect_hello(right, peer="peer")

    def test_non_hello_first_frame_rejected(self, pair):
        left, right = pair
        write_frame(left, FRAME_CONTROL, b"not a hello")
        with pytest.raises(ProtocolError, match="HELLO"):
            expect_hello(right, peer="peer")

    def test_eof_before_hello_rejected(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ProtocolError, match="before HELLO"):
            expect_hello(right, peer="peer")


class TestBlockFrames:
    def test_block_round_trip(self):
        block = make_block()
        restored = block_from_frame(block.to_bytes())
        assert np.array_equal(restored.u, block.u)
        assert np.array_equal(restored.v, block.v)
        assert np.array_equal(restored.is_insert, block.is_insert)

    def test_truncated_block_payload_raises(self):
        payload = make_block().to_bytes()
        with pytest.raises(ProtocolError):
            block_from_frame(payload[: len(payload) - 4])

    def test_padded_block_payload_raises(self):
        # A frame longer than the block header declares means the byte
        # stream desynchronised — reject rather than drop bytes.
        payload = make_block().to_bytes() + b"\x00" * 8
        with pytest.raises(ProtocolError, match="mismatch"):
            block_from_frame(payload)


def _v2_frame(head, body=b"", version=2):
    """Hand-build a checkpoint frame with a valid CRC around ``head``."""
    import json
    import struct as _struct
    import zlib

    head_bytes = head if isinstance(head, bytes) else json.dumps(head).encode()
    payload = _struct.pack("<I", len(head_bytes)) + head_bytes + body
    return _struct.Struct("<4sBxxxIQ").pack(
        b"RPCK", version, zlib.crc32(payload), len(payload)
    ) + payload


class TestCheckpointWire:
    STATE = {
        "format": "x/v1",
        "budget": 60,
        "items": [1, 2.5, "a"],
        "columns": {
            "a.u": np.array([1, 2, 3], dtype="<i8"),
            "a.w": np.array([0.5, -1e300], dtype="<f8"),
            "b.flag": np.array([True, False, True], dtype="|b1"),
            "c.empty": np.array([], dtype="<i8"),
        },
    }

    def test_round_trip(self):
        decoded = state_from_wire(state_to_wire(self.STATE))
        columns = decoded.pop("columns")
        expected = dict(self.STATE)
        expected_columns = expected.pop("columns")
        assert decoded == expected
        assert list(columns) == list(expected_columns)
        for name, column in expected_columns.items():
            assert columns[name].dtype == column.dtype
            assert columns[name].tolist() == column.tolist()

    def test_truncation_raises(self):
        blob = state_to_wire(self.STATE)
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ProtocolError):
                state_from_wire(blob[:cut])

    def test_bad_magic_raises(self):
        blob = bytearray(state_to_wire(self.STATE))
        blob[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            state_from_wire(bytes(blob))

    def test_cross_version_raises(self):
        blob = bytearray(state_to_wire(self.STATE))
        blob[4] += 1  # the version byte
        with pytest.raises(ProtocolError, match="version"):
            state_from_wire(bytes(blob))

    def test_payload_corruption_fails_crc(self):
        blob = bytearray(state_to_wire(self.STATE))
        # Flip one column byte: the CRC covers header and columns alike.
        blob[-2] ^= 0x01
        with pytest.raises(ProtocolError):
            state_from_wire(bytes(blob))

    def test_extra_bytes_fail_length_check(self):
        blob = state_to_wire(self.STATE) + b" "
        with pytest.raises(ProtocolError):
            state_from_wire(blob)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ProtocolError, match="state, columns"):
            state_from_wire(_v2_frame([1, 2, 3]))

    def test_unframeable_column_rejected(self):
        state = {"columns": {"x": np.zeros(2, dtype=np.int32)}}
        with pytest.raises(ConfigurationError, match="int32|<i4"):
            state_to_wire(state)

    @pytest.mark.parametrize(
        "frame,match",
        [
            # A column table that claims more bytes than follow it.
            (_v2_frame({"state": {}, "columns": [["a", "<i8", 4]]},
                       b"\0" * 8), "declares 32 bytes"),
            # A huge count is refused by arithmetic, before allocating.
            (_v2_frame({"state": {}, "columns": [["a", "<f8", 1 << 60]]}),
             "declares"),
            (_v2_frame({"state": {}, "columns": [["a", "<i4", 1]]},
                       b"\0" * 4), "dtype"),
            (_v2_frame({"state": {}, "columns": [["a", "<i8", -1]]}),
             "count"),
            (_v2_frame({"state": {}, "columns": [["a", "<i8", True]]},
                       b"\0" * 8), "count"),
            (_v2_frame({"state": {}, "columns": [["a", "<i8", 1],
                                                 ["a", "<i8", 1]]},
                       b"\0" * 16), "unique"),
            (_v2_frame({"state": {}, "columns": [["a", "<i8"]]}),
             "name, dtype, count"),
            (_v2_frame({"state": [], "columns": []}), "state, columns"),
            (_v2_frame(b"{not json"), "does not decode"),
            (_v2_frame(b"[" * 100_000), "does not decode"),
            (_v2_frame({"state": {}, "columns": []}, version=1), "version 1"),
        ],
        ids=[
            "table-past-payload", "huge-count", "unknown-dtype",
            "negative-count", "bool-count", "duplicate-name",
            "short-entry", "state-not-dict", "bad-json", "json-depth-bomb",
            "version-1",
        ],
    )
    def test_hostile_frame_rejected(self, frame, match):
        with pytest.raises(ProtocolError, match=match):
            state_from_wire(frame)

    def test_header_length_overrun_rejected(self):
        frame = bytearray(_v2_frame({"state": {}, "columns": []}))
        # Patch the u32 header length past the payload, then re-CRC.
        import struct as _struct
        import zlib

        payload = bytearray(frame[20:])
        payload[:4] = _struct.pack("<I", len(payload))
        frame = _struct.Struct("<4sBxxxIQ").pack(
            b"RPCK", 2, zlib.crc32(payload), len(payload)
        ) + bytes(payload)
        with pytest.raises(ProtocolError, match="overruns"):
            state_from_wire(frame)


class TestParseAddress:
    def test_valid(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("node-3:0") == ("node-3", 0)

    @pytest.mark.parametrize(
        "bad", ["localhost", "9000", ":9000", "host:", "host:notaport",
                "host:70000"]
    )
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)
