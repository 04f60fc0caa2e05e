"""The frame-serving core, run against both services that use it.

A shard (``SSDServer``) and a cluster router (``ClusterRouter``) share
one connection loop, so they must agree on what the loop decides:
idle HEALTH, empty-body observability requests, unknown types, and a
lost frame boundary.
"""

import socket

import pytest

from repro.errors import RemoteError
from repro.faults import transport_sweep
from repro.serve import (
    ClusterConfig,
    LocalCluster,
    RouterConfig,
    ServeClient,
    protocol,
    serve_in_thread,
)


@pytest.fixture(scope="module", params=["shard", "router"])
def address(request):
    if request.param == "shard":
        with serve_in_thread() as handle:
            yield handle.address
    else:
        config = ClusterConfig(shards=1, replication=1,
                               router=RouterConfig(probe_interval=0.05))
        with LocalCluster(config) as cluster:
            yield cluster.address


def exchange(address, frame: bytes):
    """Send raw frame bytes on a fresh connection; return every frame
    read back until the peer closes (or stops answering)."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(frame)
        stream = sock.makefile("rb")
        frames = []
        try:
            while True:
                message = protocol.read_frame(stream)
                if message is None:
                    return frames, True
                frames.append(message)
                if len(frames) > 4:
                    return frames, False
        except socket.timeout:
            return frames, False


class TestSharedFrameLoop:
    def test_idle_health_reports_no_inflight(self, address):
        with ServeClient(*address) as client:
            status = client.health()
        assert status.ok
        assert status.inflight == 0

    @pytest.mark.parametrize("mtype", [protocol.HEALTH, protocol.STATS,
                                       protocol.GET_METRICS],
                             ids=["HEALTH", "STATS", "GET_METRICS"])
    def test_observability_request_with_body_is_bad_request(self, address,
                                                            mtype):
        with ServeClient(*address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client._request(mtype, b"\x00", op="stats")
            assert excinfo.value.code == protocol.E_BAD_REQUEST
            assert "carries no body" in str(excinfo.value)
            # a bad body costs the request, not the connection
            assert client.health().ok

    def test_unknown_request_type_is_bad_request(self, address):
        with ServeClient(*address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client._request(0x55, b"", op="stats")
            assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_bad_crc_gets_one_error_frame_then_close(self, address):
        frame = bytearray(protocol.encode_frame(protocol.Message(
            type=protocol.STATS, request_id=1)))
        frame[-1] ^= 0xFF
        frames, closed = exchange(address, bytes(frame))
        assert closed
        assert len(frames) == 1
        assert frames[0].type == protocol.ERROR
        code, text = protocol.parse_error(frames[0].body)
        assert code == protocol.E_BAD_REQUEST
        assert "CRC32" in text

    def test_corrupt_frames_are_refused_not_served(self, address):
        stats = protocol.encode_frame(
            protocol.Message(type=protocol.STATS, request_id=1))
        report = transport_sweep(*address, stats, cases=30, seed=9,
                                 timeout=2.0, kinds=("corrupt",))
        assert report.ok, report.format()
        assert report.count("answered") == 0
