"""Tests for the real TCP transport: framing, server, client, deployments."""

import socket
import struct

import pytest

from helpers import make_timed_record
from repro.core.errors import DaemonError, TransportError
from repro.core.key import FlowKey
from repro.core.serialization import FORMAT_VERSION
from repro.distributed import (
    Collector,
    Deployment,
    DeploymentCloseError,
    FlowtreeDaemon,
    NetConfig,
    SimulatedTransport,
    SummaryMessage,
    site_shard,
)
from repro.distributed.net import CollectorServer, SiteClient
from repro.distributed.net.framing import (
    MAX_FRAME_BYTES,
    AckFrame,
    FrameDecoder,
    HelloFrame,
    SummaryFrame,
    decode_body,
    encode_ack,
    encode_frame,
    encode_hello,
    encode_summary,
    encode_summary_body,
)
from repro.features.schema import SCHEMA_2F_SRC_DST


def _records(count=300, bins=3):
    return [
        make_timed_record(
            timestamp=(i % bins) * 60.0,
            src=f"10.0.{i % 4}.{i % 250 or 1}",
            dst=f"192.168.1.{i % 200 or 1}",
            packets=1 + i % 5,
        )
        for i in range(count)
    ]


def _capture_messages(site="site-a", count=200, bins=2):
    """Real summary messages, captured off a daemon via the simulated transport."""
    transport = SimulatedTransport()
    daemon = FlowtreeDaemon(site, SCHEMA_2F_SRC_DST, transport, bin_width=60.0)
    daemon.consume_records(_records(count=count, bins=bins))
    daemon.flush()
    return [message for _, message in transport.receive("collector")]


def _wire_keys(*wires):
    return [FlowKey.from_wire(SCHEMA_2F_SRC_DST, wire) for wire in wires]


class TestFraming:
    def test_hello_round_trip(self):
        frame = decode_body(encode_hello("site-7", "collector-3"))
        assert isinstance(frame, HelloFrame)
        assert frame.site == "site-7"
        assert frame.destination == "collector-3"

    def test_ack_round_trip(self):
        frame = decode_body(encode_ack(12345))
        assert isinstance(frame, AckFrame)
        assert frame.acked == 12345

    @pytest.mark.parametrize("sequence", [-1, 0, 7, (0xFFFFFFFF << 32) + 9])
    def test_summary_round_trip_preserves_sequence(self, sequence):
        message = SummaryMessage(
            site="edge", bin_index=4, bin_start=240.0, bin_end=300.0,
            kind="diff", payload=b"\x00\x01payload", record_count=17,
            sequence=sequence,
        )
        frame = decode_body(encode_summary(3, encode_summary_body(message)))
        assert isinstance(frame, SummaryFrame)
        assert frame.frame_no == 3
        assert frame.message == message

    def test_torn_frames_decode_byte_at_a_time(self):
        message = SummaryMessage("s", 0, 0.0, 60.0, "full", b"xyz" * 40, sequence=5)
        stream = (
            encode_frame(encode_hello("s", "collector"))
            + encode_frame(encode_summary(1, encode_summary_body(message)))
            + encode_frame(encode_ack(1))
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i : i + 1]))
        assert [type(f) for f in frames] == [HelloFrame, SummaryFrame, AckFrame]
        assert frames[1].message == message
        assert decoder.buffered_bytes == 0

    def test_chunked_frames_decode_across_boundaries(self):
        message = SummaryMessage("s", 1, 60.0, 120.0, "full", b"p" * 999, sequence=2)
        stream = encode_frame(encode_summary(1, encode_summary_body(message))) * 3
        decoder = FrameDecoder()
        frames = []
        for start in range(0, len(stream), 7):
            frames.extend(decoder.feed(stream[start : start + 7]))
        assert len(frames) == 3
        assert all(f.message == message for f in frames)

    def test_oversized_frame_length_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_unknown_frame_type_rejected(self):
        with pytest.raises(TransportError):
            decode_body(b"\xff\x00\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(TransportError):
            decode_body(encode_hello("a", "b") + b"junk")

    def test_frame_numbers_start_at_one(self):
        with pytest.raises(TransportError):
            encode_summary(0, b"body")

    def test_unknown_kind_code_rejected_at_decode(self):
        message = SummaryMessage("s", 0, 0.0, 60.0, "full", b"")
        body = bytearray(encode_summary_body(message))
        kind_offset = 2 + len(b"s") + 24  # site prefix + bin_index/start/end
        assert body[kind_offset] == 0  # "full"
        body[kind_offset] = 9
        with pytest.raises(TransportError, match="kind code"):
            decode_body(encode_summary(1, bytes(body)))

    def test_wire_bytes_cover_prefix_and_body(self):
        body = encode_ack(1)
        frame = decode_body(body)
        assert frame.wire_bytes == len(encode_frame(body))

    def test_corrupted_body_byte_fails_the_frame_crc(self):
        message = SummaryMessage("s", 0, 0.0, 60.0, "full", b"payload" * 20, sequence=1)
        wire = bytearray(encode_frame(encode_summary(1, encode_summary_body(message))))
        for index in (8, len(wire) // 2, len(wire) - 1):  # first body byte, middle, last
            corrupted = bytearray(wire)
            corrupted[index] ^= 0xFF
            with pytest.raises(TransportError, match="CRC"):
                FrameDecoder().feed(bytes(corrupted))

    def test_corrupted_crc_field_fails_the_frame_crc(self):
        wire = bytearray(encode_frame(encode_hello("s", "collector")))
        wire[5] ^= 0x01  # inside the 4-byte CRC trailer after the length prefix
        with pytest.raises(TransportError, match="CRC"):
            FrameDecoder().feed(bytes(wire))

    def test_clean_frame_after_crc_check_still_decodes(self):
        body = encode_hello("s", "collector")
        frames = FrameDecoder().feed(encode_frame(body) * 2)
        assert [type(f) for f in frames] == [HelloFrame, HelloFrame]


class TestServerClient:
    def test_end_to_end_matches_simulated_transport(self):
        simulated = SimulatedTransport()
        sim_daemon = FlowtreeDaemon("edge", SCHEMA_2F_SRC_DST, simulated, bin_width=60.0)
        sim_collector = Collector(SCHEMA_2F_SRC_DST, simulated)
        sim_daemon.consume_records(_records())
        sim_daemon.flush()
        sim_collector.poll()

        with CollectorServer().start() as server:
            collector = Collector(SCHEMA_2F_SRC_DST, server)
            with SiteClient(server.host, server.port, site="edge") as client:
                daemon = FlowtreeDaemon("edge", SCHEMA_2F_SRC_DST, client, bin_width=60.0)
                daemon.consume_records(_records())
                daemon.flush()
                client.drain(timeout=10.0)
                collector.poll()

                # identical payload accounting, identical answers
                assert collector.bytes_received == sim_collector.bytes_received
                assert collector.messages_processed == sim_collector.messages_processed
                sim_log = simulated.channel_log("edge", "collector")
                tcp_log = client.channel_log("edge", "collector")
                assert tcp_log.payload_bytes == sim_log.payload_bytes
                assert tcp_log.messages == sim_log.messages
                assert tcp_log.overhead_bytes > 0
                # server-side accounting mirrors the client's exactly
                server_log = server.channel_log("edge", "collector")
                assert server_log.payload_bytes == tcp_log.payload_bytes
                assert server_log.overhead_bytes == tcp_log.overhead_bytes
                keys = _wire_keys(("10.0.1.0/24", "*"), ("*", "*"))
                assert collector.estimate_many(keys) == sim_collector.estimate_many(keys)

    def test_reconnect_delivers_exactly_once(self):
        with CollectorServer().start() as server:
            collector = Collector(SCHEMA_2F_SRC_DST, server)
            client = SiteClient(
                server.host, server.port, site="edge",
                backoff_base=0.02, backoff_max=0.2,
            )
            try:
                client.register("edge")
                client.register("collector")
                first, second = _capture_messages(site="edge", bins=2)[:2]
                client.send("edge", "collector", first)
                client.drain(timeout=10.0)
                server.stop()
                # queued while the collector is down; the sender loop is
                # in its reconnect-with-backoff cycle the whole time
                client.send("edge", "collector", second)
                assert client.pending("collector") == 1
                server.start()
                client.drain(timeout=10.0)
                collector.poll()
                assert collector.messages_processed == 2
                assert collector.duplicates_dropped == 0
                assert client.stats()["connects"] >= 2
            finally:
                client.abort()

    def test_replayed_frames_are_deduplicated(self):
        """A client that never saw its acks resends; the collector dedups."""
        messages = _capture_messages(site="edge", bins=2)
        assert len(messages) >= 2
        with CollectorServer().start() as server:
            collector = Collector(SCHEMA_2F_SRC_DST, server)
            for _ in range(2):  # same frames, two connections
                self._replay_raw(server, "edge", messages)
            collector.poll()
            assert collector.messages_processed == len(messages)
            assert collector.duplicates_dropped == len(messages)

    def _replay_raw(self, server, site, messages):
        """Ship messages over a bare socket and wait for the cumulative ack."""
        stream = encode_frame(encode_hello(site, "collector"))
        for frame_no, message in enumerate(messages, start=1):
            stream += encode_frame(encode_summary(frame_no, encode_summary_body(message)))
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(stream)
            sock.settimeout(5.0)
            decoder = FrameDecoder()
            acked = 0
            while acked < len(messages):
                chunk = sock.recv(4096)
                assert chunk, "server closed the connection before acking"
                for frame in decoder.feed(chunk):
                    assert isinstance(frame, AckFrame)
                    acked = frame.acked

    def test_out_of_sequence_frame_drops_connection(self):
        message = _capture_messages(site="edge", bins=1)[0]
        with CollectorServer().start() as server:
            Collector(SCHEMA_2F_SRC_DST, server)
            stream = encode_frame(encode_hello("edge", "collector"))
            stream += encode_frame(encode_summary(2, encode_summary_body(message)))
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                sock.sendall(stream)
                sock.settimeout(5.0)
                assert sock.recv(4096) == b""  # dropped without an ack
            assert server.stats()["protocol_errors"] == 1
            assert server.pending("collector") == 0

    @pytest.mark.parametrize("hello", [
        encode_hello("edge", "ghost"),                                      # unknown endpoint
        encode_hello("edge", "collector", summary_format=FORMAT_VERSION + 1),  # undecodable
    ])
    def test_unacceptable_hello_drops_connection(self, hello):
        with CollectorServer().start() as server:
            Collector(SCHEMA_2F_SRC_DST, server)
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                sock.sendall(encode_frame(hello))
                sock.settimeout(5.0)
                assert sock.recv(4096) == b""
            assert server.stats()["protocol_errors"] == 1

    def test_corrupt_summary_payload_in_valid_frame_kills_connection(self):
        """Pinned outcome: a SUMMARY whose frame decodes cleanly (length and
        CRC both valid) but whose Flowtree payload is garbage must kill the
        connection as a protocol error — never be acked, never be ingested."""
        poison = SummaryMessage(
            "edge", 0, 0.0, 60.0, "full", b"\xff\xfenot a flowtree", sequence=0
        )
        with CollectorServer().start() as server:
            collector = Collector(SCHEMA_2F_SRC_DST, server)
            stream = encode_frame(encode_hello("edge", "collector"))
            stream += encode_frame(encode_summary(1, encode_summary_body(poison)))
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                sock.sendall(stream)
                sock.settimeout(5.0)
                assert sock.recv(4096) == b""  # killed without an ack
            assert server.stats()["protocol_errors"] == 1
            assert server.pending("collector") == 0  # nothing reached the inbox
            assert collector.poll() == 0
            assert collector.messages_processed == 0
            assert collector.sites == []

    def test_wire_corruption_detected_before_ack(self):
        """A frame corrupted on the wire is a CRC protocol error: the sender
        never sees an ack for it, so the resend path owns recovery."""
        message = _capture_messages(site="edge", bins=1)[0]
        with CollectorServer().start() as server:
            collector = Collector(SCHEMA_2F_SRC_DST, server)
            wire = bytearray(
                encode_frame(encode_summary(1, encode_summary_body(message)))
            )
            wire[len(wire) // 2] ^= 0xFF
            stream = encode_frame(encode_hello("edge", "collector")) + bytes(wire)
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                sock.sendall(stream)
                sock.settimeout(5.0)
                assert sock.recv(4096) == b""
            assert server.stats()["protocol_errors"] == 1
            assert collector.poll() == 0

    def test_backpressure_raises_when_collector_stalls(self):
        # no server listening: the queue fills and stays full
        client = SiteClient(
            "127.0.0.1", 1, site="edge", max_pending=1, send_timeout=0.2,
            backoff_base=0.02, backoff_max=0.2,
        )
        try:
            client.register("edge")
            client.register("collector")
            message = _capture_messages(site="edge", bins=1)[0]
            client.send("edge", "collector", message)  # fills the queue
            with pytest.raises(TransportError, match="stalled or unreachable"):
                client.send("edge", "collector", message)
            assert client.outstanding == 1
        finally:
            client.abort()

    def test_close_raises_when_backlog_cannot_drain(self):
        client = SiteClient(
            "127.0.0.1", 1, site="edge", backoff_base=0.02, backoff_max=0.2,
        )
        client.register("edge")
        client.register("collector")
        client.send("edge", "collector", _capture_messages(site="edge", bins=1)[0])
        with pytest.raises(TransportError, match="drain"):
            client.close(timeout=0.3)
        assert not client.running  # torn down despite the drain failure

    def test_client_send_validation(self):
        client = SiteClient("127.0.0.1", 1, site="edge")
        client.register("edge")
        client.register("collector")
        message = SummaryMessage("edge", 0, 0.0, 60.0, "full", b"x")
        with pytest.raises(TransportError, match="unknown source"):
            client.send("ghost", "collector", message)
        with pytest.raises(TransportError, match="unknown destination"):
            client.send("edge", "ghost", message)
        client.register("other")
        with pytest.raises(TransportError, match="cannot send as"):
            client.send("other", "collector", message)
        with pytest.raises(TransportError, match="delivers to"):
            client.send("edge", "other", message)
        with pytest.raises(TransportError, match="SummaryMessage"):
            client.send("edge", "collector", type("Sized", (), {"payload_bytes": 3})())
        assert client.receive("edge") == []
        with pytest.raises(TransportError):
            client.receive("edge", limit=-1)
        client.abort()
        with pytest.raises(TransportError, match="closed"):
            client.send("edge", "collector", message)

    def test_server_is_receive_only(self):
        with CollectorServer().start() as server:
            server.register("collector")
            with pytest.raises(TransportError, match="receive side"):
                server.send("a", "collector", object())
            with pytest.raises(TransportError):
                server.receive("ghost")
            with pytest.raises(TransportError):
                server.receive("collector", limit=-1)
            with pytest.raises(TransportError, match="already listening"):
                server.start()

    def test_server_closed_for_good(self):
        server = CollectorServer().start()
        server.close()
        with pytest.raises(TransportError, match="closed"):
            server.start()


class TestDeploymentTcp:
    def _build(self, transport, collectors=1, net=None):
        deployment = Deployment(
            SCHEMA_2F_SRC_DST,
            ["nyc", "lax", "fra", "sin", "gru"],
            bin_width=60.0,
            transport=transport,
            collectors=collectors,
            net=net,
        )
        for name in deployment.site_names:
            deployment.attach_records(name, _records())
        return deployment

    def test_tcp_replay_matches_memory_byte_identically(self):
        keys = _wire_keys(("10.0.1.0/24", "*"), ("*", "*"), ("10.0.2.3", "192.168.1.3"))
        with self._build("memory") as memory, self._build("tcp") as tcp:
            memory.run()
            tcp.run()
            assert tcp.query_engine.estimate_many(keys) == memory.query_engine.estimate_many(keys)
            assert tcp.collector.bytes_received == memory.collector.bytes_received
            assert tcp.transfer_bytes() > 0

    def test_mid_replay_collector_restart_is_exactly_once(self):
        keys = _wire_keys(("10.0.1.0/24", "*"), ("*", "*"))
        net = NetConfig(backoff_base=0.02, backoff_max=0.2)
        with self._build("memory") as memory, self._build("tcp", net=net) as tcp:
            memory.run()
            names = tcp.site_names
            for name in names[:2]:
                tcp.site(name).replay()
            tcp.restart_collector_servers()
            for name in names[2:]:
                tcp.site(name).replay()
            tcp.drain()
            for collector in tcp.collectors:
                collector.poll()
            assert tcp.query_engine.estimate_many(keys) == memory.query_engine.estimate_many(keys)
            assert tcp.collector.messages_processed == memory.collector.messages_processed

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_multi_collector_scatter_gather_matches_single(self, transport):
        keys = _wire_keys(("10.0.1.0/24", "*"), ("*", "*"))
        with self._build("memory") as single, self._build(transport, collectors=2) as multi:
            single.run()
            multi.run()
            assert multi.query_engine.estimate_many(keys) == single.query_engine.estimate_many(keys)
            assert multi.query_engine.sites == single.site_names
            # sites actually landed on their CRC-32 shard
            for name in multi.site_names:
                owner = multi.collector_for(name)
                assert owner is multi.collectors[site_shard(name, 2)]
                assert name in owner.sites
            assert sum(c.messages_processed for c in multi.collectors) == (
                single.collector.messages_processed
            )
            with pytest.raises(DaemonError, match="shards sites across"):
                multi.collector

    def test_tcp_deployment_has_no_shared_transport(self):
        with self._build("tcp") as deployment:
            with pytest.raises(DaemonError, match="no shared transport"):
                deployment.transport
            client = deployment.site_transport("nyc")
            assert isinstance(client, SiteClient)
            assert deployment.servers and deployment.servers[0].running

    def test_invalid_configurations_rejected(self):
        with pytest.raises(DaemonError, match="transport must be one of"):
            Deployment(SCHEMA_2F_SRC_DST, ["a"], transport="carrier-pigeon")
        with pytest.raises(DaemonError, match="at least one collector"):
            Deployment(SCHEMA_2F_SRC_DST, ["a"], collectors=0)
        with pytest.raises(DaemonError, match="only applies"):
            Deployment(SCHEMA_2F_SRC_DST, ["a"], transport="memory", net=NetConfig())

    def test_multi_collector_rejects_durable_store(self, tmp_path):
        from repro.distributed import CollectorConfig

        config = CollectorConfig(store="file", store_path=str(tmp_path / "c"))
        with pytest.raises(DaemonError, match="single-collector"):
            Deployment(SCHEMA_2F_SRC_DST, ["a", "b"], collectors=2, collector_config=config)


class TestDeploymentCloseErrors:
    def _boom(self, label):
        def raiser():
            raise RuntimeError(f"boom {label}")

        return raiser

    def test_single_close_error_reraised_as_is(self):
        deployment = Deployment(SCHEMA_2F_SRC_DST, ["a", "b"])
        deployment.daemon("a").close = self._boom("a")
        with pytest.raises(RuntimeError, match="boom a"):
            deployment.close()

    def test_all_close_errors_collected(self):
        deployment = Deployment(SCHEMA_2F_SRC_DST, ["a", "b", "c"])
        deployment.daemon("a").close = self._boom("a")
        deployment.daemon("c").close = self._boom("c")
        closed = []
        survivor_close = deployment.daemon("b").close
        deployment.daemon("b").close = lambda: (closed.append("b"), survivor_close())
        with pytest.raises(DeploymentCloseError) as excinfo:
            deployment.close()
        labels = [label for label, _ in excinfo.value.errors]
        assert labels == ["daemon 'a'", "daemon 'c'"]
        assert "boom a" in str(excinfo.value) and "boom c" in str(excinfo.value)
        assert excinfo.value.__cause__ is excinfo.value.errors[0][1]
        # daemon 'b' was still closed despite the earlier failure
        assert closed == ["b"]


class TestSiteShard:
    def test_single_collector_is_shard_zero(self):
        assert site_shard("anything", 1) == 0

    def test_placement_is_stable_and_in_range(self):
        names = [f"site-{i}" for i in range(50)]
        shards = [site_shard(name, 3) for name in names]
        assert shards == [site_shard(name, 3) for name in names]
        assert set(shards) <= {0, 1, 2}
        assert len(set(shards)) > 1

    def test_rejects_zero_collectors(self):
        with pytest.raises(DaemonError):
            site_shard("a", 0)
