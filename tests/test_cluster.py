"""The networked cluster: wire protocol, routing, e2e bit-identity.

The load-bearing invariants:

* the wire codec round-trips exactly the types the protocol needs and
  raises :class:`WireError` on everything else — malformed bytes never
  execute code and never produce a wrong value silently;
* one bad frame never poisons a connection: oversized (boundedly),
  malformed, unknown-type, and expired-budget frames each get a typed
  error reply and the *next* frame on the same socket still works;
* placement is deterministic and canonical — the same shape routes to
  the same shard across processes, and shard-count changes remap only
  ~1/n of the keys;
* cluster results are bit-identical to an in-process
  :class:`ParserSession` — packed alive/matrix words, verdicts, and
  deterministic stats — including word-at-a-time streams;
* deadlines count once: the budget is measured at frame-write time, an
  already-spent budget fails locally, and ``drain``/``close(wait=True)``
  never orphan an in-flight verdict;
* shard-log summaries merge every shard's log with
  earliest-timestamp-wins semantics.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import struct
import time

import numpy as np
import pytest

from repro.cluster.errors import (
    ClusterError,
    ConnectionClosed,
    FrameTooLarge,
    ShardUnavailable,
    WireError,
)
from repro.cluster.launcher import ClusterLauncher
from repro.cluster.logs import ClusterLogParser, MergedTimeline, _percentile, parse_log_text
from repro.cluster.ring import HashRing, hash_key
from repro.cluster.router import ClusterClient, ShardRouter
from repro.cluster.server import ParseServer
from repro.cluster.wire import (
    decode,
    encode,
    frame_bytes,
    pack_stats,
    read_frame,
    unpack_stats,
)
from repro.engines.base import EngineStats
from repro.errors import LexiconError, StreamError
from repro.grammar.builtin import english_grammar
from repro.pipeline.session import ParserSession
from repro.serve import DeadlineExceeded, ServiceUnavailable
from repro.workloads import corpus, sentence_of_length
from tests.test_pipeline import DETERMINISTIC_STATS, assert_same_network

WAIT = 30.0  # generous upper bound for every blocking wait in this file

#: Random sentences plus a length sweep: enough distinct shapes that
#: consistent hashing spreads them over both shards.
CORPUS = corpus(seed=3, size=11) + [sentence_of_length(n) for n in range(4, 9)]


# -- the codec ---------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**63),
            3.5,
            "",
            "héllo wörld",
            b"",
            b"\x00\xff raw",
            [],
            [1, "two", None, [True, 2.5]],
            {},
            {"a": 1, "nested": {"b": [None, "x"]}},
        ],
    )
    def test_scalar_and_container_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_tuples_decode_as_lists(self):
        assert decode(encode((1, 2, 3))) == [1, 2, 3]

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(7, dtype=np.uint64),
            np.array([], dtype=np.uint64),
            np.array([[True, False], [False, True]]),
            np.arange(-3, 3, dtype=np.int64).reshape(2, 3),
            np.linspace(0.0, 1.0, 5),
        ],
    )
    def test_array_round_trip(self, array):
        back = decode(encode(array))
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert np.array_equal(back, array)

    def test_decoded_arrays_are_writable_copies(self):
        back = decode(encode(np.arange(4, dtype=np.uint64)))
        back[0] = 99  # frombuffer views would raise here

    def test_numpy_scalars_encode_as_python_scalars(self):
        assert decode(encode(np.uint64(7))) == 7
        assert decode(encode(np.float64(2.5))) == 2.5
        assert decode(encode(np.bool_(True))) is True

    def test_rejects_unencodable_type(self):
        with pytest.raises(WireError):
            encode({1, 2, 3})

    def test_rejects_oversized_int(self):
        with pytest.raises(WireError):
            encode(2**63)

    def test_rejects_non_string_dict_key(self):
        with pytest.raises(WireError):
            encode({1: "x"})

    def test_rejects_unlisted_dtype(self):
        with pytest.raises(WireError):
            encode(np.arange(3, dtype=np.uint8))

    def test_rejects_truncated_payload(self):
        payload = encode("hello")
        with pytest.raises(WireError):
            decode(payload[:-2])

    def test_rejects_trailing_bytes(self):
        with pytest.raises(WireError):
            decode(encode(1) + b"junk")

    def test_rejects_unknown_tag(self):
        with pytest.raises(WireError):
            decode(b"Z")

    def test_rejects_invalid_utf8_string(self):
        with pytest.raises(WireError):
            decode(b"s" + struct.pack("!I", 2) + b"\xff\xfe")

    def test_rejects_unknown_dtype_code(self):
        with pytest.raises(WireError):
            decode(b"a" + b"X" + bytes([1]) + struct.pack("!I", 0))


class TestPackedStats:
    def test_round_trip_preserves_deterministic_fields(self):
        stats = ParserSession(english_grammar(), engine="vector").parse(
            sentence_of_length(4)
        ).stats
        back = unpack_stats(pack_stats(stats))
        for name in DETERMINISTIC_STATS:
            assert getattr(back, name) == getattr(stats, name), name

    def test_non_scalar_extras_are_dropped(self):
        stats = EngineStats(engine="vector")
        stats.extra["note"] = "kept"
        stats.extra["trace"] = [1, 2, 3]  # not codec-scalar: dropped
        packed = pack_stats(stats)
        assert packed["extra"] == {"note": "kept"}
        assert decode(encode(packed)) == packed  # and the rest is codec-safe

    def test_unpack_rejects_non_dict(self):
        with pytest.raises(WireError):
            unpack_stats("nope")


# -- framing -----------------------------------------------------------------


def _feed(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
    """A StreamReader pre-loaded with *chunks* (call inside the loop)."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


def _read(*chunks: bytes, eof: bool = True, **kwargs) -> bytes:
    async def scenario():
        return await read_frame(_feed(*chunks, eof=eof), **kwargs)

    return asyncio.run(scenario())


class TestReadFrame:
    def test_round_trip(self):
        message = {"type": "ping", "id": 1}
        assert decode(_read(frame_bytes(message))) == message

    def test_eof_before_header_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            _read()

    def test_partial_header_then_eof_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            _read(b"\x00\x00")

    def test_eof_mid_frame_is_connection_closed(self):
        frame = frame_bytes({"type": "ping", "id": 1})
        with pytest.raises(ConnectionClosed):
            _read(frame[:-3])

    def test_zero_length_frame_is_wire_error_and_recoverable(self):
        async def scenario():
            reader = _feed(struct.pack("!I", 0), frame_bytes("after"))
            with pytest.raises(WireError):
                await read_frame(reader)
            return await read_frame(reader)

        assert decode(asyncio.run(scenario())) == "after"

    def test_bounded_oversize_is_drained_and_recoverable(self):
        async def scenario():
            big = frame_bytes(b"x" * 200)  # 200 < 4 * 64: drainable
            reader = _feed(big, frame_bytes("after"))
            with pytest.raises(FrameTooLarge) as info:
                await read_frame(reader, max_frame=64)
            assert info.value.recoverable
            return await read_frame(reader, max_frame=64)

        assert decode(asyncio.run(scenario())) == "after"

    def test_absurd_length_is_unrecoverable(self):
        with pytest.raises(FrameTooLarge) as info:
            _read(struct.pack("!I", 64 * 4 + 1), eof=False, max_frame=64)
        assert not info.value.recoverable


# -- consistent hashing ------------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        nodes = ["10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"]
        first, second = HashRing(nodes), HashRing(list(reversed(nodes)))
        for key in range(200):
            assert first.node_for(key) == second.node_for(key)

    def test_shape_keys_canonicalize_set_order(self):
        shape_a = (frozenset({"det", "noun"}), frozenset({"verb"}))
        shape_b = (frozenset({"noun", "det"}), frozenset({"verb"}))
        assert hash_key(shape_a) == hash_key(shape_b)

    def test_spread_touches_every_node(self):
        ring = HashRing([f"h{i}:70{i:02d}" for i in range(3)])
        counts = ring.spread(list(range(300)))
        assert sum(counts.values()) == 300
        assert all(count > 0 for count in counts.values())

    def test_adding_a_node_remaps_a_minority_of_keys(self):
        nodes = [f"h{i}:7000" for i in range(4)]
        before, after = HashRing(nodes), HashRing([*nodes, "h4:7000"])
        keys = list(range(1000))
        moved = sum(1 for key in keys if before.node_for(key) != after.node_for(key))
        # Ideal is 1/5 of the keys; consistent hashing should stay well
        # under the 4/5 a modulo rehash would move.
        assert 0 < moved < 500

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a:1", "a:1"])
        with pytest.raises(ValueError):
            HashRing(["a:1"], replicas=0)


# -- raw-socket edge cases against a live shard ------------------------------


@pytest.fixture(scope="module")
def raw_server():
    grammar = english_grammar()
    with ParseServer(grammar, "vector", shard_id=9) as server:
        yield server


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def _recv_message(sock: socket.socket) -> dict:
    (length,) = struct.unpack("!I", _recv_exact(sock, 4))
    return decode(_recv_exact(sock, length))


def _connect(server: ParseServer) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=WAIT)
    sock.settimeout(WAIT)
    return sock


class TestWireEdgeCases:
    """The satellite contract: a bad frame answers typed, the wire survives."""

    def _assert_still_usable(self, sock):
        sock.sendall(frame_bytes({"type": "ping", "id": 99}))
        pong = _recv_message(sock)
        assert pong["type"] == "pong" and pong["id"] == 99

    def test_garbage_payload_gets_error_then_connection_works(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(struct.pack("!I", 4) + b"\xde\xad\xbe\xef")
            error = _recv_message(sock)
            assert error["type"] == "error" and error["kind"] == "wire"
            self._assert_still_usable(sock)

    def test_non_dict_payload_gets_error_then_connection_works(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes([1, 2, 3]))
            error = _recv_message(sock)
            assert error["type"] == "error" and error["kind"] == "wire"
            self._assert_still_usable(sock)

    def test_unknown_message_type_echoes_id(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({"type": "teleport", "id": 5}))
            error = _recv_message(sock)
            assert error["type"] == "error"
            assert error["kind"] == "wire"
            assert error["id"] == 5
            self._assert_still_usable(sock)

    def test_bad_field_type_is_wire_error(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({"type": "parse", "id": 1, "words": "not-a-list"}))
            error = _recv_message(sock)
            assert error["kind"] == "wire"
            self._assert_still_usable(sock)

    def test_bool_is_not_an_int_id(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({"type": "ping", "id": True}))
            error = _recv_message(sock)
            assert error["kind"] == "wire"
            self._assert_still_usable(sock)

    def test_expired_budget_rejects_without_poisoning(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({
                "type": "parse", "id": 7,
                "words": list(sentence_of_length(3)), "budget": -0.25,
            }))
            error = _recv_message(sock)
            assert error["type"] == "error"
            assert error["kind"] == "deadline"
            assert error["id"] == 7
            # The same connection still parses.
            sock.sendall(frame_bytes({
                "type": "parse", "id": 8,
                "words": list(sentence_of_length(3)), "budget": None,
            }))
            result = _recv_message(sock)
            assert result["type"] == "result" and result["id"] == 8

    def test_unknown_word_is_a_lexicon_error(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({
                "type": "parse", "id": 3,
                "words": ["zzz-not-a-word-zzz"], "budget": None,
            }))
            error = _recv_message(sock)
            assert error["type"] == "error"
            assert error["kind"] == "lexicon"
            self._assert_still_usable(sock)

    def test_feed_on_unopened_stream_is_a_stream_error(self, raw_server):
        with _connect(raw_server) as sock:
            sock.sendall(frame_bytes({
                "type": "stream_feed", "id": 4, "stream": 42,
                "word": "the", "budget": None,
            }))
            error = _recv_message(sock)
            assert error["kind"] == "stream"
            self._assert_still_usable(sock)

    def test_partial_header_then_close_leaves_server_healthy(self, raw_server):
        sock = _connect(raw_server)
        sock.sendall(b"\x00\x00")
        sock.close()
        # A fresh connection is served as if nothing happened.
        with _connect(raw_server) as sock:
            self._assert_still_usable(sock)

    def test_oversized_frame_is_answered_and_absurd_one_drops(self):
        grammar = english_grammar()
        with ParseServer(grammar, "vector", shard_id=8, max_frame=512) as server:
            with _connect(server) as sock:
                # Boundedly oversized: drained, answered, connection lives.
                sock.sendall(frame_bytes(b"x" * 1000))  # 512 < len <= 4*512
                error = _recv_message(sock)
                assert error["type"] == "error" and error["kind"] == "wire"
                self._assert_still_usable(sock)
            with _connect(server) as sock:
                # Absurd length: corruption, the connection is dropped.
                sock.sendall(struct.pack("!I", 4 * 512 + 1))
                with pytest.raises(ConnectionError):
                    _recv_message(sock)
            with _connect(server) as sock:  # but the server itself survives
                self._assert_still_usable(sock)


# -- end-to-end: router + two shards vs one in-process session ---------------


@pytest.fixture(scope="module")
def cluster():
    grammar = english_grammar()
    servers = [
        ParseServer(grammar, "vector", shard_id=index).start_background()
        for index in range(2)
    ]
    client = ClusterClient(grammar, [server.address for server in servers])
    yield grammar, servers, client
    client.close()
    for server in servers:
        server.stop()


def assert_bit_identical(ours, theirs):
    assert ours.locally_consistent == theirs.locally_consistent
    assert ours.ambiguous == theirs.ambiguous
    assert_same_network(ours.network, theirs.network)
    for name in DETERMINISTIC_STATS:
        assert getattr(ours.stats, name) == getattr(theirs.stats, name), name


class TestClusterE2E:
    def test_parse_many_is_bit_identical_and_in_order(self, cluster):
        grammar, _, client = cluster
        reference = ParserSession(grammar, engine="vector").parse_many(CORPUS)
        clustered = client.parse_many(CORPUS, timeout=WAIT)
        assert len(clustered) == len(reference)
        for ours, theirs in zip(clustered, reference):
            assert_bit_identical(ours, theirs)

    def test_corpus_actually_spans_both_shards(self, cluster):
        grammar, _, client = cluster
        sentences = [grammar.tokenize(words) for words in CORPUS]
        spread = client.router.spread(sentences)
        assert len(spread) == 2
        assert all(count > 0 for count in spread.values())

    def test_same_shape_routes_to_one_shard(self, cluster):
        grammar, _, client = cluster
        shard = {
            client.router.shard_for(grammar.tokenize(sentence_of_length(4)))
            for _ in range(5)
        }
        assert len(shard) == 1

    def test_stream_is_bit_identical_word_by_word(self, cluster):
        grammar, _, client = cluster
        words = sentence_of_length(5)
        local = ParserSession(grammar, engine="vector").stream()
        with client.submit_stream() as stream:
            for word in words:
                ours = stream.feed(word, timeout=WAIT).result(WAIT)
                theirs = local.extend(word)
                assert_bit_identical(ours, theirs)
            assert stream.words == tuple(words)

    def test_feeding_a_closed_stream_raises(self, cluster):
        _, _, client = cluster
        stream = client.submit_stream()
        stream.close()
        with pytest.raises(StreamError):
            stream.feed("the")

    def test_ping_and_snapshot_reach_every_shard(self, cluster):
        _, servers, client = cluster
        pongs = client.ping(timeout=WAIT)
        assert sorted(p["shard"] for p in pongs.values()) == [0, 1]
        snaps = client.snapshot(timeout=WAIT)
        for address in (server.address for server in servers):
            assert "counters" in snaps[address]

    def test_lexicon_error_surfaces_at_the_door(self, cluster):
        _, _, client = cluster
        with pytest.raises(LexiconError):
            client.submit(["zzz-not-a-word-zzz"])

    def test_spent_deadline_fails_locally_before_the_wire(self, cluster):
        _, _, client = cluster
        future = client.submit(sentence_of_length(3), timeout=0.0)
        with pytest.raises(DeadlineExceeded):
            future.result(WAIT)

    def test_generous_deadline_is_not_double_counted(self, cluster):
        # Queue + wire + parse fit easily in the budget; a client that
        # also ran its own timer against shard queue time would be the
        # bug this guards against.
        _, _, client = cluster
        result = client.submit(sentence_of_length(4), timeout=WAIT).result(WAIT)
        assert result.network is not None

    def test_drain_resolves_all_in_flight_work(self, cluster):
        _, _, client = cluster
        futures = [client.submit(sentence_of_length(3)) for _ in range(8)]
        assert client.drain(timeout=WAIT)
        assert all(future.done() for future in futures)

    def test_rebind_cache_reuses_shapes(self, cluster):
        _, _, client = cluster
        client.parse_many([sentence_of_length(4)] * 3, timeout=WAIT)
        info = client.cache_info()
        assert info["hits"] >= 2

    def test_closed_client_refuses_new_work(self, cluster):
        grammar, servers, _ = cluster
        extra = ClusterClient(grammar, [servers[0].address])
        extra.close()
        with pytest.raises(ServiceUnavailable):
            extra.submit(sentence_of_length(3))


class TestShardRouterUnit:
    def test_shape_is_the_category_signature(self):
        grammar = english_grammar()
        router = ShardRouter(["a:1", "b:2"])
        sentence = grammar.tokenize(sentence_of_length(4))
        assert router.shape_of(sentence) == sentence.category_sets
        assert router.shard_for(sentence) in {"a:1", "b:2"}


# -- launcher + log harness over real subprocesses ---------------------------


class TestLauncherEndToEnd:
    def test_subprocess_cluster_parses_and_logs(self, tmp_path):
        grammar = english_grammar()
        sentences = corpus(seed=1, size=4) + [sentence_of_length(4), sentence_of_length(5)]
        longest = max(sentences, key=len)
        reference = ParserSession(grammar, engine="vector").parse_many(sentences)
        with ClusterLauncher("english", shards=2, run_dir=tmp_path) as launcher:
            assert launcher.alive() == [True, True]
            with launcher.client(grammar) as client:
                clustered = client.parse_many(sentences, timeout=WAIT)
                for ours, theirs in zip(clustered, reference):
                    assert_bit_identical(ours, theirs)
                # A stream pins to one shard process; every prefix must
                # match the in-process incremental parse.
                local = ParserSession(grammar).stream()
                with client.submit_stream() as stream:
                    for word in longest:
                        ours = stream.feed(word, timeout=WAIT).result(WAIT)
                        assert_bit_identical(ours, local.extend(word))
                    assert stream.words == tuple(longest)
        # Shards have exited: logs are complete, flushed, and parseable.
        summary = ClusterLogParser.from_directory(tmp_path, pool=False).summary()
        assert summary["completed"] >= len(sentences) + len(longest)
        assert summary["shards"] == [0, 1]
        assert launcher.alive() == []

    def test_killed_shard_fails_every_request_typed(self, tmp_path):
        grammar = english_grammar()
        launcher = ClusterLauncher(
            "english", shards=1, workers=1, workers_mode="thread", run_dir=tmp_path
        ).start()
        try:
            with launcher.client(grammar) as client:
                client.submit(sentence_of_length(4)).result(WAIT)  # warm
                futures = [
                    client.submit(sentence_of_length(10 + i % 6)) for i in range(300)
                ]
                launcher._procs[0].send_signal(signal.SIGKILL)
                # Every future resolves promptly: a result that beat
                # the kill, or the typed verdict — never a hang.
                deadline = time.monotonic() + 20.0
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append(future.result(max(0.0, deadline - time.monotonic())))
                    except ShardUnavailable as error:
                        outcomes.append(error)
                assert any(isinstance(o, ShardUnavailable) for o in outcomes)
                assert all(
                    isinstance(o, ShardUnavailable) or o.network is not None
                    for o in outcomes
                )
                with pytest.raises(ShardUnavailable):
                    client.submit(sentence_of_length(4)).result(WAIT)
        finally:
            launcher.shutdown()
        assert launcher.alive() == []

    def test_launcher_refuses_zero_shards(self):
        with pytest.raises(ClusterError):
            ClusterLauncher("english", shards=0)


# -- the log harness ---------------------------------------------------------


def _log_line(ts: str, shard: int, event: str, rest: str) -> str:
    return f"{ts} shard={shard} event={event} {rest}"


class TestLogHarness:
    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(101)]
        assert _percentile(values, 50) == 50.0
        assert _percentile(values, 99) == 99.0
        assert _percentile(values, 100) == 100.0
        assert _percentile([], 50) == 0.0

    def test_recv_done_pairing_and_latency(self):
        text = "\n".join([
            _log_line("2026-08-08T10:00:00+00:00", 0, "recv", "conn=1 id=1 kind=parse n=3"),
            _log_line("2026-08-08T10:00:00.250000+00:00", 0, "done", "conn=1 id=1 ok=1"),
            _log_line("2026-08-08T10:00:01+00:00", 0, "recv", "conn=1 id=2 kind=parse n=3"),
        ])
        parsed = parse_log_text(text)
        assert set(parsed["recv"]) == {(0, 1, 1), (0, 1, 2)}
        timeline = MergedTimeline()
        timeline.merge(parsed)
        assert timeline.latencies_ms() == [pytest.approx(250.0)]

    def test_duplicate_lines_keep_the_earliest_timestamp(self):
        text = "\n".join([
            _log_line("2026-08-08T10:00:05+00:00", 0, "done", "conn=1 id=1 ok=1"),
            _log_line("2026-08-08T10:00:02+00:00", 0, "done", "conn=1 id=1 ok=1"),
        ])
        parsed = parse_log_text(text)
        stamp = parsed["done"][(0, 1, 1)]
        assert time.gmtime(stamp).tm_sec == 2

    def test_rejects_tally_with_and_without_ids(self):
        text = "\n".join([
            _log_line("2026-08-08T10:00:00+00:00", 1, "reject", "conn=1 id=4 kind=deadline"),
            _log_line("2026-08-08T10:00:01+00:00", 1, "reject", "conn=1 kind=frame-oversized"),
        ])
        parsed = parse_log_text(text)
        assert parsed["rejects"] == {"deadline": 1, "frame-oversized": 1}
        assert parsed["shards"] == [1]

    def test_idle_shard_is_counted_from_its_ready_line(self):
        """A shard the ring sent no request logs only ``ready`` and ``stop``."""
        idle = "\n".join([
            _log_line("2026-08-08T10:00:00+00:00", 1, "ready", "addr=127.0.0.1:4001 engine=vector"),
            _log_line("2026-08-08T10:00:09+00:00", 1, "stop", ""),
        ])
        parsed = parse_log_text(idle)
        assert parsed["shards"] == [1]
        assert parsed["recv"] == {} and parsed["done"] == {}
        busy = "\n".join([
            _log_line("2026-08-08T10:00:00+00:00", 0, "ready", "addr=127.0.0.1:4000 engine=vector"),
            _log_line("2026-08-08T10:00:01+00:00", 0, "recv", "conn=1 id=1 kind=parse n=3"),
            _log_line("2026-08-08T10:00:01.100000+00:00", 0, "done", "conn=1 id=1 ok=1"),
        ])
        summary = ClusterLogParser.from_texts([busy, idle], pool=False).summary()
        assert summary["shards"] == [0, 1]
        assert summary["completed"] == 1

    def test_merged_summary_spans_shards(self):
        shard0 = "\n".join([
            _log_line("2026-08-08T10:00:00+00:00", 0, "recv", "conn=1 id=1 kind=parse n=3"),
            _log_line("2026-08-08T10:00:00.100000+00:00", 0, "done", "conn=1 id=1 ok=1"),
        ])
        shard1 = "\n".join([
            _log_line("2026-08-08T10:00:01+00:00", 1, "recv", "conn=1 id=1 kind=parse n=4"),
            _log_line("2026-08-08T10:00:01.300000+00:00", 1, "done", "conn=1 id=1 ok=1"),
        ])
        summary = ClusterLogParser.from_texts([shard0, shard1], pool=False).summary()
        assert summary["shards"] == [0, 1]
        assert summary["completed"] == 2
        assert summary["window_seconds"] == pytest.approx(1.3)
        assert summary["latency"]["max_ms"] == pytest.approx(300.0)

    def test_pooled_and_serial_parsing_agree(self):
        texts = [
            _log_line("2026-08-08T10:00:00+00:00", s, "recv", "conn=1 id=1 kind=parse n=2")
            + "\n"
            + _log_line("2026-08-08T10:00:00.050000+00:00", s, "done", "conn=1 id=1 ok=1")
            for s in range(2)
        ]
        serial = ClusterLogParser.from_texts(texts, pool=False).summary()
        pooled = ClusterLogParser.from_texts(texts, pool=True).summary()
        assert serial == pooled

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ClusterError):
            ClusterLogParser.from_directory(tmp_path)
