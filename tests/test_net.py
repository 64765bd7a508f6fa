"""Network serving: routing, digest identity, drain, faults, hostile frames.

The contract under test is the one ``docs/service.md`` states: the network
tier is a *pure transport*.  Any worker/process count serves bit-identical
outcomes (equal ``healthy_digest``), a dead worker yields isolated errors —
never a hang — and SIGTERM drains in-flight work before exit.
"""

import logging
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.api.outcome import DecodeOutcome
from repro.evaluation.service_load import ServiceLoadEngine
from repro.service import (
    HOSTILE_SMOKE_PLAN,
    HOSTILE_SMOKE_TRACES,
    CodeSpec,
    DecodeRequest,
    DecodeService,
    Scenario,
    ServiceConfig,
    SessionKey,
    TraceSpec,
)
from repro.service.net import (
    HashRing,
    NetClient,
    NetServer,
    protocol,
)
from repro.service.net.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    ProtocolError,
    read_frame_sync,
    write_frame_sync,
)
from repro.service.net.bench import prewarm_specs, scaling_bench
from repro.service.trace import NOISE_FAMILY_SMOKE_TRACE, SMOKE_TRACE, generate_trace

#: Small two-scenario trace: fast to replay, still exercises mixed routing.
NET_TRACE = TraceSpec(
    "net-test",
    (
        Scenario(3, physical_error_rate=0.02, decoder="micro-blossom"),
        Scenario(3, physical_error_rate=0.03, decoder="union-find"),
    ),
    requests=32,
    seed=11,
)

NET_CONFIG = ServiceConfig(max_batch_size=8, max_wait_seconds=0.001)


def net_engine(spec, server, **kwargs) -> ServiceLoadEngine:
    """A load engine replaying ``spec`` through NetClients to ``server``."""
    host, port = server.host, server.port
    return ServiceLoadEngine(
        spec, config=server.config, front=lambda: NetClient(host, port), **kwargs
    )


class TestHashRing:
    def test_deterministic_across_instances(self):
        hashes = [f"{value:016x}" for value in range(0, 2**64, 2**58)]
        a = HashRing([0, 1, 2, 3])
        b = HashRing([3, 2, 1, 0])  # insertion order must not matter
        assert [a.route(h) for h in hashes] == [b.route(h) for h in hashes]

    def test_remove_only_moves_dead_workers_keys(self):
        ring = HashRing([0, 1, 2, 3])
        hashes = [f"{value:016x}" for value in range(0, 2**64, 2**56)]
        before = {h: ring.route(h) for h in hashes}
        ring.remove(2)
        for h, owner in before.items():
            if owner == 2:
                assert ring.route(h) != 2
            else:
                assert ring.route(h) == owner

    def test_empty_ring_raises_lookup_error(self):
        ring = HashRing([0])
        ring.remove(0)
        with pytest.raises(LookupError):
            ring.route("0" * 16)

    def test_distribution_covers_all_workers(self):
        ring = HashRing([0, 1, 2, 3])
        assignment = ring.assignment(f"{value:016x}" for value in range(0, 2**64, 2**54))
        assert all(assignment[worker] for worker in (0, 1, 2, 3))


class TestPrewarm:
    def test_worker_sessions_bind_the_prewarmed_graph(self):
        """A prewarmed code decodes on the graph the server built before
        forking; any other code still gets a locally built graph."""
        from repro.service import SessionKey
        from repro.service.net.worker import _prewarmed_session_factory

        spec = CodeSpec(3, physical_error_rate=0.02)
        graph = spec.build_graph()
        factory = _prewarmed_session_factory({spec.key(): graph})
        assert factory(SessionKey(spec, "union-find")).graph is graph
        other = CodeSpec(3, physical_error_rate=0.03)
        session = factory(SessionKey(other, "union-find"))
        assert session.graph is not graph
        assert session.graph.edges == other.build_graph().edges


class TestDigestIdentity:
    @pytest.mark.parametrize(
        "trace",
        [NET_TRACE, SMOKE_TRACE, NOISE_FAMILY_SMOKE_TRACE],
        ids=lambda trace: trace.name,
    )
    def test_digest_identical_across_process_counts(self, trace):
        inproc = ServiceLoadEngine(trace, config=NET_CONFIG).run()
        entry, results = scaling_bench(trace, process_counts=(1, 2, 4), config=NET_CONFIG)
        assert entry["digest_match"] is True
        for count, result in results.items():
            assert result.healthy_digest == inproc.healthy_digest, count
            assert result.completed == inproc.completed
            assert result.error_responses == 0
            assert result.identity_mismatches == 0
        efficiencies = [row["efficiency"] for row in entry["series"]]
        assert entry["series"][0]["efficiency"] == pytest.approx(1.0)
        assert all(e > 0 for e in efficiencies)
        assert entry["cpu_count"] >= 1

    def test_handshake_reports_config_hash_and_workers(self):
        server = NetServer(
            NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE)
        )
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                assert client.server_workers == 2
                assert client.server_config_hash == NET_CONFIG.config_hash()
        finally:
            server.stop()

    def test_stream_over_network_matches_direct(self):
        from repro.graphs import SyndromeSampler
        from repro.stream import get_streaming_decoder

        trace = generate_trace(NET_TRACE)
        key = NET_TRACE.scenarios[0].session_key()
        graph = trace.graphs[0]
        _, rounds = SyndromeSampler(graph, seed=5).sample_rounds()
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                stream = client.open_stream(key)
                rebuilt = stream.decode_rounds(rounds)
        finally:
            server.stop()
        direct = get_streaming_decoder(key.decoder, graph, key.config)
        direct.begin(graph)
        for defects in rounds:
            direct.push_round(defects)
        outcome = direct.finalize()
        assert rebuilt.correction_edges(graph) == outcome.correction_edges(graph)
        assert rebuilt.weight == outcome.weight

    def test_stream_results_have_in_process_types(self):
        """NetStream resolves like ServiceStream: ``push_round`` to a cost
        ``Counter``, ``finalize`` to a ``DecodeOutcome`` equal to the
        in-process stream's (rebuilt from the same wire form)."""
        from repro.graphs import SyndromeSampler

        key = NET_TRACE.scenarios[0].session_key()
        graph = key.code.build_graph()
        _, rounds = SyndromeSampler(graph, seed=7).sample_rounds()

        def drive(front):
            stream = front.open_stream(key)
            stream.begin().result(30.0)
            costs = [stream.push_round(defects).result(30.0) for defects in rounds]
            return costs, stream.finalize().result(30.0)

        with DecodeService(NET_CONFIG) as service:
            local_costs, local = drive(service)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                net_costs, remote = drive(client)
        finally:
            server.stop()
        assert all(isinstance(cost, Counter) for cost in net_costs)
        assert net_costs == local_costs
        assert type(remote) is DecodeOutcome
        assert remote == DecodeOutcome.from_dict(local.to_dict())


class TestWorkerDeath:
    def test_killed_worker_errors_are_isolated(self):
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            ring = HashRing([0, 1])
            victim = 0
            with NetClient(host, port) as client:
                baseline = client.decode_many(
                    [traced.request for traced in trace.requests]
                )
                assert all(response.ok for response in baseline)
                os.kill(server._workers[victim].process.pid, signal.SIGKILL)
                server._workers[victim].process.join(5.0)
                deadline = time.monotonic() + 5.0
                while server._workers[victim].alive and time.monotonic() < deadline:
                    time.sleep(0.01)
                responses = client.decode_many(
                    [traced.request for traced in trace.requests], timeout=30.0
                )
                for traced, before, after in zip(
                    trace.requests, baseline, responses
                ):
                    routed = ring.route(traced.request.session.key_hash())
                    if routed == victim:
                        # a key of the dead arc either re-routed cleanly or
                        # errored in isolation -- but never hangs (the
                        # decode_many timeout above is the hang gate)
                        assert after.status in ("ok", "error")
                    else:
                        assert after.ok
                        graph = trace.graphs[traced.scenario_index]
                        assert after.outcome.correction_edges(graph) == (
                            before.outcome.correction_edges(graph)
                        )
                # once the death has been routed around, everything succeeds
                final = client.decode_many(
                    [traced.request for traced in trace.requests], timeout=30.0
                )
                assert all(response.ok for response in final)
        finally:
            server.stop()

    def test_worker_death_and_drain_are_logged(self, caplog):
        """A SIGKILLed worker yields one warning that names it; stop() logs
        the drain's start and end at INFO."""
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        server.start()
        with caplog.at_level(logging.INFO, logger="repro.service.net.server"):
            try:
                os.kill(server._workers[1].process.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not any(
                    record.levelno == logging.WARNING for record in caplog.records
                ):
                    time.sleep(0.01)
            finally:
                server.stop()
        records = [r for r in caplog.records if r.name == "repro.service.net.server"]
        warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "worker 1 " in warnings[0], warnings
        infos = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert [message.split()[0] for message in infos] == ["draining", "drained"]

    def test_kill_mid_burst_never_hangs(self):
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                futures = [
                    client.submit(traced.request)
                    for traced in trace.requests * 4
                ]
                os.kill(server._workers[1].process.pid, signal.SIGKILL)
                statuses = {future.result(timeout=30.0).status for future in futures}
                assert statuses <= {"ok", "error"}
        finally:
            server.stop()


class TestDrainAndReconnect:
    def test_stop_drains_inflight(self):
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        client = NetClient(host, port)
        try:
            futures = [client.submit(traced.request) for traced in trace.requests]
            server.stop()
            responses = [future.result(timeout=30.0) for future in futures]
            assert all(response.ok for response in responses)
        finally:
            client.close()

    def test_reconnect_after_restart_resumes_session(self):
        trace = generate_trace(NET_TRACE)
        request = trace.requests[0].request
        graph = trace.graphs[trace.requests[0].scenario_index]

        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                before = client.decode(request, timeout=30.0)
        finally:
            server.stop()

        restarted = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = restarted.start()
        try:
            with NetClient(host, port) as client:
                after = client.decode(request, timeout=30.0)
        finally:
            restarted.stop()
        assert before.ok and after.ok
        assert after.outcome.correction_edges(graph) == before.outcome.correction_edges(
            graph
        )
        assert after.outcome.weight == before.outcome.weight


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (os.path.abspath("src"),)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve-net",
                "--serve",
                "--processes",
                "2",
                "--port",
                "0",
                "--prewarm-distances",
                "3",
                "--prewarm-error-rates",
                "0.02,0.03",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving on "), banner
            address = banner.split()[2]
            host, port = address.rsplit(":", 1)

            trace = generate_trace(NET_TRACE)
            with NetClient(host, int(port), timeout=60.0) as client:
                futures = [
                    client.submit(traced.request) for traced in trace.requests
                ]
                process.send_signal(signal.SIGTERM)
                # SIGTERM drains: every in-flight request still resolves.
                responses = [future.result(timeout=30.0) for future in futures]
            assert all(response.ok for response in responses)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)


class TestNetworkReplay:
    """The load engine drives a NetClient exactly like an in-process service."""

    def test_replay_against_running_server(self):
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        server.start()
        try:
            result = net_engine(NET_TRACE, server).run(verify_identity=True)
        finally:
            server.stop()
        inproc = ServiceLoadEngine(NET_TRACE, config=NET_CONFIG).run()
        assert result.healthy_digest == inproc.healthy_digest
        assert result.completed == inproc.completed
        assert result.identity_checked == inproc.completed
        assert result.identity_mismatches == 0
        assert result.wire is not None and result.wire["codec"] == CODEC_BINARY

    def test_batch_ledger_counts_each_batch_once(self):
        """Every member of a batch of size s reports s: both front ends
        count one batch per s decoded responses (the network replay used to
        count one batch per response)."""
        inproc = ServiceLoadEngine(NET_TRACE, config=NET_CONFIG).run()
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        server.start()
        try:
            net = net_engine(NET_TRACE, server).run()
        finally:
            server.stop()
        for result in (inproc, net):
            assert result.batches == sum(result.batch_sizes.values())
            decoded = sum(size * count for size, count in result.batch_sizes.items())
            assert decoded == result.completed - result.cache_hits

    def test_hostile_mix_is_isolated_over_the_network(self):
        """The pinned hostile families under the pinned fault plan: every
        poisoned request errors, healthy ones stay bit-identical, and both
        slow-consumer streams finalize to their direct outcomes."""
        config = NET_CONFIG.replace(fault_plan=HOSTILE_SMOKE_PLAN, session_build_retries=2)
        specs = dict(HOSTILE_SMOKE_TRACES)
        server = NetServer(config, processes=1, prewarm=prewarm_specs(specs["zipf"]))
        server.start()
        try:
            results = {
                family: net_engine(spec, server).run(verify_identity=True)
                for family, spec in specs.items()
            }
        finally:
            server.stop()
        for family, result in results.items():
            assert result.poisoned_errored == result.poisoned, family
            assert result.identity_mismatches == 0, family
            assert result.stream_mismatches == 0, family
        assert sum(result.poisoned for result in results.values()) > 0
        assert results["slow-consumer"].streams == 2


class TestErasuresOverNetwork:
    """Heralded erasures must survive both wire hops: client → server
    (the binary syndrome layout carries an erasure array) and server →
    worker (the pipe carries the request's wire form — regression: dropping
    ``erasures`` decoded on the unerased graph, same pairs but wrong
    weights)."""

    def test_erased_syndrome_weight_matches_direct_decode(self):
        from repro.api import DecoderSession
        from repro.graphs import (
            SyndromeSampler,
            erasure_noise,
            surface_code_decoding_graph,
        )
        from repro.service import DecodeRequest, SessionKey
        from repro.service.request import STATUS_OK

        spec = CodeSpec(distance=3, physical_error_rate=0.015, noise="erasure")
        graph = surface_code_decoding_graph(3, erasure_noise(0.015))
        shots = SyndromeSampler(graph, seed=42).sample_batch(300)
        erased = [s for s in shots if s.erasures and s.defects][:6]
        assert erased, "sampling rate too low to herald any erased defects"
        session = DecoderSession(graph, "micro-blossom")
        key = SessionKey(spec, "micro-blossom")
        server = NetServer(NET_CONFIG, processes=2, prewarm=(spec,))
        server.start()
        try:
            host, port = server.host, server.port
            client = NetClient(host, port)
            requests = [DecodeRequest(key, shot) for shot in erased]
            # decode_many packs request-batch frames; the extra single
            # submit covers the lone-request path too.
            responses = client.decode_many(requests) + [
                client.decode(DecodeRequest(key, erased[0]))
            ]
            for request, response in zip(requests + [requests[0]], responses):
                assert response.status == STATUS_OK, response.error
                direct = session.decode(request.syndrome)
                served = response.outcome.result
                assert sorted(served.pairs) == sorted(direct.pairs)
                assert served.weight == direct.weight
            client.close()
        finally:
            server.stop()


class TestConnectionRobustness:
    def test_client_survives_idle_gap_longer_than_handshake_timeout(self):
        """The handshake timeout must not tear down an idle steady-state
        connection: the reader thread blocks without a deadline, so a pause
        with no inbound frames is not a connection failure."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port, timeout=0.3) as client:
                time.sleep(0.9)  # idle for 3x the handshake timeout
                response = client.decode(trace.requests[0].request, timeout=30.0)
                assert response.ok
        finally:
            server.stop()

    def test_submit_after_connection_loss_raises_instead_of_hanging(self):
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        client = NetClient(host, port)
        try:
            assert client.decode(trace.requests[0].request, timeout=30.0).ok
            server.stop()
            deadline = time.monotonic() + 10.0
            while client._broken is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client._broken is not None
            # A future registered after the reader died would never resolve;
            # the client must fail fast instead.
            with pytest.raises(ConnectionError):
                client.submit(trace.requests[0].request)
        finally:
            client.close()

    def test_malformed_requests_refused_without_killing_connection(self):
        """A null syndrome or non-integer defects is a per-frame refusal:
        the connection stays up and serves the next valid request."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            session_wire = trace.requests[0].request.session.to_dict()
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                write_frame_sync(
                    sock,
                    {
                        "kind": "request",
                        "id": 1,
                        "request": {"session": session_wire, "syndrome": None},
                    },
                )
                bad = 8
                for offset in range(bad):
                    write_frame_sync(
                        sock,
                        {
                            "kind": "request",
                            "id": 2 + offset,
                            "request": {
                                "session": session_wire,
                                "syndrome": {"defects": ["bogus"]},
                            },
                        },
                    )
                for _ in range(1 + bad):
                    frame = read_frame_sync(sock)
                    assert frame["kind"] == "error"
                    assert "bad request" in frame["error"]
                # The connection is still perfectly serviceable.
                write_frame_sync(
                    sock,
                    {
                        "kind": "request",
                        "id": 99,
                        "request": trace.requests[0].request.to_dict(),
                    },
                )
                frame = read_frame_sync(sock)
                assert frame["kind"] == "response"
                assert frame["response"]["status"] == "ok"
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_hostile_json_batch_refuses_only_the_bad_member(self):
        """A JSON request-batch mixing a valid member, a 513-defect one and
        an unpackable one: the bad member is refused, the others are
        answered."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            valid = trace.requests[0].request.to_dict()
            session_wire = valid["session"]
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                members = [
                    {"id": 1, "request": valid},
                    {
                        "id": 2,
                        "request": {
                            "session": session_wire,
                            "syndrome": {"defects": list(range(513))},
                        },
                    },
                    {
                        "id": 3,
                        "request": {"session": session_wire, "syndrome": {"defects": ["x"]}},
                    },
                ]
                write_frame_sync(sock, {"kind": "request-batch", "requests": members})
                replies = {}
                for _ in members:
                    frame = read_frame_sync(sock)
                    replies[frame["id"]] = frame
                assert replies[1]["kind"] == "response"
                assert replies[1]["response"]["status"] == "ok"
                assert replies[2]["kind"] == "response"
                assert replies[3]["kind"] == "error"
                assert "bad request" in replies[3]["error"]
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_float_defect_in_json_batch_is_refused_not_truncated(self):
        """A batch member with ``"defects": [1.5]`` gets the same refusal as
        that request sent alone; it must not be decoded as defect 1."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            valid = trace.requests[0].request.to_dict()
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                members = [
                    {"id": 1, "request": valid},
                    {
                        "id": 2,
                        "request": {
                            "session": valid["session"],
                            "syndrome": {"defects": [1.5]},
                        },
                    },
                ]
                write_frame_sync(sock, {"kind": "request-batch", "requests": members})
                replies = {}
                for _ in members:
                    frame = read_frame_sync(sock)
                    replies[frame["id"]] = frame
                assert replies[1]["kind"] == "response"
                assert replies[1]["response"]["status"] == "ok"
                assert replies[2]["kind"] == "error"
                assert "bad request" in replies[2]["error"]
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "patch",
        [
            {"defects": [-1]},
            {"defects": [2**32]},
            {"defects": 5},
            {"defects": {"1": 2}},
            {"logical_flip": "no"},
        ],
        ids=["negative", "2**32", "int", "object", "flip-string"],
    )
    def test_unpackable_json_syndrome_is_refused_and_connection_serves(self, patch):
        """The front end packs a JSON member's syndrome once; one it cannot
        pack (an index outside ``[0, 2**32)``, ``defects`` not a list, or a
        field of another type, which is never coerced) is a ``bad request``
        for that member alone, sent alone or in a batch, and the connection
        keeps serving."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            valid = trace.requests[0].request.to_dict()
            bad = {**valid, "syndrome": {**valid["syndrome"], **patch}}
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                write_frame_sync(sock, {"kind": "request", "id": 1, "request": bad})
                members = [{"id": 2, "request": valid}, {"id": 3, "request": bad}]
                write_frame_sync(sock, {"kind": "request-batch", "requests": members})
                replies = {}
                for _ in range(3):
                    frame = read_frame_sync(sock)
                    replies[frame["id"]] = frame
                for frame_id in (1, 3):
                    assert replies[frame_id]["kind"] == "error"
                    assert "bad request" in replies[frame_id]["error"]
                assert replies[2]["kind"] == "response"
                assert replies[2]["response"]["status"] == "ok"
                assert replies[2]["response"]["request"] == valid
                write_frame_sync(sock, {"kind": "request", "id": 4, "request": valid})
                frame = read_frame_sync(sock)
                assert (frame["kind"], frame["id"]) == ("response", 4)
                assert frame["response"]["status"] == "ok"
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_lossy_session_fields_are_refused_not_coerced(self):
        """A session with a non-integral ``distance`` or ``rounds`` or a
        string error rate gets a ``bad request`` error in either codec; it
        must not be truncated or parsed into another code and answered."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            valid = trace.requests[0].request.to_dict()
            code = valid["session"]["code"]
            lossy = [
                {**code, "distance": code["distance"] + 0.7},
                {**code, "rounds": 2.9},
                {**code, "physical_error_rate": str(code["physical_error_rate"])},
            ]
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                frame_id = 0
                for codec in (CODEC_JSON, CODEC_BINARY):
                    for bad_code in lossy:
                        frame_id += 1
                        session = {**valid["session"], "code": bad_code}
                        request = {**valid, "session": session}
                        write_frame_sync(
                            sock, {"kind": "request", "id": frame_id, "request": request}, codec
                        )
                        frame = read_frame_sync(sock)
                        assert frame["kind"] == "error"
                        assert frame["id"] == frame_id
                        assert "bad request" in frame["error"]
                write_frame_sync(sock, {"kind": "request", "id": 99, "request": valid})
                frame = read_frame_sync(sock)
                assert frame["kind"] == "response"
                assert frame["response"]["status"] == "ok"
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_mistyped_config_fields_are_refused_not_coerced(self):
        """A LUT session whose config has a float, string or bool where an
        integer belongs gets a ``bad request`` error in either codec, and
        the connection keeps serving."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            valid = trace.requests[0].request.to_dict()
            session = {**valid["session"], "decoder": "lut+union-find"}
            mistyped = [{"max_defects": 1.5}, {"memory_budget_bytes": "9"}, {"max_defects": True}]
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                frame_id = 0
                for codec in (CODEC_JSON, CODEC_BINARY):
                    for fields in mistyped:
                        frame_id += 1
                        config = {"type": "LUTConfig", "fields": fields}
                        request = {**valid, "session": {**session, "config": config}}
                        write_frame_sync(
                            sock, {"kind": "request", "id": frame_id, "request": request}, codec
                        )
                        frame = read_frame_sync(sock)
                        assert frame["kind"] == "error"
                        assert frame["id"] == frame_id
                        assert "bad request" in frame["error"]
                        assert "must be an integer" in frame["error"]
                for codec in (CODEC_JSON, CODEC_BINARY):
                    write_frame_sync(sock, {"kind": "request", "id": 99, "request": valid}, codec)
                    frame = read_frame_sync(sock)
                    assert frame["kind"] == "response"
                    assert frame["response"]["status"] == "ok"
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_response_too_large_for_a_frame_fails_only_its_request(self, monkeypatch):
        """A v1 response embeds its request echo, so it can outgrow the
        frame its request fit in: that one request fails with a clear error
        and the connection keeps serving."""
        from repro.service.net.protocol import encode_frame

        trace = generate_trace(NET_TRACE)
        request = trace.requests[0].request
        frame = {"kind": "request", "id": 1, "request": request.to_dict()}
        request_bytes = len(encode_frame(frame))
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port, codecs=(1,)) as client:
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", request_bytes + 16)
                future = client.submit(request)
                with pytest.raises(RuntimeError, match="response too large for one frame"):
                    future.result(timeout=30.0)
                monkeypatch.undo()
                assert client.decode(request, timeout=30.0).ok
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "payload",
        [
            b"[" * 100_000,
            # A binary ``request`` whose session blob is deeply nested JSON.
            struct.pack("<BBqI", 0xB2, 0x01, 1, 100_000) + b"[" * 100_000,
        ],
        ids=["json-frame", "binary-session-blob"],
    )
    def test_deeply_nested_frame_is_refused_and_server_keeps_serving(self, payload):
        """Nesting deep enough to overflow the JSON parser is a protocol
        error: the connection gets an error frame (not a dead handler and a
        silent close), and the server goes on serving new connections."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                frame = read_frame_sync(sock)
                assert frame["kind"] == "error"
                assert frame["id"] is None
            finally:
                sock.close()
            with NetClient(host, port) as client:
                assert client.decode(trace.requests[0].request, timeout=30.0).ok
        finally:
            server.stop()

    def test_client_disconnect_mid_stream_cleans_up_server_state(self):
        key = NET_TRACE.scenarios[0].session_key()
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            client = NetClient(host, port)
            stream = client.open_stream(key, timeout=30.0)
            stream.begin().result(30.0)
            stream.push_round([]).result(30.0)
            assert server._streams
            client.close()  # no finalize: the stream is abandoned mid-flight
            deadline = time.monotonic() + 10.0
            while server._streams and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._streams
        finally:
            server.stop()


class TestSessionInterning:
    """Each process parses, checks and hashes a session once, through one
    bounded memo keyed by the session's wire blob; these pin that the memo
    never changes an answer."""

    CODE = CodeSpec(3, physical_error_rate=0.02)

    def _syndromes(self, count: int):
        from repro.graphs import SyndromeSampler

        sampler = SyndromeSampler(self.CODE.build_graph(), seed=7)
        return [s for s in sampler.sample_batch(4 * count) if s.defects][:count]

    def test_more_sessions_than_the_bound_each_decode_on_their_own(self):
        from repro.api.config import LUTConfig
        from repro.api.session import DecoderSession
        from repro.service import INTERNED_SESSIONS
        from repro.service.request import _interned

        graph = self.CODE.build_graph()
        syndromes = self._syndromes(8)
        # Budgets small enough to cut the LUT table at different points, so
        # the sessions really decode differently (hit vs fallback).
        keys = [
            SessionKey(self.CODE, "lut+union-find", LUTConfig(memory_budget_bytes=256 * (i + 1)))
            for i in range(2 * INTERNED_SESSIONS)
        ]
        requests = [
            DecodeRequest(key, syndromes[i % len(syndromes)], request_id=i)
            for i, key in enumerate(keys)
        ]
        server = NetServer(NET_CONFIG, processes=1, prewarm=[self.CODE])
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                # Twice over: the second pass re-parses sessions the first
                # one evicted from the memo.
                responses = client.decode_many(requests * 2, timeout=60.0)
                assert _interned.cache_info().currsize <= INTERNED_SESSIONS
        finally:
            server.stop()
        assert _interned.cache_info().maxsize == INTERNED_SESSIONS
        expected = {}
        for request, response in zip(requests * 2, responses):
            assert response.ok, response.error
            if request.request_id not in expected:
                session = DecoderSession(graph, "lut+union-find", request.session.config)
                expected[request.request_id] = session.decode_detailed(request.syndrome)
            assert response.outcome.to_dict() == expected[request.request_id].to_dict()
        hits = {outcome.counters.get("lut_hit", 0) for outcome in expected.values()}
        assert hits == {0, 1}  # both table hits and fallbacks were served

    def test_refused_session_blob_is_refused_every_time(self):
        from repro.service.net.protocol import encode_frame

        trace = generate_trace(NET_TRACE)
        valid = trace.requests[0].request.to_dict()
        bad_session = {**valid["session"], "decoder": "no-such-decoder"}
        bad = {"kind": "request", "id": 1, "request": {**valid, "session": bad_session}}
        payload = encode_frame(bad, CODEC_BINARY)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {"kind": "hello", "version": PROTOCOL_VERSION, "client": "hostile"},
                )
                assert read_frame_sync(sock)["kind"] == "welcome"
                for _ in range(2):
                    # The very same bytes, so the same blob hits the memo.
                    sock.sendall(payload)
                    frame = read_frame_sync(sock)
                    assert frame["kind"] == "error"
                    assert "bad request" in frame["error"]
                write_frame_sync(sock, {"kind": "request", "id": 2, "request": valid})
                frame = read_frame_sync(sock)
                assert frame["kind"] == "response"
                assert frame["response"]["status"] == "ok"
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()

    def test_sessions_differing_only_in_config_keep_their_own_session(self):
        from repro.api.config import LUTConfig
        from repro.api.session import DecoderSession

        graph = self.CODE.build_graph()
        syndrome = next(s for s in self._syndromes(8) if len(s.defects) == 2)
        keys = [
            SessionKey(self.CODE, "lut+union-find", LUTConfig(max_defects=2)),
            SessionKey(self.CODE, "lut+union-find", LUTConfig(max_defects=0)),
        ]
        blobs = [key.wire_blob() for key in keys]
        assert blobs[0] != blobs[1]
        assert blobs[0].replace('"max_defects":2', '"max_defects":0') == blobs[1]
        server = NetServer(NET_CONFIG, processes=1, prewarm=[self.CODE])
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                # Alternate, one frame each, so a stale memo would show.
                responses = [
                    client.decode(DecodeRequest(key, syndrome), timeout=30.0)
                    for key in keys + keys
                ]
        finally:
            server.stop()
        expected = [
            DecoderSession(graph, "lut+union-find", key.config).decode_detailed(syndrome)
            for key in keys
        ]
        assert expected[0].counters.get("lut_hit") != expected[1].counters.get("lut_hit")
        for response, direct in zip(responses, expected + expected):
            assert response.ok
            assert response.outcome.to_dict() == direct.to_dict()


class TestPipeBatchesClose:
    """The worker decodes each pipe batch as one group, with no micro-batcher
    deadline in between: with a deadline that cannot fire inside the test,
    coalesced and lone requests must still be answered promptly."""

    def test_answers_arrive_without_waiting_out_the_deadline(self):
        from repro.api import get_decoder

        trace = generate_trace(NET_TRACE)
        traced = list(trace.requests[:12])
        assert len({t.request.session for t in traced}) == 2
        server = NetServer(
            ServiceConfig(max_wait_seconds=30.0), processes=1, prewarm=prewarm_specs(NET_TRACE)
        )
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                responses = client.decode_many([t.request for t in traced], timeout=5.0)
                # An idle connection sends a lone submit as a `request` frame.
                lone = client.submit(traced[0].request).result(timeout=5.0)
                frames = client.wire_stats()["batch_histogram"]
        finally:
            server.stop()
        assert frames.get("1", 0) == 1 and sum(frames.values()) == 2
        for t, response in zip(traced + [traced[0]], responses + [lone]):
            assert response.ok, response.error
            key = t.request.session
            graph = trace.graphs[t.scenario_index]
            direct = get_decoder(key.decoder, graph, key.config).decode_detailed(t.request.syndrome)
            assert response.outcome.correction_edges(graph) == direct.correction_edges(graph)
            assert response.outcome.weight == direct.weight
            assert response.outcome.counters == direct.counters


    def test_one_session_frame_is_cut_at_the_batch_size(self):
        """20 requests of one session in one frame, under max_batch_size=8,
        decode as batches of 8, 8 and 4 in the worker."""
        trace = generate_trace(NET_TRACE)
        key = trace.requests[0].request.session
        requests = [t.request for t in trace.requests if t.request.session == key]
        requests = (requests * 20)[:20]
        config = ServiceConfig(max_batch_size=8, max_wait_seconds=30.0)
        server = NetServer(config, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                responses = client.decode_many(requests, timeout=10.0)
                frames = client.wire_stats()["batch_histogram"]
        finally:
            server.stop()
        assert frames == {"20": 1}
        assert all(response.ok for response in responses)
        assert [response.batch_size for response in responses] == [8] * 16 + [4] * 4
        assert [response.request for response in responses] == requests

    def test_worker_keeps_up_under_an_open_loop_flood(self):
        """2,000 submits with no waiting are all answered, and a second
        connection opened mid-flood is served."""
        trace = generate_trace(NET_TRACE)
        requests = [t.request for t in trace.requests]
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                futures = [client.submit(requests[i % len(requests)]) for i in range(1000)]
                with NetClient(host, port) as second:
                    assert second.decode(requests[0], timeout=30.0).ok
                futures += [client.submit(requests[i % len(requests)]) for i in range(1000)]
                statuses = Counter(future.result(timeout=60.0).status for future in futures)
        finally:
            server.stop()
        assert statuses == {"ok": 2000}, statuses


class TestWireV2:
    """Codec negotiation, batching, coalescing, and v1 interop end to end."""

    def test_mixed_version_interop_v1_client_same_answers(self):
        """A legacy JSON-v1 client against a v2 server decodes the exact
        same bits as a binary client on the same connection pool."""
        trace = generate_trace(NET_TRACE)
        requests = [traced.request for traced in trace.requests]
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as v2, NetClient(host, port, codecs=(1,)) as v1:
                assert v2.codec == CODEC_BINARY
                assert v1.codec == CODEC_JSON
                v2_responses = v2.decode_many(requests, timeout=30.0)
                v1_responses = v1.decode_many(requests, timeout=30.0)
        finally:
            server.stop()
        for traced, a, b in zip(trace.requests, v2_responses, v1_responses):
            assert a.ok and b.ok
            graph = trace.graphs[traced.scenario_index]
            assert a.outcome.correction_edges(graph) == b.outcome.correction_edges(graph)
            assert a.outcome.weight == b.outcome.weight

    def test_wire_stats_and_batch_frames(self):
        trace = generate_trace(NET_TRACE)
        requests = [traced.request for traced in trace.requests]
        server = NetServer(NET_CONFIG, processes=2, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                responses = client.decode_many(requests, timeout=30.0)
                stats = client.wire_stats()
        finally:
            server.stop()
        assert all(response.ok for response in responses)
        assert stats["codec"] == CODEC_BINARY
        assert stats["frames_sent"] >= 1
        assert stats["bytes_sent"] > 0
        assert stats["frames_received"] >= 1
        assert stats["bytes_received"] > 0
        histogram = stats["batch_histogram"]
        # decode_many packs one batch per predicted worker; every request is
        # accounted for and at least one genuine multi-member batch went out.
        assert sum(int(size) * count for size, count in histogram.items()) == len(requests)
        assert max(int(size) for size in histogram) >= 2

    def test_submit_coalescer_batches_under_pipeline(self):
        """Nagle-style coalescing: a burst of ``submit`` calls resolves
        correctly and at least some requests share a request-batch frame."""
        trace = generate_trace(NET_TRACE)
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                futures = [
                    client.submit(traced.request) for traced in trace.requests * 4
                ]
                responses = [future.result(timeout=30.0) for future in futures]
                stats = client.wire_stats()
        finally:
            server.stop()
        assert all(response.ok for response in responses)
        histogram = stats["batch_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) == len(futures)
        # The first submit goes out alone (idle fast path); under the
        # resulting pipeline later submissions must have coalesced.
        assert max(int(size) for size in histogram) >= 2

    def test_decode_many_splits_oversized_batches(self, monkeypatch):
        """A batch whose frame would exceed MAX_FRAME_BYTES is split client
        side; every member still gets exactly one answer."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        trace = generate_trace(NET_TRACE)
        requests = [traced.request for traced in trace.requests]
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                responses = client.decode_many(requests, timeout=30.0)
                stats = client.wire_stats()
        finally:
            server.stop()
        assert all(response.ok for response in responses)
        histogram = stats["batch_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) == len(requests)
        # One process means one routing group: without the split this would
        # be a single batch of len(requests).
        assert sum(histogram.values()) >= 2
        assert max(int(size) for size in histogram) < len(requests)

    def test_single_oversized_syndrome_fails_with_clear_error(self, monkeypatch):
        """One syndrome too big for any frame fails its own future with an
        actionable message instead of tearing the connection down."""
        from repro.graphs.syndrome import Syndrome
        from repro.service import DecodeRequest

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        trace = generate_trace(NET_TRACE)
        key = trace.requests[0].request.session
        huge = DecodeRequest(key, Syndrome(defects=tuple(range(1200))))
        normal = trace.requests[0].request
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            with NetClient(host, port) as client:
                with pytest.raises(ProtocolError, match="request too large for one frame"):
                    client.decode_many([huge, normal], timeout=30.0)
                # The connection survived the refusal.
                assert client.decode(normal, timeout=30.0).ok
        finally:
            server.stop()

    def test_spliced_answers_split_to_fit_and_refuse_what_cannot(self, monkeypatch):
        """The front end splices worker bodies into binary frames: a batch
        over MAX_FRAME_BYTES is halved until it fits, and a lone answer
        that cannot fit any frame gets its own ``error``, nothing else."""
        from repro.service.net.server import _Client

        class Writer:
            def __init__(self):
                self.frames = []

            def write(self, data):
                self.frames.append(protocol.decode_payload(data[4:]))

        client = _Client(Writer())
        client.codec = CODEC_BINARY
        body = protocol.error_body("Boom: " + "x" * 40)
        members = [(frame_id, body) for frame_id in range(6)]
        members.append((99, protocol.error_body("Boom: " + "y" * 4000)))
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 3 * (8 + len(body)) + 6)
        NetServer(NET_CONFIG, processes=1)._splice(client, members)
        frames = client.writer.frames
        answered = [
            member["id"]
            for frame in frames
            for member in frame.get("responses", [frame] if frame["kind"] == "response" else [])
        ]
        assert answered == list(range(6))
        # 7 members halve to 3 + 4, the 4 to 2 + 2, and the last 2 to 1 + 1.
        kinds = ["response-batch", "response-batch", "response", "error"]
        assert [frame["kind"] for frame in frames] == kinds
        assert frames[-1]["id"] == 99 and "response too large" in frames[-1]["error"]
        assert all(m["response"] == protocol.body_dict(body) for m in frames[0]["responses"])

    def test_reply_frame_kinds_on_a_binary_connection(self):
        """One answer rides a ``response`` frame, several from one worker a
        ``response-batch`` — whatever frame kind carried the request."""
        trace = generate_trace(NET_TRACE)
        wires = [traced.request.to_dict() for traced in trace.requests[:2]]
        server = NetServer(NET_CONFIG, processes=1, prewarm=prewarm_specs(NET_TRACE))
        host, port = server.start()
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                write_frame_sync(
                    sock,
                    {
                        "kind": "hello",
                        "version": PROTOCOL_VERSION,
                        "client": "raw",
                        "codecs": [CODEC_BINARY, CODEC_JSON],
                    },
                )
                assert read_frame_sync(sock)["codec"] == CODEC_BINARY

                def exchange(frame) -> dict:
                    write_frame_sync(sock, frame, CODEC_BINARY)
                    return read_frame_sync(sock)

                reply = exchange({"kind": "request", "id": 1, "request": wires[0]})
                assert reply["kind"] == "response" and reply["id"] == 1
                members = [{"id": 2, "request": wires[0]}, {"id": 3, "request": wires[1]}]
                reply = exchange({"kind": "request-batch", "requests": members})
                assert reply["kind"] == "response-batch"
                assert [member["id"] for member in reply["responses"]] == [2, 3]
                reply = exchange({"kind": "request-batch", "requests": members[:1]})
                assert reply["kind"] == "response" and reply["id"] == 2
                write_frame_sync(sock, {"kind": "bye"})
            finally:
                sock.close()
        finally:
            server.stop()


class TestSaturation:
    def test_saturate_finds_knee_and_keeps_digest(self):
        engine = ServiceLoadEngine(NET_TRACE, config=NET_CONFIG)
        saturation = engine.saturate(client_ladder=(1, 2, 4))
        assert [point.clients for point in saturation.points] == [1, 2, 4]
        assert saturation.knee_clients in (1, 2, 4)
        assert saturation.digest_match is True
        assert saturation.peak_throughput_rps > 0

    def test_find_knee_marks_flat_ladder(self):
        from repro.evaluation.service_load import SaturationPoint, find_knee

        def point(clients, rps):
            return SaturationPoint(clients, 10, 10, 1.0, rps, 1.0, 2.0, "d")

        points = [point(1, 100.0), point(2, 190.0), point(4, 195.0), point(8, 196.0)]
        assert find_knee(points, 0.10).clients == 2
        rising = [point(1, 100.0), point(2, 200.0), point(4, 400.0)]
        assert find_knee(rising, 0.10).clients == 4
