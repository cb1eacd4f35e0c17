"""The HTTP wire protocol, end to end over a real socket."""

import io
import json
import socket
import statistics
import time
import types
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.epgm.io.gdl import parse_gdl
from repro.server import GraphRegistry, QueryService, serve_in_thread
from repro.server.protocol import MAX_BODY_BYTES, ServiceRequestHandler

PARAM_QUERY = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"

#: one property key holding an int, a string and a float
MIXED_GDL = '[(a:N {v: 1})-[:e]->(b:N {v: "x"})-[:e]->(c:N {v: 2.5})]'

#: inputs that once crashed the engine (RecursionError, TypeError, a
#: spurious unbound-variable error) instead of answering cleanly
HOSTILE_QUERIES = {
    "nested-parentheses": "MATCH (n:N) WHERE " + "(" * 3000 + "n.v = 1"
    + ")" * 3000 + " RETURN n.v",
    "thousand-ors": "MATCH (n:N) WHERE "
    + " OR ".join("n.v = %d" % i for i in range(1000)) + " RETURN n.v",
    "mixed-order-by": "MATCH (n:N) RETURN n.v ORDER BY n.v",
    "mixed-min": "MATCH (n:N) RETURN min(n.v)",
    "order-by-alias": "MATCH (n:N) RETURN n.v AS v ORDER BY v",
}


def http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_request(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        "%s %s HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
        % (method, path, len(body))
    )
    return head.encode("ascii") + body


def parse_response(raw):
    """``(status, headers, body)`` of one complete HTTP response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert int(headers["Content-Length"]) == len(body)
    return int(status_line.split(" ")[1]), headers, json.loads(body)


class _RecordingWriter:
    """Stands in for the handler's socket writer; keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def handle_offline(server, request, client_address=("127.0.0.1", 40000)):
    """Run one request through the handler with no socket; return its
    writes.  ``server`` needs ``service`` and ``verbose``."""
    handler = ServiceRequestHandler.__new__(ServiceRequestHandler)
    handler.server = server
    handler.client_address = client_address
    handler.rfile = io.BytesIO(request)
    handler.wfile = _RecordingWriter()
    handler.handle_one_request()
    return handler.wfile.writes


def raw_exchange(address, data, timeout):
    """Send ``data`` on a fresh socket; read until the server closes."""
    chunks = []
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def service(figure1_graph):
    registry = GraphRegistry()
    registry.register("fig1", figure1_graph)
    service = QueryService(registry, max_concurrency=2)
    yield service
    service.close(wait=True)


@pytest.fixture
def endpoint(service):
    server, thread = serve_in_thread(service)
    base = "http://%s:%d" % server.address
    yield base, server, thread
    server.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestEndpoints:
    def test_health(self, endpoint):
        base, _, _ = endpoint
        status, body = http("GET", base + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["graphs"] == ["fig1"]

    def test_query_roundtrip(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "fig1", "query": PARAM_QUERY,
            "parameters": {"name": "Alice"},
        })
        assert status == 200
        assert body["row_count"] == 1
        assert body["rows"] == [{"p.name": "Alice"}]

    def test_prepare_then_execute_with_two_bindings(self, endpoint):
        base, _, _ = endpoint
        status, prepared = http("POST", base + "/prepare", {
            "graph": "fig1", "query": PARAM_QUERY,
        })
        assert status == 200
        assert prepared["parameter_names"] == ["name"]
        for name in ("Alice", "Eve"):
            status, body = http("POST", base + "/execute", {
                "statement_id": prepared["statement_id"],
                "parameters": {"name": name},
            })
            assert status == 200
            assert body["rows"] == [{"p.name": name}]

    def test_metrics_reports_progress(self, endpoint):
        base, _, _ = endpoint
        http("POST", base + "/query", {"graph": "fig1", "query": PARAM_QUERY,
                                       "parameters": {"name": "Bob"}})
        status, metrics = http("GET", base + "/metrics")
        assert status == 200
        assert metrics["completed"] >= 1
        assert "plan_cache" in metrics


class TestErrorMapping:
    def test_unknown_graph_is_404(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "nope", "query": PARAM_QUERY,
        })
        assert status == 404
        assert "nope" in body["error"]

    def test_missing_field_is_400(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("POST", base + "/query", {"graph": "fig1"})
        assert status == 400

    def test_malformed_json_is_400(self, endpoint):
        base, _, _ = endpoint
        request = urllib.request.Request(
            base + "/query", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_syntax_error_is_400(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("POST", base + "/query", {
            "graph": "fig1", "query": "MATCH (p:Person RETURN",
        })
        assert status == 400

    def test_expired_deadline_is_504(self, endpoint):
        base, _, _ = endpoint
        status, body = http("POST", base + "/query", {
            "graph": "fig1", "query": PARAM_QUERY,
            "parameters": {"name": "Alice"}, "timeout": 0.0,
        })
        assert status == 504

    def test_unknown_route_is_404(self, endpoint):
        base, _, _ = endpoint
        status, _ = http("GET", base + "/nope")
        assert status == 404


@pytest.fixture
def mixed_endpoint():
    registry = GraphRegistry()
    registry.register("mixed", parse_gdl(ExecutionEnvironment(), MIXED_GDL))
    service = QueryService(registry, max_concurrency=2)
    server, thread = serve_in_thread(service)
    yield "http://%s:%d" % server.address
    server.stop()
    thread.join(timeout=30)
    service.close(wait=True)


@pytest.mark.parametrize("name", sorted(HOSTILE_QUERIES))
def test_hostile_query_never_answers_500(mixed_endpoint, name):
    started = time.monotonic()
    status, body = http("POST", mixed_endpoint + "/query", {
        "graph": "mixed", "query": HOSTILE_QUERIES[name],
    })
    assert status in (200, 400), body
    assert time.monotonic() - started < 5
    status, _ = http("GET", mixed_endpoint + "/health")
    assert status == 200


class TestShutdownEndpoint:
    def test_shutdown_stops_the_server(self, figure1_graph):
        registry = GraphRegistry()
        registry.register("fig1", figure1_graph)
        service = QueryService(registry)
        server, thread = serve_in_thread(service)
        base = "http://%s:%d" % server.address
        status, _ = http("POST", base + "/shutdown")
        assert status == 200
        thread.join(timeout=30)
        assert not thread.is_alive()
        # the stop runs on its own thread: serve loop exit happens first,
        # the service close moments later
        deadline = time.time() + 30
        while not service.closed and time.time() < deadline:
            time.sleep(0.01)
        assert service.closed

    @pytest.mark.parametrize("client_address", [
        ("10.0.0.7", 40000), ("192.168.1.20", 40000), ("2001:db8::1", 40000),
    ])
    def test_shutdown_from_a_remote_peer_is_403(self, service,
                                                 client_address):
        stops = []
        server = types.SimpleNamespace(
            service=service, verbose=False, stop=lambda: stops.append(1),
        )
        writes = handle_offline(
            server, raw_request("POST", "/shutdown"), client_address
        )
        status, _, body = parse_response(b"".join(writes))
        assert status == 403
        assert "loopback" in body["error"]
        time.sleep(0.05)  # a stop would run on its own thread
        assert stops == []

    def test_shutdown_from_ipv6_loopback_is_accepted(self, service):
        stopped = []
        server = types.SimpleNamespace(
            service=service, verbose=False, stop=lambda: stopped.append(1),
        )
        writes = handle_offline(
            server, raw_request("POST", "/shutdown"), ("::1", 40000, 0, 0)
        )
        status, _, _ = parse_response(b"".join(writes))
        assert status == 200
        deadline = time.time() + 30
        while not stopped and time.time() < deadline:
            time.sleep(0.01)
        assert stopped == [1]


class TestTransport:
    """Each response is one write on a TCP_NODELAY socket.  A head and a
    body written separately with Nagle on wait for the client's delayed
    ACK of the head, about 40 ms per request."""

    @pytest.mark.parametrize("path, payload, expected", [
        ("/query", {"graph": "fig1", "query": PARAM_QUERY,
                    "parameters": {"name": "Alice"}}, 200),
        ("/prepare", {"graph": "fig1", "query": PARAM_QUERY}, 200),
        ("/query", {"graph": "fig1"}, 400),
        ("/query", {"graph": "nope", "query": PARAM_QUERY}, 404),
        ("/query", {"graph": "fig1", "query": PARAM_QUERY,
                    "parameters": {"name": "Alice"}, "timeout": 0.0}, 504),
    ])
    def test_every_response_is_one_write(self, service, path, payload,
                                         expected):
        server = types.SimpleNamespace(service=service, verbose=False)
        writes = handle_offline(server, raw_request("POST", path, payload))
        assert len(writes) == 1
        status, headers, _ = parse_response(writes[0])
        assert status == expected
        assert headers["Content-Type"] == "application/json"

    def test_keepalive_round_trips_do_not_stall(self, endpoint):
        _, server, _ = endpoint
        connection = HTTPConnection(*server.address, timeout=30)
        samples = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                samples.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(samples) < 0.020, samples


class TestRequestBodies:
    """A Content-Length is checked before any of the body is read."""

    @pytest.mark.parametrize("declared, expected", [
        ("10000000000000000", 413), ("4000000000", 413),
        (str(MAX_BODY_BYTES + 1), 413),
        ("-1", 400), ("ten", 400), ("1_0", 400), ("0x10", 400),
    ])
    def test_bad_length_is_refused_then_closed(self, endpoint, declared,
                                               expected):
        base, server, _ = endpoint
        request = (
            "POST /query HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %s\r\n\r\n{}" % declared
        ).encode("ascii")
        start = time.perf_counter()
        raw = raw_exchange(server.address, request, timeout=1.0)
        assert time.perf_counter() - start < 1.0
        status, headers, body = parse_response(raw)
        assert status == expected
        assert headers["Connection"] == "close"
        assert "error" in body
        status, health = http("GET", base + "/health")
        assert status == 200
        assert health["status"] == "ok"

    def test_body_at_the_limit_is_read(self, endpoint):
        base, _, _ = endpoint
        payload = {"graph": "fig1", "query": PARAM_QUERY,
                   "parameters": {"name": "Alice"}}
        encoded = json.dumps(payload)
        padded = encoded + " " * (MAX_BODY_BYTES - len(encoded))
        request = urllib.request.Request(
            base + "/query", data=padded.encode("ascii"), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            assert json.loads(response.read())["rows"] == [
                {"p.name": "Alice"}
            ]
