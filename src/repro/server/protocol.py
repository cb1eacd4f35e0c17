"""A stdlib HTTP/JSON front end for :class:`QueryService`.

Deliberately minimal — ``http.server`` + ``json``, no third-party web
framework — because the protocol exists to demonstrate the *service*
semantics (admission control, deadlines, prepared statements) over a
real socket, not to be a production web server.  Each request runs on
its own ``ThreadingHTTPServer`` thread and blocks on the service's
future, so the service's admission control is the real concurrency
limit.

Routes (all bodies JSON):

====== =========== ====================================================
Method Path        Body / response
====== =========== ====================================================
GET    /health     ``{"status": "ok", "graphs": [...]}``
GET    /metrics    the full :meth:`QueryService.metrics_snapshot`
POST   /query      ``{graph, query, parameters?, timeout?}`` → result
POST   /prepare    ``{graph, query}`` → ``{statement_id, ...}``
POST   /execute    ``{statement_id, parameters?, timeout?}`` → result
POST   /shutdown   acknowledges, then stops the listener (loopback only)
====== =========== ====================================================

Error mapping: saturation → 503, deadline → 504, unknown graph or
statement → 404, syntax/semantic/lint/binding errors → 400, a body over
:data:`MAX_BODY_BYTES` → 413, ``/shutdown`` from a non-loopback peer → 403.

Every response leaves in one write on a ``TCP_NODELAY`` socket.  Writing
the head and the body separately with Nagle's algorithm on holds the body
back until the client acknowledges the head, and clients delay that ACK
by about 40 ms — a stall on every request, longer than most queries.
"""

import ipaddress
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.diagnostics import QueryLintError
from repro.cypher.errors import CypherError
from repro.dataflow.cancellation import QueryCancelled, QueryTimeout

from .registry import UnknownGraphError
from .service import AdmissionError, ServiceClosedError


# every request this protocol defines is a small JSON object; a larger
# Content-Length is refused (413) before any of the body is read
MAX_BODY_BYTES = 1 << 20


def _json_default(value):
    """Rows may hold GradoopIds and other engine objects; stringify them."""
    return str(value)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's :class:`QueryService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # TCP_NODELAY on every accepted socket, so the responses the stdlib
    # writes itself (send_error from parse_request) do not stall either
    disable_nagle_algorithm = True

    # quiet by default; the smoke test parses stdout for the listen line
    def log_message(self, format, *args):
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self):
        return self.server.service

    # Plumbing ----------------------------------------------------------------

    def _send_json(self, status, payload):
        body = json.dumps(payload, default=_json_default).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would send the head on its own; the blank line and
        # the body join the header buffer so the response is one write
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _read_json(self):
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # the body's end is unknown, so the connection cannot be reused
            self.close_connection = True
            raise _RequestRefused("invalid Content-Length: %r" % declared)
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _RequestRefused(
                "request body of %d bytes exceeds the limit of %d bytes"
                % (length, MAX_BODY_BYTES),
                status=413,
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _RequestRefused("invalid JSON body: %s" % error)
        if not isinstance(payload, dict):
            raise _RequestRefused("request body must be a JSON object")
        return payload

    def _require(self, payload, *keys):
        missing = [key for key in keys if key not in payload]
        if missing:
            raise _RequestRefused("missing field(s): %s" % ", ".join(missing))
        return [payload[key] for key in keys]

    # Routing -----------------------------------------------------------------

    def do_GET(self):
        if self.path == "/health":
            self._send_json(200, {
                "status": "ok",
                "graphs": self.service.registry.names(),
            })
        elif self.path == "/metrics":
            self._send_json(200, self.service.metrics_snapshot())
        else:
            self._send_json(404, {"error": "no such route: %s" % self.path})

    def do_POST(self):
        try:
            payload = self._read_json()
            if self.path == "/query":
                graph, query = self._require(payload, "graph", "query")
                result = self.service.execute(
                    graph, query,
                    parameters=payload.get("parameters"),
                    timeout=payload.get("timeout"),
                )
                self._send_json(200, result.to_dict())
            elif self.path == "/prepare":
                graph, query = self._require(payload, "graph", "query")
                handle = self.service.prepare(graph, query)
                self._send_json(200, handle.to_dict())
            elif self.path == "/execute":
                (statement_id,) = self._require(payload, "statement_id")
                result = self.service.execute_prepared(
                    statement_id,
                    parameters=payload.get("parameters"),
                    timeout=payload.get("timeout"),
                )
                self._send_json(200, result.to_dict())
            elif self.path == "/shutdown":
                peer = ipaddress.ip_address(self.client_address[0])
                if not peer.is_loopback:
                    raise _RequestRefused(
                        "/shutdown is only accepted from a loopback address",
                        status=403,
                    )
                self._send_json(200, {"status": "shutting down"})
                # shutdown() must not run on the handler thread: it joins
                # the serve loop, which is waiting on this very request
                threading.Thread(
                    target=self.server.stop, daemon=True
                ).start()
            else:
                self._send_json(404, {
                    "error": "no such route: %s" % self.path
                })
        except _RequestRefused as error:
            self._send_json(error.status, {"error": str(error)})
        except (QueryLintError, CypherError, ValueError, TypeError) as error:
            self._send_json(400, {
                "error": str(error), "kind": type(error).__name__,
            })
        except (UnknownGraphError, KeyError) as error:
            self._send_json(404, {"error": str(error)})
        except AdmissionError as error:
            self._send_json(503, {"error": str(error), "kind": "rejected"})
        except ServiceClosedError as error:
            self._send_json(503, {"error": str(error), "kind": "closed"})
        except QueryTimeout as error:
            self._send_json(504, {"error": str(error), "kind": "timeout"})
        except QueryCancelled as error:
            self._send_json(499, {"error": str(error), "kind": "cancelled"})
        except Exception as error:  # noqa: BLE001 — the wire must answer
            self._send_json(500, {
                "error": str(error), "kind": type(error).__name__,
            })


class _RequestRefused(ValueError):
    """A request the handler refuses itself, answered with ``status``."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class QueryHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, service, host="127.0.0.1", port=0, verbose=False):
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 picks a free one)."""
        return self.server_address[0], self.server_address[1]

    def stop(self, close_service=True):
        """Stop the listener; optionally drain and close the service."""
        self.shutdown()
        self.server_close()
        if close_service:
            self.service.close(wait=True)


def serve_in_thread(service, host="127.0.0.1", port=0, verbose=False):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    The test-friendly entry point: the caller gets the bound address from
    ``server.address`` and stops with ``server.stop()``.
    """
    server = QueryHTTPServer(service, host=host, port=port, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread
