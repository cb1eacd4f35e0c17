"""The closed-loop HTTP client: it sends its next request after the last answer.

Requests are taken in order from a :class:`~workloads.RequestSequence`.
Sending stops once ``seconds`` have passed, at least ``min_requests`` were
sent and the last round is whole.  Each sample keeps the raw response
body; checking and decoding happen after the window so that they take no
client time inside it.
"""

import http.client
import itertools
import json
import time


class Sample:
    __slots__ = ("index", "template", "kind", "status", "body", "latency",
                 "error")

    def __init__(self, index, template, kind):
        self.index = index
        self.template = template
        self.kind = kind
        self.status = None
        self.body = None
        self.latency = None
        self.error = None


def _post(connection, path, payload):
    body = json.dumps(payload).encode("utf-8")
    started = time.perf_counter()
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - started


def run_closed_loop(server, sequence, seconds, min_requests, graph,
                    statements):
    """Drive ``server`` with one closed-loop client on one connection.

    ``statements`` maps a query text to its prepared statement id; such
    requests go to ``/execute``, all others to ``/query``.  Returns
    ``(samples in request order, window seconds)``.
    """
    samples = []
    connection = server.connection()
    started = time.perf_counter()
    try:
        for index in itertools.count():
            if (time.perf_counter() - started >= seconds
                    and index >= min_requests
                    and index % sequence.round_length == 0):
                break
            template, kind, text, parameters = sequence[index]
            if text in statements:
                path = "/execute"
                payload = {"statement_id": statements[text],
                           "parameters": parameters}
            else:
                path = "/query"
                payload = {"graph": graph, "query": text}
            sample = Sample(index, template, kind)
            try:
                sample.status, sample.body, sample.latency = _post(
                    connection, path, payload
                )
            except (OSError, http.client.HTTPException) as error:
                sample.error = "%s: %s" % (type(error).__name__, error)
                connection.close()
                connection = server.connection()
            samples.append(sample)
    finally:
        connection.close()
    return samples, time.perf_counter() - started
