"""Spawning ``repro serve`` and reading what a client and ``/proc`` see."""

import http.client
import json
import os
import subprocess
import sys
import time

#: how long one ``repro serve`` may take to answer ``GET /health``
START_TIMEOUT_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def repro_command(root, *arguments):
    """``python -m repro ...`` and its environment, for the checkout ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return [sys.executable, "-m", "repro", *arguments], env


def generate_graph(root, scale_factor, seed, output):
    command, env = repro_command(
        root, "generate", "--scale-factor", repr(scale_factor),
        "--seed", str(seed), "--output", output,
    )
    subprocess.run(
        command, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL,
        timeout=120,
    )


class ServerProcess:
    """One ``repro serve GRAPH --port 0`` child, started with no other flags."""

    def __init__(self, root, graph_dir, log_path):
        command, env = repro_command(root, "serve", graph_dir, "--port", "0")
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, cwd=root, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.host, self.port = self._read_address()
            self._wait_healthy(started)
        except BaseException:
            self.kill()
            raise
        #: spawn until the first ``GET /health`` 200
        self.setup_seconds = time.perf_counter() - started

    def _read_address(self):
        line = self.process.stdout.readline().decode("utf-8", "replace")
        prefix = "repro-serve listening on "
        if not line.startswith(prefix):
            raise RuntimeError("repro serve did not start: %r" % line)
        host, port = line[len(prefix):].strip().rsplit(":", 1)
        return host, int(port)

    def _wait_healthy(self, started):
        while True:
            try:
                status, _ = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError("repro serve never became healthy")
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            time.sleep(0.005)

    def connection(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request(self, method, path, payload=None):
        """One request on a fresh connection: ``(status, decoded body)``."""
        connection = self.connection()
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def cpu_seconds(self):
        """utime + stime of the server process, from ``/proc/<pid>/stat``."""
        with open("/proc/%d/stat" % self.process.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime/stime are fields 14/15
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self):
        """``VmHWM`` of the server process, from ``/proc/<pid>/status``."""
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/%d/status" % self.process.pid)

    def stop(self):
        """``POST /shutdown``, then wait for the process to end."""
        try:
            self.request("POST", "/shutdown")
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self._log.close()
