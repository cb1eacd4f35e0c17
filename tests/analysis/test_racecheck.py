"""The static lock-discipline linter: C3xx corpus + the tree stays clean.

Each corpus snippet pins one diagnostic the way the S2xx corruption
fixtures pin the sanitizer codes; the integration tests then assert the
real ``src/repro`` tree is racecheck-clean and that the planted-race
fixture is caught.
"""

import os
import textwrap

from repro.analysis.concurrency import racecheck_paths, racecheck_source
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
PLANTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "planted_race.py")


def check(snippet):
    return racecheck_source(textwrap.dedent(snippet), "snippet.py")


def codes(report):
    return [d.code for d in report.diagnostics]


# C301: unguarded field access ------------------------------------------------

def test_c301_unguarded_write():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump(self):
                self.value += 1
    """)
    assert codes(report) == ["C301"]
    assert "write of Counter.value" in report.diagnostics[0].message


def test_c301_unguarded_read():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def peek(self):
                return self.value
    """)
    assert codes(report) == ["C301"]
    assert "read of Counter.value" in report.diagnostics[0].message


def test_c301_satisfied_by_with_lock():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.value += 1
    """)
    assert codes(report) == []


def test_c301_wrong_lock_does_not_satisfy():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump(self):
                with self._other:
                    self.value += 1
    """)
    assert codes(report) == ["C301"]


def test_c301_init_is_exempt():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock
                self.value = 1
    """)
    assert codes(report) == []


def test_c301_cross_object_access():
    report = check("""
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock

        class Cache:
            def __init__(self):
                self.stats = Stats()

            def hit(self):
                self.stats.hits += 1

            def hit_locked(self):
                with self.stats._lock:
                    self.stats.hits += 1
    """)
    assert codes(report) == ["C301"]
    assert "Stats.hits" in report.diagnostics[0].message


def test_c301_requires_lock_directive_trusted():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def _bump_locked(self):  # requires-lock: _lock
                self.value += 1
    """)
    assert codes(report) == []


def test_c301_nested_function_assumes_no_locks():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump_async(self):
                with self._lock:
                    def worker():
                        self.value += 1
                    return worker
    """)
    assert codes(report) == ["C301"]


def test_unsynchronized_acknowledged_not_flagged():
    report = check("""
        class Flag:
            def __init__(self):
                self.done = False  # unsynchronized: monotone flag

            def set(self):
                self.done = True
    """)
    assert codes(report) == []
    assert report.acknowledged == 1


def test_racecheck_ignore_suppresses():
    report = check("""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump(self):
                self.value += 1  # racecheck: ignore[C301]
    """)
    assert codes(report) == []
    assert report.suppressed == 1


# C302: lock-order inversion ---------------------------------------------------

def test_c302_inversion_reported():
    report = check("""
        import threading

        class Inverted:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """)
    assert codes(report) == ["C302"]
    assert "Inverted._a" in report.diagnostics[0].message
    assert "Inverted._b" in report.diagnostics[0].message


def test_c302_consistent_order_clean():
    report = check("""
        import threading

        class Ordered:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def one(self):
                with self._a:
                    with self._b:
                        pass

            def two(self):
                with self._a:
                    with self._b:
                        pass
    """)
    assert codes(report) == []
    assert ("Ordered._a", "Ordered._b") in report.lock_graph


def test_c302_cross_class_via_call_expansion():
    report = check("""
        import threading

        class Leaf:
            def __init__(self):
                self._lock = threading.Lock()

            def poke(self):
                with self._lock:
                    pass

        class Root:
            def __init__(self):
                self._lock = threading.Lock()
                self.leaf = Leaf()

            def outer(self):
                with self._lock:
                    self.leaf.poke()
    """)
    assert codes(report) == []
    assert ("Root._lock", "Leaf._lock") in report.lock_graph


# C303: blocking call under a lock --------------------------------------------

def test_c303_sleep_under_lock():
    report = check("""
        import threading
        import time

        class Sleeper:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    time.sleep(1)
    """)
    assert codes(report) == ["C303"]
    assert "time.sleep" in report.diagnostics[0].message


def test_c303_queue_get_under_lock():
    report = check("""
        import queue
        import threading

        class Pump:
            def __init__(self):
                self._lock = threading.Lock()
                self.inbox = queue.Queue()

            def drain_one(self):
                with self._lock:
                    return self.inbox.get()
    """)
    assert codes(report) == ["C303"]


def test_c303_future_result_under_lock():
    report = check("""
        import threading

        class Runner:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self, pool, fn):
                with self._lock:
                    future = pool.submit(fn)
                    return future.result()
    """)
    assert codes(report) == ["C303"]


def test_c303_sleep_outside_lock_clean():
    report = check("""
        import time

        def backoff():
            time.sleep(0.1)
    """)
    assert codes(report) == []


def test_c303_socket_recv_under_lock():
    report = check("""
        import threading

        class Server:
            def __init__(self):
                self.lock = threading.Lock()
                self.sock = connect()

            def pull(self):
                with self.lock:
                    return self.sock.recv(4096)
    """)
    assert codes(report) == ["C303"]


def test_c303_pipe_recv_under_lock():
    report = check("""
        import threading

        class Pool:
            def __init__(self):
                self.lock = threading.Lock()

            def drain(self, conn):
                with self.lock:
                    return conn.recv()
    """)
    assert codes(report) == ["C303"]


# C304: per-call locks ---------------------------------------------------------

def test_c304_inline_with_lock():
    report = check("""
        import threading

        def guard_nothing():
            with threading.Lock():
                pass
    """)
    assert codes(report) == ["C304"]


def test_c304_local_lock():
    report = check("""
        import threading

        def guard_nothing():
            lock = threading.Lock()
            with lock:
                pass
    """)
    assert codes(report) == ["C304"]


def test_c304_instance_lock_clean():
    report = check("""
        import threading

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()

            def use(self):
                with self._lock:
                    pass
    """)
    assert codes(report) == []


# C305: unknown guard ----------------------------------------------------------

def test_c305_unknown_guard_warning():
    report = check("""
        class Confused:
            def __init__(self):
                self.value = 0  # guarded-by: _mutex
    """)
    assert codes(report) == ["C305"]
    assert report.diagnostics[0].severity.value == "warning"


# Integration: the real tree and the planted race ------------------------------

def test_src_repro_is_racecheck_clean():
    report = racecheck_paths([SRC_REPRO])
    assert report.errors == 0, "\n".join(
        d.format() for d in report.diagnostics
    )
    assert report.warnings == 0
    assert report.guarded_fields >= 20
    # the two intended cross-class edges exist, and the static graph
    # stays acyclic by construction (a cycle would be a C302 error)
    assert ("LRUCache._lock", "CacheStats._lock") in report.lock_graph


def test_planted_race_caught_statically():
    report = racecheck_paths([PLANTED])
    c301 = [d for d in report.diagnostics if d.code == "C301"]
    assert len(c301) == 2  # the stale read and the lost-update write
    assert all("PlantedCounter.value" in d.message for d in c301)


# CLI exit codes ---------------------------------------------------------------

def cli(tmp_path, source, extra=()):
    path = tmp_path / "unit.py"
    path.write_text(textwrap.dedent(source))
    return main(["racecheck", str(path)] + list(extra))


def test_cli_exit_0_clean(tmp_path, capsys):
    assert cli(tmp_path, "x = 1\n") == 0
    assert "0 error(s)" in capsys.readouterr().err


def test_cli_exit_1_errors(tmp_path, capsys):
    code = cli(tmp_path, """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded-by: _lock

            def bump(self):
                self.value += 1
    """)
    assert code == 1
    assert "C301" in capsys.readouterr().out


def test_cli_exit_2_syntax_error(tmp_path, capsys):
    assert cli(tmp_path, "def broken(:\n") == 2
    assert "syntax error" in capsys.readouterr().err


def test_cli_exit_3_warnings_only(tmp_path):
    code = cli(tmp_path, """
        class Confused:
            def __init__(self):
                self.value = 0  # guarded-by: _mutex
    """)
    assert code == 3


def test_cli_verbose_prints_graph(tmp_path, capsys):
    code = cli(tmp_path, """
        import threading

        class Ordered:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def one(self):
                with self._a:
                    with self._b:
                        pass
    """, extra=["--verbose"])
    assert code == 0
    err = capsys.readouterr().err
    assert "static lock-order graph" in err
    assert "Ordered._a" in err


def test_cli_racecheck_src_repro_exits_zero(capsys):
    assert main(["racecheck", SRC_REPRO]) == 0
    capsys.readouterr()
