"""The serve subsystem: protocol edges, daemon lifecycle, equivalence.

Covers the guarantees docs/SERVING.md makes:

* framing edge cases — oversized requests are rejected before they are
  buffered, malformed JSON gets an ``error`` frame (never a daemon
  death), a client disconnecting mid-request leaves the daemon healthy,
  and two concurrent clients get isolated responses;
* shutdown — a request queued behind ``shutdown`` or submitted after
  ``stop()`` is answered with ``shutting-down``, never left hanging;
* the diagnostic ops — ``lint``/``race``/``live``/``deps`` exit exactly
  as the CLI subcommands of the same names (one shared driver);
* stale-socket claim — a killed daemon's leftovers are cleaned up,
  a live daemon is refused (never ``EADDRINUSE``);
* the chaos hook — ``OP:conndrop@N`` drops the connection before the
  terminal frame and the retry is served;
* hot-reload — an edited case study reloads, a framework edit latches
  ``stale_framework`` and analysis ops are refused, and each source
  version's import edges are parsed once;
* closure snapshots — a warm cycle loads a protocol closure whose cone
  the edit left alone, misses on an edit inside it, and the table holds
  one entry per closure however many cycles run;
* the equivalence gate — a warm daemon's ``verify`` returns verdicts,
  violation kinds and witnesses identical to a one-shot sweep.  Tier-1
  runs it over a representative subset (the repo's test_incremental
  precedent); the CI serve job sets ``REPRO_SERVE_FULL_EQUIV=1`` to
  sweep every registry program including the failing demo rows.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    MAX_REQUEST_BYTES,
    ClientError,
    DaemonServer,
    ServeError,
    Session,
    call,
    claim_socket_path,
)
from repro.analysis.diagnostics import Diagnostic
from repro.serve.protocol import ProtocolError, Request, error_exit_code, parse_request
from repro.serve.reload import ModuleTracker
from repro.serve.server import LocalConnection
from repro.serve.watcher import Watcher

STRUCTURES = Path(__file__).resolve().parents[1] / "src" / "repro" / "structures"


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on a fresh socket + fresh cache dir."""
    session = Session(cache_dir=str(tmp_path / "cache"))
    server = DaemonServer(session, socket_path=tmp_path / "serve.sock")
    server.start()
    yield server
    server.stop()


def _raw_frames(socket_path, payload: bytes, *, count: int = 1, timeout=10.0):
    """Send raw bytes, read ``count`` frames (or until EOF)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(str(socket_path))
    try:
        sock.sendall(payload)
        buffer = b""
        frames = []
        while len(frames) < count:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer and len(frames) < count:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    frames.append(json.loads(line))
        return frames
    finally:
        sock.close()


def _read_until_terminal(sock, request_id: str) -> list[dict]:
    """Frames from ``sock`` up to ``request_id``'s terminal frame, or up
    to EOF; the socket's timeout fails the read when neither comes."""
    buffer = b""
    frames: list[dict] = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return frames
        buffer += chunk
        while b"\n" in buffer:
            line, _, buffer = buffer.partition(b"\n")
            frames.append(json.loads(line))
            last = frames[-1]
            if last["id"] == request_id and last["type"] in ("result", "error"):
                return frames


# -- protocol unit tests --------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        req = parse_request(b'{"v": 1, "op": "status", "id": "a", "params": {}}')
        assert (req.op, req.id, req.params) == ("status", "a", {})

    def test_missing_id_gets_fallback(self):
        assert parse_request(b'{"op": "status"}', fallback_id="auto-7").id == "auto-7"

    @pytest.mark.parametrize(
        ("line", "code"),
        [
            (b"garbage", "malformed"),
            (b"[1, 2]", "malformed"),
            (b'{"op": "status", "id": 7}', "malformed"),
            (b'{"op": "nope"}', "unknown-op"),
            (b'{"op": 12}', "unknown-op"),
            (b'{"op": "status", "v": 99}', "bad-version"),
            (b'{"op": "status", "params": []}', "bad-request"),
        ],
    )
    def test_rejections(self, line, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == code

    def test_oversized_rejected_before_parse(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(b"x" * (MAX_REQUEST_BYTES + 1))
        assert err.value.code == "oversized"

    def test_exit_contract(self):
        assert error_exit_code("malformed") == 2
        assert error_exit_code("unknown-op") == 2
        assert error_exit_code("bad-request") == 2
        assert error_exit_code("framework-changed") == 3
        assert error_exit_code("internal") == 3


# -- daemon basics --------------------------------------------------------------


class TestDaemon:
    def test_status_roundtrip(self, daemon):
        frame = call("status", socket_path=daemon.socket_path)
        assert frame["type"] == "result"
        assert frame["exit_code"] == 0
        payload = frame["payload"]
        assert payload["pid"] == os.getpid()
        assert payload["programs"] >= 11
        assert payload["stale_framework"] is False
        assert payload["closure_snapshots"] == {
            "count": 0, "bytes": 0, "loads": 0, "stores": 0
        }

    def test_malformed_json_gets_error_daemon_survives(self, daemon):
        frames = _raw_frames(daemon.socket_path, b"this is not json\n")
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "malformed"
        assert frames[0]["exit_code"] == 2
        # the daemon is still alive and serving
        assert call("status", socket_path=daemon.socket_path)["exit_code"] == 0

    def test_oversized_request_rejected_never_buffered(self, daemon):
        blob = b"x" * (MAX_REQUEST_BYTES + 64)  # no newline: a stream bomb
        frames = _raw_frames(daemon.socket_path, blob)
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "oversized"
        assert call("status", socket_path=daemon.socket_path)["exit_code"] == 0

    def test_unknown_op_is_usage_error(self, daemon):
        frames = _raw_frames(daemon.socket_path, b'{"op": "frobnicate"}\n')
        assert frames[0]["code"] == "unknown-op"
        assert frames[0]["exit_code"] == 2

    def test_unknown_program_is_usage_error(self, daemon):
        frame = call(
            "verify", {"programs": ["No such"]}, socket_path=daemon.socket_path
        )
        assert frame["type"] == "error"
        assert frame["code"] == "bad-request"
        assert frame["exit_code"] == 2

    @pytest.mark.parametrize(
        "params",
        [{"jobs": "two"}, {"retries": [1]}, {"timeout": "soon"}],
        ids=["jobs", "retries", "timeout"],
    )
    def test_malformed_verify_params_are_usage_errors(self, daemon, params):
        frame = call(
            "verify",
            {"programs": ["CAS-lock"], **params},
            socket_path=daemon.socket_path,
        )
        assert frame["type"] == "error"
        assert frame["code"] == "bad-request"
        assert frame["exit_code"] == 2
        assert call("status", socket_path=daemon.socket_path)["exit_code"] == 0

    @pytest.mark.parametrize(
        "params",
        [{"select": [45]}, {"programs": {"CAS-lock": 1}}, {"strict": "no"}],
        ids=["select", "programs", "strict"],
    )
    def test_malformed_diagnostic_params_are_usage_errors(self, daemon, params):
        frame = call(
            "lint",
            {"programs": ["CAS-lock"], **params},
            socket_path=daemon.socket_path,
        )
        assert frame["type"] == "error"
        assert frame["code"] == "bad-request"
        assert frame["exit_code"] == 2
        assert call("status", socket_path=daemon.socket_path)["exit_code"] == 0

    def test_ack_precedes_result(self, daemon):
        events = []
        frame = call("status", socket_path=daemon.socket_path, on_event=events.append)
        assert events and events[0]["type"] == "ack"
        assert events[0]["id"] == frame["id"]

    def test_mid_request_disconnect_leaves_daemon_healthy(self, daemon):
        # Fire a verify and slam the connection shut without reading.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(daemon.socket_path))
        sock.sendall(
            b'{"op": "verify", "id": "doomed", '
            b'"params": {"programs": ["Pair snapshot"]}}\n'
        )
        sock.close()
        # The request still runs to completion; its verdict lands in the
        # cache, so a well-behaved client gets a warm hit right after.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            frame = call(
                "verify",
                {"programs": ["Pair snapshot"]},
                socket_path=daemon.socket_path,
            )
            assert frame["type"] == "result"
            if frame["payload"]["programs"][0]["cached"]:
                return
            time.sleep(0.2)
        pytest.fail("the disconnected request's verdict never reached the cache")

    def test_two_concurrent_clients_are_isolated(self, daemon):
        results: dict[str, dict] = {}
        errors: list[Exception] = []

        def client(name: str, op: str, params: dict) -> None:
            events: list[dict] = []
            try:
                frame = call(
                    op,
                    params,
                    socket_path=daemon.socket_path,
                    on_event=events.append,
                )
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)
                return
            ids = {e["id"] for e in events} | {frame["id"]}
            results[name] = {"frame": frame, "ids": ids}

        threads = [
            threading.Thread(
                target=client,
                args=("a", "verify", {"programs": ["Pair snapshot"]}),
            ),
            threading.Thread(target=client, args=("b", "status", {})),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results["a"]["frame"]["op"] == "verify"
        assert results["b"]["frame"]["op"] == "status"
        # every frame a client saw carried its own request id
        assert len(results["a"]["ids"]) == 1
        assert len(results["b"]["ids"]) == 1
        assert results["a"]["ids"] != results["b"]["ids"]

    def test_shutdown_op_stops_and_unlinks(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        server = DaemonServer(session, socket_path=tmp_path / "serve.sock")
        server.start()
        assert call("shutdown", socket_path=server.socket_path)["exit_code"] == 0
        assert server.stopped.wait(timeout=10)
        time.sleep(0.1)
        assert not server.socket_path.exists()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_client_reader_closing_early_is_quiet(self, daemon, fmt):
        """``repro client ... | head -3``: the reader is gone before the
        answer is printed.  The client keeps the verdict's exit code and
        writes nothing to stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(STRUCTURES.parents[1]))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "client", "--op", "status"]
                + ["--format", fmt, "--socket", str(daemon.socket_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")


# -- shutdown answers every request it leaves behind ----------------------------


def _shutting_down(frame: dict) -> bool:
    return (
        frame["type"] == "error"
        and frame["code"] == "shutting-down"
        and frame["exit_code"] == 3
    )


class TestShutdownDrain:
    def test_request_queued_behind_shutdown_is_answered(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        server = DaemonServer(session, socket_path=tmp_path / "serve.sock")
        server.start()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        try:
            sock.connect(str(server.socket_path))
            sock.sendall(
                b'{"op": "shutdown", "id": "bye"}\n{"op": "status", "id": "st"}\n'
            )
            frames = _read_until_terminal(sock, "st")
        finally:
            sock.close()
            server.stop()
        assert any(f["id"] == "bye" and f["type"] == "result" for f in frames)
        assert _shutting_down(frames[-1])

    def test_request_after_stop_is_answered(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        server = DaemonServer(session, socket_path=tmp_path / "serve.sock")
        server.start()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        try:
            sock.connect(str(server.socket_path))
            sock.sendall(b'{"op": "status", "id": "early"}\n')
            assert _read_until_terminal(sock, "early")[-1]["type"] == "result"
            server.stop()
            sock.sendall(b'{"op": "status", "id": "late"}\n')
            frames = _read_until_terminal(sock, "late")
        finally:
            sock.close()
            server.stop()
        assert frames and _shutting_down(frames[-1])

    def test_watch_cycle_after_stop_returns_at_once(self, daemon):
        watcher = Watcher(daemon, out=None)
        daemon.stop()
        result: dict = {}
        thread = threading.Thread(
            target=lambda: result.update(frame=watcher._verify(["CAS-lock"])),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=5)
        assert "frame" in result, "the watch cycle waited for an answer"
        assert _shutting_down(result["frame"])

    def test_stop_drains_the_queue_and_finishes_the_running_request(self, daemon):
        release = threading.Event()
        dispatch = daemon.session.dispatch

        def held(request, emit):
            release.wait(5)
            return dispatch(request, emit)

        daemon.session.dispatch = held
        running, queued = LocalConnection(), LocalConnection()
        daemon.submit(Request(op="status", id="running"), running)
        daemon.submit(Request(op="status", id="queued"), queued)
        deadline = time.monotonic() + 5
        while daemon.queue.qsize() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # until the dispatcher holds "running"
        daemon.stop()
        assert queued.done.is_set() and _shutting_down(queued.terminal)
        release.set()
        frame = running.wait(timeout=5)
        assert frame["type"] == "result"
        assert frame["id"] == "running"


# -- the diagnostic ops: the CLI's exit matrix, through the daemon --------------

_DIAG_SWEEPS = {
    "lint": "lint_registry",
    "race": "race_registry",
    "live": "live_registry",
    "deps": "deps_registry",
}


def _sweep_of(*codes: str):
    findings = [Diagnostic(code, "synthetic finding", subject="fake") for code in codes]
    return lambda names=None: findings


def _crashing_sweep(names=None):
    raise RuntimeError("synthetic analyzer bug")


class TestDiagnosticOps:
    """Patched sweeps (as in tests/test_cli_exits.py): the real registry
    is clean, and the matrix costs no analysis time."""

    @pytest.mark.parametrize("op", list(_DIAG_SWEEPS))
    @pytest.mark.parametrize(
        ("sweep", "argv", "params", "code"),
        [
            (_sweep_of(), [], {}, 0),
            (_sweep_of("FCSL045"), [], {}, 1),
            (_sweep_of("FCSL046"), [], {}, 0),
            (_sweep_of("FCSL046"), ["--strict"], {"strict": True}, 1),
            (_sweep_of(), ["--select", "FCSL9"], {"select": ["FCSL9"]}, 2),
            (_crashing_sweep, [], {}, 3),
        ],
        ids=["clean", "error", "warning", "warning-strict", "unknown-selector", "crash"],
    )
    def test_cli_and_daemon_exit_alike(
        self, daemon, monkeypatch, capsys, op, sweep, argv, params, code
    ):
        from repro.__main__ import main

        monkeypatch.setattr(f"repro.analysis.{_DIAG_SWEEPS[op]}", sweep)
        assert main([op, *argv]) == code
        frame = call(op, params, socket_path=daemon.socket_path)
        assert frame["exit_code"] == code
        if code == 2:
            assert frame["code"] == "bad-request"
        elif code == 3:
            assert frame["code"] == "internal"
        else:
            assert frame["payload"]["count"] == len(sweep())


# -- stale-socket claim ---------------------------------------------------------


class TestSocketClaim:
    def test_leftover_socket_with_dead_pid_is_reclaimed(self, tmp_path):
        path = tmp_path / "serve.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))  # bound but never listened/closed: dead
        stale.close()
        # a pid that certainly exited: our own child
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        (tmp_path / "serve.sock.pid").write_text(f"{pid}\n")
        claim_socket_path(path)
        assert not path.exists()
        assert not (tmp_path / "serve.sock.pid").exists()

    def test_leftover_socket_without_pidfile_is_reclaimed(self, tmp_path):
        path = tmp_path / "serve.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()
        claim_socket_path(path)
        assert not path.exists()

    def test_live_daemon_is_refused_not_eaddrinuse(self, daemon, tmp_path):
        with pytest.raises(ServeError, match="already serving"):
            claim_socket_path(daemon.socket_path)
        # and a second DaemonServer on the same path refuses to start
        second = DaemonServer(
            Session(cache_dir=str(tmp_path / "cache2")),
            socket_path=daemon.socket_path,
        )
        with pytest.raises(ServeError):
            second.start()


# -- chaos: the conndrop transport fault ----------------------------------------


class TestConndrop:
    def test_conndrop_drops_then_retry_is_served(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        server = DaemonServer(
            session,
            socket_path=tmp_path / "serve.sock",
            faults="status:conndrop@1",
        )
        server.start()
        try:
            with pytest.raises(ClientError):
                call("status", socket_path=server.socket_path, timeout=10)
            frame = call("status", socket_path=server.socket_path, timeout=10)
            assert frame["exit_code"] == 0
            # both attempts were dispatched (the drop was post-dispatch)
            assert frame["payload"]["requests"]["status"] == 2
        finally:
            server.stop()

    def test_conndrop_spec_parses_in_fault_grammar(self):
        from repro.engine.faults import FaultPlan

        plan = FaultPlan.parse("verify:conndrop@2")
        assert plan.serve_fault("verify") is False  # attempt 1
        assert plan.serve_fault("verify") is True  # attempt 2
        assert plan.serve_fault("verify") is False  # attempt 3
        assert plan.serve_fault("status") is False  # other op untouched


# -- hot-reload + the framework soundness latch ---------------------------------


class TestReload:
    def test_structures_edit_hot_reloads_and_marks_stale(self, daemon):
        target = STRUCTURES / "locks" / "demo.py"
        original = target.read_text(encoding="utf-8")
        # baseline: imports + fingerprints resident
        call("status", socket_path=daemon.socket_path)
        daemon.session.refresh_fingerprints()
        try:
            target.write_text(original + "\n# serve-reload-probe\n", encoding="utf-8")
            frame = call("reload", socket_path=daemon.socket_path)
            assert frame["exit_code"] == 0
            assert "repro.structures.locks.demo" in frame["payload"]["reloaded"]
            stale = set(frame["payload"]["stale_programs"])
            assert {"Two-lock demo", "Unfair lock demo"} <= stale
            assert frame["payload"]["stale_framework"] is False
        finally:
            target.write_text(original, encoding="utf-8")
            call("reload", socket_path=daemon.socket_path)

    def test_package_init_reloads_after_its_submodules(self):
        # ``locks/__init__.py`` re-exports ``CASLock`` with ``from .caslock
        # import ...``: its relative imports resolve against the package
        # itself, so it must reload after ``locks.caslock``, or it keeps
        # re-exporting the old class.
        import repro.structures.locks  # noqa: F401

        order = ModuleTracker()._reload_order(
            {"repro.structures.locks", "repro.structures.locks.caslock"}
        )
        assert order == ["repro.structures.locks.caslock", "repro.structures.locks"]

    def test_import_edges_are_parsed_once_per_source_version(self, tmp_path, monkeypatch):
        import repro.serve.reload as reload_mod

        parses = []
        parse = reload_mod._import_edges

        def counting(source, package):
            parses.append(source)
            return parse(source, package)

        monkeypatch.setattr(reload_mod, "_import_edges", counting)
        monkeypatch.setattr(reload_mod, "IMPORT_MEMO_SIZE", 3)
        tracker = ModuleTracker()
        module = tmp_path / "probe.py"
        name = "repro.structures.probe"
        edit = "from repro.structures.locks import caslock\n"
        undo = "from . import ticketed\n"
        for text in (edit, undo, edit, undo, edit):
            module.write_text(text, encoding="utf-8")
            edges = tracker._imports(name, str(module))
        assert len(parses) == 2  # an edit and its undo: one parse each
        assert "repro.structures.locks.caslock" in edges
        # the memo is bounded: older versions are forgotten, not kept
        for i in range(5):
            module.write_text(f"{edit}# version {i}\n", encoding="utf-8")
            tracker._imports(name, str(module))
        assert len(tracker._edges) == 3
        module.write_text(undo, encoding="utf-8")
        tracker._imports(name, str(module))
        assert len(parses) == 8

    def test_framework_stale_latch_refuses_analysis_ops(self, daemon):
        daemon.session.tracker.stale_framework = True
        frame = call(
            "verify", {"programs": ["Pair snapshot"]}, socket_path=daemon.socket_path
        )
        assert frame["type"] == "error"
        assert frame["code"] == "framework-changed"
        assert frame["exit_code"] == 3
        # status and shutdown stay available
        assert call("status", socket_path=daemon.socket_path)["exit_code"] == 0


# -- the watch loop -------------------------------------------------------------


@pytest.mark.slow
class TestWatch:
    def test_edit_triggers_incremental_stale_cone_reverify(self, daemon, tmp_path):
        # warm the cache through the daemon
        frame = call(
            "verify",
            {"programs": ["Pair snapshot"]},
            socket_path=daemon.socket_path,
            timeout=300,
        )
        assert frame["exit_code"] == 0
        report = tmp_path / "watch.ndjson"
        watcher = Watcher(daemon, report_path=str(report), out=None)
        daemon.session.refresh_fingerprints()
        target = STRUCTURES / "pair_snapshot.py"
        original = target.read_text(encoding="utf-8")
        try:
            target.write_text(original + "\n# watch-probe\n", encoding="utf-8")
            code = watcher.handle_change([str(target)])
        finally:
            target.write_text(original, encoding="utf-8")
            call("reload", socket_path=daemon.socket_path)
        assert code == 0
        record = json.loads(report.read_text().strip().splitlines()[-1])
        assert record["stale"] == ["Pair snapshot"]
        assert record["exit_code"] == 0
        # the stale set is a strict subset of the registry: the cycle
        # re-verified one program, not the world
        from repro.structures.registry import registry_programs

        assert len(record["stale"]) < len(registry_programs())
        assert record["reverified"] <= record["total"]

    def test_untouched_fingerprints_mean_no_reverify(self, daemon, tmp_path):
        watcher = Watcher(daemon, out=None)
        daemon.session.refresh_fingerprints()
        # a watched-path change that moves no program fingerprint
        code = watcher.handle_change([str(tmp_path / "unrelated.py")])
        assert code == 0
        assert watcher.cycles == 1


#: Run in a child interpreter over a private copy of ``src/``: three
#: rounds of a CAS-lock edit and its undo through ``Watcher.handle_change``
#: on a daemon set up like the ``daemon`` fixture.  After each round it
#: counts the live classes of ``repro.structures`` modules and the live
#: concurroids, and checks that the ``locks`` package re-exports the
#: reloaded ``CASLock``.
_CYCLE_CENSUS = textwrap.dedent(
    """
    import gc, json, os, sys
    from pathlib import Path

    from repro.core.concurroid import Concurroid
    from repro.serve import DaemonServer, Session, Watcher, call

    tmp, target = Path(sys.argv[1]), Path(sys.argv[2])
    original = target.read_text(encoding="utf-8")
    anchor = "    def acquire(self) -> Prog:\\n"
    edited = original.replace(anchor, anchor + "        # census edit\\n", 1)
    assert edited != original
    mtime = target.stat().st_mtime_ns
    session = Session(cache_dir=str(tmp / "cache"))
    server = DaemonServer(session, socket_path=tmp / "serve.sock")
    server.start()
    out = {"codes": [], "classes": [], "concurroids": [], "reexported": [], "snapshots": []}
    try:
        call("verify", {"programs": ["CAS-lock"]}, socket_path=server.socket_path,
             timeout=300)
        session.refresh_fingerprints()
        watcher = Watcher(server, out=None)
        writes = 0
        for __ in range(3):
            for text in (edited, original):
                writes += 1
                target.write_text(text, encoding="utf-8")
                os.utime(target, ns=(mtime + writes * 10**9,) * 2)
                out["codes"].append(watcher.handle_change([str(target)]))
            gc.collect()
            live = gc.get_objects()
            out["classes"].append(sum(
                1 for o in live
                if isinstance(o, type)
                and str(getattr(o, "__module__", "")).startswith("repro.structures")
            ))
            out["concurroids"].append(sum(1 for o in live if isinstance(o, Concurroid)))
            del live  # holds every object it counted
            out["reexported"].append(
                sys.modules["repro.structures.locks"].CASLock
                is sys.modules["repro.structures.locks.caslock"].CASLock
            )
            status = session.snapshots.status()
            out["snapshots"].append([status["count"], status["bytes"], status["stores"]])
    finally:
        server.stop()
    print(json.dumps(out))
    """
)


class TestCycleGrowth:
    def test_edit_cycles_keep_no_old_classes_or_concurroids(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(
            STRUCTURES.parents[1], src, ignore=shutil.ignore_patterns("__pycache__")
        )
        target = src / "repro" / "structures" / "locks" / "caslock.py"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("REPRO_TRACE", None)
        proc = subprocess.run(
            [sys.executable, "-c", _CYCLE_CENSUS, str(tmp_path), str(target)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["codes"] == [0] * 6
        # every round re-verifies CAS-lock; after round 1 nothing accrues
        assert out["classes"] == [out["classes"][0]] * 3
        assert out["concurroids"] == [out["concurroids"][0]] * 3
        assert out["reexported"] == [True] * 3
        # the edit is in CAS-lock's setup cone: every cycle misses and
        # replaces the one snapshot, so the table does not grow
        (count, nbytes, __), *later = out["snapshots"]
        assert count == 1 and nbytes > 0
        assert [snap[:2] for snap in later] == [[count, nbytes]] * 2
        assert [snap[2] for snap in out["snapshots"]] == [3, 5, 7]


#: Run in a child interpreter over a private copy of ``src/``: a daemon
#: filled with Ticketed lock, then edits of ``ticketed.py`` and their
#: undos through ``Watcher.handle_change``.  Per cycle it reports the
#: snapshot table's loads and stores, and, for the first edit, the
#: cycle's verdicts and a cold one-shot run's on the same code.
_SNAPSHOT_CYCLES = textwrap.dedent(
    """
    import ast, json, os, sys
    from pathlib import Path

    from repro.engine import run_sweep
    from repro.serve import DaemonServer, Session, Watcher, call

    tmp, target = Path(sys.argv[1]), Path(sys.argv[2])
    original = target.read_text(encoding="utf-8")

    def method_line(text, cls_name, method):
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef) and node.name == cls_name:
                for child in node.body:
                    if isinstance(child, ast.FunctionDef) and child.name == method:
                        return child.body[0]
        raise LookupError(method)

    def comment_in(cls_name, method):
        first = method_line(original, cls_name, method)
        lines = original.splitlines(keepends=True)
        lines.insert(first.lineno - 1, " " * first.col_offset + "# snapshot edit\\n")
        return "".join(lines)

    anchor = "    # -- initial states"
    override = (
        "    def env_moves(self, state: State) -> Iterator[State]:\\n"
        "        yield from super().env_moves(state)\\n\\n"
    )
    assert original.count(anchor) == 1
    edits = {
        "ticketed-leaf": comment_in("TicketWriteResAction", "step"),
        "transitions-comment": comment_in("TicketedLockConcurroid", "transitions"),
        "env-moves-override": original.replace(anchor, override + anchor),
    }
    mtime = target.stat().st_mtime_ns

    class RecordingWatcher(Watcher):
        last_frame = None

        def _verify(self, stale):
            self.last_frame = super()._verify(stale)
            return self.last_frame

    def verdicts(programs):
        return [
            {k: p[k] for k in ("program", "ok", "status", "obligations", "failures")}
            for p in programs
        ]

    session = Session(cache_dir=str(tmp / "cache"))
    server = DaemonServer(session, socket_path=tmp / "serve.sock")
    server.start()
    out = {"cycles": []}
    try:
        call("verify", {"programs": ["Ticketed lock"]}, socket_path=server.socket_path,
             timeout=300)
        session.refresh_fingerprints()
        out["fill"] = dict(session.snapshots.status())
        watcher = RecordingWatcher(server, out=None)
        writes = 0
        for name, edited in edits.items():
            for label, text in ((name, edited), (name + "/undo", original)):
                writes += 1
                target.write_text(text, encoding="utf-8")
                os.utime(target, ns=(mtime + writes * 10**9,) * 2)
                code = watcher.handle_change([str(target)])
                payload = watcher.last_frame["payload"]
                cycle = {"edit": label, "code": code,
                         "reverified": payload["reverified"],
                         "snapshots": dict(session.snapshots.status())}
                if label == "ticketed-leaf":
                    cold = run_sweep(["Ticketed lock"], jobs=1, cache=False, journal=False)
                    cycle["warm"] = verdicts(payload["programs"])
                    cycle["cold"] = verdicts(cold.to_dict()["programs"])
                out["cycles"].append(cycle)
        out["status"] = call("status", socket_path=server.socket_path)["payload"]
    finally:
        server.stop()
    print(json.dumps(out))
    """
)


class TestSnapshotCycles:
    def test_edits_load_or_miss_by_the_closure_cone(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(
            STRUCTURES.parents[1], src, ignore=shutil.ignore_patterns("__pycache__")
        )
        target = src / "repro" / "structures" / "locks" / "ticketed.py"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("REPRO_TRACE", None)
        proc = subprocess.run(
            [sys.executable, "-c", _SNAPSHOT_CYCLES, str(tmp_path), str(target)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        # the fill stored Ticketed lock's one closure
        assert out["fill"]["count"] == 1 and out["fill"]["stores"] == 1
        cycles = {c["edit"]: c for c in out["cycles"]}
        assert all(c["code"] == 0 and c["reverified"] > 0 for c in out["cycles"])
        # an action the closure never runs: both cycles load the snapshot
        leaf, undo = cycles["ticketed-leaf"], cycles["ticketed-leaf/undo"]
        assert (leaf["snapshots"]["loads"], leaf["snapshots"]["stores"]) == (1, 1)
        assert (undo["snapshots"]["loads"], undo["snapshots"]["stores"]) == (2, 1)
        for c in leaf["warm"] + leaf["cold"]:
            for failure in c["failures"]:
                failure.pop("seconds", None)
        assert leaf["warm"] == leaf["cold"]
        assert leaf["warm"][0]["ok"] is True
        # the concurroid's own transitions, or a new env_moves override:
        # each edit and its undo misses and replaces the one snapshot
        stores = [
            cycles[name]["snapshots"]["stores"]
            for name in (
                "transitions-comment", "transitions-comment/undo",
                "env-moves-override", "env-moves-override/undo",
            )
        ]
        assert stores == [2, 3, 4, 5]
        assert all(c["snapshots"]["loads"] == 2 for c in out["cycles"][2:])
        assert all(c["snapshots"]["count"] == 1 for c in out["cycles"])
        status = out["status"]["closure_snapshots"]
        assert status["count"] == 1 and status["bytes"] > 0
        assert (status["loads"], status["stores"]) == (2, 5)


# -- the equivalence gate -------------------------------------------------------


def _equiv_programs() -> list[str]:
    """Tier-1 gates a representative subset (the test_incremental
    precedent); CI's serve job sets REPRO_SERVE_FULL_EQUIV=1 to sweep
    every registry program including the failing demo rows."""
    if os.environ.get("REPRO_SERVE_FULL_EQUIV"):
        from repro.structures.registry import registry_programs

        return [info.name for info in registry_programs()]
    return ["CAS-lock", "Pair snapshot", "Unfair lock demo"]


def _comparable(program_dict: dict) -> dict:
    """The verdict-bearing slice of one program's outcome dict: verdicts,
    per-category counts, violation kinds and witnesses — everything the
    equivalence gate pins; wall times and cache provenance may differ."""
    return {
        "program": program_dict["program"],
        "ok": program_dict["ok"],
        "status": program_dict["status"],
        "obligations": program_dict["obligations"],
        "prepass_skips": program_dict["prepass_skips"],
        "failures": [
            {k: v for k, v in failure.items() if k != "seconds"}
            for failure in program_dict["failures"]
        ],
    }


@pytest.mark.slow
class TestEquivalence:
    def test_warm_daemon_verdicts_match_oneshot(self, daemon):
        from repro.engine import run_sweep

        names = _equiv_programs()
        oneshot = run_sweep(names=names, jobs=1, cache=False, journal=False)
        reference = {
            p["program"]: _comparable(p) for p in oneshot.to_dict()["programs"]
        }
        # prime the daemon (first pass), then gate the *warm* pass
        call(
            "verify",
            {"programs": names},
            socket_path=daemon.socket_path,
            timeout=600,
        )
        frame = call(
            "verify",
            {"programs": names},
            socket_path=daemon.socket_path,
            timeout=600,
        )
        assert frame["type"] == "result"
        warm = {
            p["program"]: _comparable(p) for p in frame["payload"]["programs"]
        }
        assert warm == reference
        assert frame["exit_code"] == oneshot.exit_code()
