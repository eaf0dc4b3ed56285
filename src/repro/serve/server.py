"""The ``repro serve`` daemon: transport, session queue, lifecycle.

Topology — three kinds of thread around one resident
:class:`~repro.serve.session.Session`:

* one **accept thread**, spawning a reader per client connection;
* one **reader thread per connection**, parsing newline-delimited JSON
  request frames (cap-enforced *while buffering*, so an oversized
  request is rejected without ever being held in memory) and submitting
  them;
* one **dispatcher thread**, draining the session queue strictly FIFO —
  this is the serialization point: however many clients are connected,
  exactly one request executes at a time against the resident state, so
  the session needs no locks and two clients can never interleave
  verdicts.

:meth:`DaemonServer.submit` is the only way into the session queue:
socket readers, the SIGHUP reload and ``repro watch`` cycles (through a
:class:`LocalConnection`) all enter there.  Once the daemon stops, every
request still queued, and every request submitted later, is answered
with a ``shutting-down`` error frame (exit 3) instead of silence.

Failure containment: a client disconnecting mid-request only marks its
connection dead (frames for it are dropped; the sweep finishes and the
pool stays healthy); a request that makes the session raise becomes an
``error`` frame, never a daemon death.  The chaos hook
(:func:`repro.engine.faults.maybe_conndrop`, spec ``OP:conndrop@N``)
drops the connection right before a terminal frame — the injected
version of the first failure.

Stale-socket claim: binding a Unix socket whose path exists first
connect-probes it.  A live daemon answers the probe → refuse to start
(exit 2, never ``EADDRINUSE``).  A refused probe means nobody is
listening; if the recorded pid (``<socket>.pid``) is dead or absent,
the leftovers are cleaned up and the path claimed.

``SIGHUP`` submits an internal ``reload`` request (equivalent to a
client sending ``{"op": "reload"}``): re-fingerprint, hot-reload edited
case studies, latch ``stale_framework`` on framework edits.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import threading
from pathlib import Path
from typing import Any

from .protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    Request,
    ack_frame,
    encode,
    error_frame,
    parse_request,
)
from .session import Session


class ServeError(Exception):
    """Daemon startup refusal (usage-class: another daemon is live, bad
    socket path...).  The CLI maps it to exit 2."""


def default_socket_path(cache_dir: str | os.PathLike | None = None) -> Path:
    """Default rendezvous: ``serve.sock`` beside the obligation cache."""
    from ..engine.cache import default_cache_dir

    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / "serve.sock"


def _pidfile_for(socket_path: Path) -> Path:
    return socket_path.parent / (socket_path.name + ".pid")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def claim_socket_path(socket_path: Path) -> None:
    """Make ``socket_path`` bindable, or raise :class:`ServeError`.

    A leftover socket from a killed daemon is detected (connect probe +
    pid liveness) and removed; a *live* daemon is reported as such —
    this function never lets ``bind`` fail with ``EADDRINUSE``.
    """
    if not socket_path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(socket_path))
    except OSError:
        pass  # nobody listening: stale
    else:
        raise ServeError(
            f"a daemon is already serving on {socket_path} "
            "(use `repro client --op status`, or `--op shutdown` first)"
        )
    finally:
        probe.close()
    pidfile = _pidfile_for(socket_path)
    try:
        pid = int(pidfile.read_text().strip())
    except (OSError, ValueError):
        pid = None
    if pid is not None and _pid_alive(pid):
        raise ServeError(
            f"socket {socket_path} is dead but pid {pid} (from {pidfile}) "
            "is still running — refusing to steal its socket path"
        )
    socket_path.unlink(missing_ok=True)
    pidfile.unlink(missing_ok=True)


class _Connection:
    """One client connection: socket + write lock + liveness flag."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.alive = True

    def send(self, frame: dict[str, Any]) -> bool:
        """Best-effort frame write; a dead peer flips ``alive`` and the
        frame is dropped (the request keeps running — its verdict still
        lands in the cache)."""
        if not self.alive:
            return False
        try:
            with self.lock:
                self.sock.sendall(encode(frame))
            return True
        except OSError:
            self.alive = False
            return False

    def drop(self) -> None:
        """Hard-close (RST-ish): the conndrop fault and reader teardown."""
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class LocalConnection:
    """The sink for a request the daemon's own process submits (SIGHUP
    reload, watch cycles): no socket, it keeps the terminal frame."""

    def __init__(self) -> None:
        self.terminal: dict[str, Any] | None = None
        self.done = threading.Event()

    def send(self, frame: dict[str, Any]) -> bool:
        if frame.get("type") in ("result", "error"):
            self.terminal = frame
            self.done.set()
        return True

    def drop(self) -> None:
        self.done.set()

    def wait(self, timeout: float) -> dict[str, Any]:
        """The terminal frame; an ``internal`` error frame when none
        arrived in ``timeout`` seconds or the connection was dropped."""
        self.done.wait(timeout)
        return self.terminal or error_frame(
            None, "internal", "the daemon sent no terminal frame"
        )


def _shutting_down(request: Request) -> dict[str, Any]:
    return error_frame(
        request.id,
        "shutting-down",
        "the daemon is shutting down; the request did not run",
    )


_STOP = object()


class DaemonServer:
    """The resident daemon: a Unix-socket transport around one
    serialized :class:`Session`."""

    def __init__(
        self,
        session: Session,
        *,
        socket_path: str | os.PathLike | None = None,
        faults: Any = None,
    ) -> None:
        from ..engine.faults import FaultPlan

        self.session = session
        self.socket_path = Path(
            socket_path
            if socket_path is not None
            else default_socket_path(session.cache_dir)
        )
        self.faults = (
            FaultPlan.parse(faults) if isinstance(faults, str) else faults
        )
        self.queue: queue.Queue = queue.Queue()
        self.stopped = threading.Event()
        self._listener: socket.socket | None = None
        # Orders submissions against stop(): nothing enters the queue
        # once stop() has drained it.  Re-entrant, since a SIGTERM
        # handler may run stop() inside a SIGHUP handler's submit()
        # on the main thread.
        self._gate = threading.RLock()
        self._threads: list[threading.Thread] = []
        self._auto_ids = 0
        self._id_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Claim the socket, write the pidfile, start all threads."""
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        claim_socket_path(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(16)
        self._listener = listener
        _pidfile_for(self.socket_path).write_text(f"{os.getpid()}\n")
        self._spawn(self._dispatch_loop, "serve-dispatch")
        self._spawn(self._accept_loop, "serve-accept")

    def serve_forever(self) -> None:
        """Start (if needed) and block until shutdown."""
        if self._listener is None:
            self.start()
        try:
            self.stopped.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving: answer every queued request with
        ``shutting-down``, stop the dispatcher after the request it is
        running, close the listener and remove the socket and pidfile."""
        with self._gate:  # a second caller returns once this one is done
            if self.stopped.is_set():
                return
            self.stopped.set()
            while True:
                try:
                    request, conn = self.queue.get_nowait()
                except queue.Empty:
                    break
                conn.send(_shutting_down(request))
            self.queue.put(_STOP)
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
                self._listener = None
            self.socket_path.unlink(missing_ok=True)
            _pidfile_for(self.socket_path).unlink(missing_ok=True)

    def install_signal_handlers(self) -> None:
        """SIGHUP → internal reload; SIGTERM → clean stop.  Main-thread
        only (the CLI path); embedded servers (tests, watch) skip it."""
        signal.signal(signal.SIGHUP, lambda *_: self.request_reload())
        signal.signal(signal.SIGTERM, lambda *_: self.stop())

    def request_reload(self) -> None:
        """Submit a ``reload`` as if a client had asked (SIGHUP path)."""
        self.submit(Request(op="reload", id="sighup"), LocalConnection())

    def submit(self, request: Request, conn: Any) -> None:
        """Queue ``request``; its frames go to ``conn`` (anything with
        ``send(frame)`` and ``drop()``).  The ``ack`` is sent first; a
        stopped daemon answers ``shutting-down`` instead."""
        if not self.stopped.is_set():
            conn.send(ack_frame(request, queued=self.queue.qsize()))
            with self._gate:
                if not self.stopped.is_set():
                    self.queue.put((request, conn))
                    return
        conn.send(_shutting_down(request))

    # -- threads -------------------------------------------------------------

    def _spawn(self, target: Any, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _next_auto_id(self) -> str:
        with self._id_lock:
            self._auto_ids += 1
            return f"auto-{self._auto_ids}"

    def _accept_loop(self) -> None:
        while not self.stopped.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            conn = _Connection(sock)
            self._spawn(lambda c=conn: self._reader_loop(c), "serve-reader")

    def _reader_loop(self, conn: _Connection) -> None:
        """Parse one connection's request stream; enqueue each request.

        The byte cap is enforced *while buffering*: a line that exceeds
        :data:`~repro.serve.protocol.MAX_REQUEST_BYTES` gets an
        ``oversized`` error and the connection is closed without the
        daemon ever holding the full payload.
        """
        buffer = bytearray()
        while not self.stopped.is_set():
            try:
                chunk = conn.sock.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            buffer.extend(chunk)
            if len(buffer) > MAX_REQUEST_BYTES and b"\n" not in buffer:
                conn.send(
                    error_frame(
                        None,
                        "oversized",
                        f"request exceeds {MAX_REQUEST_BYTES} bytes",
                    )
                )
                conn.drop()
                return
            while b"\n" in buffer:
                line, _, rest = bytes(buffer).partition(b"\n")
                buffer = bytearray(rest)
                if not line.strip():
                    continue
                self._handle_line(conn, line)
        conn.drop()

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = parse_request(line, fallback_id=self._next_auto_id())
        except ProtocolError as exc:
            conn.send(error_frame(exc.request_id, exc.code, str(exc)))
            if exc.code == "oversized":
                conn.drop()
            return
        self.submit(request, conn)

    def _dispatch_loop(self) -> None:
        from ..engine.faults import maybe_conndrop, plan_installed

        with plan_installed(self.faults):
            while True:
                item = self.queue.get()
                if item is _STOP:
                    return
                request, conn = item
                if self.stopped.is_set():
                    # Taken off the queue while stop() was draining it.
                    conn.send(_shutting_down(request))
                    continue
                frame = self.session.dispatch(request, conn.send)
                if maybe_conndrop(request.op):
                    conn.drop()  # chaos: vanish before the terminal frame
                else:
                    conn.send(frame)
                if request.op == "shutdown" and frame.get("type") == "result":
                    self.stop()
                    return
