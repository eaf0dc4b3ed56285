"""``repro client`` — one-shot RPC against a running daemon.

The programmatic surface is :func:`call` (connect, send one request,
collect the frame stream until the terminal frame) and the CLI driver
:func:`run_client`, which maps the response onto the repo-wide exit
contract:

* ``result`` frame → its embedded ``exit_code`` (0 clean, 1 findings,
  3 infrastructure);
* ``error`` frame → 2 for usage-class codes (unknown op, unknown
  program, malformed), 3 for infrastructure-class (framework-changed,
  internal);
* cannot connect / daemon vanished mid-response → 3 (infrastructure —
  the question was never answered).

This doubles as the CI smoke vehicle: ``repro client --op status
--format json`` is the canonical "is the daemon healthy" probe.
"""

from __future__ import annotations

import json
import os
import socket
import uuid
from typing import Any, Callable, Iterator

from .protocol import MAX_REQUEST_BYTES, PROTOCOL_VERSION, encode
from .server import default_socket_path


class ClientError(Exception):
    """Transport-level failure: no daemon, or it vanished mid-response.
    Infrastructure-class — the CLI maps it to exit 3."""


def _frames(sock: socket.socket) -> Iterator[dict[str, Any]]:
    """Decode the daemon's newline-delimited frame stream."""
    buffer = bytearray()
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError as exc:
            raise ClientError(f"connection lost: {exc}") from exc
        if not chunk:
            return
        buffer.extend(chunk)
        while b"\n" in buffer:
            line, _, rest = bytes(buffer).partition(b"\n")
            buffer = bytearray(rest)
            if line.strip():
                yield json.loads(line)


def call(
    op: str,
    params: dict[str, Any] | None = None,
    *,
    socket_path: str | None = None,
    timeout: float | None = 600.0,
    on_event: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Send one request; return its terminal frame (``result`` or
    ``error``).  ``on_event`` sees every non-terminal frame (ack,
    progress) as it streams in.  Raises :class:`ClientError` when no
    daemon answers or the stream ends without a terminal frame."""
    path = str(socket_path) if socket_path else str(default_socket_path())
    request_id = f"cli-{uuid.uuid4().hex[:8]}"
    frame = {
        "v": PROTOCOL_VERSION,
        "op": op,
        "id": request_id,
        "params": params or {},
    }
    payload = encode(frame)
    if len(payload) > MAX_REQUEST_BYTES:
        raise ClientError(
            f"request would exceed the protocol cap ({MAX_REQUEST_BYTES} bytes)"
        )
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        try:
            sock.connect(path)
        except OSError as exc:
            raise ClientError(
                f"cannot connect to daemon at {path}: {exc} "
                "(is `repro serve` running?)"
            ) from exc
        try:
            sock.sendall(payload)
        except OSError as exc:
            raise ClientError(f"cannot send request: {exc}") from exc
        for received in _frames(sock):
            # Frames for other ids cannot appear (one connection, one
            # request) but tolerate them rather than mis-terminating.
            if received.get("id") not in (request_id, None):
                continue
            if received.get("type") in ("result", "error"):
                return received
            if on_event is not None:
                on_event(received)
    finally:
        sock.close()
    raise ClientError(
        "daemon closed the connection before answering "
        "(crashed, shut down, or injected conndrop)"
    )


def exit_code_of(frame: dict[str, Any]) -> int:
    """The terminal frame's exit code under the shared CLI contract."""
    code = frame.get("exit_code")
    return int(code) if isinstance(code, int) else 3


def run_client(args: Any) -> int:
    """The ``repro client`` subcommand body."""
    import sys

    params: dict[str, Any] = {}
    if getattr(args, "program", None):
        params["programs"] = list(args.program)
    if getattr(args, "params", None):
        try:
            extra = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"repro-client: --params is not JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(extra, dict):
            print("repro-client: --params must be a JSON object", file=sys.stderr)
            return 2
        params.update(extra)

    events: list[dict[str, Any]] = []

    def on_event(frame: dict[str, Any]) -> None:
        events.append(frame)
        if args.format == "text" and frame.get("type") == "progress":
            unit = frame.get("unit", "?")
            if frame.get("event") == "unit":
                print(
                    f"repro-client: {unit}: {frame.get('status')} "
                    f"({frame.get('seconds', 0)}s)",
                    file=sys.stderr,
                )

    try:
        final = call(
            args.op,
            params,
            socket_path=args.socket,
            timeout=args.timeout,
            on_event=on_event,
        )
    except ClientError as exc:
        print(f"repro-client: {exc}", file=sys.stderr)
        return 3
    if args.format != "json" and final.get("type") == "error":
        print(
            f"repro-client: {final.get('code')}: {final.get('message')}",
            file=sys.stderr,
        )
        return exit_code_of(final)
    shown = final if args.format == "json" else final.get("payload", {})
    try:
        print(json.dumps(shown, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``).  The verdict stands;
        # stdout now goes to devnull so the exit-time flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code_of(final)
