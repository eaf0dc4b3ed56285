"""Verification-as-a-service: the resident ``repro serve`` daemon.

One-shot ``repro verify`` pays process startup, registry import and
pre-pass warm-up on every run; the serve subsystem keeps all of that
resident and answers versioned, line-delimited JSON requests over a
Unix socket, with streamed progress events and the repo-wide 0/1/2/3
exit contract embedded in every response.

Layering (each module's docstring is its spec):

* :mod:`repro.serve.protocol` — the wire format: versioned NDJSON
  frames, the op table, size caps, error codes;
* :mod:`repro.serve.session` — the resident state (registry, static
  pre-pass, fingerprints, obligation cache) and the per-op dispatch;
* :mod:`repro.serve.reload` — disk/memory reconciliation: hot-reload
  of edited case studies, the ``stale_framework`` soundness latch;
* :mod:`repro.serve.server` — transport and lifecycle: connection
  readers, the serializing session queue and its one entry
  (``DaemonServer.submit``), stale-socket claim, SIGHUP;
* :mod:`repro.serve.watcher` — ``repro watch``: poll, fingerprint
  diff, incremental re-verify, delta report;
* :mod:`repro.serve.client` — ``repro client``: one-shot RPC.

See docs/SERVING.md for the protocol spec and operational guidance.
"""

from .client import ClientError, call
from .protocol import MAX_REQUEST_BYTES, OPS, PROTOCOL_VERSION, ProtocolError
from .server import DaemonServer, ServeError, claim_socket_path, default_socket_path
from .session import Session
from .watcher import Watcher

__all__ = [
    "ClientError",
    "DaemonServer",
    "MAX_REQUEST_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeError",
    "Session",
    "Watcher",
    "call",
    "claim_socket_path",
    "default_socket_path",
]
