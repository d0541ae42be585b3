"""The socket front-end: threaded TCP/unix daemon plus a line client.

:class:`ServeDaemon` wraps an in-process :class:`~repro.serve.Server` in a
``socketserver`` threading stream server (TCP on ``host:port`` or a
unix-domain socket). One OS thread per connection reads line-delimited
JSON requests (:mod:`repro.serve.protocol`) and writes one response line
per request; all policy — admission, shedding, sessions, draining — lives
in the :class:`~repro.serve.Server` behind it, so the daemon layer stays a
thin transport.

Connection failures are contained per connection; malformed lines are
answered with ``bad_request`` rather than dropping the stream. A
successful ``shutdown`` request drains the server and then stops the
listener from a side thread (so the shutdown response itself still gets
written).

:class:`ServeClient` is the matching blocking client used by the CLI, the
tests, and ``benchmarks/e2e``: ``call`` returns the raw response
object, ``require`` raises :class:`ServeError` (carrying the protocol
error code) on ``ok: false``.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading

from repro.serve import protocol
from repro.serve.server import Server

__all__ = ["ServeDaemon", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A protocol-level failure response, surfaced client-side.

    ``code`` is the machine-readable :data:`~repro.serve.protocol.ERROR_CODES`
    entry from the response (e.g. ``rejected_overload``).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of decode -> Server.handle -> encode."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: Server = self.server.repro_server
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            shutdown = False
            try:
                msg = protocol.decode(line)
            except (ValueError, json.JSONDecodeError) as exc:
                resp = protocol.error_response(None, "bad_request", str(exc))
            else:
                resp = server.handle(msg)
                shutdown = msg.get("op") == "shutdown" and resp.get("ok", False)
            try:
                self.wfile.write(protocol.encode(resp).encode("utf-8"))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                return
            if shutdown:
                self.server.repro_daemon.stop_listening_async()
                return


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _ThreadingUnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True

else:  # pragma: no cover - non-unix platforms
    _ThreadingUnixServer = None


class ServeDaemon:
    """The listening front-end of one :class:`~repro.serve.Server`.

    Parameters
    ----------
    server:
        The in-process server holding all serving state and policy.
    host, port:
        TCP endpoint (``port=0`` picks a free port — the test default).
        Ignored when *unix_path* is given.
    unix_path:
        Path for a unix-domain socket; a stale socket file is unlinked
        first.
    """

    def __init__(
        self,
        server: Server,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
    ) -> None:
        self.server = server
        self.unix_path = unix_path
        if unix_path is not None:
            if _ThreadingUnixServer is None:  # pragma: no cover
                raise RuntimeError("unix sockets unavailable on this platform")
            if os.path.exists(unix_path):
                os.unlink(unix_path)
            self._sock = _ThreadingUnixServer(unix_path, _Handler)
        else:
            self._sock = _ThreadingTCPServer((host, port), _Handler)
        self._sock.repro_server = server
        self._sock.repro_daemon = self
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._closed = threading.Event()

    @property
    def address(self):
        """Where clients connect: ``(host, port)`` or the unix path."""
        if self.unix_path is not None:
            return self.unix_path
        return self._sock.server_address

    def start(self) -> "ServeDaemon":
        """Serve connections on a background thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._sock.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-daemon",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI mode)."""
        self._sock.serve_forever(poll_interval=0.05)

    def stop_listening_async(self) -> None:
        """Stop accepting from a side thread (safe inside a handler)."""
        threading.Thread(target=self._stop_listening, daemon=True).start()

    def _stop_listening(self) -> None:
        if self._stopped.is_set():
            self._closed.wait()
            return
        self._stopped.set()
        self._sock.shutdown()
        self._sock.server_close()
        if self.unix_path is not None and os.path.exists(self.unix_path):
            os.unlink(self.unix_path)
        self._closed.set()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until the listening socket is actually closed.

        ``serve_forever`` can return before the side thread reaches
        ``server_close`` — callers that need the port released (tests,
        restart-in-place) wait on this instead of joining the serve
        thread.
        """
        return self._closed.wait(timeout)

    def stop(self, drain_timeout: float | None = 30.0) -> bool:
        """Drain the server, then stop listening. Returns drain cleanness."""
        clean = True
        if not self.server.closed:
            clean = self.server.drain(timeout=drain_timeout)
        self._stop_listening()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return clean

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class ServeClient:
    """A blocking line-protocol client.

    *address* is a ``(host, port)`` tuple (TCP) or a string (unix socket
    path) — exactly what :attr:`ServeDaemon.address` reports. One request
    is in flight at a time per client (calls are serialised by a lock);
    open several clients for concurrency.
    """

    def __init__(self, address, *, timeout: float | None = 60.0) -> None:
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            address = tuple(address)
        self._sock.settimeout(timeout)
        self._sock.connect(address)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._next_id = 0

    def call(self, op: str, **fields) -> dict:
        """Send one request, wait for its response object."""
        with self._lock:
            self._next_id += 1
            msg = dict(fields, op=op, id=self._next_id)
            self._file.write(protocol.encode(msg).encode("utf-8"))
            self._file.flush()
            raw = self._file.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            return protocol.decode(raw.decode("utf-8"))

    def require(self, op: str, **fields) -> dict:
        """Like :meth:`call` but raises :class:`ServeError` on failure."""
        resp = self.call(op, **fields)
        if not resp.get("ok", False):
            err = resp.get("error", {})
            raise ServeError(
                err.get("code", "internal"), err.get("message", "unknown error")
            )
        return resp

    # Thin op wrappers used by tests, the CLI, and the bench.
    def ping(self) -> dict:
        return self.require("ping")

    def prepare(self, name: str, query: str, **fields) -> dict:
        return self.require("prepare", name=name, query=query, **fields)

    def query(self, prepared: str | None = None, **fields) -> dict:
        if prepared is not None:
            fields["prepared"] = prepared
        return self.require("query", **fields)

    def begin(self, session: str | None = None) -> dict:
        fields = {} if session is None else {"session": session}
        return self.require("begin", **fields)

    def insert(self, session: str, relation: str, row, p: float) -> dict:
        return self.require(
            "insert", session=session, relation=relation, row=list(row), p=p
        )

    def set_prob(self, session: str, relation: str, row, p: float) -> dict:
        return self.require(
            "set_prob", session=session, relation=relation, row=list(row), p=p
        )

    def delete(self, session: str, relation: str, row) -> dict:
        return self.require(
            "delete", session=session, relation=relation, row=list(row)
        )

    def commit(self, session: str) -> dict:
        return self.require("commit", session=session)

    def rollback(self, session: str) -> dict:
        return self.require("rollback", session=session)

    def stats(self) -> dict:
        return self.require("stats")

    def shutdown(self, timeout: float = 30.0) -> dict:
        return self.require("shutdown", timeout=timeout)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
