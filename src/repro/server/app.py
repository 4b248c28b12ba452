"""The service's HTTP front-end: a stdlib ``ThreadingHTTPServer`` over the core.

Each request, whatever its method, runs on its own thread and is handed to
:meth:`repro.server.core.ServerCore.handle`; the handler passes response
bytes through untouched (a ``HEAD`` answer keeps the status and headers and
drops the body), so it can never perturb the byte-identity contract of
``GET /jobs/{id}/report``.  It reads exactly the body the client
declared: a ``Transfer-Encoding`` body is refused with 411, a
``Content-Length`` that is not a non-negative decimal integer with 400, and
one past :data:`~repro.server.core.MAX_BODY_BYTES` with 413, each before
any of the body is read.  The server needs nothing beyond the standard
library, so ``pip install .`` runs the service and the socket-level e2e
battery runs offline.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from ..store import ExperimentStore
from .config import ServerConfig
from .core import MAX_BODY_BYTES, ServerCore, _error

__all__ = [
    "create_core",
    "StdlibServer",
    "start_stdlib_server",
    "serve",
]


def create_core(
    config: Optional[ServerConfig] = None,
    store: Optional[ExperimentStore] = None,
) -> ServerCore:
    """Build the service core from a config (environment-driven by default).

    Without a configured store root an ephemeral directory backs the
    service for its lifetime — dedup then only spans this process.
    """
    config = config or ServerConfig.from_env()
    if store is None:
        root = config.store_root or tempfile.mkdtemp(prefix="repro-server-")
        store = ExperimentStore(root)
    return ServerCore(store, config)


class _CoreHTTPHandler(BaseHTTPRequestHandler):
    """Stdlib request handler delegating to the shared :class:`ServerCore`."""

    server_version = "repro-server/1.0"
    core: ServerCore  # set on the handler subclass by StdlibServer

    def _respond(self) -> None:
        length = self.headers.get("Content-Length", "0").strip(" \t")
        if "Transfer-Encoding" in self.headers:
            response = _error(411, "send the request body with a Content-Length header")
        elif not (length.isascii() and length.isdigit()):
            response = _error(400, f"Content-Length must be a non-negative integer, got {length!r}")
        # Digits are counted first: int() refuses strings of over 4300 digits.
        elif len(length.lstrip("0")) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
            response = _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        else:
            response = self.core.handle(
                self.command,
                self.path.split("?", 1)[0],
                self.rfile.read(int(length)),
                self.client_address[0],
            )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(response.body)

    # Every method reaches the core, which answers one it does not route
    # with a JSON 404; HEAD gets that answer's status and headers alone.
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_OPTIONS = do_HEAD = _respond

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the CLI surface prints its own startup line.
        pass


class StdlibServer:
    """A threading HTTP server around one core, start/stoppable for tests."""

    def __init__(self, core: ServerCore, host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type("BoundHandler", (_CoreHTTPHandler,), {"core": core})
        self.core = core
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "StdlibServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.core.queue.close(wait=False)

    def serve_forever(self) -> None:
        self.httpd.serve_forever()


def start_stdlib_server(
    core: ServerCore, host: str = "127.0.0.1", port: int = 0
) -> StdlibServer:
    """Start the dependency-free server in a background thread (tests, dev)."""
    return StdlibServer(core, host, port).start()


def serve(
    config: Optional[ServerConfig] = None,
    store: Optional[ExperimentStore] = None,
) -> None:
    """Run the service in the foreground until interrupted.

    The ephemeral store ``create_core`` makes when neither ``store`` nor a
    configured store root is given is removed when the service returns.
    """
    config = config or ServerConfig.from_env()
    core = create_core(config, store)
    try:
        server = StdlibServer(core, config.host, config.port)
        host, port = server.address
        print(f"repro server on http://{host}:{port} — store {core.store.root}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            server.stop()
    finally:
        if store is None and config.store_root is None:
            shutil.rmtree(core.store.root, ignore_errors=True)
