"""App factory and servers: FastAPI when installed, stdlib fallback always.

``create_app`` is the FastAPI app factory (the ``repro[server]`` extra
installs fastapi + uvicorn); it binds every route to
:meth:`repro.server.core.ServerCore.handle` and passes response bytes
through untouched, so the framework can never perturb the byte-identity
contract of ``GET /jobs/{id}/report``.

When fastapi is not installed the service still runs: ``serve`` (the CLI's
``repro serve``) falls back to a ``ThreadingHTTPServer`` speaking the same
core — fewer deployment conveniences, identical endpoint semantics.  The
test battery drives this fallback over real sockets, which is what lets the
e2e suite run in dependency-free environments.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from ..store import ExperimentStore
from .config import ServerConfig
from .core import MAX_BODY_BYTES, ServerCore

__all__ = [
    "create_core",
    "create_app",
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


def create_app(
    config: Optional[ServerConfig] = None,
    store: Optional[ExperimentStore] = None,
    core: Optional[ServerCore] = None,
) -> Any:
    """FastAPI app factory (requires the ``repro[server]`` extra)."""
    try:
        from fastapi import FastAPI, Request
        from fastapi.responses import Response as FastAPIResponse
    except ImportError as error:  # pragma: no cover - exercised without fastapi
        raise RuntimeError(
            "the FastAPI app requires the optional server dependencies; "
            "install them with `pip install repro[server]` (fastapi + uvicorn), "
            "or use `repro serve`, which falls back to the stdlib HTTP server"
        ) from error

    core = core or create_core(config, store)
    app = FastAPI(
        title="repro experiment service",
        description="Deduplicated paper-reproduction sweeps over the "
        "content-addressed experiment store.",
    )
    app.state.core = core

    async def _delegate(request: Request) -> FastAPIResponse:
        body = await request.body()
        client = request.client.host if request.client else "-"
        result = core.handle(request.method, request.url.path, body, client)
        return FastAPIResponse(
            content=result.body,
            status_code=result.status,
            media_type=result.content_type,
            headers=result.headers,
        )

    for route, methods in (
        ("/healthz", ["GET"]),
        ("/workers", ["GET"]),
        ("/sweeps", ["POST"]),
        ("/jobs/{job_id}", ["GET"]),
        ("/jobs/{job_id}/report", ["GET"]),
        ("/artifacts", ["GET"]),
        ("/artifacts/{rest:path}", ["GET"]),
    ):
        app.add_api_route(route, _delegate, methods=methods)
    return app


class _CoreHTTPHandler(BaseHTTPRequestHandler):
    """Stdlib request handler delegating to the shared :class:`ServerCore`."""

    server_version = "repro-server/1.0"
    core: ServerCore  # set on the handler subclass by StdlibServer

    def _respond(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            body = json.dumps({"error": "request body too large"}).encode("utf-8")
            self.send_response(413)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        payload = self.rfile.read(length) if length else b""
        response = self.core.handle(
            self.command, self.path.split("?", 1)[0], payload, self.client_address[0]
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    do_GET = _respond
    do_POST = _respond

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
    """Run the service in the foreground: uvicorn when available, else stdlib.

    The ephemeral store ``create_core`` makes when neither ``store`` nor a
    configured store root is given is removed when the service returns.
    """
    config = config or ServerConfig.from_env()
    core = create_core(config, store)
    try:
        _serve_core(core, config)
    finally:
        if store is None and config.store_root is None:
            shutil.rmtree(core.store.root, ignore_errors=True)


def _serve_core(core: ServerCore, config: ServerConfig) -> None:
    try:
        import uvicorn

        app = create_app(core=core)
    except (ImportError, RuntimeError):
        server = StdlibServer(core, config.host, config.port)
        host, port = server.address
        print(
            f"repro server (stdlib fallback) on http://{host}:{port} "
            f"— store {core.store.root}"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            server.stop()
        return
    print(f"repro server (uvicorn) on http://{config.host}:{config.port}")
    uvicorn.run(app, host=config.host, port=config.port, log_level="info")
