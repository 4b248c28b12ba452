"""``serve()`` owns only the store it creates: an ephemeral one goes with it."""

from __future__ import annotations

import os
import tempfile
import threading

import pytest

from repro.server import ServerConfig, serve
from repro.server.app import StdlibServer


@pytest.fixture
def created_dirs(monkeypatch):
    """Run ``serve()`` for 0.2 s; record every ``mkdtemp``."""

    def serve_briefly(self):
        # The real loop must run: stop() calls httpd.shutdown(), which waits
        # for serve_forever to exit.
        threading.Timer(0.2, self.httpd.shutdown).start()
        self.httpd.serve_forever()

    monkeypatch.setattr(StdlibServer, "serve_forever", serve_briefly)
    created = []
    real_mkdtemp = tempfile.mkdtemp

    def spy(*args, **kwargs):
        path = real_mkdtemp(*args, **kwargs)
        created.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    return created


def test_ephemeral_store_removed_when_serve_returns(created_dirs):
    serve(ServerConfig(port=0, rate_limit=0))
    assert len(created_dirs) == 1
    assert not os.path.exists(created_dirs[0])


def test_configured_store_survives_serve(created_dirs, tmp_path):
    root = tmp_path / "keep"
    root.mkdir()
    (root / "marker").write_text("kept")
    serve(ServerConfig(port=0, rate_limit=0, store_root=str(root)))
    assert created_dirs == []
    assert (root / "marker").read_text() == "kept"
