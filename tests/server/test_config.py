"""Environment-driven service configuration: ``ServerConfig.from_env``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import ServerConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestFromEnv:
    def test_environment_port_is_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_PORT", "9000")
        assert ServerConfig.from_env().port == 9000

    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_PORT", "9000")
        assert ServerConfig.from_env(port=9100).port == 9100

    @pytest.mark.parametrize("value", ["99999", "-1"])
    def test_out_of_range_port_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERVER_PORT", value)
        with pytest.raises(ValueError, match=r"\$REPRO_SERVER_PORT must be in \[0, 65535\]"):
            ServerConfig.from_env()

    def test_import_does_not_read_the_lease_ttl(self):
        """Defining ``ServerConfig`` must not resolve ``$REPRO_LEASE_TTL``.

        Regression: a field default called ``resolve_lease_ttl`` when the
        class was defined, so a bad TTL broke ``import repro.server``.
        """
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_LEASE_TTL="-1")
        completed = subprocess.run(
            [sys.executable, "-c", "import repro.server"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
