"""Environment-driven service configuration: ``ServerConfig.from_env``."""

from __future__ import annotations

import pytest

from repro.server import ServerConfig


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
