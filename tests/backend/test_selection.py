"""Backend selection and resolution precedence tests.

Precedence: explicit argument > the calling thread's ``using_backend`` scope
(the CLI ``--backend``) > the process default (``set_default_backend``) >
``$REPRO_BACKEND`` > ``numpy64``.
"""

from __future__ import annotations

import threading

import pytest

from repro.backend import (
    Backend,
    active_backend,
    backend_names,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
    using_backend,
)


@pytest.fixture(autouse=True)
def _clean_default():
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(backend_names()) >= {"numpy64", "numpy32", "threaded", "compiled"}

    def test_instances_are_memoized(self):
        assert get_backend("numpy64") is get_backend("numpy64")

    def test_unknown_backend_message_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "unknown execution backend 'cuda'" in message
        for name in ("numpy64", "numpy32", "threaded"):
            assert name in message
        assert "REPRO_BACKEND" in message


class TestPrecedence:
    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy64"
        assert active_backend().name == "numpy64"

    def test_env_overrides_builtin_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        assert active_backend().name == "numpy32"

    def test_process_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        set_default_backend("threaded")
        assert active_backend().name == "threaded"

    def test_using_backend_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        with using_backend("numpy64"):
            assert active_backend().name == "numpy64"
            with using_backend("threaded"):  # nested scopes stack
                assert active_backend().name == "threaded"
            assert active_backend().name == "numpy64"
        assert active_backend().name == "numpy32"

    def test_using_backend_none_keeps_surrounding_default(self):
        with using_backend("numpy32"):
            with using_backend(None):
                assert active_backend().name == "numpy32"

    def test_unknown_env_backend_fails_on_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "not_a_backend")
        with pytest.raises(ValueError, match="not_a_backend"):
            active_backend()

    def test_set_default_validates_eagerly(self):
        with pytest.raises(ValueError):
            set_default_backend("bogus")

    def test_set_default_inside_open_scope_survives_scope_exit(self, monkeypatch):
        """set_default_backend neither breaks nor is reverted by an open scope."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with using_backend("numpy32"):
            set_default_backend("threaded")
            assert active_backend().name == "numpy32"  # scope still wins inside
        assert active_backend().name == "threaded"  # process default survives

    def test_out_of_order_scope_exits_do_not_corrupt(self):
        """Scopes exited out of push order each remove only their own entry."""
        outer = using_backend("numpy32")
        inner = using_backend("threaded")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # exit outer first
        assert active_backend().name == "threaded"  # inner scope intact
        inner.__exit__(None, None, None)

    def test_using_backend_restores_after_exception(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(RuntimeError):
            with using_backend("numpy32"):
                raise RuntimeError("boom")
        assert active_backend().name == "numpy64"


class TestThreadScopes:
    def test_concurrent_threads_hold_their_own_scopes(self):
        """Two threads with scopes naming different backends open at once each
        resolve to their own — neither scope leaks into the other thread."""
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def hold(name):
            with using_backend(name):
                barrier.wait()  # both scopes are open now
                seen[name] = active_backend().name
                barrier.wait()  # neither closes before both have looked

        threads = [threading.Thread(target=hold, args=(name,)) for name in ("numpy32", "threaded")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"numpy32": "numpy32", "threaded": "threaded"}

    def test_thread_started_inside_a_scope_sees_no_scope(self, monkeypatch):
        """A new thread resolves through the process default, not the scope
        open in the thread that started it."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        seen = []

        def look():
            seen.append(active_backend().name)

        with using_backend("numpy32"):
            thread = threading.Thread(target=look)
            thread.start()
            thread.join()
            set_default_backend("threaded")
            thread = threading.Thread(target=look)
            thread.start()
            thread.join()
            assert active_backend().name == "numpy32"
        assert seen == ["numpy64", "threaded"]


class TestResolve:
    def test_resolves_none_to_active(self):
        with using_backend("numpy32"):
            assert resolve_backend(None).name == "numpy32"

    def test_resolves_name(self):
        assert resolve_backend("threaded").name == "threaded"

    def test_passes_instances_through(self):
        instance = Backend()
        assert resolve_backend(instance) is instance

    def test_using_backend_honors_passed_instance(self):
        """A configured instance — registered-name or custom — scopes as itself."""
        from repro.backend import NumpyBackend, ThreadedBackend
        from repro.backend.core import FLOAT64_POLICY

        configured = ThreadedBackend(max_workers=2)
        with using_backend(configured) as scoped:
            assert scoped is configured
            assert active_backend() is configured
            assert active_backend().max_workers == 2
        custom = NumpyBackend("custom64", FLOAT64_POLICY)  # never registered
        with using_backend(custom):
            assert active_backend() is custom


class TestPolicyRegistry:
    def test_salt_tokens_do_not_instantiate_backends(self, monkeypatch):
        """Store ls/gc must survive a broken $REPRO_BACKEND_THREADS.

        Salt tokens are read from the declared policies, so querying them
        (as valid_salts() does) never constructs the threaded backend.
        """
        from repro.backend import registered_salt_tokens
        from repro.backend.core import _INSTANCES

        monkeypatch.setenv("REPRO_BACKEND_THREADS", "0")
        monkeypatch.delitem(_INSTANCES, "threaded", raising=False)
        assert set(registered_salt_tokens()) == {"", "float32", "compiled"}
        assert "threaded" not in _INSTANCES

    def test_compiled_salt_known_without_numba(self, without_numba):
        """Store staleness must count 'compiled' valid even when numba is absent.

        The compiled backend's salt token comes from its declared policy, so
        gc on a host without the extra never treats compiled-salted artifacts
        (written elsewhere, e.g. on a shared NFS store) as stale garbage.
        """
        from repro.backend import registered_salt_tokens

        assert "compiled" in registered_salt_tokens()
