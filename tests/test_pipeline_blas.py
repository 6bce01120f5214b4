"""Tests for the engine's single-threaded BLAS scope."""

import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro.pipeline import blas
from repro.pipeline.blas import blas_controls, single_threaded_blas


class FakeBlas:
    """A stand-in thread-count control, usable without OpenBLAS."""

    def __init__(self, threads=4):
        self.threads = threads

    def set(self, threads):
        self.threads = threads

    def get(self):
        return self.threads


@pytest.fixture
def fake(monkeypatch):
    fake = FakeBlas()
    monkeypatch.setattr(blas, "blas_controls", lambda: ((fake.set, fake.get),))
    return fake


@pytest.fixture
def real_blas():
    controls = blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    setter, getter = controls[0]
    before = getter()
    yield getter
    setter(before)


def _wait_child(pid, timeout=10.0):
    """Exit status of a forked child, killing it past the timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("forked child did not finish")


def test_real_blas_is_single_threaded_inside_scope(real_blas):
    before = real_blas()
    with single_threaded_blas():
        assert real_blas() == 1
    assert real_blas() == before


def test_numpy_openblas_has_a_resolved_setter():
    # A symbol rename in a numpy release must not silently turn the scope
    # into a no-op.
    config = np.show_config(mode="dicts")
    name = config["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip(f"numpy is built against {name}, not OpenBLAS")
    assert blas_controls(), f"numpy reports {name} but no setter resolved"


def test_scope_restores_previous_count(fake):
    with single_threaded_blas():
        assert fake.threads == 1
    assert fake.threads == 4
    with pytest.raises(RuntimeError):
        with single_threaded_blas():
            assert fake.threads == 1
            raise RuntimeError("decode failed")
    assert fake.threads == 4


def test_nested_scopes_restore_on_outermost_exit(fake):
    with single_threaded_blas():
        with single_threaded_blas():
            assert fake.threads == 1
        assert fake.threads == 1
    assert fake.threads == 4


def test_concurrent_scopes_restore_when_last_exits(fake):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with single_threaded_blas():
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=hold)
    thread.start()
    assert entered.wait(timeout=10)
    with single_threaded_blas():
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert fake.threads == 1
    assert fake.threads == 4


def _fork_quietly():
    with warnings.catch_warnings():
        # Python 3.12+ warns about fork() in a multi-threaded process.
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def test_child_forked_inside_scope_can_use_it(fake):
    held, release = threading.Event(), threading.Event()

    def hold_lock():
        with blas._lock:
            held.set()
            release.wait(timeout=10)

    with single_threaded_blas():
        # Fork while another thread holds the lock: in the child that
        # thread is gone, so an inherited lock would never be released.
        thread = threading.Thread(target=hold_lock)
        thread.start()
        assert held.wait(timeout=10)
        pid = _fork_quietly()
        if pid == 0:
            code = 1
            try:
                with single_threaded_blas():
                    ok = fake.threads == 1
                code = 0 if ok and fake.threads == 1 else 2
            finally:
                os._exit(code)
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert _wait_child(pid) == 0
        assert fake.threads == 1
    assert fake.threads == 4


def test_child_forked_by_other_thread_restores_count(fake):
    """Only the forking thread survives, and it was outside the scope."""
    pids = []

    def fork_child():
        pid = _fork_quietly()
        if pid == 0:
            code = 1
            try:
                restored = fake.threads == 4
                with single_threaded_blas():
                    limited = fake.threads == 1
                code = 0 if restored and limited and fake.threads == 4 else 2
            finally:
                os._exit(code)
        pids.append(pid)

    with single_threaded_blas():
        thread = threading.Thread(target=fork_child)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert _wait_child(pids[0]) == 0
        assert fake.threads == 1
    assert fake.threads == 4


def test_scope_is_noop_without_openblas(monkeypatch):
    getters = [getter for _, getter in blas_controls()]
    before = [getter() for getter in getters]
    monkeypatch.setattr(blas, "_loaded_openblas", lambda: [])
    blas_controls.cache_clear()
    try:
        assert blas_controls() == ()
        with single_threaded_blas():
            assert blas._depth == 0
            assert [getter() for getter in getters] == before
    finally:
        blas_controls.cache_clear()
