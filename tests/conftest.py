"""Checks that every test in this directory gets."""

import threading
import time

import pytest

# how long a test's leftover threads get to finish before the test fails
THREAD_GRACE_S = 1.0


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that leaves alive a thread that was not alive before it.

    Each new thread gets a join within the grace; one still alive after it
    is a thread the test (or the code under test) never stopped.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    new = [thread for thread in threading.enumerate() if thread not in before]
    for thread in new:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(thread.name for thread in new if thread.is_alive())
    if alive:
        pytest.fail(f"test left threads alive: {alive}")
