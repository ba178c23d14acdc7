import contextlib
import os
import sys
import threading

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines even when capture hides stdout."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def fed_fifo(path, data: bytes):
    """A FIFO at ``path`` that a thread fills with ``data`` once it is opened."""

    def feed():
        with open(path, "wb") as f:
            f.write(data)

    os.mkfifo(path)
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield path
    finally:
        writer.join()


def smooth_field(rng, shape, passes=3, scale=1.0, offset=0.0):
    """Random field pushed through a few box-blur passes so derivative
    stencils see smooth, non-degenerate structure."""
    u = rng.normal(0.0, 1.0, shape)
    for _ in range(passes):
        p = np.pad(u, 1, mode="edge")
        u = (
            p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] + 4.0 * p[1:-1, 1:-1]
        ) / 8.0
    return offset + scale * u
