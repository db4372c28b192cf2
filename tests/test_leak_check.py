"""The ``-X dev`` leak check of ``tests/conftest.py`` fails a session that leaks.

A socket left open in a reference cycle is freed by the garbage collector
only; the ResourceWarning it raises then cannot fail a test.  The suite's
``pytest_sessionfinish`` hook collects and fails the run instead.  This
runs pytest under ``-X dev`` with that hook on a file that leaks one
socket, and on one that closes it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

LEAKY = """
import gc
import socket


def test_leaks_a_socket_in_a_cycle():
    gc.disable()  # only the session's final collection frees the cycle
    sock = socket.socket()
    holder = [sock]
    holder.append(holder)
"""

CLEAN = """
import socket


def test_closes_its_socket():
    with socket.socket() as sock:
        assert sock.fileno() >= 0
"""


def run_dev_session(tmp_path, source):
    path = tmp_path / "test_subject.py"
    path.write_text(source)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(SRC)]))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("source, leaks", [(LEAKY, True), (CLEAN, False)])
def test_a_leaked_socket_fails_a_dev_mode_session(tmp_path, source, leaks):
    result = run_dev_session(tmp_path, source)
    assert "1 passed" in result.stdout, result.stdout + result.stderr
    assert (result.returncode != 0) == leaks, result.stdout + result.stderr
    assert ("leaked resource" in result.stderr) == leaks
