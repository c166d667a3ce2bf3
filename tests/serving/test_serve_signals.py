"""``repro serve`` as a process: SIGTERM and SIGINT both stop it cleanly.

Each server runs in its own session (so its process group is its own);
after the signal it must exit 0 and leave no process of that group alive.
"""

import os
import select
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Re-exec ``python -m repro`` with SIGINT ignored, as a background job of
#: a non-interactive shell starts it (an ignored signal survives exec).
_SIGINT_IGNORED = (
    "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "os.execv(sys.executable, [sys.executable, '-m', 'repro', *sys.argv[1:]])"
)


@pytest.fixture()
def store(registry, tmp_path):
    """A private copy of the session registry (serving appends to its log)."""
    dest = tmp_path / "registry"
    shutil.copytree(registry.root, dest)
    return str(dest)


def _start(store, *, ignore_sigint=False):
    serve = ["serve", "--store", store, "--port", "0", "--quiet"]
    if ignore_sigint:
        cmd = [sys.executable, "-c", _SIGINT_IGNORED, *serve]
    else:
        cmd = [sys.executable, "-m", "repro", *serve]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    out = b""
    deadline = time.monotonic() + 120
    while b"serving on http://" not in out:
        if time.monotonic() > deadline or proc.poll() is not None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            pytest.fail(f"server did not start:\n{out.decode(errors='replace')}")
        if select.select([proc.stdout], [], [], 0.1)[0]:
            out += os.read(proc.stdout.fileno(), 4096)
    return proc


def _group_alive(pgid: int, grace: float = 5.0) -> bool:
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        time.sleep(0.05)
    return True


def _stop(proc, signum) -> int | None:
    """Signal the server; its exit code (None if it did not exit)."""
    pgid = proc.pid
    try:
        proc.send_signal(signum)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        leaked = _group_alive(pgid)
    finally:
        # Backstop, so a failing run leaves nothing behind either.
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
        proc.stdout.close()
    assert not leaked, "a process of the server's group survived"
    return code


def test_sigterm_stops_gracefully(store):
    proc = _start(store)
    assert _stop(proc, signal.SIGTERM) == 0


def test_sigint_stops_when_started_with_sigint_ignored(store):
    proc = _start(store, ignore_sigint=True)
    assert _stop(proc, signal.SIGINT) == 0
