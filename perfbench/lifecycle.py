"""Process lifecycle: the trained registry, and ``repro serve`` as a subprocess.

Every server gets a fresh copy of the registry trained at the start of
the run, so its event log starts empty and replay never grows set-up
time.  A server runs in its own process group; it is stopped with
SIGINT (the documented Ctrl-C path — SIGTERM leaves forked workers
behind, see NOTES.md), and the run fails if anything in its group is
still alive afterwards.  SIGKILL of the whole group is only a backstop.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time

from wire import Conn, Failed

HERE = os.path.dirname(os.path.abspath(__file__))

#: The serving world: small enough that a server regenerates it in well
#: under a second, large enough for ~70 cascades and 120 users.
SERVE_WORLD = ["--scale", "0.01", "--users", "120", "--hashtags", "5", "--news", "300"]
SERVE_EPOCHS = "2"


def child_env(root: str, **extra: str) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("REPRO_NUM_WORKERS", None)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONUNBUFFERED="1",
        # String hashing decides set/dict iteration order of tokens; pin
        # it so two runs of one seed do identical work.
        PYTHONHASHSEED="0",
        # OpenBLAS's default busy-waiting thread per core fights the
        # program's own processes for two cores: training the serving
        # bundle took 2.9-4.5 s with it and 2.9-3.3 s without.
        OPENBLAS_NUM_THREADS="1",
    )
    env.update(extra)
    return env


def tail(path: str, size: int = 2000) -> str:
    """The end of a log file, for error messages (work files are removed)."""
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - size))
        return fh.read().decode("utf-8", "replace")


def train_registry(root: str, dest: str, log_path: str) -> float:
    """Train the serving bundle through the CLI into ``dest``; wall seconds."""
    cmd = [sys.executable, "-m", "repro", "train-retina", *SERVE_WORLD,
           "--epochs", SERVE_EPOCHS, "--save", dest, "--name", "retina"]
    t0 = time.perf_counter()
    with open(log_path, "ab") as log:
        # One process: a fork pool over ~70 cascades costs more than it
        # saves and adds its start-up jitter to train_s.
        proc = subprocess.run(cmd, cwd=root, env=child_env(root, REPRO_NUM_WORKERS="1"),
                              stdout=log,
                              stderr=subprocess.STDOUT, timeout=150)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"train-retina failed (exit {proc.returncode}):\n{tail(log_path)}")
    return elapsed


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(name))
    return out


def survivors(pgid: int, grace: float = 3.0) -> list[int]:
    """Members of group ``pgid`` still alive after ``grace`` seconds.

    The grace lets helpers that exit on their own when their parent goes,
    such as multiprocessing's resource tracker, finish exiting.
    """
    deadline = time.perf_counter() + grace
    while (alive := group_members(pgid)) and time.perf_counter() < deadline:
        time.sleep(0.02)
    return alive


class Server:
    """One ``repro serve`` process on a fresh registry copy."""

    def __init__(self, root: str, base_registry: str, workdir: str, *,
                 spans_path: str | None = None):
        self.registry = os.path.join(workdir, "registry")
        shutil.copytree(base_registry, self.registry)
        self.log_path = os.path.join(workdir, "server.log")
        serve_args = ["serve", "--store", self.registry, "--port", "0", "--quiet"]
        extra = {"REPRO_NUM_WORKERS": "1"}
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), *serve_args]
            extra["PERFBENCH_SPANS"] = spans_path
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=child_env(root, **extra), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Port from the ``serving on`` line, then the first healthz 200."""
        deadline = self.started + timeout
        line = b""
        fd = self.proc.stdout.fileno()
        while b"serving on http://" not in line:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server did not start:\n{tail(self.log_path)}")
            ready, _, _ = select.select([fd], [], [], 0.05)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited:\n{tail(self.log_path)}")
                line += chunk
        addr = line.split(b"serving on http://", 1)[1].split()[0].decode()
        self.port = int(addr.rsplit(":", 1)[1])
        conn = Conn(self.port, timeout=5.0)
        try:
            while True:
                try:
                    conn.get_json("/v1/healthz")
                    break
                except Failed:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.002)
        finally:
            conn.close()
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGINT, wait, count survivors in the group, then kill as backstop."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
            leaked = survivors(self.pgid)
            if leaked:
                try:
                    os.killpg(self.pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.proc.wait(timeout=30)
                survivors(self.pgid, grace=10.0)
        finally:
            self.proc.stdout.close()
            self._log.close()
        return len(leaked)
