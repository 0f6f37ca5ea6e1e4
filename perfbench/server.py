"""Spawn, probe and stop ``python -m repro serve`` as a separate process."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: Give up on a server that has not answered ``/health`` within this time.
STARTUP_TIMEOUT_S = 60.0
_LISTENING = re.compile(rb"listening on http://[^:\s]+:(\d+)")


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``argv`` is everything after the interpreter, e.g.
    ``["-m", "repro", "serve", "--arena", "a.arena"]``; ``--port 0`` is
    appended.  ``setup_s`` is the time from spawn to the first 200 from
    ``GET /health``.
    """

    def __init__(self, root: Path, argv: Sequence[str], log_path: Path,
                 durable_dir: Optional[Path] = None) -> None:
        self.durable_dir = durable_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log_path = log_path
        self._log = open(log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv, "--port", "0"], cwd=root, env=env,
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
        try:
            self.port = self._wait_for_port(started)
            self._wait_for_health(started)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self, started: float) -> int:
        while time.perf_counter() - started < STARTUP_TIMEOUT_S:
            match = _LISTENING.search(self._log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise ServerError(f"server exited with {self.process.returncode}"
                                  f": {self.log_tail()}")
            time.sleep(0.002)
        raise ServerError("server did not report its port in time")

    def _wait_for_health(self, started: float) -> None:
        while time.perf_counter() - started < STARTUP_TIMEOUT_S:
            try:
                status, _ = self.get("/health")
            except (OSError, http.client.HTTPException):
                status = 0
            if status == 200:
                return
            if self.process.poll() is not None:
                raise ServerError(f"server exited with {self.process.returncode}"
                                  f": {self.log_tail()}")
            time.sleep(0.002)
        raise ServerError("server did not answer /health in time")

    def get(self, path: str) -> "tuple[int, Any]":
        """One ``GET`` on a fresh connection; returns ``(status, json)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        status, body = self.get("/stats")
        if status != 200:
            raise ServerError(f"GET /stats returned {status}")
        return body

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if match is None:
            raise ServerError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def dump_traces(self, path: Path, timeout: float = 30.0) -> None:
        """Ask the traced launcher to write its traces and wait for them."""
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not path.exists():
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise ServerError("traced server wrote no traces")
            time.sleep(0.01)

    def log_tail(self, lines: int = 20) -> str:
        text = self._log_path.read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt the server (a clean ``serve`` shutdown) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServerError("server did not stop after SIGINT") from None
        self._log.close()

    def kill(self) -> None:
        """SIGKILL the server (a crash) and reap it; a no-op once it ended."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


#: ``argv`` prefix of the untraced server: the real ``repro serve`` entry point.
REPRO_SERVE = ("-m", "repro", "serve")


def counter_delta(before: Any, after: Any) -> Any:
    """Numeric leaves of ``after - before`` for two ``/stats`` snapshots."""
    if isinstance(after, dict):
        return {key: counter_delta((before or {}).get(key), value)
                for key, value in after.items()
                if isinstance(value, (dict, int, float))
                and not isinstance(value, bool)}
    if isinstance(after, (int, float)) and isinstance(before, (int, float)):
        return after - before
    return after
