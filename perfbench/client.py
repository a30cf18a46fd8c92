"""The server child (``python -m repro serve`` with default flags) and
a keep-alive JSON client for it."""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: How long the child may take to print its listening address.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class ServerError(RuntimeError):
    pass


class ServerChild:
    """``python -m repro serve --port 0`` in a child process.

    Use it as a context manager: the child is terminated, killed if it
    does not stop, and waited for on every exit path, so its port is
    free again afterwards.
    """

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root = root
        self.env = env
        self.process: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "ServerChild":
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            line = stdout.readline()
            if not line:
                raise ServerError(f"server exited with code "
                                  f"{self.process.wait()} before serving")
            if line.startswith("serving on http://"):
                return int(line.strip().rsplit(":", 1)[1])
        raise ServerError("server did not report its address in time")

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``) in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


def child_env(root: Path) -> dict[str, str]:
    """The server's environment: the benchmark's, with the package on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)

    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, dict, float, float]:
        """Send one request; returns ``(status, payload, start, end)``
        with times from ``time.perf_counter`` around the whole
        exchange."""
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        end = time.perf_counter()
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {"error": data[:200].decode("utf-8", "replace")}
        return response.status, payload, start, end

    def close(self) -> None:
        self._conn.close()
