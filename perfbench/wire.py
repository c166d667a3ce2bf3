"""Minimal keep-alive HTTP/1.1 client for the load generator.

The load generator lives in its own process and must cost the host as
little CPU as possible, so requests are pre-encoded once and each round
trip is one ``sendall`` plus a head/body read — no header objects, no
client-side schema validation.  Anything other than a 200, and any
transport error, is reported to the caller as a failed operation.
"""

from __future__ import annotations

import json
import socket


class Failed(Exception):
    """A round trip that did not produce a 200 (status 0 = transport)."""

    def __init__(self, status: int, detail: str):
        super().__init__(f"{status}: {detail}")
        self.status = status


def encode(method: str, path: str, obj=None) -> bytes:
    """One complete request, ready to send."""
    body = b"" if obj is None else json.dumps(obj).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Conn:
    """One keep-alive connection; reconnects after a close or an error."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.buf = b""

    def _connect(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.buf = sock, b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def roundtrip(self, request: bytes) -> bytes:
        """Send one request; return the 200 body or raise :class:`Failed`."""
        try:
            if self.sock is None:
                self._connect()
            self.sock.sendall(request)
            while (end := self.buf.find(b"\r\n\r\n")) < 0:
                self._fill()
            head = self.buf[:end].decode("latin-1").split("\r\n")
            self.buf = self.buf[end + 4:]
            status = int(head[0].split(" ", 2)[1])
            length, close = 0, False
            for line in head[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip().lower() == "close":
                    close = True
            while len(self.buf) < length:
                self._fill()
            body, self.buf = self.buf[:length], self.buf[length:]
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            raise Failed(0, f"{type(exc).__name__}: {exc}") from None
        if close:
            self.close()
        if status != 200:
            raise Failed(status, body[:200].decode("utf-8", "replace"))
        return body

    def get_json(self, path: str) -> dict:
        return json.loads(self.roundtrip(encode("GET", path)))
