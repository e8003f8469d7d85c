"""Closed-loop HTTP/1.1 load over keep-alive connections to ``repro serve``.

Every request is built as bytes before timing starts and goes out in one
``sendall``; the client sets ``TCP_NODELAY`` and never reconnects, so any
stall left in a reply is the server's own.  Each request carries an
``X-Bench-Req`` header that the traced server uses to join its spans to
the client's timings (the untraced server ignores it).
"""

from __future__ import annotations

import json
import socket
import threading
import time

HEAD_END = b"\r\n\r\n"


def request_bytes(method: str, path: str, req_id: str,
                  body: "dict | None" = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"X-Bench-Req: {req_id}\r\n")
    if body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(payload)}\r\n")
    return (head + "\r\n").encode("ascii") + payload


class Connection:
    """One keep-alive connection; :meth:`roundtrip` is send, then read."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def roundtrip(self, request: bytes) -> "tuple[int, bytes]":
        self.sock.sendall(request)
        while HEAD_END not in self._buf:
            self._fill()
        head, _, rest = self._buf.partition(HEAD_END)
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buf = rest
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body


def closed_loop(conn: Connection, requests: list, deadline: float,
                before=None) -> list:
    """Send ``requests`` in order, each after the previous reply, until the
    deadline; returns ``(index, start, end, status, body)`` per request.

    ``before(index)``, when given, runs untimed ahead of each request.
    """
    out = []
    for index, request in enumerate(requests):
        if before is not None:
            before(index)
        start = time.perf_counter()
        if start >= deadline:
            break
        status, body = conn.roundtrip(request)
        out.append((index, start, time.perf_counter(), status, body))
    return out


def parallel_closed_loops(conns: list, plans: list, deadline: float) -> list:
    """One closed loop per connection, each on its own thread."""
    results: list = [None] * len(conns)
    errors: list = []

    def drive(i: int) -> None:
        try:
            results[i] = closed_loop(conns[i], plans[i], deadline)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
