"""Closed-loop HTTP/1.1 load generator over raw keep-alive sockets.

Each connection runs on its own thread and sends its next request only
after the previous response has been read in full (a closed loop: every
caller waits for its reply).  Request bytes are encoded before the loop
starts and each response body is compared byte for byte with the body
the correctness gate recorded for that request, so the client does no
JSON work while it measures.

The number of connections may not exceed the CPUs this process may run
on: with more client threads than cores, the client rather than the
server would set the latency.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def encode_post(path: str, body: bytes) -> bytes:
    """A complete keep-alive ``POST`` request with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class Connection:
    """One keep-alive client connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one encoded request; return (status, body)."""
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


@dataclass
class LoopResult:
    """Outcome of one closed-loop run."""

    latencies_s: List[float] = field(default_factory=list)
    #: (seconds since the loop started, patient rows) per correct response.
    completions: List[Tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rows_ok: int = 0
    wall_s: float = 0.0


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Tuple[bytes, bytes, int]],
    connections: int,
    seconds: float,
) -> LoopResult:
    """Drive ``connections`` closed loops for ``seconds``.

    ``requests`` holds ``(encoded request, expected body, patient rows)``;
    connection ``c`` cycles through them starting at offset ``c``.  A
    non-200 status, a body differing from the expected one, or a
    transport error counts as failed; the connection is reopened after
    a transport error.
    """
    if connections < 1:
        raise ValueError("need at least one connection")
    if connections > usable_cpus():
        raise ValueError(
            f"{connections} connections exceed the {usable_cpus()} usable CPUs"
        )
    if not requests:
        raise ValueError("no requests to send")
    results = [LoopResult() for _ in range(connections)]
    conns = [Connection(host, port) for _ in range(connections)]
    started = time.perf_counter()
    deadline = started + seconds

    def run(index: int) -> None:
        result = results[index]
        conn = conns[index]
        position = index
        try:
            while time.perf_counter() < deadline:
                raw, expected, rows = requests[position % len(requests)]
                position += 1
                result.attempted += 1
                sent = time.perf_counter()
                try:
                    status, body = conn.request(raw)
                except OSError:
                    result.failed += 1
                    conn.close()
                    conn = Connection(host, port)
                    continue
                done = time.perf_counter()
                result.latencies_s.append(done - sent)
                if status == 200 and body == expected:
                    result.rows_ok += rows
                    result.completions.append((done - started, rows))
                else:
                    result.failed += 1
        except OSError:
            result.failed += 1  # could not reconnect: this loop ends early
        finally:
            conn.close()

    threads = [
        threading.Thread(target=run, args=(i,), name=f"perfbench-conn-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = LoopResult(wall_s=time.perf_counter() - started)
    for result in results:
        total.latencies_s.extend(result.latencies_s)
        total.completions.extend(result.completions)
        total.attempted += result.attempted
        total.failed += result.failed
        total.rows_ok += result.rows_ok
    return total
