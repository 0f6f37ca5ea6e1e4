"""Single-process HTTP/1.1 keep-alive load generator.

Each sender thread owns one persistent ``http.client`` connection and takes
the next request from a shared queue only when it is free, so at most one
request is outstanding per connection.  The sockets are left exactly as a
plain client leaves them (no ``TCP_NODELAY``/``TCP_QUICKACK``), so the
numbers are what an ordinary client sees.

* :func:`open_loop` sends request ``i`` at ``start + i / rate`` and times
  it from that scheduled instant, so a stall that delays later requests is
  charged to them (no coordinated omission).
* :func:`closed_loop` sends each connection's next request as soon as its
  previous one completes, for a fixed number of requests.

Every request carries its own ``X-Request-Id``.  A request fails on a
non-2xx status, a dropped connection, a timeout, an unparseable body or a
response that does not echo the request id.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Per-request socket timeout; a request slower than this counts as failed.
TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Request:
    """One request of a workload: ``kind`` is ``"query"`` or ``"update"``."""

    kind: str
    path: str
    payload: Dict[str, Any]


@dataclass
class Record:
    """What happened to one request, with perf_counter timestamps."""

    kind: str
    request_id: str
    scheduled: float
    sent: float
    done: float
    lag: float
    ok: bool
    error: str = ""
    body: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the end of the response."""
        return self.done - self.scheduled

    @property
    def round_trip(self) -> float:
        """Seconds from the actual send to the end of the response."""
        return self.done - self.sent


class _Client:
    """One keep-alive connection that reconnects after a failure.

    With ``keep_alive=False`` every request goes on a fresh connection
    (``Connection: close``), which never waits on the delayed ACK that
    back-to-back requests on one connection meet; only the untimed
    warm-up uses it.
    """

    def __init__(self, port: int, keep_alive: bool = True) -> None:
        self._port = port
        self._keep_alive = keep_alive
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port,
                                                    timeout=TIMEOUT_S)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def send(self, request: Request, request_id: str
             ) -> "tuple[bool, str, Optional[Dict[str, Any]]]":
        body = json.dumps(request.payload).encode("utf-8")
        headers = {"Content-Type": "application/json",
                   "X-Request-Id": request_id}
        if not self._keep_alive:
            headers["Connection"] = "close"
        try:
            conn = self._connection()
            conn.request("POST", request.path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            echoed = response.getheader("X-Request-Id")
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return False, f"connection: {type(exc).__name__}", None
        finally:
            if not self._keep_alive:
                self.close()
        try:
            parsed = json.loads(raw)
        except ValueError:
            return False, "unparseable body", None
        if not 200 <= status < 300:
            return False, f"status {status}", parsed
        if echoed != request_id:
            return False, "request id not echoed", parsed
        if not isinstance(parsed, dict):
            return False, "body is not an object", None
        return True, "", parsed


def _drive(port: int, requests: Sequence[Request], connections: int,
           prefix: str, due_at, deadline: float,
           keep_alive: bool = True) -> List[Record]:
    """Run ``requests`` over ``connections`` senders; ``due_at(i, free_at)``
    gives request ``i``'s scheduled send time."""
    records: List[Optional[Record]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        client = _Client(port, keep_alive)
        free_at = time.perf_counter()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests) or time.perf_counter() > deadline:
                        return
                    cursor[0] += 1
                request = requests[index]
                due = due_at(index, free_at)
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                request_id = f"{prefix}-{index}"
                ok, error, body = client.send(request, request_id)
                done = time.perf_counter()
                records[index] = Record(
                    kind=request.kind, request_id=request_id,
                    scheduled=due, sent=sent, done=done,
                    lag=sent - max(due, free_at), ok=ok, error=error,
                    body=body)
                free_at = done
        finally:
            client.close()

    # Daemon senders: an interrupted run exits without draining a schedule.
    threads = [threading.Thread(target=sender, name=f"loadgen-{n}",
                                daemon=True)
               for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    # Requests the phase deadline cut off were attempted and failed.
    return [record if record is not None else Record(
                kind=requests[index].kind,
                request_id=f"{prefix}-{index}", scheduled=end, sent=end,
                done=end, lag=0.0, ok=False, error="not sent before deadline")
            for index, record in enumerate(records)]


def open_loop(port: int, requests: Sequence[Request], rate: float,
              connections: int, prefix: str) -> List[Record]:
    """Send ``requests`` at ``rate`` per second on a fixed schedule."""
    start = time.perf_counter() + 0.05
    deadline = start + len(requests) / rate + 4 * TIMEOUT_S
    return _drive(port, requests, connections, prefix,
                  lambda index, _free_at: start + index / rate, deadline)


def closed_loop(port: int, requests: Sequence[Request], connections: int,
                prefix: str, max_seconds: float, keep_alive: bool = True
                ) -> List[Record]:
    """Send ``requests`` back to back.

    Stops taking new requests after ``max_seconds``, so a much slower
    program still ends the phase in bounded time.
    """
    return _drive(port, requests, connections, prefix,
                  lambda _index, free_at: free_at,
                  time.perf_counter() + max_seconds, keep_alive)
