"""Closed-loop load generator: hundreds of echo clients on a few threads.

Every virtual client is protocol-complete, like the fakes in
``repro.serving.loadtest``: it registers its own session, polls
``/v1/work``, downloads a batch's global weights once per session and
answers each task with an echo of them.  One process multiplexes all of
them over at most ``THREADS`` worker threads, each with one request (and
one connection) in flight.  The loop is closed: a client has at most one
request outstanding, polls without blocking, and a long-poll is issued
only after a full sweep of the active clients found no work.

The generator counts every HTTP attempt itself, retries included: an
attempt that is refused, reset, timed out or answered with a non-2xx
status is a failure, and so is a result the hub does not accept or a
task leased twice (its first lease expired and was requeued).
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time
from collections import deque
from time import perf_counter
from typing import Dict, List, Optional

from repro.federated.compression import IdentityCompressor, unpack_state
from repro.federated.execution import WIRE_VERSION
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    STATUS_DONE,
    STATUS_TASK,
)

from metrics import HTTP_ENDPOINTS, percentile
from workloads import nproc

#: Worker threads, each with one request and one connection in flight.
THREADS = nproc()
#: Server-side wait of a long-poll, issued after a sweep found no work.
LONG_POLL_S = 2.0
REQUEST_TIMEOUT_S = 30.0
#: Further attempts after a refused, reset or timed-out one.
RETRIES = 4


class _GiveUp(Exception):
    """A request exhausted its attempts (or the run is being stopped)."""


class _Client:
    __slots__ = ("index", "session", "have_batch", "done", "failed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.session: Optional[int] = None
        self.have_batch = 0
        self.done = False
        self.failed = False


class _WorkerStats:
    def __init__(self) -> None:
        self.latency_ms: Dict[str, List[float]] = {e: [] for e in HTTP_ENDPOINTS}
        self.attempts = 0
        self.failed_attempts = 0
        self.bytes_up = 0
        self.bytes_down = 0
        self.work_requests = 0
        self.task_responses = 0
        self.global_downloads = 0
        self.rejected = 0
        self.train_results = 0


class LoadGenerator:
    """Drive ``clients`` echo clients against ``http://127.0.0.1:<port>``."""

    def __init__(self, port: int, clients: int, echo_accuracy: float,
                 tracer=None) -> None:
        self.port = port
        self.echo_accuracy = echo_accuracy
        self.tracer = tracer
        self.stop = threading.Event()
        self._clients = [_Client(index) for index in range(clients)]
        self._queue = deque(range(clients))
        self._cond = threading.Condition()
        self._active = clients
        self._empty_streak = 0
        self._echo: Dict[int, dict] = {}  # batch_id -> encoded echo state
        self._lock = threading.Lock()
        self._leased: set = set()
        self._accepted: set = set()
        self._session_batches: set = set()
        self._duplicate_leases = 0
        self._stats: List[_WorkerStats] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _next(self):
        with self._cond:
            while True:
                if self.stop.is_set() or self._active == 0:
                    return None, False
                if self._queue:
                    index = self._queue.popleft()
                    long_poll = (
                        self._clients[index].session is not None
                        and self._empty_streak >= self._active
                    )
                    if long_poll:
                        self._empty_streak = 0
                    return index, long_poll
                self._cond.wait(0.1)

    def _release(self, client: _Client, found_work: Optional[bool]) -> None:
        with self._cond:
            if found_work is True:
                self._empty_streak = 0
            elif found_work is False:
                self._empty_streak += 1
            if client.done or client.failed:
                self._active -= 1
            else:
                self._queue.append(client.index)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, stats, method: str, path: str, body: Optional[bytes]):
        for attempt in range(RETRIES + 1):
            if self.stop.is_set():
                raise _GiveUp("stopped")
            stats.attempts += 1
            start = perf_counter()
            # One connection per request, as the program's own urllib
            # clients do.
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
            try:
                headers = {"Connection": "close"}
                if body:
                    headers["Content-Type"] = "application/json"
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException):
                stats.failed_attempts += 1
                time.sleep(0.05 * (attempt + 1))
                continue
            finally:
                conn.close()
            end = perf_counter()
            if not 200 <= response.status < 300:
                stats.failed_attempts += 1
                raise _GiveUp(f"{path}: HTTP {response.status}")
            stats.bytes_down += len(payload)
            stats.bytes_up += len(body or b"")
            return json.loads(payload), start, end
        raise _GiveUp(f"{path}: no answer after {RETRIES + 1} attempts")

    def _record(self, stats, endpoint: str, start: float, end: float,
                round_index=0, task_id=None) -> None:
        stats.latency_ms[endpoint].append((end - start) * 1000.0)
        if self.tracer is not None:
            self.tracer.add_span("http." + endpoint, start, end, round_index, task_id)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _echo_state(self, batch_id: int, global_b64: Optional[str]) -> dict:
        """The batch's global weights, decoded once and re-encoded as the echo."""
        with self._lock:
            cached = self._echo.get(batch_id)
            if cached is None:
                if global_b64 is None:
                    raise KeyError(f"batch {batch_id} was never downloaded")
                state = unpack_state(base64.b64decode(global_b64))
                encoded = IdentityCompressor().encode(state)
                cached = {
                    "codec": encoded.codec,
                    "bits": encoded.bits,
                    "blob": base64.b64encode(encoded.payload).decode("ascii"),
                }
                self._echo = {b: f for b, f in self._echo.items() if b > batch_id - 2}
                self._echo[batch_id] = cached
            return cached

    def _register(self, stats, client: _Client) -> None:
        body = json.dumps(
            {"protocol": PROTOCOL_VERSION, "clients": [client.index]}
        ).encode()
        payload, start, end = self._request(stats, "POST", "/v1/register", body)
        self._record(stats, "register", start, end)
        client.session = int(payload["session"])

    def _poll(self, stats, client: _Client, long_poll: bool) -> bool:
        wait = LONG_POLL_S if long_poll else 0
        path = (f"/v1/work?session={client.session}&wait={wait}"
                f"&have_batch={client.have_batch}")
        stats.work_requests += 1
        response, start, end = self._request(stats, "GET", path, None)
        status = response.get("status")
        if status != STATUS_TASK:
            self._record(stats, "work_wait", start, end)
            if status == STATUS_DONE:
                client.done = True
            return False
        stats.task_responses += 1
        task_id = int(response["task_id"])
        batch_id = int(response["batch_id"])
        round_index = response.get("round_index", 0)
        endpoint = "work_global" if "global" in response else "work_cached"
        self._record(stats, endpoint, start, end, round_index, task_id)
        with self._lock:
            if task_id in self._leased:
                self._duplicate_leases += 1
            self._leased.add(task_id)
            self._session_batches.add((client.session, batch_id))
        if "global" in response:
            stats.global_downloads += 1
            client.have_batch = batch_id
        state = self._echo_state(batch_id, response.get("global"))
        kind = response["task"]["kind"]
        update = {
            "schema": WIRE_VERSION,
            "client_index": client.index,
            "client_id": client.index,
            "num_examples": 1 if kind == "train" else 0,
            "mean_loss": 0.0,
            "val_accuracy": None,
            "pruned_unstructured": False,
            "pruned_structured": False,
            "accuracy": self.echo_accuracy if kind == "evaluate" else None,
            "sparsity": None,
            "channel_sparsity": None,
            "state": state if kind == "train" else None,
            "mask": None,
        }
        body = json.dumps(
            {"protocol": PROTOCOL_VERSION, "task_id": task_id, "update": update}
        ).encode()
        payload, start, end = self._request(stats, "POST", "/v1/result", body)
        self._record(stats, "result", start, end, round_index, task_id)
        if payload.get("accepted"):
            with self._lock:
                self._accepted.add(task_id)
            if kind == "train":
                stats.train_results += 1
        else:
            stats.rejected += 1
        return True

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        stats = _WorkerStats()
        with self._cond:
            self._stats.append(stats)
        while True:
            index, long_poll = self._next()
            if index is None:
                return
            client = self._clients[index]
            found = None
            try:
                if client.session is None:
                    self._register(stats, client)
                else:
                    found = self._poll(stats, client, long_poll)
            except _GiveUp:
                client.failed = True
            except (KeyError, ValueError, TypeError):
                stats.failed_attempts += 1  # a malformed answer
                client.failed = True
            self._release(client, found)

    def run(self, timeout_s: float) -> Dict[str, float]:
        """Serve until every client saw ``done`` (or failed); returns a report."""
        workers = [
            threading.Thread(target=self._worker, name=f"loadgen-{n}", daemon=True)
            for n in range(THREADS)
        ]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + timeout_s
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        if any(worker.is_alive() for worker in workers):
            self.stop.set()
            for worker in workers:
                worker.join(REQUEST_TIMEOUT_S + 5.0)
        return self.report()

    def report(self) -> Dict[str, float]:
        merged = _WorkerStats()
        for stats in self._stats:
            for endpoint in HTTP_ENDPOINTS:
                merged.latency_ms[endpoint] += stats.latency_ms[endpoint]
            for name in ("attempts", "failed_attempts", "bytes_up", "bytes_down",
                         "work_requests", "task_responses", "global_downloads",
                         "rejected", "train_results"):
                setattr(merged, name, getattr(merged, name) + getattr(stats, name))
        tasks = len(self._accepted)
        report = {
            "attempts": merged.attempts,
            "failed": merged.failed_attempts + merged.rejected + self._duplicate_leases,
            "rejected": merged.rejected,
            "duplicate_leases": self._duplicate_leases,
            "tasks_accepted": tasks,
            "train_examples": merged.train_results,
            "sessions_done": sum(1 for c in self._clients if c.done),
            "sessions_failed": sum(1 for c in self._clients if c.failed),
            "request_ms": [v for e in HTTP_ENDPOINTS for v in merged.latency_ms[e]],
            "http.bytes_down_per_task": merged.bytes_down / tasks if tasks else 0.0,
            "http.bytes_up_per_task": merged.bytes_up / tasks if tasks else 0.0,
            "http.useful_poll_ratio": (
                merged.task_responses / merged.work_requests
                if merged.work_requests else 0.0
            ),
            "http.global_downloads_per_session_batch": (
                merged.global_downloads / len(self._session_batches)
                if self._session_batches else 0.0
            ),
        }
        for endpoint in HTTP_ENDPOINTS:
            samples = merged.latency_ms[endpoint]
            report[f"http.{endpoint}_ms_p50"] = percentile(samples, 50)
            report[f"http.{endpoint}_ms_p99"] = percentile(samples, 99)
            report[f"http.{endpoint}_n"] = len(samples)
        return report
