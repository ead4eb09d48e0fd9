"""``repro serve``: an asyncio daemon in front of a sharded database.

One :class:`ServeDaemon` answers whole requests in its own process: it
owns a :class:`~repro.serving.sharded.ShardedSegmentDatabase` and speaks
a tiny length-prefixed pickle protocol over TCP.  ``repro serve
--workers N`` runs N of them behind one port
(:mod:`repro.serving.prefork`); each then takes its connections from a
Unix socketpair with the parent (``channel``) instead of listening
itself.

* **request batching** — the requests already queued when the batcher
  wakes (up to ``max_batch``) run as one ``query_batch`` call; requests
  that arrive while a batch runs coalesce into the next one.  Nothing
  waits for stragglers: a lone request runs at once.  If a coalesced
  batch raises, its requests run again one at a time, so only the
  request at fault gets the error;
* **admission control** — at most ``max_pending`` requests queue; past
  that the daemon answers ``overloaded`` *immediately* instead of
  building an unbounded backlog (the client can retry; the queue can't
  melt);
* **graceful drain** — SIGTERM/SIGINT (or EOF on ``channel``) stop new
  connections, every queued request still executes and answers, and
  :meth:`ServeDaemon.run` returns a drain report.

Observability reuses the session's primitives: a
:class:`~repro.telemetry.MetricsRegistry` holds ``serve.request_s`` /
``serve.batch_s`` latency histograms plus request/query/reject counters,
and batch execution runs under a ``timed_span`` so an installed
:func:`~repro.telemetry.wall_tracing` tracer sees daemon batches next to
the shard queries they ran.  The ``stats`` frame returns those metrics
with the database's ``latency_report()`` and ``io_report()`` and, when
``--slow-ms`` armed one, its slow-query log: all of them describe the
process that answered.

Wire format: 4-byte big-endian frame length, then a pickled dict.
Frames are decoded with the snapshot layer's *restricted* unpickler, in
both directions — a network peer gets the same allowlist a snapshot
file gets.  A successful ``query`` response sends each answer item at
most once per connection::

    {"ok": True, "new": [item, ...], "answers": [[index, ...], ...]}

Each connection has an answer table at both ends: the daemon maps each
item it has sent in full (by identity) to its index, and
:class:`ServeClient` keeps the items in that order.  ``new`` holds the
items of this response the connection had not been sent, appended to
both tables in order; an answer names its items by index, and a degraded
one (:class:`~repro.core.recovery.DegradedResult`) is sent as
``(indices, reason, source)``.  Both tables start empty with the
connection, so any reconnect — after a reset, a truncated or corrupt
frame, or a retry — starts them afresh.  Once the daemon's table holds
:data:`MAX_TABLE_ENTRIES` items it clears it and marks the next response
``"reset": True``, and the client clears its copy before taking ``new``.
Serving is read-only, so an item never changes while a connection holds
its index.  ``query_batch`` must return one list of items per query.
:class:`ServeClient` is the blocking client used by the CLI and tests;
it returns ``{"ok": True, "results": [...]}`` for a query, the items
rebuilt into one list per query.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import socket
import struct
import threading
import time
from random import Random
from time import perf_counter
from typing import Any, Callable, List, Optional

from ..core.recovery import DegradedResult
from ..iosim import restricted_loads
from ..telemetry import MetricsRegistry, timed_span
from .resilience import ServeConnectionError

_FRAME = struct.Struct(">I")
#: Upper bound on one frame; anything larger is damage, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: The signals that make a daemon drain.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)
#: Items a connection's answer table holds before both ends clear it.
#: An entry costs about 105 bytes in the daemon (a dict slot, its two
#: ints and a list slot; the item itself lives in the decoded pages) and
#: about 690 bytes in the client (a decoded segment and its list slot),
#: so a full table costs a connection about 1.7 MB in the daemon and
#: 11 MB in the client.
MAX_TABLE_ENTRIES = 1 << 14

#: ``error_type`` values a daemon error frame may carry, with whether a
#: retry can help.  ``overloaded``/``draining`` are transient service
#: states; the rest describe the request (or the daemon's inability to
#: serve it at all), which a retry would only repeat.
ERROR_TYPES = {
    "bad-frame": False,
    "bad-request": False,
    "overloaded": True,
    "draining": True,
    "deadline": False,
    "internal": False,
}


def _error(error_type: str, message: str) -> dict:
    return {"ok": False, "error": message, "error_type": error_type,
            "retryable": ERROR_TYPES[error_type]}


class ServeRejected(RuntimeError):
    """The daemon refused a request via a structured error frame.

    ``error_type`` is one of :data:`ERROR_TYPES`; ``retryable`` mirrors
    the daemon's own judgment of whether trying again can succeed.
    """

    def __init__(self, message: str, error_type: Optional[str] = None,
                 retryable: bool = False):
        super().__init__(message)
        self.error_type = error_type
        self.retryable = retryable


def _encode_frame(obj: Any) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte cap")
    return _FRAME.pack(len(payload)) + payload


async def _read_frame(reader: asyncio.StreamReader) -> Any:
    header = await reader.readexactly(_FRAME.size)
    (length,) = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"peer announced a {length}-byte frame "
                         f"(cap {MAX_FRAME_BYTES})")
    payload = await reader.readexactly(length)
    return restricted_loads(payload)


class _SentItems:
    """The daemon's answer table for one connection: each item the
    connection has been sent in full, by identity.

    ``items`` holds a reference to every item in ``index``, so no other
    object can take an item's id while the table holds it.
    """

    def __init__(self):
        self.index: dict = {}  # id(item) -> its position in items
        self.items: list = []

    def encode(self, results: List[list]) -> dict:
        """The ``ok`` response frame for ``results``, one list per query."""
        response = {"ok": True}
        if len(self.items) >= MAX_TABLE_ENTRIES:
            self.index, self.items = {}, []
            response["reset"] = True
        index, items = self.index, self.items
        start = len(items)
        answers = []
        for result in results:
            refs = []
            for item in result:
                ref = index.get(id(item))
                if ref is None:
                    ref = index[id(item)] = len(items)
                    items.append(item)
                refs.append(ref)
            if isinstance(result, DegradedResult):
                answers.append((refs, result.reason, result.source))
            else:
                answers.append(refs)
        response["new"] = items[start:]
        response["answers"] = answers
        return response

    def mark(self) -> tuple:
        """The table as it stands, for :meth:`rollback`."""
        return self.index, self.items, len(self.items)

    def rollback(self, mark: tuple) -> None:
        """Forget what :meth:`encode` added since ``mark``: its response
        was never sent, so the client's table never saw it.  A reset
        swapped in fresh containers and left the marked ones untouched."""
        index, items, size = mark
        for item in items[size:]:
            del index[id(item)]
        del items[size:]
        self.index, self.items = index, items


class ServeDaemon:
    """Serve ``db.query_batch`` over TCP with batching and backpressure.

    ``db`` is any object whose ``query_batch(queries)`` returns one list
    of items per query — in production a sharded database, in tests
    whatever stub the scenario needs.  ``port=0`` binds an ephemeral
    port; the bound port is published on :attr:`port` before
    :attr:`ready` is set.

    With ``channel`` (a Unix socket) the daemon listens on nothing: it
    serves the connections whose descriptors arrive on ``channel``
    (``socket.send_fds``, one per message), and EOF on ``channel`` stops
    it like SIGTERM.  ``host``/``port`` then only label its reports.
    """

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0,
                 max_pending: int = 64, max_batch: int = 64,
                 registry: Optional[MetricsRegistry] = None,
                 channel: Optional[socket.socket] = None):
        if max_pending < 1 or max_batch < 1:
            raise ValueError("max_pending and max_batch must be >= 1")
        self.db = db
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.channel = channel
        self.registry = registry if registry is not None else MetricsRegistry()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._handlers: set = set()  # live _handle tasks, for clean drain
        self.ready = threading.Event()  # set once the port is bound
        self.drain_report: Optional[dict] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self, install_signal_handlers: bool = True,
            on_ready: Optional[Callable[[], None]] = None) -> dict:
        """Serve until stopped; returns (and stores) the drain report.

        ``on_ready`` is called on the daemon's loop once it accepts
        connections (after :attr:`port` is bound).
        """
        return asyncio.run(self._main(install_signal_handlers, on_ready))

    def request_stop(self) -> None:
        """Ask a running daemon to drain and exit (thread-safe)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _main(self, install_signal_handlers: bool,
                    on_ready: Optional[Callable[[], None]]) -> dict:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        if install_signal_handlers:
            for sig in STOP_SIGNALS:
                try:
                    self._loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, ValueError,
                        RuntimeError):  # platform or non-main thread
                    pass
            # A pre-forked child starts with these blocked, so that a
            # stop sent while it opened its shards is delivered here, to
            # the handlers above.
            signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        server = None
        if self.channel is None:
            server = await asyncio.start_server(self._handle, self.host,
                                                self.port)
            self.port = server.sockets[0].getsockname()[1]
        else:
            self.channel.setblocking(False)
            self._loop.add_reader(self.channel.fileno(), self._adopt)
        batcher = asyncio.create_task(self._batcher())
        self.ready.set()
        if on_ready is not None:
            on_ready()
        try:
            await self._stop.wait()
        finally:
            # Drain: no new connections, no new admissions; everything
            # already admitted executes AND answers — the idle event only
            # sets once the last in-flight response is on the wire.
            self._draining = True
            if server is None:
                self._loop.remove_reader(self.channel.fileno())
            else:
                server.close()
                await server.wait_closed()
            await self._queue.join()
            await self._idle.wait()
            # Idle keep-alive connections would otherwise park their
            # handler tasks in readexactly until asyncio.run tears the
            # loop down and cancels them with a logged traceback; hang
            # up on them explicitly and wait for the handlers to exit.
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers,
                                     return_exceptions=True)
            batcher.cancel()
            try:
                await batcher
            except asyncio.CancelledError:
                pass
        self.drain_report = {
            "drained": True,
            "host": self.host,
            "port": self.port,
            "requests": self.registry.counter("serve.requests").value,
            "queries": self.registry.counter("serve.queries").value,
            "batches": self.registry.counter("serve.batches").value,
            "rejected": self.registry.counter("serve.rejected").value,
            "deadline_expired": self.registry.counter("serve.deadline").value,
            "request_s": self.registry.latency("serve.request_s").summary(),
            "batch_s": self.registry.latency("serve.batch_s").summary(),
        }
        return self.drain_report

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _adopt(self) -> None:
        """Serve the connections queued on :attr:`channel`; stop on EOF."""
        while True:
            try:
                data, fds, _flags, _addr = socket.recv_fds(self.channel, 1, 1)
            except BlockingIOError:
                return
            except OSError:  # the parent's end was reset
                data, fds = b"", []
            for fd in fds:
                self._handlers.add(asyncio.ensure_future(self._serve_fd(fd)))
            if not data:  # the parent is gone: drain and exit
                self._loop.remove_reader(self.channel.fileno())
                self._stop.set()
                return

    async def _serve_fd(self, fd: int) -> None:
        sock = socket.socket(fileno=fd)
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:  # the client hung up before we got to it
            sock.close()
            self._handlers.discard(asyncio.current_task())
            return
        await self._handle(reader, writer)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        sent = _SentItems()
        try:
            while True:
                try:
                    request = await _read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # peer hung up
                except Exception as exc:  # undecodable frame: answer, drop
                    writer.write(_encode_frame(
                        _error("bad-frame", f"bad frame: {exc}")))
                    await writer.drain()
                    break
                self._inflight += 1
                self._idle.clear()
                try:
                    mark = sent.mark()
                    response = await self._respond(request, sent)
                    try:
                        frame = _encode_frame(response)
                    except ValueError as exc:  # over MAX_FRAME_BYTES
                        sent.rollback(mark)
                        frame = _encode_frame(_error(
                            "bad-request", f"response too large: {exc}"))
                    writer.write(frame)
                    await writer.drain()
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if self._draining:
                    break  # one answer per connection once draining
        except asyncio.CancelledError:
            pass  # drain hung up on an idle connection: a clean close
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError,
                    asyncio.CancelledError):  # pragma: no cover - raced
                pass

    async def _respond(self, request: Any, sent: _SentItems) -> dict:
        if not isinstance(request, dict):
            return _error("bad-request", "request must be a dict")
        kind = request.get("kind")
        if kind == "ping":
            return {"ok": True, "draining": self._draining}
        if kind == "health":
            return {"ok": True, "health": self._health()}
        if kind == "stats":
            stats = {"metrics": self.registry.to_dict()}
            latency = getattr(self.db, "latency_report", None)
            if callable(latency):
                stats["latency"] = latency()
            io = getattr(self.db, "io_report", None)
            if callable(io):
                stats["io"] = io()
            slow_log = getattr(self.db, "slow_log", None)
            if slow_log is not None:
                stats["slow_queries"] = slow_log.to_dict()
            return {"ok": True, "stats": stats}
        if kind != "query":
            return _error("bad-request", f"unknown request kind {kind!r}")

        timeout_ms = request.get("timeout_ms")
        if timeout_ms is not None and (
                not isinstance(timeout_ms, (int, float))
                or isinstance(timeout_ms, bool) or timeout_ms <= 0):
            return _error("bad-request",
                          f"timeout_ms must be a positive number, "
                          f"got {timeout_ms!r}")
        queries = request.get("queries", [])
        if not isinstance(queries, (list, tuple)):
            return _error("bad-request",
                          f"queries must be a list, got "
                          f"{type(queries).__name__}")
        self.registry.counter("serve.requests").inc()
        self.registry.counter("serve.queries").inc(len(queries))
        if not queries:
            return sent.encode([])
        if self._draining:
            return _error("draining", "draining")
        future = self._loop.create_future()
        try:
            self._queue.put_nowait((queries, future))
        except asyncio.QueueFull:
            self.registry.counter("serve.rejected").inc()
            return _error("overloaded", "overloaded")
        t0 = perf_counter()
        try:
            if timeout_ms is not None:
                # The batcher's future.done() guards make cancellation
                # safe: an expired request's slot is simply skipped when
                # results scatter back.
                results = await asyncio.wait_for(future,
                                                 timeout=timeout_ms / 1000.0)
            else:
                results = await future
        except asyncio.TimeoutError:
            self.registry.counter("serve.deadline").inc()
            return _error("deadline",
                          f"deadline of {timeout_ms:g}ms exceeded")
        except Exception as exc:
            return _error("internal", f"query failed: {exc}")
        self.registry.latency("serve.request_s").observe(perf_counter() - t0)
        response = sent.encode(results)
        self.registry.counter("serve.items").inc(sum(map(len, results)))
        self.registry.counter("serve.items_sent").inc(len(response["new"]))
        return response

    def _health(self) -> dict:
        """The ``health`` frame: daemon liveness plus, when the database
        exposes one, its ``health_report()``.  ``pid`` names the process
        that answered, one of several under ``repro serve --workers N``."""
        health = {
            "pid": os.getpid(),
            "draining": self._draining,
            "inflight": self._inflight,
            "pending": self._queue.qsize() if self._queue is not None else 0,
            "max_pending": self.max_pending,
            "requests": self.registry.counter("serve.requests").value,
            "rejected": self.registry.counter("serve.rejected").value,
            "deadline_expired": self.registry.counter("serve.deadline").value,
        }
        db_health = getattr(self.db, "health_report", None)
        if callable(db_health):
            health["db"] = db_health()
        return health

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    async def _batcher(self) -> None:
        """Run whatever is queued as one batch, and scatter back."""
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            await self._execute(batch)

    async def _execute(self, batch: List) -> None:
        requests = [queries for queries, _future in batch]
        t0 = perf_counter()
        try:
            with timed_span("serve.batch", category="daemon",
                            requests=len(batch),
                            queries=sum(map(len, requests))):
                outcomes = await self._loop.run_in_executor(
                    None, self._answer, requests)
        finally:
            self.registry.latency("serve.batch_s").observe(
                perf_counter() - t0)
            self.registry.counter("serve.batches").inc()
            for _item in batch:
                self._queue.task_done()
        for (_queries, future), outcome in zip(batch, outcomes):
            if future.done():  # its deadline expired
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _answer(self, requests: List[list]) -> List:
        """Each request's results, or the exception it failed with.

        The requests run as one ``query_batch``.  If that raises, each
        runs again alone, so that a malformed request fails by itself
        instead of failing the requests it was coalesced with; queries
        are reads, so running one twice is safe.
        """
        flat = [q for queries in requests for q in queries]
        try:
            results = self.db.query_batch(flat)
        except Exception as exc:
            if len(requests) == 1:
                return [RuntimeError(str(exc) or type(exc).__name__)]
            return [self._answer([queries])[0] for queries in requests]
        out, start = [], 0
        for queries in requests:
            out.append(results[start:start + len(queries)])
            start += len(queries)
        return out


def _pick(items: list, refs: list) -> list:
    """``items`` at the indices ``refs``; raises IndexError on one that
    ``items`` does not hold, negative ones included."""
    if refs and min(refs) < 0:
        raise IndexError(f"negative item index {min(refs)}")
    return [items[i] for i in refs]


class ServeClient:
    """Blocking client for :class:`ServeDaemon` (CLI and tests).

    Every way the TCP conversation can die — connect timeout, read
    timeout, reset, short frame, undecodable response bytes — surfaces
    as a typed
    :class:`~repro.serving.resilience.ServeConnectionError` instead of a
    raw traceback, and the dead socket is dropped so the next call
    reconnects.  All request kinds are idempotent reads, so with
    ``retries > 0`` a failed round trip is retried on a fresh
    connection after jittered exponential backoff (default ``retries=0``
    keeps every daemon answer — including ``overloaded`` — visible to
    the caller, which admission-control tests rely on).

    ``timeout`` is the legacy single knob and sets both of the split
    timeouts when given; prefer ``connect_timeout`` (TCP establishment)
    and ``request_timeout`` (per-read) directly.

    The client keeps its end of the connection's answer table (see the
    module docstring); a response that names an item the connection was
    never sent is wire damage, a :class:`ServeConnectionError`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 30.0,
                 retries: int = 0,
                 retry_backoff_s: float = 0.05,
                 seed: int = 0):
        if timeout is not None:
            connect_timeout = timeout
            request_timeout = timeout
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self._rng = Random(seed)
        self._sock: Optional[socket.socket] = None
        self._connect()

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except socket.timeout as exc:
            raise ServeConnectionError(
                self.host, self.port,
                f"connect timed out after {self.connect_timeout:g}s",
            ) from exc
        except OSError as exc:
            raise ServeConnectionError(
                self.host, self.port, f"connect failed: {exc}") from exc
        self._sock.settimeout(self.request_timeout)
        self._received: list = []  # this connection's answer table

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._sock = None
            self._received = []

    def request(self, payload: dict) -> dict:
        """One round trip; returns the response dict, a query's answers
        rebuilt from the answer table as ``results``.

        Connection-level failures are retried up to ``retries`` times on
        a fresh connection (jittered exponential backoff between
        attempts); structured daemon answers — including error frames —
        are returned as-is on the first try.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(payload)
            except ServeConnectionError:
                self._drop()
                if attempt >= self.retries:
                    raise
            attempt += 1
            delay = self.retry_backoff_s * (2 ** (attempt - 1))
            time.sleep(delay * (1.0 + 0.5 * self._rng.random()))

    def _request_once(self, payload: dict) -> dict:
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(_encode_frame(payload))
            header = self._recv_exact(_FRAME.size)
            (length,) = _FRAME.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ServeConnectionError(
                    self.host, self.port,
                    f"daemon announced a {length}-byte frame "
                    f"(cap {MAX_FRAME_BYTES}); treating as wire damage")
            data = self._recv_exact(length)
        except socket.timeout as exc:
            raise ServeConnectionError(
                self.host, self.port,
                f"read timed out after {self.request_timeout:g}s",
            ) from exc
        except ServeConnectionError:
            raise
        except (ConnectionError, OSError) as exc:
            raise ServeConnectionError(
                self.host, self.port,
                str(exc) or type(exc).__name__) from exc
        try:
            response = restricted_loads(data)
        except Exception as exc:
            # Corrupted pickle bytes fail in arbitrary ways (truncation,
            # flipped opcodes, allowlist rejections) — all of them mean
            # the same thing here: the frame did not survive the wire.
            raise ServeConnectionError(
                self.host, self.port,
                f"undecodable response frame: {exc!r}") from exc
        if isinstance(response, dict) and "answers" in response:
            return self._results(response)
        return response

    def _results(self, response: dict) -> dict:
        """Rebuild a query response's answers from the answer table."""
        received = self._received
        try:
            new, answers = response["new"], response["answers"]
            if type(new) is not list or type(answers) is not list:
                raise TypeError("new and answers must be lists")
            if response.get("reset"):
                received.clear()
            elif len(received) >= MAX_TABLE_ENTRIES:
                raise ValueError("a full answer table grew without a reset")
            received.extend(new)
            results = []
            for answer in answers:
                if type(answer) is tuple:
                    refs, reason, source = answer
                    results.append(DegradedResult(_pick(received, refs),
                                                  reason, source))
                else:
                    results.append(_pick(received, answer))
        except (TypeError, ValueError, LookupError) as exc:
            raise ServeConnectionError(
                self.host, self.port,
                f"malformed answer frame: {exc!r}") from exc
        return {"ok": True, "results": results}

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def query_batch(self, queries, timeout_ms: Optional[float] = None) -> List:
        """Query via the daemon; ``timeout_ms`` sets a per-request
        deadline enforced daemon-side (a ``deadline`` error frame comes
        back when it expires)."""
        request = {"kind": "query", "queries": list(queries)}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        response = self.request(request)
        if not response.get("ok"):
            raise ServeRejected(response.get("error", "rejected"),
                                error_type=response.get("error_type"),
                                retryable=response.get("retryable", False))
        return response["results"]

    def ping(self) -> dict:
        return self.request({"kind": "ping"})

    def stats(self) -> dict:
        response = self.request({"kind": "stats"})
        if not response.get("ok"):
            raise ServeRejected(response.get("error", "rejected"),
                                error_type=response.get("error_type"),
                                retryable=response.get("retryable", False))
        return response["stats"]

    def health(self) -> dict:
        response = self.request({"kind": "health"})
        if not response.get("ok"):
            raise ServeRejected(response.get("error", "rejected"),
                                error_type=response.get("error_type"),
                                retryable=response.get("retryable", False))
        return response["health"]

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
