"""``repro serve --workers N``: N pre-forked processes behind one port.

Each serving process answers whole requests in-process, over its own
``ShardedSegmentDatabase.open(directory)``, so no request, query list or
answer ever crosses a process boundary.  The parent only routes
connections:

* it binds the listening socket (one per address the host resolves
  to) with plain ``socket`` calls, then forks the N children before it
  starts any thread or event loop (fork copies only the calling thread,
  so a lock another thread held stays locked in the child);
* each child closes every descriptor it inherited except its own
  channel (a Unix ``SOCK_SEQPACKET`` socketpair with the parent) and
  stdio, opens the shards and runs a
  :class:`~repro.serving.daemon.ServeDaemon` on that channel;
* the parent's plain ``selectors`` loop accepts every connection and
  hands its descriptor to the next live child in round-robin order
  (``socket.send_fds``); a child that cannot take it (it just died) is
  skipped.  The children never accept on a shared socket: the kernel
  then splits a pair of connections unevenly about half the time
  (DESIGN.md §13).

Children talk back in JSON messages, one per packet: ``ready`` once
the shards are open, ``error`` when they cannot be, and ``report`` (the
daemon's drain report) on the way out.  EOF on a channel means that
child is gone: the parent reaps it and, unless it is stopping, forks a
replacement.  A child that cannot open the shards stops the start; once
the server is up, a replacement that cannot is reported on stderr and
the others keep serving.  A child that a signal kills before it is
ready (no ``error`` sent) is replaced, a few times in a row at most.
EOF on the child's side means the parent is gone: the child drains and
exits, so a SIGKILLed parent leaves no orphan holding its stdout.
SIGTERM/SIGINT make the parent stop accepting and SIGTERM every child;
it returns one report whose counters sum the children's.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import sys
import threading
import traceback
from typing import Callable, Dict, List, Optional

from .daemon import STOP_SIGNALS, ServeDaemon
from .sharded import ShardedSegmentDatabase

#: Drain-report counters the parent sums over its children.
SUMMED = ("requests", "queries", "batches", "rejected", "deadline_expired")
#: Largest message a child sends up its channel (a drain report).
_MAX_MESSAGE = 1 << 16
#: Children in a row that a signal may kill before they report ready and
#: still be replaced.  Such a death says nothing about the snapshot (the
#: OOM killer, an operator's SIGKILL), but a host that kills every child
#: must not make the parent fork forever.
MAX_UNREADY_KILLS = 3
_LISTEN = "listen"
_WAKE = "wake"


class _Child:
    def __init__(self, pid: int, channel: socket.socket):
        self.pid = pid
        self.channel = channel
        self.ready = False
        self.error: Optional[str] = None
        self.report: Optional[dict] = None


class PreforkServer:
    """Serve a sharded snapshot directory from ``workers`` forked daemons.

    ``open_kwargs`` go to each child's ``ShardedSegmentDatabase.open``
    and ``daemon_kwargs`` to its ``ServeDaemon``.  :meth:`run` must be
    called from the main thread of a process with no other thread.
    """

    def __init__(self, directory: str, workers: int,
                 host: str = "127.0.0.1", port: int = 0,
                 open_kwargs: Optional[dict] = None,
                 daemon_kwargs: Optional[dict] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.directory = directory
        self.workers = workers
        self.host = host
        self.port = port
        self.open_kwargs = dict(open_kwargs or {})
        self.daemon_kwargs = dict(daemon_kwargs or {})
        self._children: Dict[int, _Child] = {}
        self._reports: List[dict] = []
        self._shards = 0
        self._turn = 0
        self.announced = False
        self._stopping = False
        self._lost = 0  # children that ended during the stop unreported
        self._unready_kills = 0  # signal deaths before ready, in a row
        self._error: Optional[str] = None
        self._listeners: List[socket.socket] = []
        self._listening = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake: List[socket.socket] = []

    # ------------------------------------------------------------------
    # parent
    # ------------------------------------------------------------------
    def listen(self) -> int:
        """Bind every address ``host`` resolves to, all on one port, and
        return that port.  A resolve or bind failure raises ``OSError``
        before any child exists."""
        if self._listeners:
            return self.port
        infos = socket.getaddrinfo(self.host or None, self.port,
                                   type=socket.SOCK_STREAM,
                                   flags=socket.AI_PASSIVE)
        try:
            for family, _type, _proto, _name, address in dict.fromkeys(infos):
                listener = socket.create_server(
                    (address[0], self.port, *address[2:]), family=family)
                self._listeners.append(listener)
                listener.setblocking(False)
                self.port = listener.getsockname()[1]
        except BaseException:
            self._close_listeners()
            raise
        return self.port

    def run(self, on_ready: Callable[[int, int, List[int]], None]) -> dict:
        """Serve until SIGTERM/SIGINT; returns the combined drain report.

        ``on_ready(port, shards, pids)`` is called once, when every child
        has opened the shards.  The report's ``drained`` is true only if
        every child drained; a child that could not open the snapshot
        before that call, or the last child standing, stops the whole
        server, and the report then carries its message under
        ``error``.
        """
        self.listen()
        self._wake = list(socket.socketpair())
        for sock in self._wake:
            sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake[0], selectors.EVENT_READ, _WAKE)
        previous = {sig: signal.signal(sig, self._on_signal)
                    for sig in STOP_SIGNALS}
        previous_wakeup = signal.set_wakeup_fd(self._wake[1].fileno())
        try:
            for _ in range(self.workers):
                self._fork()
            while self._children:
                for key, _events in self._selector.select():
                    if key.data is _WAKE:
                        self._drain_wake()
                    elif key.data is _LISTEN:
                        self._accept(key.fileobj)
                    else:
                        self._read(key.data)
                if self._stopping:
                    self._stop_children()
                    continue
                ready = [c.ready for c in self._children.values()]
                if not self.announced and all(ready):
                    self.announced = True
                    on_ready(self.port, self._shards, list(self._children))
                self._set_listening(any(ready))
        finally:
            signal.set_wakeup_fd(previous_wakeup)
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self._close()
        report = {"drained": self._error is None and self._lost == 0,
                  "host": self.host, "port": self.port}
        for key in SUMMED:
            report[key] = sum(r.get(key, 0) for r in self._reports)
        report["workers"] = self._reports
        if self._error is not None:
            report["error"] = self._error
        return report

    def _on_signal(self, signum, frame) -> None:
        self._stopping = True

    def _drain_wake(self) -> None:
        try:
            while self._wake[0].recv(64):
                pass
        except BlockingIOError:
            pass

    def _fork(self) -> None:
        if threading.active_count() != 1:
            raise RuntimeError("refusing to fork: this process runs "
                               f"{threading.active_count()} threads")
        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        sys.stdout.flush()
        sys.stderr.flush()
        # Blocked across the fork and, in the child, until its daemon's
        # handlers exist; a stop sent meanwhile then drains it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                ours.close()
                self._child_main(theirs)  # never returns
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        ours.setblocking(False)
        child = _Child(pid, ours)
        self._children[pid] = child
        self._selector.register(ours, selectors.EVENT_READ, child)

    def _read(self, child: _Child) -> None:
        try:
            data = child.channel.recv(_MAX_MESSAGE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._reap(child)
            return
        message = json.loads(data)
        if "ready" in message:
            child.ready = True
            self._shards = message["shards"]
            self._unready_kills = 0
        elif "error" in message:
            child.error = message["error"]
        elif "report" in message:
            child.report = message["report"]

    def _reap(self, child: _Child) -> None:
        """``child`` closed its channel: collect it and, unless the
        server is stopping, replace it.

        A child that a signal killed before it became ready, without
        reporting an ``error``, is replaced too, up to
        :data:`MAX_UNREADY_KILLS` in a row.  Any other child that never
        became ready stops the start; after the ready banner it is only
        reported, so that one failed replacement does not take down the
        children still serving."""
        self._selector.unregister(child.channel)
        child.channel.close()
        del self._children[child.pid]
        _pid, status = os.waitpid(child.pid, 0)
        if child.report is not None:
            self._reports.append(child.report)
        elif self._stopping:
            self._lost += 1
        if self._stopping:
            return
        if child.ready:
            self._fork()
            return
        killed = os.WIFSIGNALED(status)
        if (killed and child.error is None
                and self._unready_kills < MAX_UNREADY_KILLS):
            self._unready_kills += 1
            self._fork()
            return
        if killed:
            why = (f"was killed by signal {os.WTERMSIG(status)} "
                   f"({self._unready_kills + 1} in a row)")
        else:
            why = f"exited with status {os.WEXITSTATUS(status)}"
        error = child.error or (f"serving process {child.pid} {why} "
                                f"before it was ready")
        if not self.announced or not self._children:
            self._error = error
            self._stopping = True
        else:
            print(f"serve: {error}; still serving with "
                  f"{len(self._children)} of {self.workers} processes",
                  file=sys.stderr, flush=True)

    def _stop_children(self) -> None:
        """Close the listeners and SIGTERM every child (once)."""
        if not self._listeners:
            return
        self._set_listening(False)
        self._close_listeners()
        for pid in self._children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:  # exited; its EOF is on the way
                pass

    def _set_listening(self, on: bool) -> None:
        """Accept connections only while some child can take them."""
        if on == self._listening:
            return
        for listener in self._listeners:
            if on:
                self._selector.register(listener, selectors.EVENT_READ,
                                        _LISTEN)
            else:
                self._selector.unregister(listener)
        self._listening = on

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _addr = listener.accept()
            except (BlockingIOError, ConnectionAbortedError):
                return
            with conn:
                self._hand_off(conn)

    def _hand_off(self, conn: socket.socket) -> None:
        """Pass ``conn`` to the next ready child.  If none can take it,
        the caller's close tells the client to reconnect."""
        live = [c for c in self._children.values() if c.ready]
        for i in range(len(live)):
            child = live[(self._turn + i) % len(live)]
            try:
                socket.send_fds(child.channel, [b"c"], [conn.fileno()])
            except OSError:  # full (wedged) or just died: try the next
                continue
            self._turn += i + 1
            return

    def _close(self) -> None:
        """Release the parent's sockets.  On an error path, children
        still running see EOF on their channels, drain and exit; they
        are waited for so that none outlives the parent."""
        for child in self._children.values():
            child.channel.close()
        for child in self._children.values():
            os.waitpid(child.pid, 0)
        self._children.clear()
        self._close_listeners()
        if self._selector is not None:
            self._selector.close()
        for sock in self._wake:
            sock.close()

    def _close_listeners(self) -> None:
        for listener in self._listeners:
            listener.close()
        self._listeners.clear()

    # ------------------------------------------------------------------
    # child
    # ------------------------------------------------------------------
    def _child_main(self, channel: socket.socket) -> None:
        """Run the child and exit it; never unwind into the parent's
        stack, whose ``finally`` blocks belong to the parent."""
        code = 1
        try:
            code = self._serve_child(channel)
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)

    def _serve_child(self, channel: socket.socket) -> int:
        signal.set_wakeup_fd(-1)
        for sig in STOP_SIGNALS:
            signal.signal(sig, signal.SIG_DFL)
        # Only the channel and stdio stay open: a child holding the
        # listener or another child's channel would keep that socket
        # alive after its owner died.
        for child in self._children.values():
            child.channel.close()
        self._close_listeners()
        self._selector.close()
        for sock in self._wake:
            sock.close()
        try:
            db = ShardedSegmentDatabase.open(self.directory,
                                             **self.open_kwargs)
        except Exception as exc:  # reported to the parent, which exits
            _send(channel, {"error": f"{type(exc).__name__}: {exc}"})
            return 1
        daemon = ServeDaemon(db, host=self.host, port=self.port,
                             channel=channel, **self.daemon_kwargs)
        _send(channel, {"ready": True, "shards": db.shard_count})
        report = daemon.run()
        report["pid"] = os.getpid()
        channel.setblocking(True)
        try:
            _send(channel, {"report": report})
        except OSError:  # the parent is gone; nobody reads the report
            pass
        return 0


def _send(channel: socket.socket, message: dict) -> None:
    channel.sendall(json.dumps(message).encode())
