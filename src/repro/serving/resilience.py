"""Fault injection for the serving layer's wire: typed errors, chaos.

PR 4 gave the *storage* layer a seeded, replayable fault model
(:class:`~repro.iosim.FaultSchedule`, CRCs, the crash-point oracle).
This module gives the serving layer's TCP conversation the same
treatment, built from two pieces:

:class:`RpcChaosSchedule`
    The serving twin of :class:`~repro.iosim.FaultSchedule` (same
    :class:`~repro.iosim.faults.ReplayableSchedule` plumbing): seeded,
    deterministic decisions about RPC frame faults (delay, truncation,
    corruption, connection reset), every injection logged to
    ``history`` so a failing chaos run ships its reproduction recipe.

:class:`ChaosProxy`
    A frame-aware TCP proxy between a client and a
    :class:`~repro.serving.daemon.ServeDaemon` that applies the
    schedule's frame faults to the response stream.  The daemon under
    test is untouched — exactly the faults a flaky network injects.

The typed error below is the contract the client keeps: a broken
conversation is *never* a raw traceback or a silent wrong answer; it is
a :class:`ServeConnectionError` (or the daemon's own typed error frame),
which ``ServeClient(retries=...)`` retries on a fresh connection.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import List, Optional

from ..iosim.faults import ReplayableSchedule

#: Frame fault kinds the chaos proxy can inject on a response frame.
FRAME_FAULTS = ("delay", "truncate", "corrupt", "reset")


class ServeConnectionError(ConnectionError):
    """The daemon connection died mid-conversation (typed, not a traceback).

    Raised by :class:`~repro.serving.daemon.ServeClient` for connect
    timeouts, read timeouts, resets, and short/undecodable frames —
    every way a TCP peer can vanish.  ``reason`` says which.
    """

    def __init__(self, host: str, port: int, reason: str):
        self.host = host
        self.port = port
        self.reason = reason
        super().__init__(f"{host}:{port}: {reason}")


class RpcChaosSchedule(ReplayableSchedule):
    """A seeded, replayable schedule of wire faults.

    Parameters
    ----------
    seed:
        Seeds the PRNG; identical seeds replay identical faults.
    frame_delay_rate / frame_delay_s:
        Probability that the proxy stalls a response frame, and for how
        long.
    frame_truncate_rate:
        Probability that a response frame is cut short and the
        connection closed (the client sees an incomplete frame).
    frame_corrupt_rate:
        Probability that response payload bytes are flipped (the
        client's restricted unpickler rejects the frame).
    conn_reset_rate:
        Probability that the connection is torn down instead of
        answering at all.

    Decisions are consumed in call order, so a reconnected client gets
    a *fresh* decision — exactly how a real flaky network behaves, and
    still fully replayable from the seed.
    """

    def __init__(
        self,
        seed: int = 0,
        frame_delay_rate: float = 0.0,
        frame_delay_s: float = 0.05,
        frame_truncate_rate: float = 0.0,
        frame_corrupt_rate: float = 0.0,
        conn_reset_rate: float = 0.0,
        enabled: bool = True,
    ):
        for name, rate in (
            ("frame_delay_rate", frame_delay_rate),
            ("frame_truncate_rate", frame_truncate_rate),
            ("frame_corrupt_rate", frame_corrupt_rate),
            ("conn_reset_rate", conn_reset_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        super().__init__(seed=seed, enabled=enabled)
        self.frame_delay_rate = frame_delay_rate
        self.frame_delay_s = frame_delay_s
        self.frame_truncate_rate = frame_truncate_rate
        self.frame_corrupt_rate = frame_corrupt_rate
        self.conn_reset_rate = conn_reset_rate
        self.frame_faults_injected = 0

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def next_frame_fault(self) -> Optional[str]:
        """Fault kind for the next proxied response frame, if any."""
        if not self.enabled:
            return None
        if self.conn_reset_rate and self._rng.random() < self.conn_reset_rate:
            return self._frame_fault("reset")
        if (self.frame_truncate_rate
                and self._rng.random() < self.frame_truncate_rate):
            return self._frame_fault("truncate")
        if (self.frame_corrupt_rate
                and self._rng.random() < self.frame_corrupt_rate):
            return self._frame_fault("corrupt")
        if self.frame_delay_rate and self._rng.random() < self.frame_delay_rate:
            return self._frame_fault("delay")
        return None

    def _frame_fault(self, kind: str) -> str:
        self.frame_faults_injected += 1
        self._log(f"frame-{kind}")
        return kind

    # ------------------------------------------------------------------
    # reproduction
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "frame_delay_rate": self.frame_delay_rate,
            "frame_delay_s": self.frame_delay_s,
            "frame_truncate_rate": self.frame_truncate_rate,
            "frame_corrupt_rate": self.frame_corrupt_rate,
            "conn_reset_rate": self.conn_reset_rate,
            "enabled": self.enabled,
            "frame_faults_injected": self.frame_faults_injected,
            "history": list(self.history),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RpcChaosSchedule":
        return cls(
            seed=data.get("seed", 0),
            frame_delay_rate=data.get("frame_delay_rate", 0.0),
            frame_delay_s=data.get("frame_delay_s", 0.05),
            frame_truncate_rate=data.get("frame_truncate_rate", 0.0),
            frame_corrupt_rate=data.get("frame_corrupt_rate", 0.0),
            conn_reset_rate=data.get("conn_reset_rate", 0.0),
            enabled=data.get("enabled", True),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RpcChaosSchedule(seed={self.seed}, "
            f"frame_faults={self.frame_faults_injected})"
        )


_FRAME = struct.Struct(">I")


class ChaosProxy:
    """A TCP proxy that applies an :class:`RpcChaosSchedule` to frames.

    Sits between a :class:`~repro.serving.daemon.ServeClient` and a
    :class:`~repro.serving.daemon.ServeDaemon`.  Requests pass through
    verbatim; each *response* frame consults the schedule and is
    forwarded, delayed, truncated (then the connection closed), bitwise
    corrupted, or replaced by an abrupt connection teardown.  The client
    therefore sees exactly the failure surface a flaky network
    produces, while the daemon stays healthy — which is the point: the
    chaos oracle holds the *client's* retry/timeout machinery to the
    never-wrong-never-hung contract.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 schedule: RpcChaosSchedule, host: str = "127.0.0.1"):
        self.upstream = (upstream_host, upstream_port)
        self.schedule = schedule
        self._lock = threading.Lock()  # schedule decisions are serialized
        self._listener = socket.create_server((host, 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closing = threading.Event()
        self._conns: List[socket.socket] = []
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._relay, args=(client,),
                             daemon=True).start()

    def _relay(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=10)
        except OSError:
            client.close()
            return
        with self._lock:
            self._conns.extend((client, upstream))

        def pump_requests() -> None:
            try:
                while True:
                    chunk = client.recv(65536)
                    if not chunk:
                        break
                    upstream.sendall(chunk)
            except OSError:
                pass
            finally:
                _shutdown(upstream)

        threading.Thread(target=pump_requests, daemon=True).start()
        try:
            self._pump_responses(upstream, client)
        finally:
            _close_both(client, upstream)

    def _pump_responses(self, upstream: socket.socket,
                        client: socket.socket) -> None:
        while True:
            header = _recv_exact(upstream, _FRAME.size)
            if header is None:
                return
            (length,) = _FRAME.unpack(header)
            payload = _recv_exact(upstream, length)
            if payload is None:
                return
            with self._lock:
                fault = self.schedule.next_frame_fault()
            try:
                if fault == "reset":
                    return  # close both ends without answering
                if fault == "delay":
                    time.sleep(self.schedule.frame_delay_s)
                elif fault == "truncate":
                    client.sendall(header + payload[: max(1, length // 2)])
                    return  # short frame, then hang up
                elif fault == "corrupt":
                    corrupted = bytearray(payload)
                    for i in range(0, len(corrupted), 7):
                        corrupted[i] ^= 0xFF
                    client.sendall(header + bytes(corrupted))
                    continue
                client.sendall(header + payload)
            except OSError:
                return

    def close(self) -> None:
        self._closing.set()
        # shutdown wakes the thread blocked in accept; close alone
        # would leave it there until the join below timed out.
        _close_both(self._listener)
        with self._lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            _close_both(sock)
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def _close_both(*socks: socket.socket) -> None:
    """Shut each socket down, then close it.  The shutdown is what ends
    the conversation at once: a close while another thread is blocked in
    ``recv`` on the socket sends no FIN, so the peer would wait out its
    read timeout."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # not connected, or already shut down
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
