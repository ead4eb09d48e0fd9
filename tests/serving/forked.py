"""Helpers for tests that run ``python -m repro serve DIR`` as a
subprocess and watch its process tree through ``/proc``."""

import json
import os
import select
import signal
import subprocess
import sys
import time

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))
BANNER_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


def labels(results):
    return [sorted(s.label for s in r) for r in results]


def _state(pid):
    """``pid``'s state letter and parent pid, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def alive(pid):
    state = _state(pid)
    return state is not None and state[0] != "Z"


def live_children(parent):
    """Live child pids of ``parent``."""
    out = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            state = _state(int(entry))
            if state is not None and state[0] != "Z" and state[1] == parent:
                out.add(int(entry))
    return out


def maps_shm(pid):
    with open(f"/proc/{pid}/maps") as fh:
        return [line for line in fh if "/dev/shm/rpr-" in line]


def dev_shm_segments():
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("rpr-"))
    except FileNotFoundError:  # no /dev/shm: nothing can be left there
        return []


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def blocked_in_fifo_open(parent, known):
    """Wait for a child of ``parent`` outside ``known`` that sits in
    ``open`` on a FIFO with no writer; returns its pid."""
    deadline = time.monotonic() + BANNER_TIMEOUT_S
    while True:
        for pid in live_children(parent) - set(known):
            try:
                with open(f"/proc/{pid}/wchan") as fh:
                    if fh.read() == "wait_for_partner":
                        return pid
            except OSError:
                continue
        assert time.monotonic() < deadline, "no child blocked in open"
        time.sleep(0.02)


def damage(path):
    """Swap ``path`` for a copy with one byte flipped mid-file."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0xFF
    with open(path + ".tmp", "wb") as fh:
        fh.write(data)
    os.replace(path + ".tmp", path)


def serve_cmd(directory, *args, workers=2):
    return [sys.executable, "-m", "repro", "serve", directory,
            "--workers", str(workers), *args]


class Daemon:
    """One ``python -m repro serve DIR --workers N`` subprocess.

    ``children`` lists the serving processes the ready banner named
    (none for ``workers=0``, where ``pid`` itself serves).
    """

    def __init__(self, directory, *args, workers=2):
        self.proc = subprocess.Popen(
            serve_cmd(directory, *args, workers=workers),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=serve_env(),
            text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BANNER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        assert line, "no ready banner"
        self.banner = json.loads(line)
        self.port = self.banner["port"]
        self.children = self.banner["children"]

    def stop(self):
        """SIGTERM; returns the drain report after checking exit 0.  The
        rest of the server's stderr is kept in ``stderr``."""
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=EXIT_TIMEOUT_S)
        assert self.proc.returncode == 0, err
        self.stderr = err
        return json.loads(out.splitlines()[-1])

    def kill(self):
        """Leave nothing running, whatever state the test left."""
        pids = live_children(self.proc.pid) | set(self.children)
        if self.proc.poll() is None:
            self.proc.kill()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.communicate()

    def replaced(self, *victims):
        """Wait until replacements stand in for ``victims``; returns the
        live child pids."""
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while True:
            now = live_children(self.proc.pid)
            if len(now) == len(self.children) and not now & set(victims):
                return now
            assert time.monotonic() < deadline, "no replacement child"
            time.sleep(0.05)
