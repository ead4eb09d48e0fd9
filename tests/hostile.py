"""Pickles that run code when an unrestricted unpickler loads them.

Shared by the allowlist tests of every decoder that reads untrusted
bytes: a snapshot's payload, its page blobs and daemon frames.  Each payload
names the global it resolves first, so a test can assert the typed
rejection names it; the ``builtins`` and ``repro`` ones have a visible
side effect where they can (they create ``marker``), so a test can also
assert they never ran.
"""

import pickle
import struct
from typing import Dict, Tuple


class _Reduce:
    """Pickles as ``func(*args)``; nests to build call chains."""

    def __init__(self, func, args):
        self.func = func
        self.args = args

    def __reduce__(self):
        return self.func, self.args

    def __call__(self, *args):  # pickle only accepts callable reducers
        raise AssertionError("never called outside an unpickler")


def hostile_payloads(marker: str) -> Dict[str, Tuple[str, bytes]]:
    """``{case: (first global resolved, pickle bytes)}``."""
    from repro.workloads.files import dump

    touch = f"open({marker!r}, 'w').close()"
    os_module = _Reduce(__import__, ("os",))
    mkdir = _Reduce(getattr, (os_module, "mkdir"))
    cases = {
        "other-module": ("_struct.pack", struct.pack),
        "eval": ("builtins.eval", _Reduce(eval, (touch,))),
        "exec": ("builtins.exec", _Reduce(exec, (touch,))),
        "open": ("builtins.open", _Reduce(open, (marker, "w"))),
        "getattr": ("builtins.getattr", _Reduce(mkdir, (marker,))),
        "__import__": ("builtins.__import__", os_module),
        "repro-function": ("repro.workloads.files.dump",
                           _Reduce(dump, ([], marker))),
    }
    # Protocol 2 spells each global as text.  ``open`` is ``io.open``, so
    # respell it the way an attack on a ``builtins`` allowlist would.
    return {case: (name, pickle.dumps(obj, 2, fix_imports=False).replace(
                b"cio\nopen\n", b"cbuiltins\nopen\n"))
            for case, (name, obj) in cases.items()}
