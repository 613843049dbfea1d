"""Digest of the results a stage cache holds, not of its encoding.

    PYTHONPATH=src python3 hfbench/cache_digest.py CACHE_DIR...

Prints one JSON object mapping each CACHE_DIR to a digest of every
ndarray in its decoded stage payloads: the sorted SHA-256 digests of each
array's dtype, shape and bytes.  Entries are decoded with the program's
own ``StageCache(root).load(key)``, the key being a file name up to its
first dot, so file names, key derivation, pickle protocol, sidecar split
and directory layout do not enter the digest; the arrays the stages
computed do.  This is a check, run after the timed window, not a
measurement.
"""

from __future__ import annotations

import enum
import hashlib
import json
import sys
import types
from pathlib import Path

import numpy as np

_LEAVES = (str, bytes, bytearray, int, float, complex, bool, type(None), type,
           enum.Enum, np.generic, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.MethodType)


def arrays(obj) -> list[np.ndarray]:
    """Every distinct ndarray reachable from *obj* through containers and
    object attributes, each counted once."""
    found, seen, stack = [], set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, _LEAVES):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            for cls in type(item).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(item, slot):
                        stack.append(getattr(item, slot))
    return found


def array_digest(array: np.ndarray) -> str:
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).data)
    return h.hexdigest()


def combine(digests: list[str]) -> str:
    """One digest of many, whatever their order."""
    return hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()


def cache_digest(root: Path) -> str:
    from repro.runtime.cache import StageCache

    cache = StageCache(root)
    keys = sorted({path.name.split(".", 1)[0] for path in root.rglob("*") if path.is_file()})
    digests = []
    for key in keys:
        entry = cache.load(key)
        if entry is not None:
            digests += [array_digest(a) for a in arrays(entry[0])]
    return combine(digests)


if __name__ == "__main__":
    print(json.dumps({root: cache_digest(Path(root)) for root in sys.argv[1:]}))
