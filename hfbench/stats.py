"""The benchmark's pure arithmetic: percentiles, span self time,
``-X importtime`` parsing, the seeded op order and report
canonicalisation.

Nothing here imports the program under test: the ruler must not move
when the program does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re


# --- percentiles --------------------------------------------------------------

def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q``-th percentile and how many samples lie beyond it.

    The rank is ``ceil(q / 100 * n)`` (at least 1); the value is the
    sample of that rank in ascending order, and ``beyond`` counts the
    samples ranked above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def client_rate(per_client: list[tuple[int, float]]) -> float:
    """Ops per second summed over closed-loop clients.

    Each client contributes its completed ops over its own elapsed time
    (window start to its last completion), so a client that finished its
    last op early does not dilute the rate with idle time.
    """
    return sum(done / elapsed for done, elapsed in per_client if done and elapsed > 0)


# --- span self time -----------------------------------------------------------

def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover, overlapping children counted once.

    A span is a dict with ``id``, ``parent`` (an id or ``None``) and
    ``t0``/``t1`` in nanoseconds on one monotonic clock; children may live
    in other threads or processes.
    """
    children: dict[str, list[tuple[int, int]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["t0"], span["t1"]))
    return {
        span["id"]: (span["t1"] - span["t0"])
        - covered(children.get(span["id"], []), span["t0"], span["t1"])
        for span in spans
    }


# --- -X importtime ------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(lines) -> list[dict]:
    """The import tree of ``-X importtime`` stderr lines.

    The interpreter prints each module after its nested imports, indented
    two spaces per level, so a module's children are the deeper entries
    printed since its previous sibling.  Returns the root nodes, each
    ``{"name", "self_us", "cum_us", "children"}``; other lines are ignored.
    """
    pending: list[tuple[int, dict]] = []
    for line in lines:
        match = _IMPORT_LINE.match(line.rstrip("\n"))
        if match is None:
            continue
        self_us, cum_us, indent, name = match.groups()
        level = (len(indent) - 1) // 2
        node = {"name": name, "self_us": int(self_us), "cum_us": int(cum_us),
                "children": []}
        while pending and pending[-1][0] > level:
            node["children"].insert(0, pending.pop()[1])
        pending.append((level, node))
    return [node for _, node in pending]


def _matches(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def import_seconds(roots: list[dict], package: str) -> float:
    """Cumulative import time of *package*: the outermost matching
    entries only, so a nested subpackage is not counted twice."""
    total = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if _matches(node["name"], package):
            total += node["cum_us"]
        else:
            stack.extend(node["children"])
    return total / 1e6


def module_count(roots: list[dict]) -> int:
    stack, count = list(roots), 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["children"])
    return count


# --- seeded op order ------------------------------------------------------------

def balanced_order(kinds: list[str], blocks: int, seed: int) -> list[str]:
    """*blocks* seeded permutations of *kinds*, concatenated: every kind
    appears equally often in each block, so any whole number of blocks
    is balanced, and the seed alone decides the order."""
    rng = random.Random(seed)
    order: list[str] = []
    for _ in range(blocks):
        block = list(kinds)
        rng.shuffle(block)
        order.extend(block)
    return order


# --- report canonicalisation ---------------------------------------------------

#: wall-clock fields, at any depth
TIMING_KEYS = frozenset({"wall_seconds", "seconds", "deadline_remaining_s"})
#: fields that depend on the machine or on this run's cache and worker
#: plan rather than on the result
LOCAL_KEYS = frozenset({"cache_dir", "workers", "cache_hits", "cache_misses",
                        "disposition"})


def canonical(data):
    """A copy of a report with timing and machine-local fields removed."""
    if isinstance(data, dict):
        return {
            key: canonical(value)
            for key, value in data.items()
            if key not in TIMING_KEYS and key not in LOCAL_KEYS
        }
    if isinstance(data, list):
        return [canonical(value) for value in data]
    return data


def result_view(data):
    """A canonical report as a warm re-run can reproduce it.

    A warm run skips every stage above its deepest cache hit, and a
    skipped stage carries no notes; the final stage always runs or loads.
    So the notes of every stage record but the last are dropped.
    """
    return _drop_upstream_notes(canonical(data))


def _drop_upstream_notes(data):
    if isinstance(data, dict):
        out = {}
        for key, value in data.items():
            if key == "stages" and isinstance(value, list):
                value = [{k: v for k, v in stage.items() if k != "notes"}
                         for stage in value[:-1]] + value[-1:]
            out[key] = _drop_upstream_notes(value)
        return out
    if isinstance(data, list):
        return [_drop_upstream_notes(value) for value in data]
    return data


def digest(data) -> str:
    """SHA-256 of a JSON document with sorted keys and exact floats."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()
