"""Span recorder for traced benchmark runs.

``sitecustomize`` in this directory loads it into every interpreter of a
traced op (the op's main process, the daemon and spawned workers; forked
pool workers inherit it).  It wraps each layer's public functions in the
module that defines them, right after that module executes and before any
caller can bind the name, so ``from X import f`` in a caller picks up the
wrapper.  Nothing in the program's source changes.

Spans stay in memory and are appended to ``<dir>/spans-<pid>.jsonl`` when
the outermost span of a thread closes and at exit.  A pool task carries
the id of the span that submitted it, so work done in a worker process is
a child of the span that waited for it.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: written to stderr by the CLI launcher just before ``main()`` runs, so
#: ``-X importtime`` lines after it belong to imports made inside ``main``
MAIN_MARK = b"hfbench: main starts\n"

_span_dir: str | None = None
_lock = threading.Lock()
_buffer: list[dict] = []
_local = threading.local()
_ids = itertools.count(1)
_pid = os.getpid()


def _after_fork() -> None:
    global _lock, _buffer, _local, _ids, _pid
    _lock = threading.Lock()
    _buffer = []
    _local = threading.local()
    _ids = itertools.count(1)
    _pid = os.getpid()


def _stack() -> list[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _current_parent() -> str | None:
    stack = _stack()
    return stack[-1] if stack else getattr(_local, "inherited", None)


def flush() -> None:
    if _span_dir is None:
        return
    with _lock:
        if not _buffer:
            return
        text = "".join(json.dumps(s, separators=(",", ":")) + "\n" for s in _buffer)
        _buffer.clear()
        with open(os.path.join(_span_dir, f"spans-{_pid}.jsonl"), "a") as fh:
            fh.write(text)


def traced(layer: str, fn, count=None):
    """*fn* recording one span per call under *layer*; ``count(fn, args,
    kwargs, result)`` adds work counts to a span whose call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _current_parent()
        span_id = f"{_pid}.{next(_ids)}"
        stack = _stack()
        stack.append(span_id)
        t0 = time.monotonic_ns()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
            span = {"layer": layer, "id": span_id, "parent": parent,
                    "t0": t0, "t1": t1}
            if ok and count is not None:
                span["n"] = count(fn, args, kwargs, result)
            with _lock:
                _buffer.append(span)
            if not stack:
                flush()

    return wrapper


class _PoolTask:
    """A pool task that runs under the span that submitted it."""

    def __init__(self, fn, parent: str | None) -> None:
        self.fn = fn
        self.parent = parent

    def __call__(self, *args, **kwargs):
        _local.inherited = self.parent
        try:
            return self.fn(*args, **kwargs)
        finally:
            _local.inherited = None
            flush()


# --- work counts ------------------------------------------------------------------

def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {**bound.arguments.pop("kwargs", {}), **bound.arguments}


def _count_acquire(fn, args, kwargs, stack) -> dict:
    return {"slices": len(stack.images),
            "px": sum(int(img.size) for img in stack.images)}


def _count_denoise(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    # 60 is the Chambolle solver's own default iteration count.
    iterations = a.get("iterations", 60)
    return {"px_iters": sum(int(img.size) for img in a["images"]) * iterations}


def _count_register(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    n = len(a["images"])
    pairs = sum(1 for i in range(1, n) for k in a["baselines"] if i - k >= 0)
    # exhaustive search: every (dx, dz) in the square window is scored
    return {"mi_candidates": pairs * (2 * a["search_px"] + 1) ** 2}


def _count_batch(fn, args, kwargs, outcomes) -> dict:
    a = _arguments(fn, args, kwargs)
    instances = len(a["vt_mismatches"])
    steps = len(outcomes[0].result.time_ns) if outcomes else 0
    return {"instances": instances, "instance_steps": instances * steps}


def _count_devices(fn, args, kwargs, circuit) -> dict:
    return {"devices": len(circuit.devices)}


def _count_load(fn, args, kwargs, entry) -> dict:
    if entry is None:
        return {"hits": 0}
    cache, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
    return {"hits": 1, "bytes": cache.entry_bytes(key)}


def _count_store(fn, args, kwargs, nbytes) -> dict:
    return {"bytes": int(nbytes)}


def _count_stages(fn, args, kwargs, result) -> dict:
    stages = result[1]
    return {
        "stages_run": sum(1 for m in stages if m.disposition == "run"),
        "stages_skipped": sum(1 for m in stages if m.disposition == "skip"),
        "stage_hits": sum(1 for m in stages if m.cache_hit),
        "stage_lookups": len(stages),
    }


def _count_quarantined(fn, args, kwargs, report) -> dict:
    return {"quarantined": len(report.quarantined)}


#: module -> [(attribute path, layer, count function or None)]
PATCHES: dict[str, list[tuple[str, str, object]]] = {
    "repro.layout.generator": [
        ("generate_sa_region", "layout.generate", None),
        ("generate_chip_layout", "layout.generate", None),
    ],
    "repro.imaging.voxel": [("voxelize", "imaging.voxelize", None)],
    "repro.imaging.fib": [("acquire_stack", "imaging.acquire", _count_acquire)],
    "repro.pipeline.denoise": [("denoise_stack", "pipeline.denoise", _count_denoise)],
    "repro.pipeline.register": [("align_stack", "pipeline.register", _count_register)],
    "repro.pipeline.stack": [
        ("assemble_volume", "pipeline.stack", None),
        ("planar_views", "pipeline.stack", None),
        ("qc_stack", "pipeline.stack", None),
    ],
    "repro.reveng.features": [("PlanarFeatures.from_views", "pipeline.segment", None)],
    "repro.reveng.connectivity": [("extract_circuit", "reveng", _count_devices)],
    "repro.reveng.workflow": [("finish_extraction", "reveng", None)],
    "repro.analog.sense_amp": [("SenseAmpBench.run_batch", "analog.run_batch", _count_batch)],
    "repro.analog.characterizer": [
        ("characterize", "analog.characterize", None),
        ("CharacterizationReport.to_json", "runtime.report.to_json", None),
    ],
    "repro.runtime.cache": [
        ("StageCache.load", "runtime.cache.load", _count_load),
        ("StageCache.store", "runtime.cache.store", _count_store),
    ],
    "repro.runtime.engine": [
        ("run_chip_stages", "runtime.engine", _count_stages),
        ("chain_keys", "runtime.engine.keys", None),
    ],
    "repro.runtime.campaign": [
        ("run_campaign", "runtime.campaign", _count_quarantined),
        ("CampaignReport.to_json", "runtime.report.to_json", None),
    ],
    "repro.catalog.campaign": [
        ("run_catalog_campaign", "catalog", None),
        ("CatalogReport.to_json", "runtime.report.to_json", None),
    ],
    "repro.serve.spec": [("run_job", "serve.run_job", None)],
}

def _patch(module) -> None:
    for path, layer, count in PATCHES.get(module.__name__, ()):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = traced(layer, fn, count)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    if module.__name__ == "concurrent.futures.process":
        submit = module.ProcessPoolExecutor.submit

        def traced_submit(self, fn, /, *args, **kwargs):
            return submit(self, _PoolTask(fn, _current_parent()), *args, **kwargs)

        module.ProcessPoolExecutor.submit = traced_submit


class _Loader(importlib.abc.Loader):
    def __init__(self, inner) -> None:
        self.inner = inner

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module) -> None:
        self.inner.exec_module(module)
        _patch(module)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name not in PATCHES and name != "concurrent.futures.process":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _Loader(spec.loader)
        return spec


def install(span_dir: str) -> None:
    global _span_dir
    _span_dir = span_dir
    os.makedirs(span_dir, exist_ok=True)
    sys.meta_path.insert(0, _Finder())
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(flush)
