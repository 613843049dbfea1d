"""Benchmark of the HiFi-DRAM reproduction through its real entry points.

    python3 hfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding
``src/repro``).  Workloads:

* ``campaign_cold``       fresh ``python -m repro campaign`` processes,
                          one chip each, empty stage cache;
* ``characterize_cells``  fresh ``python -m repro characterize`` processes,
                          one sense-amp cell each, empty stage cache;
* ``serve_warm``          warm jobs against one ``python -m repro serve``
                          daemon over HTTP.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
Every op's output is checked; a failed check counts as a failed op.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TRACER = BENCH / "tracer"
sys.path[:0] = [str(BENCH), str(TRACER)]

import hfbench_trace  # noqa: E402  (for its marker only; installs nothing)
import procs  # noqa: E402
import stats  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".hfbench_work"
MAIN_MARK = hfbench_trace.MAIN_MARK.decode().strip()

#: closed-loop clients; the box has two CPUs
CLIENTS = 2
#: fresh interpreters timed per CLI run for ``setup_s``
SETUP_REPS = 5
#: throwaway daemons timed per serve run, beside the priming and load daemons
SERVE_THROWAWAY_DAEMONS = 3
OP_TIMEOUT_S = 150.0
#: units each client runs whatever the window (a characterize unit is two cells)
MIN_UNITS = {"campaign_cold": 3, "characterize_cells": 2}
#: the mismatch seeds of characterize ops and of the serve characterize
#: spec, and the catalog seeds of the serve catalog spec; the run seed
#: picks their order, so every result has a golden digest
MISMATCH_SEEDS = (11, 22, 33)
CATALOG_SEEDS = (1, 2, 3)

GOLDEN = json.loads((BENCH / "golden.json").read_text())


# --- ops ------------------------------------------------------------------------------

@dataclass
class Op:
    """One completed (or failed) op as seen from outside."""

    ok: bool
    seconds: float
    peak_mb: float = 0.0
    error: str = ""
    stderr: str = ""
    workdir: Path | None = None
    extra: dict = field(default_factory=dict)


def program_env(span_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("HFBENCH_SPANS", None)
    path = [str(SRC)]
    if span_dir is not None:
        path.insert(0, str(TRACER))
        env["HFBENCH_SPANS"] = str(span_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_cli(args: list[str], workdir: Path, traced: bool) -> Op:
    """One fresh ``python -m repro ARGS`` process in its own group.

    The op fails on a non-zero exit, a group member outliving the leader,
    or a new ``/dev/shm/repro_dp_*`` segment left behind.  Its report,
    stdout, stage cache and spans stay in *workdir* for :func:`verify_cli`,
    which runs after the timed window.
    """
    workdir.mkdir(parents=True)
    full = [*args, "--cache", str(workdir / "cache"), "--json", str(workdir / "report.json")]
    span_dir = workdir / "spans" if traced else None
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(TRACER / "launch.py"), *full]
    else:
        cmd = [sys.executable, "-m", "repro", *full]
    shm_before = procs.shm_segments()
    t0 = time.monotonic()
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        proc = procs.spawn(cmd, program_env(span_dir), cwd=workdir, stdout=out, stderr=err)
    code, peak_mb = procs.wait_peak(proc, OP_TIMEOUT_S)
    seconds = time.monotonic() - t0
    if seconds >= OP_TIMEOUT_S:
        procs.reap_group(proc.pid)
        return Op(False, seconds, error="op timed out")
    op = Op(True, seconds, peak_mb, workdir=workdir)
    if not procs.reap_group(proc.pid):
        op.ok, op.error = False, "a process of the op's group outlived it"
    elif procs.shm_segments() - shm_before:
        op.ok, op.error = False, "op left a /dev/shm/repro_dp_* segment"
    elif code != 0:
        stderr = (workdir / "stderr").read_text(errors="replace")
        op.ok, op.error = False, f"exit code {code}: {stderr[-300:]}"
    return op


def cache_digests(dirs: list[Path]) -> dict[str, str]:
    """:mod:`cache_digest` of each stage cache, in one helper process."""
    if not dirs:
        return {}
    proc = subprocess.run([sys.executable, str(BENCH / "cache_digest.py"), *map(str, dirs)],
                          env=program_env(), capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, start_new_session=True)
    if proc.returncode != 0:
        return {}
    return json.loads(proc.stdout)


def verify_cli(ops: list[Op]) -> None:
    """Check every op's report against its check; failed checks fail the op.

    Runs after the timed window.  ``op.extra["check"]`` is a function of
    ``(report, stdout, cache_digest)`` returning an error string or ``""``.
    """
    live = [op for op in ops if op.ok]
    digests = cache_digests([op.workdir / "cache" for op in live
                             if op.extra.get("digest_cache")])
    for op in live:
        op.stderr = (op.workdir / "stderr").read_text(errors="replace")
        try:
            report = json.loads((op.workdir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            op.ok, op.error = False, f"no readable report: {exc}"
            continue
        stdout = (op.workdir / "stdout").read_text(errors="replace")
        op.error = op.extra["check"](report, stdout, digests.get(str(op.workdir / "cache")))
        op.ok = not op.error


def check_campaign(target: str):
    golden = GOLDEN["campaign_cold"][target]

    def check(report: dict, stdout: str, cache_digest: str | None) -> str:
        if report.get("schema_version") != "campaign-report/3":
            return f"schema {report.get('schema_version')!r}"
        chip = report.get("chips", {}).get(target)
        if chip is None or report.get("quarantined"):
            return f"chip {target} missing or quarantined"
        if chip["summary"].get("topology") != target:
            return f"identified {chip['summary'].get('topology')!r}, expected {target}"
        if f"{target}: topology={target}" not in stdout or \
                "validated(complete=True" not in stdout:
            return "validation incomplete"
        if stats.digest(stats.canonical(report)) != golden["report"]:
            return "canonical report digest differs from the golden digest"
        # The report does not show intermediate results (a denoise change
        # can leave every reported figure equal), so the arrays the stages
        # wrote to the cold cache are pinned too.
        if cache_digest is None:
            return "stage cache could not be decoded"
        if cache_digest != golden["stage_arrays"]:
            return "stage cache arrays differ from the golden digest"
        return ""
    return check


_CELL_FIGURES = ("sensing_latency_ns", "restore_latency_ns", "switched_energy_fj",
                 "offset_tolerance_v")
_YIELD_FIGURES = ("yield_fraction", "latency_mean_ns", "latency_p95_ns")


def check_characterize(topology: str, mismatch_seed: int):
    golden = GOLDEN["characterize_cells"][topology][str(mismatch_seed)]

    def check(report: dict, stdout: str, cache_digest: str | None) -> str:
        if report.get("schema_version") != "characterization-report/1":
            return f"schema {report.get('schema_version')!r}"
        if report.get("quarantined"):
            return f"quarantined cells {sorted(report['quarantined'])}"
        cells = report.get("cells", {})
        if len(cells) != 1:
            return f"{len(cells)} cells, expected 1"
        cell = next(iter(cells.values()))
        if cell.get("topology") != topology:
            return f"cell topology {cell.get('topology')!r}"
        figures = [cell.get(k) for k in _CELL_FIGURES]
        figures += [cell.get("yield", {}).get(k) for k in _YIELD_FIGURES]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in figures):
            return "non-finite figure of merit"
        if not 0.0 <= cell["yield"]["yield_fraction"] <= 1.0:
            return "yield outside [0, 1]"
        # Every repeat of a cell equals the golden digest, so repeats are
        # bit-identical to the first occurrence too.
        if stats.digest(stats.canonical(cell)) != golden:
            return "cell digest differs from the golden digest"
        return ""
    return check


# --- closed loop ---------------------------------------------------------------------------

def closed_loop(units: list, seconds: float, run_unit, shared: bool = True,
                min_units: int = 1):
    """Run *units* from CLIENTS threads for a window of *seconds*.

    Each client runs whole units, at least *min_units* of them.  After
    those it starts another unit only if the unit should end inside the
    window, judged by the length of its own previous unit, so a run
    lasts about ``max(seconds, min_units units)`` however long a unit
    is.  With ``shared`` the clients take turns on one unit sequence;
    otherwise every client walks the whole sequence.  *run_unit* only
    runs and times; checks come after the window.  Returns ``(ops,
    elapsed)``: every op with its client, and each client's seconds from
    start to its last completion.
    """
    counter = itertools.count()
    lock = threading.Lock()
    ops: list[tuple[int, Op]] = []
    elapsed = [0.0] * CLIENTS
    start = time.monotonic()
    deadline = start + seconds

    def client(c: int) -> None:
        own = itertools.count()
        n, last, unit_s = 0, start, 0.0
        while n < min_units or last + unit_s <= deadline:
            with lock:
                k = next(counter) if shared else next(own)
            if k >= len(units):
                break
            for op in run_unit(c, k, units[k]):
                with lock:
                    ops.append((c, op))
            n += 1
            unit_s, last = time.monotonic() - last, time.monotonic()
        elapsed[c] = last - start

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return ops, elapsed


def ops_per_s(ops: list[tuple[int, Op]], elapsed: list[float]) -> float:
    """:func:`stats.client_rate` over the ops that passed their checks."""
    return stats.client_rate([(sum(op.ok for c, op in ops if c == client), seconds)
                              for client, seconds in enumerate(elapsed)])


# --- set-up time ---------------------------------------------------------------------------

def cli_setup_seconds() -> list[float]:
    """Fresh interpreters timed from spawn until ``repro.__main__`` is imported."""
    code = "import os, repro.__main__; os.write(1, b'ready\\n')"
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        proc = procs.spawn([sys.executable, "-c", code], program_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
        procs.reap_group(proc.pid)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"cannot import repro.__main__: {err.decode()[-300:]}")
        samples.append(elapsed)
    return samples


# --- per-layer attribution ------------------------------------------------------------------

LAYERS = (
    "cli", "layout.generate", "imaging.voxelize", "imaging.acquire",
    "pipeline.denoise", "pipeline.register", "pipeline.stack", "pipeline.segment",
    "reveng", "analog.run_batch", "analog.characterize", "runtime.cache.load",
    "runtime.cache.store", "runtime.engine", "runtime.engine.keys",
    "runtime.campaign", "runtime.report.to_json", "catalog", "serve.run_job",
)


def load_spans(span_dir: Path | None, since_ns: int = 0) -> list[dict]:
    spans = []
    if span_dir is not None and span_dir.is_dir():
        for path in sorted(span_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                spans.append(json.loads(line))
    return [s for s in spans if s["t0"] >= since_ns]


class LayerTally:
    """Self time, calls and work counts per layer, summed over traced ops."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, float] = {}
        self.imports = {"repro": 0.0, "scipy": 0.0, "modules": 0}
        self.import_procs = 0

    def add_spans(self, spans: list[dict]) -> None:
        own = stats.self_times(spans)
        for span in spans:
            layer = span["layer"]
            self.self_ns[layer] += own[span["id"]]
            self.calls[layer] += 1
            for key, value in span.get("n", {}).items():
                name = f"{layer}.{key}"
                self.counts[name] = self.counts.get(name, 0) + value

    def add_imports(self, stderr: str, until_main: bool) -> None:
        lines = stderr.splitlines()
        if until_main and MAIN_MARK in lines:
            lines = lines[:lines.index(MAIN_MARK)]
        roots = stats.parse_importtime(lines)
        self.imports["repro"] += stats.import_seconds(roots, "repro")
        self.imports["scipy"] += stats.import_seconds(roots, "scipy")
        self.imports["modules"] += stats.module_count(roots)
        self.import_procs += 1

    def attributed_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        n = max(n_ops, 1)
        n_procs = max(self.import_procs, 1)
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "import.repro_s": (self.imports["repro"] / n_procs, "s"),
            "import.scipy_s": (self.imports["scipy"] / n_procs, "s"),
            "import.modules": (self.imports["modules"] / n_procs, "count"),
            "cli.self_s": (s["cli"] / n, "s"),
            "layout.generate.self_s": (s["layout.generate"] / n, "s"),
            "imaging.voxelize.self_s": (s["imaging.voxelize"] / n, "s"),
            "imaging.acquire.self_s": (s["imaging.acquire"] / n, "s"),
            "imaging.acquire.slices": (c.get("imaging.acquire.slices", 0) / n, "count"),
            "imaging.acquire.ns_per_px": (
                ratio(self.self_ns["imaging.acquire"], c.get("imaging.acquire.px", 0)), "ns"),
            "pipeline.denoise.self_s": (s["pipeline.denoise"] / n, "s"),
            "pipeline.denoise.px_iters": (c.get("pipeline.denoise.px_iters", 0) / n, "count"),
            "pipeline.denoise.ns_per_px_iter": (
                ratio(self.self_ns["pipeline.denoise"],
                      c.get("pipeline.denoise.px_iters", 0)), "ns"),
            "pipeline.register.self_s": (s["pipeline.register"] / n, "s"),
            "pipeline.register.mi_candidates": (
                c.get("pipeline.register.mi_candidates", 0) / n, "count"),
            "pipeline.register.us_per_candidate": (
                ratio(self.self_ns["pipeline.register"] / 1e3,
                      c.get("pipeline.register.mi_candidates", 0)), "us"),
            "pipeline.stack.self_s": (s["pipeline.stack"] / n, "s"),
            "pipeline.segment.self_s": (s["pipeline.segment"] / n, "s"),
            "reveng.self_s": (s["reveng"] / n, "s"),
            "reveng.devices": (c.get("reveng.devices", 0) / n, "count"),
            "analog.run_batch.calls": (self.calls["analog.run_batch"] / n, "count"),
            "analog.run_batch.self_s": (s["analog.run_batch"] / n, "s"),
            "analog.run_batch.instances": (
                c.get("analog.run_batch.instances", 0) / n, "count"),
            "analog.run_batch.instance_steps": (
                c.get("analog.run_batch.instance_steps", 0) / n, "count"),
            "analog.ns_per_instance_step": (
                ratio(self.self_ns["analog.run_batch"],
                      c.get("analog.run_batch.instance_steps", 0)), "ns"),
            "analog.characterize.self_s": (s["analog.characterize"] / n, "s"),
            "runtime.cache.load.calls": (self.calls["runtime.cache.load"] / n, "count"),
            "runtime.cache.load.self_s": (s["runtime.cache.load"] / n, "s"),
            "runtime.cache.load.bytes": (c.get("runtime.cache.load.bytes", 0) / n, "bytes"),
            "runtime.cache.lookups": (
                c.get("runtime.engine.stage_lookups", 0) / n, "count"),
            "runtime.cache.hit_ratio": (
                ratio(c.get("runtime.engine.stage_hits", 0),
                      c.get("runtime.engine.stage_lookups", 0)), "ratio"),
            "runtime.cache.store.calls": (self.calls["runtime.cache.store"] / n, "count"),
            "runtime.cache.store.self_s": (s["runtime.cache.store"] / n, "s"),
            "runtime.cache.store.bytes": (
                c.get("runtime.cache.store.bytes", 0) / n, "bytes"),
            "runtime.engine.self_s": (s["runtime.engine"] / n, "s"),
            "runtime.engine.keys_s": (s["runtime.engine.keys"] / n, "s"),
            "runtime.engine.stages_run": (
                c.get("runtime.engine.stages_run", 0) / n, "count"),
            "runtime.engine.stages_skipped": (
                c.get("runtime.engine.stages_skipped", 0) / n, "count"),
            "runtime.campaign.calls": (self.calls["runtime.campaign"] / n, "count"),
            "runtime.campaign.self_s": (s["runtime.campaign"] / n, "s"),
            "runtime.campaign.quarantined": (
                c.get("runtime.campaign.quarantined", 0) / n, "count"),
            "runtime.report.to_json_s": (s["runtime.report.to_json"] / n, "s"),
            "catalog.self_s": (s["catalog"] / n, "s"),
            "serve.run_job.self_s": (s["serve.run_job"] / n, "s"),
        }


SERVE_LAYER_KEYS = ("serve.queue_wait_p50_s", "serve.run_p50_s", "serve.client_p50_s",
                    "serve.rejected", "serve.events_per_job")


def trace_metrics(tally: LayerTally, n_ops: int, op_seconds: float,
                  attributed_s: float, overhead: float, serve: dict | None = None) -> dict:
    out = tally.metrics(n_ops)
    serve = serve or {}
    units = {"serve.rejected": "count", "serve.events_per_job": "count"}
    for key in SERVE_LAYER_KEYS:
        out[key] = (serve.get(key, 0.0), units.get(key, "s"))
    n = max(n_ops, 1)
    out["trace.attributed_share"] = (attributed_s / op_seconds if op_seconds else 0.0,
                                     "ratio")
    out["trace.unattributed_s"] = ((op_seconds - attributed_s) / n, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def print_layer_table(metrics: dict, n_ops: int, base: str) -> None:
    print(f"per-layer table ({n_ops} traced ops; per-op means, ratios over totals; "
          f"attributed share base: {base})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}", file=sys.stderr)


# --- CLI workloads ---------------------------------------------------------------------------

def campaign_args(target: str) -> list[str]:
    return ["campaign", target, "--pairs", "1", "--fast", "--workers", "1"]


def characterize_args(topology: str, mismatch_seed: int) -> list[str]:
    return ["characterize", "--topologies", topology, "--corners", "TT",
            "--caps", "90", "--seed", str(mismatch_seed), "--workers", "1"]


def cli_units(workload: str, seed: int) -> list[list[tuple[list[str], object]]]:
    """The seeded op sequence, as units of ops a client runs back to back.

    ``campaign_cold``: one op per unit, classic and ocsa in equal numbers
    per block of two.  ``characterize_cells``: one classic and one ocsa
    cell per unit (seeded order within the unit), so every client's work
    stays balanced between the two op costs; the units walk a seeded
    balanced order of :data:`MISMATCH_SEEDS`.
    """
    units = []
    if workload == "campaign_cold":
        for target in stats.balanced_order(["classic", "ocsa"], 200, seed):
            units.append([(campaign_args(target), ("campaign", target))])
        return units
    topologies = stats.balanced_order(["classic", "ocsa"], 200, seed)
    mismatch = stats.balanced_order(list(MISMATCH_SEEDS), 100 // len(MISMATCH_SEEDS) + 1, seed)
    for k in range(100):
        unit = []
        for topology in topologies[2 * k: 2 * k + 2]:
            unit.append((characterize_args(topology, mismatch[k]),
                         ("characterize", topology, mismatch[k])))
        units.append(unit)
    return units


def run_cli_workload(workload: str, seed: int, seconds: float, trace: bool,
                     work: Path) -> tuple[dict, int, int, dict]:
    setup = [] if trace else cli_setup_seconds()
    units = cli_units(workload, seed)
    serial = itertools.count()

    def run_unit(client: int, k: int, unit):
        ops = []
        for args, key in unit:
            op = run_cli(args, work / f"op{next(serial)}", trace and client == 0)
            if key[0] == "campaign":
                op.extra.update(check=check_campaign(key[1]), digest_cache=True)
            else:
                op.extra["check"] = check_characterize(key[1], key[2])
            ops.append(op)
        return ops

    # Traced runs: client 0 runs the ops traced and client 1 runs the same
    # sequence untraced, so the overhead ratio compares like with like.
    # Ops are long, so each client runs a fixed minimum of units whatever
    # the window: no figure rests on one or two ops per client.
    ops, elapsed = closed_loop(units, seconds, run_unit, shared=not trace,
                               min_units=MIN_UNITS[workload])
    verify_cli([op for _, op in ops])
    good = [op for _, op in ops if op.ok]
    failed = len(ops) - len(good)
    env = {"ops": len(ops), "clients": CLIENTS,
           "errors": sorted({op.error for _, op in ops if op.error})[:5]}
    if not ops:
        return {}, 0, 0, env
    # A run whose ops all failed their checks still reports what it measured.
    measured = good or [op for _, op in ops]
    if not trace:
        latencies = [op.seconds for op in measured]
        p95, beyond = stats.nearest_rank(latencies, 95)
        env.update(p95_beyond=beyond, setup_samples=setup,
                   op_seconds=[round(x, 3) for x in latencies])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (stats.nearest_rank(latencies, 50)[0], "s"),
            "op_p95_s": (p95, "s"),
            "ops_per_s": (ops_per_s(ops, elapsed), "1/s"),
            "peak_rss_mb": (statistics.median(op.peak_mb for op in measured), "MB"),
        }
        return metrics, len(ops), failed, env
    traced_ops = [op for c, op in ops if c == 0 and (op.ok or not good)]
    plain_ops = [op for c, op in ops if c == 1 and (op.ok or not good)]
    tally = LayerTally()
    for op in traced_ops:
        tally.add_spans(load_spans(op.workdir / "spans"))
        tally.add_imports(op.stderr, until_main=True)
    op_seconds = sum(op.seconds for op in traced_ops)
    attributed = tally.attributed_s() + tally.imports["repro"]
    n = min(len(traced_ops), len(plain_ops))
    overhead = (sum(op.seconds for op in traced_ops[:n])
                / sum(op.seconds for op in plain_ops[:n])) if n else 0.0
    metrics = trace_metrics(tally, len(traced_ops), op_seconds, attributed, overhead)
    print_layer_table(metrics, len(traced_ops), "op wall time, spawn to exit")
    return metrics, len(ops), failed, env


# --- serve_warm ------------------------------------------------------------------------------

class Daemon:
    """``python -m repro serve`` on *state*, in its own process group;
    its stdout and stderr go to ``<log>.out`` and ``<log>.err``."""

    def __init__(self, state: Path, log: Path, span_dir: Path | None = None) -> None:
        state.mkdir(parents=True, exist_ok=True)
        self.log_out = log.with_suffix(".out")
        self.log_err = log.with_suffix(".err")
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--state-dir", str(state)]
        if span_dir is not None:
            cmd[1:1] = ["-X", "importtime"]
        self.t0 = time.monotonic()
        with open(self.log_out, "wb") as out, open(self.log_err, "wb") as err:
            self.proc = procs.spawn(cmd, program_env(span_dir), stdout=out, stderr=err)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - self.t0

    def _wait_ready(self) -> int:
        deadline = self.t0 + 60.0
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log_err.read_text()[-300:]}")
            if port is None:
                for line in self.log_out.read_text().splitlines():
                    if line.startswith("serving on http://"):
                        port = int(line.split()[2].rsplit(":", 1)[1])
            if port is not None:
                try:
                    status, _ = request(port, "GET", "/healthz")
                    if status == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not become healthy within 60 s")

    def drain(self) -> str:
        """SIGTERM, wait for the drain; an error string or ``""``."""
        error = ""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
            if code != 0:
                error = f"daemon exited {code}"
        except subprocess.TimeoutExpired:
            error = "daemon did not drain within 60 s"
        if not procs.reap_group(self.proc.pid):
            error = error or "a daemon process outlived the drain"
        return error

    def kill(self) -> None:
        procs.stop_group(self.proc)


def request(port: int, method: str, path: str, body: dict | None = None,
            timeout: float = 120.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def serve_specs(seed: int) -> dict[str, dict]:
    """The distinct job specs, longest cold job first so that priming
    spreads over both runners; the seed picks the mismatch and catalog
    seeds.  The characterize spec runs 10 Monte-Carlo trials: only its
    cold run, in priming, would pay for more."""
    rng = random.Random(seed)
    campaign = {"pairs": 1, "fast": True, "workers": 1}
    return {
        "characterize": {"kind": "characterize", "spec": {
            "topologies": ["classic"], "corners": ["TT"], "caps_ff": [90], "trials": 10,
            "seed": rng.choice(MISMATCH_SEEDS), "workers": 1}},
        "catalog": {"kind": "catalog", "spec": {
            "variants": 1, "seed": rng.choice(CATALOG_SEEDS), "workers": 1}},
        "campaign-classic": {"kind": "campaign", "spec": {**campaign, "targets": ["classic"]}},
        "campaign-ocsa": {"kind": "campaign", "spec": {**campaign, "targets": ["ocsa"]}},
    }


def golden_serve_digest(name: str, doc: dict) -> str:
    """The golden canonical-report digest of a serve spec."""
    if doc["kind"] == "campaign":
        return GOLDEN["campaign_cold"][doc["spec"]["targets"][0]]["report"]
    return GOLDEN["serve_warm"][name][str(doc["spec"]["seed"])]


def submit(port: int, doc: dict, tenant: str) -> str:
    status, body = request(port, "POST", "/jobs",
                           {"schema": "job-spec/1", "tenant": tenant, **doc})
    if status != 201:
        raise JobRejected(f"POST /jobs answered {status}: {body[:200]!r}")
    return json.loads(body)["id"]


class JobRejected(Exception):
    pass


def finish(port: int, job_id: str) -> tuple[bytes, int]:
    """Follow the job's events to the end, then fetch its report."""
    status, events = request(port, "GET", f"/jobs/{job_id}/events?follow=1&timeout_s=120")
    if status != 200:
        raise RuntimeError(f"events answered {status}")
    status, body = request(port, "GET", f"/jobs/{job_id}/report")
    if status != 200:
        raise RuntimeError(f"report answered {status}: {body[:200]!r}")
    return body, len(events.splitlines())


def job_status(port: int, job_id: str) -> dict:
    status, body = request(port, "GET", f"/jobs/{job_id}")
    if status != 200:
        raise RuntimeError(f"status answered {status}")
    return json.loads(body)


def prime(port: int, specs: dict[str, dict]) -> tuple[dict[str, dict], list[str]]:
    """Submit every distinct spec once, cold; return their result views
    and one error per report that differs from its golden digest."""
    ids = {name: submit(port, doc, "prime") for name, doc in specs.items()}
    views, errors = {}, []
    for name, job_id in ids.items():
        report = json.loads(finish(port, job_id)[0])
        state = job_status(port, job_id)["state"]
        if state != "done":
            raise RuntimeError(f"priming job {name} ended {state}")
        if stats.digest(stats.canonical(report)) != golden_serve_digest(name, specs[name]):
            errors.append(f"priming {name}: report digest differs from the golden digest")
        views[name] = stats.result_view(report)
    return views, errors


def serve_load(daemons: list[Daemon], specs: dict, views: dict, seed: int,
               seconds: float) -> dict:
    """The timed warm load: client ``c`` sends its jobs to ``daemons[c % n]``.

    First each client sends every spec twice, untimed, so that the pool
    workers have imported what each job kind needs.  Inside the window a
    job is only sent, followed and its report fetched; its status and
    report are checked after the window, while the daemons still run.
    Returns every op with its client, each client's elapsed time, the
    window's start and the summed peak RSS of each daemon's process group.
    """
    order = stats.balanced_order(sorted(specs), 2000, seed)

    def run_unit(client: int, k: int, name: str):
        port = daemons[client % len(daemons)].port
        t0 = time.monotonic()
        try:
            job_id = submit(port, specs[name], f"client{client}")
            body, events = finish(port, job_id)
        except JobRejected as exc:
            return [Op(False, time.monotonic() - t0, error=str(exc), extra={"rejected": 1})]
        except (OSError, RuntimeError, ValueError) as exc:
            return [Op(False, time.monotonic() - t0, error=str(exc))]
        return [Op(True, time.monotonic() - t0, extra={
            "port": port, "name": name, "job_id": job_id, "body": body, "events": events})]

    closed_loop(order, 0.0, run_unit, min_units=2 * len(specs))
    window_ns = time.monotonic_ns()
    ops, elapsed = closed_loop(order, seconds, run_unit)
    for _, op in ops:
        if not op.ok:
            continue
        try:
            op.extra["status"] = job_status(op.extra["port"], op.extra["job_id"])
            report = json.loads(op.extra.pop("body"))
        except (OSError, RuntimeError, ValueError) as exc:
            op.ok, op.error = False, str(exc)
            continue
        if op.extra["status"]["state"] != "done":
            op.ok, op.error = False, f"job ended {op.extra['status']['state']}"
        elif stats.result_view(report) != views[op.extra["name"]]:
            op.ok, op.error = False, f"{op.extra['name']} report differs from its priming report"
    return {"ops": ops, "elapsed": elapsed, "window_ns": window_ns,
            "peak_mb": [procs.peak_rss_mb(d.proc.pid) for d in daemons]}


def run_serve(seed: int, seconds: float, trace: bool, work: Path):
    specs = serve_specs(seed)
    state = work / "state"
    setup: list[float] = []
    errors: list[str] = []
    daemons: list[Daemon] = []
    try:
        # Set-up samples: throwaway daemons, the daemon that primes the
        # shared cache (timed before priming starts), the daemon under load.
        for i in range(0 if trace else SERVE_THROWAWAY_DAEMONS):
            daemons = [Daemon(work / f"setup{i}", work / f"setup{i}")]
            setup.append(daemons[0].setup_s)
            errors.append(daemons.pop().drain())
        daemons = [Daemon(state, work / "primer")]
        setup.append(daemons[0].setup_s)
        views, prime_errors = prime(daemons[0].port, specs)
        errors += prime_errors
        errors.append(daemons.pop().drain())
        # Fresh daemons on the primed cache: their pool workers carry no
        # heap left over from cold jobs, so the memory measured is that of
        # warm serving.
        shm_before = procs.shm_segments()
        if trace:
            # Client 0 loads a traced daemon and client 1 an untraced one,
            # at the same time, so the overhead ratio compares like with
            # like.  The traced daemon has its own job state and shares
            # the primed cache.
            traced_state = work / "traced"
            traced_state.mkdir()
            (traced_state / "cache").symlink_to(state / "cache")
            daemons = [Daemon(traced_state, work / "traced", work / "spans"),
                       Daemon(state, work / "plain")]
        else:
            daemons = [Daemon(state, work / "load")]
            setup.append(daemons[0].setup_s)
        load = serve_load(daemons, specs, views, seed, seconds)
        errors += [daemon.drain() for daemon in daemons]
        if procs.shm_segments() - shm_before:
            errors.append("the load daemon left a /dev/shm/repro_dp_* segment")
        stderr = daemons[0].log_err.read_text(errors="replace")
    finally:
        for daemon in daemons:
            daemon.kill()
    errors = [e for e in errors if e]
    ops = load["ops"]
    failed = sum(not op.ok for _, op in ops) + len(errors)
    env = {"ops": len(ops), "clients": CLIENTS,
           "errors": sorted({op.error for _, op in ops if op.error} | set(errors))[:5]}
    good = [op for c, op in ops if op.ok and (c == 0 or not trace)]
    if not good:
        return {}, len(ops), failed, env
    latencies = [op.seconds for op in good]
    if not trace:
        p95, beyond = stats.nearest_rank(latencies, 95)
        env.update(p95_beyond=beyond, setup_samples=setup, op_p50_by_spec={
            name: statistics.median(seconds) for name in specs
            if (seconds := [op.seconds for op in good if op.extra["name"] == name])})
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (stats.nearest_rank(latencies, 50)[0], "s"),
            "op_p95_s": (p95, "s"),
            "ops_per_s": (ops_per_s(ops, load["elapsed"]), "1/s"),
            "peak_rss_mb": (load["peak_mb"][0], "MB"),
        }
        return metrics, len(ops), failed, env
    tally = LayerTally()
    tally.add_spans(load_spans(work / "spans", since_ns=load["window_ns"]))
    tally.add_imports(stderr, until_main=False)
    statuses = [op.extra["status"] for op in good]
    queue_wait = [s["started_s"] - s["created_s"] for s in statuses]
    run = [s["finished_s"] - s["started_s"] for s in statuses]
    client = [op.seconds - (s["finished_s"] - s["created_s"]) for op, s in zip(good, statuses)]
    serve = {
        "serve.queue_wait_p50_s": stats.nearest_rank(queue_wait, 50)[0],
        "serve.run_p50_s": stats.nearest_rank(run, 50)[0],
        "serve.client_p50_s": stats.nearest_rank(client, 50)[0],
        "serve.rejected": float(sum(op.extra.get("rejected", 0) for c, op in ops if c == 0)),
        "serve.events_per_job": statistics.mean(op.extra["events"] for op in good),
    }
    plain = [op.seconds for c, op in ops if op.ok and c == 1]
    overhead = (stats.nearest_rank(latencies, 50)[0]
                / stats.nearest_rank(plain, 50)[0]) if plain else 0.0
    metrics = trace_metrics(tally, len(good), sum(latencies), tally.attributed_s(),
                            overhead, serve)
    print_layer_table(metrics, len(good), "job latency, POST to report in hand")
    return metrics, len(ops), failed, env


# --- entry point -------------------------------------------------------------------------------

WORKLOADS = ("campaign_cold", "characterize_cells", "serve_warm")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    probe_before = procs.host_probe()
    steal_before, ticks_before = procs.cpu_ticks()
    try:
        if args.workload == "serve_warm":
            metrics, attempted, failed, env = run_serve(
                args.seed, args.seconds, bool(args.trace), work)
        else:
            metrics, attempted, failed, env = run_cli_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    steal, ticks = (a - b for a, b in zip(procs.cpu_ticks(), (steal_before, ticks_before)))
    env.update(workload=args.workload, seed=args.seed, trace=args.trace,
               host_probe_before_s=probe_before, host_probe_after_s=procs.host_probe(),
               host_steal_share=steal / ticks if ticks else 0.0, cpus=os.cpu_count())
    print(json.dumps({"environment": env}))
    if not metrics:
        print("no op succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
