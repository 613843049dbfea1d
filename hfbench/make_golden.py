"""Recompute the golden digests from the program in ``src/``.

    python3 hfbench/make_golden.py > golden.new.json

Run it from the root of a source checkout (about two minutes on two
CPUs).  The goldens pin what the program computes, so ``hfbench/golden.json``
is replaced with the output only for a deliberate change of results.
"""

from __future__ import annotations

import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import run
import stats


def cli_op(args: list[str], workdir) -> tuple[dict, object]:
    """Run one CLI op; return its report and its stage cache directory."""
    op = run.run_cli(args, workdir, traced=False)
    if not op.ok:
        raise SystemExit(f"{' '.join(args)}: {op.error}")
    return json.loads((workdir / "report.json").read_text()), workdir / "cache"


def campaign_golden(work, target: str) -> dict:
    report, cache = cli_op(run.campaign_args(target), work / target)
    return {"report": stats.digest(stats.canonical(report)),
            "stage_arrays": run.cache_digests([cache])[str(cache)]}


def cell_golden(work, topology: str, mismatch_seed: int) -> str:
    report, _ = cli_op(run.characterize_args(topology, mismatch_seed),
                       work / f"{topology}-{mismatch_seed}")
    return stats.digest(stats.canonical(next(iter(report["cells"].values()))))


def serve_golden(work) -> dict:
    """Canonical digests of the serve characterize and catalog specs, per seed."""
    golden: dict = {"characterize": {}, "catalog": {}}
    daemon = run.Daemon(work / "state", work / "daemon")
    try:
        template = run.serve_specs(0)
        for name, seeds in (("characterize", run.MISMATCH_SEEDS),
                            ("catalog", run.CATALOG_SEEDS)):
            for seed in seeds:
                doc = {**template[name], "spec": {**template[name]["spec"], "seed": seed}}
                job_id = run.submit(daemon.port, doc, "golden")
                body, _ = run.finish(daemon.port, job_id)
                if run.job_status(daemon.port, job_id)["state"] != "done":
                    raise SystemExit(f"serve {name} seed {seed} did not end done")
                golden[name][str(seed)] = stats.digest(stats.canonical(json.loads(body)))
    finally:
        daemon.kill()
    return golden


def main() -> None:
    work = run.WORK / f"golden-{os.getpid()}"
    work.mkdir(parents=True)
    cells = [(t, m) for t in ("classic", "ocsa") for m in run.MISMATCH_SEEDS]
    try:
        with ThreadPoolExecutor(run.CLIENTS) as pool:
            campaigns = {t: pool.submit(campaign_golden, work, t) for t in ("classic", "ocsa")}
            digests = {cell: pool.submit(cell_golden, work, *cell) for cell in cells}
            serve = serve_golden(work)
            golden = {
                "campaign_cold": {t: f.result() for t, f in campaigns.items()},
                "characterize_cells": {t: {str(m): digests[(t, m)].result()
                                           for m in run.MISMATCH_SEEDS}
                                       for t in ("classic", "ocsa")},
                "serve_warm": serve,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(golden, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
