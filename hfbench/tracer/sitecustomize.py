"""Installs the span recorder in every interpreter of a traced op.

The benchmark puts this directory on ``PYTHONPATH`` and sets
``HFBENCH_SPANS`` to the span directory only for traced runs.
"""

import os

if os.environ.get("HFBENCH_SPANS"):
    import hfbench_trace

    hfbench_trace.install(os.environ["HFBENCH_SPANS"])
