"""Traced stand-in for ``python -m repro ARGS``: the same imports and the
same ``main(argv)``, with ``main`` recorded as the ``cli`` span."""

import os
import sys

import hfbench_trace

import repro.__main__ as cli

os.write(2, hfbench_trace.MAIN_MARK)
sys.exit(hfbench_trace.traced("cli", cli.main)(sys.argv[1:]))
