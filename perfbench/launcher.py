"""Traced gateway: the ``repro-serve`` CLI with the serving-layer wrappers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -u perfbench/launcher.py TOTALS.json MODEL_ROOT --port 0

Installs :func:`layers.install_server_layers`, then runs
``repro.server.cli.main`` with the remaining arguments, so the gateway
is built exactly as the CLI builds it.  When the server stops (SIGINT),
the per-layer totals are written to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import Recorder, install_server_layers


def main(argv) -> int:
    totals_path = Path(argv[0])
    rec = Recorder()
    install_server_layers(rec)
    from repro.server.cli import main as serve

    code = serve(argv[1:])
    totals_path.write_text(json.dumps(rec.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
