"""Run ``nachos-serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/traced_daemon.py SPANS_JSON [daemon args...]``.
The spans stay in memory while the daemon serves and are written to
``SPANS_JSON`` once it shuts down.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    from repro.serve.daemon import main as serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    raise SystemExit(main())
