"""``repro serve`` with the benchmark's span tracing installed.

Usage: ``python perfbench/serve_traced.py TRACE_OUT [repro arguments]``.
Installs the layer wrappers, hands over to ``repro.__main__.main`` and
writes the spans to ``TRACE_OUT`` once the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main() -> int:
    out = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.active = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
