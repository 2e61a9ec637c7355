"""Traced CLI child: ``python3 bench/cli_child.py SPANS_PATH ARG...``.

Behaves like ``python3 -m szego_quad.cli ARG...`` with the span recorder
installed, and writes its spans (one JSON list per line) to SPANS_PATH.  The
import of ``szego_quad.cli`` is recorded as the span ``cli.import`` and the
call of ``cli.main`` as ``cli.run``.
"""

import sys
import time
from pathlib import Path


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import szego_quad.cli as cli

    t1 = time.perf_counter()
    import szego_quad

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1, None, {}])
    tracer.install(szego_quad)
    idx = tracer.begin("cli.run")
    try:
        return cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
