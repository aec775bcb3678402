"""One fraclap CLI call in a fresh interpreter, measured from the inside.

    python3 perfbench/child.py RESULT LAUNCHED MODE [fraclap arguments ...]

RESULT is the JSON file to write, LAUNCHED the parent's time.monotonic()
just before it started this process, and MODE one of:

- warmup: import fraclap.cli, then keep every BLAS thread busy for WARMUP_S
          seconds. On virtual machines whose idle cores resume slowly, the
          first measurement after an idle spell otherwise runs slow.
- timed:  call fraclap.cli.main once with tracing off.
- traced: the same call inside a Tracer; also records per-layer metrics and
          writes the spans next to RESULT.

The set-up time runs from LAUNCHED until fraclap.cli is imported, so it
covers interpreter start and the numpy and scipy imports. Both clocks are
CLOCK_MONOTONIC, which is shared by all processes on Linux.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

WARMUP_S = 2.0


def _call_main(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    result_path, launched, mode, argv = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    import fraclap.cli

    out = {"setup_s": time.monotonic() - launched}
    if mode == "warmup":
        import numpy

        a = numpy.ones((1000, 1000))
        start = time.monotonic()
        while time.monotonic() - start < WARMUP_S:
            a = a @ a / 1000.0
    else:
        import resource

        import numpy
        import scipy

        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            with tracer:
                t0 = time.perf_counter()
                rc = _call_main(fraclap.cli.main, argv)
                wall = time.perf_counter() - t0
            out["layers"] = tracer.metrics()
            tracer.write_spans(result_path.with_name("spans.json"))
        else:
            t0 = time.perf_counter()
            rc = _call_main(fraclap.cli.main, argv)
            wall = time.perf_counter() - t0
        out.update(
            rc=rc,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result_path.write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
