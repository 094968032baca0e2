"""Run ``gaplab.cli.main(argv)`` with span wrappers installed.

Usage: python -X importtime bench/traced_main.py METRICS_JSON POOL_THREADS ARGV...

gaplab's stdout and stderr pass through unchanged; the per-layer metrics go
to METRICS_JSON.  The exit code is gaplab's.
"""

import json
import sys
import time

import spans


def main() -> int:
    metrics_path, pool_threads, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import gaplab.cli

    tracer = spans.Tracer()
    patches = tracer.install(spans.gaplab_modules(), spans.HOOKS)
    t0 = time.perf_counter()
    try:
        code = gaplab.cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall(patches)
    sys.stdout.flush()
    metrics = spans.span_metrics(tracer, wall, pool_threads)
    with open(metrics_path, "w") as f:
        json.dump(metrics, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
