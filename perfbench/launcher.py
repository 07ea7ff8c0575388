"""Run one exform CLI invocation in this fresh process and report its cost.

    python3 perfbench/launcher.py --trace 0 --result r.json --op 3 -- form d --in f.json

Run from the repository root.  Times ``import exform.cli``, installs the
tracer when asked, calls ``exform.cli.main`` and writes the import time, exit
code, peak RSS, the calibrations taken at start and end (see clock.py) and,
when traced, the layer summary and the spans to ``--result``.  Exits with the
command's own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402  (needs HERE on the path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    calibrations = [(time.perf_counter(), clock.calibrate())]

    start = time.perf_counter()
    import exform.cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(exform.__file__).startswith(src + os.sep):
        raise SystemExit(f"exform was imported from {exform.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("exform")
        tracer.op = args.op
    code = exform.cli.main(argv)
    sys.stdout.flush()
    calibrations.append((time.perf_counter(), clock.calibrate()))
    result = {"import_s": import_s, "code": code, "calibrations": calibrations,
              "backend": exform._kernels.backend_name(),
              "numpy": sys.modules["numpy"].__version__,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.op = None
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
