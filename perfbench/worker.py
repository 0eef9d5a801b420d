"""Run one workload of the benchmark in this fresh process.

Started by ``run.py``; not meant to be run by hand. Modes:

- ``plain``: run the workload's CLI calls; note when the first layer
  call happens (the end of set-up) and nothing else.
- ``setup``: stop at the first layer call; only set-up is measured.
- ``trace``: run the workload with a span around every layer function.
- ``micro``: the fixed-size kernel micro-run.

The result (exit codes, peak RSS, CPU time, environment and, when
traced, the spans) is written as JSON to ``--result``.
"""

import argparse
import json
import os
import platform
import resource
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "setup", "trace", "micro"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import klab.cli
    import numpy
    import scipy

    if not os.path.abspath(klab.cli.__file__).startswith(src + os.sep):
        sys.exit(f"klab was imported from {klab.cli.__file__}, not {src}")

    import spans
    import workloads

    result = {"backend": klab.kernels.BACKEND,
              "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    codes = []
    if args.mode == "micro":
        import micro
        metrics, absent = micro.run(args.seed)
        result["metrics"] = metrics
        result["absent"] = absent
    elif args.mode == "trace":
        with spans.Tracer() as tracer:
            for argv in workloads.commands(args.workload, args.seed,
                                           args.out):
                codes.append(klab.cli.main(argv))
        result["trace"] = tracer.dump()
    else:
        hook = spans.FirstCall(stop=args.mode == "setup")
        try:
            with hook:
                for argv in workloads.commands(args.workload, args.seed,
                                               args.out):
                    codes.append(klab.cli.main(argv))
        except spans.FirstCall.SetupDone:
            pass
        result["first_call"] = hook.time

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(exit_codes=codes, maxrss_kb=usage.ru_maxrss,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
