"""klab's end-to-end benchmark.

    python3 perfbench/run.py --workload probe_2d --seed 1 --seconds 30 --trace 0

Run from the root of a klab checkout. Each repetition of a workload is a
fresh Python process that imports ``klab`` from ``src/`` and calls
``klab.cli.main`` for each of the workload's command lines, which write
the real JSON/CSV reports. Thread counts are pinned to one.

``--trace 0`` repeats the workload until ``--seconds`` is used up (at
least twice) and reports, as medians over repetitions, the wall time of
a run, its set-up time (process start to the first call into a layer;
extra processes that stop there add samples) and its peak RSS.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split from the traced ones (see spans.py), the tracing
overhead, and the kernel micro-run (see micro.py).

Every repetition is checked: each CLI call must exit 0, the workload's
gate must hold (workloads.py), and the reports must be byte-identical to
the first repetition with the same seed (and, traced, to the untraced
repetition). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "KLAB_THREADS": "1"}
SETUP_PROBES = 5      # set-up-only processes before each repetition
MIN_REPS = 2          # the byte-identity check needs two repetitions
DEADLINE_S = 170.0    # a run must end within 180 s


class Run:
    """Child processes, operation counts and scratch space of one run."""

    def __init__(self, root, workload, seed):
        self.root, self.workload, self.seed = root, workload, seed
        self.start = time.monotonic()
        self.work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **THREAD_ENV)
        self.attempted = 0
        self.failures = []
        self.info = None
        self.count = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def spawn(self, mode):
        """Run worker.py once; returns (wall s, start time, result, out)."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.work, tag)
        result_path = os.path.join(self.work, tag + ".json")
        err_path = os.path.join(self.work, tag + ".err")
        cmd = [sys.executable, WORKER, "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", out, "--result", result_path]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        with open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t0
        result = None
        if code == 0:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            if self.info is None:
                self.info = {k: result[k] for k in
                             ("backend", "python", "numpy", "scipy")}
        else:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"worker {mode} exited with {code}:\n{tail}",
                  file=sys.stderr)
        return wall, t0, result, out

    def workload_rep(self, mode, reference):
        """One checked repetition; returns (wall, t0, result, reports)."""
        wall, t0, result, out = self.spawn(mode)
        n_cmds = len(workloads.commands(self.workload, self.seed, out))
        codes = result["exit_codes"] if result else []
        for i in range(n_cmds):
            self.op(i < len(codes) and codes[i] == 0,
                    f"{mode} CLI call {i} exited 0")
        for what, ok in workloads.check(self.workload, out):
            self.op(ok, f"{mode}: {what}")
        reports = workloads.report_bytes(self.workload, out)
        if reference is not None:
            self.op(reports == reference,
                    f"{mode} reports byte-identical to the first "
                    "same-seed repetition")
        shutil.rmtree(out, ignore_errors=True)
        ok = result is not None and len(codes) == n_cmds
        return wall, t0, (result if ok else None), reports


def untraced(run, seconds):
    setups, walls, rss = [], [], []
    reference = None
    reps = 0
    while True:
        t_iter = run.elapsed()
        # Set-up probes are spread over the run, so the set-up median
        # samples the machine over the same span as the repetitions.
        for _ in range(SETUP_PROBES):
            _, t0, result, _ = run.spawn("setup")
            if run.op(result is not None and result["first_call"] is not None,
                      "set-up probe reached the first layer call"):
                setups.append(result["first_call"] - t0)
        wall, t0, result, reports = run.workload_rep("plain", reference)
        reference = reference or reports
        reps += 1
        if result is not None:
            walls.append(wall)
            rss.append(result["maxrss_kb"] / 1024.0)
            if result["first_call"] is not None:
                setups.append(result["first_call"] - t0)
        step = run.elapsed() - t_iter
        if reps >= MIN_REPS and (run.elapsed() + step > seconds
                                 or run.elapsed() + 2 * step > DEADLINE_S):
            break
    return {"wall_s": (walls, "s"), "setup_s": (setups, "s"),
            "peak_rss_mb": (rss, "MB")}


def layer_metrics(trace, wall, cpu):
    """Per-layer metrics of one traced repetition."""
    names, layers, records = trace["names"], trace["layers"], trace["spans"]
    dur = [t1 - t0 for _, t0, t1, _ in records]
    self_time = list(dur)
    for i, (_, _, _, parent) in enumerate(records):
        if parent >= 0:
            self_time[parent] -= dur[i]
    layer_s, calls = {}, {}
    for i, (idx, _, _, _) in enumerate(records):
        layer = layers[idx]
        layer_s[layer] = layer_s.get(layer, 0.0) + self_time[i]
        calls[names[idx]] = calls.get(names[idx], 0) + 1

    def n_calls(*targets):
        return sum(calls.get(t, 0) for t in targets)

    def ratio(layer, n):
        return trace["distinct"].get(layer, 0) / n if n else 0.0

    counts = trace["counts"]
    assemble_calls = sum(n for t, n in calls.items()
                         if t.startswith("klab.femcore:assemble_"))
    ext_calls = n_calls("klab.sobolev:minimal_extension")
    m = {f"{layer}_s": (layer_s.get(layer, 0.0), "s")
         for layer in spans.LAYERS}
    m.update({
        "femcore.cg_calls": (n_calls("klab.femcore:cg_solve"), "count"),
        "femcore.cg_iters": (counts.get("femcore.cg_iters", 0), "count"),
        "femcore.lu_calls": (n_calls("scipy.sparse.linalg:splu"), "count"),
        "femcore.eig_calls": (n_calls("klab.femcore:generalized_eig_extreme"),
                              "count"),
        "femcore.eig_iters": (counts.get("femcore.eig_iters", 0), "count"),
        "femcore.assemble_calls": (assemble_calls, "count"),
        "femcore.assemble_nnz": (counts.get("femcore.assemble_nnz", 0),
                                 "count"),
        "femcore.assemble_distinct_ratio": (
            ratio("femcore.assemble", assemble_calls), "ratio"),
        "sobolev.extension_calls": (ext_calls, "count"),
        "sobolev.extension_distinct_ratio": (
            ratio("sobolev.extension", ext_calls), "ratio"),
        "weights.points": (counts.get("weights.points", 0), "count"),
        "kernels.dot_calls": (n_calls("klab.kernels:neumaier_dot",
                                      "klab.kernels:neumaier_sum"), "count"),
        "mesh.nodes": (counts.get("mesh.nodes", 0), "count"),
        "report.bytes": (counts.get("report.bytes", 0), "B"),
        "run.wall_s": (wall, "s"),
        "run.cpu_s": (cpu, "s"),
        "run.unattributed_s": (wall - sum(layer_s.values()), "s"),
        "trace.spans": (len(records), "count"),
        "trace.absent": (len(trace["absent"]), "count"),
    })
    return m


def traced(run, seconds):
    samples = {}
    plain_walls, traced_walls = [], []
    reference = None
    absent = set()
    while True:
        t_pair = run.elapsed()
        wall_p, _, res_p, reports_p = run.workload_rep("plain", reference)
        reference = reference or reports_p
        wall_t, _, res_t, reports_t = run.workload_rep("trace", None)
        run.op(reports_t == reports_p,
               "traced reports byte-identical to untraced reports")
        if res_p is not None and res_t is not None:
            plain_walls.append(wall_p)
            traced_walls.append(wall_t)
            absent.update(res_t["trace"]["absent"])
            for k, v in layer_metrics(res_t["trace"], wall_t,
                                      res_t["cpu_s"]).items():
                samples.setdefault(k, ([], v[1]))[0].append(v[0])
        pair = run.elapsed() - t_pair
        if run.elapsed() + pair > seconds or not plain_walls \
                or run.elapsed() + 2 * pair > DEADLINE_S:
            break
    if plain_walls:
        samples["trace.overhead_s"] = (
            [statistics.median(traced_walls)
             - statistics.median(plain_walls)], "s")
    _, _, micro, _ = run.spawn("micro")
    if run.op(micro is not None, "kernel micro-run completed"):
        for k, (v, unit) in micro["metrics"].items():
            samples[k] = ([v], unit)
        absent.update(micro["absent"])
    if absent:
        print("absent functions: " + ", ".join(sorted(absent)))
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    needed = [os.path.join("src", "klab", "cli.py"), *workloads.INPUTS]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("not a klab checkout (missing " + ", ".join(missing)
              + "); run from the repository root", file=sys.stderr)
        return 2

    # Turn a termination request into an exception, so the current child
    # is killed and waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(root, args.workload, args.seed)
    try:
        samples = (traced if args.trace else untraced)(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.work))
        except OSError:
            pass
    if run.info is None or any(not v for v, _ in samples.values()):
        print("no repetition completed; no result", file=sys.stderr)
        return 1

    header = dict(workload=args.workload, seed=args.seed, nproc=os.cpu_count(),
                  **run.info, **THREAD_ENV)
    print("env " + json.dumps(header, sort_keys=True))
    metrics = {}
    for name, (values, unit) in sorted(samples.items()):
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        shown = "" if len(values) > 20 else f": {values!r}"
        print(f"{name}: {value!r} {unit} (median of {len(values)}{shown})")
    failed = len(run.failures)
    for what in run.failures:
        print(f"FAILED: {what}")
    print(f"failed_frac: {failed / run.attempted!r} "
          f"({failed} of {run.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
