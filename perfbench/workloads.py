"""The benchmark's workloads: the CLI calls each one makes and its checks.

A workload is a list of ``klab`` command lines run one after another in
one fresh process, plus a correctness gate that reads the reports they
write. The seed reaches the program only through ``--seed``.

Why each workload exists (the layer each one stresses and the ROADMAP
items it is there to expose) is recorded in ``BENCHMARK.json`` and in
``README.md`` beside this file.
"""

import json
import math
import os

# The solve tolerance is passed explicitly so the residual gate and the
# program agree on it by construction.
SOLVE_TOL = 1e-10
# |indicator - (1 - a^2 * lambda_max(M, K))| must stay below this for
# every converged indicator: the identity holds exactly in exact
# arithmetic and the probe's inverse iterations stop at 1e-12.
INDICATOR_TOL = 1e-9
# Fitted convergence rates of the reentrant-corner study at the seed
# commit, and how far a change may move them.
SOLVE_RATES = {"l2_rate_fit": 1.811, "h1_rate_fit": 0.906}
RATE_TOL = 0.02
CERTIFY_RANGE = (0.1, 10.0)


def commands(workload, seed, out):
    """Command lines (argv lists for ``klab.cli.main``) of one run."""
    s = ["--seed", str(seed), "--out", out]
    if workload == "probe_2d":
        return [["window-probe", "--domain", "problems/l_shape.json",
                 "--h", "0.0625", "--kappa", "0.25", "--levels", "2",
                 "--a-grid", "0,0.3,0.5,0.6,0.66,0.7,0.8", *s]]
    if workload == "solve_2d":
        return [["solve", "--problem", "problems/lshape_singular.json",
                 "--kappa", "0.5", "--levels", "5",
                 "--tol", repr(SOLVE_TOL), *s]]
    if workload == "hardy_3d":
        return [["poincare", "--domain", "problems/box.json",
                 "--h", "0.125", "--levels", "2", *s],
                ["weights", "certify", "--domain", "problems/l_prism.json",
                 "--h", "0.25", "--samples", "10000", *s]]
    raise ValueError(f"unknown workload {workload!r}")


REPORTS = {
    "probe_2d": ("window_probe.json",),
    "solve_2d": ("solve.json", "solve_convergence.csv"),
    "hardy_3d": ("poincare.json", "weights_certify.json"),
}
NAMES = tuple(REPORTS)
# Files the commands read, relative to the checkout root.
INPUTS = sorted({arg for name in NAMES for argv in commands(name, 0, "")
                 for arg in argv if arg.startswith("problems/")})


def _load(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _check_probe(out):
    rep = _load(out, "window_probe.json")
    acrit = rep["acrit_estimate"]["value"]
    lam_max = rep["acrit_estimate"]["eigenvalue"]
    bracket = rep["bracket"]
    yield ("bracket contains acrit_estimate",
           bracket is not None
           and bracket["last_stable"] <= acrit <= bracket["first_unstable"])
    for e in rep["entries"]:
        if e.get("indicator_converged"):
            closed = 1.0 - e["a"] ** 2 * lam_max
            yield (f"indicator at a={e['a']} equals 1 - a^2/acrit^2",
                   abs(e["indicator"] - closed) <= INDICATOR_TOL)


def _check_solve(out):
    rep = _load(out, "solve.json")
    for e in rep["levels"]:
        yield (f"level {e['level']} residual <= tol",
               e["report"]["residual"] <= SOLVE_TOL)
    for key, want in SOLVE_RATES.items():
        got = rep.get(key)
        yield (f"{key} near {want}",
               got is not None and abs(got - want) <= RATE_TOL)


def _check_hardy(out):
    cert = _load(out, "poincare.json")
    yield "Hardy-Poincare certificate passes", cert["passed"] is True
    yield ("constructive kappa >= variational kappa",
           cert["constructive_kappa"] >= cert["variational_kappa"])
    eq = _load(out, "weights_certify.json")
    lo, hi = CERTIFY_RANGE
    for key in ("lower", "upper"):
        v = eq[key]
        yield (f"certify {key} bound in [{lo}, {hi}]",
               math.isfinite(v) and lo <= v <= hi)


_CHECKS = {"probe_2d": _check_probe, "solve_2d": _check_solve,
           "hardy_3d": _check_hardy}


def check(workload, out):
    """List of (description, passed) for the reports in ``out``.

    A report that is missing or unreadable is one failed check.
    """
    try:
        return list(_CHECKS[workload](out))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(f"reports readable ({type(exc).__name__}: {exc})", False)]


def report_bytes(workload, out):
    """Bytes of each report, for the same-seed identity check."""
    blobs = {}
    for name in REPORTS[workload]:
        try:
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        except OSError:
            blobs[name] = None
    return blobs
