"""Spans around the public functions of each klab module.

The benchmark never edits the program: it looks each function up by
module and name, replaces the attribute with a timing wrapper, and puts
the original back afterwards. A name that no longer exists is recorded
as absent, so a later change that renames or removes a function
(say, a new solver entry point) shows up in the trace instead of
crashing the benchmark.

A span is (target, start, end, parent span). Spans and counters live in
memory and are written once, when the run ends. A layer's self time is
its spans' durations minus the time their direct child spans cover.
"""

import functools
import hashlib
import importlib
import os
import time

import numpy as np


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def _result_digest(result):
    """Digest of an assembled matrix or vector, or of a field's values."""
    if hasattr(result, "indptr"):
        m = result.tocsr()
        return _digest(m.indptr, m.indices, m.data)
    if hasattr(result, "values"):
        return _digest(result.values)
    return _digest(np.asarray(result))


# Counters updated at the wrappers. Each receives the tracer, the span
# index, the call's positional arguments and its result. A counter that
# no longer fits what its function returns is listed as absent.

def _count_cg(tr, span, args, result):
    tr.add("femcore.cg_iters", result[1]["iterations"])


def _count_eig(tr, span, args, result):
    tr.add("femcore.eig_iters", result[2]["iterations"])


def _count_assembly(tr, span, args, result):
    if hasattr(result, "nnz"):
        tr.add("femcore.assemble_nnz", result.nnz)
    tr.distinct("femcore.assemble", (tr.target_of(span), _result_digest(result)))


def _count_extension(tr, span, args, result):
    tr.distinct("sobolev.extension", _result_digest(result))


def _count_points(tr, span, args, result):
    # Only the outermost weight evaluation counts its query points, so a
    # field that calls another field is not counted twice.
    if tr.layer_of(tr.parent_of(span)) != "weights.eval":
        tr.add("weights.points", len(np.atleast_2d(args[-1])))


def _count_nodes(tr, span, args, result):
    tr.add("mesh.nodes", result.num_nodes)


def _count_bytes(tr, span, args, result):
    tr.add("report.bytes", os.path.getsize(result))


# layer -> [(module, qualified name, counter or None)]
LAYERS = {
    "femcore.cg": [("klab.femcore", "cg_solve", _count_cg)],
    # SuperLU factorisations; the solves on each factor are timed by the
    # proxy the wrapper returns (_TimedLU).
    "femcore.lu": [("scipy.sparse.linalg", "splu", None)],
    "femcore.eig": [("klab.femcore", "generalized_eig_extreme", _count_eig)],
    "femcore.assemble": [
        ("klab.femcore", name, _count_assembly)
        for name in ("assemble_stiffness", "assemble_weighted_mass",
                     "assemble_weighted_stiffness", "assemble_gradvec",
                     "assemble_load", "assemble_boundary_mass")],
    "wellposed.probe": [("klab.wellposed", "weight_window_probe", None)],
    "wellposed.solve": [("klab.wellposed", "solve_dirichlet", None)],
    "sobolev.extension": [("klab.sobolev", "minimal_extension",
                           _count_extension)],
    "sobolev.norm": [("klab.sobolev", name, None)
                     for name in ("k_norm", "k_data_norm", "k_dual_norm",
                                  "trace_norm_surrogate",
                                  "integer_boundary_norm")],
    "weights.eval": [
        ("klab.weights", "EtaField.__call__", _count_points),
        ("klab.weights", "EtaField.gradient", None),
        ("klab.weights", "EtaField.grad_over_value", None),
        ("klab.weights", "RomegaField.__call__", _count_points),
        ("klab.weights", "distance_to_singular_set", _count_points),
        ("klab.weights", "romega_field", None)],
    "weights.certify": [("klab.weights", "certify_equivalence", None)],
    "kernels.dot": [("klab.kernels", "neumaier_dot", None),
                    ("klab.kernels", "neumaier_sum", None)],
    "kernels.nearest": [("klab.kernels", "nearest_on_segments", None),
                        ("klab.kernels", "nearest_points", None)],
    "kernels.geometry": [("klab.kernels", name, None)
                         for name in ("simplex_geometry", "local_stiffness",
                                      "local_weighted_mass")],
    "mesh.build": [("klab.mesh", "build_mesh", _count_nodes),
                   ("klab.mesh", "read_mesh", _count_nodes)],
    "mesh.refine": [("klab.mesh", "refine", _count_nodes)],
    "poincare.variational": [("klab.poincare", "variational_kappa", None)],
    "poincare.constructive": [("klab.poincare", "constructive_kappa", None)],
    "poincare.decomposition": [("klab.poincare", "build_decomposition",
                                None)],
    "expressions.eval": [("klab.expressions", "Expression.__call__", None),
                         ("klab.expressions", "VectorExpression.__call__",
                          None)],
    "report.write": [("klab.report", "write_json", _count_bytes),
                     ("klab.report", "write_csv", _count_bytes)],
}

# Names of spans that are not module attributes: solves on an LU factor.
LU_SOLVE = "scipy.sparse.linalg:SuperLU.solve"


def _targets():
    for layer, entries in LAYERS.items():
        for module, qualname, counter in entries:
            yield layer, module, qualname, counter


def _resolve(module, qualname):
    """(owner, attribute, function) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(attr)
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class _Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self.saved = []
        self.absent = []

    def install(self, make_wrapper):
        for layer, module, qualname, counter in _targets():
            found = _resolve(module, qualname)
            name = f"{module}:{qualname}"
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, make_wrapper(name, layer, fn, counter))

    def restore(self):
        while self.saved:
            owner, attr, fn = self.saved.pop()
            setattr(owner, attr, fn)


class FirstCall:
    """Note the time of the first call into any layer, then step aside.

    Used on untraced runs to end set-up time: at the first call every
    original is put back, so the rest of the run pays nothing. With
    ``stop`` the first call raises ``SetupDone`` instead of running.
    """

    class SetupDone(BaseException):
        pass

    def __init__(self, stop=False):
        self.time = None
        self.stop = stop
        self.patches = _Patches()

    def __enter__(self):
        self.patches.install(self._make_wrapper)
        return self

    def __exit__(self, *exc):
        self.patches.restore()

    def _make_wrapper(self, name, layer, fn, counter):
        @functools.wraps(fn)
        def first(*args, **kwargs):
            if self.time is None:
                self.time = time.monotonic()
                self.patches.restore()
                if self.stop:
                    raise FirstCall.SetupDone()
            return fn(*args, **kwargs)
        return first


class _TimedLU:
    """A SuperLU factor whose solves are recorded as spans."""

    def __init__(self, lu, timed_solve):
        self._lu = lu
        self.solve = timed_solve(lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans and counters while installed (a context manager).

    One span stack serves the whole process, so layer calls must come
    from one thread; the benchmark pins ``KLAB_THREADS`` to 1.
    """

    def __init__(self):
        self.names = []
        self.layers = []
        self.index = {}
        self.spans = []  # [name index, start, end, parent span or -1]
        self.stack = [-1]
        self.counts = {}
        self.keys = {}
        self.patches = _Patches()

    def __enter__(self):
        self.patches.install(self._make_wrapper)
        return self

    def __exit__(self, *exc):
        self.patches.restore()

    # -- bookkeeping used by the counters --------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def distinct(self, layer, key):
        self.keys.setdefault(layer, set()).add(key)

    def target_of(self, span):
        return self.names[self.spans[span][0]]

    def parent_of(self, span):
        return self.spans[span][3]

    def layer_of(self, span):
        return None if span < 0 else self.layers[self.spans[span][0]]

    # -- wrappers ---------------------------------------------------------

    def _name_index(self, name, layer):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self.index[name]

    def _timed(self, name, layer, fn, counter=None, post=None):
        idx = self._name_index(name, layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = len(spans)
            spans.append([idx, 0.0, 0.0, stack[-1]])
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[span][1:3] = t0, t1
            if counter is not None:
                try:
                    counter(self, span, args, result)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError):
                    # The function changed what it returns: keep its
                    # time, and list its counter as absent.
                    absent = self.patches.absent
                    if name + " (counter)" not in absent:
                        absent.append(name + " (counter)")
            return result if post is None else post(result)
        return timed

    def _make_wrapper(self, name, layer, fn, counter):
        if layer == "femcore.lu":
            def post(lu):
                return _TimedLU(lu, lambda solve: self._timed(
                    LU_SOLVE, layer, solve))
            return self._timed(name, layer, fn, counter, post)
        return self._timed(name, layer, fn, counter)

    # -- output -----------------------------------------------------------

    def dump(self):
        """Plain data for the result file."""
        return {"names": self.names, "layers": self.layers,
                "spans": self.spans, "counts": self.counts,
                "distinct": {k: len(v) for k, v in self.keys.items()},
                "absent": self.patches.absent}
