"""The benchmark's trace contract: every function perfbench/spans.py
wraps still exists, apart from the stale names it is known to carry.

The untraced benchmark runs end set-up time at the first call into one
of these functions and the traced runs count through them, so a change
that drops or renames one would silently move set-up time or empty a
layer; here it fails instead."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")
# Names spans.py still lists whose functions the package has deleted;
# they are reported as absent in every trace (trace.absent).
STALE = {"assemble_weighted_stiffness", "assemble_boundary_mass",
         "k_dual_norm", "integer_boundary_norm", "EtaField.gradient",
         "distance_to_singular_set"}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans()
    targets = [(module, qualname) for entries in spans.LAYERS.values()
               for module, qualname, _ in entries]
    unresolved = {qualname for module, qualname in targets
                  if spans._resolve(module, qualname) is None}
    assert unresolved == STALE
