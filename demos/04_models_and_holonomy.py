"""Minimal models, fiber Lie algebras, flat connections and holonomy.

Run:  python3 demos/04_models_and_holonomy.py
"""

import json

from totconn.freelie import bracket_label, series_repr
from totconn.pipeline import compare_pipeline_models, run_pipeline

# The circle: one harmonic generator, a free rank-one fiber, holonomy of
# the n-fold loop is the truncated exponential with coefficients n^r/r!.
r = run_pipeline("circle")
print("circle fiber dims per truncation:", r.dims_per_k)
print("circle holonomy of a:    ", r.to_json()["holonomy"]["a"])
print("circle holonomy of a^3:  ", r.to_json()["holonomy"]["a a a"])

# The torus: the single relation [X,Y] makes the fiber abelian of rank
# two, and the commutator loop has trivial holonomy.
r = run_pipeline("torus")
print("\ntorus ideal generators:",
      [series_repr(g, r.fib.free.gen_names) for g in r.fib.ideal.generators])
print("torus fiber dims:", r.dims_per_k)
print("torus commutator loop:", r.to_json()["holonomy"]["a b a- b-"])
print("connection flat:", r.certificate.flat)

# The nilpotent window: binary products vanish on degree one, the triple
# products survive, and the fiber is the three-dimensional nilpotent Lie
# algebra; the ideal generators are homogeneous, so the check reports
# formality.
r = run_pipeline("heisenberg")
print("\nnilpotent window fiber graded dims:", r.fib.graded_dims())
print("dims per truncation:", r.dims_per_k)
print("formality verdict:", r.verdict)
print("massey tables:", json.dumps(r.to_json()["massey"], sort_keys=True))

# Two independently built models of the same window agree: equal fiber
# dimensions, a comparison that maps the relation ideal into the relation
# ideal, and conjugate holonomies.
_, _, _, report = compare_pipeline_models("heisenberg", pivots=("lex", "shear"))
print("\nmodel comparison:", {k: v for k, v in report.items()})
