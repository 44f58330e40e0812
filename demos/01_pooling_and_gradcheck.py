#!/usr/bin/env python3
"""Window-sum pooling and finite-difference gradient checking, step by step.

Every fusion variant widens its inputs by the rank, multiplies them
elementwise and pools the product back down; every hand-written gradient
is checked against central differences. This script walks through both
on numbers small enough to check by eye.
"""

import numpy as np

from timekge import finite_diff_check
from timekge.scoring import pool_rows

# --- window summation pooling -----------------------------------------------
# pool_rows sums k adjacent coordinates of each row into one; it is how the
# widened fused vector returns to entity dimension.
wide = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
print("pooled by 2:", pool_rows(wide, 2)[0])   # (3, 7, 11)
print("pooled by 3:", pool_rows(wide, 3)[0])   # (6, 15)
print("pooling preserves totals:", pool_rows(wide, 3).sum() == wide.sum())

# --- gradient checking -------------------------------------------------------
# finite_diff_check probes a scalar loss with central differences and
# compares against gradients you claim are analytic. A quadratic makes the
# comparison essentially exact:
theta = np.array([3.0, -1.5])
params = {"theta": theta}
grads = {"theta": 2.0 * theta.copy()}
report = finite_diff_check(lambda: float((theta ** 2).sum()), params, grads)
print(f"correct gradient: max rel error {report.max_rel_error:.2e} "
      f"over {report.num_checked} coordinates")

# Feed it a wrong gradient and the report names the offender:
bad = {"theta": 3.0 * theta.copy()}
report = finite_diff_check(lambda: float((theta ** 2).sum()), params, bad)
print(f"wrong gradient: max rel error {report.max_rel_error:.3f} "
      f"at {report.worst_param}")

# The pooling gradient is the upstream gradient repeated across each window:
# check it on a random row, with loss = w . pool(x).
rng = np.random.default_rng(0)
x = rng.standard_normal((1, 6))
w = rng.standard_normal((1, 3))
report = finite_diff_check(lambda: float((w * pool_rows(x, 2)).sum()), {"x": x},
                           {"x": np.repeat(w, 2, axis=1)})
print(f"pooling gradient: max rel error {report.max_rel_error:.2e}")
