"""
Multi-column joins: forward selection of columns and weights
============================================================

With several corresponding columns, the engine adds columns one at a time
(forward selection), trying a grid of interpolation weights for each
candidate and keeping what improves estimated recall.  Uninformative
columns are simply never selected, so adding a column of random strings
leaves the join untouched.
"""

from fuzzyjoin import add_random_column, generate_synthetic, solve_multi

L, R, gt = generate_synthetic(n_left=60, seed=5, unmatched_rate=0.1)

base = solve_multi(L, R, tau=0.9, g=10)
print("single informative column:")
print(f"  selected: {base.selected_columns}  weights: {base.weights}")
print(f"  joined {len(base.result.assignments)} rows, "
      f"estimated precision {base.estimated_precision:.3f}")
print()

# inject an adversarial column of uniformly random strings on both sides
L_noisy = add_random_column(L, seed=21, column="noise")
R_noisy = add_random_column(R, seed=22, column="noise")
noisy = solve_multi(L_noisy, R_noisy, tau=0.9, g=10)

print("after injecting a random-string column on both sides:")
print(f"  selected: {noisy.selected_columns}  weights: {noisy.weights}")
print(f"  assignments unchanged: {noisy.result.assignments == base.result.assignments}")
print(f"  inner solver invocations: {noisy.invocations} (bound m*m*g = {2 * 2 * 10})")
