"""
Quickstart: an unsupervised fuzzy join end to end
=================================================

Generate a reference table of entity names and a query table of noisy
variants, then ask the engine for a join at a 0.9 precision target.  No
labels are given: the engine estimates precision from the reference table
itself and unions as many join configurations as that budget allows.
"""

from fuzzyjoin import generate_synthetic, score, solve

# a 120-entity reference table; each entity spawns 0-3 perturbed query rows
# (typos, dropped/extra tokens, case and punctuation noise), and ~20% of
# query rows are strangers with no true match
L, R, gt = generate_synthetic(n_left=120, seed=42, unmatched_rate=0.2)
print(f"reference rows: {len(L)}, query rows: {len(R)}, true matches: {gt.total_true()}")
print("sample reference row: ", L.records[0].values[0])
print("sample query row:     ", R.records[0].values[0])
print()

result = solve(L, R, "name", tau=0.9)

print(f"configurations selected: {len(result.solution.configs)}")
for i, cfg in enumerate(result.solution.configs[:5]):
    print(f"  {i}: {cfg.function.label()}  threshold={cfg.threshold:.4f}")
if len(result.solution.configs) > 5:
    print(f"  ... and {len(result.solution.configs) - 5} more")
print()
print(f"estimated precision: {result.estimated_precision:.3f} (target 0.9)")
print(f"estimated recall:    {result.estimated_recall:.1f} joined rows in expectation")

# the generator recorded the truth, so we can check how honest the estimate is
report = score(result.result, gt)
print(f"actual precision:    {report.precision:.3f}")
print(f"actual recall:       {report.recall_normalized:.3f} "
      f"({report.recall_absolute}/{gt.total_true()} true matches recovered)")
