"""
Robustness drills: adversarial inputs at a fixed precision target
=================================================================

Three stress tests, scaled down for a quick run:

* zero-join: left and right tables from disjoint vocabularies, so every
  produced join is a false positive (the engine should produce almost none);
* irrelevant right rows: flooding the query side with strangers should not
  disturb recall on the true rows;
* blocking factor sweep: once the per-record candidate budget passes
  sqrt(|L|), results barely move.
"""

from fuzzyjoin import (
    generate_disjoint_tables,
    generate_synthetic,
    inject_irrelevant_rows,
    score,
    solve,
)

print("zero-join stress (200 x 200 disjoint random token strings):")
L, R = generate_disjoint_tables(n_left=200, n_right=200, seed=0)
joins = len(solve(L, R, "name").result.assignments)
print(f"  joins produced: {joins}, "
      f"false-positive rate: {joins / len(R):.4f} (want < 0.05)")
print()

L, R, gt = generate_synthetic(n_left=80, seed=3, unmatched_rate=0.1)

print("irrelevant right rows (fraction of query table that is noise):")
for rate in (0.2, 0.6):
    r = score(solve(L, inject_irrelevant_rows(R, rate), "name").result, gt)
    print(f"  rate={rate:.1f}: precision={r.precision:.3f} "
          f"recall_abs={r.recall_absolute}")
print()

print("blocking factor sweep (candidates kept per row = beta * sqrt(|L|)):")
for beta in (0.25, 1.0, 2.0):
    r = score(solve(L, R, "name", beta=beta).result, gt)
    print(f"  beta={beta:.2f}: precision={r.precision:.3f} "
          f"recall_abs={r.recall_absolute}")
