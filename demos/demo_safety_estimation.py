"""
Label-free precision: counting neighbors in the double-distance ball
====================================================================

The engine trusts a join (l, r) at distance d when no other reference
record sits within 2d of l.  Intuition: reference records form a rough
grid; if d were a safe joining distance, the ball of radius 2d around l
would be empty of competitors.  The more reference records inside, the
more likely r's true match is a missing record and l is an impostor.

We reconstruct that picture literally with reference records on an integer
grid, each pair of them at its exact Euclidean distance.
"""

import math

import numpy as np

from fuzzyjoin import JoinFunction
from fuzzyjoin.solver import BlockedPairs, precompute_config_table, reduce_distances

SCALE = 20.0
# the table labels its rows with a join function; the grid's distances stand
# in for that function's
fn = JoinFunction("L", "NONE", "NONE", "ED")


def precision_at_origin(deleted, d):
    """The precision the configuration table estimates for a right record
    whose only candidate is the origin at distance d, under the one-threshold
    grid [d] that one distance makes.  Every ordered pair of grid points is a
    self-join pair, at its Euclidean distance over SCALE."""
    points = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) not in deleted]
    values = [f"{x} {y}" for x, y in points]
    ll_a, ll_b = np.nonzero(~np.eye(len(points), dtype=bool))
    d_ll = np.array([[
        math.hypot(points[a][0] - points[b][0], points[a][1] - points[b][1]) / SCALE
        for a, b in zip(ll_a, ll_b)
    ]])
    origin = points.index((0, 0))
    pairs = BlockedPairs(
        values, ["r"], np.array([0]), np.array([origin]), ll_a, ll_b, query=np.array([0])
    )
    reduced = reduce_distances(pairs, [np.array([[d]])], [d_ll], (1.0,), s=1)
    table = precompute_config_table([fn], pairs, reduced)
    return table.prec[0, 0]


# Case 1: complete grid, r sits 0.3 units from its true record.
p = precision_at_origin(set(), 0.3 / SCALE)
print("complete grid, r at 0.3 units from (0,0):")
print(f"  ball of radius 0.6 holds only (0,0) itself -> precision {p:.3g}")
print()

# Case 2: r's true record (1,0) is missing; the closest survivor (0,0) is
# 0.75 units away, and the 1.5-unit ball is crowded.
p = precision_at_origin({(1, 0), (1, 1), (1, -1), (0, 1)}, 0.75 / SCALE)
print("incomplete grid (4 records deleted), r at 0.75 units from (0,0):")
print(f"  the 1.5-unit ball holds 5 surviving records -> precision {p:.3g}")
print()
print("the estimate only needs to separate safe joins (clean balls) from")
print("risky ones; whether a crowded ball scores 1/5 or 1/8 barely matters")
print("once the target precision is 0.9.")
