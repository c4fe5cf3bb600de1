"""
A tour of the join-function space
=================================

A join function is a pipeline: preprocess each string, optionally tokenize
and weight the tokens, then apply a distance kind.  Four preprocessing
options x two tokenizers x two weight schemes x ten distance kinds give the
136 functions the solver searches.
"""

from fuzzyjoin import (
    JoinFunction,
    apply_preprocess,
    enumerate_function_space,
    evaluate,
    tokenize,
)

l_value = "2008 Mississippi State Bulldogs football team"
r_value = "2008 Missisippi State Bulldog football"  # typos + dropped token

print("preprocessing options on:", repr(l_value))
for option in ("L", "L+RP", "L+S", "L+S+RP"):
    print(f"  {option:7s} -> {apply_preprocess(l_value, option)!r}")
print()

pre = apply_preprocess(l_value, "L+RP")
print("tokenizations of the lowercased string:")
print("  SP:", sorted(tokenize(pre, "SP")))
print("  3G:", sorted(tokenize(pre, "3G"))[:8], "...")
print()

# distances need corpus statistics only for IDF weighting: the raw cell
# values, one document each, that a token's document frequency counts
corpus = [l_value, r_value, "2008 Alabama Crimson Tide football team"]

print(f"distances between\n  l = {l_value!r}\n  r = {r_value!r}")
for fn in (
    JoinFunction("L", "NONE", "NONE", "ED"),
    JoinFunction("L", "NONE", "NONE", "JW"),
    JoinFunction("L", "SP", "EW", "JD"),
    JoinFunction("L", "SP", "EW", "CJD"),
    JoinFunction("L", "SP", "IDFW", "CD"),
    JoinFunction("L", "3G", "EW", "DD"),
):
    d = evaluate(fn, l_value, r_value, corpus)
    print(f"  {fn.label():60s} -> {d:.4f}")
print()

space = enumerate_function_space()
print(f"the full space holds {len(space)} join functions; each also gets a")
print("grid of candidate thresholds, so the solver weighs thousands of")
print("configurations per dataset.")
