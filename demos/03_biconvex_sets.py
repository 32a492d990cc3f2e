"""Biconvex sets: realize parameters, invert, enumerate, classify.

Run as: python3 demos/03_biconvex_sets.py
"""

from weylwords import build_root_system, sub_system
from weylwords.finweyl import from_word, identity
from weylwords.affine import affine_identity, from_letters, Letter
from weylwords.biconvex import (
    BiconvexParam,
    classify_biconvex,
    enumerate_biconvex,
    is_biconvex_window,
    parametrize,
    realize,
)

rs = build_root_system("A2")
full = sub_system(rs, (1, 2))

# A parameter triple (K, u, y) names a biconvex set: an infinite tail
# pattern over u(negative roots outside K) plus the finite inversion set
# of y pushed through u.
y = from_letters(sub_system(rs, (1,)), [Letter("c", 1), Letter("a", 1)])
param = BiconvexParam(sub=full, K=(1,), u=from_word(rs, [2]), y=y)
view = realize(param, cutoff=3)
print("tail pattern over:", sorted(view.tail))
print("finite extras:", sorted(str(b) for b in view.finite_part))
print("members up to level 3:", sorted(str(b) for b in view.truncate(3)))

# Membership is exact at any level, far beyond the materialized cutoff.
from weylwords.affine import AffineRoot
print("\n50*delta applied to the tail direction is a member:",
      AffineRoot(50, (0, -1)) in view)

# parametrize inverts realize, recovering the unique triple.
print("round trip equals the original:", parametrize(view) == param)

# Window checks and brute-force enumeration give an independent route:
# every windowed biconvex set of bounded size is a prefix inversion set.
sets = enumerate_biconvex(sub_system(rs, (1, 2)), cutoff=1, max_size=2)
print(f"\n{len(sets)} biconvex window sets of size <= 2 at level <= 1:")
for s in sets:
    print("  ", sorted(str(b) for b in s) or "(empty)")
    assert is_biconvex_window(s, full, 1)

# The four structural cases: finite, cofinite, infinite real, and
# complements of infinite real sets.
window = realize(param, 4)
print("\nclassification:", classify_biconvex(window)[0])
print("complement classification:", classify_biconvex(window.complement())[0])
empty = realize(BiconvexParam(sub=full, K=(1, 2), u=identity(rs),
                             y=affine_identity(rs)), 4)
print("empty set classifies as:", classify_biconvex(empty)[0])
