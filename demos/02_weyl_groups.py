"""Finite and affine Weyl group arithmetic.

Run as: python3 demos/02_weyl_groups.py
"""

from weylwords import build_root_system, sub_system
from weylwords.finweyl import (
    classify_subset,
    coset_decompose,
    factor_pointed_biclosed,
    from_word,
    inversion_set,
    weyl_elements,
)
from weylwords.affine import (
    affine_inversion_set,
    affine_reduced_word,
    letters_of,
    translation,
)

rs = build_root_system("A2")
full = sub_system(rs, (1, 2))

# Elements are stored by their images of the simple roots; words are
# recovered by greedy descent and are canonical.
w = from_word(rs, [1, 2, 1, 1, 2])  # not reduced
print("input word 1,2,1,1,2 canonicalizes to", w.word, "of length", w.length)
print("inversion set:", sorted(inversion_set(w, full)))

# Minimal coset representatives: split any element as (representative) *
# (part generated by K), with lengths adding.
upper, lower = coset_decompose(from_word(rs, [2, 1]), full, K=(1,))
print("\n[2,1] splits as", upper.word, "*", lower.word)

# Subsets of the root system classify by closure properties, and the
# pointed biclosed ones factor uniquely through a coset representative.
P = frozenset({(0, -1), (-1, -1)})
flags = classify_subset(P, full)
print("\nP =", sorted(P))
print("  closed:", flags.closed, " biclosed:", flags.biclosed_in_J,
      " pointed:", flags.pointed)
K, u = factor_pointed_biclosed(P, full)
print("  factors with K =", K, "and u =", u.word)

# The finite group is small; the affine one is infinite.  An affine
# element t_lambda * w is kept as its images of the simple roots, and its
# reduced words over the letters (simple reflections plus one affine
# letter per component) come from the same greedy descent.
print("\nfinite Weyl group order:", len(weyl_elements(full)))
t = translation(rs, (1, 1))
print("letters of the full subsystem:", [str(l) for l in letters_of(full)])
print("reduced word of t_(theta-check):",
      [str(l) for l in affine_reduced_word(t, full)])
print("its inversion set:", sorted(str(b) for b in affine_inversion_set(t, full)))
