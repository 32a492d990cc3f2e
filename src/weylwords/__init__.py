"""Exact combinatorics of untwisted affine root systems.

The package builds finite crystallographic root systems from Cartan
matrices, runs finite and affine Weyl group arithmetic over them, realizes
infinite real biconvex sets from parameter triples (K, u, y), manipulates
eventually periodic infinite reduced words, and cross-checks the whole
structure with brute-force enumeration at desk scale.
"""

from .cartan import (RootSystem, SubSystem, build_root_system, cartan_matrix,
                     complement_roots, sub_system)
from .finweyl import (WeylElement, classify_subset, coset_decompose,
                      element_from_inversions, factor_pointed_biclosed, identity,
                      inversion_set, minimal_coset_reps, push_negative,
                      simple_reflection, weyl_elements)
from .affine import (AffineElement, AffineRoot, Letter, affine_identity,
                     affine_inversion_set, affine_length, affine_reduced_word,
                     affine_window, bfs_elements, in_weyl_subgroup, letters_of,
                     tower, translation)
from .biconvex import (BiconvexParam, NotBiconvexError, WindowSet,
                       classify_biconvex, contained_mod_finite, enumerate_biconvex,
                       is_biconvex_window, parametrize, realize)
from .words import (InfiniteWord, WordClass, act_on_word, classify_word, inversion_at,
                    limit_inversions, orbit_invariant, prefix_element, translation_word,
                    word_of_param, word_window, words_equivalent)
from .verify import SUITES, run_suite

__all__ = [
    "RootSystem", "SubSystem", "build_root_system", "cartan_matrix",
    "complement_roots", "sub_system",
    "WeylElement", "classify_subset", "coset_decompose", "element_from_inversions",
    "factor_pointed_biclosed", "identity", "inversion_set", "minimal_coset_reps",
    "push_negative", "simple_reflection", "weyl_elements",
    "AffineElement", "AffineRoot", "Letter", "affine_identity",
    "affine_inversion_set", "affine_length", "affine_reduced_word", "affine_window",
    "bfs_elements", "in_weyl_subgroup", "letters_of", "tower",
    "translation",
    "BiconvexParam", "NotBiconvexError", "WindowSet",
    "classify_biconvex", "contained_mod_finite", "enumerate_biconvex",
    "is_biconvex_window", "parametrize", "realize",
    "InfiniteWord", "WordClass", "act_on_word", "classify_word", "inversion_at",
    "limit_inversions", "orbit_invariant", "prefix_element", "translation_word",
    "word_of_param", "word_window", "words_equivalent",
    "SUITES", "run_suite",
]
