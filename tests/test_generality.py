"""Cross-rank and multi-component coverage: the desk-scale sweeps run at
rank 2, so this module spot-checks the same machinery on A3 (including a
disconnected J with two affine letters) and G2."""

import random

import pytest

from weylwords.cartan import build_root_system, complement_roots, sub_system
from weylwords.finweyl import (
    classify_subset,
    coset_decompose,
    factor_pointed_biclosed,
    from_word,
    identity,
    in_subgroup,
    inversion_set,
    minimal_coset_reps,
    tail_roots,
    weyl_elements,
)
from weylwords.affine import (
    affine_identity,
    affine_inversion_set,
    affine_length,
    affine_reduced_word,
    bfs_elements,
    from_letters,
    letters_of,
    tower,
    translation,
)
from weylwords.biconvex import (
    BiconvexParam,
    contained_mod_finite,
    is_biconvex_window,
    parametrize,
    realize,
)
from weylwords.words import (
    act_on_word,
    classify_word,
    limit_inversions,
    orbit_invariant,
    translation_word,
    words_equivalent,
)

A3 = build_root_system("A3")
SPLIT = sub_system(A3, (1, 3))  # two components, two affine letters
G2 = build_root_system("G2")


def test_split_subsystem_is_a_product_of_affine_lines():
    assert len(letters_of(SPLIT)) == 4
    # Lengths add across the two commuting factors.
    t = translation(A3, (2, 0, 1))
    assert affine_length(t, SPLIT) == 4 + 2
    word = affine_reduced_word(t, SPLIT)
    assert from_letters(SPLIT, word) == t


def test_split_translation_words_and_orbits():
    for K in [(), (1,), (3,)]:
        word = translation_word(SPLIT, K)
        assert orbit_invariant(word) == K
        for cutoff in (2, 5):
            assert limit_inversions(word, cutoff) == tower(
                A3, tail_roots(SPLIT, K, identity(A3)), cutoff
            )


def test_split_action_and_classification():
    rng = random.Random(41)
    alphabet = letters_of(SPLIT)
    base = translation_word(SPLIT, (3,))
    for _ in range(10):
        x = from_letters(SPLIT, [rng.choice(alphabet) for _ in range(3)])
        moved = act_on_word(x, base)
        assert orbit_invariant(moved) == (3,)
        param = classify_word(moved).param
        for cutoff in (2, 4):
            assert realize(param, cutoff).truncate(cutoff) == limit_inversions(
                moved, cutoff
            )
    y = from_letters(SPLIT, [alphabet[2]])
    z = from_letters(SPLIT, [alphabet[3]])
    assert words_equivalent(
        act_on_word(y, act_on_word(z, base)), act_on_word(y * z, base)
    )


def test_split_parametrize_round_trip():
    for K in [(), (1,), (3,), (1, 3)]:
        K_sub = sub_system(A3, K)
        ys = list(bfs_elements(K_sub, 2)) if K else [affine_identity(A3)]
        for u in minimal_coset_reps(SPLIT, K):
            for y in ys:
                param = BiconvexParam(sub=SPLIT, K=K, u=u, y=y)
                view = realize(param, 5)
                assert parametrize(view) == param
                assert is_biconvex_window(view.truncate(3), SPLIT, 3)


def test_g2_affine_lengths_and_inversions():
    full = sub_system(G2, (1, 2))
    for x, dist in bfs_elements(full, 4).items():
        assert affine_length(x, full) == dist
        assert len(affine_inversion_set(x, full)) == dist


def test_g2_pointed_biclosed_factorization():
    full = sub_system(G2, (1, 2))
    table = {}
    for K in [(), (1,), (2,), (1, 2)]:
        for u in minimal_coset_reps(full, K):
            image = frozenset(u.apply(r) for r in complement_roots(full, K, -1))
            assert image not in table
            table[image] = (K, u)
    assert len(table) == 12 + 6 + 6 + 1  # by the size of each coset space
    for P, (K, u) in table.items():
        flags = classify_subset(P, full)
        assert flags.pointed and flags.biclosed_in_J
        assert factor_pointed_biclosed(P, full) == (K, u)


def test_g2_word_round_trip():
    full = sub_system(G2, (1, 2))
    base = translation_word(full, (1,))
    param = classify_word(base).param
    assert param.K == (1,)
    for cutoff in (2, 4):
        assert realize(param, cutoff).truncate(cutoff) == limit_inversions(
            base, cutoff
        )


A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")
A1_FULL = sub_system(A1, (1,))


@pytest.mark.parametrize("call,text", [
    (lambda: act_on_word(translation(A2, (1, 0)), translation_word(A1_FULL, ())),
     "element is not in the subgroup for J"),
    (lambda: affine_length(translation(A2, (1, 0)), A1_FULL),
     "element is not in the subgroup for J"),
    (lambda: coset_decompose(from_word(A2, (1,)), A1_FULL, (1,)),
     "element does not lie in the subgroup for J"),
    (lambda: inversion_set(from_word(A2, (1, 2)), A1_FULL),
     "element and subsystem live over different root systems"),
    (lambda: BiconvexParam(sub=sub_system(A2, (1, 2)), K=(), u=identity(B2),
                           y=affine_identity(A2)),
     "u is not in the finite Weyl group of J"),
    (lambda: BiconvexParam(sub=sub_system(A2, (1, 2)), K=(1,), u=identity(A2),
                           y=translation(B2, (1, 0))),
     "y is not in the subgroup attached to K"),
    (lambda: translation(A2, (1, 0)) * translation(A1, (1,)),
     "cannot multiply elements over different root systems"),
    (lambda: words_equivalent(translation_word(A1_FULL, ()),
                              translation_word(sub_system(A2, (1, 2)), ())),
     "words live over different subsystems"),
    (lambda: contained_mod_finite(
        BiconvexParam(sub=A1_FULL, K=(), u=identity(A1), y=affine_identity(A1)),
        BiconvexParam(sub=sub_system(A2, (1, 2)), K=(), u=identity(A2), y=affine_identity(A2))),
     "parameters live over different subsystems"),
], ids=["act", "length", "coset", "inversions", "param-u", "param-y", "mul", "equiv",
        "contained"])
def test_elements_over_another_root_system_are_refused(call, text):
    # Images over another root system can look like members of a subgroup
    # here; every entry point refuses them with its own text.
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()


def test_no_subgroup_holds_an_element_of_another_root_system():
    # A2's s1 moves the simple roots only along alpha_1, as A1's s1 does.
    assert not in_subgroup(from_word(A2, (1,)), A1_FULL)
    assert in_subgroup(from_word(A1, (1,)), A1_FULL)
