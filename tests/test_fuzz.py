"""Seeded random cross-checks at depths the exhaustive sweeps do not reach."""

import random

import pytest

from weylwords.cartan import build_root_system, sub_system
from weylwords.affine import (
    AffineRoot,
    Letter,
    affine_inversion_set,
    affine_length,
    affine_reduced_word,
    from_letters,
    letters_of,
)
from weylwords.biconvex import (
    BiconvexParam,
    is_biconvex_window,
    parametrize,
    realize,
)
from weylwords.finweyl import minimal_coset_reps
from weylwords.words import (
    InfiniteWord,
    act_on_word,
    classify_word,
    limit_inversions,
    translation_word,
    words_equivalent,
)


# Fixed per-type seeds: string hashes vary per process, so they would
# draw different samples on every run.
LENGTH_SEEDS = {"A2": 32544, "B2": 53899, "C2": 4242, "G2": 1618}


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2"])
def test_long_products_have_consistent_lengths(label):
    rng = random.Random(LENGTH_SEEDS[label])
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    alphabet = letters_of(full)
    for _ in range(30):
        letters = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        x = from_letters(full, letters)
        length = affine_length(x, full)
        word = affine_reduced_word(x, full)
        assert len(word) == length <= len(letters)
        assert len(affine_inversion_set(x, full)) == length
        assert from_letters(full, word) == x


@pytest.mark.parametrize("label", ["B2", "C2"])
def test_random_parameter_round_trips(label):
    rng = random.Random(99)
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    subsets = [(), (1,), (2,)]
    for _ in range(20):
        K = rng.choice(subsets)
        K_sub = sub_system(rs, K)
        u = rng.choice(minimal_coset_reps(full, K))
        y_letters = [rng.choice(letters_of(K_sub)) for _ in range(rng.randint(0, 5))] if K else []
        y = from_letters(K_sub, y_letters) if K else from_letters(K_sub, [])
        param = BiconvexParam(sub=full, K=K, u=u, y=y)
        depth = u.length + affine_length(y, K_sub) + 3
        view = realize(param, depth)
        assert parametrize(view) == param
        assert is_biconvex_window(view.truncate(depth), full, depth)


def test_chained_actions_match_single_product():
    rng = random.Random(2718)
    rs = build_root_system("A2")
    full = sub_system(rs, rs.index_set)
    alphabet = letters_of(full)
    base = translation_word(full, (2,))
    for _ in range(10):
        xs = [
            from_letters(full, [rng.choice(alphabet) for _ in range(rng.randint(0, 2))])
            for _ in range(3)
        ]
        chained = base
        for x in reversed(xs):
            chained = act_on_word(x, chained)
        product = xs[0] * xs[1] * xs[2]
        direct = act_on_word(product, base)
        assert words_equivalent(chained, direct)
        assert classify_word(chained).K == (2,)


def test_b2_words_mirror_c2():
    # B2 with its two nodes swapped is C2, and B2's highest root a1 + 2a2
    # becomes C2's 2a1 + a2.  So B2's base word with c1 and c2 swapped must
    # certify as a C2 word whose inversions are B2's with coordinates
    # swapped, in the class of C2's own base word.
    b2, c2 = build_root_system("B2"), build_root_system("C2")
    c2_full = sub_system(c2, (1, 2))
    word = translation_word(sub_system(b2, (1, 2)), ())

    def swap(letters):
        return tuple(Letter("c", 3 - let.index) if let.kind == "c" else let
                     for let in letters)

    mirrored = InfiniteWord(c2_full, swap(word.head), swap(word.period))
    for cutoff in (0, 3, 6):
        assert limit_inversions(mirrored, cutoff) == {
            AffineRoot(b.level, b.classical[::-1]) for b in limit_inversions(word, cutoff)
        }
    assert words_equivalent(mirrored, translation_word(c2_full, ()))
    for rs in (b2, c2):
        full = sub_system(rs, rs.index_set)
        for K in [(1,), (2,)]:
            assert classify_word(translation_word(full, K)).K == K
