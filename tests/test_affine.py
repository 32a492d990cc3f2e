import random
from array import array
from itertools import combinations, product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from weylwords.cartan import (build_root_system, cartan_matrix, complement_roots, height,
                              negate, sub_system)
from weylwords.finweyl import from_word, identity, inversion_set, tail_roots, weyl_elements
from weylwords.affine import (
    AffineElement,
    AffineRoot,
    Letter,
    _inverted_levels,
    _walk,
    affine_add,
    affine_identity,
    affine_inversion_set,
    affine_length,
    affine_reduced_word,
    affine_window,
    bfs_elements,
    delta_height,
    element_from_affine_inversions,
    from_letters,
    in_weyl_subgroup,
    letter_root,
    letters_of,
    lift,
    tower,
    translation,
)
from weylwords import affine
from weylwords.biconvex import BiconvexParam
from weylwords.cli import element_from_json, element_to_json
from weylwords.words import InfiniteWord

from oracles import (TranslationForm, letter_element, reflection_word,
                     subgroup_by_supports, subsets)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A1_FULL = sub_system(A1, (1,))
A2_FULL = sub_system(A2, (1, 2))

DELTA = AffineRoot(1, None)


def inversions_by_letter_formula(sub, letters):
    """Oracle: alpha_{s_1}, s_1(alpha_{s_2}), ... applied with act()."""
    values = []
    for n, letter in enumerate(letters):
        beta = letter_root(sub, letter)
        for prev in reversed(letters[:n]):
            beta = letter_element(sub, prev).act(beta)
        values.append(beta)
    return values


def test_translations_fix_delta():
    t = translation(A1, (1,))
    assert t.act(DELTA) == DELTA
    assert t.act(AffineRoot(-3, None)) == AffineRoot(-3, None)


def test_translation_action_example():
    t = translation(A1, (1,))
    assert t.act(AffineRoot(0, (1,))) == AffineRoot(-2, (1,))
    assert t.act(AffineRoot(0, (-1,))) == AffineRoot(2, (-1,))


@pytest.mark.parametrize("coords", [(0.5, 0), (1.0, 0), ("1", 0)])
def test_translation_rejects_non_integer_coordinates(coords):
    with pytest.raises(ValueError, match="integers"):
        translation(A2, coords)


def test_identity_acts_trivially():
    e = affine_identity(A2)
    for beta in affine_window(A2_FULL, 2):
        assert e.act(beta) == beta


def test_elements_are_values_over_one_root_system():
    # Equal images over one root system object are one element, whatever the
    # word; a label and its explicit Cartan matrix build two distinct objects.
    labelled = build_root_system("B2")
    explicit = build_root_system(cartan_matrix("B2"))
    assert labelled is not explicit and labelled.cartan == explicit.cartan
    w, v = from_word(labelled, [1, 2, 1, 2]), from_word(labelled, [2, 1, 2, 1])
    assert w == v and hash(w) == hash(v) and len({w, v}) == 1
    other = from_word(explicit, [1, 2, 1, 2])
    assert other.images == w.images and other != w and len({w, other}) == 2
    x = translation(labelled, (1, -1)) * lift(w)
    y = translation(labelled, (1, -1)) * lift(v)
    z = translation(explicit, (1, -1)) * lift(other)
    assert x == y and hash(x) == hash(y)
    assert (z.levels, z.finite.images) == (x.levels, x.finite.images) and z != x
    for element, fields in ((w, (w.rs, w.images)), (x, (x.levels, x.finite))):
        assert element != fields and element != "e" and element != None
        assert (element == 0) is False
    assert x != w and lift(w) != w


def test_letter_elements_are_involutions():
    for sub in (A1_FULL, A2_FULL, sub_system(A2, (1,))):
        for letter in letters_of(sub):
            s = letter_element(sub, letter)
            assert (s * s).is_identity
            alpha = letter_root(sub, letter)
            assert s.act(alpha) == -alpha


def test_affine_letter_action_example():
    s0 = letter_element(A1_FULL, Letter("a", 1))
    assert s0.act(AffineRoot(0, (1,))) == AffineRoot(2, (-1,))
    assert s0.translation == (1,)
    assert s0.finite == from_word(A1, [1])


def test_letters_of_order():
    assert letters_of(A2_FULL) == (Letter("c", 1), Letter("c", 2), Letter("a", 1))
    two_comp = sub_system(build_root_system("A3"), (1, 3))
    assert letters_of(two_comp) == (
        Letter("c", 1),
        Letter("c", 3),
        Letter("a", 1),
        Letter("a", 2),
    )


def test_semidirect_composition_matches_action(seed=7):
    rng = random.Random(seed)
    window = affine_window(A2_FULL, 3)
    for _ in range(50):
        letters = [rng.choice(letters_of(A2_FULL)) for _ in range(rng.randint(0, 6))]
        x = from_letters(A2_FULL, letters)
        for beta in rng.sample(window, 5):
            expected = beta
            for letter in reversed(letters):
                expected = letter_element(A2_FULL, letter).act(expected)
            assert x.act(beta) == expected


def test_inversion_set_examples():
    assert affine_inversion_set(affine_identity(A1), A1_FULL) == frozenset()
    s0 = letter_element(A1_FULL, Letter("a", 1))
    assert affine_inversion_set(s0, A1_FULL) == {AffineRoot(1, (-1,))}
    s1 = letter_element(A1_FULL, Letter("c", 1))
    x = s0 * s1
    assert affine_inversion_set(x, A1_FULL) == {
        AffineRoot(1, (-1,)),
        AffineRoot(2, (-1,)),
    }


def test_inversion_set_rejects_outsiders():
    half = sub_system(A2, (1,))
    s2 = lift(from_word(A2, [2]))
    with pytest.raises(ValueError):
        affine_inversion_set(s2, half)
    with pytest.raises(ValueError):
        affine_length(translation(A2, (0, 1)), half)


@pytest.mark.parametrize("label,max_len", [("A1", 6), ("A2", 5), ("C2", 5), ("B2", 5), ("G2", 5),
                                           ("A3", 3), ("B3", 3)])
def test_closed_form_inversions_match_word_formula(label, max_len):
    # The level-bound membership rule is derived, so cross-check it against
    # the inversion-set formula evaluated on BFS reduced words.  The rule
    # reads both strings of +-eps off one pairing and the sign of w(eps) off
    # heights, so B2, G2 and B3, with two root lengths, are in the sweep; the
    # strings of x^-1, read off x alone, must spell the reversed word's set.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    dist = bfs_elements(full, max_len)
    for x, d in dist.items():
        word = affine_reduced_word(x, full)
        assert len(word) == d
        values = inversions_by_letter_formula(full, list(word))
        assert len(set(values)) == len(values)
        assert frozenset(values) == affine_inversion_set(x, full)
        assert affine_length(x, full) == d
        inverse = frozenset(AffineRoot(m, eps) for eps, ms in
                            _inverted_levels(x, full, of_inverse=True) for m in ms)
        assert inverse == affine_inversion_set(x.inverse, full)
        assert inverse == frozenset(inversions_by_letter_formula(full, list(word[::-1])))


def test_reduced_word_example_translation():
    t = translation(A1, (1,))
    word = affine_reduced_word(t, A1_FULL)
    assert word == (Letter("a", 1), Letter("c", 1))
    assert affine_length(t, A1_FULL) == 2
    assert affine_reduced_word(affine_identity(A1), A1_FULL) == ()


def test_translation_by_highest_coroot_length():
    t = translation(A2, (1, 1))
    assert affine_length(t, A2_FULL) == 4


def test_two_component_translation_length():
    rs = build_root_system("A3")
    sub = sub_system(rs, (1, 3))
    t = translation(rs, (1, 0, 1))
    assert affine_length(t, sub) == 4
    word = affine_reduced_word(t, sub)
    assert len(word) == 4
    assert from_letters(sub, word) == t


def test_tower_examples():
    assert tower(A1, {(1,)}, 2) == {
        AffineRoot(0, (1,)),
        AffineRoot(1, (1,)),
        AffineRoot(2, (1,)),
    }
    assert tower(A1, {(-1,)}, 2) == {AffineRoot(1, (-1,)), AffineRoot(2, (-1,))}
    assert tower(A1, set(), 5) == frozenset()
    with pytest.raises(ValueError):
        tower(A1, {(2,)}, 1)


def test_tail_tower_examples():
    # The tail pattern of (K, u) up to a cutoff: the tower over u(Phi_J^- minus Phi_K).
    assert tower(A1, tail_roots(A1_FULL, (), identity(A1)), 3) == {
        AffineRoot(1, (-1,)),
        AffineRoot(2, (-1,)),
        AffineRoot(3, (-1,)),
    }
    assert tower(A1, tail_roots(A1_FULL, (1,), identity(A1)), 5) == frozenset()
    assert tower(A2, tail_roots(A2_FULL, (1,), identity(A2)), 1) == {
        AffineRoot(1, (0, -1)),
        AffineRoot(1, (-1, -1)),
    }


def _upper_tail(sub, K, u, cutoff):
    """The tower over u(Phi^+_J minus Phi_K), the tail's positive twin."""
    return tower(sub.rs, {u.apply(r) for r in complement_roots(sub, K, +1)}, cutoff)


def test_tail_roots_invariant_under_right_k_factor():
    s1 = from_word(A2, [1])
    assert tail_roots(A2_FULL, (1,), identity(A2)) == tail_roots(A2_FULL, (1,), s1)
    assert (tower(A2, tail_roots(A2_FULL, (1,), identity(A2)), 4)
            == tower(A2, tail_roots(A2_FULL, (1,), s1), 4))
    assert _upper_tail(A2_FULL, (1,), identity(A2), 4) == _upper_tail(A2_FULL, (1,), s1, 4)


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_split_of_window_by_tails(label):
    # Window = negative tail + lifted K-part + positive tail, at every cutoff.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for K in [(), (1,), (2,), (1, 2)]:
        K_sub = sub_system(rs, K)
        from weylwords.finweyl import minimal_coset_reps

        for u in minimal_coset_reps(full, K):
            for cutoff in (1, 2, 4):
                real_window = {b for b in affine_window(full, cutoff) if b.is_real}
                down = tower(rs, tail_roots(full, K, u), cutoff)
                up = _upper_tail(full, K, u, cutoff)
                mid = {
                    AffineRoot(b.level, u.apply(b.classical))
                    for b in affine_window(K_sub, cutoff) if b.is_real
                }
                assert down | up | mid == real_window
                assert not (down & up) and not (down & mid) and not (up & mid)


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_lower_tail_splits_off_finite_inversions(label):
    # tail(u,-) = inversions of u at level zero, plus u applied to tail(1,-).
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    from weylwords.finweyl import minimal_coset_reps

    for K in [(), (1,), (2,)]:
        for u in minimal_coset_reps(full, K):
            for cutoff in (2, 5):
                left = tower(rs, tail_roots(full, K, u), cutoff)
                level0 = {AffineRoot(0, b) for b in inversion_set(u, full)}
                lifted = {
                    AffineRoot(b.level, u.apply(b.classical))
                    for b in tower(rs, tail_roots(full, K, identity(rs)), cutoff)
                }
                assert left == level0 | lifted
                assert not (level0 & lifted)


@pytest.mark.parametrize("label,bound", [("A2", 4), ("C2", 3)])
def test_prefix_inversion_growth(label, bound):
    # If the first factor keeps the second's inversions positive, the
    # inversion sets concatenate disjointly.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    elements = list(bfs_elements(full, bound))
    for y1 in elements:
        inv1 = affine_inversion_set(y1, full)
        for y2 in elements:
            moved = {y1.act(b) for b in affine_inversion_set(y2, full)}
            if all(b.is_positive for b in moved):
                assert inv1 | moved == affine_inversion_set(y1 * y2, full)
                assert not (inv1 & moved)


def test_length_difference_criterion():
    full = A1_FULL
    elements = list(bfs_elements(full, 5))
    for y1 in elements:
        inv1 = affine_inversion_set(y1, full)
        l1 = affine_length(y1, full)
        for y2 in elements:
            inv2 = affine_inversion_set(y2, full)
            l2 = affine_length(y2, full)
            additive = l2 - l1 == affine_length(y1.inverse * y2, full)
            assert additive == (inv1 <= inv2)


def test_window_decomposability():
    # Every window root beyond the simple letters splits as a sum of two
    # positive roots of the subsystem.
    c2_full = sub_system(build_root_system("C2"), (1, 2))
    for sub in (A1_FULL, A2_FULL, c2_full):
        simples = {letter_root(sub, letter) for letter in letters_of(sub)}
        window = affine_window(sub, 3)
        window_set = set(window)
        for beta in window:
            if beta in simples:
                continue
            found = any(
                affine_add(a, b, sub.rs) == beta
                for a in window_set
                for b in window_set
            )
            assert found, f"{beta} is not decomposable"


def test_delta_height_is_one_above_the_highest_root():
    labels = (
        [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
        + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
    )
    for label in labels:
        rs = build_root_system(label)
        top, = sub_system(rs, rs.index_set).highest_roots
        assert delta_height(rs) == height(top) + 1


def test_window_counts_and_order():
    window = affine_window(A1_FULL, 1)
    assert len(window) == 4  # three real roots plus delta
    assert set(window) == {
        AffineRoot(0, (1,)),
        AffineRoot(1, (-1,)),
        AffineRoot(1, (1,)),
        AffineRoot(1, None),
    }
    assert sum(b.is_real for b in window) == 3
    heights = [b.level * 2 + sum(b.classical or (0,)) for b in window]
    assert heights == sorted(heights)


def test_element_from_affine_inversions_round_trip():
    full = A2_FULL
    for x, d in bfs_elements(full, 4).items():
        F = affine_inversion_set(x, full)
        assert element_from_affine_inversions(F, full) == x
    with pytest.raises(ValueError):
        element_from_affine_inversions({AffineRoot(1, (1, 1))}, full)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_element_from_affine_inversions_exactly_on_inversion_sets(label):
    # Every set of at most 4 roots of the level-1 window, imaginary roots
    # included: a set is read back exactly when it is some N(x), and any
    # other set raises ValueError (never TypeError or RuntimeError).  So
    # does every N(x) with one non-positive root added: a level-0 negative
    # classical root, or the negative -alpha_s of a letter's root.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    table = {affine_inversion_set(x, full): x for x in bfs_elements(full, 4)}
    window = affine_window(full, 1)
    for size in range(5):
        for F in map(frozenset, combinations(window, size)):
            if F in table:
                assert element_from_affine_inversions(F, full) == table[F]
            else:
                with pytest.raises(ValueError):
                    element_from_affine_inversions(F, full)
    non_positive = {AffineRoot(0, eps) for eps in full.negatives}
    non_positive |= {-letter_root(full, letter) for letter in letters_of(full)}
    for F in table:
        for beta in non_positive:
            with pytest.raises(ValueError):
                element_from_affine_inversions(F | {beta}, full)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_element_from_affine_inversions_needs_initial_segments(label):
    # Lifting the top level of one string of N(x) by one keeps every count per
    # string but leaves a gap, or on a string of one level a missing first
    # level: no such set is an inversion set, though the counts match one.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    lifted = 0
    for x in bfs_elements(full, 4):
        F = affine_inversion_set(x, full)
        for eps, ms in _inverted_levels(x, full):
            top = AffineRoot(ms[-1], eps)
            with pytest.raises(ValueError, match="^set is not an affine inversion set$"):
                element_from_affine_inversions(F - {top} | {AffineRoot(top.level + 1, eps)}, full)
            lifted += len(ms) > 1
    assert lifted


def _read_strings(sub, strings):
    """The element read off string lengths, or the text of its ValueError."""
    try:
        return affine._element_of_strings(sub, strings)
    except ValueError as exc:
        return str(exc)


def _check_walk_memo(label, box=(0, 1, 2), seed=28):
    """Read every string-length vector over the roots of the full subsystem,
    entries in box, once right after clearing the sum memo and once warm:
    sum by sum in a seeded shuffled order, so every vector after the first
    of its sum finds that sum's walk in the memo, valid or not, unless its
    descent fails (a failure is not kept).  Both reads must give the same
    element or the same error text.  Returns the numbers of vectors and of
    vectors read as an element."""
    rs = build_root_system(label)
    sub = sub_system(rs, rs.index_set)
    memo = affine._walk_of_sum
    # A vector is its index in base len(box), split into two halves of the
    # roots: each half's strings and sum are listed once.
    halves = []
    for part in (sub.roots[:len(sub.roots) // 2], sub.roots[len(sub.roots) // 2:]):
        table = []
        for entries in product(box, repeat=len(part)):
            strings = {eps: n for eps, n in zip(part, entries) if n}
            table.append((strings, tuple(sum(n * e[k] for e, n in strings.items())
                                         for k in range(rs.rank))))
        halves.append(table)
    low, high = halves

    def vector(i):
        (a, s), (b, t) = high[i // len(low)], low[i % len(low)]
        return {**a, **b}, tuple(map(add, s, t))

    cold, by_sum = [], {}
    for i in range(len(low) * len(high)):
        strings, total = vector(i)
        memo.cache_clear()
        cold.append(_read_strings(sub, strings))
        by_sum.setdefault(total, array("l")).append(i)
    rng = random.Random(seed)
    groups = list(by_sum.values())
    rng.shuffle(groups)
    hits = memo.cache_info().hits
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        for i in group:
            assert _read_strings(sub, vector(i)[0]) == cold[i], (label, vector(i)[0])
    assert memo.cache_info().hits > hits
    return len(cold), sum(not isinstance(got, str) for got in cold)


@pytest.mark.parametrize("label,counts", [("A2", (729, 37)), ("B2", (6561, 49))])
def test_walk_memo_never_changes_a_read(label, counts):
    # The memo keeps walks, not verdicts: a vector whose sum a valid vector
    # shares is refused on a hit as on a miss.  The accepted counts are the
    # reader's before the memo.
    assert _check_walk_memo(label) == counts


def test_a_hit_on_another_sets_walk_is_refused():
    # N(s1 s2) = {a1, a1+a2} and {a1, d+a1, a2} have one sum, 2a1 + a2.
    a1, a2, a12 = (1, 0), (0, 1), (1, 1)
    affine._walk_of_sum.cache_clear()
    x = affine._element_of_strings(A2_FULL, {a1: 1, a12: 1})
    assert x == lift(from_word(A2, (1, 2)))
    with pytest.raises(ValueError, match="^set is not an affine inversion set$"):
        affine._element_of_strings(A2_FULL, {a1: 2, a2: 1})
    assert affine._walk_of_sum.cache_info().hits == 1
    assert affine._element_of_strings(A2_FULL, {a1: 1, a12: 1}) is x


def test_bfs_lengths_match_inversion_counts():
    for label in ("A1", "A2", "C2"):
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        for x, d in bfs_elements(full, 4).items():
            assert affine_length(x, full) == d
            assert len(affine_inversion_set(x, full)) == d


STEP_SUBS = [
    sub_system(rs, J)
    for rs in map(build_root_system, ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"])
    for J in subsets(rs.index_set)
    if J
]


@pytest.mark.parametrize(
    "sub", STEP_SUBS, ids=[f"{sub.rs.label}-J{''.join(map(str, sub.J))}" for sub in STEP_SUBS]
)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_letter_step_matches_the_general_product(sub, data):
    alphabet = letters_of(sub)
    drawn = from_letters(sub, data.draw(st.lists(st.sampled_from(alphabet), max_size=6)))
    coxeter = from_letters(sub, alphabet)  # ends in affine letters: a translation part
    assert any(coxeter.translation)
    for x in (drawn, coxeter):
        for letter in alphabet:
            assert _walk(sub, (letter,), x)[1] == x * letter_element(sub, letter)


WALK_CASES = [("A2", (1, 2)), ("C2", (1, 2)), ("G2", (1, 2)), ("B3", (1, 2, 3)),
              ("B3", (1, 3)), ("D4", (1, 2, 3, 4)), ("F4", (1, 2, 3, 4))]


@pytest.mark.parametrize("label, J", WALK_CASES, ids=[f"{t}-J{''.join(map(str, J))}"
                                                      for t, J in WALK_CASES])
def test_walk_matches_products_of_reflections(label, J):
    # Random words with affine letters: the walk's pivots and end element
    # against reflections applied one by one from the Gram form; a walk
    # resumed from its own midpoint, and a single step, agree with it.
    # B3 with J = {1, 3} has two A1 components, whose affine roots are
    # delta - alpha_j: one image, with coefficient -1.
    rs = build_root_system(label)
    sub = sub_system(rs, J)
    alphabet, rng = letters_of(sub), random.Random(f"{label}{J}")
    for _ in range(25):
        word = [rng.choice(alphabet) for _ in range(rng.randint(0, 11))]
        word.insert(rng.randint(0, len(word)), Letter("a", len(sub.components)))
        pivots, images = reflection_word(rs.gram, [letter_root(sub, s) for s in word],
                                         rs.simple_roots)
        got, end = _walk(sub, word)
        assert [tuple(phi) for phi in got] == pivots, word
        assert list(zip(end.levels, end.finite.images)) == images, word
        cut = rng.randint(0, len(word) - 1)
        head, middle = _walk(sub, word[:cut])
        assert head == got[:cut]
        assert _walk(sub, word[cut:], middle) == (got[cut:], end)
        (pivot,), step = _walk(sub, (word[cut],), middle)
        assert (pivot, step) == (got[cut], from_letters(sub, word[:cut + 1]))
        assert _walk(sub, (), middle)[1] is middle  # kept, with its cached inverse and word


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_walking_a_reduced_word_records_its_inversions(label):
    # The pivots of a reduced word are its inversion set, each once.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for x in bfs_elements(full, 3):
        pivots, end = _walk(full, affine_reduced_word(x, full))
        assert end == x
        assert len(set(pivots)) == len(pivots)
        assert set(pivots) == affine_inversion_set(x, full)


@pytest.mark.parametrize(
    "letter", [Letter("c", 3), Letter("a", 0), Letter("a", 2)], ids=str
)
def test_bad_letters_still_raise(letter):
    # J = {1, 2} of A3 has one component; c3 lies outside it.
    sub = sub_system(build_root_system("A3"), (1, 2))
    with pytest.raises(ValueError):
        from_letters(sub, [Letter("c", 1), letter])
    with pytest.raises(ValueError):
        InfiniteWord(sub, (), (Letter("a", 1), letter))
    with pytest.raises(ValueError):
        InfiniteWord(sub, (letter,), (Letter("a", 1), Letter("c", 1), Letter("c", 2)))


def _paired_ball(label, radius):
    """The Cayley ball of the full subsystem, each library element (stepped
    letter by letter) paired with its translation form (multiplied out)."""
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    form = TranslationForm(label, rs.rank)
    gens = {Letter("c", i): form.reflection(alpha) for i, alpha in enumerate(form.simples, 1)}
    gens[Letter("a", 1)] = form.affine_reflection(max(form.roots, key=sum))
    ball = {affine_identity(rs): form.identity()}
    frontier = list(ball)
    for _ in range(radius):
        new = []
        for x in frontier:
            for letter, g in gens.items():
                y = _walk(full, (letter,), x)[1]
                if y not in ball:
                    ball[y] = form.mul(ball[x], g)
                    new.append(y)
        frontier = new
    return rs, form, ball


def _same(x, form, ox):
    return x.translation == form.coroot_coords(ox) and x.finite.images == ox[1]


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3"])
def test_image_form_matches_translation_form(label):
    rs, form, ball = _paired_ball(label, 4)
    for x, ox in ball.items():
        assert _same(x, form, ox)
        assert _same(x.inverse, form, form.inverse(ox))
        assert element_from_json(rs, element_to_json(x)) == x
        for eps in form.roots:
            for m in range(-2, 3):
                assert x.act(AffineRoot(m, eps)) == form.act(ox, m, eps), (x, m, eps)
        for y, oy in ball.items():
            assert _same(x * y, form, form.mul(ox, oy))


def _length_zero(label):
    """pi = t_{varpi_j-check} w0^{I - j} w0 for the first minuscule j (alpha_j
    has coefficient 1 in theta): an element of the extended affine Weyl
    group whose lambda is a coweight off the coroot lattice.  Its levels
    -<w alpha_k, varpi_j-check> are minus the alpha_j coordinates of w's images."""
    rs = build_root_system(label)
    theta = rs.roots[-1]
    j = next(j for j in rs.index_set if theta[j - 1] == 1)

    def longest(J):
        return max(weyl_elements(sub_system(rs, J)), key=lambda w: w.length)

    w = longest([i for i in rs.index_set if i != j]) * longest(rs.index_set)
    return rs, AffineElement(tuple(-img[j - 1] for img in w.images), w)


@pytest.mark.parametrize("label", ["A2", "D4"])
def test_length_zero_elements_are_refused(label):
    rs, pi = _length_zero(label)
    full = sub_system(rs, rs.index_set)
    # pi permutes the simple affine roots, so it has length zero but is not e.
    simple = {AffineRoot(0, a) for a in rs.simple_roots} | {AffineRoot(1, negate(rs.roots[-1]))}
    assert {pi.act(b) for b in simple} == simple and not pi.is_identity
    if label == "A2":
        assert pi == AffineElement((0, 1), from_word(rs, [1, 2]))
    assert not in_weyl_subgroup(pi, full)
    with pytest.raises(ValueError, match="^y is not in the subgroup attached to K$"):
        BiconvexParam(full, rs.index_set, identity(rs), pi)
    with pytest.raises(ValueError, match="^element is not in the subgroup for J$"):
        affine_length(pi, full)
    with pytest.raises(ValueError, match="^translation is not in the coroot lattice$"):
        pi.translation
    assert repr(pi) == f"AffineElement(levels={list(pi.levels)}, {pi.finite!r})"
    # Its square is in the coroot lattice again only where Omega has order 2.
    assert in_weyl_subgroup(pi * pi, full) == (label == "D4")


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3"])
def test_subgroup_membership_matches_translation_form(label):
    # x = t_lambda w lies in the subgroup for J exactly when w lies in W_J
    # and lambda is supported on J.
    rs, form, ball = _paired_ball(label, 4)
    positives = [r for r in form.roots if max(r) > 0]
    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        found = 0
        for x, (lam, images) in ball.items():
            coords = form.coroot_coords((lam, images))
            expected = subgroup_by_supports(images, positives, J) and not any(
                c for i, c in enumerate(coords, 1) if i not in J
            )
            assert in_weyl_subgroup(x, sub) == expected, (J, x)
            found += expected
        assert found > 1 or not J
