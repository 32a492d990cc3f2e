import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from weylwords.cartan import build_root_system, sub_system
from weylwords.finweyl import from_word, identity, minimal_coset_reps, tail_roots
from weylwords.affine import (
    AffineRoot,
    Letter,
    affine_identity,
    affine_inversion_set,
    affine_reduced_word,
    bfs_elements,
    from_letters,
    letter_root,
    letters_of,
    lift,
    tower,
    translation,
)
from weylwords.biconvex import BiconvexParam, WindowSet, realize
from weylwords.verify import _action_formula
from weylwords import affine, biconvex, words
from weylwords.affine import _walk
from weylwords.words import (
    InfiniteWord,
    _Structure,
    _translation_period,
    act_on_word,
    classify_word,
    inversion_at,
    limit_inversions,
    orbit_invariant,
    prefix_element,
    translation_word,
    word_from_json,
    word_of_param,
    word_to_json,
    words_equivalent,
)

from oracles import letter_element, subsets

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A1_FULL = sub_system(A1, (1,))
A2_FULL = sub_system(A2, (1, 2))

A1_BASE = InfiniteWord(A1_FULL, (), (Letter("a", 1), Letter("c", 1)))
A1_OTHER = InfiniteWord(A1_FULL, (), (Letter("c", 1), Letter("a", 1)))


def test_prefix_and_inversion_examples():
    assert prefix_element(A1_BASE, 0).is_identity
    assert inversion_at(A1_BASE, 1) == AffineRoot(1, (-1,))
    assert inversion_at(A1_BASE, 2) == AffineRoot(2, (-1,))
    assert prefix_element(A1_BASE, 2) == translation(A1, (1,))


def test_prefix_far_out_matches_direct_product():
    for word in (A1_BASE, A1_OTHER):
        direct = affine_identity(A1)
        for p in range(1, 25):
            direct = direct * _letter_elem(word, p)
            assert prefix_element(word, p) == direct


def _letter_elem(word, p):
    return letter_element(word.sub, word.letter_at(p))


def test_inversions_are_positive_and_distinct_over_three_periods():
    for word in (A1_BASE, A1_OTHER, translation_word(A2_FULL, ()),
                 translation_word(A2_FULL, (1,))):
        bound = len(word.head) + 3 * len(word.period)
        values = [inversion_at(word, p) for p in range(1, bound + 1)]
        assert all(v.is_positive for v in values)
        assert len(set(values)) == len(values)


def test_limit_inversions_examples():
    assert limit_inversions(A1_BASE, 2) == {
        AffineRoot(1, (-1,)),
        AffineRoot(2, (-1,)),
    }
    assert limit_inversions(A1_OTHER, 1) == {
        AffineRoot(0, (1,)),
        AffineRoot(1, (1,)),
    }
    level0 = {b for b in limit_inversions(A1_OTHER, 0)}
    assert level0 == {AffineRoot(0, (1,))}
    with pytest.raises(ValueError, match="non-negative"):
        limit_inversions(A1_BASE, -1)


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        InfiniteWord(A1_FULL, (), (Letter("c", 1),))
    with pytest.raises(ValueError):
        InfiniteWord(A1_FULL, (Letter("c", 1),), (Letter("c", 1), Letter("a", 1)))
    with pytest.raises(ValueError):
        InfiniteWord(A1_FULL, (), ())


def test_finite_order_period_rejected_despite_positive_inversions():
    # (s1 s2) repeated: the first three inversions are positive, but the
    # period product has finite order 3, so the word is not infinite reduced.
    # The climb through head + 3 periods meets the negative fourth inversion.
    with pytest.raises(ValueError, match="inversion 4 is negative"):
        InfiniteWord(A2_FULL, (), (Letter("c", 1), Letter("c", 2)))


def test_translation_word_a1():
    word = translation_word(A1_FULL, ())
    assert word.head == ()
    assert word.period == (Letter("a", 1), Letter("c", 1))


def test_translation_word_a2_full():
    word = translation_word(A2_FULL, ())
    assert len(word.period) == 4
    assert prefix_element(word, 4) == translation(A2, (1, 1))


def test_translation_word_a2_k1():
    word = translation_word(A2_FULL, (1,))
    lam = prefix_element(word, len(word.period)).translation
    assert sum(c * A2.simple_coroot_pairing(A2.simple_root(1), i)
               for i, c in enumerate(lam, start=1)) == 0
    cls = classify_word(word)
    assert cls.K == (1,)
    assert cls.param.u == identity(A2)
    assert cls.param.y.is_identity


def test_translation_word_rejects_full_k():
    with pytest.raises(ValueError):
        translation_word(A2_FULL, (1, 2))


@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_translation_word_inversions_equal_tail(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for J in subsets(rs.index_set):
        if not J:
            continue
        sub = sub_system(rs, tuple(sorted(J)))
        for K in subsets(J):
            if set(K) == set(J):
                continue
            word = translation_word(sub, tuple(sorted(K)))
            for cutoff in (0, 3, 6):
                assert limit_inversions(word, cutoff) == tower(
                    rs, tail_roots(sub, tuple(sorted(K)), identity(rs)), cutoff
                )


def test_act_identity_keeps_class():
    out = act_on_word(affine_identity(A1), A1_BASE)
    assert words_equivalent(out, A1_BASE)


def test_act_example_flips_tail():
    s1 = lift(from_word(A1, [1]))
    flipped = act_on_word(s1, A1_BASE)
    for cutoff in (0, 2, 5):
        assert limit_inversions(flipped, cutoff) == {
            AffineRoot(m, (1,)) for m in range(0, cutoff + 1)
        }
    assert words_equivalent(flipped, A1_OTHER)


def test_act_matches_formula_oracle():
    rng = random.Random(11)
    for sub in (A1_FULL, A2_FULL):
        letters = letters_of(sub)
        base_words = [translation_word(sub, ())]
        if len(sub.J) > 1:
            base_words.append(translation_word(sub, (sub.J[0],)))
        for _ in range(40):
            word = rng.choice(base_words)
            x = from_letters(sub, [rng.choice(letters) for _ in range(rng.randint(0, 3))])
            acted = act_on_word(x, word)
            assert limit_inversions(acted, 6) == _action_formula(x, word, 6)
            # The formula's two parts, inside inv(x) and inside x inv(word),
            # are disjoint: x-inverse sends the first negative, the second
            # positive.
            moved = {x.act(b) for b in limit_inversions(word, 12)}
            assert not affine_inversion_set(x, sub) & moved


def test_act_is_a_group_action_on_classes():
    rng = random.Random(23)
    letters = letters_of(A2_FULL)
    for _ in range(25):
        word = translation_word(A2_FULL, rng.choice([(), (1,), (2,)]))
        x = from_letters(A2_FULL, [rng.choice(letters) for _ in range(rng.randint(0, 3))])
        y = from_letters(A2_FULL, [rng.choice(letters) for _ in range(rng.randint(0, 3))])
        left = act_on_word(x, act_on_word(y, word))
        right = act_on_word(x * y, word)
        assert words_equivalent(left, right)


def test_act_by_inverse_returns_to_the_class():
    rng = random.Random(17)
    letters = letters_of(A2_FULL)
    for _ in range(10):
        base = translation_word(A2_FULL, rng.choice([(), (1,), (2,)]))
        x = from_letters(A2_FULL, [rng.choice(letters) for _ in range(4)])
        there = act_on_word(x, base)
        back = act_on_word(x.inverse, there)
        assert words_equivalent(back, base)


def test_act_with_long_head_and_interior_cut():
    # Build a word with a non-trivial head, then act by the inverse of a
    # short prefix so the cut lands inside the head.
    base = translation_word(A2_FULL, ())
    s2 = lift(from_word(A2, [2]))
    with_head = act_on_word(s2, base)
    assert with_head.head
    undo = act_on_word(prefix_element(with_head, 1).inverse, with_head)
    assert words_equivalent(act_on_word(prefix_element(with_head, 1), undo),
                            with_head)


def test_act_with_negative_overlap():
    # Acting by the inverse translation drags low tail elements negative,
    # exercising the correction term of the action formula.
    x = translation(A1, (-1,))
    dragged = {x.act(b) for b in limit_inversions(A1_BASE, 3)}
    assert any(not b.is_positive for b in dragged)
    moved = act_on_word(x, A1_BASE)
    assert limit_inversions(moved, 6) == _action_formula(x, A1_BASE, 6)
    assert orbit_invariant(moved) == ()


def test_act_rejects_outsiders():
    half = sub_system(A2, (1,))
    word = translation_word(half, ())
    # A reflection outside J, and a translation supported outside J.
    for x in (lift(from_word(A2, [2])), translation(A2, (0, 1))):
        with pytest.raises(ValueError, match="element is not in the subgroup for J"):
            act_on_word(x, word)


def test_word_of_param_examples():
    base_param = BiconvexParam(
        sub=A1_FULL, K=(), u=identity(A1), y=affine_identity(A1)
    )
    assert words_equivalent(word_of_param(base_param), A1_BASE)

    up_param = BiconvexParam(
        sub=A1_FULL, K=(), u=from_word(A1, [1]), y=affine_identity(A1)
    )
    assert words_equivalent(word_of_param(up_param), A1_OTHER)

    with pytest.raises(ValueError):
        word_of_param(
            BiconvexParam(sub=A1_FULL, K=(1,), u=identity(A1), y=affine_identity(A1))
        )


def test_word_of_param_mixed_case():
    s1_aff = from_letters(sub_system(A2, (1,)), [Letter("c", 1)])
    param = BiconvexParam(sub=A2_FULL, K=(1,), u=identity(A2), y=s1_aff)
    word = word_of_param(param)
    for cutoff in (1, 4):
        expected = set(tower(A2, tail_roots(A2_FULL, (1,), identity(A2)), cutoff))
        expected.add(AffineRoot(0, (1, 0)))
        assert limit_inversions(word, cutoff) == expected


def test_classify_translation_words():
    for K in [(), (1,), (2,)]:
        word = translation_word(A2_FULL, K)
        cls = classify_word(word)
        assert cls.K == tuple(K)
        assert cls.param.u == identity(A2)
        assert cls.param.y.is_identity


def test_rebracketings_are_equivalent():
    # The same letter sequence written with a longer head is the same word.
    shifted = InfiniteWord(
        A1_FULL, (Letter("a", 1),), (Letter("c", 1), Letter("a", 1))
    )
    assert words_equivalent(shifted, A1_BASE)
    assert not words_equivalent(A1_BASE, A1_OTHER)


@st.composite
def bounded_params(draw, max_y=2):
    """A parameter triple with K proper in J and y a product of at most
    max_y letters of K's affine subgroup, on A1-A3, B2, C2 or G2."""
    rs = build_root_system(draw(st.sampled_from(["A1", "A2", "A3", "B2", "C2", "G2"])))
    J = draw(st.sampled_from([tuple(sorted(J)) for J in subsets(rs.index_set) if J]))
    K = draw(st.sampled_from([tuple(sorted(K)) for K in subsets(J) if len(K) < len(J)]))
    sub, K_sub = sub_system(rs, J), sub_system(rs, K)
    u = draw(st.sampled_from(minimal_coset_reps(sub, K)))
    letters = draw(st.lists(st.sampled_from(letters_of(K_sub)), max_size=max_y)) if K else []
    return BiconvexParam(sub=sub, K=K, u=u, y=from_letters(K_sub, letters))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(bounded_params())
def test_classify_inverts_word_of_param(param):
    assert classify_word(word_of_param(param)).param == param


def test_orbit_invariant_examples():
    assert orbit_invariant(A1_BASE) == ()
    assert orbit_invariant(A1_OTHER) == ()
    rng = random.Random(3)
    letters = letters_of(A2_FULL)
    for K in [(), (1,), (2,)]:
        word = translation_word(A2_FULL, K)
        for _ in range(10):
            x = from_letters(
                A2_FULL, [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            )
            assert orbit_invariant(act_on_word(x, word)) == tuple(K)


def test_word_json_round_trip():
    data = word_to_json(A1_BASE)
    assert data == {"J": [1], "head": [], "period": [{"a": 1}, {"c": 1}]}
    assert word_from_json(A1, data) == A1_BASE


def _structure_words(label, seed=11):
    """Words over the full subsystem: the Coxeter word (period c_1 .. c_l a_1,
    whose finite part has order above 1) and base words, each also acted on
    by a few short elements, which gives heads and rotated periods."""
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    rng = random.Random(seed)
    alphabet = letters_of(full)
    bases = [InfiniteWord(full, (), alphabet)] + [
        translation_word(full, K) for K in subsets(rs.index_set) if len(K) < rs.rank
    ][:2]
    words = list(bases)
    for base in bases:
        for _ in range(3):
            x = from_letters(full, [rng.choice(alphabet) for _ in range(rng.randint(2, 5))])
            words.append(act_on_word(x, base))
    return words


STRUCTURE_WORDS = [w for label in ("A2", "B2", "G2", "C3") for w in _structure_words(label)]


def _acted_groups(labels, radius=3):
    """For each J and proper K, the base word acted on by every element of
    J's ball of the radius: one list per (J, K)."""
    for label in labels:
        rs = build_root_system(label)
        for J in filter(None, subsets(rs.index_set)):
            sub = sub_system(rs, J)
            ball = bfs_elements(sub, radius)
            for K in subsets(J):
                if K != J:
                    base = translation_word(sub, K)
                    yield [act_on_word(x, base) for x in ball]


def _check_word_classes(groups):
    """Check that the parameters read off each word's certificate name its
    whole inversion set: realized a level past the certificate, they give
    every inversion up to it (beyond, both are the tail), and they are the
    parameters of their own standard word.  Two words of a group are
    equivalent exactly when their parameters agree.  Returns the numbers of
    words and of pairs checked."""
    checked = compared = 0
    for group in groups:
        params = [classify_word(word).param for word in group]
        for word, param in zip(group, params):
            depth = max(b.level for b in word._structure.phis) + 1
            assert realize(param, depth).truncate(depth) == limit_inversions(word, depth), word
            assert classify_word(word_of_param(param)).param == param
            checked += 1
        for (a, p), (b, q) in combinations(zip(group, params), 2):
            assert words_equivalent(a, b) == (p == q), (a, b)
            compared += 1
    return checked, compared


def test_classify_round_trips_through_realize():
    groups = [[w for w in STRUCTURE_WORDS if w.sub is sub]
              for sub in dict.fromkeys(w.sub for w in STRUCTURE_WORDS)]
    groups += _acted_groups(("A2", "C2", "G2"))
    assert _check_word_classes(groups) == (246, 1671)


def test_classes_read_no_inversion_window(monkeypatch):
    # Classification and equivalence read the certificate: no inversions
    # listed to a depth, no window built.
    expected = [classify_word(word) for word in STRUCTURE_WORDS]

    def refused(*args, **kwargs):
        raise AssertionError("a window or a listing was built")

    monkeypatch.setattr(words, "limit_inversions", refused)
    monkeypatch.setattr(words, "word_window", refused)
    monkeypatch.setattr(biconvex.WindowSet, "__init__", refused)
    monkeypatch.setattr(biconvex.WindowSet, "_filled", refused)
    assert [classify_word(word) for word in STRUCTURE_WORDS] == expected
    for a, b in zip(STRUCTURE_WORDS, STRUCTURE_WORDS[1:] + STRUCTURE_WORDS[:1]):
        if a.sub is b.sub:
            assert words_equivalent(a, b) == (classify_word(a) == classify_word(b))
        assert words_equivalent(a, a)


def _period_order(word):
    """The order d of the period product's finite part, by plain products."""
    pi = affine_identity(word.sub.rs)
    for letter in word.period:
        pi = pi * letter_element(word.sub, letter)
    order, power = 1, pi.finite
    while not power.is_identity:
        order, power = order + 1, power * pi.finite
    return order


def _window_by_positions(word, cutoff):
    """``word_window``'s second route: the inversions listed position by
    position with ``inversion_at``, through the checked public constructor.
    The tail is the classical parts of inversions H + 1 .. H + d*n, and the
    cutoff is raised to the top head inversion off it.  Past position
    H + m*d*n every inversion has climbed at least m levels, so the first
    H + d*n*(c + 1) positions hold every inversion up to level c."""
    H, block = len(word.head), _period_order(word) * len(word.period)
    tail = frozenset(inversion_at(word, p).classical for p in range(H + 1, H + block + 1))
    head = [inversion_at(word, p) for p in range(1, H + 1)]
    top = max([cutoff, *(b.level for b in head if b.classical not in tail)])
    listed = (inversion_at(word, p) for p in range(1, H + block * (top + 1) + 1))
    return WindowSet(word.sub, top, [b for b in listed if b.level <= top], tail=tail)


def test_word_window_equals_the_positionwise_listing():
    acted = [word for group in _acted_groups(("A2", "C2", "G2")) for word in group]
    for word in STRUCTURE_WORDS + acted:
        for cutoff in (0, 3, 8):
            assert words.word_window(word, cutoff) == _window_by_positions(word, cutoff), word
        for read in (words.word_window, limit_inversions):
            with pytest.raises(ValueError, match="^cutoff must be non-negative$"):
                read(word, -1)
    assert len(STRUCTURE_WORDS + acted) == 246


def test_structure_words_cover_heads_and_finite_parts_of_higher_order():
    assert sum(bool(w.head) for w in STRUCTURE_WORDS) >= 20
    assert sum(_period_order(w) > 1 and bool(w.head) for w in STRUCTURE_WORDS) >= 8


@pytest.mark.parametrize("word", STRUCTURE_WORDS, ids=lambda w: w.sub.rs.label)
def test_word_structure_matches_plain_products(word):
    sub = word.sub
    bound = len(word.head) + 3 * _period_order(word) * len(word.period)
    z = affine_identity(sub.rs)
    inversions = []
    for p in range(1, bound + 1):
        letter = word.letter_at(p)
        inversions.append(z.act(letter_root(sub, letter)))
        assert inversion_at(word, p) == inversions[-1]
        z = z * letter_element(sub, letter)
        assert prefix_element(word, p) == z
    # Past position H + 3*d*n every inversion climbed at least 3 levels.
    assert limit_inversions(word, 2) == {b for b in inversions if b.level <= 2}


@pytest.mark.parametrize("word", STRUCTURE_WORDS, ids=lambda w: w.sub.rs.label)
def test_undoing_a_prefix_past_the_first_block_rotates_the_period(word):
    # Cuts in the first period, past one block of d periods, and inside the
    # third block: the action removes the prefix and starts at the cut.
    H, n = len(word.head), len(word.period)
    block = _period_order(word) * n
    for p in (H + 1, H + block + 1, H + 2 * block + 3):
        x = prefix_element(word, p).inverse
        acted = act_on_word(x, word)
        shift = (p - H) % n
        assert acted.head == ()
        assert acted.period == word.period[shift:] + word.period[:shift]
        assert limit_inversions(acted, 6) == _action_formula(x, word, 6)


def _cut_by_inclusion(x, word):
    """The action's head and period, cut the old way: at the smallest p0
    with N(x^-1) & Inv(word) inside the first p0 inversions, the head being
    a reduced word of x times the p0-prefix."""
    sub = word.sub
    finite = affine_inversion_set(x.inverse, sub)
    target = finite & limit_inversions(word, max((b.level for b in finite), default=0))
    p0, seen = 0, set()
    while not target <= seen:
        p0 += 1
        phi = inversion_at(word, p0)
        seen.add(phi)
        # The pivot of step p0 is x(phi): negative exactly on the target.
        assert x.act(phi).is_positive != (phi in target)
    head = affine_reduced_word(x * prefix_element(word, p0), sub)
    H, n = len(word.head), len(word.period)
    if p0 <= H:
        return tuple(head) + word.head[p0:], word.period
    shift = (p0 - H) % n
    return tuple(head), word.period[shift:] + word.period[:shift]


@pytest.mark.parametrize("word", STRUCTURE_WORDS, ids=lambda w: w.sub.rs.label)
def test_act_cuts_where_the_inclusion_test_does(word):
    for x in bfs_elements(word.sub, 3):
        acted = act_on_word(x, word)
        assert (acted.head, acted.period) == _cut_by_inclusion(x, word), x


REJECTED_WORDS = [
    ("A1", "", "c1", 2),
    ("A1", "", "c1 a1 c1", 4),
    ("A2", "", "c1 c2", 4),
    ("B2", "", "c1 c2", 5),
    ("G2", "", "c1 c2", 7),
    # Faults in the head: the periods are walked before the scan, yet the
    # first non-positive pivot is named (the second word's periods have one too).
    ("A1", "c1 c1", "a1 c1", 2),
    ("A1", "a1 c1 c1", "a1 c1", 3),
]


@pytest.mark.parametrize("label,head,period,position", REJECTED_WORDS,
                         ids=["-".join(filter(None, map(str, case))) for case in REJECTED_WORDS])
def test_rejection_names_the_first_negative_inversion(label, head, period, position):
    rs = build_root_system(label)
    head, period = (tuple(Letter(t[0], int(t[1:])) for t in s.split()) for s in (head, period))
    with pytest.raises(ValueError, match=f"inversion {position} is negative"):
        InfiniteWord(sub_system(rs, rs.index_set), head, period)


def test_positive_pivots_through_d_periods_certify_every_word():
    # Every head of at most 3 letters and period of 1 to 3 letters over the
    # full A2, C2 and G2: a word is rejected for a negative inversion, or it
    # certifies with no internal fault, and three times as many periods as
    # the certificate climbed still walk with positive, distinct pivots.
    rejected = re.compile(r"not an infinite reduced word: inversion \d+ is negative")
    counts = {}
    for label in ("A2", "C2", "G2"):
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        letters, certified = letters_of(full), 0
        cases = [(head, period) for h in range(4) for head in product(letters, repeat=h)
                 for n in range(1, 4) for period in product(letters, repeat=n)]
        for head, period in cases:
            try:
                word = InfiniteWord(full, head, period)
            except ValueError as exc:
                assert rejected.fullmatch(str(exc)), (label, head, period, exc)
                continue
            certified += 1
            periods = 3 * (len(word._structure.phis) - len(head)) // len(period)
            pivots = _walk(full, head + period * periods)[0]
            assert all(phi.is_positive for phi in pivots) and len(set(pivots)) == len(pivots)
            assert pivots == [inversion_at(word, p) for p in range(1, len(pivots) + 1)]
        counts[label] = (len(cases), certified)
    assert counts == {"A2": (1560, 66), "C2": (1560, 54), "G2": (1560, 50)}


def test_translation_periods_are_memoized_per_subset():
    sub = sub_system(build_root_system("A3"), (1, 2, 3))
    _translation_period.cache_clear()
    base = translation_word(sub, (1, 3))
    for K in ([3, 1], (3, 1, 1), [1, 3, 3]):
        word = translation_word(sub, K)
        assert word.period == base.period
        assert word is not base  # each call certifies a fresh word
    assert _translation_period.cache_info().currsize == 1
    translation_word(sub, (2,))
    assert _translation_period.cache_info().currsize == 2
    for bad in ((1, 2, 3), (3, 2, 1, 1), (4,), (0, 1)):
        with pytest.raises(ValueError):
            translation_word(sub, bad)
    assert _translation_period.cache_info().currsize == 2


def _fresh(word):
    """The certificate of the same letters, climbed by the public constructor."""
    return InfiniteWord(word.sub, word.head, word.period)._structure


def _certificate_cases(label, radius):
    """Base words for every J and proper K, then the words with a head that
    four fixed elements of the ball give; and the ball itself."""
    rs = build_root_system(label)
    for J in filter(None, subsets(rs.index_set)):
        sub = sub_system(rs, J)
        ball = list(bfs_elements(sub, radius))
        bases = [translation_word(sub, K) for K in subsets(J) if len(K) < len(J)]
        headed = [act_on_word(x, base) for base in bases for x in ball[-4:]]
        yield bases, bases + headed, ball


@pytest.mark.parametrize("label,radius", [("A2", 3), ("C2", 3), ("G2", 3), ("B3", 2)])
def test_preset_certificates_equal_a_fresh_climb(label, radius):
    checked = headed = 0
    for bases, words, ball in _certificate_cases(label, radius):
        for base in bases:
            assert base._structure == _fresh(base)
        for word in words:
            for x in ball:
                acted = act_on_word(x, word)
                assert acted._structure == _fresh(acted), (word, x)
                checked += 1
                headed += bool(acted.head)
    assert headed > checked // 2


def test_memoized_base_words_make_no_letter_step(monkeypatch):
    # Every letter step goes through the one walk: count the letters it walks.
    sub = sub_system(build_root_system("B3"), (1, 2, 3))
    translation_word(sub, (2,))
    steps = []

    def counted(sub, letters, *rest):
        letters = tuple(letters)
        steps.extend(letters)
        return _walk(sub, letters, *rest)

    for module in (affine, words):
        monkeypatch.setattr(module, "_walk", counted)
    word = translation_word(sub, (2,))
    assert steps == []
    InfiniteWord(sub, (), word.period)  # the counter sees a real climb
    assert len(steps) == len(word._structure.phis)


def test_walk_memo_never_changes_an_action():
    # Every structure word acted on by its subsystem's radius-2 ball: once
    # right after clearing the sum memo, then twice in a row in a seeded
    # shuffled order with the memo warm.  Heads, periods and certificates agree.
    pairs = [(x, word) for word in STRUCTURE_WORDS for x in bfs_elements(word.sub, 2)]
    cold = []
    for x, word in pairs:
        affine._walk_of_sum.cache_clear()
        acted = act_on_word(x, word)
        cold.append((acted.head, acted.period, acted._structure))
    order = list(range(len(pairs)))
    random.Random(28).shuffle(order)
    hits = affine._walk_of_sum.cache_info().hits
    for i in order:
        for _ in range(2):
            acted = act_on_word(*pairs[i])
            assert (acted.head, acted.period, acted._structure) == cold[i], pairs[i]
    assert affine._walk_of_sum.cache_info().hits >= hits + len(pairs)


@pytest.mark.parametrize("phis", [
    (AffineRoot(1, (-1,)), AffineRoot(1, (-1,))),
    (AffineRoot(1, (-1,)), AffineRoot(-1, (1,))),
], ids=["repeated", "negative"])
def test_a_broken_transported_certificate_is_an_internal_fault(phis):
    period = (Letter("a", 1), Letter("c", 1))
    broken = InfiniteWord._certified(A1_FULL, (), period, _Structure(phis, (2, 2)))
    with pytest.raises(RuntimeError, match="transported certificate"):
        act_on_word(affine_identity(A1), broken)
