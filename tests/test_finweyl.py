import random

import pytest

from weylwords import finweyl
from weylwords.cartan import (
    add,
    build_root_system,
    cartan_matrix,
    complement_roots,
    is_positive,
    negate,
    sub_system,
)
from weylwords.finweyl import (
    classify_subset,
    coset_decompose,
    element_from_inversions,
    factor_pointed_biclosed,
    from_word,
    identity,
    in_subgroup,
    inversion_set,
    minimal_coset_reps,
    push_negative,
    simple_reflection,
    tail_roots,
    weyl_elements,
    WeylElement,
    _factor_cached,
    _reflect,
    _tail_roots_cached,
    _weyl_elements_cached,
)

from oracles import (
    bfs_word_lengths,
    brute_force_positivize,
    gram_reflect,
    height_greedy_push,
    subgroup_by_supports,
    subsets,
)


A2 = build_root_system("A2")
A2_FULL = sub_system(A2, (1, 2))


def inversions_by_formula(rs, word):
    """Oracle: alpha_{s_1}, s_1(alpha_{s_2}), ... for a reduced word."""
    values = []
    for n, i in enumerate(word):
        beta = rs.simple_root(i)
        for j in reversed(word[:n]):
            beta = simple_reflection(rs, j).apply(beta)
        values.append(beta)
    return values


def test_involution_and_group_laws():
    s1 = simple_reflection(A2, 1)
    s2 = simple_reflection(A2, 2)
    assert (s1 * s1).is_identity
    assert (s1 * s2) * s1 == s1 * (s2 * s1)
    w = s1 * s2 * s1
    assert (w * w.inverse).is_identity
    assert (w.inverse * w).is_identity


def test_simple_reflection_example():
    s1 = simple_reflection(A2, 1)
    assert s1.apply((0, 1)) == (1, 1)
    assert s1.apply((1, 0)) == (-1, 0)


def test_apply_preserves_form():
    rs = build_root_system("G2")
    w = from_word(rs, [1, 2, 1])
    for a in rs.roots:
        for b in rs.roots:
            assert rs.pairing(w.apply(a), w.apply(b)) == rs.pairing(a, b)


def test_mixed_root_systems_rejected():
    other = build_root_system("A1")
    with pytest.raises(ValueError):
        simple_reflection(A2, 1) * simple_reflection(other, 1)


def test_inversion_set_examples():
    assert inversion_set(identity(A2), A2_FULL) == frozenset()
    s1 = simple_reflection(A2, 1)
    assert inversion_set(s1, A2_FULL) == {(1, 0)}
    s1s2 = from_word(A2, [1, 2])
    assert inversion_set(s1s2, A2_FULL) == {(1, 0), (1, 1)}


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_inversions_match_word_formula(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for w in weyl_elements(full):
        values = inversions_by_formula(rs, w.word)
        assert len(set(values)) == len(values)
        assert frozenset(values) == inversion_set(w, full)
        assert len(values) == w.length


def test_reduced_word_examples():
    assert identity(A2).word == ()
    longest = max(weyl_elements(A2_FULL), key=lambda w: w.length)
    assert longest.length == 3
    assert from_word(A2, [1, 2, 1]).length == 3
    # Non-reduced input words still canonicalize.
    assert from_word(A2, [1, 1, 2]).word == (2,)


def test_group_orders():
    for label, order in [("A2", 6), ("C2", 8), ("G2", 12)]:
        rs = build_root_system(label)
        assert len(weyl_elements(sub_system(rs, rs.index_set))) == order
    assert len(weyl_elements(sub_system(A2, ()))) == 1


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_lengths_match_bfs_oracle(label):
    rs = build_root_system(label)
    gens = [simple_reflection(rs, i) for i in rs.index_set]
    dist = bfs_word_lengths(gens, identity(rs), lambda x, g: x * g, 12)
    full = sub_system(rs, rs.index_set)
    assert len(dist) == len(weyl_elements(full))
    for w, d in dist.items():
        assert w.length == d
        assert len(inversion_set(w, full)) == d


ORDER_CASES = [(label, None) for label in ("A3", "B3", "C3", "D4", "F4", "G2")] + [
    (label, J) for label in ("B3", "C3") for J in subsets((1, 2, 3)) if 0 < len(J) < 3
]


@pytest.mark.parametrize("label,J", ORDER_CASES)
def test_weyl_elements_in_reduced_word_order(label, J):
    # brute_force_positivize relies on this order.  Words are read off fresh
    # copies built from the images, so nothing the enumeration seeds is
    # trusted; from_word then checks that each word spells its element.
    rs = build_root_system(label)
    sub = sub_system(rs, rs.index_set if J is None else J)
    elements = weyl_elements(sub)
    assert len(set(elements)) == len(elements)
    keys = []
    for w in elements:
        word = WeylElement(rs, w.images).word
        assert from_word(rs, word) == w
        assert w.length == len(word)
        keys.append((len(word), word))
    assert keys == sorted(keys)


EXPONENTS = {
    "A3": (1, 2, 3), "B3": (1, 3, 5), "C3": (1, 3, 5),
    "D4": (1, 3, 3, 5), "F4": (1, 5, 7, 11), "G2": (1, 5),
}


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_length_distribution_is_poincare_polynomial(label):
    poincare = [1]
    for e in EXPONENTS[label]:
        # Multiply by 1 + q + ... + q^e.
        poincare = [
            sum(poincare[k - d] for d in range(e + 1) if 0 <= k - d < len(poincare))
            for k in range(len(poincare) + e)
        ]
    rs = build_root_system(label)
    counts = [0] * len(poincare)
    for w in weyl_elements(sub_system(rs, rs.index_set)):
        counts[w.length] += 1
    assert counts == poincare


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_left_step_is_left_product(label):
    rs = build_root_system(label)
    for w in weyl_elements(sub_system(rs, rs.index_set)):
        for i in rs.index_set:
            assert w._simple_times(i) == simple_reflection(rs, i) * w



TABLE_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_reflection_table_matches_the_gram_formula(label):
    # Each s_i permutes the root indices as the textbook formula moves the
    # roots, and the negative roots hold the lower half of the indices.  A
    # system built from the bare matrix carries the same tables.
    rs = build_root_system(label)
    index, perms = rs.root_index, rs.reflections
    bare = build_root_system(cartan_matrix(label))
    tables = ("root_index", "reflections", "cartan_support", "det", "weight_columns")
    assert bare is not rs
    assert [getattr(bare, t) for t in tables] == [getattr(rs, t) for t in tables]
    half = len(rs.roots) // 2
    assert [index[r] for r in rs.roots] == list(range(len(rs.roots)))
    assert [t >= half for t in range(len(rs.roots))] == [is_positive(r) for r in rs.roots]
    assert len(perms) == rs.rank
    for i, perm in zip(rs.index_set, perms):
        images = tuple([rs.roots[t] for t in perm])
        assert images == tuple(gram_reflect(rs.gram, rs.simple_root(i), r) for r in rs.roots), i
        assert _reflect(rs, rs.roots, i) == images

def test_reflection_in_arbitrary_root():
    # s_1 s_2 s_1 is the reflection in the highest root theta.
    theta = (1, 1)
    r = from_word(A2, [1, 2, 1])
    assert r.apply(theta) == negate(theta)
    for v in A2.roots:
        assert r.apply(v) == gram_reflect(A2.gram, theta, v)


def test_coset_decompose_examples():
    s1 = simple_reflection(A2, 1)
    upper, lower = coset_decompose(s1, A2_FULL, {1})
    assert upper.is_identity and lower == s1

    w = from_word(A2, [1, 2])
    upper, lower = coset_decompose(w, A2_FULL, ())
    assert upper == w and lower.is_identity

    upper, lower = coset_decompose(w, A2_FULL, {1})
    assert upper == w and lower.is_identity
    assert is_positive(upper.apply(A2.simple_root(1)))


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_coset_decompose_everywhere(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for K in subsets(rs.index_set):
        reps = set(minimal_coset_reps(full, K))
        for w in weyl_elements(full):
            upper, lower = coset_decompose(w, full, K)
            assert upper * lower == w
            assert upper in reps
            assert in_subgroup(lower, sub_system(rs, K))
            assert upper.length + lower.length == w.length


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
def test_in_subgroup_matches_inversion_supports(label):
    rs = build_root_system(label)
    elements = weyl_elements(sub_system(rs, rs.index_set))
    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        for w in elements:
            assert in_subgroup(w, sub) == subgroup_by_supports(
                w.images, rs.positive_roots, J
            )
        assert sum(in_subgroup(w, sub) for w in elements) == len(weyl_elements(sub))


def test_minimal_coset_reps_are_shortest():
    for K in subsets(A2.index_set):
        reps = minimal_coset_reps(A2_FULL, K)
        K_sub = sub_system(A2, K)
        order_K = len(weyl_elements(K_sub))
        assert len(reps) * order_K == len(weyl_elements(A2_FULL))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_minimal_coset_reps_are_the_filter_over_the_group(label):
    # The quotient search keeps the elements and the order of the filter
    # w(alpha_k) > 0 over all of W_J, and presets each length truly.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    elements = weyl_elements(full)
    for K in subsets(rs.index_set):
        reps = minimal_coset_reps(full, K)
        assert reps == tuple(
            w for w in elements if all(is_positive(w.images[k - 1]) for k in K)
        )
        assert all(u.length == len(u.word) for u in reps)


# |W^J_K| = |W_J| / |W_K| with J the whole type and K all nodes but one.
@pytest.mark.parametrize("label, outside, size", [
    ("E6", 1, 27),    # 51,840 / 1,920, W(D5)
    ("E6", 6, 27),    # 51,840 / 1,920, W(D5)
    ("E7", 7, 56),    # 2,903,040 / 51,840, W(E6)
    ("E7", 1, 126),   # 2,903,040 / 23,040, W(D6)
    ("E8", 8, 240),   # 696,729,600 / 2,903,040, W(E7)
    ("E8", 1, 2160),  # 696,729,600 / 322,560, W(D7)
])
def test_quotient_sizes_without_the_group(label, outside, size):
    rs = build_root_system(label)
    K = tuple(k for k in rs.index_set if k != outside)
    listed = _weyl_elements_cached.cache_info().currsize
    reps = minimal_coset_reps(sub_system(rs, rs.index_set), K)
    assert len(reps) == len(set(reps)) == size
    assert _weyl_elements_cached.cache_info().currsize == listed  # W_J never listed


def test_classify_subset_examples():
    positives = frozenset(A2_FULL.positives)
    flags = classify_subset(positives, A2_FULL)
    # The full positive half is closed, pointed, and parabolic (it is the
    # K-empty standard parabolic set).
    assert flags.closed and flags.pointed and flags.parabolic_in_J

    full = classify_subset(A2_FULL.root_set, A2_FULL)
    assert full.parabolic_in_J and full.symmetric

    empty = classify_subset(frozenset(), A2_FULL)
    assert empty.closed and empty.pointed
    assert empty.pointed_part == frozenset() and empty.symmetric_part == frozenset()


def test_classify_subset_rejects_outside():
    with pytest.raises(ValueError):
        classify_subset({(2, 0)}, A2_FULL)
    with pytest.raises(ValueError):
        classify_subset({(0, 1)}, sub_system(A2, {1}))


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_pointed_symmetric_split_unique_and_closed(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    for P in subsets(full.roots):
        flags = classify_subset(P, full)
        # The split is forced by the formulas, hence unique.
        assert flags.pointed_part | flags.symmetric_part == P
        assert flags.pointed_part & flags.symmetric_part == frozenset()
        assert flags.symmetric_part == {r for r in P if negate(r) in P}
        if flags.closed:
            sym_ok = classify_subset(flags.symmetric_part, full).closed
            pt_ok = classify_subset(flags.pointed_part, full).closed
            assert sym_ok and pt_ok
            for a in flags.pointed_part:
                for b in flags.symmetric_part:
                    s = add(a, b)
                    if s in rs.root_set:
                        assert s in flags.pointed_part


def test_push_negative_examples():
    negatives = frozenset(A2_FULL.negatives)
    assert push_negative(negatives, A2_FULL).is_identity
    assert push_negative(frozenset(), A2_FULL).is_identity
    w = push_negative({(1, 0)}, A2_FULL)
    assert not is_positive(w.apply((1, 0)))
    assert w == simple_reflection(A2, 1)


def test_push_negative_rejects_roots_outside_the_subsystem():
    with pytest.raises(ValueError, match="subset contains vectors outside the subsystem"):
        push_negative({(1, 0)}, sub_system(A2, (2,)))


def test_push_negative_highest_root_only():
    # {theta} contains no simple root.  theta pairs positively with both
    # simple coroots, so the rule takes s_1, and then s_2 for s_1(theta) = alpha_2.
    w = push_negative({(1, 1)}, A2_FULL)
    assert not is_positive(w.apply((1, 1)))
    assert w == from_word(A2, [2, 1])


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_push_negative_all_pointed_closed(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    negatives = set(full.negatives)
    for P in subsets(full.roots):
        flags = classify_subset(P, full)
        if flags.pointed and flags.closed:
            w = push_negative(P, full)
            assert all(not is_positive(w.apply(r)) for r in P)
            # The exhaustive oracle must agree that a solution exists.
            oracle = brute_force_positivize(
                weyl_elements(full), lambda v, r: v.apply(r), P, negatives
            )
            assert oracle is not None
        else:
            with pytest.raises(ValueError):
                push_negative(P, full)


def _no_group(sub):
    raise AssertionError("weyl_elements was called")


def _closure(rs, roots):
    """The least closed set holding ``roots``: add every sum that is a root."""
    closed, new = set(roots), set(roots)
    while new:
        new = {s for a in new for b in closed if (s := add(a, b)) in rs.root_set} - closed
        closed |= new
    return frozenset(closed)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_push_negative_is_the_height_greedy_on_every_pointed_closed_set(label, monkeypatch):
    monkeypatch.setattr(finweyl, "weyl_elements", _no_group)
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    count = 0
    for P in subsets(full.roots):
        flags = classify_subset(P, full)
        if flags.pointed and flags.closed:
            images = height_greedy_push(rs.gram, full.J, P)
            assert push_negative(P, full).images == images, sorted(P)
            count += 1
    assert count > len(full.roots)


@pytest.mark.parametrize("label", ["B3", "C3", "D4"])
def test_push_negative_is_the_height_greedy_on_moved_closures(label, monkeypatch):
    # Closures of random sets of positive roots are pointed and closed, and
    # so are their images under random words.
    monkeypatch.setattr(finweyl, "weyl_elements", _no_group)
    rs = build_root_system(label)
    rng = random.Random(label)
    for J in (rs.index_set, rs.index_set[1:]):
        sub = sub_system(rs, J)
        for _ in range(40):
            base = _closure(rs, rng.sample(sub.positives, rng.randint(1, len(sub.positives))))
            u = from_word(rs, [rng.choice(J) for _ in range(rng.randint(0, 10))])
            P = frozenset(map(u.apply, base))
            w = push_negative(P, sub)
            assert w.images == height_greedy_push(rs.gram, J, P), sorted(P)
            assert in_subgroup(w, sub) and not any(is_positive(w.apply(r)) for r in P)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2"])
def test_from_word_is_the_product_of_simple_reflections(label):
    rs = build_root_system(label)
    rng = random.Random(label)
    for _ in range(30):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))]
        folded = identity(rs)
        for i in word:
            folded = folded * simple_reflection(rs, i)
        assert from_word(rs, word) == folded, word
    assert from_word(rs, ()) is from_word(rs, (1, 1)) is identity(rs)  # shares its caches
    for bad in (0, -1, rs.rank + 1):
        with pytest.raises(ValueError, match=f"index {bad} out of range 1..{rs.rank}"):
            from_word(rs, [1, bad])


def test_element_from_inversions_round_trip():
    for w in weyl_elements(A2_FULL):
        assert element_from_inversions(inversion_set(w, A2_FULL), A2_FULL) == w
    with pytest.raises(ValueError):
        element_from_inversions({(1, 1)}, A2_FULL)  # theta alone


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2", "A3", "B3"])
def test_element_from_inversions_exactly_on_inversion_sets(label):
    # Every subset of the positive roots of every nonempty J: the descent
    # walk either reads the element off its inversion set or fails cleanly,
    # with ValueError (never TypeError or RuntimeError).  So does every
    # inversion set with one negative root of J added, -alpha_j among them.
    rs = build_root_system(label)
    for J in subsets(rs.index_set):
        if not J:
            continue
        sub = sub_system(rs, J)
        table = {inversion_set(w, sub): w for w in weyl_elements(sub)}
        for F in subsets(sub.positives):
            if F in table:
                assert element_from_inversions(F, sub) == table[F]
            else:
                with pytest.raises(ValueError):
                    element_from_inversions(F, sub)
        for F in table:
            for beta in sub.negatives:
                with pytest.raises(ValueError):
                    element_from_inversions(F | {beta}, sub)


def test_word_of_a_non_element_is_an_internal_fault():
    # Equal images send 2 rho off the orbit: the walk ends short of 2 rho.
    with pytest.raises(RuntimeError):
        WeylElement(A2, ((1, 0), (1, 0))).word


def test_factor_pointed_biclosed_examples():
    K, u = factor_pointed_biclosed(frozenset(A2_FULL.negatives), A2_FULL)
    assert K == () and u.is_identity

    K, u = factor_pointed_biclosed(frozenset(), A2_FULL)
    assert K == (1, 2) and u.is_identity

    K, u = factor_pointed_biclosed({(0, -1), (-1, -1)}, A2_FULL)
    assert K == (1,) and u.is_identity


NOT_POINTED_BICLOSED = "set is not pointed and biclosed in the subsystem"


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2", "A3"])
def test_factorization_matches_exhaustive_search(label):
    # Oracle: tabulate u(complement negatives) for every (K, u); the map
    # must be injective and must exactly cover the pointed biclosed sets.
    rs = build_root_system(label)
    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        table = {}
        for K in subsets(J):
            Kt = tuple(sorted(K))
            for u in minimal_coset_reps(sub, Kt):
                image = frozenset(u.apply(r) for r in complement_roots(sub, Kt, -1))
                assert image not in table, "factorization is not unique"
                table[image] = (Kt, u)
        for P in subsets(sub.roots):
            flags = classify_subset(P, sub)
            pointed_biclosed = flags.pointed and flags.biclosed_in_J
            pointed_coclosed = flags.pointed and flags.coclosed_in_J
            assert pointed_biclosed == pointed_coclosed
            assert pointed_biclosed == (P in table)
            if pointed_biclosed:
                assert factor_pointed_biclosed(P, sub) == table[P]
            else:
                with pytest.raises(ValueError, match=NOT_POINTED_BICLOSED):
                    factor_pointed_biclosed(P, sub)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_factorization_memos_return_what_a_cold_call_does(label):
    rs = build_root_system(label)
    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        for K in subsets(J):
            K = tuple(sorted(K))
            for u in minimal_coset_reps(sub, K):
                P = tail_roots(sub, K, u)
                warm = [factor_pointed_biclosed(P, sub), P]
                assert warm[0] == (K, u)
                _factor_cached.cache_clear()
                _tail_roots_cached.cache_clear()
                assert tail_roots(sub, K[::-1], u) == P  # keyed on sorted K
                assert [factor_pointed_biclosed(P, sub), tail_roots(sub, K, u)] == warm
                assert P == frozenset(u.apply(r) for r in complement_roots(sub, K, -1))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4"])
def test_factorization_round_trips_and_refuses_near_misses(label):
    # Every tail reads back its own (K, u), with u's reduced word as a fresh
    # element computes it.  A tail with one root dropped or negated is read
    # back only when it is itself a tail, and raises the one reason otherwise.
    rs = build_root_system(label)
    checked = 0
    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        table = {}
        for K in subsets(J):
            K = tuple(sorted(K))
            for u in minimal_coset_reps(sub, K):
                table[frozenset(u.apply(r) for r in complement_roots(sub, K, -1))] = (K, u)
        for P, (K, u) in table.items():
            _factor_cached.cache_clear()
            got = factor_pointed_biclosed(P, sub)
            assert got == (K, u) and got[1].word == WeylElement(rs, u.images).word, (J, P)
            for r in P:
                for near in (P - {r}, P - {r} | {negate(r)}):
                    if near in table:
                        assert factor_pointed_biclosed(near, sub) == table[near]
                        continue
                    with pytest.raises(ValueError) as caught:
                        factor_pointed_biclosed(near, sub)
                    assert str(caught.value) == NOT_POINTED_BICLOSED
                    checked += 1
    assert checked


def test_factorization_failures_are_not_memoized():
    # Not biclosed, not pointed, and not roots of the subsystem.
    a1_only = sub_system(A2, (1,))
    bad = [
        ({(1, 0)}, A2_FULL, NOT_POINTED_BICLOSED),
        ({(1, 0), (-1, 0)}, A2_FULL, NOT_POINTED_BICLOSED),
        ({(0, -1)}, a1_only, "subset contains vectors outside the subsystem"),
    ]
    for P, sub, reason in bad:
        before = _factor_cached.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=reason):
                factor_pointed_biclosed(P, sub)
        assert _factor_cached.cache_info().currsize == before


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_parabolic_sets_are_exactly_translated_standard_ones(label):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    standard = set()
    for K in subsets(rs.index_set):
        base = frozenset(full.positives) | frozenset(
            r for r in sub_system(rs, K).negatives
        )
        for w in weyl_elements(full):
            standard.add(frozenset(w.apply(r) for r in base))
    for P in subsets(full.roots):
        assert classify_subset(P, full).parabolic_in_J == (P in standard)


def test_translated_complement_containment_criterion():
    # w1 C(K1) inside w2 C(K2) iff K1 contains K2 and w1 in w2 W_{K1}.
    rs = A2
    full = A2_FULL
    for K1 in subsets(rs.index_set):
        set1 = complement_roots(full, K1, +1)
        K1_sub = sub_system(rs, K1)
        for K2 in subsets(rs.index_set):
            set2 = frozenset(complement_roots(full, K2, +1))
            for w1 in weyl_elements(full):
                for w2 in weyl_elements(full):
                    lhs = all(w1.apply(r) in {w2.apply(s) for s in set2} for r in set1)
                    rhs = set(K1) >= set(K2) and in_subgroup(
                        w2.inverse * w1, K1_sub
                    )
                    assert lhs == rhs


def test_inversion_sets_are_biconvex_in_positives():
    for w in weyl_elements(A2_FULL):
        inv = inversion_set(w, A2_FULL)
        positives = frozenset(A2_FULL.positives)
        for a in positives:
            for b in positives:
                s = add(a, b)
                if s in positives:
                    if a in inv and b in inv:
                        assert s in inv
                    if a not in inv and b not in inv:
                        assert s not in inv
