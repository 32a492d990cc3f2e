"""The integer root tables against the exact rational routes in
``tests/oracles.py``.

Each check fails if a single table entry is wrong: the coroot coordinates
of every root of every built-in type, the integer reflection coefficient,
the Cartan adjugates and the finite-type decision of the fraction-free
elimination, the shared simple reflections, and the window test's index
triples (through ``is_biconvex_window`` against a frozenset closure test).
"""

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from weylwords.affine import affine_inversion_set, affine_window, bfs_elements
from weylwords.biconvex import _window_sum_triples, is_biconvex_window, realize
from weylwords.cartan import build_root_system, cartan_adjugate, sub_system
from weylwords.finweyl import (
    WeylElement,
    _times_word,
    from_word,
    identity,
    simple_reflection,
    weyl_elements,
)
from weylwords.verify import _params_for

from oracles import (
    biconvex_by_closure,
    extended_cartan,
    fraction_determinant,
    fraction_inverse,
    gram_coroot,
    gram_reflect,
    subsets,
    sylvester_positive_definite,
    symmetrized,
)

BUILT_IN = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
)
RANK_AT_MOST_4 = [label for label in BUILT_IN if int(label[1:]) <= 4]


def _integer_reflect(rs, root, v):
    """s_root(v) = v - <v, root-check> root, with the table's coroot."""
    coeff = rs.coroot_pairing(v, rs.coroot_coords(root))
    return tuple(x - coeff * r for x, r in zip(v, root))


@pytest.mark.parametrize("label", BUILT_IN)
def test_coroot_coords_match_the_rational_formula(label):
    rs = build_root_system(label)
    assert set(rs.coroots) == rs.root_set
    for beta in rs.roots:
        assert rs.coroot_coords(beta) == gram_coroot(rs.gram, beta), beta


@pytest.mark.parametrize("label", BUILT_IN)
def test_reflect_matches_the_rational_formula_on_simple_roots(label):
    rs = build_root_system(label)
    simples = [rs.simple_root(i) for i in rs.index_set]
    for beta in rs.roots:
        for v in simples:
            image = _integer_reflect(rs, beta, v)
            assert image == gram_reflect(rs.gram, beta, v), (beta, v)
            assert all(type(x) is int for x in image)


@pytest.mark.parametrize("label", RANK_AT_MOST_4)
def test_reflect_matches_the_rational_formula_on_all_roots(label):
    rs = build_root_system(label)
    for v in rs.roots:
        for i in rs.index_set:
            assert simple_reflection(rs, i).apply(v) == gram_reflect(rs.gram, rs.simple_root(i), v)
        for beta in rs.roots:
            assert _integer_reflect(rs, beta, v) == gram_reflect(rs.gram, beta, v), (beta, v)


def _connected_subsets(rs):
    for k in range(1, rs.rank + 1):
        for J in combinations(rs.index_set, k):
            if len(sub_system(rs, J).components) == 1:
                yield J


@pytest.mark.parametrize("label", BUILT_IN)
def test_cartan_adjugate_matches_the_fraction_inverse(label):
    rs = build_root_system(label)
    assert cartan_adjugate(rs, ()) == (1, [])
    for J in _connected_subsets(rs):
        block = [[rs.cartan[i - 1][j - 1] for j in J] for i in J]
        d, adj = cartan_adjugate(rs, J)
        assert d == fraction_determinant(block) > 0, J
        assert adj == [[d * x for x in row] for row in fraction_inverse(block)], J


FINITE_TYPE_ERROR = "Cartan matrix is not of finite type"


@pytest.mark.parametrize("label", BUILT_IN)
def test_extended_cartan_matrix_is_rejected_as_not_finite(label):
    rs = build_root_system(label)
    assert sylvester_positive_definite(symmetrized(rs.cartan))
    affine = extended_cartan(rs.gram, rs.roots[-1])  # the highest root
    assert not sylvester_positive_definite(symmetrized(affine))
    with pytest.raises(ValueError) as caught:
        build_root_system(affine)
    assert str(caught.value) == FINITE_TYPE_ERROR


@pytest.mark.parametrize("matrix", [[[2, -3], [-3, 2]], [[2, -1], [-5, 2]]])
def test_hyperbolic_rank_2_matrices_are_rejected_as_not_finite(matrix):
    assert not sylvester_positive_definite(symmetrized(matrix))
    with pytest.raises(ValueError) as caught:
        build_root_system(matrix)
    assert str(caught.value) == FINITE_TYPE_ERROR


BONDS = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-2, -3)]


@st.composite
def cartan_like(draw):
    """Square matrices with 2 on the diagonal and a random bond per pair."""
    n = draw(st.integers(2, 5))
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        a[i][j], a[j][i] = draw(st.sampled_from([(0, 0)] + BONDS))
    return a


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cartan_like())
def test_finite_type_decision_matches_sylvester(matrix):
    gram = symmetrized(matrix)
    try:
        build_root_system(matrix)
    except ValueError as exc:
        if str(exc) != FINITE_TYPE_ERROR:  # rejected before the finite-type test
            assert gram is None
            return
        assert not sylvester_positive_definite(gram)
    else:
        assert sylvester_positive_definite(gram)


@pytest.mark.parametrize("label", BUILT_IN)
def test_shared_simple_reflections_match_simple_reflect(label):
    rs = build_root_system(label)
    simples = tuple(rs.simple_root(i) for i in rs.index_set)
    assert identity(rs).images == simples
    assert identity(rs) is identity(rs)
    for i in rs.index_set:
        built = WeylElement(rs, tuple(
            tuple(map(int, gram_reflect(rs.gram, simples[i - 1], a))) for a in simples
        ))
        assert simple_reflection(rs, i) == built
        assert simple_reflection(rs, i) is simple_reflection(rs, i)
        assert (built * built).is_identity


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
def test_products_with_simple_reflections_and_inverses(label):
    rs = build_root_system(label)
    for w in weyl_elements(sub_system(rs, rs.index_set)):
        for i in rs.index_set:
            assert _times_word(w, (i,)) == w * simple_reflection(rs, i)
        assert (w * w.inverse).is_identity
        assert from_word(rs, w.word) == w
        assert w.inverse.length == w.length


def _window(label, cutoff):
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    return full, affine_window(full, cutoff)


def test_window_test_matches_closure_on_every_a1_subset():
    full, window = _window("A1", 2)
    assert len(window) == 7
    verdicts = set()
    for S in subsets(window):
        verdict = is_biconvex_window(S, full, 2)
        assert verdict == biconvex_by_closure(S, window), sorted(map(str, S))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _biconvex_seeds(label, cutoff):
    """Inversion windows of short elements and their complements."""
    full, window = _window(label, cutoff)
    seeds = []
    for x in bfs_elements(full, 3):
        inv = frozenset(b for b in affine_inversion_set(x, full) if b.level <= cutoff)
        seeds += [inv, frozenset(window) - inv]
    return seeds


WINDOW_KEYS = [(label, cutoff) for label in ("A2", "B2", "G2") for cutoff in (1, 2)]


@lru_cache(maxsize=None)
def _window_case(key):
    return _window(*key), _biconvex_seeds(*key)


@st.composite
def window_subsets(draw):
    key = draw(st.sampled_from(WINDOW_KEYS))
    (full, window), seeds = _window_case(key)
    if draw(st.booleans()):
        S = draw(st.sets(st.sampled_from(window)))
    else:
        # A biconvex set with up to two roots toggled, near the boundary.
        S = set(draw(st.sampled_from(seeds)))
        for beta in draw(st.lists(st.sampled_from(window), max_size=2)):
            S ^= {beta}
    return key, full, window, frozenset(S)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(window_subsets())
def test_window_test_matches_closure_on_random_subsets(case):
    (label, cutoff), full, window, S = case
    assert is_biconvex_window(S, full, cutoff) == biconvex_by_closure(S, window)


@pytest.mark.parametrize("key", WINDOW_KEYS)
def test_window_test_accepts_every_seed(key):
    (full, window), seeds = _window_case(key)
    cutoff = key[1]
    rng = random.Random(7)
    for S in seeds:
        assert is_biconvex_window(S, full, cutoff) and biconvex_by_closure(S, window)
        beta = rng.choice(window)
        toggled = S ^ {beta}
        assert is_biconvex_window(toggled, full, cutoff) == biconvex_by_closure(
            toggled, window
        )


def _root_triples(full, cutoff):
    """The window's sum triples as ({a, b}, a + b), independent of indexing."""
    index, triples = _window_sum_triples(full, cutoff)
    window = list(index)
    return {(frozenset((window[i], window[j])), window[k]) for i, j, k in triples}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_window_triples_nest_in_deeper_windows(label):
    full, _ = _window(label, 0)
    for cutoff in range(3):
        large = _root_triples(full, cutoff + 1)
        assert _root_triples(full, cutoff) == {
            (pair, total) for pair, total in large if total.level <= cutoff
        }


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(window_subsets())
def test_window_test_at_a_cutoff_implies_every_lower_cutoff(case):
    # A sum triple at cutoff c <= d is one at d too, with the same members,
    # so one window test at d stands for the tests at every c <= d.
    (label, cutoff), full, window, S = case
    if not is_biconvex_window(S, full, cutoff):
        return
    for lower in range(cutoff):
        assert is_biconvex_window({b for b in S if b.level <= lower}, full, lower)


def _triple_scan(S, full, cutoff):
    """The window test read off the index triples, as it stood before the
    level masks: some triple with i, j on one side and k on the other."""
    index, triples = _window_sum_triples(full, cutoff)
    member = [False] * len(index)
    for beta in S:
        member[index[beta]] = True
    return not any(member[i] == member[j] != member[k] for i, j, k in triples)


@pytest.mark.parametrize(
    "label, cutoff", [("A1", 0), ("A1", 1), ("A1", 2), ("A1", 3), ("A2", 1), ("B2", 1)]
)
def test_level_masks_match_the_triple_scan_on_every_subset(label, cutoff):
    full, window = _window(label, cutoff)
    verdicts = set()
    for S in subsets(window):
        verdict = is_biconvex_window(S, full, cutoff)
        assert verdict == _triple_scan(S, full, cutoff) == biconvex_by_closure(S, window)
        verdicts.add(verdict)
    assert verdicts == ({True} if cutoff == 0 else {True, False})  # level 0 has no sums


REALIZED_KEYS = [(label, cutoff) for label in ("G2", "A3", "B3") for cutoff in (2, 3, 4)]


@lru_cache(maxsize=None)
def _realized_case(key):
    """The window, and the truncations of realized sets and their complements."""
    label, cutoff = key
    full, window = _window(label, cutoff)
    seeds = []
    for param in _params_for(full.rs, full.J, 1):
        S = realize(param, cutoff).truncate(cutoff)
        seeds += [S, frozenset(window) - S]
    return full, window, seeds


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(REALIZED_KEYS), st.data())
def test_level_masks_match_the_triple_scan_near_realized_sets(key, data):
    full, window, seeds = _realized_case(key)
    cutoff = key[1]
    S = set(data.draw(st.sampled_from(seeds)))
    for beta in data.draw(st.lists(st.sampled_from(window), max_size=3)):
        S ^= {beta}
    verdict = is_biconvex_window(S, full, cutoff)
    assert verdict == _triple_scan(S, full, cutoff) == biconvex_by_closure(S, window)
