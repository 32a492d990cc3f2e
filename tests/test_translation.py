"""The base translation of ``translation_word`` against independent routes.

The library searches the pairing vectors p = 1 + e with e >= 0 and
|e|_1 <= d - 1 per component of determinant d, C(d + m - 2, m - 1) of them
for m indices outside K (126 for A5 with K empty, 1,716 for A7).  These
tests hold it to the exhaustive d^(m-1) box of ``tests/oracles.py`` on every
(J, K) of rank 5 and on A6, to the original bounded coefficient search
(live on rank <= 3, frozen on rank 4), to textbook values, and to the
defining pairing conditions on the exceptional systems.
"""

import tracemalloc

import pytest

from weylwords.affine import affine_inversion_set, translation
from weylwords.cartan import build_root_system, sub_system
from weylwords.words import _translation_lambda, inversion_at, prefix_element, translation_word

from oracles import bounded_translation_search, exhaustive_box_translation, proper_pairs, subsets
from translation_lambdas import LAMBDAS


def _full(label):
    rs = build_root_system(label)
    return rs, sub_system(rs, rs.index_set)


def _pairings(rs, lam):
    """<alpha_j, lambda> for j = 1..rank, read off the Cartan matrix."""
    return [sum(c * rs.cartan[i][j] for i, c in enumerate(lam)) for j in range(rs.rank)]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_word_matches_bounded_search(label):
    rs = build_root_system(label)
    for J, K in proper_pairs(rs.rank):
        word = translation_word(sub_system(rs, J), K)
        lam = bounded_translation_search(rs.cartan, J, K)
        assert word.head == ()
        assert prefix_element(word, len(word.period)) == translation(rs, lam), (J, K)


@pytest.mark.parametrize("label", ["A4", "B4", "C4", "D4", "F4"])
def test_lambda_matches_frozen_search(label):
    rs = build_root_system(label)
    cases = {(J, K): lam for (lb, J, K), lam in LAMBDAS.items() if lb == label}
    assert len(cases) == 3 ** 4 - 2 ** 4
    for (J, K), lam in cases.items():
        assert _translation_lambda(sub_system(rs, J), K) == lam, (J, K)


@pytest.mark.parametrize("label", ["A5", "B5", "C5", "D5"])
def test_lambda_matches_exhaustive_box(label):
    rs = build_root_system(label)
    for J, K in proper_pairs(rs.rank):
        assert _translation_lambda(sub_system(rs, J), K) == exhaustive_box_translation(
            rs.cartan, J, K), (J, K)


def test_a6_lambda_matches_exhaustive_box():
    rs, full = _full("A6")
    assert _translation_lambda(full, ()) == exhaustive_box_translation(rs.cartan, rs.index_set, ())


def test_box_search_holds_no_candidate_list():
    # A8 with K empty has C(15, 7) = 6,435 pairing vectors in its box.  They
    # are made and compared one at a time: after a first call has filled
    # CPython's small-tuple free lists, the search's peak allocation is about
    # 5 KB, and about 210 KB before.  Any list of the candidates is larger:
    # 2 MB with the partial vectors, 0.7 MB for the candidates alone.
    _, full = _full("A8")
    _translation_lambda(full, ())
    tracemalloc.start()
    try:
        lam = _translation_lambda(full, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam == (4, 7, 9, 10, 10, 9, 7, 4)
    assert peak < 1 << 18, peak


def test_e8_lambda_is_rho_check():
    _, full = _full("E8")
    assert _translation_lambda(full, ()) == (46, 68, 91, 135, 110, 84, 57, 29)


HIGH_RANK = [("E6", ()), ("E7", ()), ("E8", ()), ("B5", ()), ("F4", ())] + [
    ("D5", (k,)) for k in range(1, 6)
]


@pytest.mark.parametrize("label,K", HIGH_RANK)
def test_high_rank_lambda_pairs_to_zero_on_k_and_positively_elsewhere(label, K):
    rs, full = _full(label)
    lam = _translation_lambda(full, K)
    for j, p in enumerate(_pairings(rs, lam), start=1):
        assert p == 0 if j in K else p > 0, (j, p)


@pytest.mark.parametrize("label", ["A5", "B5", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_lambda_for_empty_k_is_rho_check_when_integral(label):
    # Every pairing is at least 1 and the inverse Cartan matrix is
    # non-negative, so rho-check (all pairings 1) is the least candidate
    # whenever it lies in the coroot lattice.
    rs, full = _full(label)
    two_rho = [sum(col) for col in zip(*(rs.coroot_coords(r) for r in rs.positive_roots))]
    lam = _translation_lambda(full, ())
    if all(x % 2 == 0 for x in two_rho):
        assert lam == tuple(x // 2 for x in two_rho)
    else:
        assert all(2 * c >= x for c, x in zip(lam, two_rho))


@pytest.mark.parametrize("label", ["E6", "F4"])
def test_full_word_period_is_the_translation_length(label):
    rs, full = _full(label)
    word = translation_word(full, ())
    lam = _translation_lambda(full, ())
    pairs = _pairings(rs, lam)
    assert len(word.period) == sum(
        sum(a * p for a, p in zip(alpha, pairs)) for alpha in rs.positive_roots
    )
    assert prefix_element(word, len(word.period)) == translation(rs, lam)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "B4", "F4", "E6"])
def test_base_word_period_spells_its_translation(label):
    # The period is a reduced word of t_lambda: its inversions are those of
    # t_lambda, and stepping the image form through it lands on t_lambda.
    rs, full = _full(label)
    for K in subsets(rs.index_set):
        if len(K) == rs.rank:
            continue
        word = translation_word(full, K)
        lam = _translation_lambda(full, K)
        n = len(word.period)
        t = translation(rs, lam)
        firsts = {inversion_at(word, p) for p in range(1, n + 1)}
        assert firsts == affine_inversion_set(t, full), (label, K)
        z = prefix_element(word, n)
        assert z == t and z.translation == lam, (label, K)
