from fractions import Fraction

import pytest

from weylwords.cartan import (
    _build_by_label,
    add,
    build_root_system,
    cartan_adjugate,
    cartan_matrix,
    complement_roots,
    height,
    negate,
    sub_system,
    support,
)
from weylwords.cli import root_system_from_json, root_system_to_json
from weylwords.finweyl import simple_reflection

from oracles import gram_coroot, gram_reflect, reflection_closure


CLASSICAL_COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "B2": 8,
    "B3": 18,
    "C2": 8,
    "C3": 18,
    "D4": 24,
    "G2": 12,
    "F4": 48,
    "E6": 72,
}


@pytest.mark.parametrize("label,count", sorted(CLASSICAL_COUNTS.items()))
def test_root_counts_match_classical_tables(label, count):
    rs = build_root_system(label)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) == count // 2


def test_a1_roots():
    rs = build_root_system("A1")
    assert set(rs.roots) == {(1,), (-1,)}


def test_a2_matches_hand_closure():
    rs = build_root_system("A2")
    assert set(rs.roots) == reflection_closure("A2", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("label,rank", [("B2", 2), ("C2", 2), ("G2", 2), ("A3", 3)])
def test_closure_oracle_agreement(label, rank):
    rs = build_root_system(label)
    assert set(rs.roots) == reflection_closure(label, rank)


def test_g2_norms():
    rs = build_root_system("G2")
    norms = sorted({rs.pairing(r, r) for r in rs.roots})
    assert norms == [Fraction(2, 3), 2]
    long_count = sum(1 for r in rs.roots if rs.pairing(r, r) == 2)
    assert long_count == 6


def test_roots_are_symmetric_and_single_signed():
    for label in CLASSICAL_COUNTS:
        rs = build_root_system(label)
        assert set(rs.roots) == {negate(r) for r in rs.roots}
        for r in rs.roots:
            assert all(c >= 0 for c in r) or all(c <= 0 for c in r)
            assert any(c != 0 for c in r)


def test_root_list_order_is_deterministic():
    rs = build_root_system("A2")
    assert list(rs.roots) == sorted(rs.roots, key=lambda r: (height(r), r))


def test_pairing_examples():
    rs = build_root_system("A2")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert rs.pairing(a1, a2) == -1
    assert rs.pairing(a1, (0, 0)) == 0
    # Long roots have squared length 2 in every type.
    for label in ("A2", "B2", "C2", "G2", "F4"):
        other = build_root_system(label)
        assert any(other.pairing(r, r) == 2 for r in other.roots)
        assert max(other.pairing(r, r) for r in other.roots) == 2


def test_pairing_symmetric():
    rs = build_root_system("C2")
    for a in rs.roots:
        for b in rs.roots:
            assert rs.pairing(a, b) == rs.pairing(b, a)


def test_coroot_simply_laced_is_identity():
    rs = build_root_system("A2")
    for r in rs.roots:
        assert rs.coroot_coords(r) == r == gram_coroot(rs.gram, r)


def test_coroot_g2_short():
    rs = build_root_system("G2")
    a1 = rs.simple_root(1)
    assert rs.pairing(a1, a1) == Fraction(2, 3)
    # a1-check = 2 a1/(a1|a1) = 3 a1 over the simple roots, the simple coroot itself.
    assert tuple(2 * c / rs.pairing(a1, a1) for c in a1) == (3, 0)
    assert rs.coroot_coords(a1) == (1, 0) == gram_coroot(rs.gram, a1)
    assert rs.coroot_coords(negate(a1)) == (-1, 0)
    # The highest root 3 a1 + 2 a2 is long; its coroot is the short a1-check + 2 a2-check.
    assert rs.coroot_coords((3, 2)) == (1, 2) == gram_coroot(rs.gram, (3, 2))


def test_coroot_rejects_non_roots():
    rs = build_root_system("A2")
    for vector in [(2, 0), (0, 0), (1, -1), (Fraction(1, 2), 0), (1,)]:
        with pytest.raises(ValueError, match="is not a root"):
            rs.coroot_coords(vector)


def test_simple_root_index_out_of_range_is_refused():
    rs = build_root_system("A2")
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"^simple root index {i} out of range$"):
            rs.simple_root(i)


def test_coroot_coords_integrality():
    for label in ("B2", "C2", "G2", "F4"):
        rs = build_root_system(label)
        for r in rs.roots:
            rs.coroot_coords(r)


def test_explicit_matrix_accepted():
    rs = build_root_system([[2, -1], [-1, 2]])
    assert rs.label is None
    assert len(rs.roots) == 6


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -1], [0, 2]],          # asymmetric zero pattern
        [[2, 1], [1, 2]],           # positive off-diagonal
        [[1, -1], [-1, 2]],         # wrong diagonal
        [[2, -2], [-2, 2]],         # affine (not positive definite)
        [[2, 0], [0, 2]],           # disconnected
        [],                         # empty
    ],
)
def test_invalid_matrices_rejected(matrix):
    with pytest.raises(ValueError):
        build_root_system(matrix)


def test_nonsymmetrizable_cycle_rejected():
    # Symmetric zero pattern but inconsistent ratios around the triangle.
    matrix = [[2, -1, -1], [-1, 2, -1], [-1, -2, 2]]
    with pytest.raises(ValueError, match="symmetrizable"):
        build_root_system(matrix)


@pytest.mark.parametrize("matrix", [
    [[2, -1.5], [-1, 2]],    # would truncate to A2
    [[2.0, -1], [-1, 2]],
    [[2, "-1"], [-1, 2]],
    [[2, -1], [-1, None]],
])
def test_non_integer_cartan_entries_rejected(matrix):
    with pytest.raises(ValueError, match="integers"):
        build_root_system(matrix)


def test_decomposable_matrix_named_as_such():
    for matrix in ([[2, 0], [0, 2]], [[2, 0, -1], [0, 2, 0], [-1, 0, 2]]):
        with pytest.raises(ValueError, match="indecomposable"):
            build_root_system(matrix)


def test_bad_labels_rejected():
    for label in ("Z9", "A0", "E9", "D3", "B1", "q"):
        with pytest.raises(ValueError):
            build_root_system(label)
    for label, text in [("B1", "rank 1 out of range for family B"),
                        ("E9", "rank 9 out of range for family E"),
                        ("Z9", "unrecognized type label 'Z9'"),
                        ("A", "unrecognized type label 'A'")]:
        for reader in (build_root_system, cartan_matrix):
            with pytest.raises(ValueError) as caught:
                reader(label)
            assert str(caught.value) == text, (label, reader)


@pytest.mark.parametrize("spelling", ["a2", " A2", "A02", "a02"])
def test_label_spellings_share_the_canonical_system(spelling):
    rs = build_root_system(spelling)
    assert rs is build_root_system("A2")
    assert rs.label == "A2"


def test_label_spellings_add_no_cache_entry():
    build_root_system("A2")
    entries = _build_by_label.cache_info().currsize
    for spelling in ("a2", " A2", "A02", "a02", "a002\n"):
        build_root_system(spelling)
    assert _build_by_label.cache_info().currsize == entries


@pytest.mark.parametrize("label", ["A\uff12", "A\u0662", "B\u00b2", "E\uff16"])
def test_label_rank_takes_ascii_digits_only(label):
    # Fullwidth, Arabic-Indic and superscript digits pass str.isdigit.
    with pytest.raises(ValueError, match="unrecognized type label"):
        build_root_system(label)


def test_sub_system_a2_full():
    rs = build_root_system("A2")
    sub = sub_system(rs, {1, 2})
    assert sub.components == ((1, 2),)
    assert sub.highest_roots == ((1, 1),)
    assert set(sub.roots) == set(rs.roots)


def test_sub_system_a2_single():
    rs = build_root_system("A2")
    sub = sub_system(rs, {1})
    assert set(sub.roots) == {(1, 0), (-1, 0)}
    assert sub.highest_roots == ((1, 0),)


def test_sub_system_empty():
    rs = build_root_system("A2")
    sub = sub_system(rs, set())
    assert sub.roots == ()
    assert sub.components == ()
    assert sub.highest_roots == ()


def test_sub_system_components_split():
    rs = build_root_system("A3")
    sub = sub_system(rs, {1, 3})
    assert sub.components == ((1,), (3,))
    assert set(sub.highest_roots) == {(1, 0, 0), (0, 0, 1)}
    assert len(sub.roots) == 4


def test_sub_system_matches_generated_closure():
    # Support filtering agrees with generating W_J(Pi_J) by reflections.
    rs = build_root_system("B3")
    for J in [(1, 2), (2, 3), (1, 3), (1, 2, 3)]:
        sub = sub_system(rs, J)
        generated = set()
        frontier = [rs.simple_root(j) for j in J]
        generated.update(frontier)
        while frontier:
            beta = frontier.pop()
            for j in J:
                image = gram_reflect(rs.gram, rs.simple_root(j), beta)
                if image not in generated:
                    generated.add(image)
                    frontier.append(image)
        assert set(sub.roots) == generated


def test_sub_system_is_one_object_per_index_set():
    rs = build_root_system("C3")
    sub = sub_system(rs, (1, 3))
    for J in ((3, 1), (1, 3, 1), (3, 3, 1), [1, 3], [3, 1], {1, 3}, frozenset((3, 1))):
        assert sub_system(rs, J) is sub
    assert sub_system(rs, ()) is sub_system(rs, []) is sub_system(rs, set())


@pytest.mark.parametrize("J", [(0,), (4,), (-1, 1), (1, 4), (1.5,), ("1",)])
def test_sub_system_rejects_indices_outside_the_index_set(J):
    rs = build_root_system("C3")
    for form in (J, J[::-1], J + J, list(J)):  # rejected on every lookup
        with pytest.raises(ValueError, match="is not a subset of the index set"):
            sub_system(rs, form)


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_coroot_pairing_matches_the_rational_formula(label):
    # <v, beta-check> = 2(v|beta)/(beta|beta), exactly, for integer and
    # rational vectors v.
    rs = build_root_system(label)
    vectors = list(rs.roots) + [tuple(Fraction(c, 2) for c in r) for r in rs.roots]
    for beta in rs.roots:
        coords = rs.coroot_coords(beta)
        for v in vectors:
            expected = 2 * rs.pairing(v, beta) / rs.pairing(beta, beta)
            assert rs.coroot_pairing(v, coords) == expected


def test_complement_roots_examples():
    rs = build_root_system("A2")
    sub = sub_system(rs, {1, 2})
    assert set(complement_roots(sub, {1}, -1)) == {(0, -1), (-1, -1)}
    assert complement_roots(sub, {1, 2}, -1) == ()
    assert complement_roots(sub, {1, 2}, +1) == ()
    assert set(complement_roots(sub, set(), -1)) == set(sub.negatives)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_complement_roots_are_the_roots_of_j_whose_support_meets_j_minus_k(label):
    # The exact tuple, in the subsystem's root order, for every (J, K, sign).
    rs = build_root_system(label)
    from oracles import subsets

    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        for K in subsets(J):
            for sign in (+1, -1):
                expected = tuple(r for r in sub.roots
                                 if (height(r) > 0) == (sign > 0) and support(r) - K)
                assert complement_roots(sub, K, sign) == expected, (J, K, sign)


def test_complement_roots_rejects_bad_k():
    rs = build_root_system("A2")
    sub = sub_system(rs, {1})
    with pytest.raises(ValueError):
        complement_roots(sub, {2}, -1)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3"])
def test_complement_sum_closure(label):
    # Sums of complement roots stay in the complement, and adding roots
    # supported on K does not escape it, for every K inside every J.
    rs = build_root_system(label)
    from oracles import subsets

    for J in subsets(rs.index_set):
        sub = sub_system(rs, J)
        for K in subsets(J):
            for sign in (+1, -1):
                comp = set(complement_roots(sub, K, sign))
                inner = [r for r in sub.roots if support(r) <= K]
                for a in comp:
                    for b in comp:
                        s = add(a, b)
                        if s in rs.root_set:
                            assert s in comp
                    for b in inner:
                        s = add(a, b)
                        if s in rs.root_set:
                            assert s in comp


def test_json_round_trip():
    rs = build_root_system("G2")
    data = root_system_to_json(rs)
    assert data["type"] == "G2"
    assert [2, 3] in [x for row in data["gram"] for x in row if isinstance(x, list)]
    again = root_system_from_json(data)
    assert again is rs


def test_json_round_trip_explicit_matrix():
    rs = build_root_system([[2, -1], [-1, 2]])
    data = root_system_to_json(rs)
    assert data["type"] is None
    again = root_system_from_json(data)
    assert again.roots == rs.roots and again.gram == rs.gram
    with pytest.raises(ValueError, match="^root list does not match the declared type$"):
        root_system_from_json(data | {"roots": data["roots"][1:]})


@pytest.mark.parametrize("data, field", [
    ([], "type"),
    ({"roots": []}, "type"),
    ({"type": 2, "roots": []}, "type"),
    ({"type": "A1"}, "roots"),
    ({"type": None, "cartan": [[2.0]], "roots": [[1], [-1]]}, "cartan"),
    ({"type": "A1", "roots": [[-1.0], [1]]}, "roots"),
])
def test_json_reader_rejects_malformed_fields(data, field):
    with pytest.raises(ValueError, match=repr(field)):
        root_system_from_json(data)


def test_simple_reflect_matches_reflect():
    for label in ("A2", "C2", "G2"):
        rs = build_root_system(label)
        for i in rs.index_set:
            for r in rs.roots:
                assert simple_reflection(rs, i).apply(r) == gram_reflect(rs.gram, rs.simple_root(i), r)


@pytest.mark.parametrize(
    "label,det",
    [("A1", 2), ("A4", 5), ("B3", 2), ("C4", 2), ("D5", 4), ("E6", 3),
     ("E7", 2), ("E8", 1), ("F4", 1), ("G2", 1)],
)
def test_cartan_adjugate_inverts_with_positive_entries(label, det):
    rs = build_root_system(label)
    d, adj = cartan_adjugate(rs, rs.index_set)
    assert d == det
    # The build keeps det A and adj A's columns from its own elimination.
    assert (rs.det, rs.weight_columns) == (d, tuple(zip(*adj)))
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert sum(adj[i][k] * rs.cartan[k][j] for k in range(n)) == d * (i == j)
    assert all(x > 0 for row in adj for x in row)


def test_cartan_adjugate_of_sub_diagrams():
    d4 = build_root_system("D4")
    assert cartan_adjugate(d4, (1, 3)) == (4, [[2, 0], [0, 2]])
    c3 = build_root_system("C3")
    # alpha_3 long: the submatrix on {2, 3} is the Cartan matrix of C2.
    assert cartan_adjugate(c3, (2, 3)) == (2, [[2, 2], [1, 2]])
