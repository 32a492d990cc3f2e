import gc
import json
import math
import re
from itertools import combinations, product

import pytest

from weylwords.cartan import build_root_system, is_positive, sub_system
from weylwords.finweyl import from_word, identity, minimal_coset_reps
from weylwords.affine import (
    AffineRoot,
    affine_add,
    affine_identity,
    affine_inversion_set,
    affine_window,
    bfs_elements,
    element_from_affine_inversions,
    lift,
    tower,
    translation,
)
from weylwords.biconvex import (
    BiconvexParam,
    NotBiconvexError,
    WindowSet,
    classify_biconvex,
    contained_mod_finite,
    enumerate_biconvex,
    is_biconvex_window,
    parametrize,
    realize,
)
from weylwords import affine, biconvex, cli, finweyl, words
from weylwords.cli import (_window_from_json, main, param_from_json, param_to_json,
                           view_from_json, view_to_json)
from weylwords.verify import _depth, _params_for, _subsets, check_parametrization_roundtrip

from oracles import WindowModel, biconvex_by_closure, shi_biconvex

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A1_FULL = sub_system(A1, (1,))
A2_FULL = sub_system(A2, (1, 2))


def make_param(rs, J, K, u_word, y_lambda, y_word):
    sub = sub_system(rs, J)
    return BiconvexParam(
        sub=sub,
        K=tuple(K),
        u=from_word(rs, u_word),
        y=translation(rs, y_lambda) * lift(from_word(rs, y_word)),
    )


def test_window_predicate_examples():
    assert is_biconvex_window(set(), A1_FULL, 3)
    assert is_biconvex_window({AffineRoot(0, (1,))}, A1_FULL, 1)
    bad = {AffineRoot(0, (1,)), AffineRoot(1, (-1,))}
    assert not is_biconvex_window(bad, A1_FULL, 1)


def test_window_predicate_rejects_outside_roots():
    with pytest.raises(ValueError):
        is_biconvex_window({AffineRoot(-1, (1,))}, A1_FULL, 2)
    with pytest.raises(ValueError):
        is_biconvex_window({AffineRoot(0, (0, 1))}, sub_system(A2, (1,)), 2)


def test_window_rejects_a_negative_cutoff():
    param = BiconvexParam(sub=A1_FULL, K=(), u=identity(A1), y=affine_identity(A1))
    with pytest.raises(ValueError, match="non-negative"):
        realize(param, -2)
    with pytest.raises(ValueError, match="non-negative"):
        WindowSet(sub=A1_FULL, cutoff=-1, elements=frozenset())
    assert realize(param, 0).cutoff == 0


def test_realize_finite_case_is_inversion_set():
    for x, _ in bfs_elements(A2_FULL, 4).items():
        param = BiconvexParam(sub=A2_FULL, K=(1, 2), u=identity(A2), y=x)
        view = realize(param, 6)
        assert view.is_finite
        assert view.truncate(6) == affine_inversion_set(x, A2_FULL)


def test_realize_tail_examples():
    low = realize(make_param(A1, (1,), (), [], (0,), []), 4)
    assert low.truncate(4) == {AffineRoot(m, (-1,)) for m in range(1, 5)}
    assert not low.is_finite

    up = realize(make_param(A1, (1,), (), [1], (0,), []), 4)
    assert up.truncate(4) == {AffineRoot(m, (1,)) for m in range(0, 5)}


def test_view_membership_is_exact_beyond_cutoff():
    view = realize(make_param(A1, (1,), (), [], (0,), []), 2)
    assert AffineRoot(100, (-1,)) in view
    assert AffineRoot(100, (1,)) not in view
    assert AffineRoot(3, None) not in view


def test_window_reaches_its_whole_finite_part():
    # t[1] inverts 1d-a1 and 2d-a1: asked for cutoff 1, the window keeps
    # both, so membership, truncation and the finite part stay exact.
    window = realize(make_param(A1, (1,), (1,), [], (1,), []), 1)
    assert window.cutoff == 2
    assert window.finite_part == {AffineRoot(1, (-1,)), AffineRoot(2, (-1,))}
    assert AffineRoot(2, (-1,)) in window
    assert AffineRoot(3, (-1,)) not in window
    assert window.truncate(1) == {AffineRoot(1, (-1,))}
    with pytest.raises(ValueError, match="above the window's cutoff"):
        window.truncate(3)
    # A negative cutoff is refused whatever y is, before any cutoff raise.
    for y_lambda in ((0,), (2,)):
        with pytest.raises(ValueError, match="^cutoff must be non-negative$"):
            realize(make_param(A1, (1,), (1,), [], y_lambda, []), -1)


def test_finite_part_of_a_built_window_matches_realize():
    view = realize(make_param(A2, (1, 2), (1,), [2], (0, 0), [1]), 5)
    built = WindowSet(sub=view.sub, cutoff=view.cutoff, elements=view.elements,
                      tail=view.tail)
    assert "finite_part" not in vars(built)
    assert built.finite_part == view.finite_part
    assert built == view


def _model_of(param, cutoff):
    """The realized set as a frozenset model: tower(u(Phi_J^- minus Phi_K))
    plus u(N(y)), the cutoff raised to reach the finite part."""
    sub, K, u = param.sub, param.K, param.u
    tail = {u.apply(r) for r in sub.negatives
            if any(c and i not in K for i, c in enumerate(r, 1))}  # r outside Phi_K
    finite = {(m, u.apply(c)) for m, c in affine_inversion_set(param.y, sub_system(sub.rs, K))}
    return WindowModel.assembled(sub.roots, cutoff, tail, finite)


def _check_against_model(window, model):
    assert model.mismatches(window) == []
    assert model.window() == frozenset(affine_window(window.sub, window.cutoff))
    rebuilt = WindowSet(sub=window.sub, cutoff=model.cutoff, elements=model.elements,
                        tail=model.tail, imaginary_tail=model.imaginary_tail)
    assert rebuilt == window and hash(rebuilt) == hash(window)
    assert (is_biconvex_window(window, window.sub, window.cutoff)
            == is_biconvex_window(window.elements, window.sub, window.cutoff))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_finite_part_and_complement_match_the_tower_formulas(label):
    # Mask windows answer as the frozenset model: the members are tower(tail)
    # plus the finite part, the complement is taken inside affine_window, and
    # membership beyond the cutoff comes from the tail.  Checked on every
    # window realized at cutoffs 0..3, each standard word's window
    # (``word_window``) a level past its certificate, and their complements.
    rs = build_root_system(label)
    checked = 0
    for J in filter(None, _subsets(rs.index_set)):
        for param in _params_for(rs, J, 2):
            pairs = [(realize(param, cutoff), _model_of(param, cutoff)) for cutoff in range(4)]
            if param.names_infinite_set:
                word = words.word_of_param(param)
                depth = max(b.level for b in word._structure.phis) + 1
                pairs.append((words.word_window(word, depth), _model_of(param, depth)))
            for window, model in pairs:
                _check_against_model(window, model)
                _check_against_model(window.complement(), model.complement())
                checked += 2
    assert checked == {"A2": 560, "B2": 672, "G2": 912}[label]


@pytest.mark.parametrize("label,K,lam,top", [
    ("A1", (1,), (50,), 100), ("A1", (1,), (500,), 1000),
    ("B2", (1,), (20, 0), 40), ("G2", (2,), (0, 15), 30),
], ids=["A1-t50", "A1-t500", "B2", "G2"])
def test_deep_realizations_match_the_model(label, K, lam, top):
    # realize writes each string's length as one mask, and windows decode each
    # slot in one pass; deep finite parts answer as the frozenset model.  Asked
    # below the top finite level, the cutoff is raised to it.  u is the longest
    # minimal coset representative.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    param = BiconvexParam(sub=full, K=K, u=minimal_coset_reps(full, K)[-1],
                          y=translation(rs, lam))
    window = realize(param, top - 1)
    assert window.cutoff == top and window == realize(param, top)
    assert hash(window) == hash(realize(param, top))
    for window in (window, realize(param, top + 2)):
        model = _model_of(param, window.cutoff)
        _check_against_model(window, model)
        _check_against_model(window.complement(), model.complement())


def test_realize_lists_no_inversion_set(monkeypatch):
    # realize reads N(y) string by string; it never lists the inversion set.
    params = [(param, _depth(param)) for label in ("A2", "B2", "G2")
              for rs in [build_root_system(label)] for J in filter(None, _subsets(rs.index_set))
              for param in _params_for(rs, J, 2)]
    models = [_model_of(param, depth) for param, depth in params]

    def no_inversion_set(*args):
        raise AssertionError("affine_inversion_set was called")

    # Patched in affine, and in biconvex wherever it imports the name.
    monkeypatch.setattr(affine, "affine_inversion_set", no_inversion_set)
    monkeypatch.setattr(biconvex, "affine_inversion_set", no_inversion_set, raising=False)
    for (param, depth), model in zip(params, models):
        assert model.mismatches(realize(param, depth)) == []
    assert len(params) == 226


def test_parametrize_lists_no_member(monkeypatch):
    # parametrize and the finite case of classify_biconvex read each finite
    # slot's length off its mask; neither lists a member of the window.
    params = [(param, _depth(param)) for label in ("A2", "B2", "G2")
              for rs in [build_root_system(label)] for J in filter(None, _subsets(rs.index_set))
              for param in _params_for(rs, J, 2)]
    windows = [realize(param, depth) for param, depth in params]

    def no_members(*args):
        raise AssertionError("a window listed its members")

    monkeypatch.setattr(WindowSet, "_members", no_members)
    for (param, _), window in zip(params, windows):
        assert parametrize(window) == param
        witness = param if param.names_infinite_set else param.y
        assert classify_biconvex(window)[1] == witness
        assert classify_biconvex(window.complement())[1] == witness
    assert len(params) == 226


def test_parametrize_errors_keep_their_precedence():
    # The tail is factored first, then the finite part is read, then every
    # tail slot must hold its whole window.  A finite slot at level 1 only is
    # not an initial segment; a missing top level of a tail slot is a hole.
    W = realize(make_param(A2, (1, 2), (1,), [2], (0, 0), [1]), 3)
    assert W.tail == {(0, 1), (-1, 0)} and W.finite_part == {AffineRoot(0, (1, 1))}
    hole = AffineRoot(W.cutoff, (-1, 0))
    shifted = W.elements - {AffineRoot(0, (1, 1)), hole} | {AffineRoot(1, (1, 1))}
    window = WindowSet(sub=W.sub, cutoff=W.cutoff, elements=shifted, tail=W.tail)
    with pytest.raises(NotBiconvexError, match=re.escape(
            "finite part is not an inversion set: set is not an affine inversion set")):
        parametrize(window)
    bad_tail = WindowSet(sub=W.sub, cutoff=W.cutoff, tail={(1, 0), (-1, 0)},
                         elements=tower(A2, {(1, 0)}, 3) | {AffineRoot(1, (1, 1))})
    with pytest.raises(NotBiconvexError, match="^tail support is not pointed biclosed"):
        parametrize(bad_tail)
    one_fault = WindowSet(sub=W.sub, cutoff=W.cutoff, elements=W.elements - {hole}, tail=W.tail)
    with pytest.raises(NotBiconvexError, match="does not round-trip"):
        parametrize(one_fault)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_membership_reads_one_bit_and_lists_no_member(label):
    # Up to the cutoff, membership is one bit of one slot's mask: no member is
    # listed, and the answers agree with the members listed afterwards.  Every
    # root of the system (those of the window's slots, their negatives and, for
    # a proper J, roots with no slot) and the imaginary part, at levels -1 to
    # cutoff + 1, on realized windows and their complements.
    rs = build_root_system(label)
    parts = (None, *rs.roots)
    checked = 0
    for J in filter(None, _subsets(rs.index_set)):
        for param in _params_for(rs, J, 2):
            for window in (realize(param, 2), realize(param, 2).complement()):
                levels = range(-1, window.cutoff + 2)
                answers = [AffineRoot(m, c) in window for c in parts for m in levels]
                assert "elements" not in vars(window)
                beyond = lambda c: window.imaginary_tail if c is None else c in window.tail
                assert answers == [AffineRoot(m, c) in window.elements if m <= window.cutoff
                                   else beyond(c) for c in parts for m in levels]
                checked += 1
    assert checked == {"A2": 120, "B2": 142, "G2": 190}[label]


@pytest.mark.parametrize("y", [lift(from_word(A2, [1])), translation(A2, (1, 0))],
                         ids=["positive-root", "negative-root"])
def test_realize_refuses_a_u_that_moves_a_sign_of_phi_k(y):
    # u = s1 is not minimal for K = {1}: it sends alpha_1 to -alpha_1.  N(y)
    # holds level 0 of alpha_1, or levels 1.. of -alpha_1; either string's
    # window levels would land in the wrong slot's window.
    param = BiconvexParam._trusted(A2_FULL, (1,), from_word(A2, [1]), y)
    with pytest.raises(RuntimeError, match="^finite part left the positive roots$"):
        realize(param, 3)


def test_window_operations_build_no_tower(monkeypatch):
    # realize, parametrize, the window test and complement work on the level
    # masks; none of them lists a tower of roots.
    params = [(param, _depth(param)) for label in ("A2", "B2", "G2")
              for rs in [build_root_system(label)] for J in filter(None, _subsets(rs.index_set))
              for param in _params_for(rs, J, 2)]

    def no_tower(*args):
        raise AssertionError("tower was called")

    for module in (affine, cli):
        monkeypatch.setattr(module, "tower", no_tower)
    for param, depth in params:
        window = realize(param, depth)
        assert parametrize(window) == param
        assert is_biconvex_window(window, param.sub, window.cutoff)
        complement = window.complement()
        assert complement.complement() == window
        witness = param if param.names_infinite_set else param.y
        assert classify_biconvex(complement)[1] == witness
    assert check_parametrization_roundtrip(labels=("A2", "G2"), max_y=2).passed


def test_window_test_takes_only_its_own_window():
    window = realize(make_param(A2, (1, 2), (1,), [2], (0, 0), [1]), 3)
    assert is_biconvex_window(window, A2_FULL, 3)
    for sub, cutoff in ((A2_FULL, 2), (sub_system(A2, (1, 2)), 4), (sub_system(A2, (1,)), 3)):
        with pytest.raises(ValueError, match="another subsystem or cutoff"):
            is_biconvex_window(window, sub, cutoff)


# (cutoff, members, tail, error text, the view's text where it differs)
WINDOW_FAULTS = [
    (-1, [], [], "cutoff must be non-negative", None),
    (2, [(-1, (1, 0))], [], "-1d+a1 is outside the level-2 window", None),
    (2, [(0, (-1, 0))], [], "-a1 is outside the level-2 window", None),
    (2, [(0, None)], [], "0d is outside the level-2 window", None),
    (2, [(1, (0, 1))], [], "[0, 1] is not a root of the subsystem", None),
    (2, [], [(2, 2)], "tail promise contains non-roots", "tower base must consist of roots"),
]


@pytest.mark.parametrize("cutoff,members,tail,text,view_text", WINDOW_FAULTS)
def test_window_errors_keep_their_text_on_every_route(cutoff, members, tail, text, view_text,
                                                      capsys):
    roots = [{"level": m, "classical": c and list(c)} for m, c in members]
    tails = [list(r) for r in tail]
    window = {"J": [1], "cutoff": cutoff, "elements": roots, "tail": tails}
    view = {"tail": tails, "finite": roots, "cutoff": cutoff}
    view_text = view_text or text
    sub = sub_system(A2, (1,))
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        WindowSet(sub=sub, cutoff=cutoff, tail=frozenset(tail),
                  elements=frozenset(AffineRoot(m, c) for m, c in members))
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        _window_from_json(A2, window)
    with pytest.raises(ValueError, match=f"^{re.escape(view_text)}$"):
        view_from_json(A2, (1,), view)
    for argv, reason in (
        (["biconvex", "classify", "--type", "A2", "--window", json.dumps(window)], text),
        (["biconvex", "parametrize", "--type", "A2", "--J", "1", "--view", json.dumps(view)],
         view_text),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {reason}\n")


def test_truncate_rejects_a_negative_cutoff():
    window = realize(make_param(A1, (1,), (), [], (0,), []), 2)
    assert window.truncate(0) == frozenset()
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        window.truncate(-1)


def test_complement_membership_beyond_cutoff():
    up = realize(make_param(A1, (1,), (), [1], (0,), []), 2)
    complement = up.complement()
    assert AffineRoot(50, None) in complement
    assert AffineRoot(50, (-1,)) in complement
    assert AffineRoot(50, (1,)) not in complement
    assert AffineRoot(-1, (1,)) not in complement


def test_param_validation():
    with pytest.raises(ValueError):
        BiconvexParam(sub=A2_FULL, K=(1,), u=from_word(A2, [1]), y=affine_identity(A2))
    with pytest.raises(ValueError):
        BiconvexParam(
            sub=A2_FULL, K=(), u=identity(A2), y=translation(A2, (1, 0))
        )
    with pytest.raises(ValueError):
        BiconvexParam(
            sub=sub_system(A2, (1,)), K=(2,), u=identity(A2), y=affine_identity(A2)
        )
    with pytest.raises(ValueError):
        BiconvexParam(
            sub=sub_system(A2, ()), K=(), u=identity(A2), y=affine_identity(A2)
        )


def test_parametrize_round_trip_examples():
    # Finite: the full-K parameters come back from a bare window.
    y = from_letters_a1([("a", 1), ("c", 1)])
    finite_param = BiconvexParam(sub=A1_FULL, K=(1,), u=identity(A1), y=y)
    view = realize(finite_param, 5)
    assert parametrize(view) == finite_param

    tail_param = make_param(A1, (1,), (), [], (0,), [])
    assert parametrize(realize(tail_param, 5)) == tail_param


def from_letters_a1(pairs):
    from weylwords.affine import Letter, from_letters

    return from_letters(A1_FULL, [Letter(k, i) for k, i in pairs])


def test_parametrize_mixed_example():
    sub = A2_FULL
    s1 = from_word(A2, [1])
    tail = tower(A2, {(0, -1), (-1, -1)}, 3)
    elements = frozenset(tail) | {AffineRoot(0, (1, 0))}
    window = WindowSet(
        sub=sub, cutoff=3, elements=elements, tail=frozenset({(0, -1), (-1, -1)})
    )
    param = parametrize(window)
    assert param.K == (1,)
    assert param.u == identity(A2)
    assert param.y == lift(s1)


def test_parametrize_rejects_bad_windows():
    # Tail support that is not pointed biclosed.
    with pytest.raises(NotBiconvexError):
        parametrize(
            WindowSet(
                sub=A2_FULL,
                cutoff=2,
                elements=tower(A2, {(1, 0), (-1, 0)}, 2),
                tail=frozenset({(1, 0), (-1, 0)}),
            )
        )
    # Window missing part of its promised tail pattern.
    with pytest.raises(NotBiconvexError):
        parametrize(
            WindowSet(
                sub=A1_FULL,
                cutoff=3,
                elements=frozenset({AffineRoot(1, (-1,))}),
                tail=frozenset({(-1,)}),
            )
        )
    # Residual that is not an inversion set.
    with pytest.raises(NotBiconvexError):
        parametrize(
            WindowSet(
                sub=A2_FULL,
                cutoff=2,
                elements=frozenset({AffineRoot(0, (1, 1))}),
                tail=frozenset(),
            )
        )


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_parametrize_decides_windows_one_step_from_a_realized_one(label):
    # Every window one member away from a realized W, dropped or added from
    # affine_window, is either rejected or read back as parameters whose
    # realized window at W's cutoff is that window, with W's tail.
    rs = build_root_system(label)
    params = [p for size in range(1, rs.rank + 1)
              for J in combinations(rs.index_set, size) for p in _params_for(rs, J, 2)]
    accepted = rejected = 0
    for param in params:
        W = realize(param, 1)
        assert parametrize(W) == param
        full = affine_window(W.sub, W.cutoff)
        near = [W.elements - {b} for b in W.elements]
        near += [W.elements | {b} for b in full if b not in W.elements]
        for elements in near:
            window = WindowSet(sub=W.sub, cutoff=W.cutoff, elements=elements, tail=W.tail)
            try:
                p = parametrize(window)
            except NotBiconvexError:
                rejected += 1
                continue
            back = realize(p, W.cutoff)
            assert (back.elements, back.tail) == (elements, W.tail), (param, elements)
            accepted += 1
    assert accepted and rejected


def test_parametrize_rejects_holes_in_the_tail_tower():
    # One hole at the top level, one at level 0 of a positive tail root:
    # the tail and the finite part still factor, so only the count fails.
    W = realize(make_param(A2, (1, 2), (1,), [2], (0, 0), [1]), 3)
    positive = next(eps for eps in sorted(W.tail) if is_positive(eps))
    for hole in (AffineRoot(W.cutoff, min(W.tail)), AffineRoot(0, positive)):
        assert hole in W.elements
        window = WindowSet(sub=W.sub, cutoff=W.cutoff, elements=W.elements - {hole},
                           tail=W.tail)
        with pytest.raises(NotBiconvexError, match="does not round-trip"):
            parametrize(window)


def test_parametrize_rejects_imaginary():
    with pytest.raises(NotBiconvexError):
        parametrize(
            WindowSet(
                sub=A1_FULL, cutoff=2, elements=frozenset({AffineRoot(1, None)})
            )
        )


def test_contained_mod_finite():
    p_empty = make_param(A1, (1,), (), [], (0,), [])
    p_s1 = make_param(A1, (1,), (), [1], (0,), [])
    assert contained_mod_finite(p_empty, p_empty)
    assert not contained_mod_finite(p_empty, p_s1)
    assert not contained_mod_finite(p_s1, p_empty)

    small = make_param(A2, (1, 2), (1,), [], (0, 0), [])
    big = make_param(A2, (1, 2), (), [], (0, 0), [])
    assert contained_mod_finite(small, big)
    assert not contained_mod_finite(big, small)


def test_contained_mod_finite_matches_truncations():
    # Algebraic almost-containment agrees with a deep truncation check.
    rs = A2
    sub = A2_FULL
    params = []
    for K in [(), (1,), (2,)]:
        K_sub = sub_system(rs, K)
        ys = [x for x, d in bfs_elements(K_sub, 2).items()] if K else [
            affine_identity(rs)
        ]
        for u in minimal_coset_reps(sub, K):
            for y in ys:
                params.append(BiconvexParam(sub=sub, K=K, u=u, y=y))
    depth = 8
    for p1 in params:
        t1 = realize(p1, depth).truncate(depth)
        low1 = {b for b in t1 if b.level >= 4}
        for p2 in params:
            t2 = realize(p2, depth).truncate(depth)
            low2 = {b for b in t2 if b.level >= 4}
            assert contained_mod_finite(p1, p2) == (low1 <= low2)


def test_maximality_of_empty_k_views():
    # Every parameter set sits almost-inside a K-empty one, strictly when
    # K is non-empty.
    p = make_param(A2, (1, 2), (1,), [2], (0, 0), [])
    top = BiconvexParam(sub=A2_FULL, K=(), u=p.u, y=affine_identity(A2))
    assert contained_mod_finite(p, top)
    assert not contained_mod_finite(top, p)


def test_views_are_biconvex_at_every_cutoff():
    params = [
        make_param(A1, (1,), (), [], (0,), []),
        make_param(A1, (1,), (1,), [], (1,), []),
        make_param(A2, (1, 2), (1,), [2], (0, 0), [1]),
        make_param(A2, (1, 2), (), [1, 2], (0, 0), []),
    ]
    for param in params:
        view = realize(param, 6)
        for cutoff in range(0, 7):
            assert is_biconvex_window(view.truncate(cutoff), param.sub, cutoff)


def test_injectivity_on_small_sweep():
    rs = A2
    sub = A2_FULL
    seen = {}
    for K in [(), (1,), (2,), (1, 2)]:
        K_sub = sub_system(rs, K)
        ys = list(bfs_elements(K_sub, 3)) if K else [affine_identity(rs)]
        for u in minimal_coset_reps(sub, K):
            for y in ys:
                param = BiconvexParam(sub=sub, K=K, u=u, y=y)
                view = realize(param, 9)
                key = (view.tail, view.finite_part)
                assert key not in seen, (param, seen[key])
                seen[key] = param


def test_tail_sum_stability():
    # tail(u,-) plus (u applied to the K-positive cone, imaginaries
    # included) stays inside tail(u,-).
    rs = A2
    sub = A2_FULL
    K = (1,)
    K_sub = sub_system(rs, K)
    for u in minimal_coset_reps(sub, K):
        param = BiconvexParam(sub=sub, K=K, u=u, y=affine_identity(rs))
        view = realize(param, 8)
        cone = {
            AffineRoot(b.level, u.apply(b.classical)) if b.is_real else b
            for b in affine_window(K_sub, 4)
        }
        members = view.truncate(4)
        for a in members:
            for b in cone:
                s = affine_add(a, b, rs)
                if s is not None and s.level <= 8 and s.classical is not None:
                    assert s in view


def test_tail_and_its_negative_stay_separated():
    param = make_param(A2, (1, 2), (1,), [2], (0, 0), [])
    view = realize(param, 6)
    members = view.truncate(6)
    assert tower(A2, view.tail, 6) <= members
    negated = tower(A2, {tuple(-c for c in r) for r in view.tail}, 6)
    assert not (negated & members)


def test_classify_examples():
    empty = WindowSet(sub=A1_FULL, cutoff=3, elements=frozenset())
    case, witness = classify_biconvex(empty)
    assert case == "a" and witness.is_identity

    window = frozenset(affine_window(A1_FULL, 3))
    everything = WindowSet(
        sub=A1_FULL,
        cutoff=3,
        elements=window,
        tail=frozenset(A1_FULL.roots),
        imaginary_tail=True,
    )
    case, witness = classify_biconvex(everything)
    assert case == "b" and witness.is_identity


def test_classify_complement_of_up_tail():
    # Everything except {m*delta + alpha1 : m >= 0} is the complement of
    # the (empty-K, s1) view.
    up = realize(make_param(A1, (1,), (), [1], (0,), []), 4)
    complement = up.complement()
    case, witness = classify_biconvex(complement)
    assert case == "d"
    assert witness.K == () and witness.u == from_word(A1, [1])
    assert witness.y.is_identity


def test_classify_infinite_real():
    view = realize(make_param(A2, (1, 2), (1,), [2], (0, 0), [1]), 6)
    case, witness = classify_biconvex(view)
    assert case == "c"
    assert realize(witness, 6) == view


def test_classify_rejects_non_biconvex():
    bad = WindowSet(
        sub=A1_FULL,
        cutoff=2,
        elements=frozenset({AffineRoot(1, None)}),
        imaginary_tail=False,
    )
    with pytest.raises(NotBiconvexError):
        classify_biconvex(bad)


def test_enumerate_examples():
    found = enumerate_biconvex(A1_FULL, 1, 1)
    assert [set(s) for s in found] == [
        set(),
        {AffineRoot(0, (1,))},
        {AffineRoot(1, (-1,))},
    ]
    assert enumerate_biconvex(A1_FULL, 1, 0) == [frozenset()]

    pairs = [
        s
        for s in enumerate_biconvex(A1_FULL, 2, 2)
        if len(s) == 2 and AffineRoot(0, (1,)) in s
    ]
    assert pairs == [frozenset({AffineRoot(0, (1,)), AffineRoot(1, (1,))})]


def test_enumerate_finds_cofinite_style_sets():
    # Sets containing imaginary roots pass the window test when their
    # complement is closed; the full window is the extreme case.
    window = frozenset(affine_window(A1_FULL, 1))
    found = enumerate_biconvex(A1_FULL, 1, len(window))
    assert window in found
    assert all(is_biconvex_window(s, A1_FULL, 1) for s in found)


def test_enumerate_refuses_oversized_windows():
    with pytest.raises(ValueError, match="window has"):
        enumerate_biconvex(A2_FULL, 6, 2, window_limit=24)


def test_enumerate_counts_its_window_before_building_it(monkeypatch):
    # |Phi_J| c + |Phi^+_J| + c is the window's size on every J (the empty
    # one too) of these types and every c <= 6: the refusal names it exactly
    # with no window built, and a limit of that size goes on to build one.
    sizes = {}
    for label in ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "D4"):
        rs = build_root_system(label)
        for sub in (sub_system(rs, J) for J in _subsets(rs.index_set)):
            for c in range(7):
                sizes[sub, c] = len(affine_window(sub, c))
    assert len(sizes) == 350

    def built(sub, cutoff):
        raise AssertionError("window built")

    monkeypatch.setattr(biconvex, "affine_window", built)
    for (sub, c), size in sizes.items():
        # The window comes with its sum table: with that memo empty, a build shows.
        biconvex._window_sum_triples.cache_clear()
        with pytest.raises(ValueError) as refused:
            enumerate_biconvex(sub, c, 1, window_limit=size - 1)
        assert str(refused.value) == f"window has {size} roots, above the limit {size - 1}"
        with pytest.raises(AssertionError, match="window built"):
            enumerate_biconvex(sub, c, 1, window_limit=size)
    monkeypatch.undo()
    biconvex._window_sum_triples.cache_clear()
    with pytest.raises(ValueError, match="^cutoff must be non-negative$"):
        enumerate_biconvex(A2_FULL, -1, 1, window_limit=-100)


def test_enumerate_matches_pair_predicate():
    # The DFS agrees with filtering all subsets by the pair test.
    from itertools import combinations

    window = affine_window(A1_FULL, 2)
    expected = set()
    for size in range(0, 3):
        for combo in combinations(window, size):
            if is_biconvex_window(set(combo), A1_FULL, 2):
                expected.add(frozenset(combo))
    got = set(enumerate_biconvex(A1_FULL, 2, 2))
    assert got == expected


@pytest.mark.parametrize("label, cutoff, max_size", [
    ("A1", 3, None),  # the imaginary roots: delta + delta = 2 delta, a pair with i = j
    ("A2", 1, None),
    ("B2", 1, 3),
    ("G2", 1, 3),
])
def test_enumerate_matches_the_closure_oracle_in_order(label, cutoff, max_size):
    # Every subset (or every one of at most max_size roots) against the
    # definition: the same sets, in the documented order.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    window = affine_window(full, cutoff)
    max_size = len(window) if max_size is None else max_size
    expected = sorted(
        (frozenset(S) for n in range(max_size + 1) for S in combinations(window, n)
         if biconvex_by_closure(S, window)),
        key=lambda S: (len(S), sorted((b.level, b.classical or ()) for b in S)))
    assert enumerate_biconvex(full, cutoff, max_size) == expected
    assert len({len(S) for S in expected}) > 2  # more than the empty set and single roots


def test_enumerate_below_size_zero_answers_as_size_zero():
    assert enumerate_biconvex(A2_FULL, 1, -1) == enumerate_biconvex(A2_FULL, 1, 0) == [frozenset()]


def test_json_round_trips():
    param = make_param(A2, (1, 2), (1,), [2], (0, 0), [1])
    data = param_to_json(param)
    assert data["J"] == [1, 2] and data["K"] == [1]
    assert param_from_json(A2, data) == param

    view = realize(param, 4)
    vdata = view_to_json(view)
    again = view_from_json(A2, (1, 2), vdata)
    assert again == view


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_view_listed_below_its_finite_part_parametrizes(label):
    # A view lists its whole finite part, also the roots above its cutoff;
    # reading it back must keep them.  Every parameter with l(y) <= 3.
    rs = build_root_system(label)
    above = 0
    for size in range(1, rs.rank + 1):
        for J in combinations(rs.index_set, size):
            for param in _params_for(rs, J, 3):
                for cutoff in (0, 1):
                    data = view_to_json(realize(param, cutoff))
                    data["cutoff"] = cutoff
                    assert parametrize(view_from_json(rs, J, data)) == param
                    above += any(b["level"] > cutoff for b in data["finite"])
    assert above


def test_tail_memos_stay_bounded_over_a_roundtrip_sweep():
    result = check_parametrization_roundtrip(labels=("B3",), max_y=1)
    assert result.passed and result.checked == 485
    for memo in (finweyl._factor_cached, finweyl._tail_roots_cached):
        info = memo.cache_info()
        assert info.maxsize == finweyl.TAIL_MEMO_SIZE == 16
        assert info.currsize <= 16 and info.hits > 0


def test_walk_memo_stays_bounded_over_a_roundtrip_sweep():
    affine._walk_of_sum.cache_clear()
    result = check_parametrization_roundtrip(labels=("B3",), max_y=1)
    assert result.passed and result.checked == 485
    info = affine._walk_of_sum.cache_info()
    assert info.maxsize == affine.WALK_MEMO_SIZE == 16
    assert info.currsize <= 16 and info.hits > 0


def test_reparametrizing_a_window_walks_no_letter(monkeypatch):
    # The y-reader walks its letters through ``_walk``: count the letters.
    rs = build_root_system("B3")
    param = make_param(rs, (1, 2, 3), (1, 2), [3], (1, 0, 0), [2])
    window = realize(param, 2)
    affine._walk_of_sum.cache_clear()
    assert parametrize(window) == param
    steps, walk = [], affine._walk

    def counted(sub, letters, *rest):
        letters = tuple(letters)
        steps.extend(letters)
        return walk(sub, letters, *rest)

    monkeypatch.setattr(affine, "_walk", counted)
    assert parametrize(window) == param and steps == []
    other = make_param(rs, (1, 2, 3), (1, 2), [3], (0, 2, 0), [1, 2])
    assert parametrize(realize(other, 2)) == other
    assert len(steps) == affine.affine_length(other.y, sub_system(rs, (1, 2))) > 0


def test_enumerate_leaves_no_garbage():
    enumerate_biconvex(A2_FULL, 1, 10)  # build the window tables first
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sets = enumerate_biconvex(A2_FULL, 1, 10)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert sets and garbage == 0


@pytest.mark.parametrize("labels,max_y,count", [
    (("A1", "A2"), 4, 124),
    (("A3", "B3", "C3", "G2"), 1, 1323),
])
def test_parametrize_builds_what_the_validating_constructor_accepts(labels, max_y, count):
    # _params_for and parametrize build without the constructor's checks; on
    # the roundtrip sweeps every triple and every result passes them and
    # compares equal.
    seen = 0
    for label in labels:
        rs = build_root_system(label)
        for J in filter(None, _subsets(rs.index_set)):
            for param in _params_for(rs, J, max_y):
                assert param == BiconvexParam(sub=param.sub, K=param.K, u=param.u, y=param.y)
                got = parametrize(realize(param, _depth(param)))
                assert got == BiconvexParam(sub=got.sub, K=got.K, u=got.u, y=got.y) == param
                seen += 1
    assert seen == count


def test_parametrize_keeps_the_empty_j_error():
    window = WindowSet(sub=sub_system(A2, ()), cutoff=2, elements=frozenset(), tail=frozenset())
    with pytest.raises(ValueError, match="parameters require a non-empty J"):
        parametrize(window)


def _check_string_lengths(label, box):
    """Shi's inequalities (``oracles.shi_biconvex``) against the window test,
    on every string-length vector over the roots of the full subsystem with
    entries in box (math.inf for a whole string).  Each window is filled from
    its masks at cutoff 2B + 4, B the largest finite entry.  Every accepted
    vector with an infinite entry parametrizes and realizes back; every
    finite one reads back as an element.  Returns the number of vectors, of
    accepted ones and of accepted ones with an infinite entry."""
    rs = build_root_system(label)
    sub = sub_system(rs, rs.index_set)
    cutoff = 2 * max(k for k in box if k < math.inf) + 4
    w, window = biconvex._window_masks(sub, cutoff)
    roots = biconvex._class_sum_pairs(sub).parts[:-1]  # the imaginary slot stays empty
    vectors = accepted = infinite = 0
    for entries in product(box, repeat=len(roots)):
        vectors += 1
        n = dict(zip(roots, entries))
        masks = tuple(
            full if k == math.inf else sum(1 << (m + (not is_positive(eps))) * w for m in range(k))
            for eps, k, full in zip(roots, entries, window)
        ) + (0,)
        tail = frozenset(eps for eps, k in n.items() if k == math.inf)
        S = WindowSet._filled(sub, cutoff, masks, tail)
        shi = shi_biconvex(n)
        assert shi == is_biconvex_window(S, sub, cutoff), (label, n)
        if not shi:
            continue
        accepted += 1
        if tail:
            infinite += 1
            again = realize(parametrize(S), cutoff)
            assert again.tail == tail and again.truncate(cutoff) == S.elements, (label, n)
        else:
            x = element_from_affine_inversions(S.elements, sub)
            assert affine_inversion_set(x, sub) == S.elements, (label, n)
    return vectors, accepted, infinite


@pytest.mark.parametrize("label,box,counts", [
    ("A2", (0, 1, 2, 3, math.inf), (15625, 121, 48)),
    ("B2", (0, 1, 2, math.inf), (65536, 97, 48)),
], ids=["A2", "B2"])
def test_string_length_inequalities_match_the_window_test(label, box, counts):
    # A real biconvex set is its string-length vector; Shi's inequalities on
    # the vector decide biconvexity, as the window test does on its masks.
    assert _check_string_lengths(label, box) == counts
