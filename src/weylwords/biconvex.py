"""Biconvex subsets of the positive affine roots of a subsystem.

A biconvex set is closed under root addition and so is its complement.
The infinite real ones are in bijection with parameter triples
(K, u, y): K a subset of J, u a minimal coset representative, y an
element of the subgroup attached to K.  One class, ``WindowSet``, holds a
set: its members up to a cutoff, plus a promise for every level beyond
(the classical roots whose towers continue, and whether imaginary roots
do).  Nothing infinite is stored, yet membership is answered at any
level.  ``realize`` builds the set a triple names, with the cutoff raised
to reach its whole finite part, and ``parametrize`` inverts it.

Sums inside a window come from one table per subsystem, free of any
cutoff: the pairs of classical parts whose sum is a root or zero.  Its
slots (each root of the subsystem, then the imaginary roots) key a
window's storage: one integer per slot, level m at bit m * w with
w = (cutoff + 1).bit_length() + 1.  A real biconvex set meets each string
eps + Z delta in an initial segment, so the masks are its string lengths,
windowed.  The window test closes them, ``realize`` and ``parametrize`` write
and read one length per string, and membership reads one bit.  Only the public
constructor checks members; ``realize``, ``complement`` and
``words.word_window`` fill their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import xor
from typing import NamedTuple

from .cartan import (
    Root,
    RootSystem,
    SubSystem,
    _json_field,
    _json_ints,
    check_subset,
    is_positive,
    sub_system,
)
from .finweyl import (
    WeylElement,
    factor_pointed_biclosed,
    from_word,
    in_subgroup,
    tail_roots,
)
from .affine import (
    AffineElement,
    AffineRoot,
    _element_of_strings,
    _inverted_strings,
    affine_add,
    affine_root_from_json,
    affine_root_to_json,
    affine_window,
    element_from_json,
    element_to_json,
    in_weyl_subgroup,
    tower,
)


class NotBiconvexError(ValueError):
    """Raised when an input set fails to be (or encode) a biconvex set."""


@dataclass(frozen=True)
class BiconvexParam:
    """A triple (K, u, y) naming a biconvex set inside the subsystem J.

    Constraints checked on construction: K inside J, u a minimal coset
    representative for K inside the finite Weyl group of J, and y in the
    affine subgroup attached to K.  The named set is infinite exactly when
    K is a proper subset of J.  Equality is field by field; subsystems
    compare by identity.
    """

    sub: SubSystem
    K: tuple[int, ...]
    u: WeylElement
    y: AffineElement

    def __post_init__(self):
        sub = self.sub
        if not sub.J:
            raise ValueError("parameters require a non-empty J")
        K = check_subset(sub, self.K)
        object.__setattr__(self, "K", K)
        if not in_subgroup(self.u, sub):
            raise ValueError("u is not in the finite Weyl group of J")
        if any(not is_positive(self.u.images[k - 1]) for k in K):
            raise ValueError("u is not a minimal coset representative for K")
        if not in_weyl_subgroup(self.y, sub_system(sub.rs, K)):
            raise ValueError("y is not in the subgroup attached to K")

    @classmethod
    def _trusted(cls, sub, K, u, y) -> "BiconvexParam":
        """A triple the caller has just proved valid: only the empty-J check runs."""
        if not sub.J:
            raise ValueError("parameters require a non-empty J")
        param = object.__new__(cls)
        param.__dict__.update(sub=sub, K=K, u=u, y=y)
        return param

    def __repr__(self) -> str:
        return f"BiconvexParam(J={self.sub.J}, K={self.K}, u={self.u!r}, y={self.y!r})"

    @property
    def names_infinite_set(self) -> bool:
        return set(self.K) != set(self.sub.J)


class _ClassSums(NamedTuple):
    """The window's sums by classical part (``None`` for imaginary roots)."""

    parts: tuple[Root | None, ...]  # each slot's part: positives, negatives, None
    slot: dict[Root | None, int]  # each part's slot
    positives: int  # slots below this index are positive: level 0 is in the window
    pairs: tuple[tuple[int, int, int], ...]  # (x, y, z): x <= y, part x + part y = part z


@lru_cache(maxsize=None)
def _class_sum_pairs(sub: SubSystem) -> _ClassSums:
    """Every unordered pair of classical parts whose sum is a root or zero,
    with that sum.  The root m delta + a plus n delta + b is then the root
    (m + n) delta + (a + b) at every pair of levels, so this one table,
    free of any cutoff, holds every sum inside every window."""
    parts = (*sub.positives, *sub.negatives, None)
    slot = {a: x for x, a in enumerate(parts)}
    pairs = []
    for x, a in enumerate(parts):
        for y in range(x, len(parts)):
            total = affine_add(AffineRoot(1, a), AffineRoot(0, parts[y]), sub.rs)
            if total is not None and total.classical in slot:
                pairs.append((x, y, slot[total.classical]))
    return _ClassSums(parts, slot, len(sub.positives), tuple(pairs))


@lru_cache(maxsize=None)
def _window_sum_triples(sub: SubSystem, cutoff: int):
    """The level-bounded window's root-to-index map, and every index triple
    (i, j, k) with i <= j and window[i] + window[j] = window[k], read off
    the class sum pairs at every pair of levels."""
    window = affine_window(sub, cutoff)
    index = {beta: t for t, beta in enumerate(window)}
    table = _class_sum_pairs(sub)
    levels: list[dict[int, int]] = [{} for _ in table.slot]
    for beta, t in index.items():
        levels[table.slot[beta.classical]][beta.level] = t
    triples = []
    for x, y, z in table.pairs:
        sums = levels[z]
        for m, i in levels[x].items():
            for n, j in levels[y].items():
                if (k := sums.get(m + n)) is not None and (x != y or i <= j):
                    triples.append((min(i, j), max(i, j), k))
    return index, tuple(triples)


def _field_width(cutoff: int) -> int:
    return (cutoff + 1).bit_length() + 1  # bits per level field: counts cutoff + 1 level sums


# Bound of the window-mask memo.  One verify-sweep round reads 135 distinct
# (J, cutoff) in 10,138 calls and misses 135 times, and a query-mix round
# reads 75 to 89 in 1,024, so at 128 every miss is still a first read.  An
# entry holds 19 KB (A3) to 353 KB (E8) at the largest cutoff read from
# outside, 1,000.
WINDOW_MEMO_SIZE = 128


@lru_cache(maxsize=WINDOW_MEMO_SIZE)
def _window_masks(sub: SubSystem, cutoff: int) -> tuple[int, tuple[int, ...]]:
    """w and each slot's window: levels 0..cutoff for a positive part, 1..cutoff
    else.  Memoized for the last ``WINDOW_MEMO_SIZE`` distinct (J, cutoff)."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    w, table = _field_width(cutoff), _class_sum_pairs(sub)
    levels = ((1 << w * (cutoff + 1)) - 1) // ((1 << w) - 1)  # bit 0 of fields 0..cutoff
    return w, (levels,) * table.positives + (levels - 1,) * (len(table.parts) - table.positives)


def is_biconvex_window(S, sub: SubSystem, cutoff: int) -> bool:
    """Pairwise closure test inside the level-bounded window.

    Checks both closure of S and closure of its complement for every pair
    of window roots whose sum stays in the window, on S's level masks (a
    ``WindowSet`` over sub at this cutoff is tested as stored).  A field of
    the product of two parts' masks is nonzero exactly when its level is a
    sum m + n of their levels, and the field counts at most cutoff + 1 such
    pairs, below 2^w, so no field carries into the next.  Closure of S is
    then one product per class sum pair, ANDed with the window levels of
    the sum's part outside S; closure of the complement is the same with
    the complement's masks.  Necessary at every cutoff; exact for sets that
    agree with a tail pattern beyond it.
    """
    if not isinstance(S, WindowSet):
        S = WindowSet(sub, cutoff, S)
    elif S.sub is not sub or S.cutoff != cutoff:
        raise ValueError("the window is over another subsystem or cutoff")
    (w, window), member = _window_masks(sub, cutoff), S._masks
    field = (1 << w) - 1
    outside = [win ^ s for win, s in zip(window, member)]
    inside_fields = [s * field for s in member]
    outside_fields = [s * field for s in outside]
    for x, y, z in _class_sum_pairs(sub).pairs:
        if (member[x] * member[y] & outside_fields[z]
                or outside[x] * outside[y] & inside_fields[z]):
            return False
    return True


@dataclass(frozen=True, init=False)
class WindowSet:
    """A set of positive affine roots: its members up to a cutoff, plus a
    promise for every level beyond.

    Stored as one level mask per slot of ``_class_sum_pairs(sub)``, level
    m at bit m * w with w from ``_window_masks``: the window test's format.
    ``elements``, derived from the masks on first read, lists every member
    with level at most ``cutoff`` (real or imaginary); beyond the cutoff, a
    real root belongs iff its classical part is in ``tail``, and an
    imaginary root belongs iff ``imaginary_tail``.  Membership is thus
    answered at any level.  The public constructor checks every member and
    the tail; ``realize``, ``complement`` and ``words.word_window`` fill masks
    they have just built through ``_filled``.  Equal fields mean equal member
    sets.
    """

    sub: SubSystem
    cutoff: int
    _masks: tuple[int, ...]
    tail: frozenset[Root]
    imaginary_tail: bool

    def __init__(self, sub, cutoff, elements, tail=frozenset(), imaginary_tail=False):
        (w, window), slot = _window_masks(sub, cutoff), _class_sum_pairs(sub).slot
        masks = [0] * len(window)
        for m, c in elements:
            x = slot.get(c)
            if x is None or not 0 <= m <= cutoff or not window[x] >> m * w & 1:
                if not AffineRoot(m, c).is_positive or m > cutoff:
                    raise ValueError(f"{AffineRoot(m, c)} is outside the level-{cutoff} window")
                raise ValueError(f"{list(c)} is not a root of the subsystem")
            masks[x] |= 1 << m * w
        if not (tail := frozenset(tail)) <= sub.root_set:
            raise ValueError("tail promise contains non-roots")
        self.__dict__.update(sub=sub, cutoff=cutoff, _masks=tuple(masks), tail=tail,
                             imaginary_tail=imaginary_tail)

    @classmethod
    def _filled(cls, sub, cutoff, masks, tail, imaginary_tail=False) -> "WindowSet":
        """A window whose masks hold only window levels: nothing is checked."""
        window = object.__new__(cls)
        window.__dict__.update(sub=sub, cutoff=cutoff, _masks=masks, tail=tail,
                               imaginary_tail=imaginary_tail)
        return window

    def __contains__(self, beta: AffineRoot) -> bool:
        m, c = beta
        if m > self.cutoff:
            return self.imaginary_tail if c is None else c in self.tail
        x, w = _class_sum_pairs(self.sub).slot.get(c), _field_width(self.cutoff)
        return m >= 0 and x is not None and bool(self._masks[x] & 1 << m * w)

    def _finite_strings(self):
        """(e, n) per string e + Z delta off the tail; ValueError if not an initial segment."""
        (w, window), table = _window_masks(self.sub, self.cutoff), _class_sum_pairs(self.sub)
        for x, (part, mask) in enumerate(zip(table.parts, self._masks)):
            if mask and part not in self.tail:
                stop = mask.bit_length() // w + 1  # one past the top level, as w >= 2
                if mask != window[x] & ((1 << w * stop) - 1):
                    raise ValueError("set is not an affine inversion set")
                yield part, stop - (x >= table.positives)

    def _members(self, top: int, skip=frozenset()) -> frozenset[AffineRoot]:
        """The members of level at most top whose classical part is not in skip."""
        w, parts = _field_width(self.cutoff), _class_sum_pairs(self.sub).parts
        # One pass per slot: every w-th binary digit from the lowest spells the levels.
        return frozenset(AffineRoot(m, part) for part, mask in zip(parts, self._masks)
                         if mask and part not in skip
                         for m, bit in enumerate(f"{mask:b}"[::-w][:top + 1]) if bit == "1")

    @cached_property
    def elements(self) -> frozenset[AffineRoot]:
        """Every member with level at most the cutoff."""
        return self._members(self.cutoff)

    @cached_property
    def finite_part(self) -> frozenset[AffineRoot]:
        """The members whose classical part is outside the tail promise."""
        return self._members(self.cutoff, self.tail)

    def truncate(self, cutoff: int) -> frozenset[AffineRoot]:
        """The members with level at most ``cutoff`` (no more than the window's)."""
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if cutoff > self.cutoff:
            raise ValueError(f"level {cutoff} is above the window's cutoff {self.cutoff}")
        return self._members(cutoff)

    def complement(self) -> "WindowSet":
        # Valid by construction: the XOR with the window masks keeps every
        # bit inside the window, and the roots of J less the tail are roots.
        # A list first: tuple(iterator) resizes, and resized tuples pile up in a free list.
        masks = [*map(xor, _window_masks(self.sub, self.cutoff)[1], self._masks)]
        return WindowSet._filled(self.sub, self.cutoff, tuple(masks),
                                 frozenset(self.sub.roots) - self.tail, not self.imaginary_tail)

    @property
    def is_real(self) -> bool:
        return not self.imaginary_tail and not self._masks[-1]  # the imaginary slot

    @property
    def is_finite(self) -> bool:
        return not self.tail and not self.imaginary_tail


def window_of_view(window: WindowSet) -> WindowSet:
    return window  # perfbench/workloads.py still calls this; a view is a window now


def realize(param: BiconvexParam, cutoff: int) -> WindowSet:
    """The biconvex set named by (K, u, y): the tower over the tail
    u(negative roots of J outside K) plus the finite part u(N(y)), at a
    cutoff raised to the top finite level, so the window holds the set."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    sub, u = param.sub, param.u
    tail = tail_roots(sub, param.K, u)
    # Unchecked: y is in K's subgroup, checked on construction or proved by _trusted's caller.
    strings = [(eps, u.apply(eps), levels.stop) for eps, levels in
               _inverted_strings(param.y, sub_system(sub.rs, param.K))]
    if any(is_positive(eps) != is_positive(image) for eps, image, _ in strings):
        raise RuntimeError("finite part left the positive roots")  # masks are exact only then
    cutoff = max([cutoff, *(stop - 1 for *_, stop in strings)])
    (w, window), slot = _window_masks(sub, cutoff), _class_sum_pairs(sub).slot
    masks = [0] * len(window)
    for eps in tail:
        masks[slot[eps]] = window[slot[eps]]
    for _, eps, stop in strings:
        masks[slot[eps]] = window[slot[eps]] & ((1 << w * stop) - 1)
    # Valid by construction: u is in W_J, so the tail u(Phi_J^- \ Phi_K) and each u(eps),
    # eps in Phi_K, are roots of J; N(y) meets eps + Z delta in an initial segment.
    return WindowSet._filled(sub, cutoff, tuple(masks), tail)


def _parameters(sub: SubSystem, tail, strings) -> BiconvexParam:
    """(K, u, y) of tower(tail) plus a finite part off the tail, given by the
    lengths n of its strings e + Z delta ((e, n) pairs or a mapping), read after
    the tail.  u keeps the signs of K's roots: N(y) has them pulled back by u^-1."""
    try:
        K, u = factor_pointed_biclosed(tail, sub)
    except ValueError as exc:
        raise NotBiconvexError(f"tail support is not pointed biclosed: {exc}") from exc
    try:
        pulled = {u.inverse.apply(e): n for e, n in dict(strings).items()}
        y = _element_of_strings(sub_system(sub.rs, K), pulled)
    except ValueError as exc:
        raise NotBiconvexError(f"finite part is not an inversion set: {exc}") from exc
    # Valid by construction: factor_pointed_biclosed gives K sorted inside J
    # and u in W_J with N(u) = P & Phi+ (so u(alpha_k) < 0 would put k outside
    # K: u is minimal), and y is a walk over the letters of K's subsystem.
    return BiconvexParam._trusted(sub, K, u, y)


def parametrize(B: WindowSet) -> BiconvexParam:
    """Recover the unique (K, u, y) naming a real biconvex set, which must
    carry its tail support; anything inconsistent raises NotBiconvexError.
    (K, u) factor the tail and N(y) has the finite slots' lengths, so the
    round trip holds iff each tail slot holds its whole window."""
    if not B.is_real:
        raise NotBiconvexError("parametrize expects a real set")
    param = _parameters(B.sub, B.tail, B._finite_strings())
    slot, window = _class_sum_pairs(B.sub).slot, _window_masks(B.sub, B.cutoff)[1]
    if any(B._masks[slot[e]] != window[slot[e]] for e in B.tail):
        raise NotBiconvexError("window does not round-trip through its parameters")
    return param


def contained_mod_finite(p1: BiconvexParam, p2: BiconvexParam) -> bool:
    """Whether the set named by p1 is contained in p2's up to finitely
    many elements, decided algebraically (no truncation)."""
    if p1.sub is not p2.sub:
        raise ValueError("parameters live over different subsystems")
    if not set(p1.K) >= set(p2.K):
        return False
    K1_sub = sub_system(p1.sub.rs, p1.K)
    return in_subgroup(p2.u.inverse * p1.u, K1_sub)


def classify_biconvex(B: WindowSet):
    """Sort a biconvex set into one of the four structural cases.

    Returns (case, witness): "a" finite real with its group element, "c"
    infinite real with its parameters, "b"/"d" for complements of those
    (witness describes the complement).  Raises NotBiconvexError otherwise.
    """
    sub = B.sub
    if B.is_real:
        if B.is_finite:
            try:
                z = _element_of_strings(sub, dict(B._finite_strings()))
            except ValueError as exc:
                raise NotBiconvexError(f"not a finite inversion set: {exc}") from exc
            return "a", z
        return "c", parametrize(B)
    comp = B.complement()
    if not comp.is_real:
        raise NotBiconvexError("neither the set nor its complement is real")
    case, witness = classify_biconvex(comp)  # "a" or "c": the complement is real
    return {"a": "b", "c": "d"}[case], witness


def enumerate_biconvex(
    sub: SubSystem, cutoff: int, max_size: int, *, window_limit: int = 64
):
    """All window subsets of size at most max_size passing the pair test.

    Depth-first search over the window in height order, so each root's
    membership is forced (or contradicted) by decisions already made on
    its summands.  Refuses windows larger than ``window_limit`` with a
    size report, counted before the window is built: every root of J at
    each level 1..cutoff, J's positive roots at level 0, and cutoff
    imaginary roots.
    """
    size = (len(sub.roots) + 1) * cutoff + len(sub.positives)
    if cutoff >= 0 and size > window_limit:  # a negative cutoff is refused by affine_window
        raise ValueError(f"window has {size} roots, above the limit {window_limit}")
    window = affine_window(sub, cutoff)
    pair_masks: list[list[int]] = [[] for _ in window]
    for i, j, k in _window_sum_triples(sub, cutoff)[1]:
        pair_masks[k].append(1 << i | 1 << j)

    # Each pending branch is (next index, members chosen so far as a bit
    # mask, their count); an explicit stack keeps no closure alive after.
    results: list[frozenset[AffineRoot]] = []
    stack = [(0, 0, 0)]
    while stack:
        t, chosen, size = stack.pop()
        if t == len(window):
            results.append(frozenset(b for i, b in enumerate(window) if chosen >> i & 1))
            continue
        forced_in = any(chosen & p == p for p in pair_masks[t])
        forced_out = any(not chosen & p for p in pair_masks[t])
        if forced_in and forced_out:
            continue
        if not forced_out and size < max_size:
            stack.append((t + 1, chosen | 1 << t, size + 1))
        if not forced_in:
            stack.append((t + 1, chosen, size))
    results.sort(key=lambda s: (len(s), sorted((b.level, b.classical or ()) for b in s)))
    return results


# ---------------------------------------------------------------------------
# JSON encodings

MAX_INPUT_CUTOFF = 1000  # a window's size grows with its cutoff, even when empty


def input_cutoff(cutoff: int) -> int:
    """A cutoff read from outside input, refused above ``MAX_INPUT_CUTOFF``.
    Cutoffs the library raises itself, as ``realize`` does, are not bounded."""
    if cutoff > MAX_INPUT_CUTOFF:
        raise ValueError(f"cutoff {cutoff} is above the limit {MAX_INPUT_CUTOFF}")
    return cutoff


def param_to_json(param: BiconvexParam) -> dict:
    return {
        "J": list(param.sub.J),
        "K": list(param.K),
        "u": list(param.u.word),
        "y": element_to_json(param.y),
    }


def param_from_json(rs: RootSystem, data: dict) -> BiconvexParam:
    sub = sub_system(rs, _json_ints(data, "J"))
    return BiconvexParam(
        sub=sub,
        K=_json_ints(data, "K"),
        u=from_word(rs, _json_ints(data, "u")),
        y=element_from_json(rs, _json_field(data, "y", dict)),
    )


def view_to_json(window: WindowSet) -> dict:
    finite = sorted(window.finite_part, key=lambda b: (b.level, b.classical or ()))
    return {
        "tail": sorted(list(r) for r in window.tail),
        "finite": [affine_root_to_json(b) for b in finite],
        "cutoff": window.cutoff,
    }


def view_from_json(rs: RootSystem, J, data: dict) -> WindowSet:
    """A view's set, checked as outside input; the cutoff is raised to reach
    every listed finite root."""
    sub = sub_system(rs, J)
    tail = frozenset(_json_ints(data, "tail", 2))
    finite = frozenset(affine_root_from_json(b) for b in _json_field(data, "finite", list))
    cutoff = input_cutoff(max([_json_field(data, "cutoff", int), *(b.level for b in finite)]))
    return WindowSet(sub=sub, cutoff=cutoff, elements=tower(rs, tail, cutoff) | finite, tail=tail)
