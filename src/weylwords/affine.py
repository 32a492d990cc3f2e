"""Affine roots and affine Weyl group elements, stored as images of roots.

An affine root is a pair (level, classical): ``level*delta + classical``
with the classical part a finite root, or ``level*delta`` (imaginary) when
the classical part is None.  A group element x = t_lambda o w fixes delta
and is stored as its images of the simple roots, x(alpha_k) = -<w alpha_k,
lambda> delta + w alpha_k: ``finweyl``'s images plus one level per image.
Products and actions are the finite image rules with levels carried along;
lambda is derived on demand.  Inversion sets follow in closed form, as string lengths.

Letters name the generators attached to a subsystem J: Classical(j) is the
simple reflection s_j, Affine(c) is the reflection in delta minus the
highest root of the c-th component of J.  Letter order is all classical
letters (by index) before all affine ones; greedy descents use that order.
Every walk through letters (``_walk``) multiplies by one letter at a time
on the right, by one rule for every letter: x s sends alpha_k to x(alpha_k)
- <alpha_k, alpha_s-check> x(alpha_s).  It is the one route for right
products by letters: a Cayley-ball step is a walk of one letter.  The walk
keeps the images and levels in local lists and builds one element at its
end, so a letter costs only the images it reads (the support of alpha_s,
one image for a classical letter) and the rows it rewrites (where its
Cartan row is nonzero).  Reduced words, and elements read off inversion
sets, come from one descent walk over the letters' Cartan matrix from
2 rho - 2 sum N(x), as in ``finweyl``.
The element reader and the word action walk a sum through the last
``WALK_MEMO_SIZE`` sums' descent and letter walks (``_walk_of_sum``); the
memo keeps no verdict, and every read checks its own strings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import takewhile
from operator import index, mul
from typing import NamedTuple

from .cartan import (
    Root,
    RootSystem,
    SubSystem,
    _descent_walk,
    _json_field,
    _json_ints,
    height,
    is_positive,
    negate,
    sub_system,
)
from .finweyl import (
    WeylElement,
    _rewrite,
    from_word,
    identity,
    in_subgroup,
)


class AffineRoot(NamedTuple):
    level: int
    classical: Root | None

    @property
    def is_real(self) -> bool:
        return self.classical is not None

    @property
    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return self.classical is not None and is_positive(self.classical)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(
            -self.level, None if self.classical is None else negate(self.classical)
        )

    def __str__(self) -> str:
        if self.classical is None:
            return f"{self.level}d"
        parts = [f"{self.level}d"] if self.level else []
        for i, c in enumerate(self.classical, start=1):
            if c:
                parts.append(f"{c:+d}a{i}".replace("+1a", "+a").replace("-1a", "-a"))
        text = "".join(parts) if self.level else "".join(parts).lstrip("+")
        return text or "0"


def affine_add(a: AffineRoot, b: AffineRoot, rs: RootSystem) -> AffineRoot | None:
    """Sum of two affine roots, or None when the sum is not a root."""
    level = a.level + b.level
    zero = (0,) * rs.rank
    ca = a.classical or zero
    cb = b.classical or zero
    classical = tuple(x + y for x, y in zip(ca, cb))
    if classical == zero:
        return AffineRoot(level, None) if level != 0 else None
    if classical in rs.root_set:
        return AffineRoot(level, classical)
    return None


class Letter(NamedTuple):
    kind: str  # "c" for a classical index, "a" for a component's affine node
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def letters_of(sub: SubSystem) -> tuple[Letter, ...]:
    """The generator alphabet of the subsystem, in canonical order."""
    classical = [Letter("c", j) for j in sub.J]
    affine = [Letter("a", c) for c in range(1, len(sub.components) + 1)]
    return tuple(classical + affine)


def letter_root(sub: SubSystem, letter: Letter) -> AffineRoot:
    """The simple root alpha_s named by the letter."""
    if letter.kind == "c":
        if letter.index not in sub.J:
            raise ValueError(f"classical letter {letter} not in J={sub.J}")
        return AffineRoot(0, sub.rs.simple_root(letter.index))
    if not 1 <= letter.index <= len(sub.components):
        raise ValueError(f"affine letter {letter} out of range for J={sub.J}")
    theta = sub.highest_roots[letter.index - 1]
    return AffineRoot(1, negate(theta))


@dataclass(frozen=True)
class AffineElement:
    """x = t_lambda w, stored as its images of the simple roots: x(alpha_k) =
    levels[k] delta + finite(alpha_k), with levels[k] = -<w alpha_k, lambda>.
    x fixes delta, so these images determine x."""

    levels: tuple[int, ...]
    finite: WeylElement

    @property
    def rs(self) -> RootSystem:
        return self.finite.rs

    def __repr__(self) -> str:
        return f"AffineElement(t{list(self.translation)}, {self.finite!r})"

    @property
    def is_identity(self) -> bool:
        return not any(self.levels) and self.finite.is_identity

    @property
    def translation(self) -> tuple[int, ...]:
        """lambda over the simple coroots: lambda_i = <varpi_i, lambda>, with
        d varpi_i = sum_j column_i[j] alpha_j (the root system's ``det`` and
        ``weight_columns``)."""
        rs, pairs = self.rs, self._pairings()
        return tuple(sum(map(mul, col, pairs)) // rs.det for col in rs.weight_columns)

    def _pairings(self) -> tuple[int, ...]:
        """<alpha_j, lambda>, the level of x-inverse(alpha_j), for each j."""
        return tuple(-sum(map(mul, img, self.levels)) for img in self.finite.inverse.images)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.rs is not other.rs:
            raise ValueError("cannot multiply elements over different root systems")
        levels = tuple(
            level + sum(map(mul, img, self.levels))
            for level, img in zip(other.levels, other.finite.images)
        )
        return AffineElement(levels, self.finite * other.finite)

    @cached_property
    def inverse(self) -> "AffineElement":
        return AffineElement(self._pairings(), self.finite.inverse)

    def act(self, beta: AffineRoot) -> AffineRoot:
        """Image of an affine root, by linearity; imaginary roots are fixed."""
        if beta.classical is None:
            return beta
        level = beta.level + sum(map(mul, beta.classical, self.levels))
        return AffineRoot(level, self.finite.apply(beta.classical))


def affine_identity(rs: RootSystem) -> AffineElement:
    return lift(identity(rs))


def translation(rs: RootSystem, coords) -> AffineElement:
    """The translation by a coroot-lattice vector (simple-coroot coordinates)."""
    try:
        coords = tuple(map(index, coords))
    except TypeError as exc:
        raise ValueError(f"translation coordinates must be integers: {exc}") from exc
    if len(coords) != rs.rank:
        raise ValueError("translation coordinate length mismatch")
    levels = tuple(-rs.coroot_pairing(alpha, coords) for alpha in rs.simple_roots)
    return AffineElement(levels, identity(rs))


def lift(w: WeylElement) -> AffineElement:
    """A finite Weyl element viewed inside the affine group."""
    return AffineElement((0,) * w.rs.rank, w)


class _LetterData(NamedTuple):
    root: AffineRoot  # alpha_s
    row: tuple[int, ...]  # <alpha_t, alpha_s-check> for the letters t in order
    simple_row: tuple[int, ...]  # <alpha_k, alpha_s-check> for k = 1 .. rank
    support: tuple[tuple[int, int], ...]  # (k - 1, c) for each coefficient c != 0 of alpha_s
    touched: tuple[tuple[int, int], ...]  # (k - 1, a) for each entry a != 0 of simple_row


class _LetterTable(NamedTuple):
    data: dict[Letter, _LetterData]
    letters: tuple[Letter, ...]  # in canonical order
    rows: tuple[tuple[int, ...], ...]  # the letters' Cartan matrix: each letter's row


@lru_cache(maxsize=None)
def _letter_table(sub: SubSystem) -> _LetterTable:
    """Each letter's root and Cartan rows, built once per subsystem.  The
    affine letter's coroot pairs with classical vectors as -theta-check does."""
    rs = sub.rs
    roots = {letter: letter_root(sub, letter) for letter in letters_of(sub)}
    data = {}
    for letter, root in roots.items():
        coroot = rs.coroot_coords(root.classical)
        simple_row = tuple(rs.coroot_pairing(alpha, coroot) for alpha in rs.simple_roots)
        data[letter] = _LetterData(
            root,
            tuple(rs.coroot_pairing(r.classical, coroot) for r in roots.values()),
            simple_row,
            tuple((k, c) for k, c in enumerate(root.classical) if c),
            tuple((k, a) for k, a in enumerate(simple_row) if a),
        )
    return _LetterTable(data, tuple(data), tuple(d.row for d in data.values()))


def _counted_sum(rank: int, counted) -> tuple[int, ...]:
    """The classical part of sum N, N given as (count, classical part) pairs."""
    total = [0] * rank
    for n, eps in counted:
        for k, c in enumerate(eps):
            if c:
                total[k] += n * c
    return tuple(total)


def _walk_letters(sub: SubSystem, total) -> tuple[Letter, ...] | None:
    """The descent walk from 2 rho - 2 sum N, given the classical part of
    sum N: delta pairs to 0 with every coroot, so levels never enter."""
    table = _letter_table(sub)
    m = [2 - 2 * sum(map(mul, total, d.simple_row)) for d in table.data.values()]
    steps = _descent_walk(m, table.rows)
    return None if steps is None else tuple([table.letters[s] for s in steps])


# Bound of the sum-walk memo below.  Sweeps read one y for every (J, u) in a
# row, so a few recent sums suffice.
WALK_MEMO_SIZE = 16


@lru_cache(maxsize=WALK_MEMO_SIZE)
def _walk_of_sum(sub: SubSystem, total: tuple[int, ...]):
    """The descent walk from 2 rho - 2 total, then ``_walk`` over the letters
    it spelled: (letters, pivots, end element), or ValueError when the
    descent does not reach 2 rho (not kept).  It holds no verdict: a caller
    checks that the pivots are the set it summed.  Memoized for the last
    ``WALK_MEMO_SIZE`` distinct (J, total)."""
    letters = _walk_letters(sub, total)
    if letters is None:
        raise ValueError("descent walk did not reach 2 rho")
    pivots, end = _walk(sub, letters)
    return letters, tuple(pivots), end


def _walk(sub: SubSystem, letters, x: AffineElement | None = None) -> tuple[list, AffineElement]:
    """Step x (the identity when None) through the letters: the pivots, each
    the element so far applied to the next letter's root, and the end element.
    The pivots of a reduced word are its inversion set, in order.

    The images and levels are rewritten in place, and one element is built
    at the end.  Classical and affine letters alike, x s sends alpha_k to
    x(alpha_k) - <alpha_k, alpha_s-check> x(alpha_s): ``finweyl._rewrite``,
    plus one level per image.  So a letter costs the images its root's
    support reads, for the pivot, and the images its Cartan row touches.
    A letter outside the subsystem's alphabet raises ValueError, naming why."""
    x = affine_identity(sub.rs) if x is None else x
    table, pivots = _letter_table(sub).data, []
    levels, images = list(x.levels), list(x.finite.images)
    for letter in letters:
        data = table.get(letter)
        if data is None:
            letter_root(sub, letter)  # raises the reason the letter is not in J
            raise ValueError(f"unknown letter {letter}")
        support = data.support
        k, c = support[0]
        level, moved = data.root.level + c * levels[k], images[k]
        if c != 1 or len(support) > 1:  # alpha_s is not simple: sum its support's images
            moved = [c * v for v in moved]
            for k, c in support[1:]:
                level += c * levels[k]
                moved = [p + c * v for p, v in zip(moved, images[k])]
            moved = tuple(moved)
        pivots.append(AffineRoot(level, moved))
        _rewrite(images, data.touched, moved)
        if level:
            for k, a in data.touched:
                levels[k] -= a * level
    if not pivots:  # keep x, with its cached inverse and reduced word
        return pivots, x
    levels = tuple(levels)
    if levels == x.levels:  # share the unchanged tuple, as balls keep many elements
        levels = x.levels
    return pivots, AffineElement(levels, WeylElement(sub.rs, tuple(images)))


def from_letters(sub: SubSystem, word) -> AffineElement:
    return _walk(sub, word)[1]


def in_weyl_subgroup(x: AffineElement, sub: SubSystem) -> bool:
    """Membership in the subgroup generated by the subsystem's letters.

    Holds exactly when the finite part w is generated by J and lambda is
    supported on J.  Such a w fixes each fundamental weight varpi_k with k
    outside J, so x(d varpi_k) has level -d lambda_k: lambda is read off
    without being derived.
    """
    if not in_subgroup(x.finite, sub):
        return False
    columns = x.rs.weight_columns
    return not any(
        sum(map(mul, columns[k - 1], x.levels)) for k in x.rs.index_set if k not in sub.J
    )


def delta_height(rs: RootSystem) -> int:
    """Height of delta: one more than the height of the highest root, which
    is the last of the roots sorted by (height, coordinates)."""
    return height(rs.roots[-1]) + 1


def affine_height(rs: RootSystem, beta: AffineRoot) -> int:
    base = beta.level * delta_height(rs)
    return base + (height(beta.classical) if beta.classical else 0)


def affine_window(sub: SubSystem, cutoff: int) -> tuple[AffineRoot, ...]:
    """All positive affine roots of the subsystem with level <= cutoff.

    Sorted by (affine height, level, classical part): sums always appear
    after their summands.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    rs = sub.rs
    out = list(tower(rs, sub.roots, cutoff))
    out.extend(AffineRoot(m, None) for m in range(1, cutoff + 1))
    return tuple(
        sorted(out, key=lambda b: (affine_height(rs, b), b.level, b.classical or ()))
    )


def tower(rs: RootSystem, P, cutoff: int) -> frozenset[AffineRoot]:
    """Positive real roots with classical part in P, up to the cutoff level."""
    P = frozenset(P)
    if not P <= rs.root_set:
        raise ValueError("tower base must consist of roots")
    out = set()
    for eps in P:
        start = 0 if is_positive(eps) else 1
        out.update(AffineRoot(m, eps) for m in range(start, cutoff + 1))
    return frozenset(out)


def affine_inversion_set(x: AffineElement, sub: SubSystem) -> frozenset[AffineRoot]:
    """Positive roots of the subsystem sent negative by the inverse, listed
    string by string off the closed form; finite for every element of the subgroup."""
    return frozenset(
        AffineRoot(m, eps) for eps, levels in _inverted_levels(x, sub) for m in levels
    )


def affine_length(x: AffineElement, sub: SubSystem) -> int:
    """Length over the subsystem's letters, by counting the inversions of
    x^-1 (x and x^-1 have one length), which are read off x uninverted."""
    return sum(len(levels) for _, levels in _inverted_levels(x, sub, of_inverse=True))


def _inverted_levels(x: AffineElement, sub: SubSystem, of_inverse: bool = False):
    if not in_weyl_subgroup(x, sub):
        raise ValueError("element is not in the subgroup for J")
    return _inverted_strings(x, sub, of_inverse)


def _inverted_strings(x: AffineElement, sub: SubSystem, of_inverse: bool = False):
    """Each string eps + Z delta meeting N(x), or N(x^-1) read off x, with its
    levels.  The inverse sends m delta + eps to (m + c) delta + w eps, inverted
    iff m + c < 0, or m + c = 0 and w eps < 0; w eps has the sign of its height.
    Both flip with eps, so for eps > 0, k = c - [w eps < 0] gives both strings."""
    w, pairs = (x.finite, x.levels) if of_inverse else (x.finite.inverse, x._pairings())
    heights = [sum(img) for img in w.images]
    for eps in sub.positives:
        k = sum(map(mul, eps, pairs)) - (sum(map(mul, eps, heights)) < 0)
        if k:
            yield (eps, range(0, -k)) if k < 0 else (negate(eps), range(1, k + 1))


def affine_reduced_word(x: AffineElement, sub: SubSystem) -> tuple[Letter, ...]:
    """Reduced word by greedy left descent in canonical letter order: the
    descent walk from x's inversions, counted level by level."""
    counted = ((len(ms), eps) for eps, ms in _inverted_levels(x, sub))
    word = _walk_letters(sub, _counted_sum(sub.rs.rank, counted))
    if word is None:
        raise RuntimeError("descent walk of an affine element did not reach 2 rho")
    return word


def _element_of_strings(sub: SubSystem, strings: dict) -> AffineElement:
    """The x whose N(x) meets each string eps + Z delta in strings[eps] levels,
    or ValueError.  The descent walk's pivots are N(x), initial segments, so
    initial segments of these lengths are N(x) iff the pivots count the same.
    The walk comes from the sum memo, and every read checks its own strings
    against the pivots: another set with the same sum is still refused."""
    total = _counted_sum(sub.rs.rank, ((n, e) for e, n in strings.items()))
    try:
        _, pivots, x = _walk_of_sum(sub, total)
    except ValueError:
        pivots = None
    if pivots is None or strings != Counter(phi.classical for phi in pivots):
        raise ValueError("set is not an affine inversion set")
    return x


def element_from_affine_inversions(F, sub: SubSystem) -> AffineElement:
    """The element of the subgroup with the finite inversion set F; any other
    F raises ValueError.  Each string's levels must be an initial segment."""
    F = frozenset(F)
    counts = Counter(eps for _, eps in F)
    if None in counts or F != {(m + 1 - is_positive(e), e) for e, n in counts.items()
                               for m in range(n)}:
        raise ValueError("set is not an affine inversion set")
    return _element_of_strings(sub, counts)


class _Ball:
    """Breadth-first search of the Cayley graph, grown on demand.

    ``dist`` gains elements in order of distance, so the elements within any
    radius reached so far are a prefix of it.
    """

    def __init__(self, sub: SubSystem):
        self.sub = sub
        self.letters = letters_of(sub)
        self.dist: dict[AffineElement, int] = {affine_identity(sub.rs): 0}
        self.frontier = list(self.dist)
        self.radius = 0

    def grow(self, radius: int) -> None:
        while self.frontier and self.radius < radius:
            self.radius += 1
            new = []
            for x in self.frontier:
                for letter in self.letters:
                    y = _walk(self.sub, (letter,), x)[1]
                    if y not in self.dist:
                        self.dist[y] = self.radius
                        new.append(y)
            self.frontier = new


@lru_cache(maxsize=None)
def _bfs_cached(sub: SubSystem) -> _Ball:
    return _Ball(sub)


def bfs_elements(sub: SubSystem, max_length: int) -> dict[AffineElement, int]:
    """Cayley-graph distances from the identity, out to the given radius."""
    ball = _bfs_cached(sub)
    ball.grow(max_length)
    limit = max(max_length, 0)
    return dict(takewhile(lambda item: item[1] <= limit, ball.dist.items()))


# ---------------------------------------------------------------------------
# JSON encodings

def affine_root_to_json(beta: AffineRoot) -> dict:
    return {
        "level": beta.level,
        "classical": None if beta.classical is None else list(beta.classical),
    }


def affine_root_from_json(data: dict) -> AffineRoot:
    level = _json_field(data, "level", int)
    classical = None if _json_field(data, "classical") is None else _json_ints(data, "classical")
    return AffineRoot(level, classical)


def letter_to_json(letter: Letter) -> dict:
    return {letter.kind: letter.index}


def letter_from_json(data: dict) -> Letter:
    kind = next(iter(data)) if type(data) is dict and len(data) == 1 else None
    if kind not in ("c", "a"):
        raise ValueError(f"a letter is a JSON object with one field 'c' or 'a', got {data!r}")
    return Letter(kind, _json_field(data, kind, int))


def element_to_json(x: AffineElement) -> dict:
    return {"lambda": list(x.translation), "wbar": list(x.finite.word)}


MAX_INPUT_LENGTH = 10000  # realizing or acting grows with the element's length


def element_from_json(rs: RootSystem, data: dict) -> AffineElement:
    """An element read from outside input, refused when its length over the
    full system is above ``MAX_INPUT_LENGTH``; the length lists no inversion."""
    lam, wbar = _json_ints(data, "lambda"), _json_ints(data, "wbar")
    x = translation(rs, lam) * lift(from_word(rs, wbar))
    length = affine_length(x, sub_system(rs, rs.index_set))
    if length > MAX_INPUT_LENGTH:
        raise ValueError(f"element length {length} is above the limit {MAX_INPUT_LENGTH}")
    return x
