"""Affine roots and affine Weyl group elements in translation form.

An affine root is a pair (level, classical): ``level*delta + classical``
with the classical part a finite root, or ``level*delta`` (imaginary) when
the classical part is None.  Group elements are pairs (translation, finite)
representing ``t_lambda o w`` with lambda stored as integer coordinates
over the simple coroots; this form makes inversion sets computable in
closed form, with no search.

Letters name the generators attached to a subsystem J: Classical(j) is the
simple reflection s_j, Affine(c) is the reflection in delta minus the
highest root of the c-th component of J.  Letter order is all classical
letters (by index) before all affine ones; greedy descents use that order.
Stepping through a word multiplies by one letter at a time on the right,
from a per-subsystem letter table, in O(rank^2) per letter: s_j through
``_times_simple``, the affine letter by moving one root.  Reduced words,
and elements read off inversion sets, come from one descent walk over the
letters' Cartan matrix from 2 rho - 2 sum N(x), as in ``finweyl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import takewhile
from typing import NamedTuple

from .cartan import (
    Root,
    RootSystem,
    SubSystem,
    _descent_walk,
    height,
    is_positive,
    negate,
)
from .finweyl import (
    WeylElement,
    from_word,
    identity,
    in_subgroup,
    reflection,
    simple_reflection,
    tail_roots,
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


@dataclass(frozen=True, eq=False)
class AffineElement:
    """t_lambda composed with a finite Weyl element, acting on affine roots."""

    translation: tuple[int, ...]
    finite: WeylElement

    def __post_init__(self):
        if len(self.translation) != self.finite.rs.rank:
            raise ValueError("translation coordinate length mismatch")

    @property
    def rs(self) -> RootSystem:
        return self.finite.rs

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineElement):
            return NotImplemented
        return (
            self.rs is other.rs
            and self.translation == other.translation
            and self.finite == other.finite
        )

    def __hash__(self) -> int:
        return hash((self.translation, self.finite))

    def __repr__(self) -> str:
        return f"AffineElement(t{list(self.translation)}, {self.finite!r})"

    @property
    def is_identity(self) -> bool:
        return not any(self.translation) and self.finite.is_identity

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.rs is not other.rs:
            raise ValueError("cannot multiply elements over different root systems")
        moved = self.finite.coroot_apply(other.translation)
        new_translation = tuple(a + b for a, b in zip(self.translation, moved))
        return AffineElement(new_translation, self.finite * other.finite)

    @cached_property
    def inverse(self) -> "AffineElement":
        w_inv = self.finite.inverse
        moved = w_inv.coroot_apply(self.translation)
        return AffineElement(tuple(-x for x in moved), w_inv)

    def act(self, beta: AffineRoot) -> AffineRoot:
        """Image of an affine root; imaginary roots are fixed."""
        if beta.classical is None:
            return beta
        eps = self.finite.apply(beta.classical)
        pairing = self.rs.coroot_pairing(eps, self.translation)
        return AffineRoot(beta.level - pairing, eps)


def affine_identity(rs: RootSystem) -> AffineElement:
    return AffineElement((0,) * rs.rank, identity(rs))


def translation(rs: RootSystem, coords) -> AffineElement:
    """The translation by a coroot-lattice vector (simple-coroot coordinates)."""
    coords = tuple(int(c) for c in coords)
    return AffineElement(coords, identity(rs))


def lift(w: WeylElement) -> AffineElement:
    """A finite Weyl element viewed inside the affine group."""
    return AffineElement((0,) * w.rs.rank, w)


class _LetterData(NamedTuple):
    element: AffineElement
    coroot: tuple[int, ...]  # classical part of alpha_s-check, over the simple coroots
    row: tuple[int, ...]  # <alpha_t, alpha_s-check> for the letters t in order
    theta: Root | None = None  # an affine letter's highest root
    pairs: tuple[int, ...] = ()  # <alpha_j, theta-check> for j = 1 .. rank


@lru_cache(maxsize=None)
def _letter_table(sub: SubSystem) -> dict[Letter, _LetterData]:
    """Each letter's element, coroot and Cartan row, built once per subsystem.
    The affine letter's root delta - theta pairs with coroots as -theta does."""
    rs = sub.rs
    roots = {letter: letter_root(sub, letter).classical for letter in letters_of(sub)}
    table = {}
    for letter, root in roots.items():
        coroot = rs.coroot_coords(root)
        row = tuple(rs.coroot_pairing(r, coroot) for r in roots.values())
        if letter.kind == "c":
            element = lift(simple_reflection(rs, letter.index))
            table[letter] = _LetterData(element, coroot, row)
            continue
        theta, check = negate(root), negate(coroot)
        table[letter] = _LetterData(
            AffineElement(check, reflection(rs, theta)), coroot, row, theta,
            tuple(rs.coroot_pairing(alpha, check) for alpha in rs.simple_roots),
        )
    return table


def _walk_letters(sub: SubSystem, counted) -> tuple[Letter, ...] | None:
    """The descent walk from 2 rho - 2 sum N, N given as (count, classical
    part) pairs: delta pairs to 0 with every coroot, so levels never enter."""
    total = [0] * sub.rs.rank
    for n, eps in counted:
        total = [t + n * c for t, c in zip(total, eps)]
    table = _letter_table(sub)
    letters, data = tuple(table), table.values()
    m = [2 - 2 * sub.rs.coroot_pairing(total, d.coroot) for d in data]
    steps = _descent_walk(m, [d.row for d in data])
    return None if steps is None else tuple([letters[s] for s in steps])


def _letter_data(sub: SubSystem, letter: Letter) -> _LetterData:
    data = _letter_table(sub).get(letter)
    if data is None:
        letter_root(sub, letter)  # raises the reason the letter is not in J
        raise ValueError(f"unknown letter {letter}")
    return data


def letter_element(sub: SubSystem, letter: Letter) -> AffineElement:
    """The reflection named by a letter: s_j, or t_{theta-check} s_theta."""
    return _letter_data(sub, letter).element


def _times_letter(x: AffineElement, sub: SubSystem, letter: Letter) -> AffineElement:
    """x times the letter's reflection.  With x = t_lambda w, s_j changes w
    only; t_{theta-check} s_theta gives t_{lambda + w(theta)-check} w s_theta,
    and w s_theta sends alpha_j to w(alpha_j) - <alpha_j, theta-check> w(theta)."""
    data = _letter_data(sub, letter)
    w = x.finite
    if data.theta is None:
        return AffineElement(x.translation, w._times_simple(letter.index))
    moved = w.apply(data.theta)
    shift = w.rs.coroot_coords(moved)  # w(theta-check) is the coroot of w(theta)
    return AffineElement(
        tuple(a + b for a, b in zip(x.translation, shift)),
        WeylElement(w.rs, tuple(
            tuple(v - c * m for v, m in zip(img, moved)) if c else img
            for img, c in zip(w.images, data.pairs)
        )),
    )


def from_letters(sub: SubSystem, word) -> AffineElement:
    x = affine_identity(sub.rs)
    for letter in word:
        x = _times_letter(x, sub, letter)
    return x


def in_weyl_subgroup(x: AffineElement, sub: SubSystem) -> bool:
    """Membership in the subgroup generated by the subsystem's letters.

    Holds exactly when the finite part is generated by J and the
    translation is supported on J.
    """
    J = set(sub.J)
    if any(c and (i not in J) for i, c in enumerate(x.translation, start=1)):
        return False
    return in_subgroup(x.finite, sub)


def delta_height(rs: RootSystem) -> int:
    """Height of delta: one more than the height of the highest root, which
    is the last of the roots sorted by (height, coordinates)."""
    return height(rs.roots[-1]) + 1


def affine_height(rs: RootSystem, beta: AffineRoot) -> int:
    base = beta.level * delta_height(rs)
    return base + (height(beta.classical) if beta.classical else 0)


def affine_window(
    sub: SubSystem, cutoff: int, include_imaginary: bool = True
) -> tuple[AffineRoot, ...]:
    """All positive affine roots of the subsystem with level <= cutoff.

    Sorted by (affine height, level, classical part): sums always appear
    after their summands.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    rs = sub.rs
    out = list(tower(rs, sub.roots, cutoff))
    if include_imaginary:
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


def tail_set(
    sub: SubSystem, K, u: WeylElement, sign: int, cutoff: int
) -> frozenset[AffineRoot]:
    """Truncation of the tail pattern: the tower over u(complement of K).

    Invariant under replacing u by u*v with v generated by K.
    """
    return tower(sub.rs, tail_roots(sub, K, u, sign), cutoff)


def affine_inversion_set(x: AffineElement, sub: SubSystem) -> frozenset[AffineRoot]:
    """Positive roots of the subsystem sent negative by the inverse.

    Closed form: with x = t_lambda o w, the root m*delta + eps is inverted
    iff m + (eps|lambda) < 0, or the sum is 0 and w-inverse sends eps
    negative.  Finite for every element of the subgroup.
    """
    return frozenset(
        AffineRoot(m, eps) for eps, levels in _inverted_levels(x, sub) for m in levels
    )


def affine_length(x: AffineElement, sub: SubSystem) -> int:
    """Length over the subsystem's letters, by counting inversions."""
    return sum(len(levels) for _, levels in _inverted_levels(x, sub))


def _inverted_levels(x: AffineElement, sub: SubSystem):
    """Each root eps of the subsystem with the range of levels m at which
    m*delta + eps is an inversion of x (see ``affine_inversion_set``)."""
    if not in_weyl_subgroup(x, sub):
        raise ValueError("element is not in the subgroup for J")
    w_inv = x.finite.inverse
    for eps in sub.roots:
        c = x.rs.coroot_pairing(eps, x.translation)
        start = 0 if is_positive(eps) else 1
        stop = -c + (-c >= start and not is_positive(w_inv.apply(eps)))
        yield eps, range(start, stop)


def affine_reduced_word(x: AffineElement, sub: SubSystem) -> tuple[Letter, ...]:
    """Reduced word by greedy left descent in canonical letter order: the
    descent walk from x's inversions, counted level by level."""
    word = _walk_letters(sub, ((len(ms), eps) for eps, ms in _inverted_levels(x, sub)))
    if word is None:
        raise RuntimeError("descent walk of an affine element did not reach 2 rho")
    return word


def element_from_affine_inversions(F, sub: SubSystem) -> AffineElement:
    """The element of the subgroup whose inversion set is the finite set F,
    whose word the descent walk spells from F's real roots (imaginary ones are
    left to the final check).  Raises ValueError for any other set F."""
    F = frozenset(F)
    word = _walk_letters(sub, ((1, beta.classical) for beta in F if beta.is_real))
    if word is None:
        raise ValueError("set is not an affine inversion set")
    result = from_letters(sub, word)
    if affine_inversion_set(result, sub) != F:
        raise ValueError("set is not an affine inversion set")
    return result


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
                    y = _times_letter(x, self.sub, letter)
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
    classical = data["classical"]
    return AffineRoot(int(data["level"]), None if classical is None else tuple(classical))


def letter_to_json(letter: Letter) -> dict:
    return {letter.kind: letter.index}


def letter_from_json(data: dict) -> Letter:
    (kind, index), = data.items()
    if kind not in ("c", "a"):
        raise ValueError(f"bad letter tag {kind!r}")
    return Letter(kind, int(index))


def element_to_json(x: AffineElement) -> dict:
    return {"lambda": list(x.translation), "wbar": list(x.finite.word)}


def element_from_json(rs: RootSystem, data: dict) -> AffineElement:
    return AffineElement(tuple(int(c) for c in data["lambda"]), from_word(rs, data["wbar"]))
