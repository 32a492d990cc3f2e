"""Eventually periodic infinite reduced words and the group action on them.

A word is a head followed by a cyclically repeated period of letters.  Its
validity (every prefix reduced) is certified exactly: writing the period
product as translation-times-finite with finite part of order d, the d-th
power is a pure translation, so each inversion past the head advances
along an arithmetic progression in the level.  The word is infinite
reduced iff all inversions up to head + d periods are positive and every
progression has positive slope.  Words failing this are rejected at
construction time.

The inversion set of a word is the union of its prefix inversion sets; it
is an infinite real biconvex set, and ``classify_word`` computes the
parameter triple (K, u, y) naming it, which is the canonical form of the
word's equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartan import RootSystem, SubSystem, cartan_adjugate, check_subset, sub_system
from .affine import (
    AffineElement,
    AffineRoot,
    Letter,
    affine_identity,
    affine_inversion_set,
    affine_reduced_word,
    in_weyl_subgroup,
    letter_element,
    letter_from_json,
    letter_root,
    letter_to_json,
    lift,
    translation,
)
from .biconvex import BiconvexParam, NotBiconvexError, WindowSet, parametrize


@dataclass(frozen=True)
class _Progression:
    base_level: int
    classical: tuple[int, ...]
    slope: int

    def level_at(self, m: int) -> int:
        return self.base_level + m * self.slope


@dataclass(frozen=True)
class _Structure:
    """Closed-form data for one word: prefixes, progressions, slopes."""

    prefixes: tuple[AffineElement, ...]  # z(0) .. z(H + d*n)
    phis: tuple[AffineRoot, ...]  # inversions 1 .. H + d*n
    pi: AffineElement  # period product
    order: int  # order d of the finite part of pi
    nu: tuple[int, ...]  # pi**d is the translation by nu
    progressions: tuple[tuple[_Progression, ...], ...]  # [r-1][k0]
    heads: tuple[AffineRoot, ...]  # inversions 1 .. H


@dataclass(frozen=True)
class InfiniteWord:
    """An eventually periodic infinite reduced word over a subsystem."""

    sub: SubSystem
    head: tuple[Letter, ...]
    period: tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be non-empty")
        self._structure  # certify at construction time

    def letter_at(self, p: int) -> Letter:
        if p < 1:
            raise ValueError("positions are 1-based")
        H = len(self.head)
        if p <= H:
            return self.head[p - 1]
        return self.period[(p - H - 1) % len(self.period)]

    @cached_property
    def _structure(self) -> _Structure:
        sub, head, period = self.sub, self.head, self.period
        H, n = len(head), len(period)
        head_elems = [letter_element(sub, let) for let in head]
        period_elems = [letter_element(sub, let) for let in period]

        pi = affine_identity(sub.rs)
        for e in period_elems:
            pi = pi * e

        order = 1
        acc = pi.finite
        while not acc.is_identity:
            acc = acc * pi.finite
            order += 1
        power = pi
        for _ in range(order - 1):
            power = power * pi
        if not power.finite.is_identity:
            raise RuntimeError("period power failed to become a translation")
        nu = power.translation

        prefixes = [affine_identity(sub.rs)]
        phis: list[AffineRoot] = []
        for p in range(1, H + order * n + 1):
            letter = self.letter_at(p)
            z = prefixes[-1]
            phi = z.act(letter_root(sub, letter))
            if not phi.is_positive:
                raise ValueError(
                    f"not an infinite reduced word: inversion {p} is negative"
                )
            phis.append(phi)
            elem = head_elems[p - 1] if p <= H else period_elems[(p - H - 1) % n]
            prefixes.append(z * elem)

        rho = affine_identity(sub.rs)
        slopes = []
        for r in range(1, n + 1):
            c_r = rho.act(letter_root(sub, period[r - 1]))
            slope = -sub.rs.coroot_pairing(c_r.classical, nu)
            if slope < 1:
                raise ValueError(
                    "not an infinite reduced word: a periodic inversion"
                    " fails to climb in level"
                )
            slopes.append(slope)
            rho = rho * period_elems[r - 1]

        progressions = tuple(
            tuple(
                _Progression(
                    base_level=phis[H + k0 * n + r - 1].level,
                    classical=phis[H + k0 * n + r - 1].classical,
                    slope=slopes[r - 1],
                )
                for k0 in range(order)
            )
            for r in range(1, n + 1)
        )
        if len(set(phis)) != len(phis):
            raise RuntimeError("certified word produced a repeated inversion")
        return _Structure(
            prefixes=tuple(prefixes),
            phis=tuple(phis),
            pi=pi,
            order=order,
            nu=nu,
            progressions=progressions,
            heads=tuple(phis[:H]),
        )


def prefix_element(word: InfiniteWord, p: int) -> AffineElement:
    """The product of the first p letters (p = 0 gives the identity)."""
    if p < 0:
        raise ValueError("prefix length must be non-negative")
    st = word._structure
    if p < len(st.prefixes):
        return st.prefixes[p]
    H, n = len(word.head), len(word.period)
    offset = p - H
    k, r0 = divmod(offset, n)
    m, k0 = divmod(k, st.order)
    z = st.prefixes[H] * translation(word.sub.rs, tuple(m * x for x in st.nu))
    for _ in range(k0):
        z = z * st.pi
    for t in range(r0):
        z = z * letter_element(word.sub, word.period[t])
    return z


def inversion_at(word: InfiniteWord, p: int) -> AffineRoot:
    """The new positive root inverted by the p-th prefix."""
    if p < 1:
        raise ValueError("positions are 1-based")
    st = word._structure
    if p <= len(st.phis):
        return st.phis[p - 1]
    H, n = len(word.head), len(word.period)
    offset = p - H
    r = (offset - 1) % n + 1
    k = (offset - r) // n
    m, k0 = divmod(k, st.order)
    prog = st.progressions[r - 1][k0]
    return AffineRoot(prog.level_at(m), prog.classical)


def limit_inversions(word: InfiniteWord, cutoff: int) -> frozenset[AffineRoot]:
    """All inversions of the word with level at most the cutoff."""
    st = word._structure
    out = {phi for phi in st.heads if phi.level <= cutoff}
    for row in st.progressions:
        for prog in row:
            level = prog.base_level
            while level <= cutoff:
                out.add(AffineRoot(level, prog.classical))
                level += prog.slope
    return frozenset(out)


def translation_word(sub: SubSystem, K) -> InfiniteWord:
    """The purely periodic word repeating a reduced word of a translation
    that is orthogonal to K and pairs positively with the rest of J.

    The translation is the smallest qualifying one (by maximum coefficient,
    then lexicographically) with coroot coordinates c supported on J.  Per
    component of J, with Cartan submatrix A of determinant d, its pairings
    p with the simple roots give c = adj(A)^T p / d, and adj(A) > 0.  A
    p_j > d lowered by d keeps c integral and lowers all of it, so the
    optimum has p = 0 on K and p_j in [1, d] elsewhere.  That box is
    searched in integers, its last coordinate solved from the integrality
    congruence: d^(m-1) candidates for a component with m indices outside K.
    """
    period = affine_reduced_word(translation(sub.rs, _translation_lambda(sub, K)), sub)
    return InfiniteWord(sub=sub, head=(), period=period)


def _translation_lambda(sub: SubSystem, K) -> tuple[int, ...]:
    """The translation vector of ``translation_word(sub, K)``."""
    K = check_subset(sub, K)
    if set(K) == set(sub.J):
        raise ValueError("K must be a proper subset of J")
    # Components inside K keep c = 0.  The least overall maximum is the largest
    # per-component one; under it, lexicographic order splits by component.
    comps = [comp for comp in sub.components if set(comp) - set(K)]
    boxes = [_box_candidates(sub.rs, comp, K) for comp in comps]
    top = max(min(max(c) for c in box) for box in boxes)
    lam = [0] * sub.rs.rank
    for comp, box in zip(comps, boxes):
        for j, c in zip(comp, min(c for c in box if max(c) <= top)):
            lam[j - 1] = c
    return tuple(lam)


def _box_candidates(rs: RootSystem, comp, K) -> list[tuple[int, ...]]:
    """Coordinates over a component meeting J minus K of each box candidate."""
    *rest, last = [x for x, j in enumerate(comp) if j not in K]
    d, adj = cartan_adjugate(rs, comp)
    # d*c sums p_j * adj[j]; the last p_j is the least t in [1, d] making it 0 mod d.
    solve = {tuple(-t * a % d for a in adj[last]): t for t in range(d, 0, -1)}
    nums = [(0,) * len(comp)]
    for x in rest:
        nums = [tuple(v + p * a for v, a in zip(num, adj[x]))
                for num in nums for p in range(1, d + 1)]
    box = []
    for num in nums:
        t = solve.get(tuple(v % d for v in num))
        if t is not None:
            box.append(tuple((v + t * a) // d for v, a in zip(num, adj[last])))
    return box


def act_on_word(x: AffineElement, word: InfiniteWord) -> InfiniteWord:
    """The left action: a representative of x applied to the word's class.

    Steps: find the smallest aligned cut p0 so that every inversion of the
    inverse of x that the word eventually inverts is already inverted by
    the p0-prefix; then the new word is a reduced word of x times that
    prefix, followed by the remaining letters.
    """
    sub = word.sub
    if not in_weyl_subgroup(x, sub):
        raise ValueError("element is not in the subgroup for J")
    finite_inversions = affine_inversion_set(x.inverse, sub)
    max_level = max((b.level for b in finite_inversions), default=0)
    target = finite_inversions & limit_inversions(word, max_level)
    seen: set[AffineRoot] = set()
    p0 = 0
    while not target <= seen:
        p0 += 1
        seen.add(inversion_at(word, p0))

    front = x * prefix_element(word, p0)
    new_head = () if front.is_identity else affine_reduced_word(front, sub)
    H, n = len(word.head), len(word.period)
    if p0 <= H:
        head = tuple(new_head) + word.head[p0:]
        period = word.period
    else:
        shift = (p0 - H) % n
        head = tuple(new_head)
        period = word.period[shift:] + word.period[:shift]
    return InfiniteWord(sub=sub, head=head, period=period)


@dataclass(frozen=True)
class WordClass:
    """The equivalence class of a word, named by its canonical parameters."""

    param: BiconvexParam

    @property
    def K(self) -> tuple[int, ...]:
        return self.param.K


def classify_word(word: InfiniteWord) -> WordClass:
    """Canonical parameters (K, u, y) of the word's inversion set.

    ``parametrize`` runs on the word's window: its inversions up to a depth
    past every head inversion and every progression's first level, with the
    progressions' classical parts as the tail.  A certified word that fails
    to parametrize is an internal fault, raised as RuntimeError.
    """
    st = word._structure
    depth = max(
        [b.level for b in st.heads]
        + [p.base_level for row in st.progressions for p in row]
        + [0]
    ) + 1
    window = WindowSet(
        sub=word.sub,
        cutoff=depth,
        elements=limit_inversions(word, depth),
        tail=frozenset(p.classical for row in st.progressions for p in row),
    )
    try:
        return WordClass(parametrize(window))
    except NotBiconvexError as exc:
        raise RuntimeError(f"word classification failed: {exc}") from exc


def words_equivalent(a: InfiniteWord, b: InfiniteWord) -> bool:
    """Whether two words have the same inversion set (the same class)."""
    if a.sub is not b.sub:
        raise ValueError("words live over different subsystems")
    return classify_word(a) == classify_word(b)


def orbit_invariant(word: InfiniteWord) -> tuple[int, ...]:
    """The subset K of the canonical parameters; constant on orbits."""
    return classify_word(word).K


def word_of_param(param: BiconvexParam) -> InfiniteWord:
    """The standard word of a parameter triple: u*y acting on the base
    translation word for K.  Requires K proper in J."""
    if not param.names_infinite_set:
        raise ValueError("finite parameters (K = J) name no infinite word")
    base = translation_word(param.sub, param.K)
    return act_on_word(lift(param.u) * param.y, base)


# ---------------------------------------------------------------------------
# JSON encodings

def word_to_json(word: InfiniteWord) -> dict:
    return {
        "J": list(word.sub.J),
        "head": [letter_to_json(let) for let in word.head],
        "period": [letter_to_json(let) for let in word.period],
    }


def word_from_json(rs: RootSystem, data: dict) -> InfiniteWord:
    return InfiniteWord(
        sub=sub_system(rs, data["J"]),
        head=tuple(letter_from_json(d) for d in data["head"]),
        period=tuple(letter_from_json(d) for d in data["period"]),
    )
