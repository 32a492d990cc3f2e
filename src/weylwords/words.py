"""Eventually periodic infinite reduced words and the group action on them.

A word is a head followed by a cyclically repeated period of letters.  Its
validity (every prefix reduced) is certified exactly: writing the period
product as translation-times-finite with finite part of order d, the d-th
power is a pure translation, so each inversion past the head advances
along an arithmetic progression in the level.  The word is infinite
reduced iff all inversions up to head + d periods are positive; every
progression then has positive slope.  Words failing this are rejected at
construction time.

The inversion set of a word is the union of its prefix inversion sets; it
is an infinite real biconvex set, and ``classify_word`` computes the
parameter triple (K, u, y) naming it, which is the canonical form of the
word's equivalence class.  ``word_window`` reads the set into a window off
the certificate, one bit per head inversion and one geometric series per
progression, and ``limit_inversions`` lists that window: it is the one
route from a certificate to a set.  Classes and the action compare string
lengths and list nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .cartan import (RootSystem, SubSystem, _json_field, _json_ints, add, cartan_adjugate,
                     check_subset, sub_system)
from .affine import (
    AffineElement,
    AffineRoot,
    Letter,
    _counted_sum,
    _inverted_levels,
    _walk,
    _walk_of_sum,
    affine_reduced_word,
    from_letters,
    letter_from_json,
    letter_to_json,
    lift,
    translation,
)
from .biconvex import (BiconvexParam, NotBiconvexError, WindowSet, _class_sum_pairs,
                       _field_width, _parameters)


@dataclass(frozen=True)
class _Structure:
    """The certificate of a word with head length H and period length n.

    ``phis`` are the inversions 1 .. H + d*n, where d is the order of the
    finite part of the period product.  The d-th power of that product is
    a translation, so past the head each inversion recurs every d*n
    positions, raised by a fixed number of levels: inversion H + m*d*n + i
    (m >= 0, 1 <= i <= d*n) is ``phis[H + i - 1]`` raised by m*slope_r
    levels, r being i's place in the period.  slope_r is the level that
    translation adds to phi_{H+r}; every slope is positive.

    The action transports a certificate: if x cuts the word at p0 and the
    new head is h, inversion |h| + q of the result is x(phi_{p0+q}).  x fixes
    delta, so slopes are kept, rotated with the cut by (p0 - H) mod n when
    p0 > H; the period product is conjugated, so d is unchanged.
    """

    phis: tuple[AffineRoot, ...]  # inversions 1 .. H + d*n
    slopes: tuple[int, ...]  # slope_r for r = 1 .. n


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

    @classmethod
    def _certified(cls, sub, head, period, structure: _Structure) -> "InfiniteWord":
        """A word whose certificate the caller has just established: no climb."""
        word = object.__new__(cls)
        word.__dict__.update(sub=sub, head=head, period=period, _structure=structure)
        return word

    def letter_at(self, p: int) -> Letter:
        if p < 1:
            raise ValueError("positions are 1-based")
        H = len(self.head)
        if p <= H:
            return self.head[p - 1]
        return self.period[(p - H - 1) % len(self.period)]

    @cached_property
    def _structure(self) -> _Structure:
        """Climb the head and d periods: positive pivots certify the word.
        pi^d = t_nu for pi the period's product.  N(t_k nu), the levels m with
        m + k(eps|nu) < 0 (or 0, eps negative), and N(z_H^-1), z_H the head's
        product, are initial segments of their strings eps + Z delta; N(t_k nu)
        is k times N(t_nu) on the same strings.  So if head + d periods is
        reduced, N(t_k nu) misses N(z_H^-1), lengths add, head + dk periods is
        reduced, and its inversions are distinct and positive: slopes climb."""
        H, n = len(self.head), len(self.period)
        phis, base = _walk(self.sub, self.head)
        # z(H + k*n) = z_H pi**k has finite part w_H again first at k = d.
        end = base
        while len(phis) == H or end.finite != base.finite:
            pivots, end = _walk(self.sub, self.period, end)
            phis += pivots
        for p, phi in enumerate(phis, 1):
            if not phi.is_positive:
                raise ValueError(f"not an infinite reduced word: inversion {p} is negative")
        shift = end * base.inverse if H else end  # the translation z_H pi**d z_H^-1
        # shift adds <phi, shift.levels> levels to phi, as AffineElement.act does.
        slopes = tuple(sum(map(mul, phi.classical, shift.levels)) for phi in phis[H:H + n])
        if min(slopes) < 1 or len(set(phis)) != len(phis):
            raise RuntimeError("certified word has a slope below 1 or a repeated inversion")
        return _Structure(phis=tuple(phis), slopes=slopes)


def prefix_element(word: InfiniteWord, p: int) -> AffineElement:
    """The product of the first p letters (p = 0 gives the identity)."""
    if p < 0:
        raise ValueError("prefix length must be non-negative")
    return from_letters(word.sub, map(word.letter_at, range(1, p + 1)))


def inversion_at(word: InfiniteWord, p: int) -> AffineRoot:
    """The new positive root inverted by the p-th prefix."""
    if p < 1:
        raise ValueError("positions are 1-based")
    st = word._structure
    if p <= len(st.phis):
        return st.phis[p - 1]
    H = len(word.head)
    m, i = divmod(p - H - 1, len(st.phis) - H)
    phi = st.phis[H + i]
    return AffineRoot(phi.level + m * st.slopes[i % len(word.period)], phi.classical)


def word_window(word: InfiniteWord, cutoff: int) -> WindowSet:
    """The word's inversion set as a window, filled off its certificate as
    ``realize`` fills its own: one bit per head inversion, one geometric
    series per progression (levels m, m + s, ... up to the cutoff), the
    progressions' classical parts as the tail promise, and the cutoff raised
    to the top head inversion off the tail."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    st, H, n = word._structure, len(word.head), len(word.period)
    tail = frozenset(phi.classical for phi in st.phis[H:])
    cutoff = max([cutoff, *(m for m, eps in st.phis[:H] if eps not in tail)])
    w, slot = _field_width(cutoff), _class_sum_pairs(word.sub).slot
    masks = [0] * len(slot)
    for i, (m, eps) in enumerate(st.phis):
        # Levels m, m + s, ... to the cutoff: one geometric series; a head inversion is one term.
        s = st.slopes[(i - H) % n]
        terms = 1 if i < H else (cutoff - m) // s + 1
        if m <= cutoff:
            masks[slot[eps]] |= ((1 << s * w * terms) - 1) // ((1 << s * w) - 1) << m * w
    # Valid by construction: inversions are positive roots of J, all at window levels.
    return WindowSet._filled(word.sub, cutoff, tuple(masks), tail)


def limit_inversions(word: InfiniteWord, cutoff: int) -> frozenset[AffineRoot]:
    """All inversions of the word with level at most the cutoff."""
    return word_window(word, cutoff).truncate(cutoff)


def translation_word(sub: SubSystem, K) -> InfiniteWord:
    """The purely periodic word repeating a reduced word of a translation
    that is orthogonal to K and pairs positively with the rest of J.

    The translation is the smallest qualifying one (by maximum coefficient,
    then lexicographically) with coroot coordinates c supported on J.  Per
    component of J, with Cartan submatrix A of determinant d, its pairings
    p with the simple roots give c = adj(A)^T p / d, and adj(A) > 0.  The
    optimum has p = 0 on K and p = 1 + e elsewhere with e >= 0 and
    |e|_1 <= d - 1: if |e|_1 >= d, two of the d + 1 unit-step prefixes of e
    share a class of Z^m / A Z^m, so their difference e' <= e is nonzero
    with A^-1 e' integral, and p - e' is valid with all of c lower.  That
    box is searched in integers, its last coordinate solved from the
    integrality congruence: C(d + m - 2, m - 1) candidates for a component
    with m indices outside K.
    """
    period, structure = _translation_period(sub, check_subset(sub, K))
    return InfiniteWord._certified(sub, (), period, structure)


@lru_cache(maxsize=None)
def _translation_period(sub: SubSystem, K: tuple[int, ...]):
    """The period of ``translation_word(sub, K)`` (K sorted) and its certificate,
    climbed once; its classical parts are the subsystem's own root tuples."""
    period = affine_reduced_word(translation(sub.rs, _translation_lambda(sub, K)), sub)
    st = InfiniteWord(sub=sub, head=(), period=period)._structure
    roots = {r: r for r in sub.roots}
    phis = tuple(AffineRoot(phi.level, roots[phi.classical]) for phi in st.phis)
    return period, _Structure(phis=phis, slopes=st.slopes)


def _translation_lambda(sub: SubSystem, K) -> tuple[int, ...]:
    """The translation vector of ``translation_word(sub, K)``."""
    K = check_subset(sub, K)
    if set(K) == set(sub.J):
        raise ValueError("K must be a proper subset of J")
    # Components inside K keep c = 0.  The least overall maximum is the largest
    # per-component one; under it, lexicographic order splits by component, so
    # only a component whose own least maximum is lower reads its box again.
    comps = [comp for comp in sub.components if set(comp) - set(K)]
    least = [min(_box_candidates(sub.rs, comp, K), key=lambda c: (max(c), c)) for comp in comps]
    top, coords = max(map(max, least)), {}
    for comp, c in zip(comps, least):
        box = _box_candidates(sub.rs, comp, K) if max(c) < top else [c]
        coords.update(zip(comp, min(c for c in box if max(c) <= top)))
    return tuple(coords.get(j, 0) for j in range(1, sub.rs.rank + 1))


def _box_candidates(rs: RootSystem, comp, K):
    """Coordinates over a component meeting J minus K of each box candidate,
    yielded as they are made: the search holds one pending branch per
    pairing value left to try, not the box."""
    *rest, last = [x for x, j in enumerate(comp) if j not in K]
    d, adj = cartan_adjugate(rs, comp)
    # d*c sums p_j * adj[j]; the last p_j is the least t in [1, d] making it 0 mod d.
    solve = {tuple(-t * a % d for a in adj[last]): t for t in range(d, 0, -1)}
    stack = [(rest, (0,) * len(comp), d - 1)]  # (indices left, d*c so far, what |e|_1 has left)
    while stack:
        xs, num, left = stack.pop()
        if xs:  # p = 1, 2, ... at xs[0]: each adds its row to d*c again and spends one of |e|_1
            for left in range(left, -1, -1):
                stack.append((xs[1:], num := add(num, adj[xs[0]]), left))
        elif (t := solve.get(tuple([v % d for v in num]))) is not None:
            yield tuple([(v + t * a) // d for v, a in zip(num, adj[last])])


def act_on_word(x: AffineElement, word: InfiniteWord) -> InfiniteWord:
    """The left action: a representative of x applied to the word's class.

    The cut p0 is the smallest whose prefix inverts every root of N(x^-1)
    that the word inverts.  Stepping x through the letters, step p has pivot
    x z_(p-1)(alpha_(s_p)) = x(phi_p), negative exactly when phi_p is in
    N(x^-1); a word's inversions are distinct, so p0 is the last negative
    pivot.  Both sets meet each string eps + Z delta in an initial segment, so
    they share sum min(n_x, n_word) roots (n_word = infinity on the tail).  The
    new word is a reduced word h of x z_p0, then the remaining letters, the
    period rotated to start at p0.  N(x z_p0) is the positive pivots up to p0
    and N(x) = -x(N(x^-1)) less the negated negative pivots, so its classical
    parts sum to w(phi_1 + ... + phi_p0 - sum n_x(eps) eps), w the finite part
    of x: all the descent walk for h reads.

    Only h is climbed, through the sum memo ``affine._walk_of_sum``: a sum
    seen recently is not walked again.  The new prefix of length |h| + q is
    x z_(p0+q), so the rest of the certificate is transported (see
    ``_Structure``).  A transported inversion that is not positive, or a
    repeated one, is a broken invariant, raised as RuntimeError.
    """
    sub = word.sub
    inverted = dict(_inverted_levels(x, sub, of_inverse=True))  # N(x^-1), string by string
    tail, head = _inversion_strings(word)
    negative = sum(len(ms) if e in tail else min(len(ms), head[e]) for e, ms in inverted.items())
    total = _counted_sum(sub.rs.rank, ((-len(ms), eps) for eps, ms in inverted.items()))
    p0 = 0
    while negative:
        p0 += 1
        phi = inversion_at(word, p0)
        total = add(total, phi.classical)
        negative -= phi.level in inverted.get(phi.classical, ())
    try:
        new_head, pivots, _ = _walk_of_sum(sub, x.finite.apply(total))
    except ValueError:
        raise RuntimeError("descent walk of the acted head did not reach 2 rho") from None
    st, H, n = word._structure, len(word.head), len(word.period)
    shift = max(p0 - H, 0) % n
    period = word.period[shift:] + word.period[:shift]
    slopes = st.slopes[shift:] + st.slopes[:shift]
    phis = list(pivots)  # the memo's tuple stays as it is
    last = p0 + len(word.head[p0:]) + len(st.phis) - H  # inversion H' + d*n
    phis.extend(x.act(inversion_at(word, p)) for p in range(p0 + 1, last + 1))
    if not all(phi.is_positive for phi in phis) or len(set(phis)) != len(phis):
        raise RuntimeError("transported certificate has a non-positive or repeated inversion")
    head = new_head + word.head[p0:]
    return InfiniteWord._certified(sub, head, period, _Structure(tuple(phis), slopes))


@dataclass(frozen=True)
class WordClass:
    """The equivalence class of a word, named by its canonical parameters."""

    param: BiconvexParam

    @property
    def K(self) -> tuple[int, ...]:
        return self.param.K


def _inversion_strings(word: InfiniteWord) -> tuple[frozenset, Counter]:
    """The word's inversion set as (tail, head lengths), read off its certificate.

    A real biconvex set meets each string eps + Z delta in an initial
    segment (its complement holds every m delta and is closed), so the tail
    is the progressions' classical parts, and the rest the head inversions.
    """
    phis, H = word._structure.phis, len(word.head)
    tail = frozenset(phi.classical for phi in phis[H:])
    return tail, Counter(phi.classical for phi in phis[:H] if phi.classical not in tail)


def classify_word(word: InfiniteWord) -> WordClass:
    """Canonical parameters (K, u, y) of the word's inversion set, read off
    ``_inversion_strings``; a failure is an internal fault, a RuntimeError."""
    try:
        return WordClass(_parameters(word.sub, *_inversion_strings(word)))
    except NotBiconvexError as exc:
        raise RuntimeError(f"word classification failed: {exc}") from exc


def words_equivalent(a: InfiniteWord, b: InfiniteWord) -> bool:
    """Whether two words have the same inversion set (the same class): the
    same tail and the same head lengths off it."""
    if a.sub is not b.sub:
        raise ValueError("words live over different subsystems")
    return _inversion_strings(a) == _inversion_strings(b)


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
        sub=sub_system(rs, _json_ints(data, "J")),
        head=tuple(letter_from_json(d) for d in _json_field(data, "head", list)),
        period=tuple(letter_from_json(d) for d in _json_field(data, "period", list)),
    )
