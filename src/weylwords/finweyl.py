"""Finite Weyl group machinery over a root system.

Elements are stored as the tuple of images of the simple roots, which is
the canonical form: equality, hashing, and all decisions use images, never
words.  Reduced words, and elements read off inversion sets, come from one
descent walk on the pairings of w(2 rho) = 2 rho - 2 sum N(w) with the
simple coroots.  Greedy algorithms always pick the smallest simple index
first, so every output is deterministic.

s_i on roots is read off the root system's ``reflections``, each simple
reflection's permutation of the root indices, which ``cartan`` keeps from
the walk that generated the roots (Casselman, "Machine calculations in
Weyl groups", *Invent. Math.* 116, 1994): no pairing is computed for it
here.  Whole groups and parabolic quotients are searched on tuples of
those indices, and their elements built once.

A pointed biclosed set P = u(Phi^-_J minus Phi_K) factors by one descent
walk on its sum: -sum P = u(2 rho_J - 2 rho_K), a dominant vector moved by
u, whose stabilizer in W_J is W_K (Humphreys, *Reflection Groups and
Coxeter Groups*, 1.10-1.12).  The walk from its pairings with J's simple
coroots spells u, the minimal representative of u W_K, and ends at 2 rho_J
- 2 rho_K, which is zero exactly on K's coroots.  Tails and factorizations
are kept in two bounded memos, of ``TAIL_MEMO_SIZE`` entries each: a miss
runs the walk, and a failure is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cartan import (
    Root,
    RootSystem,
    SubSystem,
    _descent_walk,
    _dominant_walk,
    add,
    check_subset,
    complement_roots,
    is_positive,
    negate,
    sub_system,
)


@dataclass(frozen=True)
class WeylElement:
    """An element of the finite Weyl group, as images of the simple roots."""

    rs: RootSystem
    images: tuple[Root, ...]

    def __repr__(self) -> str:
        word = ",".join(map(str, self.word))
        return f"WeylElement[{word or 'e'}]"

    @property
    def is_identity(self) -> bool:
        return self.images == self.rs.simple_roots

    def apply(self, v):
        """Image of a lattice vector (coordinates over the simple roots)."""
        result = [0] * self.rs.rank
        for c, img in zip(v, self.images):
            if c:
                for k, x in enumerate(img):
                    result[k] += c * x
        return tuple(result)

    def __mul__(self, other: WeylElement) -> WeylElement:
        if self.rs is not other.rs:
            raise ValueError("cannot multiply elements over different root systems")
        return WeylElement(self.rs, tuple(self.apply(img) for img in other.images))

    def _simple_times(self, i: int) -> WeylElement:
        """s_i * self, which applies s_i to each image."""
        return WeylElement(self.rs, _reflect(self.rs, self.images, i))

    @cached_property
    def inverse(self) -> WeylElement:
        """The reversed reduced word, walked in place.  It is reduced but
        generally not the inverse's greedy word, so it is not kept."""
        return from_word(self.rs, self.word[::-1])

    @cached_property
    def word(self) -> tuple[int, ...]:
        """Reduced word by greedy left descent, smallest index first: the
        descent walk from <self(2 rho), alpha_i-check>."""
        rs = self.rs
        v = self.apply(rs.two_rho)
        m = [rs.simple_coroot_pairing(v, i) for i in rs.index_set]
        steps = _descent_walk(m, rs.cartan)
        if steps is None:
            raise RuntimeError("descent walk of a Weyl element did not reach 2 rho")
        return tuple([s + 1 for s in steps])  # a list sizes the cached tuple exactly

    @cached_property
    def length(self) -> int:
        return len(self.word)


def _reflect(rs: RootSystem, roots, i: int) -> tuple:
    """s_i applied to each root, read off ``rs.reflections``: no pairing is
    computed.  The images are ``rs.roots``' own tuples."""
    every, index, p = rs.roots, rs.root_index, rs.reflections[i - 1]
    return tuple([every[p[index[r]]] for r in roots])


@lru_cache(maxsize=None)
def _generators(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The identity followed by s_1 .. s_rank, built once per root system."""
    e = WeylElement(rs, rs.simple_roots)
    return (e,) + tuple(e._simple_times(i) for i in rs.index_set)


def identity(rs: RootSystem) -> WeylElement:
    return _generators(rs)[0]


def _index(rs: RootSystem, i: int) -> int:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple reflection index {i} out of range 1..{rs.rank}")
    return i


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _generators(rs)[_index(rs, i)]


def _rewrite(images: list, touched, pivot) -> None:
    """The one product rule of both Weyl groups, in place: for pivot =
    x(alpha_s), x s sends alpha_k to x(alpha_k) - a pivot, for each
    (k - 1, a) in touched with a = <alpha_k, alpha_s-check> != 0.
    ``affine._walk`` adds one level per image."""
    for k, a in touched:
        images[k] = tuple([x - a * p for x, p in zip(images[k], pivot)])


def _times_word(w: WeylElement, word) -> WeylElement:
    """w times the simple reflections of the word, left to right, stepped in
    place by ``_rewrite``: a letter rewrites only the images its Cartan row
    touches."""
    rs, images = w.rs, list(w.images)
    rows = rs.cartan_support
    for i in word:
        _rewrite(images, rows[_index(rs, i) - 1], images[i - 1])
    images = tuple(images)
    # An unmoved w is kept, with its cached word and inverse (the identity's, say).
    return w if images == w.images else WeylElement(rs, images)


def from_word(rs: RootSystem, word) -> WeylElement:
    return _times_word(identity(rs), word)


def _with_word(rs: RootSystem, word: tuple[int, ...]) -> WeylElement:
    """from_word for a word that already is the element's greedy
    left-descent word, as ``WeylElement.word`` computes it: that word is
    kept, so reading it (or the inverse) walks no second descent."""
    w = from_word(rs, word)
    w.__dict__["word"] = word
    return w


def inversion_set(w: WeylElement, sub: SubSystem) -> frozenset[Root]:
    """N(w): the positive roots of the subsystem sent negative by w^-1."""
    if w.rs is not sub.rs:
        raise ValueError("element and subsystem live over different root systems")
    return frozenset(b for b in sub.positives if not is_positive(w.inverse.apply(b)))


def in_subgroup(w: WeylElement, sub: SubSystem) -> bool:
    """Whether w lies in the parabolic subgroup generated by J.

    Exactly when every w(alpha_i) - alpha_i lies in the span of alpha_J:
    such a w fixes a weight orthogonal to alpha_J and positive on every
    other simple root, and that weight's stabilizer is W_J.  An element
    over another root system lies in no subgroup of this one.
    """
    if w.rs is not sub.rs:
        return False
    outside = [k for k in range(w.rs.rank) if k + 1 not in sub.J]
    return all(
        img[k] == (k == i) for i, img in enumerate(w.images) for k in outside
    )


def _left_search(sub: SubSystem, K) -> tuple[WeylElement, ...]:
    """W^J_K: the w in W_J with each w(alpha_k), k in K, positive, ordered by
    (length, reduced word), no word computed.  Layer l + 1 grows from layer l
    by s_i on the left, i ascending outermost, keeping first finds in W^J_K.
    As ``word`` is greedy left descent and W^J_K is closed under left
    prefixes, v is first found as s_i (s_i v) for its least left descent i.

    The search runs on tuples of root indices: s_i w is one lookup per
    image in s_i's permutation ``rs.reflections[i - 1]``, and w(alpha_k) > 0
    is an index comparison.  The elements, with their lengths preset (every
    whole-group listing reads them), are built once at the end."""
    rs = sub.rs
    perms, half, K = rs.reflections, len(rs.roots) // 2, [k - 1 for k in K]
    e = identity(rs)
    start = tuple([rs.root_index[a] for a in e.images])
    seen = {start: 0}  # index images -> length, in discovery order: the output order
    layer, length = [start], 0
    while layer:
        new, length = [], length + 1
        for i in sub.J:
            p = perms[i - 1]
            for w in layer:
                v = tuple([p[t] for t in w])
                if v not in seen and all(v[k] >= half for k in K):
                    seen[v] = length
                    new.append(v)
        layer = new
    found, roots = [e], rs.roots
    for v, length in seen.items():
        if length:  # the identity is the shared one, listed first
            w = WeylElement(rs, tuple([roots[t] for t in v]))
            w.__dict__["length"] = length
            found.append(w)
    return tuple(found)


@lru_cache(maxsize=None)
def _weyl_elements_cached(sub: SubSystem) -> tuple[WeylElement, ...]:
    return _left_search(sub, ())


def weyl_elements(sub: SubSystem) -> tuple[WeylElement, ...]:
    """All of W_J: ``minimal_coset_reps`` with K empty, memoized per subsystem."""
    return _weyl_elements_cached(sub)


def minimal_coset_reps(sub: SubSystem, K) -> tuple[WeylElement, ...]:
    """W^J_K, the shortest representatives of the cosets w W_K, by (length,
    reduced word); searched without listing W_J, afresh on every call."""
    return _left_search(sub, check_subset(sub, K))


def coset_decompose(w: WeylElement, sub: SubSystem, K):
    """Split w = w_upper * w_lower with w_upper a minimal coset
    representative and w_lower generated by K; lengths add."""
    K = check_subset(sub, K)
    if not in_subgroup(w, sub):
        raise ValueError("element does not lie in the subgroup for J")
    v, lower = w, identity(w.rs)
    while k := next((k for k in K if not is_positive(v.images[k - 1])), 0):
        v, lower = _times_word(v, (k,)), lower._simple_times(k)
    if v.length + lower.length != w.length:
        raise RuntimeError("coset split lengths do not add")
    return v, lower


@dataclass(frozen=True)
class SubsetClassification:
    closed: bool
    coclosed_in_J: bool
    biclosed_in_J: bool
    parabolic_in_J: bool
    symmetric: bool
    pointed: bool
    pointed_part: frozenset[Root]
    symmetric_part: frozenset[Root]


def _is_closed(P: frozenset[Root], ambient: frozenset[Root]) -> bool:
    members = list(P)
    for a in members:
        for b in members:
            s = add(a, b)
            if s in ambient and s not in P:
                return False
    return True


def classify_subset(P, sub: SubSystem) -> SubsetClassification:
    """Definition-level predicates for a subset of the subsystem's roots."""
    P = frozenset(P)
    if not P <= sub.root_set:
        raise ValueError("subset contains vectors outside the subsystem")
    ambient = sub.root_set
    neg = frozenset(negate(r) for r in P)
    closed = _is_closed(P, ambient)
    coclosed = _is_closed(ambient - P, ambient)
    symmetric_part = P & neg
    pointed_part = P - symmetric_part
    return SubsetClassification(
        closed=closed,
        coclosed_in_J=coclosed,
        biclosed_in_J=closed and coclosed,
        parabolic_in_J=closed and (P | neg) == ambient,
        symmetric=P == neg,
        pointed=not symmetric_part,
        pointed_part=pointed_part,
        symmetric_part=symmetric_part,
    )


def push_negative(P, sub: SubSystem) -> WeylElement:
    """Some w in W_J with w(P) inside the negative roots of the subsystem.

    Requires P pointed and closed.  While Q = w(P) has positive roots, w
    becomes s_j w for the smallest j in J with <v, alpha_j-check> > 0, v the
    sum of Q's positive roots.  This s_j exists and is the smallest that
    lowers the total height h of those roots (Bourbaki, Lie VI 1.7, Prop. 22):
    s_j changes h by -<v, alpha_j-check> + [alpha_j in Q] + [-alpha_j in Q].
    For beta != alpha_j positive in Q, the alpha_j-string through beta is
    positive, and Q, closed, meets it in an upper segment if alpha_j is in Q
    (pairings summing to >= 0, so <v, alpha_j-check> >= 2), in a lower one
    if -alpha_j is in Q (so <v, alpha_j-check> <= 0).  So s_j lowers h iff
    the pairing is positive, and then no negative root of Q turns positive.
    Some j in J pairs positively: v is a sum of roots of J and (v|v) > 0.
    """
    P = frozenset(P)
    if not P <= sub.root_set:
        raise ValueError("subset contains vectors outside the subsystem")
    if any(negate(r) in P for r in P) or not _is_closed(P, sub.root_set):
        raise ValueError("push_negative requires a pointed closed set")
    rs = sub.rs
    w, Q = identity(rs), tuple(P)  # Q = w(P), less the roots already negative
    while Q := tuple(r for r in Q if is_positive(r)):
        v = tuple(map(sum, zip(*Q)))
        j = next((j for j in sub.J if rs.simple_coroot_pairing(v, j) > 0), None)
        if j is None:
            raise RuntimeError("no simple coroot pairs positively with the positive part")
        w, Q = w._simple_times(j), _reflect(rs, Q, j)
    return w


def element_from_inversions(F, sub: SubSystem) -> WeylElement:
    """The unique element of W_J whose inversion set is F: the descent walk
    over J from 2 rho - 2 sum F spells its reduced word, as w(2 rho) =
    2 rho - 2 sum N(w).  The walk takes only left descents, so its pivots
    w(alpha_j) before each step w s_j are N(w): F is read back iff it
    equals them, and raises ValueError otherwise."""
    F, rs, J = frozenset(F), sub.rs, sub.J
    total = tuple(map(sum, zip(*F)))
    steps = _descent_walk([2 - 2 * rs.simple_coroot_pairing(total, j) for j in J], sub.cartan)
    if steps is None:
        raise ValueError("set is not an inversion set")
    w, pivots = identity(rs), set()
    for s in steps:
        pivots.add(w.images[J[s] - 1])
        w = _times_word(w, (J[s],))
    if pivots != F:
        raise ValueError("set is not an inversion set")
    return w


# Bound of the two (K, u) memos below.  Callers sweep y innermost, so
# consecutive parameters share their tail; a few recent tails suffice.
TAIL_MEMO_SIZE = 16


def tail_roots(sub: SubSystem, K, u: WeylElement) -> frozenset[Root]:
    """u(Phi^-_J minus Phi_K), the tail of the triple (K, u, y).  Memoized
    for the last ``TAIL_MEMO_SIZE`` distinct (J, K, u)."""
    return _tail_roots_cached(sub, tuple(sorted(K)), u)


@lru_cache(maxsize=TAIL_MEMO_SIZE)
def _tail_roots_cached(sub: SubSystem, K, u: WeylElement) -> frozenset[Root]:
    return frozenset(u.apply(r) for r in complement_roots(sub, K, -1))


def factor_pointed_biclosed(P, sub: SubSystem):
    """Write a pointed biclosed set as u applied to the negative roots
    outside K, for a unique K inside J and minimal representative u.

    Returns (K, u), deciding by one descent walk on the sum of P.  For P =
    u(Phi^-_J minus Phi_K), -sum P = u(2 rho_J - 2 rho_K), and v = 2 rho_J -
    2 rho_K pairs to 0 with the coroots of K and to at least 2 with the
    other coroots of J: v is dominant for W_J, with stabilizer W_K.  So the
    walk from <-sum P, alpha_j-check> over J's Cartan rows spells u, the
    shortest element of u W_K, and ends at v, which is zero exactly on K.
    Whatever P is, the walk ends at a dominant vector, and K (its zeros)
    and u (minimal for K) are read off it; P is accepted iff |P| =
    |Phi^-_J minus Phi_K| and tail_roots(K, u) is P.  (=>) the walk reads
    P's own K and u back.  (<=) Every u(Phi^-_J minus Phi_K), u in W_J, is
    pointed biclosed.  The last ``TAIL_MEMO_SIZE`` distinct (P, J) are
    memoized; failures are not.
    """
    return _factor_cached(frozenset(P), sub)


@lru_cache(maxsize=TAIL_MEMO_SIZE)
def _factor_cached(P: frozenset[Root], sub: SubSystem):
    if not P <= sub.root_set:
        raise ValueError("subset contains vectors outside the subsystem")
    rs, J = sub.rs, sub.J
    total = [*map(sum, zip(*P))]
    steps, m = _dominant_walk([-rs.simple_coroot_pairing(total, j) for j in J], sub.cartan)
    K = tuple([j for j, c in zip(J, m) if not c])
    # |Phi^-_J minus Phi_K| = |Phi^+_J| - |Phi^+_K|, from two cached subsystems.
    if len(P) == len(sub.positives) - len(sub_system(rs, K).positives):
        # The walk took u's left descents, smallest first, as ``word`` does,
        # since v pairs positively with every positive coroot outside K.
        u = _with_word(rs, tuple([J[s] for s in steps]))
        if tail_roots(sub, K, u) == P:
            return K, u
    raise ValueError("set is not pointed and biclosed in the subsystem")
