"""Independent second route for every value the benchmark checks.

Nothing here imports ``weylwords``.  The Cartan matrices and exponents are
written out by hand; roots come from a reflection closure of our own; the
affine Weyl group is modelled as linear maps on the affine root lattice
(images of the classical simple roots under an element); and the closed
forms are the textbook ones:

* |W| = prod(m_i + 1), with finite Poincare polynomial prod [m_i + 1]_t;
* Bott's formula for the affine Weyl group,
  W_aff(t) = W(t) / prod(1 - t^{m_i}), a product over the components of a
  reducible subsystem;
* the length of a translation, l(t_lambda) = sum over alpha > 0 of
  |<alpha, lambda>|.

Conventions match the library's public documentation: indices are 1-based,
``a[i][j] = <alpha_j, alpha_i-check>``, B_n has alpha_n short, C_n has
alpha_n long, G2 has alpha_1 short, F4 has alpha_3 and alpha_4 short, and
an affine root ``m*delta + eps`` is the pair ``(m, eps)``, with
``(m, None)`` for the imaginary root ``m*delta``.  An affine element given
as (lambda, wbar) is ``t_lambda * wbar`` with
``t_lambda(m*delta + eps) = (m - <eps, lambda>)*delta + eps``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# --------------------------------------------------------------------------
# Hand-written tables

CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "A5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -1),
        (0, 0, 0, -1, 2),
    ),
    # a[i][j] = <alpha_j, alpha_i-check>; the short simple root is last.
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "B4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    # The long simple root is last.
    "C2": ((2, -2), (-1, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "C4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    # Branch node n-2 joined to n-1 and n.
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "D5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    ),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
    # alpha_1 short.
    "G2": ((2, -3), (-1, 2)),
}

EXPONENTS = {
    "A1": (1,),
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "A4": (1, 2, 3, 4),
    "A5": (1, 2, 3, 4, 5),
    "B2": (1, 3),
    "B3": (1, 3, 5),
    "B4": (1, 3, 5, 7),
    "C2": (1, 3),
    "C3": (1, 3, 5),
    "C4": (1, 3, 5, 7),
    "D4": (1, 3, 3, 5),
    "D5": (1, 3, 4, 5, 7),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}


# --------------------------------------------------------------------------
# Root systems


class System:
    """Roots, form and component data for one hand-written type."""

    def __init__(self, label: str):
        self.label = label
        self.a = CARTAN[label]
        self.rank = len(self.a)
        self.index_set = tuple(range(1, self.rank + 1))
        self.d = _symmetrizer(self.a)
        self.roots = _closure(self.a, self.index_set)
        self.root_set = frozenset(self.roots)

    def simple(self, i: int) -> tuple[int, ...]:
        return tuple(int(j == i - 1) for j in range(self.rank))

    def form(self, x, y) -> Fraction:
        """(x|y) with (alpha_i|alpha_j) = d_i a_ij."""
        return sum(
            (Fraction(xi * yj) * self.d[i] * self.a[i][j]
             for i, xi in enumerate(x) if xi
             for j, yj in enumerate(y) if yj),
            Fraction(0),
        )

    def coroot_pair(self, x, eps) -> int:
        """<x, eps-check> = 2(x|eps)/(eps|eps), integral on the root lattice."""
        value = 2 * self.form(x, eps) / self.form(eps, eps)
        if value.denominator != 1:
            raise AssertionError("non-integral coroot pairing")
        return int(value)

    def lam_pair(self, x, lam) -> int:
        """<x, lambda> for lambda over the simple coroots."""
        return sum(
            lam[i] * x[j] * self.a[i][j]
            for i in range(self.rank) if lam[i]
            for j in range(self.rank) if x[j]
        )

    def roots_of(self, J) -> tuple[tuple[int, ...], ...]:
        J = frozenset(J)
        return tuple(
            r for r in self.roots
            if all(c == 0 for i, c in enumerate(r, start=1) if i not in J)
        )

    def positives_of(self, J):
        return tuple(r for r in self.roots_of(J) if _positive(r))

    def components(self, J) -> tuple[tuple[int, ...], ...]:
        """Connected pieces of the Dynkin diagram on J, sorted."""
        left = set(J)
        out = []
        while left:
            block = {min(left)}
            grow = [min(left)]
            while grow:
                i = grow.pop()
                for j in list(left - block):
                    if self.a[i - 1][j - 1]:
                        block.add(j)
                        grow.append(j)
            left -= block
            out.append(tuple(sorted(block)))
        return tuple(sorted(out))

    def highest_root(self, comp) -> tuple[int, ...]:
        return max(self.positives_of(comp), key=sum)

    def exponents(self, comp) -> tuple[int, ...]:
        """Exponents of an irreducible piece from its root heights: the
        partition dual to (number of positive roots of height k)_k."""
        heights = [sum(r) for r in self.positives_of(comp)]
        counts = [heights.count(k) for k in range(1, max(heights) + 1)]
        return tuple(sorted(sum(1 for c in counts if c >= t)
                            for t in range(1, counts[0] + 1)))


def _positive(r) -> bool:
    return any(c > 0 for c in r)


def _symmetrizer(a) -> tuple[Fraction, ...]:
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and a[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                todo.append(j)
    top = max(d)
    return tuple(x / top for x in d)


def _closure(a, index_set) -> tuple[tuple[int, ...], ...]:
    n = len(a)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    seen = set(simples)
    todo = list(simples)
    while todo:
        beta = todo.pop()
        for i in range(n):
            c = sum(beta[j] * a[i][j] for j in range(n))
            image = tuple(x - c * (j == i) for j, x in enumerate(beta))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


@lru_cache(maxsize=None)
def system(label: str) -> System:
    return System(label)


# --------------------------------------------------------------------------
# Series


def _poly_mul(p, q, top=None):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out if top is None else (out + [0] * (top + 1))[: top + 1]


def poincare(exponents) -> list[int]:
    """prod over i of (1 + t + ... + t^{m_i}), as a coefficient list."""
    poly = [1]
    for m in exponents:
        poly = _poly_mul(poly, [1] * (m + 1))
    return poly


def weyl_order(exponents) -> int:
    out = 1
    for m in exponents:
        out *= m + 1
    return out


def bott_series(exponents, top: int) -> list[int]:
    """Coefficients to t^top of W(t) / prod (1 - t^{m_i})."""
    series = (poincare(exponents) + [0] * (top + 1))[: top + 1]
    for m in exponents:
        # Multiply by 1/(1 - t^m) = 1 + t^m + t^{2m} + ...
        for k in range(m, top + 1):
            series[k] += series[k - m]
    return series


def affine_ball(label: str, J, radius: int) -> int:
    """Elements of length <= radius in the affine Weyl group of J (1 for J
    empty), from Bott's series of each component."""
    rs = system(label)
    series = [1] + [0] * radius
    for comp in rs.components(J):
        series = _poly_mul(series, bott_series(rs.exponents(comp), radius), radius)
    return sum(series)


def finite_order(label: str, J) -> int:
    rs = system(label)
    out = 1
    for comp in rs.components(J):
        out *= weyl_order(rs.exponents(comp))
    return out


def translation_length(label: str, J, pairings: dict[int, int]) -> int:
    """l(t_lambda) over J = sum over positive roots of J of |<alpha, lambda>|,
    given <alpha_j, lambda> for each j in J."""
    rs = system(label)
    return sum(
        abs(sum(c * pairings[j] for j, c in enumerate(r, start=1) if c))
        for r in rs.positives_of(J)
    )


# --------------------------------------------------------------------------
# Affine Weyl group as maps on the affine root lattice


class Affine:
    """An element as the images (level, classical) of alpha_1..alpha_l.

    The image of m*delta + sum c_j alpha_j is
    (m + sum c_j level_j) * delta + sum c_j classical_j; delta is fixed.
    """

    __slots__ = ("rs", "images")

    def __init__(self, rs: System, images):
        self.rs = rs
        self.images = tuple(images)

    @classmethod
    def identity(cls, rs: System) -> "Affine":
        return cls(rs, ((0, rs.simple(i)) for i in rs.index_set))

    def __eq__(self, other) -> bool:
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def act(self, root):
        m, eps = root
        if eps is None:
            return root
        level = m
        vec = [0] * self.rs.rank
        for c, (lv, cl) in zip(eps, self.images):
            if c:
                level += c * lv
                for k, x in enumerate(cl):
                    vec[k] += c * x
        return level, tuple(vec)

    def __mul__(self, other: "Affine") -> "Affine":
        return Affine(self.rs, (self.act(img) for img in other.images))

    @property
    def finite_is_identity(self) -> bool:
        return all(cl == self.rs.simple(i)
                   for i, (_, cl) in zip(self.rs.index_set, self.images))

    def level_shifts(self) -> tuple[int, ...]:
        return tuple(lv for lv, _ in self.images)


def reflection(rs: System, root) -> Affine:
    """s_beta(v) = v - <v, eps-check> beta for the real root beta = (m, eps)."""
    m, eps = root
    images = []
    for i in rs.index_set:
        alpha = rs.simple(i)
        c = rs.coroot_pair(alpha, eps)
        images.append((-c * m, tuple(x - c * e for x, e in zip(alpha, eps))))
    return Affine(rs, images)


def translation(rs: System, lam) -> Affine:
    return Affine(rs, ((-rs.lam_pair(rs.simple(i), lam), rs.simple(i))
                       for i in rs.index_set))


def letter_root(rs: System, J, letter):
    """The simple affine root of a letter ('c', j) or ('a', component)."""
    kind, index = letter
    if kind == "c":
        return 0, rs.simple(index)
    theta = rs.highest_root(rs.components(J)[index - 1])
    return 1, tuple(-x for x in theta)


def alphabet(rs: System, J):
    return tuple([("c", j) for j in sorted(J)]
                 + [("a", c) for c in range(1, len(rs.components(J)) + 1)])


def from_letters(rs: System, J, letters) -> Affine:
    x = Affine.identity(rs)
    for letter in letters:
        x = x * reflection(rs, letter_root(rs, J, letter))
    return x


def from_finite_word(rs: System, word) -> Affine:
    x = Affine.identity(rs)
    for i in word:
        x = x * reflection(rs, (0, rs.simple(i)))
    return x


def from_pair(rs: System, lam, wbar) -> Affine:
    """t_lambda * wbar."""
    return translation(rs, lam) * from_finite_word(rs, wbar)


def inverse(rs: System, J, letters) -> Affine:
    return from_letters(rs, J, list(reversed(letters)))


def inversion_set(x: Affine, x_inv: Affine, J) -> frozenset:
    """{beta > 0 over J : x^{-1} beta < 0}; finite for x in the group of J."""
    rs = x.rs
    out = set()
    for eps in rs.roots_of(J):
        shift, image = x_inv.act((0, eps))
        start = 0 if _positive(eps) else 1
        for m in range(start, -shift):
            out.add((m, eps))
        if -shift >= start and not _positive(image):
            out.add((-shift, eps))
    return frozenset(out)


def word_inversions(rs: System, J, letters) -> frozenset:
    return inversion_set(from_letters(rs, J, letters), inverse(rs, J, letters), J)


def affine_bfs(label: str, J, radius: int):
    """{element: (length, inversion set)} out to the radius, growing each
    inversion set by N(x s) = N(x) + {x(alpha_s)} along length-increasing
    edges."""
    rs = system(label)
    gens = [(reflection(rs, letter_root(rs, J, s)), letter_root(rs, J, s))
            for s in alphabet(rs, J)]
    start = Affine.identity(rs)
    found = {start: (0, frozenset())}
    frontier = [start]
    for depth in range(1, radius + 1):
        new = []
        for x in frontier:
            inv = found[x][1]
            for g, alpha in gens:
                y = x * g
                if y not in found:
                    found[y] = (depth, inv | {x.act(alpha)})
                    new.append(y)
        frontier = new
    return found


# --------------------------------------------------------------------------
# Finite Weyl group words


def finite_images(rs: System, word):
    """Images of the simple roots under s_{w1} ... s_{wk}."""
    return tuple(cl for _, cl in from_finite_word(rs, word).images)


def apply_finite(rs: System, images, v):
    out = [0] * rs.rank
    for c, img in zip(v, images):
        if c:
            for k, x in enumerate(img):
                out[k] += c * x
    return tuple(out)


def finite_inversions(rs: System, word, J=None) -> frozenset:
    """Positive roots (of J) sent negative by the inverse of the word."""
    inv_images = finite_images(rs, list(reversed(word)))
    pool = rs.positives_of(rs.index_set if J is None else J)
    return frozenset(b for b in pool if not _positive(apply_finite(rs, inv_images, b)))


def minimal_coset_word(rs: System, word, K) -> list[int]:
    """Append letters of K to the word until no alpha_k (k in K) is sent
    negative: the result names the shortest element of w W_K."""
    word = list(word)
    while True:
        images = finite_images(rs, word)
        bad = [k for k in K if not _positive(images[k - 1])]
        if not bad:
            return word
        word.append(bad[0])


def reduced_finite_word(rs: System, word) -> list[int]:
    """A reduced word for the element, by peeling right descents."""
    out = []
    word = list(word)
    while True:
        images = finite_images(rs, word)
        desc = [i for i in rs.index_set if not _positive(images[i - 1])]
        if not desc:
            return list(reversed(out))
        out.append(desc[0])
        word.append(desc[0])


# --------------------------------------------------------------------------
# Windows and biconvex structure


def window(label: str, J, cutoff: int) -> tuple:
    """Positive affine roots of J with level <= cutoff, imaginary included."""
    rs = system(label)
    out = []
    for eps in rs.roots_of(J):
        out.extend((m, eps) for m in range(0 if _positive(eps) else 1, cutoff + 1))
    out.extend((m, None) for m in range(1, cutoff + 1))
    return tuple(out)


def _root_sum(a, b, rank):
    m = a[0] + b[0]
    ca = a[1] or (0,) * rank
    cb = b[1] or (0,) * rank
    c = tuple(x + y for x, y in zip(ca, cb))
    return (m, None) if not any(c) else (m, c)


@lru_cache(maxsize=None)
def window_sums(label: str, J: tuple, cutoff: int):
    """All unordered (a, b, a+b) with a, b and their sum in the window."""
    rank = system(label).rank
    roots = window(label, J, cutoff)
    members = frozenset(roots)
    out = []
    for i, a in enumerate(roots):
        for b in roots[i:]:
            s = _root_sum(a, b, rank)
            if s in members:
                out.append((a, b, s))
    return tuple(out)


def closed_both_ways(label: str, J, cutoff: int, S) -> bool:
    """Pairwise test: S and its complement in the window are both closed."""
    S = frozenset(S)
    for a, b, s in window_sums(label, tuple(sorted(J)), cutoff):
        ina, inb, ins = a in S, b in S, s in S
        if ina and inb and not ins:
            return False
        if not ina and not inb and ins:
            return False
    return True


@lru_cache(maxsize=None)
def window_biconvex_sets(label: str, cutoff: int, max_size: int) -> frozenset:
    """Every subset of the full window of size <= max_size passing the test."""
    J = system(label).index_set
    roots = window(label, J, cutoff)
    return frozenset(
        frozenset(S)
        for k in range(max_size + 1)
        for S in combinations(roots, k)
        if closed_both_ways(label, J, cutoff, S)
    )


def tail(label: str, J, K, u_word) -> frozenset:
    """u applied to the negative roots of J whose support meets J minus K."""
    rs = system(label)
    images = finite_images(rs, u_word)
    outside = set(J) - set(K)
    return frozenset(
        apply_finite(rs, images, r) for r in rs.roots_of(J)
        if not _positive(r) and any(r[j - 1] for j in outside)
    )


def finite_part(label: str, K, u_word, lam, wbar) -> frozenset:
    """u applied (classically) to the inversion set of y = t_lambda wbar over K."""
    rs = system(label)
    y = from_pair(rs, lam, wbar)
    neg = tuple(-c for c in lam)
    y_inv = from_finite_word(rs, list(reversed(wbar))) * translation(rs, neg)
    images = finite_images(rs, u_word)
    return frozenset((m, apply_finite(rs, images, eps))
                     for m, eps in inversion_set(y, y_inv, K))


# --------------------------------------------------------------------------
# Translation words


def period_translation(label: str, J, period):
    """For a period (list of letters): whether the finite part of its
    product is the identity, and <alpha_j, lambda> for j in J."""
    x = from_letters(system(label), J, period)
    # t_lambda sends alpha_j to alpha_j - <alpha_j, lambda> delta.
    return x.finite_is_identity, {j: -x.images[j - 1][0] for j in J}


def check_translation_period(label: str, J, K, period) -> list[str]:
    """Failures of the base-word properties for the period of a translation
    word: orthogonal to K, positive on J minus K, a pure translation, and
    as long as the translation."""
    errors = []
    pure, pair = period_translation(label, J, period)
    if not pure:
        errors.append("period product has a non-trivial finite part")
        return errors
    if any(pair[k] != 0 for k in K):
        errors.append(f"<alpha_k, lambda> != 0 on K: {pair}")
    if any(pair[j] <= 0 for j in J if j not in K):
        errors.append(f"<alpha_j, lambda> <= 0 on J minus K: {pair}")
    expected = translation_length(label, J, pair)
    if len(period) != expected:
        errors.append(f"period length {len(period)} != l(t_lambda) = {expected}")
    return errors


def coroot_coords(label: str, pair: dict[int, int]) -> tuple[int, ...]:
    """Solve <alpha_j, lambda> = pair[j] for lambda over the simple coroots
    (pairings off the keys are 0)."""
    rs = system(label)
    n = rs.rank
    # <alpha_j, lambda> = sum_i lambda_i a[i][j]: the transpose system.
    m = [[Fraction(rs.a[i][j]) for i in range(n)] + [Fraction(pair.get(j + 1, 0))]
         for j in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    lam = [m[i][n] / m[i][i] for i in range(n)]
    if any(x.denominator != 1 for x in lam):
        raise AssertionError("translation left the coroot lattice")
    return tuple(int(x) for x in lam)


# --------------------------------------------------------------------------
# Predicted check counts of the library's verification suites


def _subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def _param_count(label: str, max_y: int, proper_only: bool, only_full=False) -> int:
    """sum over J, K of [W_J : W_K] * |ball_K(max_y)| (ball of K empty = 1)."""
    rs = system(label)
    Js = [rs.index_set] if only_full else [J for J in _subsets(rs.index_set) if J]
    total = 0
    for J in Js:
        for K in _subsets(J):
            if proper_only and len(K) == len(J):
                continue
            ball = affine_ball(label, K, max_y) if K else 1
            total += finite_order(label, J) // finite_order(label, K) * ball
    return total


def _low_level_elements(label: str, max_length: int, brute_level: int) -> int:
    """Elements of length <= max_length whose inversions all have level
    <= brute_level (each is counted from both sides of the bijection)."""
    found = affine_bfs(label, system(label).index_set, max_length)
    return sum(1 for _, inv in found.values()
               if all(m <= brute_level for m, _ in inv))


def predicted_checks(suite: str, **kw) -> int:
    """The number of checks a passing suite reports at the given bounds."""
    labels = kw["labels"]
    if suite == "finite-bijection":
        L, size, level = kw["max_length"], kw["brute_size"], kw["brute_level"]
        return sum(
            affine_ball(lb, system(lb).index_set, L)
            + 2 * _low_level_elements(lb, min(L, size), level)
            for lb in labels
        )
    if suite == "subsets":
        return sum(
            2 ** len(system(lb).roots_of(J))
            for lb in labels for J in _subsets(system(lb).index_set)
        )
    if suite == "roundtrip":
        return sum(_param_count(lb, kw["max_y"], False) for lb in labels)
    if suite == "diagram":
        return sum(_param_count(lb, kw["max_y"], True) for lb in labels)
    if suite == "words":
        return sum(
            2 ** len(J) - 1 for lb in labels
            for J in _subsets(system(lb).index_set) if J
        )
    if suite == "action":
        return max(1, kw["samples"] // len(labels)) * len(labels)
    if suite == "orbit":
        total = 1  # the closing A1 two-class check
        for lb in labels:
            proper = 2 ** system(lb).rank - 1
            total += proper * kw["samples"] + proper * (proper - 1) // 2
        return total
    if suite == "length":
        return sum(
            affine_ball(lb, system(lb).index_set, kw["max_length"]) for lb in labels
        )
    if suite == "four-cases":
        return sum(
            affine_ball(lb, system(lb).index_set, kw["max_y"])
            + _param_count(lb, 2, True, only_full=True) + 1
            for lb in labels
        )
    raise ValueError(f"no prediction for suite {suite!r}")
