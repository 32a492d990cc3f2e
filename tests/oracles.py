"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from first definitions (hand Gram
matrices, reflections and coroots from the Gram form, a rational inverse
and Sylvester's criterion, naive reflection closure, BFS word search) and
does not call into the library's own algorithms, so that library results
can be checked against a second route.
"""

import math
from fractions import Fraction
from itertools import product

# Hand-written Gram matrices, long roots normalized to squared length 2.
HAND_GRAM = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-1, 1]],
    "C2": [[1, -1], [-1, 2]],
    "G2": [[Fraction(2, 3), -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}


def gram_pairing(gram, a, b):
    """(a|b) for vectors over the simple roots, from a Gram matrix."""
    return sum(
        Fraction(ai) * Fraction(bj) * Fraction(gram[i][j])
        for i, ai in enumerate(a) if ai
        for j, bj in enumerate(b) if bj
    )


def gram_reflect(gram, root, v):
    """s_root(v) = v - 2(v|root)/(root|root) root, the textbook formula."""
    coeff = 2 * gram_pairing(gram, v, root) / gram_pairing(gram, root, root)
    return tuple(Fraction(x) - coeff * r for x, r in zip(v, root))


def gram_coroot(gram, root):
    """root-check = 2 root/(root|root) over the simple coroots alpha_j-check =
    2 alpha_j/(alpha_j|alpha_j): coordinate j is c_j (alpha_j|alpha_j)/(root|root)."""
    norm = gram_pairing(gram, root, root)
    return tuple(Fraction(c) * gram[j][j] / norm for j, c in enumerate(root))


def letter_element(sub, letter):
    """The reflection in the letter's simple root beta, from the textbook
    formula s_beta(alpha_k) = alpha_k - <alpha_k, beta-check> beta with the
    pairing from the Gram form (delta pairs to 0 with everything).  Only the
    letter's root and the element type come from the library."""
    from weylwords.affine import AffineElement, letter_root
    from weylwords.finweyl import WeylElement

    rs = sub.rs
    level, root = letter_root(sub, letter)
    levels, images = [], []
    for alpha in rs.simple_roots:
        c = 2 * gram_pairing(rs.gram, alpha, root) / gram_pairing(rs.gram, root, root)
        assert c.denominator == 1, (letter, alpha)
        levels.append(int(-c * level))
        images.append(tuple(int(a - c * r) for a, r in zip(alpha, root)))
    return AffineElement(tuple(levels), WeylElement(rs, tuple(images)))


def affine_reflect(gram, root, v):
    """s_root(v) = v - <v, root-check> root for affine roots given as (level,
    classical) pairs: the pairing reads the classical parts only, from the
    Gram form, as delta pairs to 0 with everything."""
    (m, b), (n, c) = root, v
    k = 2 * gram_pairing(gram, c, b) / gram_pairing(gram, b, b)
    assert k.denominator == 1, (root, v)
    return n - int(k) * m, tuple(x - int(k) * y for x, y in zip(c, b))


def reflection_word(gram, roots, simples):
    """For the product x = s_1 s_2 .. s_n of the reflections in the affine
    roots beta_1 .. beta_n: the pivots s_1 .. s_(p-1)(beta_p), and x applied
    to each simple root (0, alpha_k), each reflection applied in turn."""

    def image(prefix, v):
        for root in reversed(prefix):
            v = affine_reflect(gram, root, v)
        return v

    pivots = [image(roots[:p], root) for p, root in enumerate(roots)]
    return pivots, [image(roots, (0, alpha)) for alpha in simples]


def hand_pairing(label, a, b):
    return gram_pairing(HAND_GRAM[label], a, b)


def hand_reflect(label, root, v):
    """s_root(v) from the textbook formula, using the hand Gram matrix."""
    return gram_reflect(HAND_GRAM[label], root, v)


def _gauss_jordan(rows):
    """Rational Gauss-Jordan with row swaps: the determinant and the reduced
    rows, which hold A^-1 on the right when [A | I] came in."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        det *= m[k][k]
        m[k] = [x / m[k][k] for x in m[k]]
        for r, row in enumerate(m):
            if r != k and row[k]:
                m[r] = [x - row[k] * y for x, y in zip(row, m[k])]
    return det, m


def fraction_determinant(matrix):
    return _gauss_jordan(matrix)[0]


def fraction_inverse(matrix):
    """A^-1 over the rationals, or None for a singular matrix."""
    n = len(matrix)
    _, m = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(matrix)])
    return None if m is None else [row[n:] for row in m]


def symmetrized(cartan):
    """The Gram matrix d_i a_ij of a connected symmetrizable Cartan matrix,
    with d_1 = 1 and the d_j forced along the edges by d_i a_ij = d_j a_ji;
    None when a cycle forces two values or some node is never reached."""
    n = len(cartan)
    d = [Fraction(1)] + [None] * (n - 1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j != i and cartan[i][j]:
                value = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = value
                    frontier.append(j)
                elif d[j] != value:
                    return None
    if None in d:
        return None
    return [[d[i] * x for x in row] for i, row in enumerate(cartan)]


def sylvester_positive_definite(gram):
    """Sylvester's criterion: a symmetric matrix is positive definite
    exactly when every leading principal minor is positive."""
    return all(fraction_determinant([row[:k] for row in gram[:k]]) > 0
               for k in range(1, len(gram) + 1))


def extended_cartan(gram, theta):
    """The affine Cartan matrix with alpha_0 = delta - theta as node 0:
    a[i][j] = <alpha_j, alpha_i-check> = 2(alpha_j|alpha_i)/(alpha_i|alpha_i),
    where alpha_0 pairs with the finite roots as -theta does."""
    n = len(gram)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    nodes = [tuple(-c for c in theta)] + simples
    rows = [[2 * gram_pairing(gram, b, a) / gram_pairing(gram, a, a) for b in nodes]
            for a in nodes]
    assert all(x.denominator == 1 for row in rows for x in row)
    return [[int(x) for x in row] for row in rows]


def reflection_closure(label, rank):
    """All roots as the closure of the simple roots under simple reflections."""
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for alpha in simples:
            image = hand_reflect(label, alpha, beta)
            assert all(x.denominator == 1 for x in map(Fraction, image))
            image = tuple(int(x) for x in image)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def bfs_word_lengths(generators, identity, multiply, max_length):
    """Cayley-graph distances from the identity, as {element: distance}.

    ``generators`` is an ordered list; ``multiply(x, g)`` appends a letter.
    """
    dist = {identity: 0}
    frontier = [identity]
    depth = 0
    while frontier and depth < max_length:
        depth += 1
        new = []
        for x in frontier:
            for g in generators:
                y = multiply(x, g)
                if y not in dist:
                    dist[y] = depth
                    new.append(y)
        frontier = new
    return dist


def brute_force_positivize(weyl_elements, act, roots, negatives):
    """Smallest-length w with w(P) inside the negatives, by exhaustive scan.

    ``weyl_elements`` must be ordered by (length, word); returns None when
    no element works.
    """
    for w in weyl_elements:
        if all(act(w, beta) in negatives for beta in roots):
            return w
    return None


def height_greedy_push(gram, J, P):
    """The images of the simple roots under the w that the height greedy
    builds for a pointed closed P: while w(P) has positive roots, w becomes
    s_j w for the smallest j in J whose reflection strictly lowers the total
    height of the positive part.  Reflections come from the Gram form.
    AssertionError where no single reflection lowers the height.
    """
    def positive_height(roots):
        return sum(sum(r) for r in roots if sum(r) > 0)

    n = len(gram)
    simple = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    images, current = simple, set(P)
    while positive_height(current):
        for j in J:
            moved = {gram_reflect(gram, simple[j - 1], r) for r in current}
            if positive_height(moved) < positive_height(current):
                break
        else:
            raise AssertionError(f"no simple reflection lowers the height of {sorted(current)}")
        current = moved
        images = [gram_reflect(gram, simple[j - 1], x) for x in images]
    return tuple(images)


def subsets(iterable):
    items = list(iterable)
    for bits in product([0, 1], repeat=len(items)):
        yield frozenset(x for x, b in zip(items, bits) if b)


def subgroup_by_supports(images, positives, J):
    """Whether the element with these simple-root images lies in W_J, from
    the definition: every root it sends negative has support inside J.

    An element and its inverse lie in W_J together, so testing the roots w
    sends negative (the inverse's inversions) decides it.  Images apply by
    plain linearity over the simple roots.
    """
    for beta in positives:
        image = [sum(c * img[k] for c, img in zip(beta, images)) for k in range(len(beta))]
        outside = any(c and k + 1 not in J for k, c in enumerate(beta))
        if max(image) <= 0 and outside:
            return False
    return True


def bounded_translation_search(cartan, J, K):
    """The translation of the base word for K, by the original search.

    Tries every coefficient tuple over J with maximum 1, 2, ... in
    lexicographic order and returns the first lambda (over the simple
    coroots) with <alpha_k, lambda> = 0 on K and > 0 on J minus K.  The
    pairing is read off the Cartan matrix, cartan[i][j] = <alpha_j, alpha_i-check>.
    Its cost grows like bound^|J|, so it only serves as a reference.
    """
    bound = 0
    while True:
        bound += 1
        for coeffs in product(range(bound + 1), repeat=len(J)):
            if max(coeffs) != bound:
                continue
            lam = [0] * len(cartan)
            for j, c in zip(J, coeffs):
                lam[j - 1] = c
            pair = {j: sum(c * cartan[i][j - 1] for i, c in enumerate(lam)) for j in J}
            if all(pair[k] == 0 for k in K) and all(pair[j] > 0 for j in J if j not in K):
                return tuple(lam)


def exhaustive_box_translation(cartan, J, K):
    """The translation of the base word for K, by the exhaustive pairing box.

    Per connected component of J meeting J minus K, with Cartan submatrix A
    of determinant d, lambda's coordinates there are c = A^-T p for the
    pairing vector p = (<alpha_j, lambda>): p is 0 on K, every p_j outside K
    but the last is tried in [1, d] (d^(m-1) vectors for m such indices),
    and the last is the least t in [1, d] that makes c integral.  Every
    combination of the components' candidates is tried, and the least
    lambda by maximum coefficient, then lexicographically, is returned.
    A^-1 is the rational inverse above; the cost grows like d^(m-1).
    """
    rest = list(J)
    comps = []
    while rest:  # connected components, from the nonzero Cartan entries
        comp, grow = [], [rest[0]]
        while grow:
            j = grow.pop()
            if j in rest:
                rest.remove(j)
                comp.append(j)
                grow.extend(k for k in rest if cartan[j - 1][k - 1])
        comps.append(sorted(comp))
    boxes = []
    for comp in comps:
        free = [x for x, j in enumerate(comp) if j not in K]
        if not free:
            continue
        sub = [[cartan[i - 1][j - 1] for j in comp] for i in comp]
        d = int(fraction_determinant(sub))
        adj = [[int(d * x) for x in row] for row in fraction_inverse(sub)]
        box = []
        for head in product(range(1, d + 1), repeat=len(free) - 1):
            num = [sum(p * adj[x][i] for p, x in zip(head, free)) for i in range(len(comp))]
            for t in range(1, d + 1):
                if all((v + t * a) % d == 0 for v, a in zip(num, adj[free[-1]])):
                    box.append([(comp[i], (v + t * a) // d)
                                for i, (v, a) in enumerate(zip(num, adj[free[-1]]))])
                    break
        boxes.append(box)

    def assembled(parts):
        lam = [0] * len(cartan)
        for part in parts:
            for j, c in part:
                lam[j - 1] = c
        return tuple(lam)

    return min(map(assembled, product(*boxes)), key=lambda lam: (max(lam), lam))


def proper_pairs(rank):
    """Every non-empty J in 1..rank with every proper subset K of J, sorted."""
    for J in sorted(map(sorted, subsets(range(1, rank + 1))), key=lambda s: (len(s), s)):
        if J:
            for K in sorted(map(sorted, subsets(J)), key=lambda s: (len(s), s)):
                if len(K) < len(J):
                    yield tuple(J), tuple(K)


def biconvex_by_closure(S, window):
    """Whether S and its complement in the window are both closed under sums.

    Roots are (level, classical) pairs with None for the imaginary classical
    part; a sum of two roots counts only when the vector lands in the window.
    Written from the definition over frozensets of vectors, with no index
    tables.
    """
    def vector(beta):
        level, classical = beta
        return (level,) + tuple(classical or (0,) * rank)

    rank = next(len(c) for _, c in window if c is not None)
    vectors = frozenset(map(vector, window))
    inside = frozenset(map(vector, S))
    for part in (inside, vectors - inside):
        for a in part:
            for b in part:
                total = tuple(x + y for x, y in zip(a, b))
                if total in vectors and total not in part:
                    return False
    return True


def _positive_root(eps):
    return all(c >= 0 for c in eps)


def shi_biconvex(n):
    """Whether a string-length vector names a real biconvex set, by Shi's
    inequalities.  n maps each root eps of Phi_J (positive and negative) to
    the number of roots m delta + eps in the set, an integer or math.inf; a
    real biconvex set meets each string eps + Z delta of positive roots in an
    initial segment, so e(eps) = [eps < 0] + n(eps) is the first level of the
    string outside it.  The set is biconvex iff it is pointed (n(eps) and
    n(-eps) are never both nonzero) and, whenever zeta = eps + eta is a root:
    - if n(eps), n(eta) > 0, then e(eps) + e(eta) <= e(zeta) + 1 (the set is
      closed: its top levels e(eps) - 1 and e(eta) - 1 sum below e(zeta));
    - if e(eps), e(eta) are finite, then e(eps) + e(eta) >= e(zeta) (its
      complement, which holds every m delta, is closed).
    For finite vectors these are k(a) + k(b) <= k(a + b) <= k(a) + k(b) + 1."""
    def e(eps):
        return (not _positive_root(eps)) + n[eps]

    if any(n[eps] and n[tuple(-c for c in eps)] for eps in n):
        return False
    for eps, eta in product(n, repeat=2):
        zeta = tuple(a + b for a, b in zip(eps, eta))
        if zeta not in n:
            continue
        if n[eps] > 0 and n[eta] > 0 and e(eps) + e(eta) > e(zeta) + 1:
            return False
        if e(eps) + e(eta) < e(zeta) and max(e(eps), e(eta)) < math.inf:
            return False
    return True


class WindowModel:
    """A window of positive affine roots held as a frozenset, from the
    definition.  Roots are (level, classical) pairs, with None for the
    imaginary part.  The members up to the cutoff are listed; beyond it a
    real root belongs iff its classical part is in the tail, and an
    imaginary root iff imaginary_tail.  ``roots`` are the subsystem's roots."""

    def __init__(self, roots, cutoff, elements, tail=frozenset(), imaginary_tail=False):
        self.roots, self.cutoff = tuple(roots), cutoff
        self.elements = frozenset((m, c) for m, c in elements)
        self.tail, self.imaginary_tail = frozenset(tail), imaginary_tail

    @classmethod
    def assembled(cls, roots, cutoff, tail, finite):
        """tower(tail) plus the finite roots, the cutoff raised to reach them."""
        cutoff = max([cutoff, *(m for m, _ in finite)])
        tower = {(m, e) for e in tail for m in range(1 - _positive_root(e), cutoff + 1)}
        return cls(roots, cutoff, tower | set(finite), tail)

    def window(self):
        """Every positive affine root of level at most the cutoff."""
        top = self.cutoff + 1
        reals = {(m, e) for e in self.roots for m in range(1 - _positive_root(e), top)}
        return frozenset(reals | {(m, None) for m in range(1, top)})

    def __contains__(self, beta):
        m, c = beta
        if m <= self.cutoff:
            return beta in self.elements
        return self.imaginary_tail if c is None else c in self.tail

    @property
    def finite_part(self):
        return frozenset(b for b in self.elements if b[1] not in self.tail)

    def truncate(self, cutoff):
        return frozenset(b for b in self.elements if b[0] <= cutoff)

    def complement(self):
        return WindowModel(self.roots, self.cutoff, self.window() - self.elements,
                           frozenset(self.roots) - self.tail, not self.imaginary_tail)

    @property
    def is_real(self):
        return not self.imaginary_tail and all(c is not None for _, c in self.elements)

    @property
    def is_finite(self):
        return not self.tail and not self.imaginary_tail

    def mismatches(self, window):
        """What a library window answers differently from this model: its
        fields, finite part, every truncation, and the membership of every
        root of levels -1 .. cutoff + 2."""
        bad = [name for name in ("cutoff", "tail", "imaginary_tail", "elements",
                                 "finite_part", "is_real", "is_finite")
               if getattr(window, name) != getattr(self, name)]
        bad += [f"truncate({c})" for c in range(self.cutoff + 1)
                if window.truncate(c) != self.truncate(c)]
        bad += [f"membership of {(m, c)}" for m in range(-1, self.cutoff + 3)
                for c in (*self.roots, None) if ((m, c) in window) != ((m, c) in self)]
        return bad


class TranslationForm:
    """Affine Weyl elements t_lambda w in translation form, from the hand
    Gram matrices: a pair (lambda, images) with lambda a rational vector over
    the simple roots and images the w(alpha_i).  Products, inverses and the
    action follow the textbook rules t_a v t_b w = t_(a + v b) v w,
    (t_a w)^-1 = t_(-w^-1 a) w^-1 and t_a w (m delta + e) = (m - (w e | a))
    delta + w e.  The inverse of w is found by search over the roots."""

    def __init__(self, label, rank):
        self.label, self.rank = label, rank
        self.roots = reflection_closure(label, rank)
        self.simples = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
        # alpha_i-check = 2 alpha_i / (alpha_i | alpha_i): its one coordinate.
        self.scale = [2 / Fraction(hand_pairing(label, a, a)) for a in self.simples]

    def identity(self):
        return (0,) * self.rank, self.simples

    def coroot_coords(self, x):
        """lambda over the simple coroots."""
        coords = tuple(c / s for c, s in zip(x[0], self.scale))
        assert all(Fraction(c).denominator == 1 for c in coords)
        return tuple(int(c) for c in coords)

    def apply(self, images, v):
        return tuple(sum(c * img[k] for c, img in zip(v, images)) for k in range(self.rank))

    def reflection(self, root):
        """(0, s_root): the images s_root(alpha_i)."""
        return (0,) * self.rank, tuple(
            tuple(int(c) for c in hand_reflect(self.label, root, a)) for a in self.simples
        )

    def affine_reflection(self, theta):
        """t_(theta-check) s_theta, the reflection in delta - theta."""
        norm = hand_pairing(self.label, theta, theta)
        return tuple(2 * Fraction(c) / norm for c in theta), self.reflection(theta)[1]

    def mul(self, x, y):
        (a, v), (b, w) = x, y
        moved = self.apply(v, b)
        return tuple(p + q for p, q in zip(a, moved)), tuple(self.apply(v, img) for img in w)

    def inverse(self, x):
        lam, images = x
        inv = tuple(next(r for r in self.roots if self.apply(images, r) == alpha)
                    for alpha in self.simples)
        return tuple(-c for c in self.apply(inv, lam)), inv

    def act(self, x, level, classical):
        lam, images = x
        moved = self.apply(images, classical)
        return level - hand_pairing(self.label, moved, lam), moved
