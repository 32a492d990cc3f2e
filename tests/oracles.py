"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from first definitions (hand Gram
matrices, naive reflection closure, BFS word search) and does not call into
the library's own algorithms, so that library results can be checked
against a second route.
"""

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


def hand_pairing(label, a, b):
    g = HAND_GRAM[label]
    return sum(
        Fraction(ai) * Fraction(bj) * Fraction(g[i][j])
        for i, ai in enumerate(a)
        for j, bj in enumerate(b)
    )


def hand_reflect(label, root, v):
    """s_root(v) from the textbook formula, using the hand Gram matrix."""
    coeff = 2 * hand_pairing(label, v, root) / hand_pairing(label, root, root)
    return tuple(Fraction(x) - coeff * r for x, r in zip(v, root))


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
