"""Finite crystallographic root systems, built from Cartan matrices.

Roots are immutable integer coordinate tuples over the simple basis
``alpha_1 .. alpha_l`` (1-based indexing everywhere in the public API).
Every table is integral and made once per system, by ``_build``: one walk
over the simple reflections generates each root with its coroot and keeps
s_i(beta) as each simple reflection's permutation of the root indices (the
only place s_i is applied to a root by its pairing), and one fraction-free
elimination of the Cartan matrix decides finite type and keeps det A and
the columns of adj A, the fundamental weights.  ``cartan_adjugate``
eliminates sub-diagrams on demand.  The only rational
data is the Gram matrix of the bilinear form, normalized so that every
long root has squared length 2, kept for ``pairing`` and the JSON output.
All generated root lists are sorted by (height, coordinates) so that
outputs are deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

Root = tuple[int, ...]

# Supported rank ranges for the built-in types.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, rank)]


def _parse_label(label: str) -> tuple[str, int]:
    """The family and rank of a type label, read without case, surrounding
    space or leading zeros of the rank (``"a02"`` is ``("A", 2)``)."""
    label = label.strip().upper()
    family, digits = label[:1], label[1:]
    if family not in _RANK_RANGE or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"unrecognized type label {label!r}")
    rank = int(digits)
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"rank {rank} out of range for family {family}")
    return family, rank


def cartan_matrix(label: str) -> tuple[tuple[int, ...], ...]:
    """Return the Cartan matrix of the finite type named by ``label``.

    Entry conventions: ``a[i][j] = <alpha_j, alpha_i-check>``, so the simple
    reflection acts by ``s_i(alpha_j) = alpha_j - a[i][j] alpha_i``.
    Labels look like ``"A2"``, ``"C2"``, ``"G2"``, ``"E8"``.
    """
    family, rank = _parse_label(label)
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if family in "AD" or (family == "E"):
        if family == "A":
            edges = _chain_edges(rank)
        elif family == "D":
            edges = _chain_edges(rank - 1) + [(rank - 2, rank)]
        else:
            # Chain 1-3-4-...-rank with node 2 attached to node 4.
            edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
        for i, j in edges:
            bond(i, j)
    elif family == "B":
        # alpha_rank is the short root.
        for i, j in _chain_edges(rank - 1):
            bond(i, j)
        bond(rank - 1, rank, -1, -2)
    elif family == "C":
        # alpha_rank is the long root.
        for i, j in _chain_edges(rank - 1):
            bond(i, j)
        bond(rank - 1, rank, -2, -1)
    elif family == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)
        bond(3, 4)
    else:  # G2, alpha_1 short
        bond(1, 2, -3, -1)
    return tuple(tuple(row) for row in a)


def _validate_cartan(matrix: tuple[tuple[int, ...], ...]) -> None:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("Cartan matrix must be square and non-empty")
    for i in range(n):
        if matrix[i][i] != 2:
            raise ValueError("diagonal Cartan entries must equal 2")
        for j in range(n):
            if i != j:
                if matrix[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")


def _symmetrizer(matrix) -> tuple[Fraction, ...]:
    """Positive rationals d with d_i a_ij = d_j a_ji, scaled so max d_i = 1.

    With this scaling the Gram matrix d_i a_ij gives long roots squared
    length 2.  Raises if the matrix is not symmetrizable or decomposable.
    """
    n = len(matrix)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if matrix[i][j] != 0 and i != j:
                # d_i a_ij = d_j a_ji forces the ratio below.
                ratio = Fraction(matrix[i][j], matrix[j][i])
                value = d[i] * ratio
                if d[j] is None:
                    d[j] = value
                    frontier.append(j)
                elif d[j] != value:
                    raise ValueError("Cartan matrix is not symmetrizable")
    if None in d:  # the walk from node 0 covers exactly its component
        raise ValueError("Cartan matrix must be indecomposable")
    scale = max(d)
    return tuple(x / scale for x in d)


def _eliminate(a) -> tuple[int, list[list[int]]] | None:
    """(det A, adj A) by fraction-free Gauss-Jordan elimination on [A | I]
    (Bareiss 1968), or None at the first pivot <= 0.  The k-th pivot is the
    k-th leading principal minor of A, which for a symmetrizable A has the
    sign of the Gram matrix's: None exactly when A is not of finite type."""
    n = len(a)
    m = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(a)]
    previous = 1
    for k, top in enumerate(m):
        pivot = top[k]
        if pivot <= 0:
            return None
        for r in range(n):
            if r != k:
                factor = m[r][k]
                m[r] = [(pivot * x - factor * y) // previous for x, y in zip(m[r], top)]
        previous = pivot
    return previous, [row[n:] for row in m]


def cartan_adjugate(rs: RootSystem, indices) -> tuple[int, list[list[int]]]:
    """Determinant d and adjugate d*A^-1 of the Cartan submatrix A on indices.

    For a connected index set every adjugate entry is positive (Lusztig-Tits).
    """
    idx = [i - 1 for i in indices]
    found = _eliminate([[rs.cartan[i][j] for j in idx] for i in idx])
    if found is None:
        raise RuntimeError("Cartan submatrix of a finite type has a pivot <= 0")
    return found


def _dominant_walk(m, cartan) -> tuple[list[int], list[int]]:
    """The greedy walk, smallest letter first (0-based), from the pairings
    m_s = <v, alpha_s-check> to the dominant vector of v's orbit, over
    letters with Cartan matrix cartan[t][s] = <alpha_s, alpha_t-check>: the
    steps and the end pairings.

    While some m_s < 0, v becomes s v, whose pairings are m - m_s (column
    s).  Each step frees one positive root from a negative pairing, so the
    walk ends for every m of a finite system or of positive level.  For v =
    x(d), d dominant with stabilizer W_K (the letters where d pairs to 0),
    the steps spell the shortest x in x W_K, and their number is its length
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1.10-1.12).
    """
    m, steps = list(m), []
    while True:
        for s, c in enumerate(m):
            if c < 0:
                break
        else:
            return steps, m
        steps.append(s)
        pivot = m[s]
        m = [c - pivot * row[s] for c, row in zip(m, cartan)]


def _descent_walk(m, cartan) -> list[int] | None:
    """The greedy left-descent word, smallest letter first (0-based), of the
    x with m_s = <x(2 rho), alpha_s-check>; None for any other m.  2 rho
    pairs to 2 with every simple coroot and has the trivial stabilizer, so
    the dominant walk spells x itself and ends at (2, .., 2) exactly when m
    came from 2 rho: s is a left descent of x exactly when m_s < 0.
    """
    steps, m = _dominant_walk(m, cartan)
    return steps if all(c == 2 for c in m) else None


def height(root: Root) -> int:
    """Sum of the simple-root coefficients."""
    return sum(root)


def is_positive(root: Root) -> bool:
    return max(root, default=0) > 0


def negate(root: Root) -> Root:
    return tuple(-c for c in root)


def add(a: Root, b: Root) -> Root:
    return tuple(map(operator.add, a, b))


def support(root: Root) -> frozenset[int]:
    """Indices (1-based) of the nonzero coefficients."""
    return frozenset(i + 1 for i, c in enumerate(root) if c)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A finite crystallographic root system with its bilinear form.

    Instances are immutable and compared by identity; ``build_root_system``
    caches by type label so equal labels share one instance.
    """

    label: str | None
    cartan: tuple[tuple[int, ...], ...]
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    roots: tuple[Root, ...]
    root_set: frozenset[Root] = field(repr=False)
    # Each root's coroot, in coordinates over the simple coroots.
    coroots: dict[Root, tuple[int, ...]] = field(repr=False)
    # Each root's index in ``roots``, and per simple reflection the
    # permutation it makes of those indices.  The negative roots come
    # first: index t is positive exactly when t >= len(roots) // 2.
    root_index: dict[Root, int] = field(repr=False)
    reflections: tuple[tuple[int, ...], ...] = field(repr=False)
    # Per Cartan row i, the (j - 1, a[i][j]) with a[i][j] != 0.
    cartan_support: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    # det A, and column k of adj A: the simple-root coordinates of det A varpi_k.
    det: int = field(repr=False)
    weight_columns: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def index_set(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if is_positive(r))

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(
            tuple(int(j == i) for j in range(self.rank)) for i in range(self.rank)
        )

    @cached_property
    def two_rho(self) -> Root:
        """2 rho, the sum of the positive roots."""
        return tuple(map(sum, zip(*self.positive_roots)))

    def simple_root(self, i: int) -> Root:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return self.simple_roots[i - 1]

    def pairing(self, a, b) -> Fraction:
        """The bilinear form (a|b) on the span of the simple roots."""
        total = Fraction(0)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        total += Fraction(ai) * Fraction(bj) * self.gram[i][j]
        return total

    def simple_coroot_pairing(self, v, i: int) -> int:
        """(v | alpha_i-check) = 2(v|alpha_i)/(alpha_i|alpha_i), an integer
        for an integer vector ``v``: it is v times the Cartan row i, whose
        entries a[i][j] are <alpha_j, alpha_i-check>.
        """
        return sum(c * aij for c, aij in zip(v, self.cartan[i - 1]))

    def coroot_pairing(self, v, coords) -> int:
        """<v, lambda> for lambda = sum_i coords_i alpha_i-check.

        Each <v, alpha_i-check> is the Cartan row i times v, so an integer
        vector gives integer work only.
        """
        total = 0
        for c, row in zip(coords, self.cartan):
            if c:
                total += c * sum(map(operator.mul, v, row))
        return total

    def coroot_coords(self, root: Root) -> tuple[int, ...]:
        """Coordinates of the coroot of ``root`` over the simple coroots,
        looked up in the table built with the roots.  ValueError for a
        vector that is not a root."""
        coords = self.coroots.get(root)
        if coords is None:
            raise ValueError(f"{root} is not a root")
        return coords


def _generate_roots(matrix) -> tuple[dict[Root, tuple[int, ...]], dict[Root, list[Root]]]:
    """Every root with its coroot over the simple coroots, and with its
    images s_1(beta) .. s_rank(beta), by closing the pairs (alpha_i,
    alpha_i-check) under s_i(beta)-check = s_i(beta-check).  s_i reads
    Cartan row i on roots and column i on coroots, the roots of the
    transposed matrix (Bourbaki, Lie VI.1).  A coroot equal to its root is
    stored as the root itself."""
    rank = len(matrix)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    coroots = {alpha: alpha for alpha in simples}
    images = {}
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        check = coroots[beta]
        images[beta] = moved = []
        for i, row in enumerate(matrix):
            image = beta[:i] + (beta[i] - sum(map(operator.mul, beta, row)),) + beta[i + 1:]
            moved.append(image)
            if image not in coroots:
                c = check[i] - sum(x * r[i] for x, r in zip(check, matrix))
                coroot = check[:i] + (c,) + check[i + 1:]
                coroots[image] = image if coroot == image else coroot
                frontier.append(image)
    return coroots, images


def _build(label: str | None, matrix: tuple[tuple[int, ...], ...]) -> RootSystem:
    _validate_cartan(matrix)
    rank = len(matrix)
    d = _symmetrizer(matrix)
    gram = tuple(
        tuple(d[i] * matrix[i][j] for j in range(rank)) for i in range(rank)
    )
    found = _eliminate(matrix)
    if found is None:
        raise ValueError("Cartan matrix is not of finite type")
    det, adj = found
    coroots, images = _generate_roots(matrix)
    roots = tuple(sorted(coroots, key=lambda r: (height(r), r)))
    index = {r: t for t, r in enumerate(roots)}
    return RootSystem(
        label=label,
        cartan=matrix,
        rank=rank,
        gram=gram,
        roots=roots,
        root_set=frozenset(roots),
        coroots=coroots,
        root_index=index,
        reflections=tuple(tuple([index[images[r][i]] for r in roots]) for i in range(rank)),
        cartan_support=tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in matrix),
        det=det,
        weight_columns=tuple(zip(*adj)),
    )


@lru_cache(maxsize=None)
def _build_by_label(label: str) -> RootSystem:
    return _build(label, cartan_matrix(label))


def build_root_system(source) -> RootSystem:
    """Build a root system from a type label or an explicit Cartan matrix.

    Explicit matrices are validated (integrality, sign pattern,
    symmetrizability, positive definite symmetrization, connectedness) and
    rejected otherwise.  Label-built systems are cached and shared under
    the canonical label (``"a02"`` builds ``"A2"``'s object).
    """
    if isinstance(source, str):
        family, rank = _parse_label(source)
        return _build_by_label(f"{family}{rank}")
    try:
        matrix = tuple(tuple(operator.index(x) for x in row) for row in source)
    except TypeError as exc:
        raise ValueError(f"Cartan matrix entries must be integers: {exc}") from exc
    return _build(None, matrix)


@dataclass(frozen=True, eq=False)
class SubSystem:
    """The sub-root-system generated by a subset J of the simple indices.

    Carries the irreducible components of J (as index tuples), the highest
    root of each component, the ordered root lists and the Cartan matrix on
    J.  J may be empty.
    """

    rs: RootSystem
    J: tuple[int, ...]
    roots: tuple[Root, ...]
    components: tuple[tuple[int, ...], ...]
    highest_roots: tuple[Root, ...]
    root_set: frozenset[Root] = field(repr=False)
    # The Cartan matrix restricted to J, rows and columns in J's order.
    cartan: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def positives(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if is_positive(r))

    @cached_property
    def negatives(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if not is_positive(r))


@lru_cache(maxsize=None)
def _sub_system_cached(rs: RootSystem, J: tuple) -> SubSystem:
    canonical = tuple(sorted(set(J)))
    if canonical != J:  # unsorted or repeated: the canonical entry's object
        return _sub_system_cached(rs, canonical)
    if any(j not in rs.index_set for j in J):
        raise ValueError(f"J={J} is not a subset of the index set")
    roots = tuple(r for r in rs.roots if support(r) <= frozenset(J))
    # A root's support is connected, and a component's highest root has all
    # of it: the components are the maximal supports.
    supports = {support(r) for r in roots}
    comps = sorted(tuple(sorted(s)) for s in supports if not any(s < t for t in supports))
    highest = []
    for comp in comps:
        *lower, top = [r for r in roots if support(r) == set(comp)]  # height order
        if lower and height(lower[-1]) == height(top):
            raise RuntimeError("component has no unique highest root")
        highest.append(top)
    return SubSystem(
        rs=rs,
        J=J,
        roots=roots,
        components=tuple(comps),
        highest_roots=tuple(highest),
        root_set=frozenset(roots),
        cartan=tuple(tuple([rs.cartan[i - 1][j - 1] for j in J]) for i in J),
    )


def sub_system(rs: RootSystem, J) -> SubSystem:
    """The subsystem of ``rs`` spanned by the simple roots indexed by J.

    J is looked up as given before it is sorted and checked, so the usual
    sorted tuple costs one cache lookup; any order or repetition of the
    same indices gives the same object."""
    return _sub_system_cached(rs, J if type(J) is tuple else tuple(J))


def check_subset(sub: SubSystem, K) -> tuple[int, ...]:
    """K as a sorted tuple; raises ValueError unless K lies inside J."""
    K = tuple(sorted(set(K)))
    if not set(K) <= set(sub.J):
        raise ValueError(f"K={K} is not a subset of J={sub.J}")
    return K


def complement_roots(sub: SubSystem, K, sign: int) -> tuple[Root, ...]:
    """Roots of the subsystem J whose support meets J difference K.

    ``sign`` selects the positive (+1) or negative (-1) half, in the
    subsystem's root order.  Phi_K is exactly the roots supported on K
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1.10), so these are
    the roots of that half outside K's cached root set.  Empty exactly when
    K covers all of J.  K is checked on every call.
    """
    inside = sub_system(sub.rs, check_subset(sub, K)).root_set
    return tuple([r for r in (sub.positives if sign > 0 else sub.negatives) if r not in inside])


def root_system_to_json(rs: RootSystem) -> dict:
    """JSON form: type label, root coordinate lists, exact Gram matrix.

    Rational Gram entries are encoded as [numerator, denominator] pairs,
    integers stay plain.
    """

    def enc(x: Fraction):
        return int(x) if x.denominator == 1 else [x.numerator, x.denominator]

    return {
        "type": rs.label,
        "cartan": [list(row) for row in rs.cartan],
        "roots": [list(r) for r in rs.roots],
        "gram": [[enc(x) for x in row] for row in rs.gram],
    }


def root_system_from_json(data: dict) -> RootSystem:
    label = _json_field(data, "type")
    if label is not None and type(label) is not str:
        raise ValueError("field 'type' must be a JSON string or null")
    rs = build_root_system(label or _json_ints(data, "cartan", 2))
    if rs.roots != _json_ints(data, "roots", 2):
        raise ValueError("root list does not match the declared type")
    return rs


def _json_field(data, key: str, kind: type | None = None):
    """Field ``key`` of a JSON object, of type ``kind`` if given (``int``
    admits no bool or float); ValueError naming the field otherwise."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object with field {key!r}, got {data!r}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    if kind is not None and type(data[key]) is not kind:
        raise ValueError(f"field {key!r} must be a JSON {kind.__name__}, got {data[key]!r}")
    return data[key]


def _json_ints(data, key: str, depth: int = 1) -> tuple:
    """Field ``key`` as arrays of JSON integers nested ``depth`` deep, read
    into tuples; ValueError naming the field otherwise."""

    def read(value, depth):
        if type(value) is not (list if depth else int):
            what = "an array" if depth else "a JSON integer"
            raise ValueError(f"field {key!r} must hold {what} here, got {value!r}")
        return tuple(read(x, depth - 1) for x in value) if depth else value

    return read(_json_field(data, key), depth)
