"""Flag counting over prime fields and Euler characteristics at q = 1.

A word with coefficients prescribes a composition series type; the number
of action-stable flags of that type over F_p is computed by a subspace
recursion.  Counting at enough good primes and interpolating recovers the
counting polynomial, whose value at 1 is the Euler characteristic.  The
polynomial-count assumption is never trusted silently: every fit must
reproduce the counts at extra validation primes or the computation aborts
with :class:`NonPolynomialCount`.

A rational module is sampled prime by prime: it is reduced mod p straight
into the row form counting works in (:func:`~preproj.module._reduce_rows`,
no matrices in between), and each prime's counts for the whole table are
one row.  Interpolation is linear in the counts, so every fit through one
window of primes shares that window's integer Lagrange weights (cached in
:func:`~preproj.linalg.lagrange_weights`): the value at 1 and the values
at the validation primes are integer dot products with the window counts,
and a :class:`Polynomial` is made only when a profile's is read.  One
sweep over the windows, one per shift (:func:`_sweep`), fits every count
column, a fingerprint's words, a split table's splitting types and a
stratification's stratum sizes alike: each window checks every pending
column at once, one window row at a time, and each column keeps the
first window it passes at.

Every count is one row: the step sequences of a table (the words of a
fingerprint, the splitting types of a split count, or a single word)
form a trie, and one recursion over the trie counts all of them,
listing the subspaces at each branch once.  Every trie comes from one
recursion over the contents left to place, one node per content
(:func:`_table`): the trie of a whole table (every word of a dimension
vector, or every splitting type of every word of a direct sum) places
any vertex next, and the trie of one word with coefficients, or of one
word's splitting types, places only the word's next letter.
Counts are memoized per module and trie node, child lists per module,
vertex and multiplicity, and the glued direct sums of split counts per
pair, in a plain dict under keys that hold the prime and the modules'
dimension vectors and rows, so one dict can serve every module, prime
and table of one double quiver.  Orbit lists (below) are not kept: a
module of a word table is reached only at the trie node of its own
dimension vector, so the count memo answers every repeat before its
orbit list is asked for again.  The dict also
interns the nodes of the tries counted through it: equal rests of any
of its tables are one node, so a word, a fingerprint row, a stratum row
and a split table that end alike share their counts below that point.
A table's trie is built once and counted at every prime the table is
sampled at; the trie of a dimension vector's words is kept in the dict
beside its word list, and so is the table of every splitting type of
every word of a direct sum.  A single count or fingerprint starts a
fresh dict per prime; a verification or stratification is one job (see
:mod:`preproj.verify`) and passes one dict to all the modules it
counts, and an anchor's row at a prime its fingerprint sampled is read
from the fingerprint's pool when the strata are matched against it.
The dict records the arrows of the first module counted through it and
refuses a module of another double quiver.

A dict passed to :func:`count_flags` or :func:`count_flags_by_splitting`
says that more words of the same module follow, so a multiplicity-one
word is read from the count row of the module's whole table (its words,
or every splitting type of every word): the first word counts the row,
and each later word of the module at that prime is a lookup of the
row's root entry.  Without a dict, or for a word with coefficients, only
the one word's trie is counted: a chain, or its splitting types.

A step of multiplicity 1 that tracks nothing keeps one of the
[t]_p = (p^t - 1)/(p - 1) hyperplanes of the v-piece that contain the
span R of the incoming images (t = dim V_v/R), and is counted over the
orbits of those hyperplanes under the automorphisms of the module that
are the identity off v (:func:`_orbits`).  Isomorphic pieces have equal
counts below, because nothing is tracked at v below such a step and the
automorphism is the identity wherever something may be, so one
representative weighted by its orbit size stands for the whole orbit
and every count stays exact.  With K the common kernel of the arrows out
of v and s = dim (R+K)/R, the [t-s]_p hyperplanes over R + K are fixed
and listed with weight 1, and the other p^(t-s) [s]_p form one orbit.
Only the fixed ones are enumerated.  The automorphisms are read off the
arrows at v because quivers have no loops (see :mod:`preproj.quiver`):
an arrow from v to v would add the condition that h commute with it.
A step with a tracked submodule, or of multiplicity above 1, lists every
piece: its acceptance filter reads the piece's meet with the tracked
part, which the automorphisms do not preserve.

Many steps have no choice in them.  When the span R of the incoming
images already has the codimension c the step asks for, the one piece is
R itself, kept as it is with no subspace enumerated (:func:`_pieces`),
and a case whose one piece or orbit has weight 1 passes its child's
count tuple on unchanged (:func:`_count`).  When the step peels the
whole v-piece, that piece is zero: the arrows out of v lose their
columns, and the arrows into v must be zero.  A one-dimensional v-piece
has only that zero hyperplane, so a step of multiplicity 1 there needs
no elimination: the zero branch of :func:`~preproj.module.restrict_rows`
tests the arrows into v for zero and builds the zero piece in one pass
over the arrows, for this step (:func:`_zero_piece`) as for a forced
zero piece of a larger step.  And on a
module whose arrows are all zero the flags of every untracked
multiplicity-one sequence are counted in closed form (:func:`_count`).

A fingerprint fits and validates every word when it is built; the
words' :class:`CountProfile` objects are made from the stored fits and
count rows only when :attr:`DeltaFingerprint.profiles` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, count, product
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .fields import Field, primes
from .linalg import (
    Polynomial,
    _kernel_rows,
    echelon,
    interpolate,
    lagrange_weights,
)
from .module import (
    BadPrime,
    LambdaModule,
    RowModule,
    Rows,
    _ends,
    _glue,
    _reduce_rows,
    direct_sum,
    restrict_rows,
)
from .quiver import (
    Quiver,
    Word,
    enumerate_splittings,
    enumerate_words,
    word_content,
)

# One fitted window must reproduce the counts at this many further primes.
VALIDATION_PRIMES = 2
# How many times the fit window may slide past small primes where the
# module degenerates (reduction is defined but off the generic pattern).
MAX_WINDOW_SHIFT = 6

# The memo key under which _count_row records the arrows its counts are for.
_ARROWS_KEY = "arrows"
# The memo key of the table that interns the trie nodes counted through it.
_NODES_KEY = "nodes"
# The tag of the memo keys of direct sums' split tables (see _split_table).
_SPLIT_KEY = "split"
# The tag of the memo keys of glued direct sums (see count_flags_by_splitting).
_GLUE_KEY = "glue"

# A step trie: its root and the position of every table entry in the
# root's count tuple (see _table).
Trie = Tuple["_Node", Tuple[int, ...]]
SplitKey = Tuple[Tuple[int, ...], Tuple[int, ...]]
# A count column's fit (see _sweep): the window's shift, its primes, the
# validation primes and the value at 1.
Fit = Tuple[int, Tuple[int, ...], Tuple[int, ...], int]
# A pool row: a prime and the counts sampled there.
PoolRow = Tuple[int, Tuple[int, ...]]


class NonPolynomialCount(RuntimeError):
    """No fit window reproduced the counts at the validation primes."""

    def __init__(self, word: Word, message: str) -> None:
        super().__init__(message)
        self.word = word


class InsufficientPrimes(RuntimeError):
    """The supplied prime list ran out before a fit could be attempted."""


@dataclass(frozen=True)
class FlagCount:
    """The number of stable flags of one type over one prime field."""

    module: LambdaModule
    word: Word
    coeffs: Tuple[int, ...]
    prime: int
    count: int


@dataclass(frozen=True)
class CountProfile:
    """The audit trail of one Euler characteristic computation.

    ``samples`` records every (prime, count) pair that was computed for
    this word, including primes the fit window slid past; ``window`` and
    ``validation`` name the primes the accepted fit used.
    """

    word: Word
    coeffs: Tuple[int, ...]
    degree_bound: int
    samples: Tuple[Tuple[int, int], ...]
    window: Tuple[int, ...]
    validation: Tuple[int, ...]
    euler: int

    @cached_property
    def polynomial(self) -> Polynomial:
        """The accepted fit, interpolated through the window counts when
        first read."""
        return _window_polynomial(self.samples, self.window)


@dataclass(frozen=True)
class DeltaFingerprint:
    """Euler characteristics over every word with the module's content.

    Two modules of the same dimension vector define the same counting
    functional exactly when their fingerprints agree coordinatewise.

    The fit of every word is made and checked when the fingerprint is
    built; a word's :class:`CountProfile` is made from the stored fits
    and count rows only when ``profiles`` is first read.
    """

    module: LambdaModule
    words: Tuple[Word, ...]
    chi: Tuple[int, ...]
    # per word, its fit by _sweep, and the pool's rows the fits drew
    _fits: Tuple[Fit, ...] = field(repr=False)
    _rows: Tuple[PoolRow, ...] = field(repr=False)

    @property
    def dim(self) -> Tuple[int, ...]:
        return self.module.dim

    @cached_property
    def profiles(self) -> Tuple[CountProfile, ...]:
        """Every word's audit trail, in word order, made when first read."""
        coeffs = [(1,) * len(w) for w in self.words]
        bound = degree_bound(self.module)
        return _profiles(self.words, coeffs, bound, self._rows, self._fits)

    @cached_property
    def _chi_by_word(self) -> Dict[Word, int]:
        return dict(zip(self.words, self.chi))

    @cached_property
    def _row_by_prime(self) -> Dict[int, Tuple[int, ...]]:
        return dict(self._rows)

    def drawn_row(self, p: int) -> Optional[Tuple[int, ...]]:
        """The count row the fits drew at p, one count per word of
        ``words`` in their order, or None when the pool did not draw p."""
        return self._row_by_prime.get(p)

    def chi_of(self, word: Word) -> int:
        try:
            return self._chi_by_word[tuple(word)]
        except KeyError:
            raise KeyError(f"word {tuple(word)} has the wrong content") from None

    def table(self) -> Dict[Word, int]:
        return dict(self._chi_by_word)


def _letters(
    q: Quiver, word: Word, coeffs: Optional[Sequence[int]]
) -> Tuple[Tuple[int, int], ...]:
    """A word's (vertex index, coefficient) letters, coefficients all 1
    when omitted; zero coefficients drop out."""
    if coeffs is None:
        coeffs = [1] * len(word)
    idx = q.vertex_index
    return tuple((idx[v], c) for v, c in zip(word, coeffs) if c)


def _chain(
    m: LambdaModule, word: Word, coeffs: Optional[Sequence[int]], memo: Optional[Dict]
) -> Trie:
    """The trie of one word with coefficients on m, a chain of
    :func:`_table`'s nodes, with its one entry at position 0."""
    zero = (0,) * len(m.dim)
    return _table(m.dim, zero, memo, _letters(m.quiver, word, coeffs)), (0,)


def _word_table(
    q: Quiver, dim: Tuple[int, ...], memo: Optional[Dict] = None
) -> Tuple[Tuple[Word, ...], Trie]:
    """Every word with content dim, in enumeration order, and the trie of
    their steps (see :func:`_table`), whose node order is enumeration
    order; kept in ``memo`` under (q, dim), when one is given, for the
    next module of the same quiver and dimension vector."""
    key = (q, dim)
    table = None if memo is None else memo.get(key)
    if table is None:
        words = enumerate_words(q, dim)
        root = _table(dim, (0,) * len(dim), memo)
        table = words, (root, tuple(range(len(words))))
        if memo is not None:
            memo[key] = table
    return table


def _split_table(
    q: Quiver,
    left: Tuple[int, ...],
    right: Tuple[int, ...],
    memo: Optional[Dict],
    word: Optional[Word] = None,
    coeffs: Optional[Sequence[int]] = None,
) -> Dict[Word, Tuple[Tuple[SplitKey, ...], Trie]]:
    """Every splitting type of every word with content left + right, as
    one step table: per word, its splitting types in the order of
    :func:`~preproj.quiver.enumerate_splittings` and the table's trie
    with the positions of their slice of the row.  Kept in ``memo``
    under (_SPLIT_KEY, q, left, right), beside :func:`_word_table`'s
    entries.  Given a word (with coefficients), the table of that word
    alone, keyed by it and kept nowhere; its zero coefficients split as
    (0, 0).

    The trie is built from the remaining contents (see :func:`_table`),
    and one walk of it in node order reads off every word's splitting
    types and positions.  Within a word the walk gives a step's drops
    to the right summand in ascending order, the reverse of the
    enumeration's order, so each word's list is reversed.
    """
    key = (_SPLIT_KEY, q, left, right)
    table = None if word is not None else memo.get(key)
    if table is None:
        letters = None if word is None else _letters(q, word, coeffs)
        root = _table(left, right, memo, letters)
        names = q.vertices
        found: Dict[Word, Tuple[List[SplitKey], List[int]]] = {}
        at = count()

        def walk(node: _Node, w: Word, c1: Tuple[int, ...], c2: Tuple[int, ...]):
            if node.end:
                keys, where = found.setdefault(w, ([], []))
                keys.append((c1, c2))
                where.append(next(at))
            for v, c, drop, _, child in node.cases:
                walk(child, (*w, names[v]), (*c1, c - drop), (*c2, drop))

        walk(root, (), (), ())
        if word is not None:
            ((keys, where),) = found.values()
            full = coeffs or [1] * len(word)

            def spread(part: Tuple[int, ...]) -> Tuple[int, ...]:
                it = iter(part)
                return tuple(next(it) if c else 0 for c in full)

            found = {tuple(word): ([tuple(map(spread, k)) for k in keys], where)}
        table = {
            w: (tuple(reversed(keys)), (root, tuple(reversed(where))))
            for w, (keys, where) in found.items()
        }
        if word is None:
            memo[key] = table
    return table


def _multiplicity_one(coeffs: Optional[Sequence[int]]) -> bool:
    """Whether a word's coefficients are omitted or all 1."""
    return coeffs is None or all(c == 1 for c in coeffs)


def enumerate_subspaces(field: Field, ambient: int, dim: int) -> Iterator[Rows]:
    """All dim-dimensional subspaces of field^ambient, each exactly once.

    A subspace is yielded as its reduced row echelon basis, a tuple of
    dim rows of ints, in a fixed order.

    Raises:
        ValueError: when the enumeration is infinite (rational field with
            0 < dim < ambient).
    """
    if dim < 0 or dim > ambient:
        return
    if dim == 0:
        yield ()
        return
    for pivots in combinations(range(ambient), dim):
        free = [
            (i, j)
            for i in range(dim)
            for j in range(ambient)
            if j > pivots[i] and j not in pivots
        ]
        if free and field.is_rational:
            raise ValueError("cannot enumerate subspaces over the rationals")
        for values in product(range(field.p or 1), repeat=len(free)):
            rows = [[0] * ambient for _ in range(dim)]
            for i, pj in enumerate(pivots):
                rows[i][pj] = 1
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            yield tuple(map(tuple, rows))


def _children(
    m: RowModule, v: int, c: int, memo: Dict
) -> List[Tuple[Tuple[int, ...], RowModule]]:
    """Every codimension-c piece at v that contains all incoming images,
    as (pivots, restricted module), cached in the memo under (p, dim,
    rows, v, c), so every trie node that reaches this module with a step
    (v, c, drop), whatever the drop, shares one enumeration.  At a
    one-dimensional v-piece (so c = 1) the pieces come from the zero test
    of :func:`_zero_piece`, with no elimination.
    """
    key = (m.field.p, m.dim, m.rows, v, c)
    children = memo.get(key)
    if children is None:
        if m.dim[v] == 1:
            children = [((), piece) for piece in _zero_piece(m, v)]
        else:
            children = _pieces(m, v, _incoming(m, v), c)
        memo[key] = children
    return children


def _orbits(m: RowModule, v: int) -> List[Tuple[int, RowModule]]:
    """The hyperplane pieces at v that contain all incoming images, one
    per orbit of the automorphisms of m that are the identity off v, as
    (orbit size, restricted module).  Nothing is cached: a word table
    reaches a module only at the trie node of its own dimension vector,
    where :func:`_count`'s memo answers every repeat, so an orbit list is
    asked for once per (module, vertex) of a word row.

    Write R for the span of the incoming images, K for the common kernel
    of the arrows out of v, t = dim V_v/R, s = dim (R+K)/R and [n]_p =
    (p^n - 1)/(p - 1).  As the quiver has no loops, those automorphisms
    are the invertible I + h with h(V_v) in K and h(R) = 0.  They fix
    each of the [t-s]_p hyperplanes that contain R + K, listed with size
    1, and move the other p^(t-s) [s]_p, which miss part of K, into one
    orbit.  Its representative is the hyperplane y_j = sum of u_r[j] y_r
    over R's echelon rows u_r, where j is the first pivot of R + K that
    is not one of R: it holds every u_r, and not the row of R + K that
    pivots at j.  With t <= 1 there is at most one piece, listed without
    the kernel: none at t = 0, and at t = 1 R itself, a forced piece
    (see :func:`_pieces`).  At a one-dimensional v-piece that piece is
    zero, and :func:`_zero_piece` finds it with no elimination.
    """
    if m.dim[v] == 1:
        return [(1, piece) for piece in _zero_piece(m, v)]
    p = m.field.p
    u = _incoming(m, v)
    d, t = m.dim[v], m.dim[v] - len(u)
    wide = u
    if t > 1:
        out = [
            row
            for rows, (_, source, _) in zip(m.rows, m.arrows)
            if source == v
            for row in rows
        ]
        wide = echelon([*u.values(), *_kernel_rows(echelon(out, p), d, p)], p)
    orbits = [(1, piece) for _, piece in _pieces(m, v, wide, 1)]
    s = len(wide) - len(u)
    if s:
        j = min(q for q in wide if q not in u)
        pivots = tuple(i for i in range(d) if i != j)
        kept = []
        for i in pivots:
            row = [0] * d
            row[i] = 1
            if i in u:
                row[j] = u[i][j]
            kept.append(tuple(row))
        size = p ** (t - s) * (p**s - 1) // (p - 1)
        orbits.append((size, restrict_rows(m, v, tuple(kept), pivots)))
    return orbits


def _zero_piece(m: RowModule, v: int) -> List[RowModule]:
    """The hyperplane pieces of a one-dimensional v-piece that contain
    all incoming images, found with no elimination: the one hyperplane
    is zero, so there is none when an arrow into v has a nonzero entry
    (entries are reduced mod p), and otherwise the zero piece.  The zero
    branch of :func:`~preproj.module.restrict_rows` makes the test and
    the restriction in one pass over the arrows."""
    try:
        return [restrict_rows(m, v, (), ())]
    except ValueError:
        return []


def _incoming(m: RowModule, v: int) -> Dict[int, List[int]]:
    """The reduced row echelon basis of the span of the incoming images
    at v, keyed by pivot."""
    return echelon(
        [
            col
            for rows, (_, _, target) in zip(m.rows, m.arrows)
            if target == v
            for col in zip(*rows)
        ],
        m.field.p,
    )


def _pieces(
    m: RowModule, v: int, u: Dict[int, List[int]], c: int
) -> List[Tuple[Tuple[int, ...], RowModule]]:
    """Every codimension-c piece at v that contains the span of the
    reduced echelon rows u, as (pivots, restricted module); u spans the
    incoming images, or more.

    A piece is u plus a subspace in the coordinates that are not pivots
    of u; lifting that subspace's echelon rows and clearing u's rows at
    their pivots gives the piece's reduced row echelon basis directly.
    When u already has codimension c (dim V_v - c == len(u)), the one
    piece is the span of u, returned with its restriction and nothing
    enumerated; when u also is empty, that piece is zero.
    """
    p = m.field.p
    d = m.dim[v]
    if d - c == len(u):
        # forced: the one piece is the span of u
        pivots = tuple(sorted(u))
        kept = tuple(tuple(u[q]) for q in pivots)
        return [(pivots, restrict_rows(m, v, kept, pivots))]
    pieces = []
    if d - c > len(u):
        free = [j for j in range(d) if j not in u]
        for small in enumerate_subspaces(m.field, len(free), d - c - len(u)):
            basis: Dict[int, List[int]] = {}
            for w in small:
                lifted = [0] * d
                for j, x in zip(free, w):
                    lifted[j] = x
                # an echelon row is zero before its leading 1
                basis[free[w.index(1)]] = lifted
            lifts = list(basis.items())
            for r, row in u.items():
                for q, w in lifts:
                    f = row[q]
                    if f:
                        row = [(x - f * y) % p for x, y in zip(row, w)]
                basis[r] = row
            pivots = tuple(sorted(basis))
            kept = tuple(tuple(basis[q]) for q in pivots)
            pieces.append((pivots, restrict_rows(m, v, kept, pivots)))
    return pieces


class _Node:
    """One node of a step trie: the step sequences left below it.

    ``cases`` groups them by first step: each case (v, c, drop, tracked,
    child), in ascending order, holds in ``child`` the rests of the
    sequences whose first step is (v, c, drop) and whose drops at v sum to
    ``tracked``, this step's included; the cases of one (v, c) are
    adjacent and make up its branch.  ``end`` marks the empty sequence.
    A count tuple of the node lists the empty sequence first, then every
    case's child tuple in turn; ``size`` is its length, and ``len()`` is
    the number of steps left on the longest sequence.  ``plain`` marks a
    node below which every step has multiplicity 1 and tracks nothing
    (see :func:`_count`).  Nodes are made by :func:`_table` alone and
    interned in the memo they are counted through, so equal nodes are
    one object; they hash by identity.
    """

    __slots__ = ("end", "cases", "size", "depth", "plain")

    def __init__(self, end: bool, cases: Tuple) -> None:
        self.end = end
        self.cases = cases
        self.size = int(end)
        self.depth = 0
        self.plain = True
        for _, c, _, tracked, child in cases:
            self.size += child.size
            self.depth = max(self.depth, child.depth + 1)
            self.plain = self.plain and c == 1 and not tracked and child.plain

    def __len__(self) -> int:
        return self.depth


def _intern(end: bool, cases: Tuple, nodes: Dict[Tuple, _Node]) -> _Node:
    """The one node of ``nodes`` with this end mark and these cases."""
    key = (end, cases)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = _Node(end, cases)
    return node


def _table(
    left: Tuple[int, ...],
    right: Tuple[int, ...],
    memo: Optional[Dict],
    letters: Optional[Sequence[Tuple[int, int]]] = None,
) -> _Node:
    """The root of the trie of every step sequence that places the
    contents ``left`` and ``right``: a step (v, c, drop) takes c - drop
    factors of the untracked left part at v and drop of the tracked right
    part.  This is the trie of a word table when ``right`` is zero and of
    a direct sum's split table otherwise, built by one recursion over
    what is left to place; it is the one builder of trie nodes.

    The node of remaining contents (r1, r2) has, for each vertex v in
    ascending order, the case (v, 1, 0, r2[v]) into (r1 - e_v, r2) when
    r1[v] > 0 and then (v, 1, 1, r2[v]) into (r1, r2 - e_v) when
    r2[v] > 0, and ends when nothing is left.

    Given ``letters``, one word's (vertex index, coefficient) pairs with
    no zero coefficient (see :func:`_letters`), a node places only the
    word's next letter (v, c): one case (v, c, drop, r2[v]) into
    (r1 - (c - drop) e_v, r2 - drop e_v) for every drop the two parts
    allow, in ascending order.  This is the chain of the word when
    ``right`` is zero and the trie of its splitting types otherwise.  The
    contents must be the word's, which every caller checks.  Every step
    places something, so (r1, r2) alone keys a node here too.

    Nodes are interned in ``memo``, so every table counted through one
    memo shares its equal rests, or only within this trie when ``memo``
    is None.
    """
    nodes = {} if memo is None else memo.setdefault(_NODES_KEY, {})
    built: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], _Node] = {}

    def node(r1: Tuple[int, ...], r2: Tuple[int, ...], k: int = 0) -> _Node:
        got = built.get((r1, r2))
        if got is None:
            cases = []
            if letters is None:
                for v, (a, b) in enumerate(zip(r1, r2)):
                    if a:
                        rest = (*r1[:v], a - 1, *r1[v + 1 :])
                        cases.append((v, 1, 0, b, node(rest, r2)))
                    if b:
                        rest = (*r2[:v], b - 1, *r2[v + 1 :])
                        cases.append((v, 1, 1, b, node(r1, rest)))
            elif k < len(letters):
                v, c = letters[k]
                a, b = r1[v], r2[v]
                for drop in range(max(0, c - a), min(c, b) + 1):
                    rest1 = (*r1[:v], a - c + drop, *r1[v + 1 :])
                    rest2 = (*r2[:v], b - drop, *r2[v + 1 :])
                    cases.append((v, c, drop, b, node(rest1, rest2, k + 1)))
            got = built[r1, r2] = _intern(not cases, tuple(cases), nodes)
        return got

    return node(left, right)


def _count(m: RowModule, node: _Node, memo: Dict) -> Tuple[int, ...]:
    """Stable flag counts of every step sequence below a trie node, in
    the node's order, by peeling one semisimple quotient per step.

    A flag step (v, c, drop) keeps a codimension-c subspace of the v-piece
    that contains every incoming image (so the quotient is semisimple at
    v) and is automatically stable; :func:`_children` lists the kept
    pieces with their restrictions once per (v, c) branch, and each case
    of the branch adds up the count tuples of its child node over the
    pieces it accepts.

    The drops grade the count by a tracked submodule.  At vertex v it is
    spanned by the last t coordinates, where t is the case's tracked
    amount.  A kept piece meets it in the span of the echelon rows that
    pivot in those coordinates, and the case accepts the piece only when
    that span has dimension t - drop.  Those rows come last in the
    echelon basis, so in the restriction the tracked part is again spanned
    by the last coordinates.  With t = 0 nothing is tracked and every
    piece is accepted.

    A case with c = 1 and t = 0 adds up one piece per orbit instead,
    from :func:`_orbits`: each orbit's count tuple is its
    representative's times the orbit size.  Nothing is tracked at v from
    that step on, and the automorphisms that move the pieces are the
    identity at every other vertex, so pieces of one orbit have equal
    counts below and the sum is the same as over every piece.

    A case with exactly one accepted piece of weight 1, which a forced
    step (see :func:`_pieces`) always gives, extends the counts with its
    child's tuple as it is, with nothing summed.

    A plain node (see :class:`_Node`) counted on a module whose arrows
    are all zero is not recursed into: every sequence below it counts
    prod over v of [1]_p [2]_p ... [d_v]_p, with [k]_p = (p^k - 1)/(p - 1)
    and d the module's dimension vector.  Every sequence below a node
    places exactly the dimension vector of the module it is counted on,
    each of its steps keeps any of the [k]_p hyperplanes of a k-dimensional
    v-piece (there are no incoming images), and its restriction again has
    all arrows zero.

    Count tuples are memoized under (p, dim, rows, node) and child lists
    under (p, dim, rows, v, c); orbit lists are made afresh, since a word
    row asks for each (module, vertex) once.  The keys hold no arrows, so
    one dict may serve any modules and primes of one double quiver: the
    words and splitting types of one module, or every module of one
    verification job.
    """
    if not node:
        # every sequence left is empty and counts the one empty flag
        return (1,) * node.size
    key = (m.field.p, m.dim, m.rows, node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if node.plain and not any(any(map(any, rows)) for rows in m.rows):
        p, n = m.field.p, 1
        for d in m.dim:
            for k in range(1, d + 1):
                n *= (p**k - 1) // (p - 1)
        total = memo[key] = (n,) * node.size
        return total
    counts = [1] if node.end else []
    branch = None
    for v, c, drop, tracked, child in node.cases:
        if c == 1 and not tracked:
            below = []
            for size, piece in _orbits(m, v):
                got = _count(piece, child, memo)
                below.append(got if size == 1 else [size * n for n in got])
        else:
            if branch != (v, c):
                branch = v, c
                children = _children(m, v, c, memo)
            first_tracked = m.dim[v] - tracked
            below = [
                _count(piece, child, memo)
                for pivots, piece in children
                if not tracked
                or sum(r >= first_tracked for r in pivots) == tracked - drop
            ]
        if len(below) == 1:
            counts.extend(below[0])
        else:
            counts.extend(map(sum, zip(*below)) if below else (0,) * child.size)
    total = tuple(counts)
    memo[key] = total
    return total


def _count_row(rm: RowModule, trie: Trie, memo: Dict) -> Tuple[int, ...]:
    """The stable flag counts of a finite-field module in row form, one
    per entry of the step table of a trie (see :func:`_table`), through
    one shared memo.  Every count the package takes (words, fingerprint
    rows, split tables, strata) is taken here, in one :func:`_count` call
    on the trie's root.  A rational module sampled at a prime comes
    straight from :func:`~preproj.module._reduce_rows`, a middle term or
    direct sum over F_p from :func:`~preproj.module._glue`; any other
    module over F_p is passed as ``RowModule.of(m)``.

    The memo may hold the counts of other modules and primes, but only of
    one double quiver: on first use it records the module's arrows, and
    a module with other arrows raises ValueError.
    """
    _guard(memo, rm.arrows)
    root, where = trie
    counts = _count(rm, root, memo)
    return tuple(counts[i] for i in where)


def _guard(memo: Dict, arrows: Tuple[Tuple[str, int, int], ...]) -> None:
    """Record the arrows a memo's counts are for on its first use, and
    refuse a module of another double quiver with ValueError."""
    if memo.setdefault(_ARROWS_KEY, arrows) != arrows:
        raise ValueError("the memo holds counts of another double quiver")


def count_flags(
    m: LambdaModule,
    word: Word,
    coeffs: Optional[Sequence[int]] = None,
    memo: Optional[Dict] = None,
) -> FlagCount:
    """Count the stable flags of type (word, coeffs) over a prime field.

    Args:
        m: a module over some F_p whose dimension vector is the content
            of the coefficient word.
        coeffs: step multiplicities, all 1 when omitted; zeros are skipped.
        memo: optional shared cache, valid for one double quiver.  With
            it, a multiplicity-one word is read from the count row of
            the module's whole word table, which the first such word
            counts and every later word of the module at this prime
            looks up.  Without it, or for a word with coefficients, the
            one word is counted as a chain.

    Raises:
        ValueError: on a rational module, a content mismatch or a memo
            that holds another double quiver's counts.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    if word_content(m.quiver, word, coeffs) != m.dim:
        raise ValueError("word content differs from the module dimension")
    rm = RowModule.of(m)
    if memo is not None and _multiplicity_one(coeffs):
        _guard(memo, rm.arrows)
        words, trie = _word_table(m.quiver, m.dim, memo)
        n = _count_row(rm, trie, memo)[words.index(tuple(word))]
    else:
        if memo is None:
            memo = {}
        (n,) = _count_row(rm, _chain(m, word, coeffs, memo), memo)
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    return FlagCount(m, tuple(word), fixed, m.field.p, n)


def count_flags_fp(m: LambdaModule) -> Tuple[int, ...]:
    """Raw counts over every word with content dim m, in enumeration order.

    This is the count fingerprint of a finite-field module at its own
    prime; no interpolation is involved.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    _, trie = _word_table(m.quiver, m.dim)
    return _count_row(RowModule.of(m), trie, {})


def degree_bound(m: LambdaModule) -> int:
    """Upper bound on the counting polynomial degree for any word.

    Every stable flag set embeds in the product of the complete graded
    flag varieties, whose count is a polynomial of this degree.
    """
    return sum(d * (d - 1) // 2 for d in m.dim)


class _PrimePool:
    """Lazily sampled count rows at successive good primes.

    Row k is the k-th candidate prime where the sampler succeeds, paired
    with the counts it returned there.  Rows are computed on demand and
    shared between the per-column fits, so no prime is counted twice.  A
    sampler returns None at a prime the module does not reduce at.  The
    candidates are any iterable of primes, or None for all primes in
    ascending order; a candidate that repeats an earlier one raises
    ValueError when it is drawn, before it is sampled.
    """

    def __init__(self, sampler, candidates: Optional[Iterable[int]]) -> None:
        self._sampler = sampler
        self._candidates = primes() if candidates is None else iter(candidates)
        self._seen: Set[int] = set()
        self._rows: List[PoolRow] = []

    @property
    def rows(self) -> Tuple[PoolRow, ...]:
        return tuple(self._rows)

    def row(self, k: int) -> PoolRow:
        while len(self._rows) <= k:
            p = next(self._candidates, None)
            if p is None:
                raise InsufficientPrimes(
                    f"prime list exhausted after {len(self._rows)} usable primes"
                )
            if p in self._seen:
                raise ValueError(f"prime {p} is repeated in the prime list")
            self._seen.add(p)
            vec = self._sampler(p)
            if vec is not None:
                self._rows.append((p, vec))
        return self._rows[k]


def _module_sampler(module: LambdaModule, trie: Trie, memo: Optional[Dict] = None):
    """The pool sampler of a rational module: its count row mod p for the
    trie's step table, or None at a bad prime.  The module is reduced
    straight into rows by :func:`~preproj.module._reduce_rows`, with no
    matrix in between.  Every prime counts through ``memo``, or through a
    fresh dict of its own when it is None."""

    def sample(p: int) -> Optional[Tuple[int, ...]]:
        try:
            rows = _reduce_rows(module, p)
        except BadPrime:
            return None
        return _count_row(rows, trie, {} if memo is None else memo)

    return sample


def _window_polynomial(
    samples: Sequence[Tuple[int, int]], window: Sequence[int]
) -> Polynomial:
    """The polynomial through the sampled values at the window primes."""
    values = dict(samples)
    return interpolate([(p, values[p]) for p in window])


def _sweep(
    pool: _PrimePool,
    width: int,
    bound: int,
    name: Callable[[int], Tuple[Word, str]],
) -> List[Fit]:
    """The one fit of the package's count columns: one sweep over the
    fit windows, one per shift from 0 to MAX_WINDOW_SHIFT, in which each
    window checks every column still pending and a column keeps the
    first window it passes at.  Rows are drawn from the pool only as far
    as the shift at hand needs them.  Returns, per column, the window's
    shift, its primes, the validation primes and the fit's value at 1.

    A column's fit through the window rows must reproduce the
    VALIDATION_PRIMES rows after it and be integral at 1.  Interpolation
    is linear in the counts, so the window's :func:`lagrange_weights`
    (cached) turn each check into integer dot products with the column's
    window counts y: with common denominator D, the fit is integral at 1
    exactly when D divides w_1 . y, and it validates at p exactly when
    w_p . y equals D times the count at p.  A window checks all pending
    columns at once, one window row at a time: w_1 . y and each w_p . y
    of every pending column are entries of integer combinations of whole
    rows (:func:`_combine`).  No polynomial is built;
    :func:`_window_polynomial` makes one from the window counts when it
    is asked for.

    Raises:
        NonPolynomialCount: for the first column j that passes at no
            window, with the word and the description ``name(j)`` gives.
    """
    need = bound + 1
    fits: List[Optional[Fit]] = [None] * width
    pending = list(range(width))
    for shift in range(MAX_WINDOW_SHIFT + 1):
        rows = [pool.row(k) for k in range(shift, shift + need + VALIDATION_PRIMES)]
        drawn = tuple(p for p, _ in rows)
        window, validation = drawn[:need], drawn[need:]
        weights = lagrange_weights(window, (1, *validation))
        d = weights.denominator
        vecs = [vec for _, vec in rows]
        if len(pending) < width:
            vecs = [[vec[j] for j in pending] for vec in vecs]
        w_one, *w_checks = weights.at
        at_one = _combine(w_one, vecs[:need])
        ok = [not n % d for n in at_one]
        for w, vec in zip(w_checks, vecs[need:]):
            got = _combine(w, vecs[:need])
            ok = [o and n == d * y for o, n, y in zip(ok, got, vec)]
        for j, n, passed in zip(pending, at_one, ok):
            if passed:
                fits[j] = shift, window, validation, n // d
        pending = [j for j, passed in zip(pending, ok) if not passed]
        if not pending:
            return fits
    word, what = name(fits.index(None))
    raise NonPolynomialCount(
        word,
        f"{what} fail {VALIDATION_PRIMES}-prime validation "
        f"at every window shift up to {MAX_WINDOW_SHIFT}",
    )


def _combine(weights: Sequence[int], vecs: Sequence[Sequence[int]]) -> List[int]:
    """The integer combination sum of weights[k] * vecs[k] of whole rows,
    entry by entry."""
    (w, vec), *rest = zip(weights, vecs)
    total = [w * y for y in vec]
    for w, vec in rest:
        total = [t + w * y for t, y in zip(total, vec)]
    return total


def _profiles(
    words: Sequence[Word],
    coeffs: Sequence[Tuple[int, ...]],
    bound: int,
    rows: Sequence[PoolRow],
    fits: Sequence[Fit],
) -> Tuple[CountProfile, ...]:
    """The words' profiles from their fits by :func:`_sweep` and the
    pool rows drawn by then.  A profile records the rows drawn once its
    own word and every word before it had passed, which is what fitting
    the words one by one, in order, would have drawn by the end of that
    word's fit."""
    last = 0
    profiles = []
    for j, (word, c, (shift, window, validation, euler)) in enumerate(
        zip(words, coeffs, fits)
    ):
        last = max(last, shift)
        drawn = rows[: last + bound + 1 + VALIDATION_PRIMES]
        samples = tuple((p, vec[j]) for p, vec in drawn)
        profiles.append(
            CountProfile(word, c, bound, samples, window, validation, euler)
        )
    return tuple(profiles)


def euler_characteristic(
    m: LambdaModule,
    word: Word,
    coeffs: Optional[Sequence[int]] = None,
    prime_list: Optional[Sequence[int]] = None,
) -> CountProfile:
    """Euler characteristic of one flag variety of a rational module.

    Counts at good primes (ascending from 2, skipping primes where the
    module does not reduce), fits a polynomial of degree at most the
    graded flag bound, validates it at further primes, and evaluates at 1.

    Raises:
        NonPolynomialCount: when no window validates.
        InsufficientPrimes: when an explicit prime list is too short.
        ValueError: on a finite-field module, a content mismatch or a
            prime repeated in the prime list.
    """
    if not m.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    if word_content(m.quiver, word, coeffs) != m.dim:
        raise ValueError("word content differs from the module dimension")
    pool = _PrimePool(
        _module_sampler(m, _chain(m, word, coeffs, None)),
        prime_list,
    )
    word, bound = tuple(word), degree_bound(m)
    fits = _sweep(pool, 1, bound, lambda j: (word, f"word {word}: counts"))
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    (profile,) = _profiles((word,), (fixed,), bound, pool.rows, fits)
    return profile


def fingerprint(
    m: LambdaModule,
    prime_list: Optional[Sequence[int]] = None,
    memo: Optional[Dict] = None,
) -> DeltaFingerprint:
    """Euler characteristics over all words with the module's content.

    The count rows are computed in this process, one prime at a time and
    only as far as the fits need them; every word's fit shares them.

    Args:
        memo: optional shared cache, valid for one double quiver; every
            sampled prime counts through it.  When omitted, each prime
            counts through a fresh dict that is dropped after its row.

    Raises:
        NonPolynomialCount: with the first offending word.
        InsufficientPrimes: when an explicit prime list is too short.
        ValueError: on a finite-field module, a prime repeated in the
            prime list, or a memo that holds another double quiver's counts.
    """
    if not m.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    words, trie = _word_table(m.quiver, m.dim, memo)
    pool = _PrimePool(_module_sampler(m, trie, memo), prime_list)
    fits = _sweep(
        pool,
        len(words),
        degree_bound(m),
        lambda j: (words[j], f"word {words[j]}: counts"),
    )
    return DeltaFingerprint(
        module=m,
        words=words,
        chi=tuple(euler for *_, euler in fits),
        _fits=tuple(fits),
        _rows=pool.rows,
    )


def split_chi_sum(
    left: DeltaFingerprint, right: DeltaFingerprint, word: Word
) -> int:
    """The direct-sum factorization's right side for a multiplicity-one word.

    Sums, over all splittings of the word's coefficients between the two
    summands, the product of the subword Euler characteristics.
    """
    if left.module.dq != right.module.dq:
        raise ValueError("fingerprints live over different double quivers")
    q = left.module.quiver
    lt, rt = left._chi_by_word, right._chi_by_word
    total = 0
    for c1, c2 in enumerate_splittings(q, word, None, left.dim, right.dim):
        w1 = tuple(v for v, c in zip(word, c1) if c)
        w2 = tuple(v for v, c in zip(word, c2) if c)
        total += lt[w1] * rt[w2]
    return total


def count_flags_by_splitting(
    left: LambdaModule,
    right: LambdaModule,
    word: Word,
    coeffs: Optional[Sequence[int]] = None,
    memo: Optional[Dict] = None,
) -> Dict[SplitKey, int]:
    """Counts of the flags of left + right, graded by splitting type.

    Every flag of the direct sum induces a flag on the right summand by
    intersection and on the left by projection; the splitting type
    (c', c'') records how many of each step's composition factors come
    from either side.  The returned counts partition the direct sum's
    total flag count; the per-type counting polynomials evaluate at 1 to
    the product of the two subword Euler characteristics, which is the
    counting-level face of the direct-sum factorization (the plain
    product of raw counts does NOT match the total, because the strata
    fiber over the flag pairs with positive-dimensional affine fibers).

    The direct sum lists the right summand's coordinates last, so each
    splitting type is one step sequence that tracks the right summand,
    and the table is one :func:`_count_row` over them.  With ``memo``, a
    multiplicity-one word is read from the row of every splitting type
    of every word with the sum's content, which the first such word
    counts and every later word of the pair at this prime looks up.
    Without it, or for a word with coefficients, only the word's own
    splitting types are counted.  The direct sum is glued once per pair
    and prime of the memo, and kept in it beside the counts.
    """
    if left.field.is_rational or left.field != right.field:
        raise ValueError("need two modules over one common prime field")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    dim = tuple(a + b for a, b in zip(left.dim, right.dim))
    if word_content(left.quiver, word, coeffs) != dim:
        raise ValueError("word content differs from the module dimension")
    one_word = None if memo is not None and _multiplicity_one(coeffs) else word
    if memo is None:
        memo = {}
    _guard(memo, _ends(left.dq))
    key = (_GLUE_KEY, left.field.p) + tuple(
        (m.dim, tuple(x.entries for x in m.action)) for m in (left, right)
    )
    whole = memo.get(key)
    if whole is None:
        whole = memo[key] = _glue(left, right, None)
    table = _split_table(left.quiver, left.dim, right.dim, memo, one_word, coeffs)
    keys, trie = table[tuple(word)]
    counts = _count_row(whole, trie, memo)
    return {key: n for key, n in zip(keys, counts) if n}


def split_euler_table(
    left: LambdaModule,
    right: LambdaModule,
    word: Word,
    coeffs: Optional[Sequence[int]] = None,
) -> Dict[SplitKey, int]:
    """Per-splitting Euler characteristics of the direct sum's flags.

    The direct sum is built once over the rationals and sampled like a
    fingerprint, one column per splitting type (the step table of
    :func:`count_flags_by_splitting`): its reduction mod p is the sum of
    the reduced summands, and is bad exactly where one of them is.  Each
    column is fitted on the first window it passes at (:func:`_sweep`)
    and evaluated at 1; values are 0 for types realized by no flag.  By
    the direct-sum factorization every value equals the product of the
    two subword Euler characteristics.
    """
    if not left.field.is_rational or not right.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    whole = direct_sum(left, right)
    if word_content(whole.quiver, word, coeffs) != whole.dim:
        raise ValueError("word content differs from the module dimension")
    table = _split_table(whole.quiver, left.dim, right.dim, None, word, coeffs)
    keys, trie = table[tuple(word)]
    bound = degree_bound(whole)
    pool = _PrimePool(_module_sampler(whole, trie), None)
    what = f"word {tuple(word)}: counts"
    fits = _sweep(pool, len(keys), bound, lambda j: (tuple(word), what))
    return {key: euler for key, (*_, euler) in zip(keys, fits)}
