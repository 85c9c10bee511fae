"""Flag counting over prime fields and Euler characteristics at q = 1.

A word with coefficients prescribes a composition series type; the number
of action-stable flags of that type over F_p is computed by a subspace
recursion.  Counting at enough good primes and interpolating recovers the
counting polynomial, whose value at 1 is the Euler characteristic.  The
polynomial-count assumption is never trusted silently: every fit must
reproduce the counts at extra validation primes or the computation aborts
with :class:`NonPolynomialCount`.

Interpolation is linear in the counts, so every fit through one window of
primes shares that window's integer Lagrange weights (cached in
:func:`~preproj.linalg.lagrange_weights`): the value at 1 and the values
at the validation primes are integer dot products with the window counts,
and only an accepted fit is turned into a :class:`Polynomial`.

Counts and child lists are memoized in a plain dict under keys that start
with the prime and hold the module's dimension vector and rows, so one
dict can serve every module and every prime of one double quiver.  A
single count or fingerprint starts a fresh dict per prime; a verification
job (see :mod:`preproj.verify`) passes one dict to all the modules it
counts, so an anchor's row counted by its fingerprint is not counted again
when the strata are matched against it.  The dict records the arrows of
the first module counted through it and refuses a module of another
double quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import mul
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .fields import Field, primes
from .linalg import Polynomial, echelon, lagrange_weights
from .module import (
    BadPrime,
    LambdaModule,
    RowModule,
    Rows,
    direct_sum,
    reduce_mod_p,
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

Steps = Tuple[Tuple[int, int, int], ...]
SplitKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


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
    polynomial: Polynomial
    euler: int


@dataclass(frozen=True)
class DeltaFingerprint:
    """Euler characteristics over every word with the module's content.

    Two modules of the same dimension vector define the same counting
    functional exactly when their fingerprints agree coordinatewise.
    """

    module: LambdaModule
    words: Tuple[Word, ...]
    chi: Tuple[int, ...]
    profiles: Tuple[CountProfile, ...]

    @property
    def dim(self) -> Tuple[int, ...]:
        return self.module.dim

    def chi_of(self, word: Word) -> int:
        try:
            return self.chi[self.words.index(tuple(word))]
        except ValueError:
            raise KeyError(f"word {tuple(word)} has the wrong content") from None

    def table(self) -> Dict[Word, int]:
        return dict(zip(self.words, self.chi))


def _steps(
    q: Quiver,
    word: Word,
    coeffs: Optional[Sequence[int]],
    drops: Optional[Sequence[int]] = None,
) -> Steps:
    """The effective (vertex index, multiplicity, drop) steps; zero
    coefficients drop out.  ``drops`` default to 0, which tracks nothing."""
    if coeffs is None:
        coeffs = [1] * len(word)
    if drops is None:
        drops = [0] * len(word)
    idx = q.vertex_index
    return tuple((idx[v], c, d) for v, c, d in zip(word, coeffs, drops) if c > 0)


def _word_steps(
    q: Quiver, dim: Tuple[int, ...], memo: Optional[Dict] = None
) -> Tuple[Tuple[Word, ...], Tuple[Steps, ...]]:
    """Every word with content dim, in enumeration order, and its steps;
    kept in ``memo`` under (q, dim), when one is given, for the next
    module of the same quiver and dimension vector."""
    key = (q, dim)
    table = None if memo is None else memo.get(key)
    if table is None:
        words = enumerate_words(q, dim)
        table = words, tuple(_steps(q, w, None) for w in words)
        if memo is not None:
            memo[key] = table
    return table


def _split_steps(
    left: LambdaModule, right: LambdaModule, word: Word, coeffs: Optional[Sequence[int]]
) -> Tuple[Tuple[SplitKey, ...], Tuple[Steps, ...]]:
    """Every splitting type (c', c'') of (word, coeffs) between the two
    summands, and the steps that count it on their direct sum: the drops
    are c'', the right summand's share."""
    q = left.quiver
    keys = enumerate_splittings(q, word, coeffs, left.dim, right.dim)
    return keys, tuple(_steps(q, word, coeffs, c_right) for _, c_right in keys)


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
    as (pivots, restricted module).

    The incoming columns are row reduced to u.  A piece is u plus a
    subspace in the coordinates that are not pivots of u; lifting that
    subspace's echelon rows and clearing u's rows at their pivots gives
    the piece's reduced row echelon basis directly.  The list is cached
    in the memo under (p, dim, rows, v, c), so every word and splitting
    type that reaches this node shares one enumeration.
    """
    p = m.field.p
    key = (p, m.dim, m.rows, v, c)
    children = memo.get(key)
    if children is not None:
        return children
    d = m.dim[v]
    incoming = [
        col
        for rows, (_, _, target) in zip(m.rows, m.arrows)
        if target == v
        for col in zip(*rows)
    ]
    u = echelon(incoming, p)
    children = []
    if d - c >= len(u):
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
            children.append((pivots, restrict_rows(m, v, kept, pivots)))
    memo[key] = children
    return children


def _count(m: RowModule, steps: Steps, memo: Dict) -> int:
    """Stable flag count by peeling one semisimple quotient per step.

    A flag step (v, c, drop) keeps a codimension-c subspace of the v-piece
    that contains every incoming image (so the quotient is semisimple at
    v) and is automatically stable; :func:`_children` lists the kept
    pieces with their restrictions, and the count recurses on each.

    The drops grade the count by a tracked submodule.  At vertex v it is
    spanned by the last t coordinates, where t is the sum of the remaining
    drops at v.  A kept piece meets it in the span of the echelon rows
    that pivot in those coordinates, and the step counts the piece only
    when that span has dimension t - drop.  Those rows come last in the
    echelon basis, so in the restriction the tracked part is again spanned
    by the last coordinates.  With every drop 0 nothing is tracked.

    Counts are memoized under (p, dim, rows, steps) and child lists under
    (p, dim, rows, v, c).  The keys hold no arrows, so one dict may serve
    any modules and primes of one double quiver: the words and splitting
    types of one module, or every module of one verification job.
    """
    if not steps:
        return 1
    key = (m.field.p, m.dim, m.rows, steps)
    cached = memo.get(key)
    if cached is not None:
        return cached
    v, c, drop = steps[0]
    tracked = sum(d for w, _, d in steps if w == v)
    first_tracked = m.dim[v] - tracked
    rest = steps[1:]
    total = 0
    for pivots, child in _children(m, v, c, memo):
        if sum(r >= first_tracked for r in pivots) == tracked - drop:
            total += _count(child, rest, memo)
    memo[key] = total
    return total


def _count_row(
    m: LambdaModule, steps: Sequence[Steps], memo: Dict
) -> Tuple[int, ...]:
    """The stable flag counts of a finite-field module, one per entry of
    a step table, through one shared memo.  Every count the package takes
    (words, fingerprint rows, split tables, strata) is taken here.

    The memo may hold the counts of other modules and primes, but only of
    one double quiver: on first use it records the module's arrows, and
    a module with other arrows raises ValueError.
    """
    rm = RowModule.of(m)
    arrows = memo.setdefault(_ARROWS_KEY, rm.arrows)
    if arrows != rm.arrows:
        raise ValueError("the memo holds counts of another double quiver")
    return tuple(_count(rm, s, memo) for s in steps)


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
        memo: optional shared cache, valid for one double quiver.

    Raises:
        ValueError: on a rational module, a content mismatch or a memo
            that holds another double quiver's counts.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    if word_content(m.quiver, word, coeffs) != m.dim:
        raise ValueError("word content differs from the module dimension")
    (n,) = _count_row(
        m, (_steps(m.quiver, word, coeffs),), {} if memo is None else memo
    )
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    return FlagCount(m, tuple(word), fixed, m.field.p, n)


def count_flags_fp(m: LambdaModule) -> Tuple[int, ...]:
    """Raw counts over every word with content dim m, in enumeration order.

    This is the count fingerprint of a finite-field module at its own
    prime; no interpolation is involved.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    _, steps = _word_steps(m.quiver, m.dim)
    return _count_row(m, steps, {})


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
        self._rows: List[Tuple[int, Tuple[int, ...]]] = []

    @property
    def rows(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple(self._rows)

    def row(self, k: int) -> Tuple[int, Tuple[int, ...]]:
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


def _module_sampler(
    module: LambdaModule, steps: Tuple[Steps, ...], memo: Optional[Dict] = None
):
    """The pool sampler of a rational module: its count row mod p for the
    step table, or None at a bad prime.  Every prime counts through
    ``memo``, or through a fresh dict of its own when it is None."""

    def sample(p: int) -> Optional[Tuple[int, ...]]:
        try:
            mp = reduce_mod_p(module, p)
        except BadPrime:
            return None
        return _count_row(mp, steps, {} if memo is None else memo)

    return sample


def _fit_columns(
    pool: _PrimePool,
    columns: Sequence[int],
    bound: int,
    word: Word,
    what: str,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[Tuple[Polynomial, int], ...]]:
    """Fit several count columns on one shared sliding window.

    A column's fit through the window rows must reproduce the
    VALIDATION_PRIMES rows after it and be integral at 1.  When a column
    fails (typically because the module degenerates at a small prime) the
    window of every column slides up one prime, at most MAX_WINDOW_SHIFT
    times.  Returns the window primes, the validation primes and, per
    column, the polynomial and its value at 1.

    Interpolation is linear in the counts, so a window's
    :func:`lagrange_weights` (cached) turn each check into integer dot
    products with the column's window counts y: with common denominator
    D, the fit is integral at 1 exactly when D divides w_1 . y, and it
    validates at p exactly when w_p . y equals D times the count at p.
    Polynomials are built only once every column has passed.
    """
    need = bound + 1
    for shift in range(MAX_WINDOW_SHIFT + 1):
        rows = [
            pool.row(k) for k in range(shift, shift + need + VALIDATION_PRIMES)
        ]
        window = tuple(p for p, _ in rows[:need])
        validation = rows[need:]
        weights = lagrange_weights(window, (1, *(p for p, _ in validation)))
        d = weights.denominator
        w_one, *w_checks = weights.at
        passed: List[Tuple[List[int], int]] = []
        for j in columns:
            ys = [vec[j] for _, vec in rows[:need]]
            at_one, rem = divmod(sum(map(mul, w_one, ys)), d)
            if rem or any(
                sum(map(mul, w, ys)) != d * vec[j]
                for w, (_, vec) in zip(w_checks, validation)
            ):
                break
            passed.append((ys, at_one))
        else:
            return (
                window,
                tuple(p for p, _ in validation),
                tuple((weights.polynomial(ys), at_one) for ys, at_one in passed),
            )
    raise NonPolynomialCount(
        word,
        f"{what} fail {VALIDATION_PRIMES}-prime validation "
        f"at every window shift up to {MAX_WINDOW_SHIFT}",
    )


def _fit_word(
    pool: _PrimePool,
    index: int,
    bound: int,
    word: Word,
    coeffs: Tuple[int, ...],
) -> CountProfile:
    """The fit of one word's count column, with its audit trail."""
    window, validation, fits = _fit_columns(
        pool, (index,), bound, word, f"word {word}: counts"
    )
    poly, euler = fits[0]
    return CountProfile(
        word=word,
        coeffs=coeffs,
        degree_bound=bound,
        samples=tuple((p, vec[index]) for p, vec in pool.rows),
        window=window,
        validation=validation,
        polynomial=poly,
        euler=euler,
    )


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
        _module_sampler(m, (_steps(m.quiver, word, coeffs),)), prime_list
    )
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    return _fit_word(pool, 0, degree_bound(m), tuple(word), fixed)


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
    words, steps = _word_steps(m.quiver, m.dim, memo)
    bound = degree_bound(m)
    pool = _PrimePool(_module_sampler(m, steps, memo), prime_list)
    profiles = tuple(
        _fit_word(pool, j, bound, w, (1,) * len(w)) for j, w in enumerate(words)
    )
    return DeltaFingerprint(
        module=m,
        words=words,
        chi=tuple(pr.euler for pr in profiles),
        profiles=profiles,
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
    lt: Mapping[Word, int] = left.table()
    rt: Mapping[Word, int] = right.table()
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
    and the table is one :func:`_count_row` over them.
    """
    if left.field.is_rational or left.field != right.field:
        raise ValueError("need two modules over one common prime field")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    whole = direct_sum(left, right)
    if word_content(whole.quiver, word, coeffs) != whole.dim:
        raise ValueError("word content differs from the module dimension")
    keys, steps = _split_steps(left, right, word, coeffs)
    counts = _count_row(whole, steps, {} if memo is None else memo)
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
    the reduced summands, and is bad exactly where one of them is.  The
    columns are fitted on one shared window and evaluated at 1; values
    are 0 for types realized by no flag.  By the direct-sum factorization
    every value equals the product of the two subword Euler
    characteristics.
    """
    if not left.field.is_rational or not right.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    keys, steps = _split_steps(left, right, word, coeffs)
    whole = direct_sum(left, right)
    bound = degree_bound(whole)
    pool = _PrimePool(_module_sampler(whole, steps), None)
    _, _, fits = _fit_columns(
        pool, range(len(keys)), bound, tuple(word), f"word {tuple(word)}: counts"
    )
    return {k: euler for k, (_, euler) in zip(keys, fits)}
