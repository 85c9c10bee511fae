"""Flag counting over prime fields and Euler characteristics at q = 1.

A word with coefficients prescribes a composition series type; the number
of action-stable flags of that type over F_p is computed by a subspace
recursion.  Counting at enough good primes and interpolating recovers the
counting polynomial, whose value at 1 is the Euler characteristic.  The
polynomial-count assumption is never trusted silently: every fit must
reproduce the counts at extra validation primes or the computation aborts
with :class:`NonPolynomialCount`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .fields import Field, primes
from .linalg import Matrix, Polynomial, Subspace, hstack, interpolate, rref
from .module import BadPrime, LambdaModule, direct_sum, reduce_mod_p, restrict
from .quiver import Word, enumerate_splittings, enumerate_words, word_content

# One fitted window must reproduce the counts at this many further primes.
VALIDATION_PRIMES = 2
# How many times the fit window may slide past small primes where the
# module degenerates (reduction is defined but off the generic pattern).
MAX_WINDOW_SHIFT = 6

Steps = Tuple[Tuple[str, int, int], ...]


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
    word: Word,
    coeffs: Optional[Sequence[int]],
    drops: Optional[Sequence[int]] = None,
) -> Steps:
    """The effective (vertex, multiplicity, drop) steps; zero coefficients
    drop out.  ``drops`` default to 0, which tracks nothing."""
    if coeffs is None:
        coeffs = [1] * len(word)
    if drops is None:
        drops = [0] * len(word)
    return tuple((v, c, d) for v, c, d in zip(word, coeffs, drops) if c > 0)


def enumerate_subspaces(field: Field, ambient: int, dim: int) -> Iterator[Matrix]:
    """All dim-dimensional subspaces of field^ambient, one basis matrix each.

    Bases are emitted as ambient x dim matrices, each subspace exactly once
    (the transposes run over reduced row echelon forms), in a fixed order.

    Raises:
        ValueError: when the enumeration is infinite (rational field with
            0 < dim < ambient).
    """
    if dim < 0 or dim > ambient:
        return
    if dim == 0:
        yield Matrix.zeros(field, ambient, 0)
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
            yield Matrix.from_rows(field, rows, ncols=ambient).transpose()


def _incoming_image(m: LambdaModule, v: str) -> Subspace:
    """The sum of the images of all doubled arrows ending at v."""
    mats = [m.x(a.name) for a in m.dq.arrows_into(v)]
    if not mats:
        return Subspace.zero(m.field, m.dim_of(v))
    return Subspace.span(hstack(mats))


def _complement_columns(u: Subspace) -> Matrix:
    """Standard basis columns completing u to a basis of its ambient space."""
    ident = Matrix.identity(u.field, u.ambient)
    _, piv = rref(hstack([u.basis, ident]))
    cols = [ident.col(j - u.dim) for j in piv if j >= u.dim]
    return Matrix.from_cols(u.field, cols, nrows=u.ambient)


def _count(m: LambdaModule, steps: Steps, memo: Dict) -> int:
    """Stable flag count by peeling one semisimple quotient per step.

    A flag step (v, c, drop) keeps a codimension-c subspace of the v-piece
    that contains every incoming image (so the quotient is semisimple at
    v) and is automatically stable; the kept subspaces are enumerated
    explicitly and the restriction recursed on.

    The drops grade the count by a tracked submodule.  At vertex v it is
    spanned by the last t coordinates, where t is the sum of the remaining
    drops at v.  A kept piece meets it in the span of the basis columns
    that pivot in those rows, and the step counts the piece only when
    that span has dimension t - drop.  Those columns come last in the
    reduced column echelon basis, so in the restriction the tracked part
    is again spanned by the last coordinates.  With every drop 0 nothing
    is tracked.  The memo is shared across words of one module family at
    one prime.
    """
    if not steps:
        return 1
    key = (m.canonical_key(), steps)
    cached = memo.get(key)
    if cached is not None:
        return cached
    v, c, drop = steps[0]
    u = _incoming_image(m, v)
    keep = m.dim_of(v) - c
    tracked = sum(d for w, _, d in steps if w == v)
    first_tracked = m.dim_of(v) - tracked
    total = 0
    if keep >= u.dim:
        comp = _complement_columns(u)
        for small in enumerate_subspaces(m.field, comp.ncols, keep - u.dim):
            kept = Subspace.span(hstack([u.basis, comp.mul(small)]))
            if sum(r >= first_tracked for r in kept.pivots) == tracked - drop:
                total += _count(restrict(m, v, kept), steps[1:], memo)
    memo[key] = total
    return total


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
        ValueError: on a rational module or a content mismatch.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    if word_content(m.quiver, word, coeffs) != m.dim:
        raise ValueError("word content differs from the module dimension")
    n = _count(m, _steps(word, coeffs), {} if memo is None else memo)
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    return FlagCount(m, tuple(word), fixed, m.field.p, n)


def count_flags_fp(m: LambdaModule, memo: Optional[Dict] = None) -> Tuple[int, ...]:
    """Raw counts over every word with content dim m, in enumeration order.

    This is the count fingerprint of a finite-field module at its own
    prime; no interpolation is involved.
    """
    if m.field.is_rational:
        raise ValueError("flag counting needs a prime field; reduce first")
    shared: Dict = {} if memo is None else memo
    return tuple(
        _count(m, _steps(w, None), shared)
        for w in enumerate_words(m.quiver, m.dim)
    )


def degree_bound(m: LambdaModule) -> int:
    """Upper bound on the counting polynomial degree for any word.

    Every stable flag set embeds in the product of the complete graded
    flag varieties, whose count is a polynomial of this degree.
    """
    return sum(d * (d - 1) // 2 for d in m.dim)


class _PrimePool:
    """Lazily sampled count rows at successive good primes.

    Row k is the k-th prime where the sampler succeeds, paired with the
    counts it returned there.  Rows are computed on demand and shared
    between the per-column fits, so no prime is counted twice.  A sampler
    returns None at a prime the module does not reduce at.
    """

    def __init__(self, sampler, candidates: Iterator[int]) -> None:
        self._sampler = sampler
        self._candidates = candidates
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
            vec = self._sampler(p)
            if vec is not None:
                self._rows.append((p, vec))
        return self._rows[k]


def _module_sampler(module: LambdaModule, steps: Tuple[Steps, ...]):
    def sample(p: int) -> Optional[Tuple[int, ...]]:
        try:
            mp = reduce_mod_p(module, p)
        except BadPrime:
            return None
        memo: Dict = {}
        return tuple(_count(mp, s, memo) for s in steps)

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
    """
    need = bound + 1
    for shift in range(MAX_WINDOW_SHIFT + 1):
        rows = [
            pool.row(k) for k in range(shift, shift + need + VALIDATION_PRIMES)
        ]
        fits: List[Tuple[Polynomial, int]] = []
        for j in columns:
            poly = interpolate([(p, vec[j]) for p, vec in rows[:need]])
            at_one = poly(1)
            if at_one.denominator != 1 or any(
                poly(p) != vec[j] for p, vec in rows[need:]
            ):
                break
            fits.append((poly, int(at_one)))
        else:
            return (
                tuple(p for p, _ in rows[:need]),
                tuple(p for p, _ in rows[need:]),
                tuple(fits),
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
        ValueError: on a finite-field module or content mismatch.
    """
    if not m.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    if word_content(m.quiver, word, coeffs) != m.dim:
        raise ValueError("word content differs from the module dimension")
    candidates = iter(prime_list) if prime_list is not None else primes()
    pool = _PrimePool(_module_sampler(m, (_steps(word, coeffs),)), candidates)
    fixed = tuple(coeffs) if coeffs is not None else (1,) * len(word)
    return _fit_word(pool, 0, degree_bound(m), tuple(word), fixed)


def fingerprint(
    m: LambdaModule,
    prime_list: Optional[Sequence[int]] = None,
) -> DeltaFingerprint:
    """Euler characteristics over all words with the module's content.

    The count rows are computed in this process, one prime at a time and
    only as far as the fits need them; every word's fit shares them.

    Raises:
        NonPolynomialCount: with the first offending word.
        InsufficientPrimes: when an explicit prime list is too short.
    """
    if not m.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    words = enumerate_words(m.quiver, m.dim)
    steps = tuple(_steps(w, None) for w in words)
    bound = degree_bound(m)
    candidates = iter(prime_list) if prime_list is not None else primes()
    pool = _PrimePool(_module_sampler(m, steps), candidates)
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


SplitKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


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
    splitting type is one :func:`_count` that tracks the right summand.
    """
    if left.field.is_rational or left.field != right.field:
        raise ValueError("need two modules over one common prime field")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    whole = direct_sum(left, right)
    if word_content(whole.quiver, word, coeffs) != whole.dim:
        raise ValueError("word content differs from the module dimension")
    shared: Dict = {} if memo is None else memo
    out: Dict[SplitKey, int] = {}
    for c_left, c_right in enumerate_splittings(
        whole.quiver, word, coeffs, left.dim, right.dim
    ):
        n = _count(whole, _steps(word, coeffs, c_right), shared)
        if n:
            out[(c_left, c_right)] = n
    return out


def split_euler_table(
    left: LambdaModule,
    right: LambdaModule,
    word: Word,
    coeffs: Optional[Sequence[int]] = None,
    prime_list: Optional[Sequence[int]] = None,
) -> Dict[SplitKey, int]:
    """Per-splitting Euler characteristics of the direct sum's flags.

    The splitting types' counts are fitted on one shared window and
    evaluated at 1 like a whole flag variety's; values are 0 for types
    realized by no flag.  By the direct-sum factorization every value equals the product
    of the two subword Euler characteristics.
    """
    if not left.field.is_rational or not right.field.is_rational:
        raise ValueError("Euler characteristics are computed over the rationals")
    if left.dq != right.dq:
        raise ValueError("modules live over different double quivers")
    keys = enumerate_splittings(left.quiver, word, coeffs, left.dim, right.dim)
    bound = degree_bound(direct_sum(left, right))

    def sample(p: int) -> Optional[Tuple[int, ...]]:
        try:
            lp, rp = reduce_mod_p(left, p), reduce_mod_p(right, p)
        except BadPrime:
            return None
        dist = count_flags_by_splitting(lp, rp, word, coeffs)
        return tuple(dist.get(k, 0) for k in keys)

    candidates = iter(prime_list) if prime_list is not None else primes()
    pool = _PrimePool(sample, candidates)
    _, _, fits = _fit_columns(
        pool, range(len(keys)), bound, tuple(word), f"word {tuple(word)}: counts"
    )
    return {k: euler for k, (_, euler) in zip(keys, fits)}
