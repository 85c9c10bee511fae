"""Machine checks of the two flag-multiplication identities.

The pairwise identity says: with n = dim Ext^1(x', x'') > 0,

    n * delta_{x' + x''}  =  sum over strata  (chi of the stratum inside
        P Ext^1(x', x'') plus chi of the stratum inside P Ext^1(x'', x'))
        times delta of the stratum's middle term,

where delta is the Euler-characteristic fingerprint and x' + x'' is the
direct sum.  The unique-extension identity is the n = 1 case, with the
two middle terms appearing directly and coefficient 1.

Strata are found by brute force over prime fields: every projective
extension class is expanded against the chosen Ext^1 basis, the count
vector of its middle term is matched against the supplied anchor
modules, and the per-anchor group sizes are interpolated across primes
(polynomials in p of degree below dim Ext^1) and evaluated at 1.

Every module a check counts has the dimension vector of the direct sum,
and all are counted at the same few primes.  So each check, and each
stratification called on its own, is one job with one count memo (see
:mod:`preproj.flags`): the anchors' fingerprints, the middle terms of
the extension classes and the direct sum all count through it, and a
count row or child list found for one of them is reused by the others.
The memo also keeps the presentations of Ext^1, so a job presents each
direction once per field.  A report reads every result once: the right
side is summed stratum by stratum, and the primes it lists are those
the fingerprints' sample pools and the strata drew.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from .fields import primes
from .flags import (
    DeltaFingerprint,
    InsufficientPrimes,
    _count_row,
    _PrimePool,
    _sweep,
    _window_polynomial,
    _word_table,
    enumerate_subspaces,
    fingerprint,
)
from .homext import (
    Derivation,
    ExtPresentation,
    _extension,
    ext_presentation,
    is_inner,
    middle_term,
)
from .linalg import Polynomial, _echelon_ints, _products
from .module import (
    BadPrime,
    LambdaModule,
    _int_actions,
    _reduce_rows,
    direct_sum,
    reduce_mod_p,
)
from .quiver import Word

# Hard cap on candidate primes when none are given explicitly, so a pair
# of anchors that stay indistinguishable forever terminates with an
# AnchorCollision instead of marching up the primes.
CANDIDATE_CAP = 32


class UnanchoredStratum(RuntimeError):
    """Some extension class's count vector matches no anchor module."""


class AnchorCollision(RuntimeError):
    """Two anchors stayed indistinguishable at every usable prime."""


@dataclass(frozen=True)
class Stratum:
    """One anchored stratum of a projective extension space.

    ``sizes`` records, for every sampled prime, how many projective
    classes produced the anchor's count vector there; ``polynomial``
    is fitted on the ``window`` primes, the first at which the sizes
    pass, and checked on the ``validation`` primes, and ``chi_proj`` is
    its value at 1, the Euler characteristic of the stratum.
    """

    name: str
    anchor: LambdaModule
    fingerprint: DeltaFingerprint
    sizes: Tuple[Tuple[int, int], ...]
    window: Tuple[int, ...]
    validation: Tuple[int, ...]
    chi_proj: int

    @cached_property
    def polynomial(self) -> Polynomial:
        """The accepted fit, interpolated through the window sizes when
        first read."""
        return _window_polynomial(self.sizes, self.window)


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of one identity, evaluated word by word.

    ``strata_fwd`` and ``strata_bwd`` are empty for the unique-extension
    identity, whose right side is the two middle-term fingerprints.
    """

    method: str
    left_module: LambdaModule
    right_module: LambdaModule
    ext1_dim: int
    strata_fwd: Tuple[Stratum, ...]
    strata_bwd: Tuple[Stratum, ...]
    words: Tuple[Word, ...]
    left_values: Tuple[int, ...]
    right_values: Tuple[int, ...]
    primes_used: Tuple[int, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.left_values == self.right_values

    def mismatches(self) -> Tuple[Word, ...]:
        return tuple(
            w
            for w, a, b in zip(self.words, self.left_values, self.right_values)
            if a != b
        )


def _class_derivation(columns: Sequence, vec: Sequence[int], p: int) -> Sequence[int]:
    """The packed coordinates mod p of the class sum_i vec[i] e_i, where
    ``columns`` holds the e_i's packed coordinates position by position."""
    return _products(p, [vec], columns)[0]


def _presentation(x: LambdaModule, y: LambdaModule, memo: Dict) -> ExtPresentation:
    """The presentation of Ext^1(x, y), kept in the job's ``memo``, so a
    job presents each direction once over Q and once per prime."""
    key = ("ext1", x, y)
    pres = memo.get(key)
    if pres is None:
        pres = memo[key] = ext_presentation(x, y)
    return pres


def _arrow_ranks(m: LambdaModule) -> Tuple[int, ...]:
    """The rank of every arrow's action matrix, over the module's field."""
    (rows,), _ = _int_actions(m)
    return tuple(len(_echelon_ints(r, m.field.p)) for r in rows)


def stratify_proj_ext(
    xp: LambdaModule,
    xpp: LambdaModule,
    anchors: Mapping[str, LambdaModule],
    prime_list: Optional[Sequence[int]] = None,
    memo: Optional[Dict] = None,
) -> Tuple[Stratum, ...]:
    """Anchored strata of the projective space of Ext^1(xp, xpp) classes.

    At each usable prime every projective class is expanded against the
    Ext^1 basis of the reduced pair, its middle term is counted over the
    one step table of the anchors' dimension vector, and the classes are
    grouped by count vector; each group must match exactly one anchor.
    A prime is skipped when something fails to reduce, when an arrow of
    xp or xpp acts with lower rank mod p than over Q (the reduced pair
    need not be the pair's own reduction up to isomorphism then), when a
    Hom or Ext^1 dimension jumps, or when two anchors become
    indistinguishable there.  Anchors are matched by their counts alone
    and are not rank-checked.  Each anchor's group sizes are then fitted
    across the sampled primes like a fingerprint word, on the first
    window at which they pass.

    Args:
        xp, xpp: rational modules over one double quiver; a class in
            Ext^1(xp, xpp) has middle term with submodule xpp and
            quotient xp.
        anchors: ordered name-to-module mapping, all rational, all with
            the dimension vector of the direct sum.
        prime_list: explicit primes to sample (default: ascending from 2,
            capped at CANDIDATE_CAP candidates).
        memo: the job's count memo, valid for one double quiver; the
            anchors' fingerprints and every sampled prime count through
            it, so an anchor's row is counted once per prime, and it
            keeps the presentations of Ext^1 over Q and mod p.  When
            omitted, the stratification is a job of its own and counts
            through one fresh dict.

    Raises:
        UnanchoredStratum: a class matched no anchor at some prime.
        AnchorCollision: the primes ran out with anchors still colliding.
        NonPolynomialCount: naming the anchor whose group sizes fail
            validation at every window.
        InsufficientPrimes: the primes ran out for another reason.
        ValueError: Ext^1(xp, xpp) = 0, an anchor is unusable, a prime
            is repeated in the prime list, or the memo holds another
            double quiver's counts.
    """
    if not (xp.field.is_rational and xpp.field.is_rational):
        raise ValueError("stratification starts from rational modules")
    if memo is None:
        memo = {}
    pres = _presentation(xp, xpp, memo)
    n = pres.ext1_dim
    if n == 0:
        raise ValueError("Ext^1 vanishes, there is nothing to stratify")
    back = _presentation(xpp, xp, memo)
    names = tuple(anchors)
    mods = tuple(anchors[name] for name in names)
    want = tuple(a + b for a, b in zip(xp.dim, xpp.dim))
    for name, mod in zip(names, mods):
        if mod.dq != xp.dq:
            raise ValueError(f"anchor {name} lives over a different quiver")
        if not mod.field.is_rational:
            raise ValueError(f"anchor {name} is not over the rationals")
        if mod.dim != want:
            raise ValueError(
                f"anchor {name} has dimension vector {mod.dim}, expected {want}"
            )
    fps = tuple(fingerprint(mod, prime_list, memo=memo) for mod in mods)
    _, trie = _word_table(xp.quiver, want, memo)
    ranks = _arrow_ranks(xp), _arrow_ranks(xpp)
    collisions: List[int] = []

    def sample(p: int) -> Optional[Tuple[int, ...]]:
        try:
            xp_p = reduce_mod_p(xp, p)
            xpp_p = reduce_mod_p(xpp, p)
            mods_p = [_reduce_rows(mod, p) for mod in mods]
        except BadPrime:
            return None
        if (_arrow_ranks(xp_p), _arrow_ranks(xpp_p)) != ranks:
            return None
        pres_p = _presentation(xp_p, xpp_p, memo)
        back_p = _presentation(xpp_p, xp_p, memo)
        if (
            pres_p.hom_dim != pres.hom_dim
            or pres_p.ext1_dim != n
            or back_p.hom_dim != back.hom_dim
            or back_p.ext1_dim != back.ext1_dim
        ):
            return None
        keys = [_count_row(mod_p, trie, memo) for mod_p in mods_p]
        if len(set(keys)) != len(keys):
            collisions.append(p)
            return None
        groups: Dict[Tuple[int, ...], int] = {}
        witness: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # over F_p the presentation's stored int rows are d1 itself (D = 1)
        d1 = pres_p._d1
        # and its chosen Ext^1 rows are the classes (leading entries 1)
        columns = list(zip(*pres_p._ext1_rows.values()))
        # one echelon row per point of P^{n-1}: first nonzero entry 1
        for (vec,) in enumerate_subspaces(xp_p.field, n, 1):
            coords = _class_derivation(columns, vec, p)
            key = _count_row(_extension(xp_p, xpp_p, d1, coords), trie, memo)
            groups[key] = groups.get(key, 0) + 1
            witness.setdefault(key, vec)
        sizes = tuple(groups.pop(key, 0) for key in keys)
        if groups:
            key, size = next(iter(groups.items()))
            raise UnanchoredStratum(
                f"prime {p}: {size} extension classes (one with coefficients "
                f"{witness[key]}) match no anchor"
            )
        return sizes

    pool = _PrimePool(
        sample, islice(primes(), CANDIDATE_CAP) if prime_list is None else prime_list
    )
    try:
        # group sizes are polynomials of degree below n = dim Ext^1
        fits = _sweep(
            pool, len(names), n - 1, lambda j: ((), f"stratum sizes of {names[j]}")
        )
    except InsufficientPrimes:
        if collisions:
            raise AnchorCollision(
                f"anchors stayed indistinguishable at primes {tuple(collisions)}"
            ) from None
        raise
    sampled = pool.rows
    return tuple(
        Stratum(
            name=name,
            anchor=mod,
            fingerprint=fp,
            sizes=tuple((p, vec[j]) for p, vec in sampled),
            window=window,
            validation=validation,
            chi_proj=chi,
        )
        for j, (name, mod, fp, (_, window, validation, chi)) in enumerate(
            zip(names, mods, fps, fits)
        )
    )


def _chi_sum(
    terms: Collection[Tuple[int, DeltaFingerprint]], words: Tuple[Word, ...]
) -> Tuple[int, ...]:
    """The sum of c * chi over the (c, fingerprint) terms, word by word;
    ValueError when a fingerprint lists other words than ``words``."""
    if any(fp.words != words for _, fp in terms):
        raise ValueError("the fingerprints list different words")
    return tuple(sum(c * fp.chi[i] for c, fp in terms) for i in range(len(words)))


def _sampled_primes(fps: Sequence[DeltaFingerprint]) -> set:
    """The primes the fingerprints' fits drew from their sample pools."""
    return {p for fp in fps for p, _ in fp._rows}


def verify_thm_1_1(
    xp: LambdaModule,
    xpp: LambdaModule,
    anchors_fwd: Mapping[str, LambdaModule],
    anchors_bwd: Mapping[str, LambdaModule],
    prime_list: Optional[Sequence[int]] = None,
    memo: Optional[Dict] = None,
) -> VerificationReport:
    """Check the pairwise identity for one module pair.

    Both projective extension spaces are stratified against their anchor
    lists, and both sides are evaluated on every word with the content of
    the direct sum: the right side sums chi of each stratum times its
    anchor's fingerprint, stratum by stratum.  Swapping (xp, xpp) along
    with the anchor lists yields the same verdict and the same per-word
    values.  Both stratifications and the direct sum's fingerprint count
    through one memo, and ``primes_used`` lists the primes that the
    strata and the direct sum's fingerprint sampled.

    Args:
        memo: optional count memo shared with the caller, valid for one
            double quiver, as in :func:`stratify_proj_ext`; further
            modules of the direct sum's dimension vector that the caller
            fingerprints through it reuse the job's counts.  When
            omitted, the job counts through one fresh dict.

    Raises:
        ValueError: Ext^1(xp, xpp) = 0, where the identity is
            meaningless.
        (plus everything stratify_proj_ext raises)
    """
    start = time.perf_counter()
    if memo is None:
        memo = {}
    n = _presentation(xp, xpp, memo).ext1_dim
    if n == 0:
        raise ValueError("Ext^1(x', x'') = 0: the pairwise identity is meaningless")
    strata_fwd = stratify_proj_ext(xp, xpp, anchors_fwd, prime_list, memo)
    strata_bwd = stratify_proj_ext(xpp, xp, anchors_bwd, prime_list, memo)
    strata = strata_fwd + strata_bwd
    total = fingerprint(direct_sum(xp, xpp), prime_list, memo=memo)
    left = _chi_sum([(n, total)], total.words)
    right = _chi_sum([(s.chi_proj, s.fingerprint) for s in strata], total.words)
    used = _sampled_primes([total]) | {p for s in strata for p, _ in s.sizes}
    return VerificationReport(
        method="pairwise",
        left_module=xp,
        right_module=xpp,
        ext1_dim=n,
        strata_fwd=strata_fwd,
        strata_bwd=strata_bwd,
        words=total.words,
        left_values=left,
        right_values=right,
        primes_used=tuple(sorted(used)),
        elapsed=time.perf_counter() - start,
    )


def verify_thm_1_2(
    xp: LambdaModule,
    xpp: LambdaModule,
    d: Optional[Derivation] = None,
    g: Optional[Derivation] = None,
    prime_list: Optional[Sequence[int]] = None,
) -> VerificationReport:
    """Check the unique-extension identity for one module pair.

    With dim Ext^1(xp, xpp) = 1 the identity reads

        delta_{xp + xpp} = delta_{E_d} + delta_{E_g}

    for any non-split classes d in Ext^1(xp, xpp) and g in
    Ext^1(xpp, xp), with E the middle term.  The check is one job: both
    presentations and the three fingerprints go through one memo.

    Args:
        d: class in Ext^1(xp, xpp); default is the chosen basis element.
        g: class in Ext^1(xpp, xp); default likewise.

    Raises:
        ValueError: the Ext^1 dimension is not 1, a supplied class lives
            between the wrong modules, or a supplied class is split.
    """
    start = time.perf_counter()
    memo: Dict = {}
    pres = _presentation(xp, xpp, memo)
    back = _presentation(xpp, xp, memo)
    if pres.ext1_dim != 1:
        raise ValueError(
            f"Ext^1 dimension is {pres.ext1_dim}, "
            "the unique-extension identity needs exactly 1"
        )
    if d is None:
        d = pres.ext1_basis[0]
    elif (d.source, d.target) != (xp, xpp):
        raise ValueError("class d does not live in Ext^1(x', x'')")
    if g is None:
        g = back.ext1_basis[0]
    elif (g.source, g.target) != (xpp, xp):
        raise ValueError("class g does not live in Ext^1(x'', x')")
    if is_inner(pres, d):
        raise ValueError("class d is split, its middle term is the direct sum")
    if is_inner(back, g):
        raise ValueError("class g is split, its middle term is the direct sum")
    total = fingerprint(direct_sum(xp, xpp), prime_list, memo=memo)
    fx = fingerprint(middle_term(d).module, prime_list, memo=memo)
    fy = fingerprint(middle_term(g).module, prime_list, memo=memo)
    left = _chi_sum([(1, total)], total.words)
    right = _chi_sum([(1, fx), (1, fy)], total.words)
    return VerificationReport(
        method="unique-extension",
        left_module=xp,
        right_module=xpp,
        ext1_dim=1,
        strata_fwd=(),
        strata_bwd=(),
        words=total.words,
        left_values=left,
        right_values=right,
        primes_used=tuple(sorted(_sampled_primes([total, fx, fy]))),
        elapsed=time.perf_counter() - start,
    )
