"""Random nilpotent modules for the property suites.

A module is grown from a random simple by repeatedly extending against
another random simple: each step picks a class in Ext^1 between the
current module and the newcomer (in a random order) and replaces the
module by its middle term, falling back to the direct sum when there
are no extensions.  Simples are nilpotent and middle terms of nilpotent
modules are nilpotent, so the result is nilpotent by construction.
"""

from functools import reduce
from random import Random
from typing import Optional, Sequence

from .fields import QQ, Field
from .homext import ext_presentation, middle_term
from .module import LambdaModule, direct_sum, simple
from .quiver import DoubleQuiver


def random_combination(items: Sequence, rng: Random):
    """A random combination of items carrying add and scale, with integer
    weights from -2 to 2.

    The zero combination is nudged to a basis element, so the result is
    never the zero vector when items is nonempty; None when it is empty.
    """
    if not items:
        return None
    weights = [rng.randint(-2, 2) for _ in items]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    # a zero weight adds nothing and a weight 1 scales nothing
    terms = [item if w == 1 else item.scale(w) for item, w in zip(items, weights) if w]
    return reduce(lambda out, term: out.add(term), terms)


def random_nilpotent_module(
    dq: DoubleQuiver,
    rng: Random,
    steps: int = 3,
    max_total: int = 6,
    field: Optional[Field] = None,
) -> LambdaModule:
    """A random nilpotent module over dq, grown by iterated extensions.

    Args:
        dq: the double quiver to build over.
        rng: source of randomness; seed it for reproducible suites.
        steps: how many extension steps to attempt.
        max_total: stop growing once the total dimension reaches this.
        field: coefficient field (default: the rationals).
    """
    field = field or QQ
    verts = dq.base.vertices
    m = simple(dq, rng.choice(verts), field)
    for _ in range(steps):
        if sum(m.dim) >= max_total:
            break
        newcomer = simple(dq, rng.choice(verts), field)
        below, above = (m, newcomer) if rng.random() < 0.5 else (newcomer, m)
        pres = ext_presentation(above, below)
        d = random_combination(pres.ext1_basis, rng)
        if d is None:
            m = direct_sum(below, above)
        else:
            m = middle_term(d).module
    return m
