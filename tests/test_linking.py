"""Linking-form equivalence against independent oracles.

``linking_forms_equivalent`` decides equivalence p-part by p-part: Wall's
invariants for odd p, a pruned search on the 2-primary or a degenerate
part.  The oracles here know nothing of that:

- the |G|^k enumeration of all generator images that the package used
  to run, on every invariant-factor list it can afford;
- metamorphic properties on groups beyond its reach: a form moved by an
  automorphism is equivalent, a form with another radical order or
  multiset of b(x, x) is not;
- number theory: a nondegenerate form of odd order is equivalent to its
  negative exactly when every homogeneous block Z/p^k with p = 3 mod 4
  has even rank.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest

from g2tcs.invariants import (compare_2connected, full_report,
                              linking_forms_equivalent)


# ------------------------------------------------------------- the oracle

def _automorphism_images(factors):
    """Every tuple of generator images that respects the generator orders.

    Of the |G|^k tuples, those whose image j is killed by d_j are the
    homomorphisms; whether one is onto is left to ``_generates``.
    """
    elements = list(itertools.product(*[range(d) for d in factors]))
    killed = [[x for x in elements
               if all((d * a) % f == 0 for a, f in zip(x, factors))]
              for d in factors]
    return itertools.product(*killed)


def _generates(factors, images):
    k = len(factors)
    seen = {(0,) * k}
    frontier = [(0,) * k]
    while frontier:
        cur = frontier.pop()
        for img in images:
            nxt = tuple((a + b) % d for a, b, d in zip(cur, img, factors))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    order = 1
    for d in factors:
        order *= d
    return len(seen) == order


def brute_force_equivalent(factors, b1, b2):
    """Some automorphism phi has b2(phi g_i, phi g_j) = b1(g_i, g_j)."""
    k = len(factors)
    if k == 0:
        return True
    n = lcm(*factors)
    scaled2 = [[int(x * n) % n for x in row] for row in b2]
    target = [[int(x * n) % n for x in row] for row in b1]
    rows = {}  # x -> n * b2(x, g_b) for every generator g_b

    def pair(x, y):
        if x not in rows:
            rows[x] = [sum(x[a] * scaled2[a][b] for a in range(k)) % n
                       for b in range(k)]
        return sum(map(int.__mul__, rows[x], y)) % n

    for images in _automorphism_images(factors):
        if (all(pair(images[i], images[j]) == target[i][j]
                for i in range(k) for j in range(i, k))
                and _generates(factors, images)):
            return True
    return False


# ------------------------------------------------------------ form helpers

def random_form(rng, factors):
    k = len(factors)
    rows = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = gcd(factors[i], factors[j])
            rows[i][j] = rows[j][i] = F(rng.randrange(g), g)
    return tuple(tuple(row) for row in rows)


def pair(form, x, y):
    k = len(x)
    return sum(x[a] * y[b] * form[a][b]
               for a in range(k) for b in range(k)) % 1


def moved(form, images):
    k = len(images)
    return tuple(tuple(pair(form, images[i], images[j]) for j in range(k))
                 for i in range(k))


def negated(form):
    return tuple(tuple((-x) % 1 for x in row) for row in form)


def random_automorphism(rng, factors, steps=12):
    """Generator images of a product of elementary automorphisms.

    g_i -> g_i + c g_j is one when d_i c g_j = 0, i.e. d_j divides
    c d_i; g_i -> u g_i is one for u prime to d_i.  Composing them never
    needs a bijectivity test.
    """
    k = len(factors)
    images = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i = rng.randrange(k)
        if k > 1 and rng.random() < 0.7:
            j = rng.choice([j for j in range(k) if j != i])
            step = factors[j] // gcd(factors[j], factors[i])
            c = step * rng.randrange(factors[j] // step)
            images[i] = [(a + c * b) % d for a, b, d
                         in zip(images[i], images[j], factors)]
        else:
            u = 0
            while gcd(u, factors[i]) != 1:
                u = rng.randrange(1, factors[i] + 1)
            images[i] = [(u * a) % d for a, d in zip(images[i], factors)]
    return [tuple(row) for row in images]


def elements(factors):
    return itertools.product(*(range(d) for d in factors))


def radical_order(factors, form):
    """Number of x with b(x, g_i) = 0 for every generator g_i."""
    k = len(factors)
    n = lcm(*factors)
    cols = [[int(form[a][i] * n) for a in range(k)] for i in range(k)]
    return sum(1 for x in elements(factors)
               if all(sum(map(int.__mul__, x, col)) % n == 0
                      for col in cols))


def profile(factors, form):
    """Radical order and the multiset of b(x, x): automorphism invariants."""
    norms = Counter(pair(form, x, x) for x in elements(factors))
    return radical_order(factors, form), sorted(norms.items())


def draw(rng, factors, nondegenerate):
    """A random form with trivial radical, or a degenerate one: p times a
    random form, for p a prime dividing d_k, vanishes on the p-torsion."""
    if not nondegenerate:
        p = next(p for p in range(2, factors[-1] + 1) if factors[-1] % p == 0)
        return tuple(tuple((p * x) % 1 for x in row)
                     for row in random_form(rng, factors))
    while True:
        form = random_form(rng, factors)
        if radical_order(factors, form) == 1:
            return form


def invariant_factor_lists(max_tuples, max_cyclic):
    """Lists d_1 | d_2 | ... with every d_i >= 2 and |G|^k <= max_tuples,
    cyclic groups only up to max_cyclic."""
    out = [(d,) for d in range(2, max_cyclic + 1)]

    def grow(prefix, order):
        k = len(prefix)
        if k >= 2:
            out.append(tuple(prefix))
        for d in range(prefix[-1], max_tuples + 1, prefix[-1]):
            if (order * d) ** (k + 1) > max_tuples:
                break
            grow(prefix + [d], order * d)

    for d in range(2, max_tuples + 1):
        if (d * d) ** 2 > max_tuples:
            break
        grow([d], d)
    return out


# ------------------------------------------------------ brute-force oracle

GROUPS = invariant_factor_lists(10 ** 4, 200)
# Cyclic groups of order above 200 cost the oracle up to 10^4 tuples per
# decision; a seeded sample of them keeps the module within seconds.
GROUPS += [(d,) for d in sorted(random.Random(3).sample(range(201, 10 ** 4),
                                                        12))]


def test_group_list_covers_the_mixed_prime_cases():
    for factors in [(6,), (12,), (2, 6), (3, 6), (6, 6), (10, 10),
                    (2, 2, 2), (2, 2, 4), (2, 50), (3, 33)]:
        assert factors in GROUPS
    assert all(prod(f) ** len(f) <= 10 ** 4 for f in GROUPS)


def test_agrees_with_brute_force_on_every_small_group():
    rng = random.Random(20180924)
    decisions = Counter()
    for factors in GROUPS:
        for nondegenerate in (True, False):
            form = draw(rng, factors, nondegenerate)
            partners = [moved(form, random_automorphism(rng, factors)),
                        random_form(rng, factors), negated(form)]
            for partner in partners:
                want = brute_force_equivalent(factors, form, partner)
                assert linking_forms_equivalent(factors, form,
                                                partner) == want, \
                    (factors, form, partner)
                decisions[want] += 1
    # both answers are exercised, many times over
    assert decisions[True] > 300 and decisions[False] > 150, decisions


def test_agrees_with_brute_force_on_degenerate_mixed_orders():
    rng = random.Random(5)
    for factors in [(6,), (12,), (2, 6), (3, 6), (6, 6), (3, 15), (9,),
                    (4, 4), (2, 2, 2)]:
        for _ in range(8):
            form = random_form(rng, factors)
            for partner in (random_form(rng, factors),
                            moved(form, random_automorphism(rng, factors))):
                assert (linking_forms_equivalent(factors, form, partner)
                        == brute_force_equivalent(factors, form, partner))


def test_known_cyclic_and_2x2_answers():
    assert linking_forms_equivalent((7,), ((F(6, 7),),), ((F(3, 7),),))
    assert not linking_forms_equivalent((7,), ((F(6, 7),),), ((F(1, 7),),))
    # <1/8> and <5/8> differ mod 8, <1/8> and <1/8 * 9> do not
    assert not linking_forms_equivalent((8,), ((F(1, 8),),), ((F(5, 8),),))
    assert linking_forms_equivalent((8,), ((F(1, 8),),), ((F(1, 8),),))
    # the hyperbolic plane on (Z/3)^2 is <1/3> + <2/3>
    hyp = ((F(0), F(1, 3)), (F(1, 3), F(0)))
    assert linking_forms_equivalent((3, 3), hyp,
                                    ((F(1, 3), F(0)), (F(0), F(2, 3))))
    assert not linking_forms_equivalent((3, 3), hyp,
                                        ((F(1, 3), F(0)), (F(0), F(1, 3))))
    assert linking_forms_equivalent((), (), ())


# ------------------------------------------- beyond the brute force's reach

LARGE = [(5, 5, 5), (7, 7, 7), (3, 3, 3, 3), (3, 9, 27)]


@pytest.mark.parametrize("factors", LARGE)
def test_moved_form_is_equivalent(factors):
    rng = random.Random(sum(factors))
    for nondegenerate in (True, True, False):
        form = draw(rng, factors, nondegenerate)
        partner = moved(form, random_automorphism(rng, factors, steps=20))
        assert linking_forms_equivalent(factors, form, partner)
        assert linking_forms_equivalent(factors, partner, form)


@pytest.mark.parametrize("factors", LARGE)
def test_form_with_another_profile_is_not_equivalent(factors):
    rng = random.Random(len(factors))
    for nondegenerate in (True, False):
        form = draw(rng, factors, nondegenerate)
        target = profile(factors, form)
        for _ in range(2):
            other = random_form(rng, factors)
            while profile(factors, other) == target:
                other = random_form(rng, factors)
            assert not linking_forms_equivalent(factors, form, other)


# ------------------------------------------------- orientation reversal

def reversal_by_number_theory(factors):
    """b ~ -b for nondegenerate b of odd order: -1 changes the Legendre
    symbol of a rank-r block Z/p^k by (-1/p)^r, which is -1 exactly when
    p = 3 mod 4 and r is odd.  The rank of the Z/p^k block of a
    nondegenerate form is the number of factors with p-part p^k."""
    ranks = Counter()
    for d in factors:
        for p in range(3, d + 1, 2):
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                ranks[p, e] += 1
    return all(r % 2 == 0 for (p, _e), r in ranks.items() if p % 4 == 3)


ODD = [(3,), (5,), (7,), (9,), (11,), (13,), (15,), (21,), (45,), (3, 3),
       (5, 5), (7, 7), (3, 9), (3, 15), (3, 3, 3), (5, 5, 5), (3, 3, 3, 3),
       (3, 9, 27)]


@pytest.mark.parametrize("factors", ODD)
def test_negated_form_matches_number_theory(factors):
    rng = random.Random(len(factors) * 1000 + factors[-1])
    want = reversal_by_number_theory(factors)
    for _ in range(3):
        form = draw(rng, factors, nondegenerate=True)
        assert linking_forms_equivalent(factors, form,
                                        negated(form)) == want


def test_reversal_oracle_values():
    assert not reversal_by_number_theory((3,))
    assert reversal_by_number_theory((5,))
    assert reversal_by_number_theory((3, 3))
    assert not reversal_by_number_theory((3, 9))
    assert reversal_by_number_theory((9, 9, 5))
    assert not reversal_by_number_theory((21,))


def test_self_comparison_reversal_on_odd_dataset_torsion(dataset_configs):
    seen = set()
    for r in map(full_report, dataset_configs):
        factors = r.torsion.invariant_factors if r.torsion else ()
        if r.b2 != 0 or not factors or r.torsion_order % 2 == 0:
            continue
        cmp = compare_2connected(r, r)
        assert cmp.verdict == "diffeo_candidate"
        assert cmp.orientation_reversal_match == \
            reversal_by_number_theory(factors), factors
        seen.add(factors)
    assert seen  # the datasets carry odd torsion, e.g. Z/3 and Z/7


# ----------------------------------------------------------- malformed input

@pytest.mark.parametrize("factors,b", [
    ((3,), ((F(1, 3), F(0)),)),                      # not square
    ((3, 3), ((F(1, 3), F(0)), (F(0),))),            # ragged
    ((3, 3), ((F(1, 3),),)),                         # wrong size
    ((3, 3), ((F(1, 3), F(1, 3)), (F(2, 3), F(0)))),  # asymmetric
    ((2, 3), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)))),  # gcd 1
    ((2,), ((F(1, 4),),)),                           # outside (1/2)Z
    ((4, 2), ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 2)))),  # outside (1/2)Z
    ((3,), ((0.5,),)),                               # float
    ((3,), (("1/3",),)),                             # string
    ((3,), None),                                    # not a matrix
    ((0,), ((F(0),),)),                              # bad group order
    ((3.0,), ((F(1, 3),),)),                         # bad group order
])
def test_malformed_input_raises(factors, b):
    good = tuple(tuple(F(0) for _ in factors) for _ in factors)
    with pytest.raises(ValueError):
        linking_forms_equivalent(factors, b, good)
    with pytest.raises(ValueError):
        linking_forms_equivalent(factors, good, b)


def test_entries_are_read_mod_1():
    assert linking_forms_equivalent((3,), ((F(4, 3),),), ((F(1, 3),),))
    assert linking_forms_equivalent((3, 3), ((F(1, 3), F(1, 3)),
                                             (F(-2, 3), F(0))),
                                    ((F(1, 3), F(1, 3)), (F(1, 3), F(0))))
    # int entries, negative Fractions and shifts by large integers, on an
    # odd group and a 2-primary one; each form has an inequivalent partner
    big = 10 ** 40
    for factors, form, other in (
            ((3, 9), ((F(1, 3), 0), (0, F(1, 9))),
             ((F(2, 3), 0), (0, F(1, 9)))),
            ((2, 8), ((F(1, 2), 0), (0, F(1, 8))),
             ((F(1, 2), 0), (0, F(3, 8))))):
        for shift in (-1, 5, big, -big, big + 1):
            moved = tuple(tuple(x + shift * (i + j + 1) for j, x
                                in enumerate(row))
                          for i, row in enumerate(form))
            assert all(isinstance(x, int) for x in (moved[0][1],
                                                    moved[1][0]))
            assert linking_forms_equivalent(factors, moved, form)
            assert linking_forms_equivalent(factors, form, moved)
            assert not linking_forms_equivalent(factors, moved, other)
            assert not linking_forms_equivalent(factors, other, moved)
        negated = tuple(tuple(x - 1 for x in row) for row in form)
        assert all(x < 0 for row in negated for x in row)
        assert linking_forms_equivalent(factors, negated, form)
        assert not linking_forms_equivalent(factors, negated, other)
