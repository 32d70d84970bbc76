"""Linking forms on finite abelian groups, for inputs and oracles.

A form on G = Z/d_1 + ... + Z/d_k is the k x k matrix of pairings of the
generators, entry (i, j) in (1/gcd(d_i, d_j))Z/Z, stored as Fractions in
[0, 1).  This module is independent of ``g2tcs``: the benchmark uses it
to generate forms from a seed and to know the answer of each
equivalence decision without asking the code under test.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd


def elements(factors):
    return list(itertools.product(*(range(d) for d in factors)))


def pair(form, x, y) -> Fraction:
    k = len(x)
    return sum(x[a] * y[b] * form[a][b]
               for a in range(k) for b in range(k)) % 1


def random_form(rng, factors):
    """A seeded random symmetric form, possibly degenerate."""
    k = len(factors)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = factors[i] if i == j else gcd(factors[i], factors[j])
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(g), g)
    return tuple(tuple(row) for row in rows)


def radical_order(factors, form) -> int:
    """Number of x with b(x, g) = 0 for every generator g."""
    k = len(factors)
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return sum(1 for x in elements(factors)
               if all(pair(form, x, e) == 0 for e in unit))


def is_automorphism(factors, images) -> bool:
    """Whether generator images define a bijective endomorphism of G."""
    k = len(factors)
    if any((factors[j] * images[j][i]) % factors[i]
           for j in range(k) for i in range(k)):
        return False
    elems = elements(factors)
    seen = {tuple(sum(x[j] * images[j][i] for j in range(k)) % factors[i]
                  for i in range(k))
            for x in elems}
    return len(seen) == len(elems)


def random_automorphism(rng, factors):
    elems = elements(factors)
    while True:
        images = tuple(rng.choice(elems) for _ in factors)
        if is_automorphism(factors, images):
            return images


def moved(form, images):
    """The form pulled back along an automorphism: b(psi e_i, psi e_j)."""
    k = len(images)
    return tuple(tuple(pair(form, images[i], images[j]) for j in range(k))
                 for i in range(k))


def profile(factors, form):
    """An automorphism invariant: radical order and the multiset of b(x, x).

    Two forms with different profiles are inequivalent.
    """
    norms = Counter(pair(form, x, x) for x in elements(factors))
    return radical_order(factors, form), tuple(sorted(norms.items()))


def inequivalent_partner(rng, factors, form):
    """A random form whose profile differs from ``form``'s."""
    target = profile(factors, form)
    while True:
        other = random_form(rng, factors)
        if profile(factors, other) != target:
            return other


def equivalent_by_search(factors, b1, b2) -> bool:
    """Brute-force equivalence for small groups: some automorphism phi has
    b2(phi e_i, phi e_j) = b1(e_i, e_j) for all generators."""
    k = len(factors)
    if k == 0:
        return True
    target = [[b1[i][j] % 1 for j in range(k)] for i in range(k)]
    for images in itertools.product(elements(factors), repeat=k):
        if (moved(b2, images) == tuple(map(tuple, target))
                and is_automorphism(factors, images)):
            return True
    return False
