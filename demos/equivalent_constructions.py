"""
Three constructions, one necklace
=================================

Three very different procedures spread k letters A as evenly as possible
around a circle of n spots:

1. grow a +/- sequence from the tail of the Euclidean algorithm,
2. evaluate the word recursion over the continued-fraction quotients,
3. take one period of the mechanical word of slope k/n.

For coprime (n, k) all three give the same circular arrangement, and the
recursion's word, closed up as A...B, is the mechanical word letter for letter.
"""

from mechwords import (
    arrange,
    canonical_rotation,
    euclid_trace,
    mechanical_word,
    rotation_equivalent,
    smith_ladder,
    smith_quotients,
    symbol_stages,
)

n, k = 23, 10

# Route 1: the Euclidean ladder and the +/- growth stages behind it.
quotients, remainders = euclid_trace(n, k)
print(f"Euclid on ({n}, {k}): quotients {quotients}, remainders {remainders}")
for idx, stage in enumerate(symbol_stages(n, k), 1):
    print(f"  stage {idx}: [{','.join(stage)}]")
built = arrange(n, k)
print("arrange:   ", built)

# Route 2: the word recursion on the leading-decremented quotients.
decremented = smith_quotients(n, k)
print(f"\nquotients {quotients} -> decremented {decremented}")
for idx, word in enumerate(smith_ladder(decremented), 1):
    print(f"  S_{idx} = {word}")
recursion = smith_ladder(decremented)[-1]
print("recursion: ", recursion)

# Route 3: the mechanical word.
mechanical = mechanical_word(n, k)
print("mechanical:", mechanical)

# Same necklace: identical up to rotation, and identical canonical forms.
print("\npairwise rotation-equivalent:",
      rotation_equivalent(built, recursion)
      and rotation_equivalent(built, mechanical))
print("canonical form:", canonical_rotation(built)[0])

# The recursion output, trimmed by two letters and closed up as A...B,
# reproduces the mechanical word exactly.
closed = "A" + recursion[:-2] + "B"
print("closed up: ", closed)
print("letter-for-letter equal:", closed == mechanical)

# Non-coprime pairs fall apart into gcd(n, k) identical sections.
word = arrange(87, 36)
print(f"\narrange(87, 36) = 3 x {word[:29]}")
assert word == word[:29] * 3
