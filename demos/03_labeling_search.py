"""Searching for arithmetic labelings of abstract decompositions.

The backtracking search pins one vertex to 0 (translations preserve all the
structure) and checks each element from its first label on: a branch dies
once an element can no longer be completed to a label set with an ordering
option, or the odd elements can no longer get distinct centrals. The
7-point projective-plane triangles turn out to admit no arithmetic labeling
at all; the full 7! sweep agrees.
"""

from eflcolor import fixture, search_labeling
from eflcolor.oracle import exhaustive_labeling_oracle

d = fixture("paper_k9")
scramble = {v: f"node{(5 * v + 3) % 9}" for v in range(9)}
abstract = [tuple(scramble[v] for v in e.vertices) for e in d.elements]
found = search_labeling(9, abstract)
labeling, _, cert = found
print("scrambled worked example relabeled successfully:")
print("  ", " ".join(f"{v}->{x}" for v, x in labeling.assignment))
print("   centrals:", [c for _, c in cert.centrals])

fano = fixture("fano_k7")
abstract7 = [tuple(f"p{v}" for v in e.vertices) for e in fano.elements]
print("\n7-point plane triangles:")
print("   backtracking search:", search_labeling(7, abstract7))
print("   exhaustive 7! sweep:", exhaustive_labeling_oracle(7, abstract7))
print("   (both None: no bijection makes every line an arithmetic progression)")
