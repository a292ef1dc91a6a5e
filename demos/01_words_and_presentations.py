"""Words, free and cyclic reduction, and presentation 2-complexes.

Run with:  PYTHONPATH=src python demos/01_words_and_presentations.py
"""

from vankampen.presentation import (
    Presentation,
    Word,
    cyclic_reduce,
    free_reduce,
    presentation_complex,
)

# Words are written in compressed text form: an initial capital marks an
# inverse, and an explicit ^-1 works too.
abc = ("a", "b", "c")
w = Word.from_text("aBBa", abc)
print("parsed       :", w.letters, "=", w.text())

unreduced = Word.from_text("a b B A a", abc)
print("free_reduce  :", unreduced.text(), "->", free_reduce(unreduced).text())

conjugated = Word.from_text("B a b c b", abc)
core, conj = cyclic_reduce(conjugated)
print("cyclic_reduce:", conjugated.text(), "-> core", core.text(), "conjugator", conj.text())

# A presentation validates its relators (cyclically reduced, nonempty) and
# induces the one-vertex presentation 2-complex.
p = Presentation.build("a b c", ["a b a^-1 b^-1 c", "c"])
x = presentation_complex(p)
print("presentation :", p)
print("complex      : 1 vertex,", len(x.alphabet), "generator loops, face perimeters", x.perimeters())
