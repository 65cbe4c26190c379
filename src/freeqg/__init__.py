"""Diagrammatic intertwiner calculus for free unitary quantum groups.

Words over a two-letter alphabet index mixed tensor powers of the fundamental
comodule; pairings of those words span the coinvariant spaces.  The package
enumerates the diagrams, settles span and rank questions exactly by integer
elimination, carries the free fusion semiring, and drives floating-point matrix
models that separate polynomials in the generators from zero.

The root holds only __version__; import from the six modules: freeqg.words,
freeqg.linalg, freeqg.coinvariants, freeqg.fusion, freeqg.reps and freeqg.cli.
"""

__version__ = "0.1.0"
