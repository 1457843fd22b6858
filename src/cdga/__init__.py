"""Exact-arithmetic commutative differential graded algebras over Q.

Free CDGAs with explicit differentials, rational cohomology with cup
products, triple Massey products with indeterminacy, Sullivan minimal
models, s-formality checks, and fibration model constructions — all in
exact rational arithmetic.
"""

# the row-reduction kernel is pure Python (cdga._core.rref_int)
kernel_backend = "python"

__version__ = "1.0.0"
