"""Exact Picard and Brauer invariants of homogeneous spaces G/H.

The library is pure Python on arbitrary-precision integers: an integer
linear algebra kernel (Smith forms, solution lattices), finitely generated
abelian groups, root data for the simple types, combinatorial models of
connected reductive groups, the central-extension calculus, and the
invariant queries themselves.  See README.md for the CLI.
"""

__version__ = "0.1.0"
