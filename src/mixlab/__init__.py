"""Workbench for mixing questions on algebraic dynamical systems.

Systems are cyclic group-ring modules over integer/rational lattice groups or
the positive rationals; the package decides character-level mixing questions
exactly, searches for and verifies non-mixing certificates, and cross-checks
results with an exact/Monte-Carlo window simulator.
"""

__version__ = "0.1.0"
