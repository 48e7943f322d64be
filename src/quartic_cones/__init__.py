"""Exact-arithmetic toolkit for plane quartics and their sextic double cones.

Modules:
  polycore    exact rational/polynomial kernel and elimination toolkit
  polyio      expression grammar, canonical printer, points files
  covariants  line restrictions, g4/g6, dual curve, j-functions
  cone        weighted sextic hypersurfaces, node certificates, S4 family
  octad       nets of quadrics, Cayley octads, bitangents, Cremona, Gale
  theta       theta-characteristic combinatorics and Aronhold systems
  cli         command-line frontend
  record      immutable records for the modules' value classes
"""

__version__ = "0.1.0"
