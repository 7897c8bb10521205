"""Certification toolkit for maximal Galois action on the Jacobian of a
smooth plane quartic.

The package is organized bottom-up:

* :mod:`~quartic_galois.fields`, :mod:`~quartic_galois.polys` — exact
  algebra substrate;
* :mod:`~quartic_galois.curve`, :mod:`~quartic_galois.counting` — plane
  quartic geometry, point counting, L-polynomials, bad primes;
* :mod:`~quartic_galois.reduction`, :mod:`~quartic_galois.mod2`,
  :mod:`~quartic_galois.irreducibility`,
  :mod:`~quartic_galois.primitivity` — the individual certification
  obligations;
* :mod:`~quartic_galois.modsym`, :mod:`~quartic_galois.hecke_io` —
  modular symbols, Hecke operators and their serialization;
* :mod:`~quartic_galois.facts`, :mod:`~quartic_galois.pipeline`,
  :mod:`~quartic_galois.cli` — trusted-fact registry, orchestration and
  the ``certify`` command-line entry point.
"""

__version__ = "0.1.0"
