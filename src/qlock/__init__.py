"""Clifford-only quantum data locking at desk scale.

Subpackages:
    stabilizer  bit-packed tableau simulation of Clifford circuits
    dense       exact small-n linear algebra; spectra from LAPACK
    sampling    two-qubit fragment, design-circuit and uniform Clifford draws
    design      moment estimation, gamma, design-band certification
    protocol    keys, codebooks, encrypt/decrypt, file formats
    security    adversary states, Holevo/measured information, tail bounds
    cli         the qlock command-line tool
"""

__version__ = "0.1.0"
