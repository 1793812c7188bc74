"""Exception types shared across the package.

Each class derives from LatticeError, a ValueError; the checks of Vec2, the
Superbase2 sum, QTPoint, RootForm, OrientedRootForm, root-product triples and
grid formats raise a ValueError too, so catching ValueError catches them all.
"""


class LatticeError(ValueError):
    """Base class for all lattice-related errors."""


class DegenerateBasis(LatticeError):
    """Basis vectors are (numerically) linearly dependent."""


class DegenerateLattice(LatticeError):
    """Lattice collapses to a lower dimension (two vanishing root products)."""


class NegativeConorm(LatticeError):
    """A conorm came out negative beyond tolerance where it must not."""


class ParseError(LatticeError):
    """A record line could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvalidGridSpec(LatticeError):
    """Density grid bounds or resolution are unusable."""
