"""latmod: exact lattices, Chevalley bases, and integral-model invariants."""

__version__ = "0.1.0"

KERNEL_IMPLEMENTATION = "python"
