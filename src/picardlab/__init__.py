"""picardlab: exact-arithmetic certification of branched-cover surface
constructions and the geography of their numerical invariants.

Each public name is imported from the module that defines it, for example
``from picardlab.constructions import build``; the package exports none."""

__version__ = "0.1.0"

__all__ = []
