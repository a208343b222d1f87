"""Cubic distance-transitive graphs: construction, girth-cycle
orientation, separator digraphs, surface embeddings and the symmetry
groups tying them together.  Each public name is imported from the
module that defines it."""

__version__ = "0.1.0"
