"""migopt: majority-inverter graph optimization with a learned rewrite policy."""

from migopt.mig import MigGraph, lit, new_graph

__all__ = ["MigGraph", "lit", "new_graph"]
__version__ = "0.1.0"
