"""Incremental modularity-based community detection on evolving weighted networks.

Each name is imported from the module that defines it: ``graph`` (graphs,
deltas, partitions, modularity), ``louvain`` (static detection),
``incremental`` (the DynaMo update), ``ingest`` (file formats and slicing),
``metrics`` (NMI and ARI), ``harness`` (static versus incremental runs),
``synthgen`` (the seeded generator), ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
