"""Tiered remote memory: DRAM homes fronted by a bounded fast tier.

See DESIGN.md §13.  :class:`TieredMemoryPool` owns the fast budget and
the placement-policy tick; :class:`TieredRegionGeometry` is the per-object
block map primitives resolve their addresses through.
"""
