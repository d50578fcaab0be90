"""EMOMA-style cuckoo layout for the remote lookup table.

One RDMA READ per miss, deterministically: a 2-hash, 4-slot-bucket
cuckoo table whose bucket pairs are adjacent in server memory, plus an
on-chip counting Bloom "choice filter" that tells the data plane which
pair to read.  See :mod:`repro.cuckoo.layout` for the invariant and
:mod:`repro.cuckoo.filter` for the filter.
"""
