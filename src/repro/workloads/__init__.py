"""Workload generators: perftest/netpipe analogs, incast, Zipf, DCTCP."""
