"""Baseline systems the paper compares against."""
