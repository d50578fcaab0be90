"""Measurement: recorders, monitors, statistics, reporting."""
