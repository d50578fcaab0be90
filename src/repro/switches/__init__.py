"""Programmable-switch model: tables, registers, hashing, TM, pipeline."""
