"""Discrete-event simulation core: clock, events, units, seeded RNG."""
