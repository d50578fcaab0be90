"""Motivating applications (§2) and the composite data-plane programs."""
