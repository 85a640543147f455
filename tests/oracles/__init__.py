"""Scalar reference implementations the vectorized fast paths are tested against."""
