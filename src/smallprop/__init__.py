"""Tiled small-object proposal pipeline and average-recall evaluation toolkit."""

__version__ = "0.1.0"
