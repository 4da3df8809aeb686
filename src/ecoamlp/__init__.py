"""Class-outlier-cleaned evolutionary MLP pipeline for binary tabular data."""

__version__ = "0.1.0"
