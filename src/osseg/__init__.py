"""One-shot domain-adaptive semantic segmentation, desk scale."""

__version__ = "0.1.0"
