"""Toolkit for measuring the localness of point-of-interest names.

Pipeline: ingest POI records and tokenize names (corpus), check Zipf
behaviour (termstats), extract region-specific terms and compare their
usage across POI types (localness), represent regions as count / TF-IDF
vectors (regionvec) or trained embeddings (embed), and relate collective
name similarity to geodesic distance (geo, analysis).
"""

__version__ = "0.1.0"
