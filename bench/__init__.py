"""The benchmark of the whole query path; ``python bench/run.py`` runs it."""
