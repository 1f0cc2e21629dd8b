"""quadcode: four-way classification of political event sentences.

Pipeline stages: dictionary-based soft labeling of sentences with CAMEO
event codes, reduction to the four QuadClass categories, label transfer
across sentence-aligned parallel corpora, and from-scratch word-level and
character-level 1-d ConvNet classifiers with a deterministic numeric core.
"""
