"""Minimal deterministic numeric core: batch-major float64 arrays, the
layer set the two classifiers need, hand-written backward passes, the
batched training loss, SGD/Adam, and a finite-difference gradient checker."""
