"""Laplacian spectra of Kronecker products of graphs, estimated from factor spectra."""

__version__ = "0.1.0"
