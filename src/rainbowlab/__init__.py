"""Constructive colourings, certificates and Monte Carlo scans for
rainbow-clique emergence in randomly perturbed dense graphs.  Each name
is imported from the module that defines it."""

__version__ = "0.1.0"
