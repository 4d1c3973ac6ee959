"""Query-by-humming via onset detection and correlative matching.

The pipeline: a hummed recording is reduced to a detection-function
series (local energy, spectral dissimilarity or dominant spectral
dissimilarity), peak picking turns the series into onset times, and the
onset rhythm is matched against a database of per-song reference onsets
by an affine anchor search scored with penalized Pearson correlation.
A power-analysis subsystem quantifies how reliably each detector finds a
modeled onset.
"""

__version__ = "0.1.0"
