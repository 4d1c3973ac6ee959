"""Query-by-humming via onset detection and correlative matching.

The pipeline: a hummed recording is reduced to a detection-function
series (local energy, spectral dissimilarity or dominant spectral
dissimilarity), peak picking turns the series into onset times, and the
onset rhythm is matched against a database of per-song reference onsets
by an affine anchor search scored with penalized Pearson correlation.
A power-analysis subsystem quantifies how reliably each detector finds a
modeled onset.
"""

from .audio import Signal, load_wav
from .detect import (
    DetectionSeries,
    dominant_spectral_dissimilarity,
    energy_detector,
    run_detector,
    spectral_dissimilarity,
)
from .match import MatchResult, SimilarityResult, correlative_match, pearson, subset_match
from .peaks import OnsetSequence, PeakConfig, detect_peaks, threshold_value
from .power import (
    OnsetModel,
    PowerCurve,
    energy_power_lower_bound,
    false_positive_upper_bound,
    monte_carlo_power,
    noncentrality_integral,
    synth_signal,
)
from .search import RankedResult, rank
from .spectral import Spectrogram, band_limit_bins, dft, stft
from .store import Database, SongRecord, db_load, db_save

__version__ = "0.1.0"
