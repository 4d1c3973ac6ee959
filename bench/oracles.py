"""Correctness checks for the benchmark, written apart from ``src/``.

Nothing here imports humsearch.  Search results are checked against the
rendering truth and a brute-force recomputation of the score; power curves
are checked against properties the paper's analysis must have.  Every check
returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.stats import chi2

BETA_TOLERANCE = 0.02        # relative, against the rendered mean tempo
ALPHA_TOLERANCE = 0.1        # seconds, against the rendered time of beat 0
SCORE_TOLERANCE = 1e-9
EMISSION_LEVEL = 0.85        # sd/dsd emission probability at the onset
BOUND_LEVEL = 0.9            # energy lower bound on [0, +512] samples


def brute_force_score(query: np.ndarray, beats: np.ndarray,
                      alpha: float, beta: float) -> float:
    """Penalised Pearson score of ``query`` (seconds) against a song
    (beats) mapped by ``alpha + beta * beats``: mutual-nearest pairs by a
    full distance matrix (ties to the earlier onset), then
    rho * L^2 / (m * n)."""
    mapped = alpha + beta * beats
    dist = np.abs(query[:, None] - mapped[None, :])
    nearest_song = dist.argmin(axis=1)
    nearest_query = dist.argmin(axis=0)
    mutual = nearest_query[nearest_song] == np.arange(len(query))
    matched = int(mutual.sum())
    if matched < 2:
        return 0.0
    a = query[mutual]
    b = mapped[nearest_song[mutual]]
    da, db = a - a.mean(), b - b.mean()
    va, vb = float(da @ da), float(db @ db)
    rho = 0.0 if va == 0.0 or vb == 0.0 else float(da @ db) / math.sqrt(va * vb)
    return rho * matched ** 2 / (len(query) * len(beats))


def check_search(doc, query: np.ndarray, expect: dict, songs: dict,
                 closeness: float) -> list[str]:
    """Check one ``search --json`` result.

    ``expect`` holds the query's own song id, the rendered time of beat 0
    and the rendered mean tempo; ``songs`` maps id to beat array.
    """
    if not isinstance(doc, list) or len(doc) < 2:
        return ["expected at least two ranked entries"]
    problems = []
    top = doc[0]
    if top["id"] != expect["song"]:
        problems.append(f"rank 1 is {top['id']}, not {expect['song']}")
    if abs(top["beta"] / expect["tempo"] - 1.0) > BETA_TOLERANCE:
        problems.append(f"beta {top['beta']:.4f} vs tempo {expect['tempo']:.4f}")
    if abs(top["alpha"] - expect["beat0"]) > ALPHA_TOLERANCE:
        problems.append(f"alpha {top['alpha']:.3f} vs beat 0 at "
                        f"{expect['beat0']:.3f}")
    if top["id"] in songs:
        again = brute_force_score(query, songs[top["id"]], top["alpha"],
                                  top["beta"])
        if not abs(again - top["score"]) <= SCORE_TOLERANCE:
            problems.append(f"score {top['score']!r} vs recomputed {again!r}")
    else:
        problems.append(f"rank 1 id {top['id']!r} is not in the catalogue")
    for i, entry in enumerate(doc):
        if entry["rank"] != i + 1:
            problems.append(f"entry {i} has rank {entry['rank']}")
    for a, b in zip(doc, doc[1:]):
        if (-a["score"], a["id"]) >= (-b["score"], b["id"]):
            problems.append(f"{a['id']} and {b['id']} out of order")
    for entry in doc:
        if entry["close"] != (entry["score"] >= top["score"] - closeness):
            problems.append(f"close flag of {entry['id']} is wrong")
    return problems


def _read_curve(csv_text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["offset_samples", "probability", "stderr"]:
        raise ValueError("bad CSV header")
    offsets = np.array([int(r[0]) for r in rows[1:]])
    probs = np.array([float(r[1]) for r in rows[1:]])
    return offsets, probs


def check_simulate(csv_text: str, detector: str, trials: int,
                   hop: int) -> tuple[list[str], float | None]:
    """Check a ``power simulate`` CSV; returns the problems and, for sd
    and dsd, the emission probability at the onset minus its level."""
    offsets, probs = _read_curve(csv_text)
    problems = []
    if np.any((probs < 0) | (probs > 1)):
        problems.append("probability outside [0, 1]")
    if np.any(np.abs(probs * trials - np.round(probs * trials)) > 1e-9):
        problems.append("probabilities are not counts over the trials")
    if np.any(np.diff(offsets) != hop):
        problems.append(f"offsets are not on a {hop}-sample grid")
    if detector == "energy":
        return problems, None
    at_onset = float(probs[np.argmin(np.abs(offsets))])
    if at_onset < EMISSION_LEVEL:
        problems.append(f"{detector} emission at the onset {at_onset:.3f} "
                        f"< {EMISSION_LEVEL}")
    if detector == "dsd" and np.any(probs[offsets < -hop] > 0):
        problems.append("dsd emits earlier than one hop before the onset")
    return problems, at_onset - EMISSION_LEVEL


def false_positive_bound() -> float:
    """p(2 - p)/2 for p = P(chi2_4096 > 5000), about 4.704e-21."""
    p = float(chi2.sf(5000.0, 4096))
    return p * (2.0 - p) / 2.0


def check_bound(csv_text: str, stdout: str) -> tuple[list[str], float]:
    """Check a ``power bound`` CSV and its printed false-positive bound;
    returns the problems and the least bound on [0, +512] minus its
    level."""
    offsets, probs = _read_curve(csv_text)
    problems = []
    high = np.flatnonzero(probs >= BOUND_LEVEL)
    if len(high) == 0 or np.any(np.diff(high) != 1):
        problems.append("bound >= 0.9 is not one contiguous region")
    wanted = (offsets >= 0) & (offsets <= 512)
    if not np.any(wanted):
        problems.append("no grid offsets in [0, 512]")
        return problems, -1.0
    least = float(probs[wanted].min())
    if least < BOUND_LEVEL:
        problems.append(f"bound {least:.3f} < {BOUND_LEVEL} inside [0, 512]")
    expected = f"{false_positive_bound():.3e}"
    printed = [line.rsplit(":", 1)[1].strip() for line in stdout.splitlines()
               if line.startswith("false-positive upper bound")]
    if printed != [expected]:
        problems.append(f"false-positive bound {printed} != {expected}")
    return problems, least - BOUND_LEVEL
