"""Seeded corpora for the humsearch benchmark (numpy and the stdlib only).

Every input the program sees is made here from the workload seed: the song
catalogue (onsets in beats), rendered hum WAVs for ``hum_wav`` and onset
listings for ``onset_rank``.  The parameters that set the cost of a query
(hum duration, detector, WAV format, catalogue song lengths, query lengths)
are stratified: every seed gets the same spread of them, and the seed picks
the values inside each stratum, the rhythms, pitches, tempi, jitter and
noise.  That keeps the per-seed spread of the timings small without fixing
the inputs.
"""

from __future__ import annotations

import json
import struct

import numpy as np

SAMPLE_RATE = 48000
DETECTORS = ("sd", "energy", "dsd")
WAV_FORMATS = ("pcm16_mono", "pcm24_stereo", "float32_mono")
VARIANTS = ("clean", "drop", "extra", "drift")

# hum_wav: three renders of each catalogue song, one per detector
HUM_SONGS = 15
HUM_RENDERS = 3
HUM_SECONDS = (15.0, 45.0)
HUM_TEMPO = (0.35, 0.6)          # seconds per beat, every render
HUM_SONG_TEMPO = (0.38, 0.56)    # a song's tempo; its renders vary by -7..+5 %
HUM_ONSETS = 20                  # fewer only where a short hum needs it
HUM_PALETTE = (1.0, 1.5, 3.0)    # inter-onset intervals over the base one
HUM_JITTER = 0.010               # seconds, uniform +-
HUM_MIN_GAP = 0.35               # seconds between rendered onsets
HUM_F0 = (80.0, 200.0)           # Hz
HUM_SNR_DB = (10.0, 30.0)
HUM_DECAY = 0.35                 # seconds, time constant of a note's decay

# onset_rank: a wide spread of song lengths; queries are whole songs from
# the middle 60 % of the length order, ten of each variant
RANK_SONGS = 60
RANK_ONSETS = (16, 64)
RANK_QUERIES = 40
RANK_TEMPO = (0.35, 0.6)
RANK_JITTER = 0.015
RANK_DRIFT = 0.05                # largest tempo change across a song


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float,
            order: np.ndarray | None = None, width: float = 0.8) -> np.ndarray:
    """One uniform draw inside the middle ``width`` of each of ``n`` equal
    strata of [lo, hi], returned in stratum order (or permuted by
    ``order``)."""
    u = (np.arange(n) + 0.5 + width * rng.uniform(-0.5, 0.5, n)) / n
    values = lo + (hi - lo) * u
    return values if order is None else values[order]


# ---------------------------------------------------------------- hum_wav


def _hum_onsets(rng, n_onsets: int, span: float, gap: float) -> np.ndarray:
    """Onset times 0 .. span seconds for ``n_onsets`` notes whose
    inter-onset intervals are HUM_PALETTE multiples of a base interval of
    at least ``gap`` seconds."""
    while True:
        mult = rng.choice(HUM_PALETTE, n_onsets - 1)
        base = span / mult.sum()
        if base >= gap:
            return np.concatenate([[0.0], np.cumsum(base * mult)])


def _render_notes(rng, onsets: np.ndarray, end: float,
                  n_samples: int) -> np.ndarray:
    """One harmonic tone per onset (8 partials at 1/h amplitude, read from
    a one-period wavetable) under an attack/decay/release envelope, each
    ending 60 ms before the next onset."""
    out = np.zeros(n_samples, dtype=np.float32)
    phase = np.arange(2048) / 2048
    stops = np.append(onsets[1:], end) - 0.06
    for start, stop in zip(onsets, stops):
        i0 = int(round(start * SAMPLE_RATE))
        i1 = int(round(stop * SAMPLE_RATE))
        t = np.arange(i1 - i0) / SAMPLE_RATE
        table = sum(np.sin(2 * np.pi * h * phase + rng.uniform(0, 2 * np.pi)) / h
                    for h in range(1, 9))
        f0 = rng.uniform(*HUM_F0)
        tone = table[(f0 * 2048 * t).astype(np.int64) % 2048]
        env = np.exp(-t / HUM_DECAY)                    # decay
        env *= np.minimum(t / 0.015, 1.0)               # attack
        env *= np.clip((t[-1] - t) / 0.04, 0.0, 1.0)    # release
        out[i0:i1] = rng.uniform(0.8, 1.0) * env * tone
    return out


def _write_wav(path: str, channels: np.ndarray, fmt: str) -> None:
    """Write ``channels`` (shape (n_channels, n)) in one of WAV_FORMATS."""
    frames = np.ascontiguousarray(channels.T)
    if fmt == "float32_mono":
        tag, bits, payload = 3, 32, frames.astype("<f4").tobytes()
    elif fmt == "pcm16_mono":
        raw = np.clip(np.round(frames * 32767), -32768, 32767).astype("<i2")
        tag, bits, payload = 1, 16, raw.tobytes()
    else:
        raw = np.clip(np.round(frames * 8388607), -8388608, 8388607)
        raw = raw.astype("<i4").reshape(-1)
        tag, bits = 1, 24
        payload = raw.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    n_ch = frames.shape[1]
    block = n_ch * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", tag, n_ch, SAMPLE_RATE,
                            SAMPLE_RATE * block, block, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def hum_wav(seed: int, workdir: str, songs=range(HUM_SONGS)) -> dict:
    """Catalogue of HUM_SONGS songs and HUM_RENDERS rendered hum WAVs of
    each, every render with its own tempo, pitches, jitter and noise
    (``songs`` picks a subset of the design for quick tests).

    The hum durations are HUM_SONGS * HUM_RENDERS strata of HUM_SECONDS;
    song k takes the next HUM_RENDERS strata, so its renders differ in
    tempo by a few per cent.  Query q gets detector DETECTORS[q % 3] and
    format WAV_FORMATS[q // 5 % 3] (all nine pairs in every 15 queries);
    the SNR strata go through a fixed permutation.
    """
    rng = _rng(seed, "hum_wav")
    n = HUM_SONGS * HUM_RENDERS
    q = np.arange(n)
    # durations set most of a query's cost, so they barely move with the seed
    seconds = _strata(rng, n, *HUM_SECONDS, width=0.2)
    snrs = _strata(rng, n, *HUM_SNR_DB, order=(17 * q + 4) % n)
    k = np.arange(HUM_SONGS)
    tempos = _strata(rng, HUM_SONGS, *HUM_SONG_TEMPO,
                     order=(4 * k + 2) % HUM_SONGS)
    # a render is up to 7 % faster than its song's tempo
    gap = (HUM_MIN_GAP + 2 * HUM_JITTER) / 0.92
    # one bank of white noise, read at a random offset by every render
    noise = rng.standard_normal(
        (2, int((HUM_SECONDS[1] + 5) * SAMPLE_RATE)), dtype=np.float32)
    catalogue, queries = [], []
    for song in songs:
        mine = range(HUM_RENDERS * song, HUM_RENDERS * (song + 1))
        span = seconds[mine].mean() - 1.2
        # short hums get fewer notes, so that every interval clears the gap
        most = int(span / (gap * np.mean(HUM_PALETTE) * 1.1)) + 1
        onsets = _hum_onsets(rng, min(HUM_ONSETS, most), span, gap)
        beats = onsets / tempos[song]
        song_id = f"h{song:02d}"
        catalogue.append({"id": song_id, "title": f"hum song {song}",
                          "beats": beats.tolist()})
        for j in mine:
            lead, tail = rng.uniform(0.4, 0.8), 0.8
            tempo = (seconds[j] - lead - tail) / beats[-1]
            if not HUM_TEMPO[0] <= tempo <= HUM_TEMPO[1]:
                raise RuntimeError(f"render tempo {tempo:.3f} out of range")
            times = lead + tempo * beats + rng.uniform(
                -HUM_JITTER, HUM_JITTER, len(beats))
            total = int(round((times[-1] + tail) * SAMPLE_RATE))
            clean = _render_notes(rng, times, times[-1] + tail, total)
            # noise power relative to the mean tone power over the notes
            tone = clean[clean != 0]
            noise_rms = (np.sqrt(np.dot(tone, tone) / len(tone))
                         / 10 ** (snrs[j] / 20))
            fmt = WAV_FORMATS[j // 5 % 3]
            n_ch = 2 if fmt == "pcm24_stereo" else 1
            start = rng.integers(0, noise.shape[1] - total)
            mix = noise[:n_ch, start:start + total] * noise_rms
            mix += clean
            mix *= 0.8 / np.max(np.abs(mix))
            path = f"{workdir}/q{j:02d}.wav"
            _write_wav(path, mix, fmt)
            queries.append({
                "path": path, "song": song_id, "detector": DETECTORS[j % 3],
                "format": fmt, "snr_db": float(snrs[j]),
                "seconds": total / SAMPLE_RATE,
                "notes": times.tolist(),
                "beat0": float(times[0]),
                "tempo": float((times[-1] - times[0]) / beats[-1]),
            })
    return {"songs": catalogue, "queries": queries}


# ------------------------------------------------------------- onset_rank


def _rank_lengths(songs: int) -> np.ndarray:
    """Fixed multiset of catalogue song lengths: evenly spaced quantiles
    of a Beta(3, 3) over RANK_ONSETS, so the middle is dense and both ends
    are present."""
    lo, hi = RANK_ONSETS
    x = np.linspace(0.0, 1.0, 10001)
    cdf = 10 * x ** 3 - 15 * x ** 4 + 6 * x ** 5         # Beta(3, 3)
    quantiles = np.interp(np.linspace(0.0, 1.0, songs), cdf, x)
    return np.round(lo + (hi - lo) * quantiles).astype(int)


def onset_rank(seed: int, workdir: str, songs: int = RANK_SONGS,
               queries: int = RANK_QUERIES) -> dict:
    """Catalogue of ``songs`` songs (16-64 onsets) and ``queries`` onset
    listings, each a whole catalogue song hummed clean, with one interior
    note dropped, with one extra interior note, or with tempo drift."""
    rng = _rng(seed, "onset_rank")
    ids = rng.permutation(songs)
    catalogue = []
    for k, n in enumerate(_rank_lengths(songs)):
        iois = rng.choice([0.5, 1.0, 1.0, 1.5, 2.0, 3.0], n - 1)
        beats = np.concatenate([[0.0], np.cumsum(iois)])
        catalogue.append({"id": f"r{ids[k]:02d}", "title": f"song {ids[k]}",
                          "beats": beats.tolist()})
    j = np.arange(queries)
    tempos = _strata(rng, queries, *RANK_TEMPO, order=(5 * j + 3) % queries)
    picks = np.round(np.linspace(0.2, 0.8, queries) * (songs - 1)).astype(int)
    listings = []
    for j, k in enumerate(picks):
        song = catalogue[k]
        beats = np.asarray(song["beats"])
        variant = VARIANTS[j % len(VARIANTS)]
        span = beats[-1]
        if variant == "drift":
            drift = rng.uniform(-RANK_DRIFT, RANK_DRIFT)
            beats = beats + drift * beats ** 2 / (2 * span)
        times = (rng.uniform(0.2, 2.0) + tempos[j] * beats
                 + rng.uniform(-RANK_JITTER, RANK_JITTER, len(beats)))
        if variant == "drop":
            times = np.delete(times, rng.integers(1, len(times) - 1))
        elif variant == "extra":
            i = int(rng.integers(1, len(times) - 1))
            times = np.insert(times, i + 1, times[i] + rng.uniform(0.3, 0.7)
                              * (times[i + 1] - times[i]))
        path = f"{workdir}/q{j:02d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(times.tolist(), fh)
        listings.append({
            "path": path, "song": song["id"], "variant": variant,
            "beat0": float(times[0]),
            "tempo": float((times[-1] - times[0]) / span),
        })
    return {"songs": catalogue, "queries": listings}
