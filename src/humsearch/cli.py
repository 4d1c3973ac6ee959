"""Command-line frontend for the full pipeline.

Commands::

    humsearch detect  <wav>  [detector flags]
    humsearch search  <wav-or-onsets>  --db DB  [detector flags]
    humsearch db      add|list|validate  --db DB  [record fields]
    humsearch power   bound|simulate  [model flags]

Exit codes: 0 success, 1 usage, 2 data/validation, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import audio, detect, peaks, power, search, store

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class PipelineConfig:
    """Detector plus peak-picking parameters for one CLI invocation."""

    detector_kind: detect.DetectorKind
    window_length: int
    hop: int
    cutoff_hz: float
    neighbors: tuple[int, ...]
    threshold_rule: peaks.ThresholdRule
    threshold_scale: float
    min_gap: float
    top_k: int = 5
    closeness: float = 0.05

    @classmethod
    def defaults_for(cls, detector_kind: detect.DetectorKind) -> "PipelineConfig":
        """Calibrated settings per detector: window, hop, cutoff and
        neighbor radius from ``detect.DETECTORS``, with mean thresholding
        and a 0.1 s minimum gap throughout."""
        defaults = detect.DETECTORS[detector_kind]
        return cls(
            detector_kind=detector_kind,
            window_length=detect.WINDOW_LENGTH,
            hop=defaults.hop,
            cutoff_hz=detect.CUTOFF_HZ,
            neighbors=peaks.symmetric_neighbors(defaults.neighbor_radius),
            threshold_rule="mean_scaled",
            threshold_scale=1.0,
            min_gap=0.1,
        )

    def peak_config(self) -> peaks.PeakConfig:
        return peaks.PeakConfig(
            hopsize=1,
            neighbors=self.neighbors,
            threshold_rule=self.threshold_rule,
            threshold_scale=self.threshold_scale,
            min_gap=self.min_gap,
        )


_KIND_BY_NAME = {d.cli_name: kind for kind, d in detect.DETECTORS.items()}


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--detector", choices=sorted(_KIND_BY_NAME),
        default=detect.DETECTORS["spectral_dissimilarity"].cli_name,
        help="detection function")
    parser.add_argument("--window", type=int, default=None,
                        help="window length in samples")
    parser.add_argument("--hop", type=int, default=None,
                        help="hop size in samples")
    parser.add_argument("--neighbors", type=int, default=None, metavar="R",
                        help="compare R neighbors on each side")
    parser.add_argument("--threshold", choices=["mean", "q3"], default=None)
    parser.add_argument("--threshold-scale", type=float, default=None)
    parser.add_argument("--min-gap", type=float, default=None,
                        help="minimum onset separation in seconds")
    parser.add_argument("--cutoff-hz", type=float, default=None,
                        help="band limit for the spectral detectors")


def _pipeline_config(args) -> PipelineConfig:
    config = PipelineConfig.defaults_for(_KIND_BY_NAME[args.detector])
    overrides = {}
    if args.window is not None:
        overrides["window_length"] = args.window
    if args.hop is not None:
        overrides["hop"] = args.hop
    if args.neighbors is not None:
        overrides["neighbors"] = peaks.symmetric_neighbors(args.neighbors)
    if args.threshold is not None:
        overrides["threshold_rule"] = (
            "mean_scaled" if args.threshold == "mean" else "third_quartile")
    if args.threshold_scale is not None:
        overrides["threshold_scale"] = args.threshold_scale
    if args.min_gap is not None:
        overrides["min_gap"] = args.min_gap
    if args.cutoff_hz is not None:
        overrides["cutoff_hz"] = args.cutoff_hz
    if getattr(args, "top", None) is not None:
        overrides["top_k"] = args.top
    if getattr(args, "closeness", None) is not None:
        overrides["closeness"] = args.closeness
    return replace(config, **overrides)


def _detect_onsets(wav_path: str, config: PipelineConfig) -> peaks.OnsetSequence:
    signal = audio.load_wav(wav_path)
    series = detect.run_detector(
        signal, config.detector_kind, config.window_length, config.hop,
        config.cutoff_hz)
    return peaks.detect_peaks(series, config.peak_config())


def _load_query(path: str, config: PipelineConfig) -> peaks.OnsetSequence:
    """A query is either a WAV recording or a plain onset listing
    (JSON array, or one time per line)."""
    if path.lower().endswith(".wav"):
        return _detect_onsets(path, config)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        times = json.loads(text)
    except json.JSONDecodeError:
        if text.lstrip().startswith(("[", "{")):
            raise
        times = [float(token) for token in text.split()]
    if isinstance(times, (int, float)):  # a one-line listing
        times = [times]
    if not store.is_number_array(times):
        raise ValueError("query listing must be a JSON array of numbers "
                         "or one time per line")
    return peaks.OnsetSequence(times=np.asarray(times, dtype=np.float64),
                               unit="seconds")


def _cmd_detect(args) -> int:
    config = _pipeline_config(args)
    onsets = _detect_onsets(args.wav, config)
    out = onsets.to_json() + "\n" if args.json else onsets.to_text()
    _write_output(out, args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    config = _pipeline_config(args)
    db = store.db_load(args.db)
    query = _load_query(args.query, config)
    if len(query) < 2:
        raise store.DatabaseError(
            "query produced fewer than 2 onsets; please re-record with "
            "clearer rhythm")
    result = search.rank(db, query, top_k=config.top_k,
                         closeness=config.closeness)
    if args.json:
        doc = [
            {
                "rank": i + 1,
                "id": e.song_id,
                "title": e.title,
                "score": e.score,
                "alpha": e.alpha,
                "beta": e.beta,
                "close": e.within_closeness,
            }
            for i, e in enumerate(result.entries)
        ]
        _write_output(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"{'rank':>4}  {'id':<16} {'score':>7}  title"]
        for i, e in enumerate(result.entries):
            flag = " *" if e.within_closeness else ""
            lines.append(
                f"{i + 1:>4}  {e.song_id:<16} {e.score:>7.3f}  "
                f"{e.title}{flag}")
        for song_id, reason in result.skipped:
            lines.append(f"skipped {song_id}: {reason}")
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_db(args) -> int:
    if args.db_cmd == "validate":
        db = store.db_load(args.db)
        print(f"ok: {len(db)} records")
        return EXIT_OK
    if args.db_cmd == "list":
        db = store.db_load(args.db)
        for rec in db.records:
            print(f"{rec.id:<16} {len(rec.onsets_beats):>4} onsets  "
                  f"{rec.title}")
        return EXIT_OK
    # add
    try:
        db = store.db_load(args.db)
    except FileNotFoundError:
        db = store.Database(records=())
    times = np.asarray([float(x) for x in args.onsets.split(",")])
    record = store.SongRecord(
        id=args.id,
        title=args.title,
        onsets_beats=peaks.OnsetSequence(times=times, unit="beats"),
    )
    db = store.Database(records=db.records + (record,))
    store.db_save(db, args.db)
    print(f"added {record.id} ({len(times)} onsets)")
    return EXIT_OK


def _power_model(args) -> power.OnsetModel:
    return power.OnsetModel.from_ssnr(
        ssnr=args.ssnr,
        noise_variance=args.noise_var,
        decay=args.decay,
        frequency=args.freq,
        sample_rate=args.sample_rate,
        onset_index=args.onset_index,
        length=args.length,
    )


def _cmd_power(args) -> int:
    model = _power_model(args)
    config = _pipeline_config(args)
    peak_config = config.peak_config()

    if args.power_cmd == "bound":
        threshold = args.ssnr * model.noise_sd ** 2
        offsets = np.arange(args.offset_min, args.offset_max + 1,
                            args.offset_step)
        curve = power.energy_power_curve(
            model, peak_config, threshold, offsets,
            window_length=config.window_length, hop=config.hop,
            draws=args.draws, seed=args.seed)
        p_noise = power.energy_tail_probability(
            model, threshold, -10 * config.window_length,
            config.window_length)
        fp_bound = power.false_positive_upper_bound(p_noise)
        summary = _region_summary(curve)
        print(f"lower bound >= 0.9 on offsets {summary}")
        print(f"false-positive upper bound (noise-only window): "
              f"{fp_bound:.3e}")
    else:  # simulate
        if args.trials < 1:
            raise UsageError("--trials must be >= 1")
        curve = power.monte_carlo_power(
            model, config.detector_kind, peak_config, args.trials,
            args.seed, window_length=config.window_length, hop=config.hop,
            cutoff_hz=config.cutoff_hz)
        summary = _region_summary(curve)
        print(f"estimated emission probability >= 0.9 on offsets {summary}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            power.write_power_csv(curve, fh)
        print(f"wrote {args.out}")
    return EXIT_OK


def _region_summary(curve: power.PowerCurve, level: float = 0.9) -> str:
    high = np.flatnonzero(curve.probabilities >= level)
    if len(high) == 0:
        return "(none)"
    return (f"[{curve.offsets[high[0]]}, {curve.offsets[high[-1]]}] "
            f"samples ({len(high)} grid points)")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="humsearch",
                     description="Query-by-humming via onset detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect onsets in a WAV file")
    p_detect.add_argument("wav")
    _add_detector_flags(p_detect)
    p_detect.add_argument("--json", action="store_true")
    p_detect.add_argument("--out", default=None)
    p_detect.set_defaults(func=_cmd_detect)

    p_search = sub.add_parser("search",
                              help="rank database songs against a query")
    p_search.add_argument("query", help="WAV recording or onset listing")
    p_search.add_argument("--db", required=True)
    _add_detector_flags(p_search)
    p_search.add_argument("--top", type=int, default=None)
    p_search.add_argument("--closeness", type=float, default=None)
    p_search.add_argument("--json", action="store_true")
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_db = sub.add_parser("db", help="manage the song database")
    db_sub = p_db.add_subparsers(dest="db_cmd", required=True)
    p_add = db_sub.add_parser("add")
    p_add.add_argument("--db", required=True)
    p_add.add_argument("--id", required=True)
    p_add.add_argument("--title", required=True)
    p_add.add_argument("--onsets", required=True,
                       help="comma-separated beat times")
    p_add.set_defaults(func=_cmd_db)
    for name in ("list", "validate"):
        p = db_sub.add_parser(name)
        p.add_argument("--db", required=True)
        p.set_defaults(func=_cmd_db)

    p_power = sub.add_parser("power", help="detection-power analysis")
    power_sub = p_power.add_subparsers(dest="power_cmd", required=True)
    for name in ("bound", "simulate"):
        p = power_sub.add_parser(name)
        _add_detector_flags(p)
        p.add_argument("--ssnr", type=float, default=power.REFERENCE_SSNR)
        p.add_argument("--noise-var", type=float,
                       default=power.REFERENCE_NOISE_VARIANCE)
        p.add_argument("--decay", type=float, default=50.0)
        p.add_argument("--freq", type=float, default=440.0)
        p.add_argument("--sample-rate", type=int, default=48000)
        p.add_argument("--onset-index", type=int, default=24576)
        p.add_argument("--length", type=int, default=48000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="CSV output path")
        if name == "bound":
            p.add_argument("--draws", type=int, default=100_000)
            p.add_argument("--offset-min", type=int, default=-1024)
            p.add_argument("--offset-max", type=int, default=1024)
            p.add_argument("--offset-step", type=int, default=128)
            p.set_defaults(detector=detect.DETECTORS["energy"].cli_name)
        else:
            p.add_argument("--trials", type=int, default=1000)
        p.set_defaults(func=_cmd_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
