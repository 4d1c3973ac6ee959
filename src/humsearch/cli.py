"""Command-line frontend for the full pipeline.

Commands::

    humsearch detect  <wav>  [detector flags]
    humsearch search  <wav-or-onsets>  --db DB  [detector flags]
    humsearch db      add|list|validate  --db DB  [record fields]
    humsearch power   bound|simulate  [model flags]

Exit codes: 0 success, 1 usage, 2 data/validation/memory, 3 I/O.

A flag that sets a library parameter is stored under that parameter's
name and passed on only when given, so every default lives in the
library function or dataclass that uses it.  Results are printed as the
library returns them, and records are checked by the store's own parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import get_args

import numpy as np

from . import audio, detect, peaks, power, search, store

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2,
    and which takes an argument that starts like a negative number
    (``-0.5,1``, ``-.5``, ``-1e3``, ``-inf``, ``-NaN``) for a flag's value,
    not for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise UsageError(message)


_KIND_BY_NAME = {d.cli_name: kind for kind, d in detect.DETECTORS.items()}
# power-model flags: (flag, OnsetModel.from_ssnr parameter, type)
_MODEL_FLAGS = (
    ("--ssnr", "ssnr", float), ("--noise-var", "noise_variance", float),
    ("--decay", "decay", float), ("--freq", "frequency", float),
    ("--sample-rate", "sample_rate", int),
    ("--onset-index", "onset_index", int), ("--length", "length", int),
)


def _add_flag(parser: argparse.ArgumentParser, flag: str, dest: str,
              **kwargs) -> None:
    """A flag that sets the library parameter ``dest`` only when given, so
    that the parameter's own default holds otherwise; its metavar lists
    its choices or follows the flag's name, as argparse's own would."""
    if "choices" not in kwargs:
        kwargs.setdefault("metavar", flag[2:].replace("-", "_").upper())
    parser.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kwargs)


def _given(args, *names: str) -> dict:
    """The library parameters among ``names`` whose flags were given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _positive_int(text: str) -> int:
    """argparse type of a count or a step."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_frame_flags(parser: argparse.ArgumentParser) -> None:
    _add_flag(parser, "--window", "window_length", type=int,
              help="window length in samples")
    _add_flag(parser, "--hop", "hop", type=int, help="hop size in samples")
    _add_flag(parser, "--neighbors", "neighbors", type=int, metavar="R",
              help="compare R neighbors on each side")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--detector", choices=sorted(_KIND_BY_NAME),
        default=detect.DETECTORS["spectral_dissimilarity"].cli_name,
        help="detection function")
    _add_frame_flags(parser)
    _add_flag(parser, "--threshold", "threshold_rule",
              choices=get_args(peaks.ThresholdRule))
    _add_flag(parser, "--threshold-scale", "threshold_scale", type=float)
    _add_flag(parser, "--min-gap", "min_gap", type=float,
              help="minimum onset separation in seconds")
    _add_flag(parser, "--cutoff-hz", "cutoff_hz", type=float,
              help="band limit for the spectral detectors")


def _peak_config(args, kind: detect.DetectorKind) -> peaks.PeakConfig:
    """Peak picking from the given flags, with the detector's own
    neighbor radius unless ``--neighbors`` is given."""
    options = _given(args, "threshold_rule", "threshold_scale", "min_gap")
    radius = getattr(args, "neighbors",
                     detect.DETECTORS[kind].neighbor_radius)
    return peaks.PeakConfig(neighbors=peaks.symmetric_neighbors(radius),
                            **options)


def _detect_onsets(wav_path: str, args) -> peaks.OnsetSequence:
    kind = _KIND_BY_NAME[args.detector]
    series = detect.run_detector(
        audio.load_wav(wav_path), kind,
        **_given(args, "window_length", "hop", "cutoff_hz"))
    return peaks.detect_peaks(series, _peak_config(args, kind))


def _load_query(path: str, args) -> peaks.OnsetSequence:
    """A query is either a WAV recording or a plain onset listing
    (JSON array, or one time per line)."""
    if path.lower().endswith(".wav"):
        return _detect_onsets(path, args)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        times = json.loads(text)
    except json.JSONDecodeError as exc:
        if text.lstrip().startswith(("[", "{")):
            raise ValueError(f"{path}: {exc}") from exc
        try:
            times = [float(token) for token in text.split()]
        except ValueError:  # not a number: the listing check words it
            times = None
    except RecursionError:  # nested deeper than the decoder can follow
        times = None
    if isinstance(times, (int, float)):  # a one-line listing
        times = [times]
    if not store.is_number_array(times):
        raise ValueError("query listing must be a JSON array of numbers "
                         "or one time per line")
    return peaks.OnsetSequence(times=times, unit="seconds")


def _cmd_detect(args) -> int:
    onsets = _detect_onsets(args.wav, args)
    out = onsets.to_json() + "\n" if args.json else onsets.to_text()
    _write_output(out, args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    db = store.db_load(args.db)
    query = _load_query(args.query, args)
    result = search.rank(db, query, **_given(args, "top_k", "closeness"))
    if args.json:
        doc = [
            {
                "rank": i + 1,
                "id": e.song_id,
                "title": e.title,
                **dataclasses.asdict(e.match),
                "close": e.within_closeness,
            }
            for i, e in enumerate(result.entries)
        ]
        _write_output(json.dumps(doc, indent=2) + "\n", args.out)
        for song_id, reason in result.skipped:
            print(f"skipped {song_id}: {reason}", file=sys.stderr)
    else:
        lines = [f"{'rank':>4}  {'id':<16} {'score':>7}  title"]
        for i, e in enumerate(result.entries):
            flag = " *" if e.within_closeness else ""
            lines.append(
                f"{i + 1:>4}  {e.song_id:<16} {e.match.score:>7.3f}  "
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
    try:
        onsets = [float(x) for x in args.onsets.split(",")]
    except ValueError:  # not a number: the record check words it
        onsets = args.onsets
    record = store.parse_record(
        {"id": args.id, "title": args.title, "onsets_beats": onsets}, len(db))
    db = store.Database(records=db.records + (record,))
    store.db_save(db, args.db)
    print(f"added {record.id} ({len(record.onsets_beats)} onsets)")
    return EXIT_OK


def _cmd_power(args) -> int:
    model = power.OnsetModel.from_ssnr(
        **_given(args, *(dest for _, dest, _ in _MODEL_FLAGS)))

    if args.power_cmd == "bound":
        ssnr = getattr(args, "ssnr", power.REFERENCE_SSNR)
        threshold = ssnr * model.noise_sd ** 2
        try:  # range counts the points in Python integers, exactly at any size
            offsets = np.array(range(args.offset_min, args.offset_max + 1,
                                     args.offset_step), dtype=np.int64)
        except OverflowError:
            raise ValueError("--offset-min, --offset-max and --offset-step "
                             "give an offset beyond int64") from None
        if len(offsets) == 0:
            raise UsageError(f"--offset-min {args.offset_min} is above "
                             f"--offset-max {args.offset_max}")
        curve = power.energy_power_curve(
            model, _peak_config(args, "energy"), threshold, offsets,
            **_given(args, "window_length", "hop", "draws", "seed"))
        p_noise = power.energy_tail_probability(
            model, threshold, -math.inf, **_given(args, "window_length"))
        fp_bound = power.false_positive_upper_bound(p_noise)
        summary = _region_summary(curve)
        print(f"lower bound >= 0.9 on offsets {summary}")
        print(f"false-positive upper bound (noise-only window): "
              f"{fp_bound:.3e}")
    else:  # simulate
        kind = _KIND_BY_NAME[args.detector]
        curve = power.monte_carlo_power(
            model, kind, _peak_config(args, kind), args.trials,
            **_given(args, "seed", "window_length", "hop", "cutoff_hz"))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by
    every call: each ``parse_args`` fills a fresh namespace, so no call
    sees another's flags."""
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
    _add_flag(p_search, "--top", "top_k", type=int)
    _add_flag(p_search, "--closeness", "closeness", type=float)
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
    p_bound = power_sub.add_parser("bound")
    _add_frame_flags(p_bound)  # the energy detector's analytic bound
    p_simulate = power_sub.add_parser("simulate")
    _add_detector_flags(p_simulate)
    for p in (p_bound, p_simulate):
        for flag, dest, cast in _MODEL_FLAGS:
            _add_flag(p, flag, dest, type=cast)
        _add_flag(p, "--seed", "seed", type=int)
        p.add_argument("--out", default=None, help="CSV output path")
        p.set_defaults(func=_cmd_power)
    _add_flag(p_bound, "--draws", "draws", type=int)
    p_bound.add_argument("--offset-min", type=int, default=-1024)
    p_bound.add_argument("--offset-max", type=int, default=1024)
    p_bound.add_argument("--offset-step", type=_positive_int, default=128)
    p_simulate.add_argument("--trials", type=_positive_int, default=1000)

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
    # an integer beyond int64, or an array the host refuses
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
