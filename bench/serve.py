"""Serve one benchmark workload in this process and measure it.

Started by ``run.py`` in a fresh process, so that its peak resident memory
is the program's and not the corpus generator's.  It drives humsearch
through ``humsearch.cli.main``, one operation at a time (a closed loop with
one client and no worker threads), repeating the manifest's round of
operations until ``--seconds`` have passed and at least MIN_SAMPLES timing
samples were attempted, always ending on a whole round.  Every output is checked
(see ``oracles.py``).  It prints one JSON object as its last line.

With ``--trace 1`` the rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds and ``trace.overhead_ms``
compares the two.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time

import numpy as np

import oracles
import tracing

MIN_SAMPLES = 40       # so the tail percentile has ten samples beyond it


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """The highest order statistic with at least ten samples beyond it
    (the largest, when there are fewer than eleven)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[-11] if len(ordered) > 10 else ordered[-1])


def _per_second(count, seconds) -> float:
    return count / seconds if seconds else 0.0


class Workload:
    """One manifest's operations, the data their checks need, and what the
    checks found."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.ops = manifest["ops"]
        self.power = manifest["workload"] == "power_curves"
        self.songs = {s["id"]: np.asarray(s["beats"]) for s in manifest["songs"]}
        self.first_output: dict[int, str] = {}
        self.query_onsets: dict[int, np.ndarray] = {}
        self.correct = True
        self.problems: list[str] = []
        self.margins: dict[int, float] = {}

    # -- running operations

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:    # an operation that raises has failed
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue(), err.getvalue()

    def prepare(self, cli, tracer) -> None:
        """Build the DB when tracing (set-up is otherwise timed by run.py),
        check the DB against the catalogue, and take each query's onsets:
        the listing itself, or what ``detect`` reports for a WAV."""
        self.cli = cli
        db = self.manifest["db"]
        if tracer is not None and db:
            tracer.install()
            try:
                for argv in self.manifest["db_add"]:
                    span = tracer.begin("op.db_add")
                    code, _, _, err = self.call(argv)
                    tracer.finish(span)
                    if code != 0:
                        self.incorrect(f"db add: {code} {err.strip()}")
            finally:
                tracer.uninstall()
        if db:
            code, _, out, err = self.call(["db", "list", "--db", db])
            listed = [(line.split()[0], int(line.split()[1]))
                      for line in out.splitlines()]
            wanted = [(s["id"], len(s["beats"])) for s in self.manifest["songs"]]
            if code != 0 or listed != wanted:
                self.incorrect(f"db list does not match the catalogue: {err}")
        for i, op in enumerate(self.ops):
            if op["kind"] != "search":
                continue
            if op["query"].endswith(".wav"):
                code, _, out, err = self.call(
                    ["detect", op["query"], "--json"] + op["detector_flags"])
                if code != 0:
                    self.incorrect(f"detect {op['query']}: {code} {err}")
                    continue
                self.query_onsets[i] = np.asarray(json.loads(out))
            else:
                with open(op["query"], encoding="utf-8") as fh:
                    self.query_onsets[i] = np.asarray(json.load(fh))
        # warm-up: one untimed call of each kind of operation
        for kind in dict.fromkeys(op["kind"] for op in self.ops):
            self.call(next(op for op in self.ops if op["kind"] == kind)["argv"])

    def incorrect(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)

    def check(self, i: int, code, out: str, err: str) -> list[str]:
        """Problems with operation ``i``'s output; also records its
        quality margin and whether it repeats its first output."""
        op = self.ops[i]
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        kind = op["kind"]
        csv_text = ""
        if kind in ("simulate", "bound"):
            try:
                with open(op["csv"], encoding="utf-8") as fh:
                    csv_text = fh.read()
            except OSError as exc:
                return [f"no CSV: {exc}"]
        if self.first_output.setdefault(i, csv_text + out) != csv_text + out:
            self.incorrect(f"op {i} gave a different output than before")
        margin = None
        try:
            if kind == "search" and i not in self.query_onsets:
                problems = ["no detected onsets to check the score against"]
            elif kind == "search":
                doc = json.loads(out)
                problems = oracles.check_search(
                    doc, self.query_onsets[i], op["expect"], self.songs,
                    self.manifest["closeness"])
                if not problems:
                    margin = doc[0]["score"] - doc[1]["score"]
            elif kind == "validate":
                wanted = f"ok: {len(self.songs)} records"
                problems = ([] if out.strip() == wanted
                            else [f"validate: {out!r}"])
            elif kind == "simulate":
                problems, margin = oracles.check_simulate(
                    csv_text, op["detector"], op["trials"], op["hop"])
            else:
                problems, margin = oracles.check_bound(csv_text, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if margin is not None and not problems:
            self.margins[i] = margin
        return problems


def run(manifest: dict, seconds: float, trace: bool,
        min_samples: int = MIN_SAMPLES) -> dict:
    sys.path.insert(0, manifest["src"])
    from humsearch import cli

    work = Workload(manifest)
    tracer = tracing.Tracer() if trace else None
    work.prepare(cli, tracer)

    samples = {False: [], True: []}       # traced? -> timing samples
    attempts = {False: 0, True: 0}        # traced? -> samples attempted
    op_times: dict[str, list[float]] = {}
    attempted = failed = trials_done = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        round_times = []
        try:
            for i, op in enumerate(work.ops):
                if traced:
                    root = tracer.begin("op." + op["kind"])
                    root.count = i
                code, elapsed, out, err = work.call(op["argv"])
                if traced:
                    tracer.finish(root)
                attempted += 1
                attempts[traced] += op["kind"] == "search"
                problems = work.check(i, code, out, err)
                if problems:
                    failed += 1
                    work.problems.extend(f"op {i}: {p}" for p in problems)
                    continue
                round_times.append(elapsed)
                if not traced:
                    op_times.setdefault(op["kind"], []).append(elapsed)
                    trials_done += op.get("trials", 0)
                if op["kind"] == "search":
                    samples[traced].append(elapsed)
        finally:
            if traced:
                tracer.uninstall()
        if work.power:
            attempts[traced] += 1
            if round_times:
                samples[traced].append(sum(round_times) / len(round_times))
        rounds += 1
        enough = all(attempts[t] >= min_samples for t in {False, trace})
        if (time.perf_counter() - start >= seconds and enough
                and rounds >= 1 + trace):
            break

    result = {"correct": work.correct, "attempted": attempted,
              "failed": failed, "problems": work.problems[:10],
              "rounds": rounds, "samples": len(samples[False])}
    if trace:
        metrics = layer_metrics(tracer, work)
        metrics["trace.overhead_ms"] = 1e3 * (_median(samples[True])
                                              - _median(samples[False]))
        tracer.dump(manifest["workdir"] + "/spans.jsonl")
    else:
        metrics = end_to_end(manifest, samples[False], op_times,
                             trials_done, work)
    result["metrics"] = metrics
    return result


def end_to_end(manifest, samples, op_times, trials_done, work) -> dict:
    ms = [1e3 * t for t in samples]
    metrics = {
        "query_p50_ms": _median(ms),
        "query_tail_ms": tail(ms),
        "score_margin": (sum(work.margins.values()) / len(work.margins)
                         if work.margins else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024,
    }
    if work.power:
        every = [t for times in op_times.values() for t in times]
        metrics["queries_per_s"] = _per_second(len(every), sum(every))
        metrics["trials_per_s"] = _per_second(
            trials_done, sum(op_times.get("simulate", [])))
        metrics["bound_s"] = _median(op_times.get("bound", []))
    else:
        search = op_times.get("search", [])
        metrics["queries_per_s"] = _per_second(len(search), sum(search))
        metrics["trials_per_s"] = _per_second(
            len(search) * len(manifest["songs"]), sum(search))
        metrics["bound_s"] = _median(op_times.get("validate", []))
    return metrics


def layer_metrics(tracer: tracing.Tracer, work: Workload) -> dict:
    spans = tracer.spans
    kids = tracer.children()
    roots = []                                   # root index of each span
    for span in spans:
        roots.append(len(roots) if span.parent is None else roots[span.parent])
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def ms(name, under=None):
        return _median(spans[i].ms for i in by_name.get(name, ())
                       if under is None or spans[roots[i]].name == under)

    def self_ms(name):
        return _median(tracer.self_ms(i, kids) for i in by_name.get(name, ()))

    def counts(name):
        return [spans[i].count for i in by_name.get(name, ())]

    searches = by_name.get("op.search", [])
    per_query_matches = {r: [] for r in searches}
    for i in by_name.get("match.correlative_match", ()):
        per_query_matches[roots[i]].append(spans[i])
    spurious = []
    for i in by_name.get("peaks.detect_peaks", ()):
        op = work.ops[spans[roots[i]].count] if spans[roots[i]].name == \
            "op.search" else None
        if op is not None and "notes" in op["expect"]:
            notes = np.asarray(op["expect"]["notes"])
            onsets = spans[i].count
            spurious.append(int(sum(np.min(np.abs(notes - t)) > 0.1
                                    for t in onsets)))
    match_ms = sum(s.ms for m in per_query_matches.values() for s in m)
    cells = sum(s.count for m in per_query_matches.values() for s in m)
    cli_roots = searches if searches else [
        i for i, s in enumerate(spans) if s.parent is None
        and s.name in ("op.simulate", "op.bound")]
    trials = [spans[i].ms / spans[i].count
              for i in by_name.get("power.monte_carlo_power", ())]
    return {
        "store.db_save_ms": ms("store.db_save"),
        "store.db_load_ms": ms("store.db_load", under="op.search"),
        "audio.load_wav_ms": ms("audio.load_wav"),
        "audio.samples": _median(counts("audio.load_wav")),
        "spectral.stft_ms": ms("spectral.stft"),
        "spectral.frames": _median(counts("spectral.stft")),
        "detect.energy_ms": self_ms("detect.energy"),
        "detect.sd_ms": self_ms("detect.sd"),
        "detect.dsd_ms": self_ms("detect.dsd"),
        "peaks.detect_peaks_ms": ms("peaks.detect_peaks"),
        "peaks.onsets": _median(len(c) for c in counts("peaks.detect_peaks")),
        "peaks.spurious_onsets": (sum(spurious) / len(spurious)
                                  if spurious else 0.0),
        "match.correlative_match_ms": ms("match.correlative_match"),
        "match.calls": (sum(len(m) for m in per_query_matches.values())
                        / len(searches) if searches else 0.0),
        "match.cells": cells / len(searches) if searches else 0.0,
        "match.us_per_cell": 1e3 * match_ms / cells if cells else 0.0,
        "search.rank_ms": ms("search.rank"),
        "search.rank_self_ms": self_ms("search.rank"),
        "cli.self_ms": _median(tracer.self_ms(i, kids) for i in cli_roots),
        "power.synth_signal_ms": ms("power.synth_signal"),
        "power.trial_ms": _median(trials),
        "power.bound_offset_ms": ms("power.bound_offset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps(run(manifest, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
