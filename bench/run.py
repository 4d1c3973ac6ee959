"""humsearch benchmark: seeded, download-free, run from the repository root.

    python3 bench/run.py --workload {hum_wav,onset_rank,power_curves} \\
        --seed N --seconds S --trace {0,1}

Generates the workload's corpus from the seed under ``.bench_work/``, times
set-up in fresh processes, then serves the workload in one more fresh
process (``serve.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The run's environment and full result are written beside the corpus.
See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hum_wav", "onset_rank", "power_curves")
SETUP_REPS = 3
CLOSENESS = 0.05
POWER_TRIALS = 8           # Monte Carlo trials per `power simulate`
POWER_DRAWS = 1000         # draws per offset of `power bound`
VALIDATE_EVERY = 2         # one `db validate` after this many searches
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "score_margin": "score",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "bound_s": "s",
}
PER_LAYER = {
    "store.db_save_ms": "ms",
    "store.db_load_ms": "ms",
    "audio.load_wav_ms": "ms",
    "audio.samples": "count/query",
    "spectral.stft_ms": "ms",
    "spectral.frames": "count/query",
    "detect.energy_ms": "ms",
    "detect.sd_ms": "ms",
    "detect.dsd_ms": "ms",
    "peaks.detect_peaks_ms": "ms",
    "peaks.onsets": "count/query",
    "peaks.spurious_onsets": "count/query",
    "match.correlative_match_ms": "ms",
    "match.calls": "count/query",
    "match.cells": "count/query",
    "match.us_per_cell": "us",
    "search.rank_ms": "ms",
    "search.rank_self_ms": "ms",
    "cli.self_ms": "ms",
    "power.synth_signal_ms": "ms",
    "power.trial_ms": "ms",
    "power.bound_offset_ms": "ms",
    "trace.overhead_ms": "ms",
}


def search_ops(corpus: dict, db: str) -> list:
    """One `search` per query, with a `db validate` after every
    VALIDATE_EVERY of them."""
    ops = []
    for i, query in enumerate(corpus["queries"]):
        flags = ["--detector", query["detector"]] if "detector" in query else []
        ops.append({
            "kind": "search", "query": query["path"], "detector_flags": flags,
            "argv": ["search", query["path"], "--db", db, "--json",
                     "--top", "5", "--closeness", str(CLOSENESS)] + flags,
            "expect": query,
        })
        if (i + 1) % VALIDATE_EVERY == 0:
            ops.append({"kind": "validate",
                        "argv": ["db", "validate", "--db", db]})
    return ops


def power_ops(seed: int, workdir: str, trials: int = POWER_TRIALS) -> list:
    """`power simulate` for sd, dsd and energy on the reference onset
    model, then one `power bound` at a fixed draw count."""
    ops = []
    for k, (detector, hop) in enumerate((("sd", 2048), ("dsd", 2048),
                                         ("energy", 512))):
        csv = f"{workdir}/simulate_{detector}.csv"
        ops.append({
            "kind": "simulate", "detector": detector, "hop": hop,
            "trials": trials, "csv": csv,
            "argv": ["power", "simulate", "--detector", detector,
                     "--trials", str(trials), "--seed",
                     str(10 * seed + k), "--out", csv],
        })
    csv = f"{workdir}/bound.csv"
    ops.append({"kind": "bound", "csv": csv,
                "argv": ["power", "bound", "--draws", str(POWER_DRAWS),
                         "--seed", str(10 * seed + 3), "--out", csv]})
    return ops


def build_manifest(workload: str, seed: int, workdir: str, **sizes) -> dict:
    """The workload's operations and catalogue; ``sizes`` shrink the
    corpus or the trial count for quick tests."""
    import corpus

    manifest = {"workload": workload, "seed": seed, "src": "src",
                "workdir": workdir, "closeness": CLOSENESS, "db": None,
                "songs": [], "db_add": []}
    if workload == "power_curves":
        manifest["ops"] = power_ops(seed, workdir, **sizes)
        return manifest
    made = getattr(corpus, workload)(seed, workdir, **sizes)
    db = f"{workdir}/songs.json"
    manifest.update(
        db=db, songs=made["songs"], ops=search_ops(made, db),
        db_add=[["db", "add", "--db", db, "--id", s["id"], "--title",
                 s["title"], "--onsets", ",".join(map(repr, s["beats"]))]
                for s in made["songs"]])
    return manifest


def child(script: str, *args: str, timeout: float) -> dict:
    """Run a bench script in a fresh interpreter; its last stdout line is
    JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="humsearch benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # one BLAS/OpenMP thread here and in every child; numpy is not loaded yet
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"

    if not os.path.isfile(os.path.join(ROOT, "src", "humsearch", "cli.py")):
        print(f"error: no humsearch sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    workdir = os.path.join(".bench_work", args.workload)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    os.chdir(ROOT)

    manifest = build_manifest(args.workload, args.seed, workdir)
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    setup = []
    if not args.trace:
        setup = [child("setup_probe.py", manifest_path, timeout=60)["setup_s"]
                 for _ in range(SETUP_REPS)]
    served = child("serve.py", "--manifest", manifest_path,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   timeout=175 - (time.monotonic() - started))
    values = dict(served["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": served["correct"],
        "attempted": served["attempted"],
        "failed": served["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": version("numpy"), "scipy": version("scipy"),
           "blas_threads": 1, "rounds": served["rounds"],
           "samples": served["samples"], "setup_samples_s": setup}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "problems": served["problems"], **result}, fh,
                  indent=1)
    for problem in served["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
