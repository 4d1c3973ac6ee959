"""Quick tests of the benchmark: a tiny run of each workload with every
check, each check rejecting a corrupted result, and the command refusing
to run without the program's sources."""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import corpus
import oracles
import run
import serve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {"hum_wav": {"songs": (0, 14)},
        "onset_rank": {"songs": 8, "queries": 4},
        "power_curves": {"trials": 2}}


def tiny_manifest(workload, workdir, seed=3):
    manifest = run.build_manifest(workload, seed, str(workdir),
                                  **TINY[workload])
    manifest["src"] = os.path.join(ROOT, "src")
    return manifest


def cli_call(argv):
    from humsearch import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def build_db(manifest):
    for argv in manifest["db_add"]:
        cli_call(argv)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_every_check(workload, trace, tmp_path):
    manifest = tiny_manifest(workload, tmp_path)
    if not trace:                # a traced run builds and traces its own DB
        build_db(manifest)
    result = serve.run(manifest, seconds=0, trace=trace, min_samples=1)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    assert result["attempted"] == len(manifest["ops"]) * result["rounds"]
    expected = run.PER_LAYER if trace else set(run.END_TO_END) - {"setup_s"}
    assert set(result["metrics"]) == set(expected)
    assert all(np.isfinite(v) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["score_margin"] > 0
    elif workload == "onset_rank":
        assert result["metrics"]["match.calls"] == TINY[workload]["songs"]


def test_run_ends_and_counts_when_every_search_fails(tmp_path):
    manifest = tiny_manifest("onset_rank", tmp_path)
    build_db(manifest)
    for op in manifest["ops"]:
        if op["kind"] == "search":
            op["expect"] = dict(op["expect"], song="no such song")
    result = serve.run(manifest, seconds=0, trace=False, min_samples=1)
    searches = sum(op["kind"] == "search" for op in manifest["ops"])
    assert result["failed"] == searches * result["rounds"]
    assert result["correct"]
    assert result["metrics"]["query_p50_ms"] == 0.0


@pytest.fixture(scope="module")
def search_case(tmp_path_factory):
    """A real ``search --json`` result for an onset listing, which passes."""
    manifest = tiny_manifest("onset_rank", tmp_path_factory.mktemp("case"))
    build_db(manifest)
    op = manifest["ops"][0]
    doc = json.loads(cli_call(op["argv"]))
    with open(op["query"], encoding="utf-8") as fh:
        query = np.asarray(json.load(fh))
    songs = {s["id"]: np.asarray(s["beats"]) for s in manifest["songs"]}
    assert oracles.check_search(doc, query, op["expect"], songs,
                                run.CLOSENESS) == []
    return doc, query, op["expect"], songs


def _swap_top_ids(doc):
    doc[0]["id"], doc[1]["id"] = doc[1]["id"], doc[0]["id"]


SEARCH_CORRUPTIONS = {
    "swapped rank-1 id": _swap_top_ids,
    "perturbed score": lambda d: d[0].update(score=d[0]["score"] + 1e-7),
    "flipped close flag": lambda d: d[-1].update(close=not d[-1]["close"]),
    "alpha 0.2 s late": lambda d: d[0].update(alpha=d[0]["alpha"] + 0.2),
    "beta 5 % fast": lambda d: d[0].update(beta=d[0]["beta"] * 1.05),
    "lower score ranked higher": lambda d: d[1].update(score=d[0]["score"]
                                                       + 0.5),
    "wrong rank number": lambda d: d[1].update(rank=3),
}


@pytest.mark.parametrize("corruption", SEARCH_CORRUPTIONS)
def test_search_check_rejects(corruption, search_case):
    doc, query, expect, songs = search_case
    bad = copy.deepcopy(doc)
    SEARCH_CORRUPTIONS[corruption](bad)
    assert oracles.check_search(bad, query, expect, songs, run.CLOSENESS)


@pytest.fixture(scope="module")
def power_case(tmp_path_factory):
    """Real ``power simulate`` (sd, dsd) and ``power bound`` outputs."""
    workdir = tmp_path_factory.mktemp("power")
    ops = run.power_ops(3, str(workdir), trials=2)
    outputs = {}
    for op in ops:
        stdout = cli_call(op["argv"])
        with open(op["csv"], encoding="utf-8") as fh:
            outputs[op.get("detector", "bound")] = (fh.read(), stdout)
    return outputs


def _set(csv_text, offset, probability):
    lines = csv_text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if int(cells[0]) == offset:
            lines[i] = f"{cells[0]},{probability},{cells[2]}"
    return "\n".join(lines) + "\n"


def test_power_checks_pass_and_reject(power_case):
    for detector in ("sd", "dsd", "energy"):
        text = power_case[detector][0]
        assert oracles.check_simulate(text, detector, 2,
                                      512 if detector == "energy" else 2048
                                      )[0] == []
    for detector in ("sd", "dsd"):
        missed = _set(power_case[detector][0], 0, 0.5)
        assert oracles.check_simulate(missed, detector, 2, 2048)[0]
    early = _set(power_case["dsd"][0], -4096, 0.5)
    assert oracles.check_simulate(early, "dsd", 2, 2048)[0]
    not_counts = _set(power_case["sd"][0], 2048, 0.3)
    assert oracles.check_simulate(not_counts, "sd", 2, 2048)[0]

    text, stdout = power_case["bound"]
    assert oracles.check_bound(text, stdout)[0] == []
    assert oracles.check_bound(_set(text, 256, 0.5), stdout)[0]
    assert oracles.check_bound(_set(text, -1024, 0.95), stdout)[0]
    wrong = stdout.replace(f"{oracles.false_positive_bound():.3e}",
                           "4.805e-21")
    assert oracles.check_bound(text, wrong)[0]


def test_false_positive_number():
    assert abs(oracles.false_positive_bound() / 4.704e-21 - 1) < 1e-3


def test_brute_force_score_of_exact_and_extra_onsets():
    beats = np.array([0.0, 1.0, 2.0, 3.5, 4.0, 6.0])
    query = 0.7 + 0.45 * beats
    assert oracles.brute_force_score(query, beats, 0.7, 0.45) == \
        pytest.approx(1.0)
    extra = np.sort(np.append(query, 0.7 + 0.45 * 5.0))
    assert oracles.brute_force_score(extra, beats, 0.7, 0.45) == \
        pytest.approx(6 / 7)


def test_tail_has_ten_beyond():
    assert serve.tail(range(40)) == 29
    assert serve.tail(range(5)) == 4


def test_corpora_follow_the_seed_and_the_spec(tmp_path):
    made = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        os.makedirs(tmp_path / name)
        made[name] = corpus.onset_rank(seed, str(tmp_path / name), songs=8,
                                       queries=4)
    a, b, c = made["a"], made["b"], made["c"]
    assert a["songs"] == b["songs"]
    assert [q["beat0"] for q in a["queries"]] == \
        [q["beat0"] for q in b["queries"]]
    assert c["songs"] != a["songs"]
    assert [len(s["beats"]) for s in a["songs"]][::7] == [16, 64]

    hums = corpus.hum_wav(5, str(tmp_path), songs=(0, 14))
    for q in hums["queries"]:
        notes = np.asarray(q["notes"])
        assert corpus.HUM_SECONDS[0] <= q["seconds"] <= corpus.HUM_SECONDS[1]
        assert np.diff(notes).min() >= corpus.HUM_MIN_GAP
        assert corpus.HUM_TEMPO[0] <= q["tempo"] <= corpus.HUM_TEMPO[1]
        assert os.path.getsize(q["path"]) > 44


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hum_wav", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
