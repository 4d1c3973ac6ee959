import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch import cli, detect
from humsearch.audio import Signal, load_wav
from humsearch.cli import main
from humsearch.detect import DETECTORS, run_detector
from humsearch.match import SimilarityResult, subset_match
from humsearch.peaks import (OnsetSequence, PeakConfig, detect_peaks,
                             symmetric_neighbors)
from humsearch.power import (
    REFERENCE_SSNR,
    OnsetModel,
    energy_power_curve,
    monte_carlo_power,
    write_power_csv,
)
from humsearch.search import rank
from humsearch.spectral import CUTOFF_HZ, band_limit_bins, stft
from humsearch.store import db_load

from conftest import write_pcm_wav

SR = 48000


def click_train_wav(path, click_times, duration=4.0, noise_sd=0.0):
    """Decaying 440 Hz bursts at the given onset times; the burst outlasts
    the analysis window so window energies fall off strictly and the energy
    peak lands on the window starting at the onset.  ``noise_sd`` adds a
    seeded white-noise floor."""
    samples = np.zeros(int(duration * SR))
    burst_len = 6000
    t = np.arange(burst_len) / SR
    burst = 0.8 * np.exp(-30.0 * t) * np.cos(2 * np.pi * 440.0 * t)
    for start_s in click_times:
        k = int(start_s * SR)
        samples[k: k + burst_len] += burst
    if noise_sd:
        samples += np.random.default_rng(0).normal(0.0, noise_sd, len(samples))
    return write_pcm_wav(path, samples, sample_rate=SR)


def write_db(path, patterns):
    doc = [
        {"id": sid, "title": sid.upper(), "onsets_beats": list(map(float, b))}
        for sid, b in patterns.items()
    ]
    path.write_text(json.dumps(doc))
    return path


def library_csv(curve):
    buf = io.StringIO()
    write_power_csv(curve, buf)
    return buf.getvalue()


class TestCliEqualsLibrary:
    """Each command with no tuning flags gives what the library gives with
    its own defaults, and the detector table is the one source of the
    per-detector settings."""

    MODEL_ARGS = ["--length", "16384", "--onset-index", "8192"]

    @pytest.mark.parametrize("kind, flags, options", [
        pytest.param(kind, flags, options, id=kind + suffix)
        for kind in sorted(DETECTORS) for flags, options, suffix in (
            ([], {}, ""),
            (["--threshold", "mean"], {}, "-mean"),
            (["--threshold", "q3"], {"threshold_rule": "q3"}, "-q3"))])
    def test_detect_equals_library(self, kind, flags, options, tmp_path,
                                   capsys):
        # over a noise floor, so that the two threshold rules differ
        path = click_train_wav(tmp_path / "clicks.wav", [0.5, 1.0, 1.6, 2.5],
                               noise_sd=0.01)
        name = DETECTORS[kind].cli_name
        assert main(["detect", str(path), "--json", "--detector", name]
                    + flags) == 0
        neighbors = symmetric_neighbors(DETECTORS[kind].neighbor_radius)
        series = run_detector(load_wav(path), kind)
        onsets = detect_peaks(series, PeakConfig(neighbors=neighbors,
                                                 **options))
        assert len(onsets) >= 4
        assert capsys.readouterr().out == onsets.to_json() + "\n"
        default = detect_peaks(series, PeakConfig(neighbors=neighbors))
        assert np.array_equal(onsets.times, default.times) == (not options)

    @pytest.mark.parametrize("kind, flags, options", [
        pytest.param(kind, flags, options, id=kind + suffix)
        for kind in sorted(DETECTORS) for flags, options, suffix in (
            ([], {}, ""),
            (["--window", "2048", "--hop", "1024", "--cutoff-hz", "500"],
             {"window_length": 2048, "hop": 1024, "cutoff_hz": 500},
             "-w2048-h1024-c500"))])
    def test_simulate_equals_library(self, kind, flags, options, tmp_path,
                                     capsys):
        out = tmp_path / "sim.csv"
        assert main(["power", "simulate", "--detector",
                     DETECTORS[kind].cli_name, "--trials", "3",
                     "--out", str(out)] + flags + self.MODEL_ARGS) == 0
        config = PeakConfig(neighbors=symmetric_neighbors(
            DETECTORS[kind].neighbor_radius))
        model = OnsetModel.from_ssnr(length=16384, onset_index=8192)
        curve = monte_carlo_power(model, kind, config, trials=3, **options)
        assert out.read_text() == library_csv(curve)
        window = options.get("window_length", detect.WINDOW_LENGTH)
        assert curve.offsets[0] == window // 2 - model.onset_index

    def test_bound_equals_library(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["power", "bound", "--draws", "300", "--offset-min",
                     "-512", "--offset-max", "512", "--offset-step", "512",
                     "--out", str(out)] + self.MODEL_ARGS) == 0
        model = OnsetModel.from_ssnr(length=16384, onset_index=8192)
        curve = energy_power_curve(
            model, PeakConfig(neighbors=symmetric_neighbors(
                DETECTORS["energy"].neighbor_radius)),
            REFERENCE_SSNR * model.noise_sd ** 2, [-512, 0, 512], draws=300)
        assert out.read_text() == library_csv(curve)

    def test_search_equals_library(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        db = write_db(tmp_path / "db.json", {
            f"s{i}": np.cumsum(rng.integers(1, 4, size=8)) for i in range(8)})
        query = tmp_path / "query.json"
        times = [0.0, 0.5, 1.5, 2.0, 3.0, 3.5, 4.5]
        query.write_text(json.dumps(times))
        assert main(["search", str(query), "--db", str(db), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        result = rank(db_load(db), OnsetSequence(times=times))
        assert len(got) == len(result.entries) == 5
        assert got == [
            {"rank": i + 1, "id": e.song_id, "title": e.title,
             "score": e.match.score, "alpha": e.match.alpha,
             "beta": e.match.beta, "matched": e.match.matched,
             "close": e.within_closeness}
            for i, e in enumerate(result.entries)]

    def test_search_json_entry_is_the_whole_match_result(self, tmp_path,
                                                         capsys):
        # a field added to SimilarityResult reaches the JSON unasked, and
        # "matched" is L, the pairs that subset_match finds under the map
        rng = np.random.default_rng(7)
        songs = {f"s{i}": np.cumsum(rng.integers(1, 4, size=8))
                 for i in range(8)}
        db = write_db(tmp_path / "db.json", songs)
        query = tmp_path / "query.json"
        times = OnsetSequence(times=[0.0, 0.5, 1.5, 2.0, 3.0, 3.5, 4.5])
        query.write_text(times.to_json())
        assert main(["search", str(query), "--db", str(db), "--json",
                     "--top", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = ["rank", "id", "title",
                *(f.name for f in dataclasses.fields(SimilarityResult)),
                "close"]
        assert [list(entry) for entry in doc] == [keys] * len(songs)
        for entry in doc:
            mapped = entry["alpha"] + entry["beta"] * songs[entry["id"]]
            assert entry["matched"] == len(subset_match(
                times, OnsetSequence(times=mapped)).matched_entries)
        assert {entry["matched"] for entry in doc} == {6, 7}

    @pytest.mark.parametrize("flags", [
        ["--detector", "sd"], ["--min-gap", "0.2"], ["--threshold", "q3"],
        ["--threshold-scale", "2"], ["--cutoff-hz", "500"],
    ])
    def test_bound_rejects_flags_it_does_not_read(self, flags, capsys):
        assert main(["power", "bound"] + flags) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_calibrated_defaults(self):
        parser = cli._Parser()
        cli._add_detector_flags(parser)
        for name, hop, radius in (("energy", 512, 8), ("sd", 2048, 4),
                                  ("dsd", 2048, 2)):
            kind = cli._KIND_BY_NAME[name]
            config = cli._peak_config(
                parser.parse_args(["--detector", name]), kind)
            assert config.neighbors == symmetric_neighbors(radius)
            assert (config.threshold_rule, config.threshold_scale,
                    config.min_gap) == ("mean", 1.0, 0.1)
            assert (DETECTORS[kind].hop, detect.WINDOW_LENGTH) == (hop, 4096)

    def test_defaults_come_from_the_detector_table(self, rng):
        sig = Signal(samples=rng.normal(size=SR), sample_rate=SR)
        model = OnsetModel.from_ssnr(onset_index=8192, length=16384)
        parser = cli._Parser()
        cli._add_detector_flags(parser)
        names = {d.cli_name for d in DETECTORS.values()}
        assert {parser.parse_args(["--detector", n]).detector
                for n in names} == names
        assert parser.parse_args([]).detector == (
            DETECTORS["spectral_dissimilarity"].cli_name)
        with pytest.raises(cli.UsageError):
            parser.parse_args(["--detector", "zero_crossings"])
        for kind, defaults in DETECTORS.items():
            args = parser.parse_args(["--detector", defaults.cli_name])
            assert cli._peak_config(args, kind).neighbors == (
                symmetric_neighbors(defaults.neighbor_radius))
            series = run_detector(sig, kind)
            assert (series.hop, series.window_length) == (
                defaults.hop, detect.WINDOW_LENGTH)
            curve = monte_carlo_power(
                model, kind, PeakConfig(neighbors=symmetric_neighbors(
                    defaults.neighbor_radius)), trials=1)
            assert set(np.diff(curve.offsets)) == {defaults.hop}
            assert curve.offsets[0] == (detect.WINDOW_LENGTH // 2
                                        - model.onset_index)
        assert stft(sig, detect.WINDOW_LENGTH, 2048).frames.shape[1] == (
            band_limit_bins(detect.WINDOW_LENGTH, SR, CUTOFF_HZ))


class TestOneParserPerProcess:
    """``main`` reuses one parser, and no call sees another's flags."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_hop_flag_does_not_outlive_its_call(self, tmp_path, capsys):
        model = OnsetModel.from_ssnr(length=16384, onset_index=8192)
        config = PeakConfig(neighbors=symmetric_neighbors(
            DETECTORS["energy"].neighbor_radius))
        args = ["power", "simulate", "--detector", "energy", "--trials", "2"]
        for hop_flags, hop in ((["--hop", "1024"], 1024), ([], None)):
            out = tmp_path / "sim.csv"
            assert main(args + hop_flags + ["--out", str(out)]
                        + TestCliEqualsLibrary.MODEL_ARGS) == 0
            curve = monte_carlo_power(model, "energy", config, trials=2,
                                      hop=hop)
            assert out.read_text() == library_csv(curve)

    def test_valid_call_after_a_usage_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", TestSearch.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text(json.dumps(TestSearch.PATTERNS["s02"]))
        argv = ["search", str(query), "--db", str(db)]
        assert main(argv + ["--detector", "nope"]) == 1
        assert main(["power", "simulate", "--trials", "0"]) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[1] == "s02"

    def test_detector_flag_does_not_outlive_its_call(self, tmp_path,
                                                     monkeypatch):
        wav = click_train_wav(tmp_path / "q.wav", [0.5, 1.0, 1.6, 2.5])
        db = write_db(tmp_path / "db.json", TestSearch.PATTERNS)
        kinds = []
        real = detect.run_detector

        def spy(signal, kind, *args, **kwargs):
            kinds.append(kind)
            return real(signal, kind, *args, **kwargs)

        monkeypatch.setattr(detect, "run_detector", spy)
        argv = ["search", str(wav), "--db", str(db), "--json"]
        assert main(argv + ["--detector", "energy"]) == 0
        assert main(argv) == 0
        assert kinds == ["energy", "spectral_dissimilarity"]


class TestDetect:
    def test_silent_wav(self, tmp_path, capsys):
        path = write_pcm_wav(tmp_path / "silence.wav", np.zeros(SR))
        assert main(["detect", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_click_train_energy(self, tmp_path, capsys):
        clicks = [0.5, 1.0, 1.5, 2.0, 2.5]
        path = click_train_wav(tmp_path / "clicks.wav", clicks)
        assert main(["detect", str(path), "--detector", "energy"]) == 0
        found = [float(line) for line in
                 capsys.readouterr().out.split()]
        assert len(found) == len(clicks)
        for got, want in zip(found, clicks):
            assert abs(got - want) <= 0.05

    def test_json_output(self, tmp_path, capsys):
        path = click_train_wav(tmp_path / "one.wav", [0.5], duration=1.5)
        assert main(["detect", str(path), "--detector", "energy",
                     "--json"]) == 0
        times = json.loads(capsys.readouterr().out)
        assert len(times) == 1

    def test_out_flag_writes_file(self, tmp_path):
        wav = click_train_wav(tmp_path / "one.wav", [0.5], duration=1.5)
        out = tmp_path / "onsets.txt"
        assert main(["detect", str(wav), "--detector", "energy",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1

    def test_invalid_detector_is_usage_error(self, tmp_path, capsys):
        path = write_pcm_wav(tmp_path / "s.wav", np.zeros(100))
        assert main(["detect", str(path), "--detector", "zcr"]) == 1

    def test_missing_wav_is_io_error(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path / "absent.wav")]) == 3

    def test_wav_too_short_for_a_spectral_detector(self, tmp_path, capsys):
        # 1000 samples are one frame at the spectral detectors' hop
        path = write_pcm_wav(tmp_path / "short.wav",
                             0.1 * np.sin(np.arange(1000) / 5))
        for name in ("sd", "dsd"):
            assert main(["detect", str(path), "--detector", name]) == 2
            assert capsys.readouterr() == (
                "", "error: signal too short for a spectral detector: need "
                "at least 2 frames, got 1 at hop 2048\n")
        assert main(["detect", str(path), "--detector", "energy"]) == 0

    def test_garbage_wav_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"nope")
        assert main(["detect", str(path)]) == 2

    def test_zero_neighbor_radius_is_data_error(self, tmp_path, capsys):
        path = click_train_wav(tmp_path / "one.wav", [0.5], duration=1.5)
        assert main(["detect", str(path), "--neighbors", "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: neighbor radius must be >= 1, got 0\n")

    @pytest.mark.parametrize("flag, name", [
        ("--min-gap", "min_gap"), ("--threshold-scale", "threshold_scale")])
    def test_nan_peak_parameter_is_data_error(self, flag, name, tmp_path,
                                              capsys):
        path = click_train_wav(tmp_path / "one.wav", [0.5], duration=1.5)
        assert main(["detect", str(path), flag, "nan"]) == 2
        assert name in capsys.readouterr().err


class TestDb:
    def test_add_then_list(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "Song One", "--onsets", "0,1,2,4"]) == 0
        assert main(["db", "list", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "s1" in out and "Song One" in out

    def test_add_unsorted_onsets_rejected(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "Bad", "--onsets", "3,1"]) == 2
        assert capsys.readouterr().err == (
            "error: record #0 ('s1'): onset times must be strictly "
            "increasing\n")

    def test_add_one_onset_rejected(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "Bad", "--onsets", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: record #0 ('s1'): needs at least 2 onsets\n")

    @pytest.mark.parametrize("song_id, onsets", [
        ("s1", "3,1"), ("s1", "2"), ("s1", "0,1,inf"), ("", "0,1"),
        ("s\ud800", "0,1")],
        ids=["decreasing", "one onset", "non-finite", "empty id",
             "id not UTF-8"])
    def test_add_and_validate_word_a_bad_record_alike(self, song_id, onsets,
                                                     tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", song_id,
                     "--title", "Bad", "--onsets", onsets]) == 2
        added = capsys.readouterr().err
        assert not db.exists()
        db.write_text(json.dumps([{
            "id": song_id, "title": "Bad",
            "onsets_beats": [float(x) for x in onsets.split(",")]}]))
        assert main(["db", "validate", "--db", str(db)]) == 2
        assert capsys.readouterr().err == added
        assert added.startswith(f"error: record #0 ({song_id!r}): ")

    @pytest.mark.parametrize("onsets", ["a,b", "0,,1"])
    def test_add_non_number_onsets_worded_as_validate(self, onsets, tmp_path,
                                                      capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "Bad", "--onsets", onsets]) == 2
        assert capsys.readouterr() == ("", (
            "error: record #0 ('s1'): onsets_beats must be an array of "
            "numbers\n"))
        assert not db.exists()

    @pytest.mark.parametrize("onsets, beats", [
        ("-0.5,1", [-0.5, 1.0]), ("-.5,1", [-0.5, 1.0]),
        ("-1e3,0", [-1000.0, 0.0])])
    def test_add_negative_first_onset(self, onsets, beats, tmp_path, capsys):
        # argparse would otherwise take "-0.5,1" for a flag
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "T", "--onsets", onsets]) == 0
        assert capsys.readouterr() == ("added s1 (2 onsets)\n", "")
        assert db_load(db).records[0].onsets_beats.times.tolist() == beats

    @pytest.mark.parametrize("onsets", ["-inf,0", "-Infinity,0", "-NaN,0"])
    def test_add_nonfinite_negative_first_onset(self, onsets, tmp_path,
                                                capsys):
        # "-inf" is a value too, worded by the record check
        db = write_db(tmp_path / "db.json", {"a": [0, 1], "b": [0, 2]})
        before = db.read_bytes()
        assert main(["db", "add", "--db", str(db), "--id", "c",
                     "--title", "C", "--onsets", onsets]) == 2
        assert capsys.readouterr() == (
            "", "error: record #2 ('c'): onset times must be finite\n")
        assert db.read_bytes() == before

    @pytest.mark.parametrize("tail", [["-x"], []], ids=["flag", "no value"])
    def test_add_onsets_without_a_value_is_usage_error(self, tail, tmp_path,
                                                       capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "T", "--onsets", *tail]) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: argument --onsets: expected one argument")
        assert not db.exists()

    def test_add_id_that_utf8_cannot_encode_leaves_db(self, tmp_path,
                                                      capsys):
        # "s\udcff" is how Python decodes the argv bytes b"s\xff"
        db = write_db(tmp_path / "db.json", {"s1": [0, 1]})
        before = db.read_bytes()
        assert main(["db", "add", "--db", str(db), "--id", "s\udcff",
                     "--title", "T", "--onsets", "0,1"]) == 2
        assert capsys.readouterr() == ("", (
            "error: record #1 ('s\\udcff'): id and title must be valid "
            "UTF-8\n"))
        assert db.read_bytes() == before

    def test_validate_title_that_utf8_cannot_encode(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text(json.dumps([{"id": "s1", "title": "T\udfff",
                                   "onsets_beats": [0, 1, 2]}]))
        assert main(["db", "validate", "--db", str(db)]) == 2
        assert capsys.readouterr() == ("", (
            "error: record #0 ('s1'): id and title must be valid UTF-8\n"))

    def test_add_numbers_the_record_after_the_last(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", {"s1": [0, 1], "s2": [0, 2]})
        assert main(["db", "add", "--db", str(db), "--id", "s3",
                     "--title", "Bad", "--onsets", "1,1"]) == 2
        assert capsys.readouterr().err == (
            "error: record #2 ('s3'): onset times must be strictly "
            "increasing\n")

    def test_add_duplicate_id_rejected(self, tmp_path):
        db = tmp_path / "db.json"
        main(["db", "add", "--db", str(db), "--id", "s1",
              "--title", "A", "--onsets", "0,1"])
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "B", "--onsets", "0,2"]) == 2

    def test_validate_clean_file(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", {"s1": [0, 1, 2]})
        assert main(["db", "validate", "--db", str(db)]) == 0
        assert "ok: 1 records" in capsys.readouterr().out

    def test_validate_nonfinite_onset(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text('[{"id": "s1", "title": "T", '
                      '"onsets_beats": [0, 1, Infinity]}]')
        assert main(["db", "validate", "--db", str(db)]) == 2
        assert capsys.readouterr().err == (
            "error: record #0 ('s1'): onset times must be finite\n")

    def test_validate_boolean_onsets(self, tmp_path, capsys):
        # JSON booleans are not beat times, though Python's bool is an int
        db = tmp_path / "db.json"
        db.write_text('[{"id": "s1", "title": "T", '
                      '"onsets_beats": [false, true, 2]}]')
        assert main(["db", "validate", "--db", str(db)]) == 2
        assert capsys.readouterr().err == (
            "error: record #0 ('s1'): onsets_beats must be an array of "
            "numbers\n")

    def test_validate_broken_file(self, tmp_path):
        db = tmp_path / "db.json"
        db.write_text(json.dumps(
            [{"id": "s1", "title": "T", "onsets_beats": [1, 1]}]))
        assert main(["db", "validate", "--db", str(db)]) == 2


class TestSearch:
    PATTERNS = {
        "s01": [0, 1, 2, 3, 5],
        "s02": [0, 2, 3, 6, 7],
        "s03": [0, 1, 4, 5, 9],
    }

    def test_beat_listing_query_scores_one(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text(json.dumps(
            [0.5 * b + 0.25 for b in self.PATTERNS["s02"]]))
        assert main(["search", str(query), "--db", str(db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[1] == "s02"
        assert float(lines[1].split()[2]) == pytest.approx(1.0)

    def test_nan_closeness_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text(json.dumps(self.PATTERNS["s02"]))
        assert main(["search", str(query), "--db", str(db),
                     "--closeness", "nan"]) == 2
        assert "closeness" in capsys.readouterr().err

    def test_json_result(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.txt"
        query.write_text("\n".join(
            str(0.4 * b) for b in self.PATTERNS["s03"]))
        assert main(["search", str(query), "--db", str(db), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["id"] == "s03"
        assert doc[0]["score"] == pytest.approx(1.0)
        assert doc[0]["beta"] == pytest.approx(0.4)

    def test_missing_db_is_io_error(self, tmp_path, capsys):
        query = tmp_path / "query.json"
        query.write_text("[0.0, 1.0]")
        assert main(["search", str(query), "--db",
                     str(tmp_path / "absent.json")]) == 3

    def test_nonfinite_query_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text("[0, 1e308, Infinity]")
        assert main(["search", str(query), "--db", str(db)]) == 2
        err = capsys.readouterr().err
        assert err == "error: onset times must be finite\n"

    def test_song_without_finite_score_is_skipped(self, tmp_path, capsys):
        # the 4-onset song's one anchor cell overflows the Pearson sums
        db = write_db(tmp_path / "db.json",
                      {"s3": [0, 1, 2], "s4": [0, 1, 2, 3]})
        query = tmp_path / "query.json"
        query.write_text("[0, 0.5, 1.5, 1e308]")
        assert main(["search", str(query), "--db", str(db), "--json"]) == 0
        out, err = capsys.readouterr()
        assert "NaN" not in out
        assert [e["id"] for e in json.loads(out)] == ["s3"]
        assert err == "skipped s4: no anchor cell gives a finite score\n"
        assert main(["search", str(query), "--db", str(db)]) == 0
        out, err = capsys.readouterr()
        assert "skipped s4: no anchor cell gives a finite score" in out
        assert err == ""

    def test_no_scorable_song_is_data_error(self, tmp_path, capsys):
        # every anchor map of both songs overflows; the database is fine
        db = write_db(tmp_path / "db.json",
                      {"s1": [0, 1, 2, 4], "s2": [0, 2, 3, 5, 6]})
        query = tmp_path / "query.json"
        query.write_text("[1e300, 1.5e300, 1.7e308]")
        assert main(["search", str(query), "--db", str(db)]) == 2
        assert capsys.readouterr() == ("", (
            "error: no scorable records in database (2 skipped; first "
            "'s1': no anchor cell gives a finite score)\n"))

    def test_reads_the_listing_detect_writes(self, tmp_path, capsys):
        # clicks at beats 0, 2, 3 and 6 of song "s04", 0.5 s per beat
        wav = click_train_wav(tmp_path / "hum.wav", [0.5, 1.5, 2.0, 3.5])
        db = write_db(tmp_path / "db.json", {
            **self.PATTERNS, "s04": [0, 2, 3, 6]})

        def search(query, *flags):
            assert main(["search", str(query), "--db", str(db),
                         *flags]) == 0
            return capsys.readouterr().out

        listing = tmp_path / "q.json"
        assert main(["detect", str(wav), "--json", "--out",
                     str(listing)]) == 0
        for flags in ([], ["--json"]):
            assert search(listing, *flags) == search(wav, *flags)
        text = tmp_path / "q.txt"
        assert main(["detect", str(wav), "--out", str(text)]) == 0
        ids = [e["id"] for e in json.loads(search(wav, "--json"))]
        assert [e["id"] for e in json.loads(search(text, "--json"))] == ids
        assert ids[0] == "s04"

    def test_json_object_query_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text('{"a": 1}')
        assert main(["search", str(query), "--db", str(db)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: query listing must be a JSON array of "
                       "numbers or one time per line\n")

    def test_boolean_query_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        for listing in ("[true, 2, 3]", "true"):
            query.write_text(listing)
            assert main(["search", str(query), "--db", str(db)]) == 2
            assert capsys.readouterr().err == (
                "error: query listing must be a JSON array of numbers or "
                "one time per line\n")

    def test_non_number_line_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "q.txt"
        query.write_text("0.5\n1.0\nabc\n")
        assert main(["search", str(query), "--db", str(db)]) == 2
        assert capsys.readouterr() == ("", (
            "error: query listing must be a JSON array of numbers or one "
            "time per line\n"))

    def test_malformed_json_query_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text("[1, 2")
        assert main(["search", str(query), "--db", str(db)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {query}: Expecting ")
        assert err.count("\n") == 1

    def test_zero_top_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text(json.dumps(self.PATTERNS["s02"]))
        assert main(["search", str(query), "--db", str(db),
                     "--top", "0"]) == 2
        assert capsys.readouterr() == ("", "error: top_k must be positive\n")

    def test_short_query_is_data_error(self, tmp_path, capsys):
        db = write_db(tmp_path / "db.json", self.PATTERNS)
        query = tmp_path / "query.json"
        query.write_text("[1.0]")
        assert main(["search", str(query), "--db", str(db)]) == 2
        assert "re-record" in capsys.readouterr().err


onset_values = st.one_of(st.floats(), st.integers(), st.booleans())


class TestListingFuzz:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        return write_db(root / "db.json", TestSearch.PATTERNS), root / "q.txt"

    @settings(max_examples=200, deadline=None)
    @given(listing=st.one_of(
        st.text(max_size=40),
        st.lists(onset_values, max_size=8).map(json.dumps),
        st.lists(st.floats(), max_size=8).map(
            lambda xs: "\n".join(map(repr, xs))),
    ))
    # an integer beyond the float range
    @example(listing="[0, 1" + "0" * 400 + "]")
    # overflow in the ordering check, and in mapping a song onto the query
    @example(listing="1.7976931348623157e+308\n-9.9792015476736e+291")
    @example(listing="0.0\n1.7976931348623153e+308")
    @example(listing="-2.9937604643020797e+292\n1.7976931348623155e+308")
    @example(listing="[" * 100_000 + "]" * 100_000)  # too deep to decode
    def test_search_ends_in_a_documented_exit_code(self, paths, listing):
        db, query = paths
        query.write_text(listing, encoding="utf-8")
        assert main(["search", str(query), "--db", str(db)]) in (0, 2, 3)


class TestModelFlagFuzz:
    # the integer flags stay fixed, so that no example allocates much
    COMMANDS = (
        ["power", "bound", "--draws", "10", "--offset-min", "0",
         "--offset-max", "256"],
        ["power", "simulate", "--trials", "1", "--length", "16384",
         "--onset-index", "8192"],
    )

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({
        flag: st.none() | st.floats()
        for flag in ("--ssnr", "--noise-var", "--decay", "--freq")}))
    @example(values={"--decay": 1e308})
    @example(values={"--noise-var": 1e-320})
    @example(values={"--freq": 1e308})
    @example(values={"--ssnr": 1e308})
    @example(values={"--noise-var": 1e308})
    @example(values={"--ssnr": 1e300, "--noise-var": 1e300})
    @example(values={"--ssnr": 1e308, "--noise-var": 1e308})  # detector
    @example(values={"--decay": 1e-320, "--freq": 1e-320})  # a^2 + b^2 == 0
    def test_power_ends_in_exit_0_or_2(self, values):
        # "--flag=value", since argparse takes "-inf" for a flag
        flags = [f"{flag}={value!r}" for flag, value in values.items()
                 if value is not None]
        for command in self.COMMANDS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(command + flags) in (0, 2)
            assert caught == []


class TestPower:
    SIM_ARGS = ["power", "simulate", "--detector", "dsd", "--trials", "3",
                "--length", "16384", "--onset-index", "8192", "--seed", "5"]

    def test_simulate_deterministic_csv(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(self.SIM_ARGS + ["--out", str(out_a)]) == 0
        assert main(self.SIM_ARGS + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().splitlines()[0] == (
            "offset_samples,probability,stderr")

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    @pytest.mark.parametrize("flag, name", [
        ("--ssnr", "ssnr"), ("--noise-var", "noise_variance"),
        ("--decay", "decay"), ("--freq", "frequency")])
    def test_nan_model_parameter_is_data_error(self, command, flag, name,
                                               tmp_path, capsys):
        # rejected while the model is built, before any curve point
        out = tmp_path / "curve.csv"
        assert main(["power", command, flag, "nan", "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        *(pytest.param(command, [flag, "inf"], message,
                       id=f"{flag}-{message}-{command}")
          for flag, message in (
              ("--ssnr", "ssnr must be positive and finite"),
              ("--noise-var", "noise_variance must be positive and finite"),
              ("--decay", "decay must be non-negative and finite"))
          for command in ("bound", "simulate")),
        # finite, but the mean's phase overflows
        *(pytest.param(command, ["--freq", "1e308"],
                       "frequency must keep the phase 2 pi f t finite",
                       id=f"--freq 1e308-{command}")
          for command in ("bound", "simulate")),
        # finite, but a term of the bound's closed form overflows (2 decay,
        # 4 pi f0, A^2, S_f / sigma^2, or two together) or the threshold
        # tail is not a number; simulate runs
        *(pytest.param("bound", flags, f"{name} is out of range for the "
                       "energy bound", id=" ".join(flags))
          for flags, name in (
              (["--decay", "1e308"], "decay"),
              (["--freq", "2e307"], "frequency"),
              (["--noise-var", "1e-320"], "noise_sd"),
              (["--ssnr", "1e308"], "amplitude"),
              (["--noise-var", "1e308"], "amplitude"),
              (["--ssnr", "1e300", "--noise-var", "1e300"], "amplitude"),
              (["--ssnr", "1e305", "--noise-var", "1e-10"],
               "decay, frequency, amplitude or noise_sd"),
              # ncx2.sf's tail is NaN past a noncentrality of about 1e19
              (["--ssnr", "1e17"],
               "decay, frequency, amplitude or noise_sd"))),
    ])
    def test_infinite_model_parameter_is_data_error(self, command, flags,
                                                    message, capsys):
        # rejected with its own name, and nothing overflows first
        argv = ["power", command, *flags]
        argv += ["--draws", "10"] if command == "bound" else ["--trials", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flag, name, value", [
        ("--window", "window_length", "0"), ("--hop", "hop", "0"),
        ("--hop", "hop", "-512")])
    def test_bound_nonpositive_frame_is_data_error(self, flag, name, value,
                                                  tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["power", "bound", flag, value, "--draws", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {name} must be positive\n")
        assert not out.exists()

    def test_bound_zero_neighbor_radius_is_data_error(self, tmp_path,
                                                      capsys):
        out = tmp_path / "curve.csv"
        assert main(["power", "bound", "--neighbors", "0", "--draws", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: neighbor radius must be >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_refused_allocation_is_data_error(self, command, tmp_path,
                                              capsys):
        # 10**14 float64 samples (728 TiB) exceed a 47-bit address space,
        # so the allocation fails at once whatever the overcommit policy
        huge = str(10 ** 14)
        if command == "simulate":
            argv = ["power", "simulate", "--trials", "1", "--length", huge]
        else:
            wav = click_train_wav(tmp_path / "q.wav", [0.5, 1.0])
            argv = ["detect", str(wav), "--window", huge]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "allocate" in err

    def test_negative_model_value_reaches_the_model(self, capsys):
        # a value, not a flag, though it starts with "-"
        assert main(["power", "bound", "--decay", "-1e3"]) == 2
        assert capsys.readouterr() == (
            "", "error: decay must be non-negative and finite\n")

    @pytest.mark.parametrize("command, flag, value, message", [
        ("bound", "--decay", "-inf", "decay must be non-negative and finite"),
        ("simulate", "--decay", "-Infinity",
         "decay must be non-negative and finite"),
        ("bound", "--freq", "-NaN",
         "frequency must keep the phase 2 pi f t finite"),
        ("simulate", "--ssnr", "-nan", "ssnr must be positive and finite")])
    def test_nonfinite_negative_value_reaches_the_model(
            self, command, flag, value, message, capsys):
        assert main(["power", command, flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_simulate_zero_trials_usage_error(self, capsys):
        assert main(["power", "simulate", "--trials", "0"]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --trials: must be >= 1, got 0\n")

    def test_simulate_non_integer_trials_usage_error(self, capsys):
        assert main(["power", "simulate", "--trials", "abc"]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --trials: invalid int value: 'abc'\n")

    def test_bound_nonpositive_offset_step_usage_error(self, tmp_path,
                                                       capsys):
        out = tmp_path / "bound.csv"
        cases = [(["--offset-step", step],
                  f"argument --offset-step: must be >= 1, got {step}")
                 for step in ("0", "-128")]
        cases.append((["--offset-min", "5", "--offset-max", "0"],
                      "--offset-min 5 is above --offset-max 0"))
        for flags, message in cases:
            assert main(["power", "bound", "--out", str(out)] + flags) == 1
            assert capsys.readouterr() == ("", f"usage error: {message}\n")
            assert not out.exists()

    def test_bound_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["power", "bound", "--draws", "2000",
                     "--offset-min", "0", "--offset-max", "256",
                     "--offset-step", "256", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "lower bound >= 0.9" in text
        assert "false-positive upper bound" in text
        rows = out.read_text().splitlines()
        assert rows[0] == "offset_samples,probability,stderr"
        assert len(rows) == 3

    def test_bound_without_decay_is_silent(self, tmp_path, capsys):
        # a steady tone, windows far past the onset: every window carries
        # signal, and no warning reaches stderr
        out = tmp_path / "bound.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["power", "bound", "--decay", "0", "--draws", "200",
                         "--offset-min", "400000", "--offset-max", "401024",
                         "--offset-step", "1024", "--length", "480000",
                         "--out", str(out)]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1:] == [
            "400000,1.0,0.000e+00", "401024,1.0,0.000e+00"]


BEYOND_INT64 = str(10 ** 20)


class TestIntegersBeyondInt64:
    """An integer flag past the int64 range fails before anything is
    allocated, in one ``error:`` line; counts and seeds that Python's
    integers carry still run."""

    @pytest.fixture
    def commands(self, tmp_path):
        wav = str(click_train_wav(tmp_path / "q.wav", [0.5, 1.0]))
        db = str(write_db(tmp_path / "db.json", {"s": [0, 1, 2]}))
        return {"detect": ["detect", wav],
                "search": ["search", wav, "--db", db],
                "simulate": ["power", "simulate", "--trials", "1"],
                "bound": ["power", "bound", "--draws", "10"]}

    @staticmethod
    def assert_one_error_line(capsys):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # the bound's --hop runs: it reads only min(hop gap, window) samples
    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("detect", "search", "simulate")
          for flag in ("--window", "--hop", "--neighbors")),
        ("bound", "--window"), ("bound", "--neighbors")])
    def test_frame_flag_is_data_error(self, command, flag, commands,
                                      capsys):
        assert main(commands[command] + [flag, BEYOND_INT64]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("flags", [
        ["--offset-min", BEYOND_INT64, "--offset-max", BEYOND_INT64],
        ["--offset-min", "-" + BEYOND_INT64, "--offset-max", "0",
         "--offset-step", BEYOND_INT64]])
    def test_bound_offset_is_data_error(self, flags, commands, capsys):
        assert main(commands["bound"] + flags) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("flags", [
        ["--offset-max", BEYOND_INT64, "--offset-step", BEYOND_INT64],
        ["--offset-min", "-" + BEYOND_INT64, "--offset-max",
         "-" + BEYOND_INT64]])
    def test_bound_offset_error_names_the_flags(self, flags, commands,
                                                capsys):
        assert main(commands["bound"] + flags) == 2
        assert capsys.readouterr() == ("", (
            "error: --offset-min, --offset-max and --offset-step give an "
            "offset beyond int64\n"))

    @pytest.mark.parametrize("command, flags", [
        ("search", ["--top", BEYOND_INT64]),
        ("bound", ["--seed", BEYOND_INT64, "--hop", BEYOND_INT64,
                   "--offset-min", "0", "--offset-max", "0"])])
    def test_counts_and_seeds_still_run(self, command, flags, commands,
                                        capsys):
        assert main(commands[command] + flags) == 0
        assert capsys.readouterr().err == ""
