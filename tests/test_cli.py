import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch import cli, detect
from humsearch.audio import Signal, load_wav
from humsearch.cli import main
from humsearch.detect import DETECTORS, run_detector
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
from humsearch.spectral import band_limit_bins, stft
from humsearch.store import db_load

from conftest import write_pcm_wav

SR = 48000


def click_train_wav(path, click_times, duration=4.0):
    """Decaying 440 Hz bursts at the given onset times; the burst outlasts
    the analysis window so window energies fall off strictly and the energy
    peak lands on the window starting at the onset."""
    samples = np.zeros(int(duration * SR))
    burst_len = 6000
    t = np.arange(burst_len) / SR
    burst = 0.8 * np.exp(-30.0 * t) * np.cos(2 * np.pi * 440.0 * t)
    for start_s in click_times:
        k = int(start_s * SR)
        samples[k: k + burst_len] += burst
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

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_detect_equals_library(self, kind, tmp_path, capsys):
        path = click_train_wav(tmp_path / "clicks.wav", [0.5, 1.0, 1.6, 2.5])
        name = DETECTORS[kind].cli_name
        assert main(["detect", str(path), "--json", "--detector", name]) == 0
        config = PeakConfig(neighbors=symmetric_neighbors(
            DETECTORS[kind].neighbor_radius))
        onsets = detect_peaks(run_detector(load_wav(path), kind), config)
        assert len(onsets) >= 4
        assert capsys.readouterr().out == onsets.to_json() + "\n"

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_simulate_equals_library(self, kind, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["power", "simulate", "--detector",
                     DETECTORS[kind].cli_name, "--trials", "3",
                     "--out", str(out)] + self.MODEL_ARGS) == 0
        config = PeakConfig(neighbors=symmetric_neighbors(
            DETECTORS[kind].neighbor_radius))
        curve = monte_carlo_power(
            OnsetModel.from_ssnr(length=16384, onset_index=8192), kind,
            config, trials=3)
        assert out.read_text() == library_csv(curve)

    def test_bound_equals_library(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["power", "bound", "--draws", "300", "--offset-min",
                     "-512", "--offset-max", "512", "--offset-step", "512",
                     "--out", str(out)] + self.MODEL_ARGS) == 0
        model = OnsetModel.from_ssnr(length=16384, onset_index=8192)
        curve = energy_power_curve(
            model, PeakConfig(), REFERENCE_SSNR * model.noise_sd ** 2,
            [-512, 0, 512], draws=300)
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
             "score": e.score, "alpha": e.alpha, "beta": e.beta,
             "close": e.within_closeness}
            for i, e in enumerate(result.entries)]

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
                    config.min_gap) == ("mean_scaled", 1.0, 0.1)
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
            curve = monte_carlo_power(model, kind, PeakConfig(), trials=1)
            assert set(np.diff(curve.offsets)) == {defaults.hop}
            assert curve.offsets[0] == (detect.WINDOW_LENGTH // 2
                                        - model.onset_index)
        assert stft(sig, detect.WINDOW_LENGTH, 2048).frames.shape[1] == (
            band_limit_bins(detect.WINDOW_LENGTH, SR, detect.CUTOFF_HZ))


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

    def test_garbage_wav_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"nope")
        assert main(["detect", str(path)]) == 2


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
            "error: record 's1': onset times must be strictly increasing\n")

    def test_add_one_onset_rejected(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(["db", "add", "--db", str(db), "--id", "s1",
                     "--title", "Bad", "--onsets", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: record 's1': needs at least 2 onsets\n")

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
        out = capsys.readouterr().out
        assert "NaN" not in out
        assert [e["id"] for e in json.loads(out)] == ["s3"]
        assert main(["search", str(query), "--db", str(db)]) == 0
        assert ("skipped s4: no anchor cell gives a finite score"
                in capsys.readouterr().out)

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

    def test_simulate_zero_trials_usage_error(self, capsys):
        assert main(["power", "simulate", "--trials", "0"]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --trials: must be >= 1, got 0\n")

    def test_bound_nonpositive_offset_step_usage_error(self, capsys):
        for step in ("0", "-128"):
            assert main(["power", "bound", "--offset-step", step]) == 1
            assert capsys.readouterr().err == (
                "usage error: argument --offset-step: must be >= 1, "
                f"got {step}\n")

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
