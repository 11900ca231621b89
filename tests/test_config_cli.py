import dataclasses
import json
import platform
import re
import warnings
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st

from specsense import analysis, montecarlo
from specsense.cli import main
from specsense.config import (
    experiment_from_mapping,
    load_experiment,
    parse_config_text,
)
from specsense.detectors import DETECTORS, log_glrd1, mu_glrd1
from specsense.errors import ConfigError

PRESETS = Path(__file__).resolve().parent.parent / "presets"

MINIMAL = """
# comment line
detectors = alrd1, alrd2
n_samples = 20
trials = 4000
master_seed = 11
snr_db = 3
channels = awgn
prior_k = 3
prior_theta = 3
"""


def write_config(tmp_path: Path, text: str, name="exp.conf") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_minimal(self):
        raw = parse_config_text(MINIMAL)
        exp = experiment_from_mapping(raw)
        assert exp.detectors == ("alrd1", "alrd2")
        assert exp.snr_linear == pytest.approx(10 ** 0.3)
        assert exp.prior.k == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            experiment_from_mapping(parse_config_text("detectors = alrd1"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("trials = 1\ntrials = 2")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words")

    def test_bad_number(self):
        raw = parse_config_text(MINIMAL.replace("snr_db = 3", "snr_db = abc"))
        with pytest.raises(ConfigError, match="snr_db"):
            experiment_from_mapping(raw)

    def test_nakagami_requires_m(self):
        raw = parse_config_text(MINIMAL.replace("channels = awgn",
                                                "channels = nakagami"))
        with pytest.raises(ConfigError, match="nakagami_m"):
            experiment_from_mapping(raw)

    def test_nakagami_m_requires_nakagami_channel(self):
        raw = parse_config_text(MINIMAL + "nakagami_m = 2\n")
        with pytest.raises(ConfigError, match="nakagami_m"):
            experiment_from_mapping(raw)

    def test_glr_two_sided_requires_glr_detector(self):
        raw = parse_config_text(MINIMAL + "glr_two_sided = true\n")
        with pytest.raises(ConfigError, match="glr_two_sided"):
            experiment_from_mapping(raw)
        for listed in ("alrd1, glrd1", "glrd2"):
            raw = parse_config_text(MINIMAL.replace(
                "detectors = alrd1, alrd2", f"detectors = {listed}")
                + "glr_two_sided = true\n")
            assert experiment_from_mapping(raw).scenarios[0].glr_two_sided

    def test_glr_two_sided_rejects_zero_linear_snr(self):
        # -4000 dB underflows to a linear SNR of 0, where the log-GLR is
        # identically 0 and no level could separate the hypotheses
        text = MINIMAL.replace("detectors = alrd1, alrd2", "detectors = glrd1").replace(
            "snr_db = 3", "snr_db = -4000")
        assert experiment_from_mapping(parse_config_text(text)).snr_linear == 0.0
        raw = parse_config_text(text + "glr_two_sided = true\n")
        with pytest.raises(ConfigError, match="glr_two_sided.*snr_db"):
            experiment_from_mapping(raw)

    def test_duplicate_detector(self):
        raw = parse_config_text(MINIMAL.replace("detectors = alrd1, alrd2",
                                                "detectors = alrd1, alrd1"))
        with pytest.raises(ConfigError, match="duplicate detector"):
            experiment_from_mapping(raw)

    @pytest.mark.parametrize("key, value", [
        ("detectors", "alrd1, alrd2, alrd1"),
        ("n_samples", "20, 20"),
        ("channels", "awgn, AWGN"),
        ("pfa_targets", "0.1, 0.10"),
    ])
    def test_duplicate_list_value_stops_the_run(self, tmp_path, capsys, key, value):
        # a repeated value would run the same detector, leg, channel or
        # target twice
        conf = _preset_with(tmp_path, "fig4", key, value)
        assert main(["roc", str(conf), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: duplicate {key}")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_snr_db_overflow_names_the_key(self):
        with pytest.raises(ConfigError, match="snr_db"):
            experiment_from_mapping(parse_config_text(
                MINIMAL.replace("snr_db = 3", "snr_db = 4000")))

    def test_unknown_detector(self):
        raw = parse_config_text(MINIMAL.replace("detectors = alrd1, alrd2",
                                                "detectors = alrd1, alrd3"))
        with pytest.raises(ConfigError, match="unknown detector"):
            experiment_from_mapping(raw)

    def test_cdf_points_below_200_rejected(self):
        raw = parse_config_text(MINIMAL + "cdf_points = 50\n")
        with pytest.raises(ConfigError, match="cdf_points"):
            experiment_from_mapping(raw)

    def test_empty_detectors(self):
        with pytest.raises(ConfigError):
            parse_config_text("detectors = ")

    def test_default_sample_rate_is_critical(self):
        exp = experiment_from_mapping(parse_config_text(MINIMAL))
        cfg = exp.scenarios[0]
        spec = cfg.signal
        assert spec.sample_rate_hz == pytest.approx(1.25 * 54_000.0)
        # the other defaults of an unset key
        assert spec.bandwidth_hz == 54_000.0
        assert spec.rolloff == 0.25
        assert exp.cdf_points == 200
        assert cfg.source == "model"
        assert cfg.glr_two_sided is False
        assert exp.pfa_targets == ()
        assert exp.threshold_grid is None
        assert cfg.noise_power is None

    @pytest.mark.parametrize("key", ["pinned_channel_re", "pinned_channel_im",
                                     "pinned_signal_re", "pinned_signal_im"])
    def test_pinned_keys_are_not_config_keys(self, tmp_path, key, capsys):
        # nothing pins a channel gain or a signal amplitude: curves
        # evaluates at h = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(MINIMAL + f"{key} = 0.1\n")
        conf = write_config(tmp_path, CURVES_CONF + f"{key} = 0.1\n")
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 1
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()

    def test_scenario_construction(self):
        exp = experiment_from_mapping(parse_config_text(MINIMAL))
        cfg = exp.scenarios[0]
        assert cfg.trials == 4000
        assert cfg.signal.snr_linear == pytest.approx(10 ** 0.3)

    def test_presets_parse(self):
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                     "curves_awgn"):
            exp = load_experiment(Path("presets") / f"{name}.conf")
            assert exp.scenarios[0].trials >= 1000


ROC_CONF = """
detectors = alrd1, alrd2
n_samples = 20
trials = 3000
master_seed = 505
snr_db = 0
channels = awgn
prior_k = 3
prior_theta = 3
pfa_targets = 0.05, 0.1, 0.3
"""


class TestCliRoc:
    def test_writes_csv_with_manifest(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "exp_roc.csv").read_text().splitlines()
        assert csv[0].startswith("# manifest: ")
        header = csv[1].split(",")
        assert header == ["detector", "n_samples", "snr_db", "channel",
                          "pfa_target", "pfa_emp", "pd_emp", "pd_ci_low",
                          "pd_ci_high", "threshold"]
        assert len(csv) == 2 + 2 * 3
        manifest = json.loads((tmp_path / "exp_roc_manifest.json").read_text())
        assert csv[0].split()[-1] == manifest["manifest_hash"]
        assert manifest["master_seed"] == 505
        assert manifest["notes"]

    def test_byte_stable(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["roc", str(conf), "--out", str(out1)]) == 0
        assert main(["roc", str(conf), "--out", str(out2)]) == 0
        assert (out1 / "exp_roc.csv").read_bytes() == (out2 / "exp_roc.csv").read_bytes()

    def test_library_versions_stay_out_of_the_hash(self, tmp_path, monkeypatch):
        # the manifest records the versions, outside the hashed part
        conf = write_config(tmp_path, ROC_CONF)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["roc", str(conf), "--out", str(out1)]) == 0
        monkeypatch.setattr(platform, "python_version", lambda: "3.99.0")
        monkeypatch.setattr(np, "__version__", "9.9.9")
        monkeypatch.setattr(scipy, "__version__", "8.8.8")
        assert main(["roc", str(conf), "--out", str(out2)]) == 0
        first, second = (json.loads((out / "exp_roc_manifest.json").read_text())
                         for out in (out1, out2))
        assert second["versions"] == {"python": "3.99.0", "numpy": "9.9.9",
                                      "scipy": "8.8.8"}
        assert first["versions"]["numpy"] != "9.9.9"
        assert first["manifest_hash"] == second["manifest_hash"]
        assert (out1 / "exp_roc.csv").read_bytes() == (out2 / "exp_roc.csv").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["roc", str(conf), "--out", str(out1)])
        main(["roc", str(conf), "--out", str(out2), "--seed", "99"])
        assert (out1 / "exp_roc.csv").read_bytes() != (out2 / "exp_roc.csv").read_bytes()

    def test_svg_emitted(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["roc", str(conf), "--out", str(tmp_path), "--svg"]) == 0
        svg = (tmp_path / "exp_roc.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_config_error_exit_code(self, tmp_path):
        conf = write_config(tmp_path, "detectors = alrd1")
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["roc", str(tmp_path / "nope.conf")]) == 1

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # a missing or unknown argument is a config error, not exit 2
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["roc"]) == 1
        assert "config error: the following arguments are required: config" in (
            capsys.readouterr().err)
        assert main(["roc", str(conf), "--bogus"]) == 1
        assert main([]) == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["roc", "--help"])
        assert done.value.code == 0
        assert "--svg" in capsys.readouterr().out

    def test_two_sided_target_095_exits_zero(self, tmp_path, capsys):
        conf = write_config(tmp_path, ROC_CONF.replace(
            "detectors = alrd1, alrd2", "detectors = glrd1").replace(
            "pfa_targets = 0.05, 0.1, 0.3", "pfa_targets = 0.1, 0.95")
            + "glr_two_sided = true\n")
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        assert not capsys.readouterr().err
        lines = (tmp_path / "exp_roc.csv").read_text().splitlines()
        assert [line.split(",")[4] for line in lines[2:]] == ["0.1", "0.95"]

    def test_negative_seed_exit_code(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["roc", str(conf), "--out", str(tmp_path), "--seed", "-1"]) == 1

    def test_missing_targets_exit_code(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF.replace(
            "pfa_targets = 0.05, 0.1, 0.3", ""))
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 1

    CHANNELS_CONF = ROC_CONF.replace("n_samples = 20", "n_samples = 20, 40").replace(
        "trials = 3000", "trials = 1000").replace(
        "pfa_targets = 0.05, 0.1, 0.3", "pfa_targets = 0.1, 0.3")

    def test_channel_list_matches_single_channel_configs(self, tmp_path):
        # sharing the calibration and H0 trials across channels is invisible
        channels = ["awgn", "rayleigh", "nakagami"]
        conf = write_config(tmp_path, self.CHANNELS_CONF.replace(
            "channels = awgn", "channels = " + ", ".join(channels))
            + "nakagami_m = 2\n")
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "exp_roc.csv").read_text().splitlines()[2:]
        single = {}
        for ch in channels:
            text = self.CHANNELS_CONF.replace("channels = awgn", f"channels = {ch}")
            if ch == "nakagami":
                text += "nakagami_m = 2\n"
            conf = write_config(tmp_path, text, name=f"{ch}.conf")
            assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
            single[ch] = (tmp_path / f"{ch}_roc.csv").read_text().splitlines()[2:]
        expected = [row for n in ("20", "40") for ch in channels
                    for row in single[ch] if row.split(",")[1] == n]
        assert rows == expected
        assert len(rows) == 2 * 3 * 2 * 2

    def test_h0_phases_run_once_per_n_samples(self, tmp_path, monkeypatch):
        # every block the engine draws, keyed by (N, phase, channel, block):
        # calibration and H0 blocks once per N, H1 blocks once per channel
        calls = Counter()
        observe = montecarlo.observe

        def counted(cfg, domains, phase, block):
            calls[cfg.n_samples, phase, cfg.channel.kind, block] += 1
            return observe(cfg, domains, phase, block)

        monkeypatch.setattr(montecarlo, "observe", counted)
        kinds = ("awgn", "rayleigh", "nakagami")
        conf = write_config(tmp_path, self.CHANNELS_CONF.replace(
            "channels = awgn", "channels = " + ", ".join(kinds))
            + "nakagami_m = 2\n")
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        blocks = range(-(-1000 // montecarlo.TRIAL_CHUNK))
        for n in (20, 40):
            for block in blocks:
                for phase in (montecarlo.PHASE_CALIBRATION, montecarlo.PHASE_EVAL_H0):
                    assert sum(calls[n, phase, kind, block] for kind in kinds) == 1
                for kind in kinds:
                    assert calls[n, montecarlo.PHASE_EVAL_H1, kind, block] == 1
        assert sum(calls.values()) == 2 * (2 + len(kinds)) * len(blocks)


CDF_CONF = """
detectors = alrd1, alrd2
n_samples = 20
trials = 2000
master_seed = 42
snr_db = 0
channels = awgn
prior_k = 3
prior_theta = 3
"""


class TestCliCdf:
    def test_table_shape_and_endpoints(self, tmp_path):
        conf = write_config(tmp_path, CDF_CONF)
        assert main(["cdf", str(conf), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "exp_cdf.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        by_det = {}
        for det, stat, cdf in rows:
            by_det.setdefault(det, []).append((float(stat), float(cdf)))
        for det, pts in by_det.items():
            assert len(pts) >= 200
            assert pts[0][1] == pytest.approx(1.0 / 2000)
            assert pts[-1][1] == 1.0
            cdfs = [c for _, c in pts]
            assert all(a <= b for a, b in zip(cdfs, cdfs[1:]))

    def test_rows_are_the_fraction_at_or_below(self, tmp_path):
        # every line, rebuilt from the sorted calibration sample: at each of
        # cdf_points evenly spaced values from its least to its greatest
        # statistic, the fraction of statistics at or below that value
        conf = write_config(tmp_path, CDF_CONF)
        assert main(["cdf", str(conf), "--out", str(tmp_path)]) == 0
        exp = load_experiment(conf)
        expected = []
        for name, cal in montecarlo.calibration_cdfs(exp.scenarios[0],
                                                     exp.detectors).items():
            assert np.all(np.diff(cal) >= 0)
            for t in np.linspace(cal[0], cal[-1], exp.cdf_points):
                expected.append("%s,%.6g,%.6g" % (name, t, np.count_nonzero(cal <= t)
                                                   / cal.size))
        lines = (tmp_path / "exp_cdf.csv").read_text().splitlines()
        assert lines[2:] == expected

    def test_two_sided_tabulates_the_log_glr(self, tmp_path):
        # a two-sided glrd1 is calibrated on its log-GLR, so cdf tabulates that
        text = CDF_CONF.replace("alrd1, alrd2", "alrd1, glrd1")
        tables = {}
        for stem, line in (("one", ""), ("two", "glr_two_sided = true\n")):
            conf = write_config(tmp_path, text + line, name=f"{stem}.conf")
            assert main(["cdf", str(conf), "--out", str(tmp_path)]) == 0
            lines = (tmp_path / f"{stem}_cdf.csv").read_text().splitlines()[2:]
            rows = [line.split(",") for line in lines]
            tables[stem] = {name: [row[1:] for row in rows if row[0] == name]
                            for name in ("alrd1", "glrd1")}
        assert tables["two"]["alrd1"] == tables["one"]["alrd1"] == tables["one"]["glrd1"]
        values = np.array([float(value) for value, _ in tables["two"]["glrd1"]])
        peak = log_glrd1(mu_glrd1(20, 3, 1.0), 20, 3, 1.0)
        assert values.min() < 0 < values.max() <= peak + 1e-5 * peak

    def test_svg_title_from_any_config_name_parses(self, tmp_path):
        # the title carries the config file's name, which is outside input
        conf = write_config(tmp_path, CDF_CONF, name="a&b<c>.conf")
        assert main(["cdf", str(conf), "--out", str(tmp_path), "--svg"]) == 0
        root = ElementTree.parse(tmp_path / "a&b<c>_cdf.svg").getroot()
        title = root.find("{http://www.w3.org/2000/svg}text")
        assert title.text == "H0 statistic CDF (a&b<c>)"

    def test_requires_single_block_size(self, tmp_path):
        conf = write_config(tmp_path, CDF_CONF.replace(
            "n_samples = 20", "n_samples = 20, 40"))
        assert main(["cdf", str(conf), "--out", str(tmp_path)]) == 1


CURVES_CONF = """
detectors = optimal, alrd1, alrd2
n_samples = 20
trials = 1000
master_seed = 42
snr_db = 0
channels = awgn
prior_k = 3
prior_theta = 3
noise_power = 1.0
threshold_min = 0
threshold_max = 40
threshold_points = 81
"""


class TestCliCurves:
    def test_rows_are_the_closed_forms_to_six_digits(self, tmp_path):
        # each row is the old per-cell format, f"{v:.6g}" joined by commas,
        # of the closed forms evaluated directly over the grid
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "optimal, alrd1, alrd2", "optimal, alrd1, glrd1, alrd2"))
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 0
        exp = load_experiment(conf)
        geom = exp.scenarios[0].geometry
        n, alpha, snr = 20, 1.0, exp.snr_linear
        grid = np.linspace(0.0, 40.0, 81)
        forms = {
            "optimal": lambda g: analysis.pd_opt(n, 1.0, g, grid),
            "alrd1": lambda g: analysis.pd_alrd1(n, alpha, exp.prior, g, grid),
            "alrd2": lambda g: analysis.pd_alrd2_clt(
                geom.l_inband, geom.p_excess, n, alpha, exp.prior.theta, g, grid),
        }
        forms["glrd1"] = forms["alrd1"]
        expected = [",".join([name, f"{t:.6g}", f"{pfa:.6g}", f"{pd:.6g}"])
                    for name in ("optimal", "alrd1", "glrd1", "alrd2")
                    for t, pfa, pd in zip(grid.tolist(), forms[name](0.0).tolist(),
                                          forms[name](snr).tolist())]
        lines = (tmp_path / "exp_curves.csv").read_text().splitlines()
        assert lines[2:] == expected

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_every_table_row_runs_through_curves(self, tmp_path, name):
        # each row's law writes a full table; a GLR row writes its ALR
        # twin's lines, since the two share one law
        def curves(det):
            conf = write_config(tmp_path, CURVES_CONF.replace(
                "optimal, alrd1, alrd2", det), name=f"{det}.conf")
            assert main(["curves", str(conf), "--out", str(tmp_path)]) == 0
            return (tmp_path / f"{det}_curves.csv").read_text().splitlines()[2:]

        lines = curves(name)
        assert len(lines) == 81
        cells = np.array([line.split(",")[1:] for line in lines], dtype=float)
        assert {line.split(",")[0] for line in lines} == {name}
        assert ((cells[:, 1:] >= 0.0) & (cells[:, 1:] <= 1.0)).all()
        assert (np.diff(cells[:, 1]) <= 0.0).all()  # pfa falls with the threshold
        assert (cells[:, 2] >= cells[:, 1]).all()   # the signal raises the tail
        if name.startswith("glr"):
            twin = "alr" + name[3:]
            assert [line.replace(name, twin, 1) for line in lines] == curves(twin)

    @pytest.mark.parametrize("channel", ["rayleigh", "nakagami\nnakagami_m = 2"],
                             ids=["rayleigh", "nakagami"])
    def test_fading_channel_warns_that_it_is_ignored(self, tmp_path, channel):
        # the closed forms are at |h|^2 = 1: a fading channel writes the
        # awgn rows, and says so
        awgn = write_config(tmp_path, CURVES_CONF, name="awgn.conf")
        fading = write_config(tmp_path, CURVES_CONF.replace(
            "channels = awgn", f"channels = {channel}"), name="fading.conf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curves", str(awgn), "--out", str(tmp_path)]) == 0
        with pytest.warns(UserWarning, match=r"ignores the (rayleigh|nakagami\(m=2\)) "
                                             r"fade: its columns are at \|h\|\^2 = 1"):
            assert main(["curves", str(fading), "--out", str(tmp_path)]) == 0
        rows = [(tmp_path / f"{stem}_curves.csv").read_text().splitlines()[1:]
                for stem in ("awgn", "fading")]
        assert rows[0] == rows[1]

    def test_closed_form_table(self, tmp_path):
        conf = write_config(tmp_path, CURVES_CONF)
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "exp_curves.csv").read_text().splitlines()
        assert lines[1] == "detector,threshold,pfa_cf,pd_cf"
        rows = [line.split(",") for line in lines[2:]]
        for det in ("optimal", "alrd1", "alrd2"):
            pfas = [float(r[2]) for r in rows if r[0] == det]
            if det == "alrd2":
                # Gaussian form: threshold 0 is in the far tail, not exact
                assert pfas[0] > 0.9999
            else:
                assert pfas[0] == 1.0
            assert all(a >= b - 1e-12 for a, b in zip(pfas, pfas[1:]))

    def test_glrd1_uses_the_alrd1_forms(self, tmp_path):
        # the one-sided GLRD1 rule shares the ALRD1 statistic and closed forms
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "detectors = optimal, alrd1, alrd2", "detectors = alrd1, glrd1"))
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "exp_curves.csv").read_text().splitlines()[2:]]
        alrd1 = [r[1:] for r in rows if r[0] == "alrd1"]
        assert alrd1 == [r[1:] for r in rows if r[0] == "glrd1"]
        assert len(alrd1) == 81

    def test_requires_single_channel(self, tmp_path, capsys):
        # closed forms are conditional on h, so a fading list has no effect
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "channels = awgn", "channels = rayleigh, awgn"))
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 1
        assert "single n_samples value and channel" in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()

    def test_takes_no_svg_flag(self, tmp_path, capsys):
        # curves draws no figure, so --svg is a usage error
        conf = write_config(tmp_path, CURVES_CONF)
        assert main(["curves", str(conf), "--svg", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --svg" in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--trials", "5"]])
    def test_takes_no_seed_or_trials_flag(self, tmp_path, flag, capsys):
        # the closed forms read neither the master seed nor the trial count
        conf = write_config(tmp_path, CURVES_CONF)
        assert main(["curves", str(conf), *flag, "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()

    def test_requires_grid(self, tmp_path):
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "threshold_min = 0\n", "").replace(
            "threshold_max = 40\n", "").replace(
            "threshold_points = 81\n", ""))
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("line, detectors", [
        ("source = waveform\n", "optimal, alrd1, alrd2"),
        ("glr_two_sided = true\n", "alrd1, glrd1")], ids=["waveform", "two-sided"])
    def test_rejects_keys_the_closed_forms_ignore(self, tmp_path, line, detectors,
                                                  capsys):
        # the forms are the model source's one-sided laws: a waveform source
        # or a band rule would silently get the same rows
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "optimal, alrd1, alrd2", detectors) + line)
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 1
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()

    def test_rejects_negative_threshold_min(self, tmp_path, capsys):
        # every statistic is nonnegative; the gamma forms reject eta < 0
        conf = write_config(tmp_path, CURVES_CONF.replace(
            "threshold_min = 0\n", "threshold_min = -5\n"))
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 1
        assert "threshold_min must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "exp_curves.csv").exists()


class TestCsvCells:
    # text columns; every other cell but n_samples is a 6-significant-digit value
    TEXT = {"detector", "channel"}

    @pytest.mark.parametrize("command, text, extra", [
        ("roc", ROC_CONF.replace("channels = awgn", "channels = awgn, rayleigh"), []),
        ("cdf", CDF_CONF, []),
        ("calibrate", ROC_CONF, ["--pfa", "0.1"])], ids=["roc", "cdf", "calibrate"])
    def test_every_cell_is_six_significant_digits(self, tmp_path, command, text, extra):
        conf = write_config(tmp_path, text)
        assert main([command, str(conf), *extra, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / f"exp_{command}.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert len(lines) > 2
        for line in lines[2:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            for key, cell in zip(header, cells):
                if key == "n_samples":
                    assert cell.isdecimal() and str(int(cell)) == cell
                elif key not in self.TEXT:
                    assert f"{float(cell):.6g}" == cell

    @given(st.floats())
    def test_percent_format_is_the_format_spec(self, v):
        # the premise of byte-identical rows: both spellings make one C call
        assert "%.6g" % v == f"{v:.6g}"
        assert "%.6g" % np.float64(v) == f"{np.float64(v):.6g}" == f"{v:.6g}"


class TestCliCalibrate:
    def test_threshold_table(self, tmp_path, capsys):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["calibrate", str(conf), "--pfa", "0.1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "exp_calibrate.csv").read_text().splitlines()
        assert lines[1] == "detector,n_samples,channel,pfa_target,threshold"
        assert len(lines) == 2 + 2
        out = capsys.readouterr().out
        assert "threshold" in out
        assert out.splitlines()[-1].startswith("wrote ")

    def test_takes_no_svg_flag(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["calibrate", str(conf), "--pfa", "0.1", "--svg",
                     "--out", str(tmp_path)]) == 1

    def test_requires_pfa(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["calibrate", str(conf), "--out", str(tmp_path)]) == 1

    def test_insufficient_trials(self, tmp_path):
        conf = write_config(tmp_path, ROC_CONF.replace("trials = 3000",
                                                       "trials = 200"))
        assert main(["calibrate", str(conf), "--pfa", "0.01",
                     "--out", str(tmp_path)]) == 1


class TestCliValidate:
    def test_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    @pytest.mark.parametrize("flag", [["--svg"], ["--trials", "10"], ["--out", "x"]])
    def test_takes_only_seed(self, flag, capsys):
        # the battery has fixed sizes and writes no files
        assert main(["validate", *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
    def test_seed_outside_key_space_exit_code(self, seed, capsys):
        assert main(["validate", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert "master seed must lie in [0, 2**128)" in captured.err
        assert "PASS" not in captured.out


@pytest.mark.parametrize("command, preset, key, value", [
    ("roc", "fig6", "rolloff", "0"),
    ("roc", "fig6", "prior_k", "0"),
    ("roc", "fig6", "prior_theta", "-1"),
    ("roc", "fig6", "nakagami_m", "0.3"),
    ("roc", "fig6", "bandwidth_hz", "-5"),
    ("roc", "fig6", "sample_rate_hz", "60000"),
    ("curves", "curves_awgn", "rolloff", "1.5"),
    ("roc", "fig4", "snr_db", "4000"),
])
def test_out_of_range_spec_value_is_a_config_error(tmp_path, capsys, command, preset,
                                                   key, value):
    # the prior, signal and channel specs check their own ranges, when the
    # config loads: the output directory is not even created
    lines = [line for line in (Path("presets") / f"{preset}.conf").read_text().splitlines()
             if not line.startswith(f"{key} =")]
    conf = write_config(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    assert main([command, str(conf), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _preset_with(tmp_path, preset, key, value):
    text = (PRESETS / f"{preset}.conf").read_text()
    return write_config(tmp_path, re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))


class TestConfigErrorStopsTheRun:
    # every n_samples leg is built and checked when the config loads, so a
    # bad leg stops the command before it prints, writes or draws anything

    def test_calibrate_prints_nothing_before_a_bad_leg(self, tmp_path, capsys):
        conf = _preset_with(tmp_path, "fig4", "n_samples", "20, 1")
        assert main(["calibrate", str(conf), "--pfa", "0.1",
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least two samples per block" in captured.err
        assert not (tmp_path / "out").exists()

    def test_roc_draws_no_block_before_a_bad_leg(self, tmp_path, monkeypatch):
        from specsense import montecarlo

        def refuse(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(montecarlo, "observe", refuse)
        conf = _preset_with(tmp_path, "fig4", "n_samples", "20, 1")
        assert main(["roc", str(conf), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_rejected_target_creates_no_out_dir(self, tmp_path, capsys):
        conf = PRESETS / "fig4.conf"
        assert main(["calibrate", str(conf), "--pfa", "1.5",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_stops_calibrate(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.touch()
        assert main(["calibrate", str(PRESETS / "fig4.conf"), "--pfa", "0.1",
                     "--out", str(afile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err
        assert afile.read_bytes() == b""
        assert list(tmp_path.iterdir()) == [afile]

    def test_out_under_a_file_stops_roc(self, tmp_path, capsys):
        conf = write_config(tmp_path, ROC_CONF)
        afile = tmp_path / "afile"
        afile.touch()
        assert main(["roc", str(conf), "--out", str(afile / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "exp.conf"]

    def test_trials_flag_is_checked_with_the_config(self, tmp_path, capsys):
        conf = write_config(tmp_path, ROC_CONF)
        assert main(["roc", str(conf), "--trials", "0",
                     "--out", str(tmp_path / "out")]) == 1
        assert "trials must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_calibrate_prints_nothing_before_a_bad_waveform_leg(self, tmp_path,
                                                                capsys):
        # the waveform source splits the bands for every detector list: at
        # 200 kHz, N = 2 has only DC inside the sensed band
        text = (PRESETS / "fig4.conf").read_text()
        text = re.sub(r"(?m)^detectors = .*$", "detectors = alrd1", text)
        text = re.sub(r"(?m)^n_samples = .*$", "n_samples = 20, 2", text)
        conf = write_config(tmp_path, text + "sample_rate_hz = 200000\n"
                                              "source = waveform\n")
        assert main(["calibrate", str(conf), "--pfa", "0.1",
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too few bins inside the sensed band" in captured.err
        assert not (tmp_path / "out").exists()

    def test_band_split_is_checked_only_for_excess_band_detectors(self):
        # sampled at 1 MHz, 20 bins are 50 kHz apart: only DC is in the band
        text = MINIMAL + "sample_rate_hz = 1000000\n"
        with pytest.raises(ConfigError, match="too few bins"):
            experiment_from_mapping(parse_config_text(text))
        exp = experiment_from_mapping(parse_config_text(
            text.replace("detectors = alrd1, alrd2", "detectors = alrd1")))
        assert exp.scenarios[0].signal.sample_rate_hz == 1e6


CROSS_CONF = """
detectors = optimal, alrd1
n_samples = 20
trials = 20000
master_seed = 31
snr_db = 0
channels = awgn
prior_k = 3
prior_theta = 3
noise_power = 1.0
pfa_targets = 0.1, 0.3
threshold_min = 0
threshold_max = 60
threshold_points = 241
"""


class TestCrossCommandConsistency:
    def test_curves_match_roc_empirical(self, tmp_path):
        # At pinned noise power the closed-form curves should reproduce
        # the roc command's empirical columns at the calibrated
        # thresholds, read back through the emitted CSVs.
        conf = write_config(tmp_path, CROSS_CONF)
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 0

        curve = {}
        for line in (tmp_path / "exp_curves.csv").read_text().splitlines()[2:]:
            det, thr, pfa_cf, pd_cf = line.split(",")
            curve.setdefault(det, []).append(
                (float(thr), float(pfa_cf), float(pd_cf)))
        for line in (tmp_path / "exp_roc.csv").read_text().splitlines()[2:]:
            parts = line.split(",")
            det, pfa_emp, pd_emp, thr = (parts[0], float(parts[5]),
                                         float(parts[6]), float(parts[9]))
            thrs = np.array([t for t, _, _ in curve[det]])
            pfas = np.array([p for _, p, _ in curve[det]])
            pds = np.array([p for _, _, p in curve[det]])
            # interpolate the monotone closed-form curves at the threshold
            pfa_cf = float(np.interp(thr, thrs, pfas))
            pd_cf = float(np.interp(thr, thrs, pds))
            assert abs(pfa_emp - pfa_cf) < 0.02, det
            assert abs(pd_emp - pd_cf) < 0.02, det

    def test_calibrate_matches_roc_thresholds(self, tmp_path):
        # calibrate reads the same calibration trials as roc, so each of
        # its rows is roc's threshold at the same target and leg, also for
        # the excess-band detector sharing the run with time-domain ones
        conf = write_config(tmp_path, ROC_CONF.replace(
            "detectors = alrd1, alrd2", "detectors = optimal, alrd1, alrd2"
        ).replace("n_samples = 20", "n_samples = 20, 40"))
        assert main(["roc", str(conf), "--out", str(tmp_path)]) == 0
        assert main(["calibrate", str(conf), "--pfa", "0.1",
                     "--out", str(tmp_path)]) == 0
        roc = {}
        for line in (tmp_path / "exp_roc.csv").read_text().splitlines()[2:]:
            parts = line.split(",")
            if parts[4] == "0.1":
                roc[parts[0], parts[1], parts[3]] = parts[9]
        rows = (tmp_path / "exp_calibrate.csv").read_text().splitlines()[2:]
        assert len(rows) == len(roc) == 6
        for line in rows:
            det, n, channel, _, thr = line.split(",")
            assert thr == roc[det, n, channel], (det, n)


    def test_calibrate_threshold_ignores_the_other_detectors(self, tmp_path, capsys):
        # each kind of variate has its own stream, so alrd2 calibrates on
        # the same bins alone as next to the time-domain detectors
        text = (PRESETS / "fig4.conf").read_text()
        alone = write_config(tmp_path, re.sub(r"(?m)^detectors = .*$",
                                              "detectors = alrd2", text))
        printed = {}
        for conf in (PRESETS / "fig4.conf", alone):
            capsys.readouterr()
            assert main(["calibrate", str(conf), "--pfa", "0.1",
                         "--out", str(tmp_path)]) == 0
            printed[conf] = [line for line in capsys.readouterr().out.splitlines()
                             if line.startswith("alrd2 ")]
        assert len(printed[alone]) == 2
        assert printed[alone] == printed[PRESETS / "fig4.conf"]


class TestNumericFailureExit:
    @pytest.mark.parametrize("command, text", [("roc", ROC_CONF), ("cdf", CDF_CONF)],
                             ids=["roc", "cdf"])
    def test_nonfinite_statistic_exits_two(self, tmp_path, monkeypatch, capsys,
                                           command, text):
        nan = lambda r, alpha, prior: np.full(r.shape[:-1], np.nan)
        monkeypatch.setitem(DETECTORS, "alrd1",
                            dataclasses.replace(DETECTORS["alrd1"], statistic=nan))
        conf = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, str(conf), "--out", str(out)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob("**/*.csv"))

    def test_nonfinite_closed_form_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "pd_alrd1", lambda *a, **k: float("nan"))
        conf = write_config(tmp_path, CURVES_CONF)
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 2

    def test_nan_inside_a_closed_form_column_exits_two(self, tmp_path, monkeypatch):
        # each detector's two columns are one array call; one bad element
        # fails the command
        clean = analysis.pd_alrd2_clt

        def one_nan(*args):
            col = np.array(clean(*args))
            col.flat[col.size // 2] = np.nan
            return col

        monkeypatch.setattr(analysis, "pd_alrd2_clt", one_nan)
        conf = write_config(tmp_path, CURVES_CONF)
        assert main(["curves", str(conf), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "exp_curves.csv").exists()

    @pytest.mark.parametrize("snr_db", ["3050", "3080"])
    def test_closed_form_overflow_exits_two(self, tmp_path, capsys, snr_db):
        # a finite snr whose alrd2 variance overflows (3050 dB, where the
        # Q argument became -0 and every pd_cf read 0.5) or whose per-bin
        # signal power N*alpha*snr overflows (3080 dB)
        conf = _preset_with(tmp_path, "curves_awgn", "snr_db", snr_db)
        assert main(["curves", str(conf), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()
