"""CLI harness: config handling, report format and the distribution's
version, determinism and the pinned digests of the default thin and
amenability results, rejection of unknown config keys and of more thick
translates than there are, and rendering."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from horocover import __version__, cli
from reference import nerve_defect_reference

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cfg():
    return dict(cli.DEFAULT_CONFIG)


class TestConfig:
    def test_hash_is_stable_and_sensitive(self, cfg):
        h1 = cli.config_hash(cfg)
        assert h1 == cli.config_hash(dict(cfg))
        cfg["seed"] = 8
        assert cli.config_hash(cfg) != h1

    def test_load_config_overlays(self, cfg, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 99}))
        loaded = cli.load_config(str(p))
        assert loaded["seed"] == 99
        assert loaded["theta"] == cfg["theta"]

    def test_report_envelope(self, cfg, tmp_path):
        path = cli.write_report(tmp_path, "probe", cfg, {"x": 1})
        doc = json.loads(path.read_text())
        assert doc["command"] == "probe"
        assert doc["version"] == __version__
        assert doc["config_hash"] == cli.config_hash(cfg)
        assert doc["results"] == {"x": 1}

    @pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
    def test_distribution_is_the_package(self):
        # the distribution's name and version are the package's, the
        # version that every report stamps
        from setuptools.config.pyprojecttoml import read_configuration
        project = read_configuration(ROOT / "pyproject.toml")["project"]
        assert (project["name"], project["version"]) == \
            ("horocover", __version__)


class TestMain:
    def test_unknown_config_key_rejected(self, cfg, tmp_path, capsys):
        for key, value in (("ladder_override", {f"Theta_{i}": str(i + 1)
                                                for i in range(6)}),
                           ("max_refine", 400), ("finiteness_qmax", 200)):
            p = tmp_path / f"{key}.json"
            p.write_text(json.dumps(dict(cfg, **{key: value})))
            with pytest.raises(SystemExit) as exc:
                cli.main(["complex", "--config", str(p),
                          "--out", str(tmp_path / "r")])
            assert exc.value.code == 2
            assert key in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["complex", "--max-refine", "5"])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_too_many_thick_translates_rejected(self, cfg, tmp_path):
        # word_ball(4) moves PHI and SQRT2 to 53 distinct points, so 51
        # translates besides them are the most `_thick_xis` can draw; with
        # one more it looped for ever, hence the separate, timed process
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"thick_translates": 51}))
        assert len(cli._thick_xis(cli.load_config(str(p)))) == 53
        p.write_text(json.dumps({"thick_translates": 52}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "horocover.cli", "thick", "--config",
             str(p), "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=60, env=env)
        assert run.returncode == 2
        assert "config rejected: thick_translates is at most 51" in \
            run.stderr
        assert not (tmp_path / "r").exists()

    def test_calibrate_needs_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["complex", "--calibrate"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_render_writes_svg(self, cfg, tmp_path):
        rc = cli.cmd_render(cfg, tmp_path)
        assert rc == 0
        svg = (tmp_path / "ford.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_complex_via_main_exit_zero(self, tmp_path):
        rc = cli.main(["complex", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "complex.json").exists()


class TestDeterminism:
    def test_complex_reports_byte_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_complex(dict(cfg), a)
        cli.cmd_complex(dict(cfg), b)
        assert (a / "complex.json").read_bytes() == \
            (b / "complex.json").read_bytes()

    def test_amenability_reports_byte_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_amenability(dict(cfg), a)
        cli.cmd_amenability(dict(cfg), b)
        assert (a / "amenability.json").read_bytes() == \
            (b / "amenability.json").read_bytes()

    @pytest.mark.parametrize("command, digest", [
        ("thin", "62207bf627af6f64d32b94d9345e8b37"
                 "f92b7f803e58d48032edf249d58fd05d"),
        ("amenability", "fa3d3aab4be5d98e0e04ea4dd90a775c"
                        "29f5b7384c91a4bccb63f3888ebdd02b")])
    def test_default_results_pinned(self, cfg, tmp_path, command, digest):
        # the sha256 of the default report's results, serialised as the
        # report writes them: a faster thin pass must leave them unchanged
        # (amenability reaches the thin certificates through base_members)
        cli.COMMANDS[command](dict(cfg), tmp_path)
        results = json.loads((tmp_path / f"{command}.json").read_text())[
            "results"]
        blob = json.dumps(results, sort_keys=True, indent=1, default=str)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestPins:
    def test_defect_pins(self, cfg):
        # the nerve map's exact defects, which the Fraction reference gives
        for radius, pin in ((1, Fraction(1)), (3, Fraction(3, 5))):
            ladder = cli._ladder(dict(cfg, theta_S_radius=radius))
            assert cli._thin_nerve_defect(ladder) == pin == \
                nerve_defect_reference(ladder, cli._DEFECT_KS)

    def test_calibrate_writes_pins(self, tmp_path):
        # `complex --calibrate` on an empty overlay: theta_hat from the
        # Behrstock certificate, theta = 2 theta_hat, and the window pins
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        rc = cli.main(["complex", "--calibrate", "--config", str(p),
                       "--out", str(tmp_path / "r")])
        assert rc == 0
        written = json.loads(p.read_text())
        assert written == dict(
            cli.DEFAULT_CONFIG, theta_hat="1", theta="2", theta_P="6",
            window_pins=[
                {"theta_P": "6", "theta_P_prime": "0",
                 "transfer_failures": 0},
                {"theta_P": "4", "theta_P_prime": "2/3",
                 "transfer_failures": 4},
                {"theta_P": "1/8", "theta_P_prime": "17/72",
                 "transfer_failures": 0}])
        assert p.read_text() == json.dumps(written, sort_keys=True,
                                           indent=1) + "\n"

    def test_calibrate_keeps_seed_out_of_config(self, tmp_path,
                                                monkeypatch):
        # --seed changes the run, not the calibrated file
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 3}))
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "complex",
                            lambda cfg, out: seen.append(cfg["seed"]) or 0)
        rc = cli.main(["complex", "--config", str(p), "--calibrate",
                       "--seed", "9", "--out", str(tmp_path / "r")])
        assert rc == 0 and seen == [9]
        assert json.loads(p.read_text())["seed"] == 3

    def test_ladder_from_config(self, cfg):
        ladder = cli._ladder(cfg)
        assert ladder.Theta(5) == 720
