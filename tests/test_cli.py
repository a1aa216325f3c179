import argparse
import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyspde.errors
import levyspde.studies
from levyspde.studies import CSV_COLUMNS
from levyspde.cli import _SCHEMA, build_parser, main
from levyspde.errors import ErrorReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKernelCommands:
    def test_ml_eval_exponential(self, capsys):
        code, out, _ = run(capsys, "ml-eval", "1.0", "2.0")
        assert code == 0
        val = float(out.split()[-1])
        assert abs(val - np.exp(-2.0)) <= 1e-10

    @pytest.mark.parametrize("x", ["inf", "nan"])
    def test_ml_eval_refuses_non_finite_argument(self, capsys, x):
        # inf used to print "inf nan" and exit 0
        code, out, err = run(capsys, "ml-eval", "1.5", "2.0", x)
        assert code == 1 and "x must be finite" in err and "Traceback" not in err

    def test_cq_weights_by_hand(self, capsys):
        code, out, _ = run(capsys, "cq-weights", "1.5", "0.1", "4")
        assert code == 0
        lines = out.strip().splitlines()
        w = [float(l.split()[1]) for l in lines]
        assert w[0] == pytest.approx(0.1**0.5, rel=1e-12)
        assert w[1] / w[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("dt", ["-0.1", "0", "nan", "inf"])
    def test_cq_weights_refuses_bad_step(self, capsys, dt):
        # -0.1 used to print complex weights, nan and inf nan and inf, all with exit 0
        code, out, err = run(capsys, "cq-weights", "1.5", dt, "4")
        assert code == 1 and out == "" and "step dt must be finite and > 0" in err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_check_condition_refuses_non_finite_beta(self, capsys, beta):
        # nan used to print nan lines and exit 0
        code, out, err = run(capsys, "check-condition", "--equation", "heat", "--beta", beta, "--decay", "0.5", "--modes", "8")
        assert code == 1 and out == "" and "beta must be finite" in err

    @pytest.mark.parametrize(
        "intensity, message",
        [("1e30", r"the Poisson mean 1e\+30 is past"), ("1e308", r"the Poisson mean 1e\+308 is past"),
         ("1e13", r"expects 4e\+13 jumps")],
        ids=["past-poisson-range", "expected-jumps-overflow", "past-memory-cap"],
    )
    def test_intensity_the_sampler_cannot_draw_exit_1(self, capsys, tmp_path, intensity, message):
        # a study died in an OverflowError traceback at 1e308 (4 modes overflow the
        # expected jumps per path to inf) and in an _ArrayMemoryError traceback at 1e13
        named = re.escape(f"jump intensity {float(intensity):g} over T = 1 on 4 coordinates")
        cfg = tmp_path / "dense.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "modes": 4, "law": {"intensity": float(intensity)}, "mc": {"paths": 10}}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert re.search(named + ".*" + message, err) and not (tmp_path / "dense.csv").exists()

    def test_seventeen_digit_output(self, capsys):
        _, out, _ = run(capsys, "ml-eval", "1.5", "0.7")
        token = out.split()[-1].lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(token) >= 17


class TestCheckCondition:
    def test_identity_line(self, capsys):
        code, out, _ = run(
            capsys, "check-condition", "--equation", "heat", "--beta", "1.0", "--decay", "0.55", "--modes", "256"
        )
        assert code == 0
        assert "converges True" in out

    def test_boundary_divergence(self, capsys):
        code, out, _ = run(
            capsys, "check-condition", "--equation", "heat", "--beta", "1.5", "--decay", "0.5", "--modes", "64"
        )
        assert code == 0
        assert "converges False" in out

    def test_tail_bound_controls_doubling(self, capsys):
        def grab(modes):
            _, out, _ = run(
                capsys,
                "check-condition",
                "--equation",
                "heat",
                "--beta",
                "1.0",
                "--decay",
                "0.55",
                "--modes",
                str(modes),
            )
            vals = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
            return float(vals["hs_partial_sum"]), float(vals["hs_tail_bound"])

        p1, t1 = grab(512)
        p2, _ = grab(1024)
        assert 0.0 < p2 - p1 <= t1

    def test_rho_refused_off_volterra(self, capsys):
        # used to be ignored: heat ran with rho = 1 and exited 0
        code, out, err = run(
            capsys, "check-condition", "--equation", "heat", "--beta", "1.0", "--rho", "1.5", "--decay", "0.55"
        )
        assert code == 1 and out == "" and "rho applies to volterra only; heat takes none" in err
        code, out, err = run(capsys, "check-condition", "--equation", "volterra", "--beta", "0.5", "--decay", "0.55")
        assert code == 1 and out == "" and "volterra requires rho in [1.01, 2)" in err


TINY_HEAT = {
    "schema_version": 1,
    "equation": "heat",
    "axis": "temporal",
    "beta": 1.0,
    "modes": 64,
    "ladder": [2**-4, 2**-5, 2**-6, 2**-7, 2**-8],
}


class TestStudyCommand:
    def test_minimal_config_takes_study_config_defaults(self, tmp_path):
        # load_config passes only the keys the file gives, so every other field
        # is StudyConfig's own default
        from levyspde.cli import load_config
        from levyspde.propagators import heat_kind
        from levyspde.studies import StudyConfig

        ladder = [2**-4, 2**-5, 2**-6, 2**-7]
        cfg = tmp_path / "minimal.json"
        cfg.write_text(json.dumps({"schema_version": 1, "equation": "heat", "axis": "temporal", "beta": 1.0, "ladder": ladder}))
        want = StudyConfig(name="minimal", kind=heat_kind(), axis="temporal", beta=1.0, ladder=tuple(ladder))
        assert load_config(str(cfg)) == want
        cfg.write_text(json.dumps({"schema_version": 1, "equation": "heat", "axis": "temporal", "beta": 1.0, "ladder": ladder, "mc": {}}))
        loaded = load_config(str(cfg))
        assert (loaded.mc_paths, loaded.mc_seed) == (1000, want.mc_seed)

    def test_unknown_equation_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "equation": "advection", "axis": "temporal", "beta": 1.0, "ladder": [0.5, 0.25, 0.125, 0.0625]}))
        code, _, err = run(capsys, "study", "--config", str(cfg))
        assert code == 1
        assert "advection" in err

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "equation": "heat", "axis": "temporal", "beta": 1.0, "ladder": [0.5, 0.25, 0.125, 0.0625], "betta": 2}))
        code, _, err = run(capsys, "study", "--config", str(cfg))
        assert code == 1
        assert "betta" in err

    def test_schema_version_required(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"equation": "heat", "axis": "temporal", "beta": 1.0, "ladder": [0.5, 0.25, 0.125, 0.0625]}))
        code, _, err = run(capsys, "study", "--config", str(cfg))
        assert code == 1

    def test_malformed_json_no_traceback(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "study", "--config", str(cfg))
        assert code == 1
        assert "Traceback" not in err

    def test_unreadable_config_path_exit_1(self, capsys, tmp_path):
        # a directory used to end in an IsADirectoryError traceback
        code, out, err = run(capsys, "study", "--config", str(tmp_path))
        assert code == 1 and out == "" and "Traceback" not in err and "Is a directory" in err

    def test_default_output_is_the_working_directory(self, capsys, tmp_path, monkeypatch):
        # $LEVYSPDE_OUTPUT_DIR used to be a second way to set --output
        cfg, work, other = tmp_path / "tiny.json", tmp_path / "work", tmp_path / "other"
        cfg.write_text(json.dumps(TINY_HEAT))
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("LEVYSPDE_OUTPUT_DIR", str(other))
        code, _, _ = run(capsys, "study", "--config", str(cfg))
        assert code in (0, 2)
        assert (work / "tiny.csv").exists() and not other.exists()

    def test_divergent_covariance_exit_1_with_exponent(self, capsys, tmp_path):
        cfg = tmp_path / "rough.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "equation": "heat",
                    "axis": "temporal",
                    "beta": 1.0,
                    "modes": 32,
                    "ladder": [0.25, 0.125, 0.0625, 0.03125],
                    "covariance": {"decay": 0.2},
                }
            )
        )
        code, _, err = run(capsys, "study", "--config", str(cfg))
        assert code == 1
        assert "exponent" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "study", "--preset", "nope")
        assert code == 1

    def test_mc_preset_runs_and_writes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "study", "--preset", "wave-temporal-mc", "--output", str(tmp_path))
        assert code == 0
        assert (tmp_path / "wave-temporal-mc.csv").exists()
        assert "weak slope" in out

    def test_config_file_study(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "name": "tiny-heat",
                    "equation": "heat",
                    "axis": "temporal",
                    "beta": 1.0,
                    "modes": 64,
                    "ladder": [2**-4, 2**-5, 2**-6, 2**-7, 2**-8],
                }
            )
        )
        code, out, _ = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert (tmp_path / "tiny-heat.csv").exists()
        assert code in (0, 2)  # rate gate may trip; config handling must not

    def test_heat_preset_passes_its_gate(self, capsys, tmp_path):
        # the gate fits the weak error against its dt log(T/dt) bound shape
        code, out, _ = run(capsys, "study", "--preset", "heat-temporal-beta1", "--output", str(tmp_path))
        assert code == 0
        assert "of |weak|/log(T/dt)" in out and "FAIL" not in out

    def test_weak_column_at_the_strong_rate_exits_2(self, capsys, tmp_path, monkeypatch):
        # run_study takes a ladder's reports from one error_reports call
        real = levyspde.studies.error_reports

        def strong_as_weak(setups):
            return [ErrorReport(r.strong_error, r.strong_error, r.representation_value) for r in real(setups)]

        monkeypatch.setattr(levyspde.studies, "error_reports", strong_as_weak)
        code, out, _ = run(capsys, "study", "--preset", "heat-temporal-beta1", "--output", str(tmp_path))
        assert code == 2
        assert "FAIL" in out

    def test_byte_identical_csv_across_runs(self, capsys, tmp_path, fresh_python):
        paths = []
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            code, _, _ = run(capsys, "study", "--preset", "wave-temporal-mc", "--output", str(out))
            assert code == 0
            paths.append(out.read_bytes())
        out = tmp_path / "fresh.csv"
        fresh_python("-m", "levyspde.cli", "study", "--preset", "wave-temporal-mc", "--output", str(out))
        paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_output_key_refused(self, capsys, tmp_path):
        # the key was accepted and ignored: the CSV went to ./<name>.csv
        cfg = tmp_path / "out.json"
        dest = tmp_path / "elsewhere" / "x.csv"
        cfg.write_text(json.dumps({**TINY_HEAT, "output": str(dest)}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and "unknown config keys ['output']" in err
        assert out == "" and not dest.exists() and not (tmp_path / "out.csv").exists()

    def test_negative_derived_decay_exit_1(self, capsys, tmp_path):
        # used to be accepted and to fail in run_study naming "decay exponent"
        cfg = tmp_path / "rough.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "beta": 0.2, "modes": 16, "ladder": [0.25, 0.125, 0.0625, 0.03125]}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert "derived from beta=0.2 and rho=1.0" in err and "covariance.decay" in err

    def test_weak_fit_near_the_floor_exits_0_or_2(self, capsys, tmp_path):
        # 4 levels above FIT_FLOOR; summary() used to raise after the CSV was
        # written, and the study exited 1, the config-error code
        cfg = tmp_path / "near-floor.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "covariance": {"amplitude": 1e-10}}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code in (0, 2) and err == ""
        assert (tmp_path / "near-floor.csv").exists() and "weak slope" in out

    def test_threads_option_and_key_refused(self, capsys, tmp_path):
        code, _, err = run(capsys, "study", "--preset", "wave-temporal-mc", "--threads", "2")
        assert code == 1 and "unrecognized arguments: --threads 2" in err
        cfg = tmp_path / "threads.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "equation": "heat",
                    "axis": "temporal",
                    "beta": 1.0,
                    "modes": 64,
                    "ladder": [2**-4, 2**-5, 2**-6, 2**-7],
                    "threads": 1,
                }
            )
        )
        code, _, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and "unknown config keys ['threads']" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"equation": "wave", "x0": [[1.0], [0.0], [0.5]]}, r"shape \(2, K\)"),
            ({"equation": "heat", "g": "cylindrical_cos", "g_mode": 65, "mc": {"paths": 10}}, "g_mode"),
            # the former time-grid key of spatial studies: it used to run, its error levelling off at the time error
            ({"equation": "heat", "axis": "spatial", "ladder": [1 / 4, 1 / 8, 1 / 16, 1 / 32], "fixed_cells": 8},
             r"unknown config keys \['fixed_cells'\]"),
            ({"equation": "heat", "ladder": [0.5, 0.3, 0.25, 0.125]}, r"entry 0\.3 is not T/N"),
            # T/dt and 1/h overflow: both used to end in an OverflowError traceback
            ({"equation": "heat", "ladder": [1e-320, 1e-321, 1e-322, 1e-323]}, r"entry 1e-320 is not T/N"),
            ({"equation": "heat", "axis": "spatial", "ladder": [1e-320, 1e-321, 1e-322, 1e-323]},
             r"entry 1e-320 is not 1/M"),
            # both used to run; the first wrote a CSV read_csv refuses, the second a hidden ".csv"
            ({"equation": "heat", "name": "a\nlevel,x"}, r"name must be one non-empty line of text, got 'a\\nlevel,x'"),
            ({"equation": "heat", "name": ""}, r"name must be one non-empty line of text, got ''"),
            # counts used to be truncated by int(): this config ran on 16 modes, 20 paths, seed 1, and exited 0
            ({"equation": "heat", "modes": 16.7, "g_mode": 1.9, "mc": {"paths": 20.9, "seed": 1.5}},
             r"modes must be a whole number >= 1, got 16\.7"),
            ({"equation": "heat", "g": "cylindrical_cos", "g_mode": 1.9, "mc": {"paths": 10}},
             r"g_mode must be a mode index in 1\.\.64, got 1\.9"),
            ({"equation": "heat", "mc": {"paths": 20.9}}, r"mc_paths must be a whole number >= 1 or None, got 20\.9"),
            ({"equation": "heat", "mc": {"paths": 20, "seed": 1.5}}, r"mc_seed must be a whole number >= 0, got 1\.5"),
            ({"equation": "heat", "axis": "spatial", "ladder": [1 / 4, 1 / 8, 1 / 16, 1 / 32], "mc": {"paths": 10}},
             "mc_paths applies to temporal studies only"),
            ({"equation": "heat", "law": {"nu": 0.5}}, r"unknown law keys \['nu'\]"),
            ({"equation": "heat", "law": {"kind": "variance_gamma"}},
             r"unknown law kind 'variance_gamma'; the only law is 'compound_poisson'"),
            # the first two used to end in a TypeError traceback, the third to name the
            # letters of "normal" as unknown law keys, the last to run on the derived decay
            ({"equation": "heat", "mc": 5}, "mc must be a JSON object"),
            ({"equation": "heat", "covariance": 0.5}, "covariance must be a JSON object"),
            ({"equation": "heat", "law": "normal"}, "law must be a JSON object"),
            ({"equation": "heat", "covariance": False}, "covariance must be a JSON object"),
        ],
        ids=[
            "wave-x0-three-rows",
            "g-mode-past-modes",
            "fixed-cells-unknown-key",
            "dt-not-dividing-T",
            "dt-past-float-range",
            "h-past-float-range",
            "name-line-break",
            "name-empty",
            "modes-fraction",
            "g-mode-fraction",
            "mc-paths-fraction",
            "mc-seed-fraction",
            "mc-paths-spatial",
            "law-nu",
            "law-variance-gamma",
            "mc-number",
            "covariance-number",
            "law-string",
            "covariance-false",
        ],
    )
    def test_bad_shape_or_mode_index_exit_1(self, capsys, tmp_path, extra, message):
        cfg = tmp_path / "bad.json"
        base = {"schema_version": 1, "axis": "temporal", "beta": 0.75, "modes": 64, "ladder": [2**-3, 2**-4, 2**-5, 2**-6]}
        cfg.write_text(json.dumps({**base, **extra}))
        code, _, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and "Traceback" not in err
        assert re.search(message, err)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"beta": True}, "beta takes JSON numbers in the float range, got true"),
            ({"horizon": "1"}, 'horizon takes JSON numbers in the float range, got "1"'),
            ({"equation": "volterra", "rho": "1.5"}, 'rho takes JSON numbers in the float range, got "1.5"'),
            ({"ladder": ["0.0625", 0.03125, 0.015625, 0.0078125]}, r'ladder takes JSON numbers in the float range, got "0\.0625"'),
            ({"ladder": 0.0625}, r"ladder takes a JSON array, got 0\.0625"),
            ({"ladder": [[0.0625], [0.03125], [0.015625], [0.0078125]]}, r"ladder takes JSON numbers in the float range, got \[0\.0625\]"),
            ({"law": {"intensity": True}}, "intensity takes JSON numbers in the float range, got true"),
            ({"covariance": {"amplitude": True}}, "amplitude takes JSON numbers in the float range, got true"),
            ({"covariance": {"decay": "0.6"}}, 'decay takes JSON numbers in the float range, got "0.6"'),
            ({"x0": ["1", 0.5]}, 'x0 takes JSON numbers in the float range, got "1"'),
            ({"equation": "wave", "x0": [[True, 0.5], [0.0, 0.25]]}, "x0 takes JSON numbers in the float range, got true"),
            ({"beta": 10**400}, "beta takes JSON numbers in the float range, got 1000"),
            ({"schema_version": True}, "schema_version must be the integer 1, got true"),
            ({"schema_version": 1.0}, r"schema_version must be the integer 1, got 1\.0"),
            ({"schema_version": "1"}, 'schema_version must be the integer 1, got "1"'),
        ],
        ids=["beta-true", "horizon-string", "rho-string", "ladder-strings", "ladder-number", "ladder-nested", "intensity-true",
             "amplitude-true", "decay-string", "x0-string", "wave-x0-true", "beta-past-float-range",
             "schema-version-true", "schema-version-float", "schema-version-string"],
    )
    def test_non_number_for_a_number_exit_1(self, capsys, tmp_path, extra, message):
        # float() took true as 1.0 and "1" as 1.0, and the schema version compared
        # true and 1.0 equal to 1: these configs used to run, write a CSV and exit 0
        # or 2, except a bare or nested ladder (a TypeError naming no key), the
        # integer past the float range (an OverflowError traceback) and "1" (refused)
        cfg = tmp_path / "coerced.json"
        cfg.write_text(json.dumps({**TINY_HEAT, **extra}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path / "out"))
        assert code == 1 and out == "" and "Traceback" not in err
        assert re.search(message, err)
        assert [p.name for p in tmp_path.rglob("*")] == ["coerced.json"]

    def test_whole_numbers_for_float_keys_load_as_floats(self, tmp_path):
        from levyspde.cli import load_config

        cfg = tmp_path / "ints.json"
        given = {**FULL_WAVE, "beta": 1, "horizon": 1, "ladder": [1, 0.5, 0.25, 0.125], "x0": [[1, 0], [0, 2]],
                 "covariance": {"amplitude": 2, "decay": 1}, "law": {"intensity": 3}}
        cfg.write_text(json.dumps(given))
        config = load_config(str(cfg))
        assert (config.beta, config.T, config.ladder, config.x0) == (1.0, 1.0, (1.0, 0.5, 0.25, 0.125), ((1.0, 0.0), (0.0, 2.0)))
        assert (config.cov_amplitude, config.cov_decay, config.law.intensity) == (2.0, 1.0, 3.0)
        assert all(type(v) is float for v in (config.beta, config.T, *config.ladder, *config.x0[0], config.cov_decay))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"rho": 1.7, "scheme": "explicit_euler"}, "rho applies to volterra only; heat takes none"),
            ({"scheme": "explicit_euler"}, "scheme applies to wave only; heat takes none"),
            ({"equation": "volterra"}, r"volterra requires rho in \[1\.01, 2\)"),
            ({"g": "cylindrical_cos", "g_mode": 3}, "read only by the Monte Carlo columns; set mc_paths"),
            ({"g_mode": 3, "mc": {"paths": 10}}, "g_mode applies to g = 'cylindrical_cos' only"),
            ({"ladder": [1.0, 0.5, 0.25, 0.125]}, r"temporal ladder entry 1\.0 is T: the weak bound"),
        ],
        ids=["stray-rho-and-scheme", "stray-scheme", "volterra-without-rho", "g-without-mc", "g-mode-without-cos",
             "dt-equals-T-under-log-bound"],
    )
    def test_stray_or_unread_keys_exit_1(self, capsys, tmp_path, extra, message):
        # each used to run, write a CSV and exit 0 (the last one 2, after a divide-by-zero warning)
        cfg = tmp_path / "stray.json"
        cfg.write_text(json.dumps({**TINY_HEAT, **extra}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert re.search(message, err) and not (tmp_path / "stray.csv").exists()

    @pytest.mark.parametrize("axis, ladder", [("temporal", [2**-3, 2**-4, 2**-5, 2**-6]), ("spatial", [2**-2, 2**-3, 2**-4, 2**-5])])
    def test_unstable_wave_scheme_exit_1_before_any_level(self, capsys, tmp_path, monkeypatch, axis, ladder):
        # the kind refuses the scheme where the config is read; a spatial study
        # used to accept explicit Euler and ignore it
        from levyspde.cli import load_config

        wave = {**TINY_HEAT, "equation": "wave", "axis": axis, "ladder": ladder}
        cfg = tmp_path / "unstable.json"
        cfg.write_text(json.dumps({**wave, "scheme": "backward_euler"}))
        assert load_config(str(cfg)).kind.scheme == "backward_euler"
        monkeypatch.setattr("levyspde.cli.run_study", lambda config: pytest.fail("a level ran"))
        cfg.write_text(json.dumps({**wave, "scheme": "explicit_euler"}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert re.search(r"wave scheme 'explicit_euler' is not I-stable: max \|R\(iy\)\| = \d", err)
        assert [p.name for p in tmp_path.iterdir()] == ["unstable.json"]

    @pytest.mark.parametrize("name", ["../escaped", "a\\b"], ids=["slash", "backslash"])
    def test_name_with_path_separator_exit_1(self, capsys, tmp_path, name):
        # "../escaped" used to write <output>/../escaped.csv, outside --output, and exit 0
        cfg = tmp_path / "sep.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "name": name}))
        code, out, err = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path / "out"))
        assert code == 1 and out == "" and "Traceback" not in err
        assert "name must not hold a path separator" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["sep.json"]


# every key of the schema given, valid, on a study that reads it; rho on a
# Volterra spatial study, every other key on a wave temporal one
FULL_WAVE = {
    "schema_version": 1,
    "name": "full",
    "equation": "wave",
    "scheme": "backward_euler",
    "axis": "temporal",
    "beta": 0.75,
    "horizon": 1.0,
    "modes": 16,
    "ladder": [2**-3, 2**-4, 2**-5, 2**-6],
    "covariance": {"amplitude": 0.5, "decay": 0.6},
    "law": {"kind": "compound_poisson", "intensity": 2.0, "jumps": "normal"},
    "x0": [[1.0, 0.5], [0.0, 0.25]],
    "g": "cylindrical_cos",
    "g_mode": 2,
    "mc": {"paths": 20, "seed": 3},
}
FULL_VOLTERRA = {
    "schema_version": 1,
    "equation": "volterra",
    "rho": 1.5,
    "axis": "spatial",
    "beta": 0.5,
    "modes": 16,
    "ladder": [1 / 4, 1 / 6, 1 / 8, 1 / 12],
}


def _schema_keys(schema, prefix=()):
    for key, entry in schema.items():
        yield prefix + (key,)
        if isinstance(entry, dict):
            yield from _schema_keys(entry, prefix + (key,))


class TestNullIsAbsent:
    """A key given as null means the key is absent, for every key of the schema."""

    @staticmethod
    def outcome(path, obj):
        from levyspde.cli import ConfigError, load_config

        path.write_text(json.dumps(obj))
        try:
            return load_config(str(path))
        except ConfigError as exc:
            return f"refused: {exc}"

    @pytest.mark.parametrize("key", [".".join(k) for k in _schema_keys(_SCHEMA)])
    def test_null_equals_leaving_the_key_out(self, tmp_path, key):
        *outer, last = key.split(".")  # outer: the covariance, law or mc object, if any
        given = copy.deepcopy(FULL_VOLTERRA if last == "rho" else FULL_WAVE)
        left_out = copy.deepcopy(given)
        inner_given, inner_left_out = (obj[outer[0]] if outer else obj for obj in (given, left_out))
        assert last in inner_given, key  # the base gives every key a value
        inner_given[last] = None
        del inner_left_out[last]
        path = tmp_path / "study.json"
        assert self.outcome(path, given) == self.outcome(path, left_out)

    def test_full_configs_load(self, tmp_path):
        for base in (FULL_WAVE, FULL_VOLTERRA):
            assert not isinstance(self.outcome(tmp_path / "study.json", base), str)

    def test_null_name_writes_the_stem(self, capsys, tmp_path):
        # used to write None.csv with the header "# study=None"
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "name": None}))
        code, out, _ = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        assert code in (0, 2) and (tmp_path / "tiny.csv").exists() and not (tmp_path / "None.csv").exists()
        assert "# study=tiny" in (tmp_path / "tiny.csv").read_text()

    def test_null_mc_paths_runs_the_schema_default(self, capsys, tmp_path):
        # used to run without Monte Carlo: mc_paths=0 and empty MC columns, exit 0
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({**TINY_HEAT, "modes": 16, "ladder": TINY_HEAT["ladder"][:4], "mc": {"paths": None}}))
        code, _, _ = run(capsys, "study", "--config", str(cfg), "--output", str(tmp_path))
        rows = (tmp_path / "mc.csv").read_text().splitlines()
        assert code in (0, 2) and any("mc_paths=1000" in line for line in rows if line.startswith("#"))
        data = [line.split(",") for line in rows if not line.startswith(("#", "level"))]
        assert len(data) == 4 and all(row[CSV_COLUMNS.index("mc_estimate")] != "" for row in data)


class TestVerifyRepresentation:
    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify-representation")
        assert code == 0
        assert "pass" in out

    def test_tampered_sign_exits_2(self, capsys, monkeypatch):
        # representation_sweep looks _weak_error_cellwise up at call time; a
        # value 1e-6 relative off is 100 times the fixed 1e-8 gate
        real = levyspde.errors._weak_error_cellwise
        monkeypatch.setattr(levyspde.errors, "_weak_error_cellwise", lambda setup: real(setup) * (1.0 + 1e-6))
        code, out, _ = run(capsys, "verify-representation")
        assert code == 2
        assert "FAIL" in out

    def test_tolerance_option_refused(self, capsys):
        # the gate is the fixed 1e-8; --tolerance 1 used to pass any sweep
        code, out, err = run(capsys, "verify-representation", "--tolerance", "1")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --tolerance 1" in err
        # the sample-path command is gone; argparse refuses it like any unknown command
        code, out, err = run(capsys, "sample-path", "--modes", "4")
        assert code == 1 and out == ""
        assert "invalid choice: 'sample-path'" in err


def test_readme_cli_block_lists_every_command():
    # the `levyspde <command>` lines of README's CLI block name exactly the parser's subcommands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("levyspde ")}
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)


def test_readme_schema_block_lists_every_key():
    # the keys of README's "Study config schema" JSON block, top level and in
    # each nested object, are exactly cli._SCHEMA's: a deleted key leaves the docs too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n### Study config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads("\n".join(line.split("//", 1)[0] for line in block.splitlines()))
    assert set(_schema_keys(documented)) == set(_schema_keys(_SCHEMA))


def test_run_all_studies_reports_each_baseline_it_cannot_compare(tmp_path):
    # a baseline CSV cut short (read_csv refuses it) and one on another ladder
    # (max_relative_deltas refuses it): each is reported on its own preset's
    # line and counts as moved, and the presets after them are still compared
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    def run_script(*args):
        cmd = [sys.executable, str(root / "scripts" / "run_all_studies.py"), *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    base = tmp_path / "base"
    assert run_script(str(base)).returncode == 0
    short = base / "heat-temporal-beta1.csv"
    text = short.read_text()
    short.write_text(text[: text.rstrip().rfind(",")])  # the last row loses its last field
    other = base / "wave-spatial.csv"
    other.write_text("".join(other.read_text().splitlines(keepends=True)[:-1]))  # one level fewer
    done = run_script(str(tmp_path / "new"), "--compare", str(base))
    assert done.returncode == 3, done.stderr
    table = done.stdout.split("\nlargest relative delta against ", 1)[1].splitlines()[2:]
    status = {line.split()[0]: line.split(None, 1)[1] for line in table}
    assert status.pop("heat-temporal-beta1").startswith("not comparable: ")
    assert status.pop("wave-spatial") == "not comparable: the two CSVs have different ladders"
    assert len(status) == 4 and set(status.values()) == {"identical"}


@pytest.mark.parametrize(
    "argv, heads",
    [(["mc_consistency.py", "1", "200"], ["heat", "wave", "volterra"]), (["profile_bound_shapes.py"], ["heat temporal"])],
    ids=["mc_consistency", "profile_bound_shapes"],
)
def test_script_runs_in_a_fresh_interpreter(fresh_python, argv, heads):
    # no other test runs these scripts, so a change of the library call shape could break them unseen;
    # fresh_python fails on a nonzero exit status
    root = Path(__file__).resolve().parents[1]
    out = fresh_python(str(root / "scripts" / argv[0]), *argv[1:])
    assert all(any(line.startswith(head) for line in out.splitlines()) for head in heads)
