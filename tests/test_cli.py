import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import bscat.cli as cli_mod
import bscat.validate as validate_mod
from bscat.cli import main
from bscat.errors import ToleranceNotMet


@pytest.fixture
def runner():
    return CliRunner()


def _rows(csv_text):
    # the test runner mixes diagnostic stderr lines into the output; keep
    # only the comma-separated table body
    lines = [
        l
        for l in csv_text.strip().splitlines()
        if "," in l and not l.startswith("#")
    ]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize(
    "argv, status",
    [
        (["rates", "--z", "0.5", "--omega", "nan"], 1),
        (["rates", "--z", "0.5", "--omega", "inf"], 1),
        (["rates", "--z", "0.5", "--omega", "1..inf:3"], 1),
        (["rates", "--z", "1.5", "--omega", "1"], 1),
        (["spectrum", "--z", "0.5", "--omega", "-1"], 1),
        # below the frequency floor the diagram integrand's e1 e2 e3 e4 underflows
        (["spectrum", "--omega", "1e-80", "--points", "2"], 1),
        (["r0", "--z", "1.5"], 1),
        (["convert-tb", "--epsilon-j", "nan", "--cutoff-lambda", "1", "--z", "0.5"], 1),
        (["convert-tb", "--epsilon-j", "1", "--cutoff-lambda", "inf", "--z", "0.5"], 1),
        (["convert-tb", "--epsilon-j", "1e300", "--cutoff-lambda", "1", "--z", "0.9"], 1),
        (["convert-tb", "--epsilon-j", "1e-300", "--cutoff-lambda", "1", "--z", "0.9"], 1),
        (["r0", "--z", "0.5", "--output", "/nonexistent-dir/x.csv"], 1),
        # at p = 21 the panel rule refuses c: sin(i pi x/2)^2 would overflow
        (["r0", "--z", "0.047619047619047616"], 1),
        # a flag outside its click type is a usage error
        (["spectrum", "--z", "0.5", "--points", "-3"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit{v}",
)
def test_bad_input_is_an_error_not_a_traceback(runner, argv, status):
    res = runner.invoke(main, argv)
    assert res.exit_code == status
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert "Error: " in res.output
    assert "Traceback" not in res.output


def test_unwritable_output_is_named(runner):
    res = runner.invoke(main, ["r0", "--output", "/nonexistent-dir/x.csv"])
    assert res.exit_code == 1
    assert "Error: cannot write /nonexistent-dir/x.csv: " in res.output


@pytest.mark.parametrize(
    "content", [None, b"z = 0.5\n\xff\n"], ids=["missing", "not-utf8"]
)
def test_unreadable_config_is_named(runner, tmp_path, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    res = runner.invoke(main, ["r0", "--config", str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: cannot read config {cfg}: " in res.output


@pytest.mark.parametrize(
    "command, line",
    [
        pytest.param(command, line, id=line)
        for command, line in [
            ("spectrum", "points = -3"),
            ("r0", "model = foo"),
            ("r0", "format = xml"),
            ("r0", "z = abc"),
            ("rates", "spacing = cubic"),
            ("spectrum", "omega = x"),
        ]
    ],
)
def test_bad_config_value_rejected(runner, tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    res = runner.invoke(main, [command, "--config", str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"config field '{line.split()[0]}'" in res.output


@pytest.mark.parametrize("command", ["rates", "spectrum", "r0"])
def test_config_key_given_twice_rejected(runner, tmp_path, command):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("z = 0.5\nmodel = bsg\nz = 0.4\n")
    res = runner.invoke(main, [command, "--config", str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"{cfg}:3: key 'z' given twice" in res.output


_DEFAULTS = {
    "rates": {
        "model": "bsg",
        "z": "0.5",
        "omega": "1e-3..1e3:60",
        "spacing": "log",
        "output": "-",
        "format": "csv",
    },
    "spectrum": {
        "model": "bsg",
        "z": "0.5",
        "omega": "1.0",
        "points": "40",
        "output": "-",
        "format": "csv",
    },
    "r0": {"model": "bsg", "z": "0.5", "output": "-", "format": "csv"},
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_help_prints_every_default(runner, command):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0
    # click wraps the help text; compare with the line breaks undone
    text = " ".join(res.output.split())
    for option, default in _DEFAULTS[command].items():
        assert f"--{option} " in text
        assert f"[default: {default}" in text, option


# cheap arguments per command; the model comes from a flag, the file or the
# default
_PRECEDENCE_ARGV = {
    "rates": ["--omega", "1"],
    "spectrum": ["--omega", "1", "--points", "2"],
    "r0": [],
}


@pytest.mark.parametrize("command", sorted(_PRECEDENCE_ARGV))
@pytest.mark.parametrize(
    "config, flags, expected",
    [
        ("model = kondo\n", [], "kondo"),
        ("model = kondo\n", ["--model", "bsg"], "bsg"),
        (None, [], "bsg"),
    ],
    ids=["config", "flag-over-config", "default"],
)
def test_flag_over_config_over_default(
    runner, tmp_path, command, config, flags, expected
):
    argv = [command, *_PRECEDENCE_ARGV[command], "--format", "json", *flags]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert json.loads(res.stdout)["meta"]["model"] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--model", "kondo", "--z", "0.5", "--omega", "1e-1..1e1:3",
         "--spacing", "linear", "--format", "json"],
        ["r0", "--model", "bsg", "--z", "0.3333333333333333"],
    ],
    ids=lambda v: v[0],
)
def test_config_file_prints_the_bytes_of_its_flags(runner, tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    # comment lines, blank lines and trailing comments are skipped
    cfg.write_text(
        "# the flags of argv\n\n"
        + "".join(f"{k[2:]} = {v}  # a flag\n   \n" for k, v in zip(argv[1::2], argv[2::2]))
    )
    from_flags = runner.invoke(main, argv)
    from_file = runner.invoke(main, [argv[0], "--config", str(cfg)])
    assert from_flags.exit_code == from_file.exit_code == 0
    assert from_file.stdout == from_flags.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_path_holds_the_bytes_of_stdout(runner, tmp_path, fmt):
    argv = ["r0", "--model", "bsg", "--z", "0.3333333333333333", "--format", fmt]
    out = tmp_path / f"r0.{fmt}"
    to_stdout = runner.invoke(main, argv + ["--output", "-"])
    to_file = runner.invoke(main, argv + ["--output", str(out)])
    assert to_stdout.exit_code == to_file.exit_code == 0
    assert to_file.stdout == ""
    assert out.read_bytes() == to_stdout.stdout_bytes


class TestRates:
    def test_csv_columns_and_values(self, runner):
        res = runner.invoke(
            main,
            ["rates", "--model", "kondo", "--z", "0.5", "--omega", "1e-1..1e1:5"],
        )
        assert res.exit_code == 0
        header, rows = _rows(res.output)
        assert header == [
            "omega",
            "gamma",
            "delta",
            "abs_err",
            "truncation_bound",
            "error",
        ]
        assert len(rows) == 5
        assert float(rows[0][0]) == pytest.approx(0.1)
        assert float(rows[-1][0]) == pytest.approx(10.0)
        # low-frequency Kondo phase shift approaches pi
        assert float(rows[0][2]) == pytest.approx(math.pi, abs=0.15)

    def test_single_frequency(self, runner):
        res = runner.invoke(
            main, ["rates", "--model", "bsg", "--z", "0.5", "--omega", "1.0"]
        )
        assert res.exit_code == 0
        _, rows = _rows(res.output)
        assert len(rows) == 1

    def test_log_grid_past_the_float_range(self, runner):
        # hi/lo = 1e340 overflows a double: the grid is formed in log space.
        # Past omega = 1.3e152, short of where the pair set's |f|^2 and
        # e1 e2 overflow (~1e154), a row is refused by a DomainError naming
        # omega, where it read "ToleranceNotMet: adaptive_1d: error estimate
        # nan" after numpy overflow warnings; the rows below keep values
        argv = "rates --model bsg --z 0.4 --omega 1e-40..1e300:6 --format json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, argv.split())
        assert [str(w.message) for w in caught] == []
        columns = json.loads(res.stdout)["columns"]
        omegas = columns["omega"]
        assert len(omegas) == 6 and all(math.isfinite(w) for w in omegas)
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert omegas[0] == 1e-40 and omegas[-1] == 1e300
        for w, gamma, error in zip(omegas, columns["gamma"], columns["error"]):
            if w < 1e152:
                assert error == "" and math.isfinite(gamma), w
            else:
                assert error.startswith(f"DomainError: set pm: omega = {w!r} is past"), error

    def test_overflowing_amplitude_is_a_domain_error_row(self, runner):
        # at z = 0.03 e^{(p - 1) lambda/2} overflows in the soliton
        # amplitudes at omega = 1e-20: the row names the point, where it
        # read "ToleranceNotMet: ... error estimate nan"
        res = runner.invoke(main, "rates --model bsg --z 0.03 --omega 1e-20".split())
        _, rows = _rows(res.stdout)
        assert rows[0][-1].startswith("DomainError: R_s overflows at lambda = (-")

    def test_byte_identical_reruns(self, runner):
        args = ["rates", "--model", "bsg", "--z", "0.5", "--omega", "1e-1..1e1:4"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_json_meta(self, runner):
        res = runner.invoke(
            main,
            [
                "rates",
                "--model",
                "kondo",
                "--z",
                "0.5",
                "--omega",
                "1e-1..1e1:3",
                "--format",
                "json",
            ],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["meta"]["model"] == "kondo"
        assert payload["meta"]["z"] == 0.5
        assert "version" in payload["meta"]
        assert len(payload["columns"]["gamma"]) == 3

    def test_failed_point_yields_nan_row(self, runner, monkeypatch):
        real = cli_mod.reflection_coefficients

        def flaky(omegas, spec):
            if any(abs(omega - 1.0) < 1e-9 for omega in omegas):
                raise ToleranceNotMet("synthetic failure")
            return real(omegas, spec)

        monkeypatch.setattr(cli_mod, "reflection_coefficients", flaky)
        res = runner.invoke(
            main, ["rates", "--model", "bsg", "--z", "0.5", "--omega", "1e-1..1e1:3"]
        )
        assert res.exit_code == 0
        _, rows = _rows(res.output)
        bad = rows[1]
        assert bad[1] == "nan"
        assert "ToleranceNotMet" in bad[5]
        good = rows[0]
        assert good[5] == ""
        assert good[1] != "nan"

    @pytest.mark.parametrize(
        "argv, refused",
        [
            # two frequencies below the floor: the grid fails its check
            (["--omega", "1e-200..1:3"], [True, True, False]),
            # f_12's kinematic pole inside the 12 integral at omega = 1e-11
            (["--z", "0.1", "--omega", "1e-11..1:3"], [True, False, False]),
        ],
        ids=["floor", "inside-an-integral"],
    )
    def test_a_refused_grid_prints_what_each_frequency_prints_alone(
        self, runner, monkeypatch, argv, refused
    ):
        # a grid with a failing member is re-evaluated one frequency at a
        # time: the same bytes as when every frequency is evaluated alone
        grid = runner.invoke(main, ["rates"] + argv)
        real = cli_mod.reflection_coefficients

        def one_at_a_time(omegas, spec):
            if len(omegas) > 1:
                raise ToleranceNotMet("no families")
            return real(omegas, spec)

        monkeypatch.setattr(cli_mod, "reflection_coefficients", one_at_a_time)
        alone = runner.invoke(main, ["rates"] + argv)
        assert grid.exit_code == alone.exit_code == 0
        assert grid.output == alone.output
        _, rows = _rows(grid.output)
        assert [row[5] != "" for row in rows] == refused

    def test_small_z_overflow_is_reported_in_the_row(self, runner):
        # at z = 0.005 the pair form factor overflows inside r0; the row
        # carries the DomainError instead of the run ending in a traceback
        res = runner.invoke(main, ["rates", "--z", "0.005", "--omega", "100"])
        assert res.exit_code == 0
        assert res.exception is None
        header, rows = _rows(res.output)
        assert header[5] == "error"
        assert rows[0][1] == "nan"
        assert rows[0][5].startswith("DomainError: f_pm overflows")

    @pytest.mark.parametrize(
        "argv",
        [
            # the simplex's 1/(e1 e2) underflows to a division by zero
            ["--omega", "1e-200"],
            # the pair terms underflow to 0 and a finite gamma is printed
            ["--z", "0.3333333333333333", "--omega", "5e-324"],
            ["--z", "0.5", "--omega", "5e-324"],
        ],
        ids=" ".join,
    )
    def test_omega_below_the_floor_is_a_domain_error_row(self, runner, argv):
        res = runner.invoke(main, ["rates"] + argv)
        assert res.exit_code == 0
        assert res.exception is None
        _, rows = _rows(res.output)
        assert rows[0][1] == rows[0][2] == "nan"
        assert rows[0][5].startswith("DomainError: ") and "below the floor 1e-50" in rows[0][5]

    def test_sweep_keeps_its_rows_above_the_floor(self, runner):
        res = runner.invoke(main, ["rates", "--omega", "1e-250..1e-1:4"])
        assert res.exit_code == 0
        assert res.exception is None
        _, rows = _rows(res.output)
        assert [row[5].startswith("DomainError: ") for row in rows] == [True, True, True, False]
        assert float(rows[3][0]) == pytest.approx(0.1) and float(rows[3][1]) > 0.0

    def test_json_is_strict_json(self, runner):
        # the failed row's NaN columns are null: NaN and Infinity are not JSON
        res = runner.invoke(
            main, ["rates", "--z", "0.005", "--omega", "100", "--format", "json"]
        )
        assert res.exit_code == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        columns = json.loads(res.stdout, parse_constant=reject)["columns"]
        assert columns["gamma"] == [None]
        assert columns["omega"] == [100.0]
        assert columns["error"][0].startswith("DomainError: f_pm overflows")

    def test_bad_range_rejected(self, runner):
        for omega, why in (("5..1:10", "need 0 < min < max < inf"), ("1..2:1", "need points >= 2")):
            res = runner.invoke(main, ["rates", "--omega", omega])
            assert res.exit_code == 1
            assert f"bad omega range {omega!r}" in res.output
            assert why in res.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = kondo\nz = 0.5\nomega = 1e-1..1e1:3  # grid\nformat = json\n"
        )
        res = runner.invoke(
            main, ["rates", "--config", str(cfg), "--format", "csv"]
        )
        assert res.exit_code == 0
        header, rows = _rows(res.output)
        assert header[0] == "omega"  # csv flag overrode the config's json
        assert len(rows) == 3

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model kondo\n")
        res = runner.invoke(main, ["rates", "--config", str(cfg)])
        assert res.exit_code != 0

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("z = 0.5\nmodle = kondo\n")
        res = runner.invoke(main, ["rates", "--config", str(cfg), "--omega", "1"])
        assert res.exit_code == 1
        assert f"{cfg}:2: unknown key 'modle'" in res.output


class TestSpectrum:
    def test_columns_and_sum_rule_footer(self, runner):
        res = runner.invoke(
            main,
            ["spectrum", "--model", "bsg", "--z", "0.5", "--omega", "1.0", "--points", "8"],
        )
        assert res.exit_code == 0
        header, rows = _rows(res.output)
        assert header[:2] == ["omega_prime", "gamma_spec"]
        assert "g1_1" in header
        assert all(0.0 < float(r[0]) < 1.0 for r in rows)
        footer = [l for l in res.output.splitlines() if l.startswith("#")]
        assert len(footer) == 1
        ratio = float(footer[0].split("=")[1])
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_json_meta_carries_sum_rule(self, runner):
        res = runner.invoke(
            main,
            [
                "spectrum",
                "--model",
                "kondo",
                "--z",
                "0.5",
                "--omega",
                "2.0",
                "--points",
                "8",
                "--format",
                "json",
            ],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["meta"]["omega"] == 2.0
        assert payload["meta"]["sum_rule_ratio"] == pytest.approx(1.0, abs=1e-4)
        assert payload["meta"]["gamma_disc"] < 0.0
        assert payload["meta"]["complete"] is True

    def test_incomplete_spectrum_exits_3_with_its_rows_written(self, runner):
        # Kondo z = 1/3 misses the sum-rule band (ratio 0.763): the table
        # is written, the ratio and the band go to stderr, and the exit is 3
        argv = ["spectrum", "--model", "kondo", "--z", str(1.0 / 3.0), "--omega", "1", "--points", "4"]
        res = runner.invoke(main, argv)
        assert res.exit_code == 3
        header, rows = _rows(res.stdout)
        assert header[:2] == ["omega_prime", "gamma_spec"] and len(rows) == 3
        assert res.stdout.splitlines()[-1].startswith("# sum_rule_ratio = 0.76")
        assert "outside [0.85, 1.15]" in res.stderr
        res = runner.invoke(main, argv + ["--format", "json"])
        assert res.exit_code == 3
        meta = json.loads(res.stdout)["meta"]
        assert meta["complete"] is False
        assert meta["sum_rule_ratio"] == pytest.approx(0.763, abs=1e-3)


class TestR0:
    def test_weights_table(self, runner):
        res = runner.invoke(
            main, ["r0", "--model", "bsg", "--z", str(1.0 / 3.0)]
        )
        assert res.exit_code == 0
        header, rows = _rows(res.output)
        assert header == ["set_label", "weight"]
        table = {r[0]: float(r[1]) for r in rows}
        assert table["m1"] == pytest.approx(0.9299284930874943, rel=1e-8)
        assert table["pm"] == pytest.approx(0.06824025892080751, rel=1e-6)
        assert table["total"] == pytest.approx(1.0, abs=1e-2)

    def test_z_063(self, runner):
        # strip_panel_width gives the e^I table on Im lambda = 0 a width of
        # 16 (1.496 strip half-widths), where panel 0 misses its 1e-12
        # check; the line is tabulated at width 8
        res = runner.invoke(main, ["r0", "--z", "0.63"])
        assert res.exit_code == 0
        _, rows = _rows(res.output)
        assert {r[0] for r in rows} >= {"pm", "total"}


class TestConvertTb:
    def test_value(self, runner):
        res = runner.invoke(
            main,
            ["convert-tb", "--epsilon-j", "1.0", "--cutoff-lambda", "10.0", "--z", "0.5"],
        )
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(math.pi / 10.0, rel=1e-12)

    def test_invalid_input(self, runner):
        res = runner.invoke(
            main,
            ["convert-tb", "--epsilon-j", "-1.0", "--cutoff-lambda", "1.0", "--z", "0.5"],
        )
        assert res.exit_code != 0


_VALIDATE_ROWS = [
    ("formfactors/watson-exchange", 1e-8),
    ("formfactors/expI-N-independence", 1e-10),
    ("formfactors/kinematic-pole", 1e-6),
    ("formfactors/kernel-tables", 1e-11),
    ("model/model-constants", 1e-12),
    ("model/tb-conversion-monotone", 0.5),
    ("reflection/boundary-unitarity", 1e-9),
    ("reflection/r-conjugation", 1e-9),
    ("reflection/r-modulus", 1e-9),
    ("reflection/breather-fusion", 1e-9),
    ("smatrix/s-unitarity", 1e-9),
    ("smatrix/s-crossing", 1e-8),
    ("smatrix/yang-baxter", 1e-8),
]


class TestValidate:
    def test_model_suite_passes(self, runner):
        res = runner.invoke(main, ["validate", "--suite", "model"])
        assert res.exit_code == 0
        header, rows = _rows(res.output)
        assert header == ["check", "residual", "bound", "status"]
        assert all(r[3] == "pass" for r in rows)

    def test_failure_exits_2(self, runner, monkeypatch):
        monkeypatch.setitem(
            cli_mod.SUITES, "model", lambda: [("synthetic", 1.0, 1e-9)]
        )
        res = runner.invoke(main, ["validate", "--suite", "model"])
        assert res.exit_code == 2

    def test_all_suites_rows(self, runner):
        res = runner.invoke(main, ["validate", "--suite", "all"])
        assert res.exit_code == 0
        _, rows = _rows(res.output)
        assert [(r[0], float(r[2])) for r in rows] == _VALIDATE_ROWS
        assert all(r[3] == "pass" for r in rows)

    # the kernel returns NaN on call `nan_call`, after finite values; the
    # third f_breather1 call sets the last kinematic-pole constant
    @pytest.mark.parametrize(
        "kernel, nan_call, suite, check",
        [
            ("s0", 2, "smatrix", "s-crossing"),
            ("f_breather1", 3, "formfactors", "kinematic-pole"),
            ("soliton_pair_bracket", 2, "reflection", "r-conjugation"),
        ],
    )
    def test_nan_sample_after_a_finite_one_fails(
        self, runner, monkeypatch, kernel, nan_call, suite, check
    ):
        real = getattr(validate_mod, kernel)
        calls = []

        def nan_once(*args):
            calls.append(args)
            return math.nan if len(calls) == nan_call else real(*args)

        monkeypatch.setattr(validate_mod, kernel, nan_once)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["validate", "--suite", suite])
        assert [str(w.message) for w in caught] == []
        assert res.exit_code == 2
        _, rows = _rows(res.output)
        status = {r[0]: (r[1], r[3]) for r in rows}
        assert status.pop(f"{suite}/{check}") == ("nan", "FAIL")
        assert all(s == "pass" for _, s in status.values())


# sha256 of stdout; a change that moves these bytes updates the hash here
# and records the moved output
_PINNED_STDOUT = {
    "validate --suite all": "2533ac0bce8a9dda94dd3af20bc0d116dddebaef9e8184d859c7d63d1e8fc411",
    "rates --model bsg --z 0.3333333333333333 --omega 0.7": "6b50ea87c98b7a46730eb268ea804707c11a342a0c31765c9a6255f9ba2c54d1",
    "rates --model kondo --z 0.3333333333333333 --omega 0.7": "89449f97a1e8e21baeb3b55643ad3b07d66bdb91040ae1e0be07c12a4c1ee41f",
    "rates --model kondo --z 0.5 --omega 1e-2..1e2:12 --format json": "664d483d4a19beba0b640515f700487a56ae29c53f52c7c0050d5a8d38143578",
    "r0 --model bsg --z 0.3333333333333333": "0d45f84da5b20725e8ff99110bb346411262b80d46b4a04ae93cb0e96ce6b615",
    "r0 --model bsg --z 0.2": "81eb200298727642802a419f5b4840e2420232c19ea5ebd1326b8e013da6cff1",
    "spectrum --model kondo --z 0.5 --omega 1 --points 10": "2c34bcc1fca7b255a5ae43c56c55c460c0f5f33e41dee347449027d51fc413d6",
    "spectrum --model bsg --z 0.3333333333333333 --omega 1 --points 8": "e65f104d73e68bdb32ad0063003057e0769d6753a5aa24c1628143df608d1f0a",
}


@pytest.mark.parametrize("command", sorted(_PINNED_STDOUT))
def test_stdout_bytes_pinned(runner, command):
    res = runner.invoke(main, command.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _PINNED_STDOUT[command]


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(cli_mod.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bscat")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def _fresh_interpreter(probe: str) -> str:
    """stdout of `probe` run by a fresh interpreter that imports this bscat."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return res.stdout.strip()


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only: a fresh interpreter importing the CLI
    # must not load it
    probe = "import sys, bscat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_interpreter(probe) == "[]"


def test_quadrature_import_loads_only_errors():
    # the package holds no re-exports, so a submodule loads only its own imports
    probe = "import sys, bscat.quadrature; print(sorted(m for m in sys.modules if m.split('.')[0] == 'bscat'))"
    assert _fresh_interpreter(probe) == "['bscat', 'bscat.errors', 'bscat.quadrature']"


def test_cli_import_leaves_referm_out():
    # the free-fermion oracle is a test oracle (tests/referm.py): neither
    # the CLI nor the package holds it
    probe = (
        "import importlib.util, sys, bscat.cli; "
        "print('bscat.referm' in sys.modules, importlib.util.find_spec('bscat.referm'))"
    )
    assert _fresh_interpreter(probe) == "False None"


def test_reflection_import_leaves_smatrix_out():
    # the reflection amplitudes and brackets do not depend on the bulk S-matrix
    probe = "import sys, bscat.reflection; print(sorted(m for m in sys.modules if m.startswith('bscat.')))"
    loaded = _fresh_interpreter(probe)
    assert "bscat.reflection" in loaded
    assert "bscat.smatrix" not in loaded
