import builtins
import errno
import math
import os
import signal
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crflab.io
from crflab.cli import main
from crflab.geometry import ScalarField, TorusChart, VolumeField
from crflab.io import (
    SCHEMA,
    dump_config,
    load_config,
    parse_config,
    read_csv,
    read_snapshot,
    validate_config,
    write_config,
    write_csv,
    write_snapshot,
)

from conftest import bandlimited_scalar

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


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

    def test_scalar_roundtrip_and_footer(self, tmp_path, chart1):
        v = ScalarField(chart1, np.full(chart1.shape, 2.5))
        path = str(tmp_path / "v.snap")
        write_snapshot(path, v, footer=(1.25, 1e-3))
        g, footer = read_snapshot(path, want_footer=True)
        assert footer == (1.25, 1e-3)
        assert np.array_equal(g.values, v.values)

    def test_only_a_scalar_field_is_written(self, tmp_path, chart1, nonkahler_metric):
        # a snapshot holds the potential phi; a metric or a density is refused
        path = tmp_path / "h.snap"
        for field in (nonkahler_metric, VolumeField(chart1, np.full(chart1.shape, 2.5))):
            with pytest.raises(TypeError, match="a snapshot holds a ScalarField"):
                write_snapshot(str(path), field)
        assert not path.exists()

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

    def test_read_copies_the_payload_once(self, tmp_path):
        # the file's bytes and the field's own read-only copy make 2x the
        # payload at the peak; one more copy on the way would make it 3x
        chart = TorusChart(2, 256, active_axes=(0, 2))
        f = bandlimited_scalar(chart, 6)
        path = str(tmp_path / "big.snap")
        write_snapshot(path, f)
        read_snapshot(path)
        tracemalloc.start()
        try:
            g = read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.values, f.values)
        assert g.values.flags.owndata and not g.values.flags.writeable
        assert peak < 2.5 * f.values.nbytes


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


def _config(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return fh.read()


# (subcommand, config, text replaced, replacement, key path named on stderr)
PROBES = [
    ("run-flow", "flow_n1.cfg", "t_end = 60.0", "t_end = nan", "scenario.t_end"),
    ("run-flow", "flow_n1.cfg", "t_end = 60.0", "t_end = -5", "scenario.t_end"),
    ("run-flow", "flow_n1.cfg", "t_end = 60.0", "t_end = 1 2", "scenario.t_end"),
    ("run-flow", "flow_n1.cfg", "safety = 0.8", "saftey = 0.1", "scenario.control.saftey"),
    ("run-flow", "flow_n1.cfg", "seed = 0", "seed = 0  bogus { x = 1 }", "scenario.bogus"),
    ("run-flow", "flow_n1.cfg", "seed = 0", "seed = 1.5", "scenario.seed"),
    ("run-flow", "flow_n1.cfg", "seed = 0", "seed = 0  mode = normalized", "scenario.mode"),
    ("run-flow", "flow_n1.cfg", "seed = 0", "seed = 0  chart { n = 1 }", "scenario.chart"),
    ("run-flow", "flow_n1.cfg", "resolution = 128", "resolution = 32.9",
     "scenario.chart.resolution"),
    ("run-flow", "flow_n1.cfg", "wavevector = 1 0", "wavevector = 1.7 0",
     "scenario.recipe.perturbation[0].wavevector"),
    ("run-flow", "flow_n1.cfg", "tolerance = 1e-7", "tolerance = nan",
     "scenario.monitors.tolerance"),
    ("run-flow", "flow_n1.cfg", "patience = 5", "patience = -3", "scenario.monitors.patience"),
    ("run-flow", "flow_n2.cfg", "kind = random", "kind = randm", "scenario.recipe.kind"),
    ("run-flow", "flow_n2.cfg", "peaked = true", "peaked = no", "scenario.recipe.peaked"),
    ("solve-ma", "elliptic_n2.cfg", "method = newton-continuation", "methd = gill-flow",
     "elliptic.methd"),
    ("max-time", "hopf_surface.cfg", "minimal = true", "minimal = maybe",
     "surface.flags.minimal"),
    ("max-time", "hopf_surface.cfg", "c1sq = 0.0", "c1sq = nan", "surface.c1sq"),
    ("max-time", "hopf_surface.cfg", "c1sq = 0.0", "c1sq = 1" + "0" * 400, "surface.c1sq"),
    ("max-time", "hopf_surface.cfg", "flags {", "flags = 1  #", "surface.flags"),
]


class TestSchema:
    @pytest.mark.parametrize("command, name, old, new, path", PROBES)
    def test_probe_exits_2_naming_the_key(self, tmp_path, capsys, command, name, old, new, path):
        text = _config(name)
        assert old in text
        scen = _write(tmp_path, name, text.replace(old, new))
        flag = "--data" if command == "max-time" else "--scenario"
        assert main([command, flag, scen, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"invalid input: {path}" in err
        assert not os.path.exists(tmp_path / "o")  # rejected before the manifest

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_every_shipped_config_validates(self, name):
        tree = parse_config(_config(name))
        (section,) = tree
        assert validate_config(tree, section)

    def test_defaults_fill_and_repeats_collect(self):
        cfg = validate_config(parse_config(FLOW_N1), "scenario")
        assert cfg["seed"] == 0 and cfg["control"] == {}
        assert cfg["recipe"]["perturbation"][0]["wavevector"] == (1, 0)
        assert cfg["chart"]["active_axes"] == (0,)

    def test_recipe_keys_of_the_other_kind_are_rejected(self):
        text = FLOW_N1.replace("kind = explicit", "kind = random")
        with pytest.raises(ValueError, match="scenario.recipe.base: only read when kind"):
            validate_config(parse_config(text), "scenario")

    def test_kodaira_minus_inf_is_the_only_non_finite_value(self):
        cfg = validate_config(parse_config(SURFACE), "surface")
        assert cfg["flags"]["kodaira"] == -math.inf
        with pytest.raises(ValueError, match="surface.vol0: expected a finite number"):
            validate_config(parse_config(SURFACE.replace("vol0 = 10.0", "vol0 = inf")), "surface")


_KEYS = sorted({key for table in SCHEMA.values() for key in table} | {"x"})
_SCALARS = st.one_of(
    st.integers(), st.floats(), st.complex_numbers(), st.booleans(),
    st.sampled_from(["none", "random", "cos", "mean", "gill-flow", "-inf", ""]),
)
_VALUES = st.one_of(_SCALARS, st.tuples(_SCALARS, _SCALARS))
_TREES = st.recursive(
    _VALUES,
    lambda inner: st.one_of(
        st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5),
        st.lists(inner, min_size=2, max_size=3),
    ),
    max_leaves=12,
)


def _only_value_errors(tree, section):
    try:
        validate_config(tree, section)
    except ValueError:
        pass


class TestSchemaFuzz:
    @given(st.dictionaries(st.sampled_from(["scenario", "elliptic", "surface", "x"]),
                           _TREES, max_size=2),
           st.sampled_from(["scenario", "elliptic", "surface"]))
    def test_random_trees_raise_only_value_errors(self, tree, section):
        _only_value_errors(tree, section)

    @given(st.sampled_from(sorted(os.listdir(CONFIGS))), st.data())
    def test_byte_mutations_raise_only_value_errors(self, name, data):
        raw = bytearray(_config(name).encode("utf-8"))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(raw) - 1))
            raw[at] = data.draw(st.sampled_from(b"{}=#.-e 0123456789abnx\n\xff"))
        try:
            tree = parse_config(bytes(raw).decode("utf-8"))
        except ValueError:
            return
        for section in ("scenario", "elliptic", "surface"):
            _only_value_errors(tree, section)


def _snapshot_fields():
    c1 = TorusChart(1, 8, active_axes=(0,))
    c2 = TorusChart(2, 8, active_axes=(0, 2))
    x = c1.axis_coordinates(0)
    return [
        ScalarField(c1, np.cos(x)),
        ScalarField(c1, 2.0 + np.sin(x)),
        ScalarField(c2, 0.1 * np.cos(c2.axis_coordinates(2)) * np.ones(c2.shape)),
    ]


def _snapshot_bytes(field, footer):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.snap")
        write_snapshot(path, field, footer=footer)
        with open(path, "rb") as fh:
            return fh.read()


def _read_bytes(raw, footer, chart=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.snap")
        with open(path, "wb") as fh:
            fh.write(raw)
        return read_snapshot(path, chart=chart, want_footer=footer is not None)


# offset and format of each header and descriptor field of a snapshot
_HEADER_FIELDS = [(4, "<H"), (6, "<H"), (8, "<H"), (10, "<H"), (12, "<I")]


def _descriptor_fields(naxes):
    ints = [(16 + 4 * a, "<I") for a in range(naxes)]
    floats = [(16 + 4 * naxes + 8 * a, "<d") for a in range(naxes)]
    return ints + floats + [(16 + 12 * naxes, "<I")]


_FIELD_INDEX = st.integers(0, len(_snapshot_fields()) - 1)
_FOOTER = st.sampled_from([None, (0.5, 1e-3)])


class TestSnapshotFuzz:
    """Malformed snapshots raise ValueError and nothing else; every field
    is 8 nodes per active axis, so no header can ask for a large array."""

    @given(_FIELD_INDEX, _FOOTER, st.data())
    def test_truncations(self, index, footer, data):
        raw = _snapshot_bytes(_snapshot_fields()[index], footer)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ValueError):
            _read_bytes(raw[:cut], footer)

    @given(_FIELD_INDEX, st.binary(min_size=4, max_size=4).filter(lambda b: b != b"CRFS"))
    def test_bad_magic(self, index, magic):
        raw = _snapshot_bytes(_snapshot_fields()[index], None)
        with pytest.raises(ValueError, match="not a field snapshot"):
            _read_bytes(magic + raw[4:], None)

    @given(_FIELD_INDEX, st.integers(1, 2 ** 16 - 1))
    def test_bad_kind(self, index, kind):
        raw = bytearray(_snapshot_bytes(_snapshot_fields()[index], None))
        struct.pack_into("<H", raw, 6, kind)
        with pytest.raises(ValueError, match="kind"):
            _read_bytes(bytes(raw), None)

    @given(_FIELD_INDEX, _FOOTER, st.sampled_from([16, 32]), st.floats(0.5, 10.0))
    def test_wrong_chart(self, index, footer, resolution, period):
        field = _snapshot_fields()[index]
        c = field.chart
        other = TorusChart(c.n, resolution, period, c.active_axes)
        with pytest.raises(ValueError):
            _read_bytes(_snapshot_bytes(field, footer), footer, chart=other)

    @given(_FIELD_INDEX, _FOOTER, st.sampled_from([math.nan, math.inf, -math.inf]),
           st.data())
    def test_non_finite_payload(self, index, footer, bad, data):
        field = _snapshot_fields()[index]
        raw = bytearray(_snapshot_bytes(field, footer))
        start = 16 + 12 * field.chart.naxes + 4
        count = (len(raw) - start - (16 if footer else 0)) // 8
        at = data.draw(st.integers(0, count - 1))
        struct.pack_into("<d", raw, start + 8 * at, bad)
        with pytest.raises(ValueError, match="not finite"):
            _read_bytes(bytes(raw), footer)

    @given(_FIELD_INDEX, _FOOTER, st.data())
    def test_header_mutations_raise_only_value_errors(self, index, footer, data):
        field = _snapshot_fields()[index]
        raw = bytearray(_snapshot_bytes(field, footer))
        fields = _HEADER_FIELDS + _descriptor_fields(field.chart.naxes)
        for _ in range(data.draw(st.integers(1, 3))):
            off, fmt = data.draw(st.sampled_from(fields))
            if fmt == "<d":
                value = data.draw(st.floats(allow_nan=True, allow_infinity=True))
            else:
                value = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1))
            struct.pack_into(fmt, raw, off, value)
        try:
            _read_bytes(bytes(raw), footer)
        except ValueError:
            pass


def _corrupt_checkpoint(raw, how):
    raw = bytearray(raw)
    if how == "truncated":
        return bytes(raw[: len(raw) // 2])
    if how == "magic":
        raw[:4] = b"JUNK"
    elif how == "kind":
        struct.pack_into("<H", raw, 6, 7)
    elif how == "resolution":
        struct.pack_into("<I", raw, 16, 32)
    elif how == "payload":
        struct.pack_into("<d", raw, 16 + 12 * 2 + 4 + 8 * 5, math.nan)
    elif how == "time":
        struct.pack_into("<d", raw, len(raw) - 16, math.nan)
    return bytes(raw)


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


# maxtime.json of configs/hopf_surface.cfg
MAXTIME_HOPF = b"""{
 "T": 0.5,
 "binding": "volume-collapse",
 "case": "b",
 "name": "hopf",
 "volume_poly": [
  109.45741542171363,
  -218.91483084342727,
  0.0
 ]
}
"""


class _FullDisk:
    # a file opened for writing on a full disk: every write raises ENOSPC
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _disk_full_open(path, mode="r", *args, **kwargs):
    fh = builtins.open(path, mode, *args, **kwargs)
    return _FullDisk(fh) if "w" in mode else fh


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

    @pytest.mark.parametrize("alpha", ["-2", "0", "nan", "inf"])
    def test_hopf_explicit_rejects_a_modulus_that_is_not_finite_positive(
        self, tmp_path, capsys, alpha
    ):
        argv = ["hopf-explicit", "--alpha", alpha, "--out", str(tmp_path / "h")]
        assert main(argv) == 2
        assert "|alpha| must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hopf-explicit", "hopf-verify"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_hopf_point_count_below_one_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command, points
    ):
        out = tmp_path / "h"
        assert main([command, "--points", points, "--out", str(out)]) == 2
        assert f"point count must be at least 1, got {points}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["hopf-explicit", "hopf-verify"])
    @pytest.mark.parametrize("t", ["0.7", "0.5", "-0.1", "nan"])
    def test_hopf_time_off_the_existence_interval_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command, t
    ):
        # n = 2: the explicit solution exists for 0 <= t < 1/2
        out = tmp_path / "h"
        flag = ["--t", t] if command == "hopf-explicit" else ["--times", "0.1", t]
        assert main([command, *flag, "--out", str(out)]) == 2
        assert "outside the existence interval [0, 1/2)" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_hopf_explicit_samples_inside_the_unit_sphere_below_one(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["hopf-explicit", "--alpha", "0.5", "--out", str(out)]) == 0
        r2 = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.sqrt(r2) >= 0.5) and np.all(np.sqrt(r2) < 1.0)
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

    def test_verify_identities_torus1_default_resolves_its_hump(self, tmp_path, capsys):
        # for n = 1 bound (I) reads the seeded triple's whole truncation
        # error: 1.0e-8 at 64 nodes (seed 0), above its 1e-8 tolerance, and
        # rounding at the torus1 default of 128, which the manifest records
        out = tmp_path / "v"
        assert main(["verify-identities", "--chart", "torus1", "--out", str(out)]) == 0
        manifest = parse_config((out / "manifest.cfg").read_text())["manifest"]
        assert manifest["resolution"] == 128
        assert main(["verify-identities", "--chart", "torus1", "--resolution", "64",
                     "--out", str(tmp_path / "v64")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv,code", [
        (["run-flow", "--scenario", "s.cfg"], 0),
        (["hopf-verify"], 0),
        (["hopf-explicit"], 0),
        # 16 nodes per axis leave the trace-evolution residual above its
        # tolerance, so this run also covers the bytes of a failed report
        (["verify-identities", "--resolution", "16"], 3),
        # a 64^2 Newton solve and its certificate on the doubled grid
        (["solve-ma", "--scenario", "elliptic_n2.cfg", "--a-grid", "0", "1"], 0),
    ], ids=["run-flow", "hopf-verify", "hopf-explicit", "verify-identities", "solve-ma"])
    def test_outputs_repeat_byte_for_byte(self, tmp_path, capsys, argv, code):
        # identical manifests give identical bytes, in every file a run writes
        paths = {"s.cfg": _write(tmp_path, "s.cfg", FLOW_N1),
                 "elliptic_n2.cfg": os.path.join(CONFIGS, "elliptic_n2.cfg")}
        argv = [paths.get(a, a) for a in argv]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == code
        files = sorted(os.listdir(outs[0]))
        assert "manifest.cfg" in files and len(files) >= 2
        assert sorted(os.listdir(outs[1])) == files
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
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

    def test_resume_behind_t_end_exits_2(self, tmp_path, capsys):
        # the scenario ends at t = 1 and the checkpoint is at t = 60: the
        # run refuses, rather than write zero steps and report t_end = 60
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        snap = str(tmp_path / "late.snap")
        write_snapshot(snap, ScalarField.zeros(TorusChart(1, 64, active_axes=(0,))),
                       footer=(60.0, 1e-3))
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "f"),
                   "--resume", snap])
        assert rc == 2
        err = capsys.readouterr().err
        assert "t_end = 1 is behind the start state's t = 60" in err
        assert not (tmp_path / "f" / "trajectory.csv").exists()

    def test_manifest_covers_the_resumed_snapshot(self, tmp_path, capsys):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        snap = str(tmp_path / "mid.snap")
        chart = TorusChart(1, 64, active_axes=(0,))
        write_snapshot(snap, ScalarField.zeros(chart), footer=(0.5, 1e-3))

        def run(out, *extra):
            out = str(tmp_path / out)
            assert main(["run-flow", "--scenario", scen, "--out", out, *extra]) == 0
            return [open(os.path.join(out, f), "rb").read()
                    for f in ("manifest.cfg", "trajectory.csv")]

        fresh = run("fresh")
        resumed = run("r1", "--resume", snap)
        assert resumed[0] != fresh[0] and resumed[1] != fresh[1]
        assert f"resume = {snap}".encode() in resumed[0]
        assert run("r2", "--resume", snap) == resumed
        # same path, other bytes: the hash tells the two resumes apart
        write_snapshot(snap, ScalarField(chart, 1e-3 * np.cos(chart.axis_coordinates(0))),
                       footer=(0.5, 1e-3))
        other = run("r3", "--resume", snap)
        assert other[0] != resumed[0] and other[1] != resumed[1]
        capsys.readouterr()

    def test_positivity_loss_keeps_the_rows_up_to_the_last_good_state(
        self, tmp_path, capsys, monkeypatch
    ):
        import crflab.flow
        from crflab.errors import PositivityLost

        step, taken = crflab.flow.step, []

        def failing(state, scenario, dt_max=None):
            if len(taken) == 3:
                raise PositivityLost("injected")
            taken.append(state.t)
            return step(state, scenario, dt_max)

        monkeypatch.setattr(crflab.flow, "step", failing)
        out = tmp_path / "f"
        scen = os.path.join(CONFIGS, "flow_n1.cfg")
        assert main(["run-flow", "--scenario", scen, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: injected" in err
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 4
        assert f"last good state at t = {rows[-1, 0]:.6g}\n" in err
        assert not (out / "checkpoint.snap").exists()

    def test_step_underflow_keeps_the_rows_up_to_the_last_good_state(
        self, tmp_path, capsys, monkeypatch
    ):
        import crflab.flow
        from crflab.errors import StepUnderflow

        step, taken = crflab.flow.step, []

        def failing(state, scenario, dt_max=None):
            if len(taken) == 3:
                raise StepUnderflow(f"injected at t = {state.t:.6g}")
            taken.append(state.t)
            return step(state, scenario, dt_max)

        monkeypatch.setattr(crflab.flow, "step", failing)
        out = tmp_path / "f"
        scen = os.path.join(CONFIGS, "flow_n1.cfg")
        assert main(["run-flow", "--scenario", scen, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: injected" in err
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 4
        assert f"last good state at t = {rows[-1, 0]:.6g}\n" in err
        assert not (out / "checkpoint.snap").exists()

    def test_solve_ma_tolerance_reaches_the_doubled_grid(self, tmp_path, capsys, monkeypatch):
        import crflab.elliptic

        tols = []
        solve = crflab.elliptic.solve_elliptic

        def spy(problem, *args, **kwargs):
            tols.append(kwargs.get("tol"))
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(crflab.elliptic, "solve_elliptic", spy)
        scen = _write(tmp_path, "e.cfg", ELLIPTIC)
        assert main(["solve-ma", "--scenario", scen, "--out", str(tmp_path / "ma"),
                     "--tolerance", "1e-9", "--a-grid", "0", "1"]) == 0
        assert tols == [1e-9, 1e-9]
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

    def test_max_time_writes_whole_files(self, tmp_path, capsys, monkeypatch):
        # maxtime.json goes through the write-then-rename path, with the
        # bytes json.dump(indent=1, sort_keys=True) and a newline give
        written = []
        atomic = crflab.io._atomic_write
        monkeypatch.setattr(crflab.io, "_atomic_write",
                            lambda path, payload: written.append(path) or atomic(path, payload))
        out = tmp_path / "m"
        data = os.path.join(CONFIGS, "hopf_surface.cfg")
        assert main(["max-time", "--data", data, "--out", str(out)]) == 0
        assert str(out / "maxtime.json") in written
        assert (out / "maxtime.json").read_bytes() == MAXTIME_HOPF
        capsys.readouterr()

    def test_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path, capsys,
                                                              monkeypatch):
        out = tmp_path / "m"
        data = os.path.join(CONFIGS, "hopf_surface.cfg")
        assert main(["max-time", "--data", data, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(crflab.io, "open", _disk_full_open, raising=False)
        with pytest.raises(OSError) as err:
            crflab.io._atomic_write(str(out / "maxtime.json"), b"new")
        assert err.value.errno == errno.ENOSPC
        assert main(["max-time", "--data", data, "--out", str(out)]) == 2
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(out.glob("*.tmp.*"))

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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_solve_ma_invalid_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        scen = _write(tmp_path, "e.cfg", ELLIPTIC)
        rc = main(["solve-ma", "--scenario", scen, "--out", str(tmp_path / "ma"),
                   "--tolerance", tolerance, "--a-grid", "0", "1"])
        assert rc == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("a_grid", [["inf", "nan", "1"], ["0", "1", "nan"]])
    def test_solve_ma_non_finite_a_grid_exits_2(self, tmp_path, capsys, a_grid):
        scen = _write(tmp_path, "e.cfg", ELLIPTIC)
        rc = main(["solve-ma", "--scenario", scen, "--out", str(tmp_path / "ma"),
                   "--a-grid", *a_grid])
        assert rc == 2
        captured = capsys.readouterr()
        assert "A values must be finite" in captured.err
        assert "C(" not in captured.out

    @pytest.mark.parametrize("a_grid, code", [(["0", "inf"], 2), (["0", "-inf"], 64)])
    def test_solve_ma_checks_a_grid_before_solving(self, tmp_path, capsys, monkeypatch,
                                                   a_grid, code):
        # inf exits 2 before the primary solve; -inf reads as an option, a
        # usage error. Neither solves or writes phi.snap
        import crflab.elliptic

        solves = []
        monkeypatch.setattr(crflab.elliptic, "solve_elliptic", lambda *a, **k: solves.append(a))
        scen = _write(tmp_path, "e.cfg", ELLIPTIC)
        out = tmp_path / "ma"
        assert main(["solve-ma", "--scenario", scen, "--out", str(out),
                     "--a-grid", *a_grid]) == code
        err = capsys.readouterr().err
        assert ("A values must be finite" if code == 2 else "usage error") in err
        assert solves == [] and not (out / "phi.snap").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_verify_identities_invalid_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        rc = main(["verify-identities", "--resolution", "16", "--out", str(tmp_path / "v"),
                   "--tolerance", tolerance])
        assert rc == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "how", ["truncated", "magic", "kind", "resolution", "payload", "time"]
    )
    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys, how):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        chart = TorusChart(1, 64, active_axes=(0,))
        snap = str(tmp_path / "ckpt.snap")
        write_snapshot(snap, ScalarField.zeros(chart), footer=(0.0, 1e-3))
        raw = open(snap, "rb").read()
        open(snap, "wb").write(_corrupt_checkpoint(raw, how))
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "t"),
                   "--resume", snap])
        assert rc == 2
        assert snap in capsys.readouterr().err

    @pytest.mark.parametrize("kind,per_node", [(1, [1.0, 0.0]), (2, [1.0])],
                             ids=["metric", "density"])
    def test_resume_from_a_foreign_snapshot_exits_2(self, tmp_path, capsys, kind, per_node):
        # only the potential phi is snapshotted: a metric (kind 1, its complex
        # entries interleaved) or a density (kind 2) on FLOW_N1's chart, packed
        # by hand, is refused before any step
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        snap = tmp_path / "foreign.snap"
        snap.write_bytes(
            struct.pack("<4sHHHHI", b"CRFS", 1, kind, 1, 2, 1)
            + struct.pack("<2I2dI", 64, 64, 2 * math.pi, 2 * math.pi, 0b01)
            + struct.pack(f"<{64 * len(per_node)}d", *(per_node * 64))
            + struct.pack("<dd", 0.0, 1e-3)
        )
        out = tmp_path / "f"
        rc = main(["run-flow", "--scenario", scen, "--out", str(out), "--resume", str(snap)])
        assert rc == 2
        assert f"unknown snapshot kind {kind}" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("t", [-3.0, 200.0 + 1e-9, 1e9])
    def test_checkpoint_time_outside_the_horizon_exits_2(self, tmp_path, capsys, t):
        # FLOW_N1 has T0 = 200; a resume must start inside [0, T0]
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        chart = TorusChart(1, 64, active_axes=(0,))
        snap = str(tmp_path / "ckpt.snap")
        write_snapshot(snap, ScalarField.zeros(chart), footer=(t, 1e-3))
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "t"),
                   "--resume", snap])
        assert rc == 2
        assert snap in capsys.readouterr().err

    def test_negative_checkpoint_every_is_a_usage_error(self, tmp_path, capsys):
        scen = _write(tmp_path, "s.cfg", FLOW_N1)
        rc = main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "n"),
                   "--checkpoint-every", "-2"])
        assert rc == 64
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "n").exists()

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


# a run-flow in a child process that sends itself SIGKILL from its checkpoint
# writes: right after the WHEN-th whole one ("written"), or between that one's
# temporary write and its rename ("rename")
_RANDOM_FLOW = """
scenario {{
  T0 = 10.0
  t_end = {t_end!r}
  seed = {seed}
  chart {{ n = {n}  resolution = {nodes}  active_axes = {axes} }}
  recipe {{ kind = random  scale = {scale!r}  peaked = {peaked} }}
}}
"""


@st.composite
def _random_flows(draw):
    # n = 1 on 16 nodes or n = 2 on 8, on any non-empty set of active axes
    n = draw(st.sampled_from([1, 2]))
    axes = draw(st.sets(st.integers(0, 2 * n - 1), min_size=1))
    return _RANDOM_FLOW.format(
        n=n, nodes=16 if n == 1 else 8, axes=" ".join(map(str, sorted(axes))),
        seed=draw(st.integers(0, 2 ** 16)), scale=draw(st.floats(0.05, 1.2)),
        peaked=draw(st.sampled_from(["true", "false"])), t_end=draw(st.floats(0.2, 1.5)),
    )


class TestRunFlowFuzz:
    @given(_random_flows())
    def test_random_recipes_exit_cleanly_with_monotone_monitors(self, text):
        # a recipe that is not positive exits 2 before any step, a numerical
        # failure exits 3; nothing escapes main, and a run that finishes
        # keeps the metric positive and its monitors monotone
        with tempfile.TemporaryDirectory() as tmp:
            scen, out = os.path.join(tmp, "s.cfg"), os.path.join(tmp, "o")
            with open(scen, "w") as fh:
                fh.write(text)
            rc = main(["run-flow", "--scenario", scen, "--out", out])
            assert rc in (0, 2, 3), text
            csv = os.path.join(out, "trajectory.csv")
            if rc == 2:
                assert not os.path.exists(csv)
            if rc == 0:
                columns, rows = read_csv(csv)
                rows = np.array(rows)
                column = {name: rows[:, k] for k, name in enumerate(columns)}
                assert column["eig_min"].min() >= 1e-8
                assert np.max(np.diff(column["q1_max"]), initial=0.0) <= 1e-8
                assert np.min(np.diff(column["q0_min"]), initial=0.0) >= -1e-8

    @given(_random_flows())
    def test_random_recipes_run_normalized_to_t_end(self, text):
        # the same exits as run-flow; a run that finishes keeps the metric
        # positive and lands on the file's t_end. q1 and q0 are monitors of
        # the unnormalized flow, so their monotonicity is not asked here
        with tempfile.TemporaryDirectory() as tmp:
            scen, out = os.path.join(tmp, "s.cfg"), os.path.join(tmp, "o")
            with open(scen, "w") as fh:
                fh.write(text)
            rc = main(["run-normalized", "--scenario", scen, "--out", out])
            assert rc in (0, 2, 3), text
            csv = os.path.join(out, "trajectory.csv")
            if rc == 2:
                assert not os.path.exists(csv)
            if rc == 0:
                columns, rows = read_csv(csv)
                rows = np.array(rows)
                column = {name: rows[:, k] for k, name in enumerate(columns)}
                assert column["eig_min"].min() >= 1e-8
                assert np.all(np.diff(column["t"]) > 0.0)
                t_end = parse_config(text)["scenario"]["t_end"]
                assert abs(column["t"][-1] - t_end) <= 1e-12


KILLED_RUN = """
import os, signal, sys
from crflab import io
from crflab.cli import main

point, when = sys.argv[1], int(sys.argv[2])
atomic = io._atomic_write
count = 0


def die(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def dying_write(path, payload):
    global count
    count += path.endswith("checkpoint.snap")
    if count == when and point == "rename":
        os.replace = die
    atomic(path, payload)
    if count == when:
        die()


io._atomic_write = dying_write
sys.exit(main(sys.argv[3:]))
"""


class TestKilledRun:
    def test_killed_run_leaves_whole_files_and_resumes_bitwise(self, tmp_path, capsys):
        scen = os.path.join(CONFIGS, "flow_n1.cfg")
        # flow_n1.cfg takes 50 steps with a checkpoint after each; a kill at
        # the rename of the second or a later one leaves the one before it
        rng = np.random.default_rng(33)
        points = {"written": int(rng.integers(2, 50)), "rename": int(rng.integers(2, 50))}
        src = os.path.dirname(os.path.dirname(os.path.abspath(crflab.io.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        children = {
            point: subprocess.Popen(
                [sys.executable, "-c", KILLED_RUN, point, str(when), "run-flow",
                 "--scenario", scen, "--checkpoint-every", "1", "--out", str(tmp_path / point)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for point, when in points.items()
        }
        assert main(["run-flow", "--scenario", scen, "--out", str(tmp_path / "whole")]) == 0
        final = (tmp_path / "whole" / "checkpoint.snap").read_bytes()
        for point, child in children.items():
            err = child.communicate(timeout=60)[1]
            assert child.returncode == -signal.SIGKILL, (point, points[point], err)
            out = tmp_path / point
            # every file left is whole: the readers raise on a cut one, and
            # trajectory.csv, written after the last step, is absent
            ckpt = str(out / "checkpoint.snap")
            read_snapshot(ckpt, want_footer=True)
            load_config(str(out / "manifest.cfg"))
            assert not (out / "trajectory.csv").exists()
            # SIGKILL runs no cleanup: a kill before the rename leaves the
            # (whole) temporary file beside the old checkpoint
            temps = sorted(out.glob("*.tmp.*"))
            assert len(temps) == (point == "rename"), temps
            for temp in temps:
                assert temp.name == f"checkpoint.snap.tmp.{child.pid}"
                read_snapshot(str(temp), want_footer=True)
            resumed = tmp_path / f"{point}-resumed"
            assert main(["run-flow", "--scenario", scen, "--resume", ckpt,
                         "--out", str(resumed)]) == 0
            assert (resumed / "checkpoint.snap").read_bytes() == final
        capsys.readouterr()
