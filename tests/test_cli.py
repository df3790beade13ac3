import contextlib
import csv
import ctypes
import dataclasses
import fractions
import io
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mongesol import cli, verifier
from mongesol.cli import RunConfig, _csv_blocks, _pin_malloc_thresholds, main
from mongesol.errors import ConfigError
from mongesol.families import (
    FAMILY_TAGS,
    MAX_DEGREE,
    SafeDomain,
    canonical_config,
    family_to_dict,
)
from mongesol.verifier import DEFAULT_TOLERANCES, MAX_POINTS, GridSpec, admissible_grid


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def trivial_cfg(tmp_path):
    return _write(tmp_path, "trivial.json", {
        "family": {"family": "trivial", "n": 2,
                   "terms": [[1.0, [0, 0, 1.0]], [-1.0, [0, 0, 1.0]]]},
        "grid": {"nx": 5, "nz": 5},
    })


@pytest.fixture
def sigma_cfg(tmp_path):
    return _write(tmp_path, "sigma.json", {
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "checks": ["compat", "dependence", "wf", "eq5"],
        "probes": 100,
    })


@pytest.fixture
def sigma_full_cfg(tmp_path):
    return _write(tmp_path, "sigma_full.json", {
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "checks": ["compat", "dependence", "wf", "eq5", "reconstruct"],
        "probes": 100,
    })


def test_construct_trivial_grid(trivial_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["construct", "--config", trivial_cfg, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "fields.csv").open()))
    assert rows[0] == ["x", "z", "a0", "a1", "W", "f"]
    assert len(rows) - 1 == 25
    a0 = {float(r[2]) for r in rows[1:]}
    assert a0 == {4.0}


def test_construct_general_family_all_finite(tmp_path):
    cfg = _write(tmp_path, "gen.json", {
        "family": {"family": "m3_general", "g": -1.0},
        "grid": {"nx": 9, "nz": 9},
    })
    out = tmp_path / "outg"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "fields.csv").open()))
    vals = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.isfinite(vals))


def _fields_csv_by_row(config_path) -> bytes:
    """fields.csv as ``csv.writer`` writes it, one numpy scalar at a time."""
    config = RunConfig.load(config_path)
    bundle = config.bundle()
    x, z = admissible_grid(bundle, config.grid)
    fl = bundle.fields_fn(x, z, 2)
    names = [f"a{j}" for j in range(bundle.n)] + ["W", "f"]
    values = {name: np.asarray(fl[name].value) for name in names}
    complex_cols = any(
        np.iscomplexobj(v) and np.max(np.abs(v.imag)) > 1e-12 for v in values.values()
    )
    fmt = lambda v: f"{float(v):.17g}"
    header = ["x", "z"]
    for name in names:
        header.extend([f"{name}_re", f"{name}_im"] if complex_cols else [name])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(x.size):
        row = [fmt(x[i]), fmt(z[i])]
        for name in names:
            v = values[name].ravel()[i]
            row.extend([fmt(np.real(v)), fmt(np.imag(v))] if complex_cols else [fmt(np.real(v))])
        writer.writerow(row)
    return buf.getvalue().encode()


_COMPLEX_TRIVIAL = {"family": "trivial", "n": 2, "terms": [  # complex weights: _re/_im columns
    [1.0, [0, 0, [0.5, 0.2], [1.0, 0.3]]],
    [-1.0, [0, 0, 1.0, [0.0, -0.4]]],
]}


@pytest.mark.parametrize("family", [family_to_dict(canonical_config(t)) for t in FAMILY_TAGS]
                         + [_COMPLEX_TRIVIAL], ids=list(FAMILY_TAGS) + ["trivial_complex"])
def test_construct_fields_csv_bytes_equal_the_row_writer(family, tmp_path):
    # the row writer reads order-2 jets, construct order-1 ones: the values,
    # and so the bytes, must not depend on the jet order
    cfg = _write(tmp_path, "c.json", {"family": family, "grid": {"nx": 21, "nz": 21}})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "fields.csv").read_bytes()
    assert text == _fields_csv_by_row(cfg)
    if family is _COMPLEX_TRIVIAL:
        assert b"a0_re,a0_im" in text.split(b"\r\n")[0]


def _bits(v: float) -> int:
    return struct.unpack("<q", struct.pack("<d", v))[0]


# values whose text is easy to get wrong: signed zeros, NaNs with other sign
# and payload bits, infinities, subnormals
_CSV_SPECIAL = [0.0, -0.0, math.nan, -math.nan,
                struct.unpack("<d", struct.pack("<q", 0x7ff8000000000001))[0],
                math.inf, -math.inf, 5e-324, -1e-310, 0.1, 1.0]


@st.composite
def _csv_columns(draw):
    """Equal-length float columns: some repeated, some copied, some with exactly
    half or just over half as many distinct bit patterns as rows."""
    n = draw(st.integers(1, 24))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        if cols and draw(st.booleans()):
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())  # a duplicated column
            continue
        d = draw(st.sampled_from(sorted({1, max(1, n // 2), min(n, n // 2 + 1), n}))
                 | st.integers(1, n))
        pool = draw(st.lists(st.sampled_from(_CSV_SPECIAL) | st.floats(), min_size=d, max_size=d,
                             unique_by=_bits))
        rest = draw(st.lists(st.integers(0, d - 1), min_size=n - d, max_size=n - d))
        order = draw(st.permutations(range(n)))
        cols.append(np.array(pool + [pool[i] for i in rest])[list(order)])
    if len(cols) >= 2 and draw(st.booleans()):  # the strided halves of a complex column
        joined = np.empty(n, dtype=complex)
        joined.real, joined.imag = cols[-2], cols[-1]
        cols[-2:] = [joined.real, joined.imag]
    return cols


@given(cols=_csv_columns())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_csv_rows_equal_the_row_template(cols):
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"
    want = "".join(row % cells for cells in zip(*(col.tolist() for col in cols)))
    assert b"".join(_csv_blocks(cols)) == want.encode()


def _ulp_neighbours(x, steps=2):
    """``x`` and its ``steps`` nearest doubles on each side."""
    out = [x]
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, toward)
            out.append(y)
    return np.concatenate(out)


def _exact_decimal_sweep():
    """Doubles whose ``%.17g`` text is easy to get wrong, both signs."""
    rng = np.random.default_rng(14)
    mantissas = np.concatenate(([1.0, 1.5, 2 - 2.0**-52], 1 + rng.random(3)))
    binary = np.ldexp(mantissas[:, None], np.arange(-1074, 1024)).ravel()  # every exponent
    # 10^j and 2 ulps each side: the fast range's edges 1e-4 and 1e16, and the
    # doubles just under a power of ten, where floor(log10) is one too high
    tens = _ulp_neighbours(np.array([float(f"1e{j}") for j in range(-5, 18)]))
    # every power of ten: some doubles next to one round up to it ("1e-14")
    carries = _ulp_neighbours(np.array([float(f"1e{j}") for j in range(-323, 309)]), 1)
    ties = []  # m / 2^(k+1) * 10^k = m 5^k / 2 is halfway between integers for odd m
    for k in range(1, 21):
        lo, hi = (math.ceil(fractions.Fraction(10)**(e - k) * 2**(k + 1)) for e in (16, 17))
        m = 2 * rng.integers((lo + 1) // 2, min(hi, 2**53) // 2, 200) + 1  # odd, in [lo, hi)
        ties.append(m / 2.0**(k + 1))
    v = np.concatenate([binary, tens, carries, *ties])
    return np.concatenate([v, -v])


def test_csv_cells_equal_percent_17g_on_an_exact_decimal_sweep():
    v = _exact_decimal_sweep()
    got = b"".join(_csv_blocks([v])).split(b"\r\n")[:-1]
    want = [b"%.17g" % x for x in v.tolist()]
    wrong = [(x, g, w) for x, g, w in zip(v.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


@pytest.mark.parametrize("family", [family_to_dict(canonical_config("m3_general")),
                                    _COMPLEX_TRIVIAL], ids=["m3_general", "trivial_complex"])
def test_fields_csv_bytes_do_not_depend_on_the_block(family, tmp_path, monkeypatch):
    cfg = _write(tmp_path, "c.json", {"family": family, "grid": {"nx": 9, "nz": 7}})
    texts = []
    for block in (1, 7, cli._CSV_BLOCK):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        out = tmp_path / f"out{block}"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        texts.append((out / "fields.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2] == _fields_csv_by_row(cfg)


def test_construct_empty_domain_exits_3(tmp_path):
    cfg = _write(tmp_path, "empty.json", {
        "family": {"family": "m3_general", "g": -1.0},
        "grid": {"rect": [2.2, 2.4, 3.0, 4.0], "nx": 5, "nz": 5},
    })
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "oe")]) == 3


def test_equal_slopes_config_error(tmp_path):
    cfg = _write(tmp_path, "bad.json", {
        "family": {"family": "m3_sigma_const", "nu": [2, 2], "A": 1.0, "k": 1.0},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ob")]) == 2


def test_verify_full_suite_passes(sigma_full_cfg, tmp_path, capsys):
    out = tmp_path / "ov"
    assert main(["verify", "--config", sigma_full_cfg, "--out", str(out), "--seed", "42"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {"compat", "dependence", "wf", "wf_quadrature",
                                     "eq5", "reconstruct"}
    assert len(report["checks"]) == 6
    assert report["meta"]["seed"] == 42


def test_verify_mutation_hook_fails_compat_and_eq5(sigma_cfg, tmp_path):
    out = tmp_path / "om"
    assert main(["verify", "--config", sigma_cfg, "--out", str(out),
                 "--mutate", "theta=1.1"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["compat"]["passed"] is False
    assert report["checks"]["eq5"]["passed"] is False
    assert report["meta"]["mutations"] == {"theta": 1.1}


@pytest.mark.parametrize("family, mutate", [
    # f = theta(z) and W = sigma(x): independent, and f_x is 0 everywhere
    ({"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0}, ["l1=0", "l2=0"]),
    ({"family": "m3_hodograph_example"}, ["c2=0"]),
])
def test_compat_fails_where_the_top_link_keeps_no_point(family, mutate, tmp_path):
    cfg = _write(tmp_path, "c.json", {"family": family, "grid": {"nx": 21, "nz": 21},
                                      "checks": ["compat"]})
    out = tmp_path / "o"
    argv = ["verify", "--config", cfg, "--out", str(out)]
    for slot in mutate:
        argv += ["--mutate", slot]
    assert main(argv) == 1
    row = json.loads((out / "report.json").read_text())["checks"]["compat"]
    assert row["passed"] is False and row["max_abs"] == "inf"
    assert row["extra"]["top_link_points"] == 0 and "top link" in row["extra"]["error"]
    assert row["extra"]["link_top"] == "nan"


def test_construct_and_sweep_take_the_mutation_hook(sigma_cfg, tmp_path):
    # --mutate reaches every command, as the config's former mutate section did
    fields = []
    for argv in ([], ["--mutate", "theta=1.1"]):
        out = tmp_path / f"c{len(argv)}"
        assert main(["construct", "--config", sigma_cfg, "--out", str(out)] + argv) == 0
        fields.append((out / "fields.csv").read_bytes())
    assert fields[0] != fields[1]
    out = tmp_path / "sm"
    assert main(["sweep", "--config", sigma_cfg, "--param", "A", "--values", "0.5,2",
                 "--out", str(out), "--mutate", "theta=1.1"]) == 1
    rows = list(csv.reader((out / "sweep.csv").open()))
    assert [r[5] for r in rows[1:] if r[1] == "compat"] == ["false", "false"]


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_m3_general_with_positive_g_passes_and_its_mutations_fail(tmp_path, g):
    # g > 0 is the complex branch h = i*sqrt(g) of the closed forms and of the
    # cosh relation; the canonical g = -1 never reaches it
    family = {"family": "m3_general", "g": g}
    for n in (21, 81):
        cfg = _write(tmp_path, f"g{n}.json", {"family": family, "grid": {"nx": n, "nz": n}})
        out = tmp_path / f"o{n}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert list(checks) == ["compat", "dependence", "wf", "wf_quadrature", "eq10"]
        assert checks["compat"]["max_abs"] <= 1e-14 and checks["wf_quadrature"]["max_abs"] <= 1e-13
    if g != 1.0:
        return
    cfg = _write(tmp_path, "rec.json", {"family": family, "grid": {"nx": 21, "nz": 21},
                                        "checks": ["reconstruct"]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "rec")]) == 0
    cfg = _write(tmp_path, "g21.json", {"family": family, "grid": {"nx": 21, "nz": 21}})
    for slot in ("sigma", "theta", "c1", "c2"):
        out = tmp_path / f"m_{slot}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--mutate", f"{slot}=1.1"]) == 1
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert not all(c["passed"] for c in checks.values()), slot


def test_the_readme_example_config_verifies(tmp_path, capsys):
    # README.md's one JSON block, as written: the documented config cannot drift from the loader
    _, block = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```json\n")
    cfg = tmp_path / "readme.json"
    cfg.write_text(block.split("```")[0])
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_the_readme_names_no_private_identifier():
    # README is the user's overview: a private name's rules live in its docstring
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    # a name component led by one underscore (`_Row`, `families._BLOCK`), not a dunder
    # and not a subscript (`a^{k+1}_z`)
    private = [span for span in spans if re.search(r"(?<![\w}])_(?!_)\w", span)]
    assert private == []


def test_verify_single_check_subset(tmp_path):
    cfg = _write(tmp_path, "wfonly.json", {
        "family": {"family": "trivial", "n": 2,
                   "terms": [[1.0, [0, 0, 1.0]], [-1.0, [0, 0, 1.0]]]},
        "checks": ["wf"],
    })
    out = tmp_path / "ow"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["checks"]) == ["wf"]


def test_verify_byte_identical_reports(sigma_cfg, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["verify", "--config", sigma_cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", sigma_cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc"
    or any(v in os.environ for v in _MALLOC_VARS),
    reason="main pins glibc's malloc thresholds only on Linux glibc without MALLOC_*_ set")
def test_a_repeated_81x81_verify_faults_in_almost_no_pages(tmp_path):
    import resource  # Unix only

    cfg = _write(tmp_path, "general81.json", {
        "family": family_to_dict(canonical_config("m3_general")),
        "grid": {"nx": 81, "nz": 81},
    })
    argv = ["verify", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    # about 6k with glibc's dynamic thresholds, under 10 with both pinned
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_pinning_malloc_thresholds_changes_no_output(sigma_cfg, tmp_path, monkeypatch):
    def outputs():
        out = tmp_path / "out"
        assert main(["verify", "--config", sigma_cfg, "--out", str(out)]) == 0
        return (out / "report.json").read_bytes(), (out / "report.csv").read_bytes()

    first = outputs()
    _pin_malloc_thresholds()
    _pin_malloc_thresholds()
    assert outputs() == first

    def no_libc(name):
        raise AssertionError(f"libc opened: {name!r}")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")  # glibc's default wins
    _pin_malloc_thresholds()
    assert outputs() == first
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_")
    monkeypatch.setattr(sys, "platform", "win32")  # where ctypes.CDLL(None) raises TypeError
    _pin_malloc_thresholds()


def test_verify_tolerance_override(tmp_path):
    out = tmp_path / "ot"
    for compat, code in ((1e-3, 0), (-1, 2)):
        cfg = _write(tmp_path, "tol.json", {"family": _SIGMA, "tolerances": {"compat": compat}})
        assert main(["verify", "--config", cfg, "--out", str(out)]) == code
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["compat"]["tolerance"] == 1e-3
    cfg = _write(tmp_path, "tol.json", {"family": _SIGMA, "tolerances": {"nonsense": 1e-3}})
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2


@pytest.mark.parametrize("flag", ["--tol", "--mutate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_tol_or_mutate_flag_exits_2(sigma_cfg, tmp_path, capsys, flag, value):
    # an infinite mutation factor fills the fields with inf and nan; tolerances
    # are set in the config only, so argparse refuses --tol whatever its value
    name = "compat" if flag == "--tol" else "sigma"
    out = tmp_path / "onf"
    argv = ["verify", "--config", sigma_cfg, "--out", str(out), flag, f"{name}={value}"]
    if flag == "--tol":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err and "Traceback" not in err
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_amplitude(sigma_cfg, tmp_path):
    out = tmp_path / "os"
    assert main(["sweep", "--config", sigma_cfg, "--param", "A",
                 "--values", "0.5,1,2", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
    assert rows[0] == ["value", "check", "max_abs", "mean_abs", "tolerance", "passed"]
    assert len(rows) - 1 == 3 * 5  # three values x five check rows
    assert all(r[5] == "true" for r in rows[1:])


def test_sweep_curvature_parameter(tmp_path):
    cfg = _write(tmp_path, "gen.json", {"family": {"family": "m3_general", "g": -1.0}})
    out = tmp_path / "osg"
    assert main(["sweep", "--config", cfg, "--param", "g",
                 "--values=-0.5,-1,-2", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
    wf_rows = [r for r in rows[1:] if r[1] == "wf"]
    assert len(wf_rows) == 3 and all(r[5] == "true" for r in wf_rows)


def test_sweep_parameter_left_at_its_default(tmp_path):
    cfg = _write(tmp_path, "sigma_default.json",
                 {"family": {"family": "m3_sigma_const", "nu": [1, 2]}})
    out = tmp_path / "osd"
    assert main(["sweep", "--config", cfg, "--param", "A",
                 "--values", "0.5,2", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
    assert sorted({r[0] for r in rows[1:]}) == ["0.5", "2"]


def test_sweep_coarse_grid_quadrature_passes(tmp_path):
    cfg = _write(tmp_path, "sigma9.json", {
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "grid": {"nx": 9, "nz": 9},
    })
    out = tmp_path / "os9"
    assert main(["sweep", "--config", cfg, "--param", "A",
                 "--values", "0.5", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
    quad = [r for r in rows[1:] if r[1] == "wf_quadrature"]
    assert len(quad) == 1 and quad[0][5] == "true"


@pytest.mark.parametrize("param", ["Q", "family", "nu", "rect"])
def test_sweep_unknown_parameter_exits_2(sigma_cfg, tmp_path, capsys, param):
    # a field that is not a number (the tag, nu, rect) is no parameter to sweep
    assert main(["sweep", "--config", sigma_cfg, "--param", param,
                 "--values", "1", "--out", str(tmp_path / "oq")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert f"no numeric parameter {param!r}" in err and "['A', 'k', 'd1', 'd2']" in err
    assert not (tmp_path / "oq").exists()


def test_sweep_empty_values_exits_2(sigma_cfg, tmp_path):
    assert main(["sweep", "--config", sigma_cfg, "--param", "A",
                 "--values", "", "--out", str(tmp_path / "oz")]) == 2


@pytest.mark.parametrize("command, flags, named", [
    ("verify", ["--mutate", "sigma=1.1", "--mutate", "sigma=1.0"], "'sigma' more than once"),
    ("sweep", ["--param", "A", "--values", "1", "--mutate", "theta=1.1", "--mutate=theta=1.1"],
     "'theta' more than once"),
    ("sweep", ["--param", "A", "--values", "1,,2"], "--values"),
    ("sweep", ["--param", "A", "--values", "1,2,"], "--values"),
], ids=["mutate_slot_twice", "sweep_mutate_slot_twice", "values_empty_entry",
        "values_trailing_comma"])
def test_a_flag_entry_that_would_be_dropped_exits_2(sigma_cfg, tmp_path, capsys, monkeypatch,
                                                    command, flags, named):
    # the last factor of a slot named twice, or the values but an empty one, would run
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
    out = tmp_path / "o"
    assert main([command, "--config", sigma_cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: config file not found:")


@pytest.mark.parametrize("command", ["construct", "verify", "sweep"])
def test_a_directory_as_config_exits_2(tmp_path, capsys, command):
    argv = [command, "--config", str(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv + (["--param", "A", "--values", "1"] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {tmp_path}:")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


# a regular file as the output directory or as its parent: no write can succeed,
# whoever runs the suite (a permission bit would not stop root)
@pytest.mark.parametrize("below", [False, True], ids=["file", "file_parent"])
@pytest.mark.parametrize("command, extra", [("construct", []), ("verify", []),
                                            ("sweep", ["--param", "A", "--values", "1"])])
def test_an_unwritable_output_directory_exits_2(sigma_cfg, tmp_path, capsys, monkeypatch,
                                                command, extra, below):
    # refused before any work: no check runs and no grid is evaluated
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
    monkeypatch.setattr(cli, "admissible_grid", lambda *a: pytest.fail("a grid was evaluated"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    assert main([command, "--config", sigma_cfg, "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}") and err.count("\n") == 1
    assert blocker.read_text() == "keep"


def test_main_builds_one_parser_per_process(sigma_cfg, tmp_path, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["verify", "--config", sigma_cfg, "--out", str(out1), "--seed", "5"]) == 0
        for argv in (["verify"], ["bogus"], ["verify", "--config", sigma_cfg, "--seed", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: mongesol" in capsys.readouterr().err
        assert main(["verify", "--config", sigma_cfg, "--out", str(out2)]) == 0
        assert built == [1]
        # the reused parser keeps no flag of an earlier call
        seeds = [json.loads((o / "report.json").read_text())["meta"]["seed"] for o in (out1, out2)]
        assert seeds == [5, 0]
    finally:
        cli._parser.cache_clear()


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["verify", "--config", str(p)]) == 2
    # an integer literal longer than Python's int conversion limit (4300 digits)
    p.write_text('{"family": {"family": "m3_general"}, "probes": 1' + "0" * 5000 + "}")
    assert main(["construct", "--config", str(p)]) == 2


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


_SIGMA = {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0}


# the mutate, out and seed cases: those sections are gone, and refused whatever they hold
@pytest.mark.parametrize("section", [
    {"grid": {"nx": "abc"}},
    {"grid": {"m": 1}},
    {"probes": 0},
    {"family": {"family": "m3_sigma_const", "nu": [1], "A": 1.0, "k": 1.0}},
    {"checks": 5},
    {"tolerances": [1, 2]},
    {"tolerances": {"wf": "abc"}},
    {"mutate": "x"},
    {"mutate": {"theta": "big"}},
    {"out": 5},
    {"family": {"family": "m1_implicit", "F": ["a", 1]}},
    {"probes": float("inf")},
    {"grid": {"nx": float("inf")}},
    {"family": {"family": "mn_theta_const", "n": float("inf"), "nu": [1, 2]}},
    {"probes": MAX_POINTS + 1},
    {"grid": {"nx": 1025, "nz": 1025}},
    {"grid": {"nx": 9, "nz": 9, "fd_h": 1e-3}},
    {"grid": {"nx": 9, "nz": 9, "x_lo": 0.5}},
    {"tolerances": {"compat": math.nan}},
    {"tolerances": {"compat": math.inf}},
    {"mutate": {"sigma": math.inf}},
    {"mutate": {"theta": -math.inf}},
    {"mutate": {"theta": math.nan}},
    {"tolerances": {"wf": -1}},
    {"tolerances": {"bogus": 1e-3}},
    {"tolerances": {"compat": 10 ** 400}},
    {"mutate": {"sigma": 10 ** 400}},
    {"grid": {"rect": [0.5, 2.5, 2.0, 0.4]}},
    {"family": {**_SIGMA, "rect": [2.5, 0.5, 0.4, 2.0]}},
    {"grid": {"rect": [0.5, 0.5, 0.4, 2.0]}},
    {"grid": {"rect": [0.5, 2.5, math.nan, 2.0]}},
    {"family": {**_SIGMA, "k": 1000}},
    {"family": {**_SIGMA, "d2": 1000}},
    {"family": {"family": "mn_theta_const", "n": 60, "nu": [1, 2]}},
    {"family": {"family": "mn_theta_const", "n": 4, "nu": [1, 2], "k": 1000}},
    {"family": {"family": "m3_general_e0", "alpha1": 1e300}},
    {"probes": "12"},
    {"grid": {"nx": "9"}},
    {"family": {**_SIGMA, "A": "1.5"}},
    {"family": {**_SIGMA, "nu": [True, 2]}},
    {"grid": {"nx": 9.7}},
    {"probes": 2.5},
    {"seed": 1.5},
    {"family": {"family": "trivial", "n": 2.5, "terms": [[1.0, [0, 0, 1.0]], [-1.0, [0, 0, 1.0]]]}},
    {"seed": True},
    {"family": {"family": "m3_hodograph_example", "beta": math.inf}},
    {"grid": {"nx": 21, "nz": 21, "m": 9}},
    {"grid": {"nx": 21, "nz": 21, "m": 1000000}},
    {"grid": {"nx": 21, "nz": 21, "m": 2}},
    {"family": {**family_to_dict(canonical_config("m3_l1_const")), "dtilde_mode": "nu1_plus_nu2"}},
    {"family": {**family_to_dict(canonical_config("m3_general_e0")), "c": 2.0}},
    {"family": {"family": "trivial", "n": MAX_DEGREE + 1, "terms": [[1.0, [0, 0, 1.0]]]}},
    {"family": {"family": "trivial", "n": 1000000, "terms": [[1.0, [0, 0, 1.0]]]}},
    {"family": {"family": "mn_theta_const", "n": 1000000, "nu": [1, 2]}},
    {"checks": []},
    {"checks": ["eq5", "eq5", "compat", "compat"]},
    {"tolerances": False},
    {"tolerances": 0},
    {"tolerances": ""},
    {"tolerances": []},
], ids=["grid_nx_not_a_number", "grid_m_below_2", "probes_zero", "nu_single_value",
        "checks_not_a_list", "tolerances_not_an_object", "tolerance_not_a_number",
        "mutate_not_an_object", "mutate_factor_not_a_number", "out_not_a_path",
        "coefficient_not_a_number", "probes_infinite", "grid_nx_infinite",
        "family_degree_infinite", "probes_above_cap", "grid_above_cap",
        "grid_fd_h", "grid_x_lo", "tolerance_nan", "tolerance_infinite",
        "mutate_factor_infinite", "mutate_factor_minus_infinite", "mutate_factor_nan",
        "tolerance_negative", "tolerance_unknown_name", "tolerance_integer_overflow",
        "mutate_factor_integer_overflow", "rect_reversed", "family_rect_reversed",
        "rect_zero_width", "rect_nan", "family_k_overflows", "family_d2_overflows",
        "family_degree_overflows", "family_n_theta_k_overflows", "family_alpha1_overflows",
        "probes_a_string", "grid_nx_a_string", "family_A_a_string", "family_nu_a_bool",
        "grid_nx_fractional", "probes_fractional", "seed_fractional",
        "family_degree_fractional", "seed_a_bool", "family_beta_infinite",
        "grid_m_above_cap", "grid_m_a_million", "grid_m_2", "family_l1_dtilde_mode",
        "family_e0_c", "family_degree_above_cap",
        "family_degree_a_million", "family_n_theta_degree_a_million", "checks_empty",
        "checks_repeated", "tolerances_false", "tolerances_zero", "tolerances_empty_str",
        "tolerances_empty_list"])
def test_malformed_config_field_exits_2(tmp_path, capsys, section):
    cfg = _write(tmp_path, "bad.json", {"family": _SIGMA, **section})
    # construct reads no tolerance or check, but a config with a bad one is still refused
    for command in ("verify", "construct"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "ob")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "ob").exists()
    if "tolerances" in section:
        with pytest.raises(ConfigError):
            RunConfig.load(cfg)


@pytest.mark.parametrize("section, name", [
    ({"grid": {"nx": 9, "nz": 9, "m": 2}}, "m"),
    ({"grid": {"nx": 9, "nz": 9, "fd_h": 0.01}}, "fd_h"),
    ({"grid": {"rect": [0.5, 2.5, 0.4, 2.0], "x_lo": 0.5}}, "x_lo"),
    ({"family": {**family_to_dict(canonical_config("m3_l1_const")), "dtilde_mode": "nu2"}},
     "dtilde_mode"),
    ({"family": {**family_to_dict(canonical_config("m3_general_e0")), "c": 2.0}}, "c"),
    ({"seed": 42}, "seed"),
    ({"out": "reports"}, "out"),
    ({"mutate": {"theta": 1.1}}, "mutate"),
], ids=["grid_m", "grid_fd_h", "grid_x_lo", "l1_dtilde_mode", "e0_c", "seed", "out", "mutate"])
def test_removed_config_field_is_named_unknown(tmp_path, capsys, section, name):
    # the jet order, the finite-difference step, the rectangle's single keys,
    # the D~ reading and e0's c are no longer config fields; the seed, the
    # output directory and the mutations are flags only
    cfg = _write(tmp_path, "old.json", {"family": _SIGMA, **section})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and f"[{name!r}]" in err
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


def _canonical(tag, drop=(), **fields):
    family = family_to_dict(canonical_config(tag))
    for name in drop:
        del family[name]
    return {**family, **fields}


@pytest.mark.parametrize("config, flags, message", [
    ([], [], "config must be a JSON object with a 'family' section"),
    ({"family": _SIGMA, "grid": []}, [], "grid must be a JSON object"),
    ({"family": _SIGMA, "grid": {"rect": [1, 2, 3]}}, [], "rect must be [x_lo, x_hi, z_lo, z_hi]"),
    ({"family": _SIGMA, "grid": {"rect": 5}}, [],
     "grid: malformed field value (object of type 'int' has no len())"),
    ({"family": {**_SIGMA, "rect": [1, 2, 3]}}, [], "rect must be [x_lo, x_hi, z_lo, z_hi]"),
    ({"family": _canonical("m3_sigma_const", drop=("nu",))}, [],
     "family 'm3_sigma_const': missing required field 'nu'"),
    ({"family": _canonical("trivial", terms=[])}, [], "trivial family needs at least one term"),
    ({"family": _canonical("degenerate", C=[1.0])}, [], "degenerate family: C must be non-constant"),
    ({"family": _canonical("m3_general_e0", a=-1)}, [],
     "m3_general_e0 requires a > 0 on the real branch"),
    ({"family": _canonical("m3_general_e0", alpha1=-1)}, [],
     "m3_general_e0 requires positive alpha1, alpha2"),
    ({"family": _canonical("mn_theta_const", n=1)}, [], "mn_theta_const needs degree n >= 2"),
    ({"family": _canonical("mn_theta_const", c=0)}, [],
     "mn_theta_const needs nonzero mode amplitudes c, cbar"),
    ({"family": _canonical("mn_theta_const", k=0)}, [], "mn_theta_const requires nonzero E and k"),
    ({"family": _canonical("mn_theta_const", n=2, nu=[1, -1])}, [],
     "mn_theta_const: degenerate slope bracket (box_n vanishes)"),
    ({"family": _canonical("m3_sigma_const", A=-1)}, [],
     "m3_sigma_const real branch requires rho*A > 0"),
    ({"family": _canonical("m3_l1_const", D=0)}, [], "m3_l1_const requires nonzero D and k"),
    ({"family": _canonical("m3_l1_const", nu=[1, -1])}, [],
     "m3_l1_const: the combined constant D~ vanishes"),
    ({"family": _canonical("m3_theta_const", E=-1)}, [],
     "m3_theta_const real branch requires E*rho > 0"),
    ({"family": _SIGMA}, ["--mutate", "a0"], "--mutate expects name=factor, got 'a0'"),
    ({"family": _SIGMA}, ["--mutate", "a0=x"], "--mutate a0: 'x' is not a number"),
], ids=["config_a_list", "grid_a_list", "grid_rect_of_three", "grid_rect_a_number",
        "family_rect_of_three", "sigma_without_nu", "trivial_without_terms",
        "degenerate_constant_c", "e0_a_negative", "e0_alpha1_negative", "n_theta_degree_1",
        "n_theta_c_zero", "n_theta_k_zero", "n_theta_bracket_vanishes", "sigma_A_negative",
        "l1_D_zero", "l1_dtilde_vanishes", "theta_E_negative", "mutate_without_factor",
        "mutate_factor_not_a_number"])
def test_a_refused_input_prints_its_one_message_and_writes_nothing(tmp_path, capsys, config,
                                                                   flags, message):
    cfg = _write(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_report_path_that_is_a_directory_exits_2(sigma_cfg, tmp_path, capsys):
    report = tmp_path / "o" / "report.json"
    report.mkdir(parents=True)
    assert main(["verify", "--config", sigma_cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write {report}: "
                                       f"[Errno 21] Is a directory: '{report}'\n")
    assert list((tmp_path / "o").iterdir()) == [report] and not any(report.iterdir())


@pytest.mark.parametrize("tag, fields", [
    ("trivial", {"n": 3, "terms": [[1.0, [0, 0, 0, 1e308]]]}),
    ("m1_implicit", {"F": [0.0, 0.0, 0.0, 1e308]}),
    ("degenerate", {"C": [0.0, 0.0, 1e308]}),
])
def test_an_overflowing_polynomial_derivative_is_a_config_error(tmp_path, capsys, tag, fields):
    # a Python float product overflows to inf with no error; unchecked, the trivial
    # family's fields are constant inf, and compat and dependence pass on them
    cfg = _write(tmp_path, "c.json", _junk_family(tag, **fields))
    for command in ("construct", "verify"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not caught
        assert capsys.readouterr().err == (
            f"config error: family {tag!r}: a parameter overflows "
            "(a derivative coefficient of a polynomial is not finite)\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, checks, message", [
    ({"family": "mn_theta_const", "n": 5, "nu": [1, 2]},
     ["compat", "dependence", "eq5", "reconstruct"], "reconstruction supports degree n <= 4"),
    ({"family": "mn_theta_const", "n": 4, "nu": [1, 2]}, ["compat", "wf"], "no W-f relation"),
    (_SIGMA, ["compat", "dependence", "eq10"], "no variable-slope quadruple (eq10)"),
    ({"family": "m3_general", "g": -1.0}, ["dependence", "eq5"],
     "no constant-slope quadruple (eq5)"),
], ids=["reconstruct_n5", "wf_untagged", "eq10_constant_slope", "eq5_variable_slope"])
def test_an_unrunnable_check_is_refused_before_any_check_runs(tmp_path, capsys, monkeypatch,
                                                               family, checks, message):
    for name in ("check_compatibility", "check_dependence", "check_equation"):
        monkeypatch.setattr(verifier, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    cfg = _write(tmp_path, "c.json", {"family": family, "grid": {"nx": 9, "nz": 9},
                                      "checks": checks})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "o").exists()


def test_sweep_refuses_a_malformed_value_before_the_first_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
    cfg = _write(tmp_path, "n.json", {"family": {"family": "mn_theta_const", "n": 4,
                                                 "nu": [1, 2]}, "grid": {"nx": 9, "nz": 9}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "n", "--values", "4,3,2,4.5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: family 'mn_theta_const'")
    assert not out.exists()


def test_sweep_refuses_a_grid_above_the_cap_before_any_bundle(tmp_path, capsys, monkeypatch):
    # the run's grid is read and capped when the config loads, once for every value
    monkeypatch.setattr(cli, "make_family", lambda *a, **k: pytest.fail("a bundle was made"))
    cfg = _write(tmp_path, "big.json", {"family": _SIGMA, "grid": {"nx": 1025, "nz": 1025}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "A", "--values", "0.5,2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: the grid has 1025x1025 points, more than {MAX_POINTS}\n"
    assert not out.exists()


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_the_run_grid_is_the_family_rectangle_or_the_grid_rect(tmp_path, tag):
    family = family_to_dict(canonical_config(tag))
    loaded = RunConfig.load(_write(tmp_path, "c.json", {"family": family,
                                                        "grid": {"nx": 9, "nz": 7}}))
    assert loaded.grid == GridSpec.for_bundle(loaded.bundle(), 9, 7)
    assert RunConfig.load(_write(tmp_path, "d.json", {"family": family})).grid == \
        GridSpec.for_bundle(loaded.bundle())
    x_lo, x_hi, z_lo, z_hi = family["rect"]
    rect = [x_lo, (x_lo + x_hi) / 2, z_lo, (z_lo + z_hi) / 2]
    loaded = RunConfig.load(_write(tmp_path, "e.json", {"family": family,
                                                        "grid": {"rect": rect, "nx": 9}}))
    assert loaded.grid == GridSpec(*rect, nx=9, nz=21)


def test_sweep_makes_every_bundle_before_the_first_suite(tmp_path, capsys, monkeypatch):
    # k = 1000 passes family_from_dict; only make_family overflows on it
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
    cfg = _write(tmp_path, "k.json", {"family": family_to_dict(canonical_config("m3_sigma_const")),
                                      "grid": {"nx": 21, "nz": 21}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "k", "--values", "1,1.5,1000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: family 'm3_sigma_const': a parameter "
                                              "overflows")
    assert not out.exists()


@pytest.mark.parametrize("tag, field, value, commands", [
    ("m3_l1_const", "k", 1e20, ("construct", "verify")),
    ("m3_theta_const", "k", 1e20, ("construct", "verify")),
    ("m3_sigma_const", "k", -1e300, ("construct", "verify")),
    ("m3_sigma_const", "d2", -1e300, ("construct", "verify")),
    ("m1_implicit", "seed_lambda", 1e150, ("construct", "verify")),
    ("m3_sigma_const", "A", 1e300, ("verify",)),
    ("m3_l1_const", "D", 1e300, ("verify",)),
    ("m3_theta_const", "E", 1e300, ("verify",)),
    ("mn_theta_const", "E", 1e300, ("verify",)),
    ("m3_general", "g", -1e-300, ("verify",)),
])
def test_a_numpy_overflow_is_a_config_error(tmp_path, capsys, tag, field, value, commands):
    # these overflowed in numpy with RuntimeWarnings, then exited 3 (no admissible
    # point, no convergence) or 1 (inf or nan residuals)
    cfg = _write(tmp_path, "c.json", {"family": {**family_to_dict(canonical_config(tag)),
                                                 field: value}, "grid": {"nx": 9, "nz": 9}})
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("config error: a parameter overflows (") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_sweep_negative_values_as_separate_token(tmp_path):
    cfg = _write(tmp_path, "gen.json", {"family": {"family": "m3_general", "g": -1.0},
                                        "grid": {"nx": 9, "nz": 9}})
    out = tmp_path / "osn"
    assert main(["sweep", "--config", cfg, "--param", "g",
                 "--values", "-0.5,-1", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
    assert sorted({r[0] for r in rows[1:]}) == ["-0.5", "-1"]


def test_domain_error_report_is_strict_json(tmp_path):
    # sigma=-1 pushes the wf relation's log argument off its domain
    cfg = _write(tmp_path, "wf.json", {
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "checks": ["wf"],
        "grid": {"nx": 9, "nz": 9},
    })
    out = tmp_path / "od"
    assert main(["verify", "--config", cfg, "--out", str(out), "--mutate", "sigma=-1"]) == 1
    wf = _strict_json((out / "report.json").read_text())["checks"]["wf"]
    assert "error" in wf["extra"] and wf["passed"] is False
    assert wf["max_abs"] == wf["mean_abs"] == "inf" and float(wf["max_abs"]) == np.inf
    assert wf["argmax"] == ["nan", "nan"]


def test_reconstruct_quadrature_error_is_a_failed_check(tmp_path, capsys):
    # a1 scaled alone breaks integrability: the two quadrature paths disagree
    cfg = _write(tmp_path, "degen.json", {
        "family": {"family": "degenerate", "rect": [2.0, 4.0, 0.1, 0.6],
                   "C": [0.0, 0.0, 1.0], "G": [0.0, 1.0], "seed_a": 2.0},
        "checks": ["compat", "dependence", "reconstruct"],
        "grid": {"nx": 21, "nz": 21},
    })
    out = tmp_path / "oq"
    assert main(["verify", "--config", cfg, "--out", str(out), "--mutate", "a1=1.1"]) == 1
    assert capsys.readouterr().err == ""
    rec = _strict_json((out / "report.json").read_text())["checks"]["reconstruct"]
    assert rec["passed"] is False and rec["max_abs"] == "inf"
    assert rec["extra"]["error"].startswith("quadrature path inconsistency")
    assert (out / "report.csv").exists()


def test_a_verify_and_a_sweep_leave_numpy_random_unimported(tmp_path):
    # numpy 1.x imports numpy.random with numpy; numpy 2 loads it on first use
    cfg = _write(tmp_path, "s.json", {"family": family_to_dict(canonical_config("m3_sigma_const"))})
    verify = ["verify", "--config", cfg, "--out", str(tmp_path / "v")]
    sweep = ["sweep", "--config", cfg, "--param", "k", "--values", "1,1.5", "--out",
             str(tmp_path / "s")]
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            f"from mongesol.cli import main; codes = main({verify!r}), main({sweep!r}); "
            "print(codes, before, 'numpy.random' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert "eq5" in run.stdout  # the default checks probe
    codes, before, after = run.stdout.splitlines()[-1].rsplit(" ", 2)
    assert codes == "(0, 0)" and (before == "True" or after == "False")


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("route", ["config", "flag"])
def test_negative_seed_exits_2(tmp_path, capsys, command, route):
    # the seed is a flag only: a config that sets one is refused for that
    cfg = _write(tmp_path, "seed.json", {
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "grid": {"nx": 9, "nz": 9},
        **({"seed": -3} if route == "config" else {}),
    })
    argv = [command, "--config", cfg, "--out", str(tmp_path / "os")]
    if command == "sweep":
        argv += ["--param", "A", "--values", "1"]
    if route == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config sections: ['seed']" if route == "config"
                          else "config error: seed must be a nonnegative integer")
    assert not (tmp_path / "os").exists()


def test_admitted_points_are_not_checked_again(tmp_path, monkeypatch):
    # construct and reconstruct evaluate only points the safe-domain mask admitted
    calls = []
    require = SafeDomain.require
    monkeypatch.setattr(SafeDomain, "require",
                        lambda self, x, z: calls.append(np.size(x)) or require(self, x, z))
    cfg = _write(tmp_path, "m1.json", {
        "family": {"family": "m1_implicit", "F": [0.0, 0.0, 0.0, 1.0], "seed_lambda": 1.2},
        "grid": {"nx": 101, "nz": 41},  # spacing 0.01 on the rectangle [1, 2] x [0.1, 0.5]
        "checks": ["reconstruct"],
    })
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "oc")]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ov")]) == 0
    assert calls == []


_FUZZ_FAMILY = {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0}
# wrong types and non-finite numbers; finite ones stay small, because a probe
# count or grid size up to verifier.MAX_POINTS is accepted and would be allocated
_junk = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.floats(-3.0, 3.0),
                  st.sampled_from([math.inf, -math.inf, math.nan]),
                  st.lists(st.integers(-3, 3), max_size=2))
# non-finite numbers; "1e400" stands for the JSON literal 1e400, which reads as inf
_non_finite = st.sampled_from([math.inf, -math.inf, math.nan, "1e400"])
_SLOTS = ["sigma", "theta", "l1", "l2"]
# per field: values the loader accepts ...
_VALID = {
    "nx": st.integers(5, 9),
    "nz": st.integers(5, 9),
    "probes": st.integers(1, 30),
    "checks": st.lists(st.sampled_from(["compat", "dependence", "wf", "eq5", "reconstruct"]),
                       min_size=1, max_size=4, unique=True),
    "tolerances": st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)),
                                  st.floats(1e-12, 1.0), max_size=3),
}
# ... and out-of-range or mistyped ones (null or an empty value reads as unset in some sections)
_INVALID = {
    "nx": st.integers(-1, 4) | _junk,
    "nz": st.integers(-1, 4) | _junk,
    "m": st.integers(-1, 9) | _junk,  # grid.m is no field: every value is refused
    "probes": st.integers(-2, 0) | _junk,
    "checks": st.just(["eq10"]) | st.just(["bogus"]) | st.just([]) | st.just(["wf", "wf"]) | _junk,
    "tolerances": _junk | st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES) + ["bogus"]),
                                          st.floats(-1.0, 0.0) | _junk | _non_finite,
                                          min_size=1, max_size=2),
}
# sections that are flags now: every value is refused, a well-formed one too
_REMOVED = {
    "seed": st.integers(-5, 5) | _junk,
    "out": st.text(max_size=3) | _junk,
    "mutate": _junk | st.dictionaries(st.sampled_from(_SLOTS + ["bogus"]),
                                      st.floats(-2.0, 2.0) | _non_finite, min_size=1, max_size=2),
}
_INVALID.update(_REMOVED)
_GRID_KEYS = ("nx", "nz", "m")


@st.composite
def _fuzz_configs(draw):
    """A run config on at most 9x9 (nx and nz always set); half have one invalid field."""
    bad = None if draw(st.booleans()) else draw(st.sampled_from(list(_INVALID)))
    fields = {key: draw(_INVALID[key] if key == bad else _VALID[key])
              for key in _INVALID
              if key in ("nx", "nz", bad) or key in _VALID and draw(st.booleans())}
    config = {key: v for key, v in fields.items() if key not in _GRID_KEYS}
    config["grid"] = {key: v for key, v in fields.items() if key in _GRID_KEYS}
    config["family"] = _FUZZ_FAMILY
    return config


def _fuzz_json(config) -> str:
    return json.dumps(config).replace('"1e400"', "1e400")


def _must_exit_2(config) -> bool:
    """Whether the config has a removed section, or a non-finite tolerance."""
    tolerances = config.get("tolerances")
    return any(key in config for key in _REMOVED) or isinstance(tolerances, dict) and any(
        v == "1e400" or (isinstance(v, float) and not math.isfinite(v))
        for v in tolerances.values())


@given(config=_fuzz_configs())
@example(config={"family": _FUZZ_FAMILY, "grid": {"nx": 9, "nz": 9}, "seed": -3})
@example(config={"family": _FUZZ_FAMILY, "grid": {"nx": 9, "nz": 9},
                 "tolerances": {"compat": "1e400"}})
@example(config={"family": _FUZZ_FAMILY, "grid": {"nx": 9, "nz": 9}, "mutate": {"sigma": "1e400"}})
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fuzzed_config_keeps_the_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "fuzz.json"
        path.write_text(_fuzz_json(config))
        out = Path(tmp) / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if _must_exit_2(config):
            assert code == 2
        if code in (0, 1):
            report = _strict_json((out / "report.json").read_text())
            assert report["passed"] is (code == 0)


@given(config=_fuzz_configs())
@example(config={"family": _FUZZ_FAMILY, "grid": {"nx": 9, "nz": 9}, "mutate": {"theta": "1e400"}})
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fuzzed_construct_keeps_the_exit_contract(config):
    # construct writes no report, so it never exits 1; on exit 0, fields.csv
    # holds one row of numbers per admissible grid point
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "fuzz.json"
        path.write_text(_fuzz_json(config))
        out = Path(tmp) / "out"
        code = main(["construct", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if _must_exit_2(config):
            assert code == 2
        if code == 0:
            loaded = RunConfig.load(str(path))
            bundle = loaded.bundle()
            x, _ = admissible_grid(bundle, loaded.grid)
            rows = list(csv.reader((out / "fields.csv").open(newline="")))
            assert rows[0][:2] == ["x", "z"] and len(rows) == 1 + x.size
            assert all(len(r) == len(rows[0]) for r in rows[1:])
            cells = np.array([[float(v) for v in r] for r in rows[1:]])
            assert np.array_equal(cells[:, 0], x)


# junk for the numeric family fields: zero, large, overflowing, non-finite, mistyped
_FIELD_JUNK = st.sampled_from([0, 1e3, -1e3, 1e300, -1e300, math.inf, math.nan, True, "1", 2.5])
# the degree n stays small: with integer slopes a huge n is a big-int power, not an overflow
_DEGREE_JUNK = st.sampled_from([-1, 2.5, True, "3", 60])
_FLAG_NUMBERS = st.sampled_from(["1", "0", "-1e3", "1e300", "2.5", "3", "nan", "inf", "abc", ""])


def _numeric_fields(tag):
    return [f.name for f in dataclasses.fields(canonical_config(tag))
            if f.type in ("int", "float")]


def _pairs(names):
    """At most one ``NAME=NUMBER`` value of a repeatable flag, maybe malformed."""
    pair = st.tuples(st.sampled_from(names), _FLAG_NUMBERS).map("=".join)
    return st.lists(pair | st.sampled_from(["=1", "x=y=1"]), max_size=1)


@st.composite
def _fuzz_runs(draw):
    """A verify or sweep command line on a 9x9 grid of a family with a junk parameter."""
    tag = draw(st.sampled_from(FAMILY_TAGS))
    fields = _numeric_fields(tag)
    family = family_to_dict(canonical_config(tag))
    name = draw(st.sampled_from(fields))
    family[name] = draw(_DEGREE_JUNK if name == "n" else _FIELD_JUNK)
    slots = ["sigma", "theta", "l1", "l2", "a0", "a1", "c1", "c2", "bogus"]
    argv = ["--mutate=" + p for p in draw(_pairs(slots))]
    argv += ["--seed=" + s for s in draw(st.lists(st.sampled_from(["0", "7", "-1"]), max_size=1))]
    if draw(st.booleans()):
        values = ",".join(draw(st.lists(_FLAG_NUMBERS, min_size=1, max_size=3)))
        param = draw(st.sampled_from(fields + ["bogus"]))
        argv = ["sweep", "--param", param, "--values=" + values] + argv
    else:
        argv = ["verify"] + argv
    return {"family": family, "grid": {"nx": 9, "nz": 9}}, argv


def _junk_family(tag, **fields):
    return {"family": {**family_to_dict(canonical_config(tag)), **fields},
            "grid": {"nx": 9, "nz": 9}}


@given(run=_fuzz_runs())
@example(run=(_junk_family("m3_sigma_const", k=1e3), ["verify"]))
@example(run=(_junk_family("mn_theta_const", n=60), ["sweep", "--param", "E", "--values=1"]))
@example(run=(_junk_family("m3_general_e0", alpha1=1e300), ["verify"]))
@settings(max_examples=37, deadline=None, derandomize=True)
def test_fuzzed_family_and_flags_keep_the_exit_contract(run):
    # exit 0/1/2/3 and nothing raised out of main, whatever the parameters and
    # flags; a report (or sweep.csv) exactly on exit 0 or 1.  Floating-point
    # warnings of junk parameters are not what this checks, so numpy keeps quiet.
    config, argv = run
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code = main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
        assert code in (0, 1, 2, 3)
        written = out / ("sweep.csv" if argv[0] == "sweep" else "report.json")
        assert written.exists() is (code in (0, 1))
