"""Batch front end: construct families, verify them, sweep parameters.

Configs are JSON, outputs are CSV/JSON with 17-significant-digit numbers so
runs diff cleanly; probe sampling is seeded, so identical config plus seed
gives byte-identical reports.  Exit codes: 0 all checks pass, 1 a check
failed (report still written), 2 configuration error (an unreadable
config and an output that cannot be written included), 3 safe-domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, MongesolError
from .families import _rect, family_from_dict, family_to_dict, make_family
from .verifier import (
    GridSpec,
    ResidualReport,
    _fmt,
    _seed,
    admissible_grid,
    default_checks,
    run_suite,
    validate_checks,
    validate_probes,
    validate_tolerances,
)

__all__ = ["main", "RunConfig", "cmd_construct", "cmd_verify", "cmd_sweep"]


@dataclasses.dataclass
class RunConfig:
    family_dict: dict
    grid: GridSpec
    checks: list | None = None
    tolerances: dict = dataclasses.field(default_factory=dict)
    probes: int = 100

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:  # a directory, no read permission, ...
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except ValueError as exc:  # also an integer literal over Python's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict) or "family" not in raw:
            raise ConfigError("config must be a JSON object with a 'family' section")
        known = {"family", "grid", "checks", "tolerances", "probes"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        family = family_from_dict(raw["family"])  # malformed families fail here, not mid-run
        probes = validate_probes(raw.get("probes", 100))
        checks = raw.get("checks")
        if checks is not None:
            validate_checks(checks)
        tolerances = validate_tolerances(raw.get("tolerances"))
        return cls(
            family_dict=raw["family"],
            grid=_parse_grid({} if raw.get("grid") is None else raw["grid"], family.rect),
            checks=checks,
            tolerances=tolerances,
            probes=probes,
        )

    def bundle(self, mutations: dict | None = None, overrides: dict | None = None):
        """The family's bundle, its derivative functions scaled by ``mutations``
        and ``overrides`` replacing family parameters."""
        cfg = family_from_dict({**self.family_dict, **(overrides or {})})
        return make_family(cfg, mutations=mutations)


def _parse_grid(raw, rect) -> GridSpec:
    """The run's grid: the section's ``nx``, ``nz`` and ``rect``, else the family's
    ``rect`` (a sweep sets numeric parameters only, so each of its bundles has that one)."""
    if not isinstance(raw, dict):
        raise ConfigError("grid must be a JSON object")
    unknown = set(raw) - {"nx", "nz", "rect"}
    if unknown:
        raise ConfigError(f"unknown grid fields: {sorted(unknown)}")
    try:
        rect = _rect(raw.get("rect", rect))  # as a family's rect is read
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"grid: malformed field value ({exc})") from None
    return GridSpec(*rect, **{key: raw[key] for key in ("nx", "nz") if key in raw})


@contextlib.contextmanager
def _output(path: Path, mode: str = "w", newline: str | None = None):
    """``path`` opened for writing, its directory made first.  An ``OSError`` of
    either step or of the writes is a ``ConfigError`` that names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open(mode, newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_report(report: ResidualReport, out_dir: Path):
    with _output(out_dir / "report.json") as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=False,
                            allow_nan=False) + "\n")
    with _output(out_dir / "report.csv", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())


# cells per block of fields.csv text: bounded temporaries.  In an in-process pass of
# construct + verify of the ten canonical families at 81x81 (x86-64, glibc 2.36), the
# first job, construct of trivial, raises ru_maxrss by 4.3-4.4 MB at 2^14 cells,
# 2.3-2.4 MB at 2^13 and 1.3-1.4 MB at 2^12.  From 2^13 down no construct sets the
# pass's high-water mark, 4.5-4.7 MB above the imports (5.1 MB at 2^14), and the text
# of the ten tables took 75.7-97.5 ms at 2^13, 80.6-99.6 ms at 2^14 and 79.9-101.2 ms
# at 2^12 (medians of 31 interleaved repetitions, two runs)
_CSV_BLOCK = 1 << 13
_CELL = 26  # bytes per cell: at most 24 of '%.17g' text, then ',' or '\r\n'
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # 10^0..10^22, all exact
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_TEXT_COL = np.arange(23, dtype=np.int8)[:, None]  # sign, then 22 of digits and point
_DIGIT_RANK = np.arange(1, 18, dtype=np.int8)[:, None]


def _significand(a, X):
    """round(a * 10**(16 - X)) as int64, exact while it is at least 2**53.

    Dekker's error-free product gives a * 10**k as p + e exactly (10**k is
    an exact double for k <= 22).  Past 2**53 p is an even integer, so
    p + rint(e) rounds to nearest with ties to even, as ``%.17g`` does.
    """
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    k = 16 - X
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * _POW10.take(k)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _cell_text(v, last):
    """The ``%.17g`` text of the cells ``v``, each ended by ``,`` or (``last``) ``\\r\\n``.

    A finite |v| in [1e-4, 1e16) is written in fixed notation from its
    17-digit significand D = round(|v| * 10**(16 - X)) in [1e16, 1e17),
    X its decimal exponent; see ``_significand``.  X starts at
    floor(log10|v|) and steps by one while D is out of range, which also
    covers a carry to 1e17.  (log10 is one off only just below a power of
    ten, and no double in this range lies within 8e-17, relative, below a
    power of ten, so a wrong X never puts D in range.)  Zeros take this route
    with D = 0.  The text is built plane by plane, one row per output byte
    column with NUL for a dropped byte, and compacted by deleting the NULs.
    Every other cell (tiny, huge, nan, inf) is formatted by ``'%.17g' %``.
    """
    n = v.size
    m = np.abs(v)
    fast = (m >= 1e-4) & (m < 1e16)
    a = np.where(fast, m, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    D = _significand(a, X)
    step = (D >= 10**17).astype(np.int64) - (D < 10**16)
    while step.any():
        i = np.flatnonzero(step)
        X[i] += step[i]
        D[i] = _significand(a[i], X[i])
        step[i] = (D[i] >= 10**17).astype(np.int64) - (D[i] < 10**16)
    D[~fast], X[~fast] = 0, 0
    # T holds "0000" and the 17 digits as ASCII in its rows 2..22
    hi = D // 10**8
    q = np.empty((2, n), np.uint32)  # the top 9 and the low 8 digits
    q[0], q[1] = hi, D - hi * 10**8
    T = np.zeros((24, n), np.uint8)
    for r in range(8):  # digits 8 - r and 16 - r, in rows 14 - r and 22 - r
        q10 = q // 10
        np.subtract(q, q10 * 10, out=T[14 - r:23 - r:8], casting="unsafe")
        q = q10
    T[6] = q[0]
    last_digit = ((T[6:23] != 0) * _DIGIT_RANK).max(axis=0) - 1  # -1 for D = 0
    T[2:6] = 48
    T[6:23] += 48
    # text column c holds T[c + 1] before the point at column X + 6, T[c] after it
    X = X.astype(np.int8)
    point = X + 6
    ch = T[1:24] - T[0:23]
    ch *= _TEXT_COL < point
    ch += T[0:23]
    ch += (_TEXT_COL == point) * (46 - ch)  # uint8 arithmetic wraps back to 46
    first = np.minimum(X + 5, 5)  # "0.000" leads at X = -4, the first digit at X >= 0
    end = np.where(last_digit > X, last_digit + 6, X + 5)  # no trailing zeros or bare point
    out = np.zeros((_CELL, n), np.uint8)
    np.multiply(ch, (_TEXT_COL >= first) & (_TEXT_COL <= end), out=out[:23])
    out[0] = np.signbit(v) * np.uint8(45)
    out[24] = 44 - 31 * last.view(np.uint8)
    out[25] = 10 * last.view(np.uint8)
    slow = np.flatnonzero(~fast & (v != 0))
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        out[:24, slow] = text.view(np.uint8).reshape(-1, 24).T
    out = out[out.any(axis=1)]  # planes that are NUL in every cell add only work
    return out.T.tobytes().translate(None, b"\0")


def _csv_blocks(cols):
    """The CSV rows of equal-length float columns as bytes, ``_CSV_BLOCK`` cells at a time.

    The bytes are those of ``'%.17g'`` cells joined by ``,`` with ``\\r\\n``
    row ends, which is what ``csv.writer`` writes for these values.
    """
    ncols = len(cols)
    total = ncols * len(cols[0])
    for i0 in range(0, total, _CSV_BLOCK):
        i1 = min(total, i0 + _CSV_BLOCK)
        r0, r1 = i0 // ncols, -(-i1 // ncols)
        rows = np.empty((r1 - r0, ncols))
        for j, col in enumerate(cols):
            rows[:, j] = col[r0:r1]
        cell = np.arange(i0, i1)
        yield _cell_text(rows.ravel()[i0 - r0 * ncols:i1 - r0 * ncols],
                         cell % ncols == ncols - 1)


def cmd_construct(config: RunConfig, out_dir: Path, mutations: dict) -> int:
    """Evaluate the family's fields on the admissible grid into fields.csv."""
    bundle = config.bundle(mutations)
    x, z = admissible_grid(bundle, config.grid)
    fl = bundle.fields_fn(x, z, 0)  # order 0: values only; the points are admitted already
    names = [f"a{j}" for j in range(bundle.n)] + ["W", "f"]
    values = {name: np.asarray(fl[name].value) for name in names}
    complex_cols = any(
        np.iscomplexobj(v) and np.max(np.abs(v.imag)) > 1e-12 for v in values.values()
    )
    header = ["x", "z"]
    for name in names:
        header.extend([f"{name}_re", f"{name}_im"] if complex_cols else [name])
    cols = [x, z]
    for name in names:
        v = values[name].ravel()
        cols.extend([v.real, v.imag] if complex_cols else [v.real])
    with _output(out_dir / "fields.csv", "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(_csv_blocks(cols))
    print(f"wrote {x.size} rows to {out_dir / 'fields.csv'}")
    return 0


def _run_checks(config: RunConfig, bundle, seed: int) -> ResidualReport:
    """The report of the configured checks (the family's defaults if none) of
    ``bundle``, a bundle of ``config``'s family, on ``config``'s grid."""
    checks = config.checks if config.checks is not None else default_checks(bundle)
    return run_suite(bundle, config.grid, checks, tolerances=config.tolerances,
                     seed=seed, probes=config.probes)


def cmd_verify(config: RunConfig, out_dir: Path, seed: int, mutations: dict) -> int:
    """Run the configured checks; report always written, exit 0 iff all pass."""
    report = _run_checks(config, config.bundle(mutations), seed)
    _write_report(report, out_dir)
    for name, res in report.checks.items():
        status = "pass" if res.passed else "FAIL"
        print(f"{name:16s} {status}  max_abs={res.max_abs:.3e}  tol={res.tolerance:.3e}")
    print(f"report: {out_dir / 'report.json'}")
    return 0 if report.passed else 1


def cmd_sweep(config: RunConfig, param: str, values: list[float], out_dir: Path,
              seed: int, mutations: dict) -> int:
    """Re-verify the family for each value of one numeric parameter."""
    if not values:
        raise ConfigError("sweep needs a nonempty values list")
    base = config.family_dict
    numeric = [name for name, v in family_to_dict(family_from_dict(base)).items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if param not in numeric:
        raise ConfigError(f"family {base.get('family')!r} has no numeric parameter {param!r} "
                          f"to sweep; its numeric parameters are {numeric}")
    # every bundle before the first suite: a value any builder step refuses fails first
    bundles = [config.bundle(mutations, {param: v}) for v in values]
    rows = [["value", "check", "max_abs", "mean_abs", "tolerance", "passed"]]
    all_pass = True
    for v, bundle in zip(values, bundles):
        report = _run_checks(config, bundle, seed)
        for name, res in report.checks.items():
            rows.append([_fmt(v), name, _fmt(res.max_abs), _fmt(res.mean_abs),
                         _fmt(res.tolerance), str(res.passed).lower()])
            all_pass &= res.passed
    with _output(out_dir / "sweep.csv", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {len(rows) - 1} rows to {out_dir / 'sweep.csv'}")
    return 0 if all_pass else 1


def _parse_mutations(pairs) -> dict:
    """The ``NAME=FACTOR`` values of the repeatable ``--mutate`` flag."""
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--mutate expects name=factor, got {item!r}")
        name, _, val = item.partition("=")
        if name in out:
            raise ConfigError(f"--mutate must name each slot once, got {name!r} more than once")
        try:
            out[name] = float(val)
        except ValueError:
            raise ConfigError(f"--mutate {name}: {val!r} is not a number")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mongesol",
        description="Construct and verify explicit solution families of the "
                    "degree-n Monge equation.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("construct", "evaluate fields on the safe grid into fields.csv"),
        ("verify", "run the verification suite and write report.json/csv"),
        ("sweep", "verify across a list of values of one family parameter"),
    ):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=0, help="probe-sampling seed (default: 0)")
        sp.add_argument("--mutate", action="append", metavar="NAME=FACTOR",
                        help="scale one derivative function (sensitivity hook), repeatable")
        if name == "sweep":
            sp.add_argument("--param", required=True, help="family parameter to sweep")
            sp.add_argument("--values", required=True,
                            help="comma-separated list of parameter values")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first :func:`main` call."""
    return build_parser()


def _rejoin_values(argv: list[str]) -> list[str]:
    """``--values TOK`` as ``--values=TOK``, so argparse keeps ``-0.5,-1`` as a value."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        nxt = next(tokens, None) if tok == "--values" else None
        out.append(tok if nxt is None else f"--values={nxt}")
    return out


MMAP_THRESHOLD = 32 << 20  # glibc's M_MMAP_THRESHOLD, at its 64-bit maximum
TRIM_THRESHOLD = 64 << 20  # glibc's M_TRIM_THRESHOLD


def _pin_malloc_thresholds() -> None:
    """Keep freed multi-MB temporaries in the heap instead of unmapping them.

    glibc's dynamic mmap threshold unmaps each one and faults it in again.
    One in-process construct + verify pass of the ten canonical families at
    81x81, the first in its process, took 79.7k minor faults and 0.22-0.25 s
    of system time that way, and 690 faults and under 0.04 s with both
    thresholds pinned (glibc 2.36, Python 3.11, numpy 2.4.6, 2-core x86-64).
    No-op off Linux, without ``mallopt``, or when glibc's own variable is
    set, which then takes precedence.  Only :func:`main` calls it, so
    importing the library leaves the allocator alone; no output byte
    depends on it.
    """
    if not sys.platform.startswith("linux") or any(
            v in os.environ for v in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = _parser().parse_args(_rejoin_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        # a numpy overflow raises FloatingPointError, reported as a config error below
        with np.errstate(over="raise"):
            config = RunConfig.load(args.config)
            seed = _seed(args.seed)
            mutations = _parse_mutations(args.mutate)
            out_dir = Path(args.out)
            # before any work, and making nothing: no write below a regular file can succeed
            existing = next((p for p in (out_dir, *out_dir.parents) if os.path.exists(p)), out_dir)
            if not os.path.isdir(existing):
                raise ConfigError(f"cannot write {out_dir}: {existing} is not a directory")
            if args.command == "construct":
                return cmd_construct(config, out_dir, mutations)
            if args.command == "verify":
                return cmd_verify(config, out_dir, seed, mutations)
            try:  # sweep, the one command left
                values = [float(v) for v in args.values.split(",")]
            except ValueError:
                raise ConfigError(f"--values must be comma-separated numbers: {args.values!r}")
            return cmd_sweep(config, args.param, values, out_dir, seed, mutations)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:  # a parameter too large for floats
        print(f"config error: a parameter overflows ({exc})", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MongesolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
