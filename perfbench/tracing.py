"""Spans around mongesol's layer boundaries, recorded from outside the package.

``install`` replaces each traced name where it is looked up (the consuming
module's global, or the class attribute) with a wrapper that records a span:
name, start, end, parent span and job id.  Spans stay in memory until
``Tracer.dump``.  ``restore`` puts every original back; ``installed`` lists
the targets that still hold a wrapper, so an untraced run can prove it has
none.

Counts (calls, points, computed coefficient products, mode steps) depend
only on the job list, never on timing, so two traced runs with one seed
report identical counts.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

import mongesol.cli
import mongesol.families
import mongesol.functional_eq
import mongesol.hodograph
import mongesol.verifier
from mongesol.families import SafeDomain
from mongesol.functional_eq import SlopeBranch
from mongesol.jets import Jet2

MARK = "__perfbench_original__"

# span names whose innermost enclosing instance owns an admissible grid
_GRID_OWNERS = ("verifier.run_suite", "cli.cmd")


def _size(*arrays) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _points(first: int):
    """Amount function: broadcast size of the point arrays at ``args[first:first + 2]``."""
    return lambda *args, **kwargs: _size(*args[first:first + 2])


def _mul_elems(a, b) -> int:
    # scalar products the jet product performs, from array sizes alone (the
    # real loop skips all-zero coefficient planes, so this is an upper bound)
    m = a.m
    if isinstance(b, Jet2):
        return math.comb(m + 4, 4) * _size(a.c[0, 0], b.c[0, 0])
    return (m + 1) ** 2 * _size(a.c[0, 0], b)


def _steps(w_c_profile, k, c_range, steps) -> int:
    return int(steps)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # span: [name, job, parent, start, end, amount, outermost-of-its-name]
        self.spans: list[list] = []
        self.job: str | None = None
        self.admitted: dict[int, int] = {}  # grid-owner span -> admissible points
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn, amount=None):
        """``fn`` inside a span; ``amount(*args)`` gives its points or steps."""
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0,
                   amount(*args, **kwargs) if amount else 0, depth[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                depth[name] -= 1
                stack.pop()

        setattr(wrapper, MARK, fn)
        return wrapper

    def note_grid(self, size: int) -> None:
        for idx in reversed(self._stack):
            if self.spans[idx][0] in _GRID_OWNERS:
                self.admitted[idx] = size
                return

    def dump(self, path) -> None:
        keys = ("name", "job", "parent", "start", "end", "amount")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, summed amount, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "amount": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _, _, start, end, amount, outer) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["amount"] += amount
            row["self_s"] += end - start - child[i]
            if outer:  # a recursive span's time is already inside its outer one
                row["s"] += end - start
        return dict(out)


def _targets():
    """(owner, attribute, span name, amount) for every traced lookup site."""
    cli, ver = mongesol.cli, mongesol.verifier
    fam, feq, hod = mongesol.families, mongesol.functional_eq, mongesol.hodograph
    return [
        (cli, "cmd_construct", "cli.cmd", None),
        (cli, "cmd_verify", "cli.cmd", None),
        (cli, "cmd_sweep", "cli.cmd", None),
        (cli, "make_family", "families.make_family", None),
        (cli, "run_suite", "verifier.run_suite", None),
        (cli, "admissible_grid", "verifier.admissible_grid", None),
        (ver, "admissible_grid", "verifier.admissible_grid", None),
        (ver, "check_compatibility", "verifier.compat", None),
        (ver, "check_dependence", "verifier.dependence", None),
        (ver, "check_wf_relation", "verifier.wf", None),
        (ver, "check_equation", "verifier.eq", None),
        (ver, "reconstruct_u", "verifier.reconstruct", None),
        (ver, "four_function_residual", "functional_eq.residual", None),
        (ver, "variable_slope_residual", "functional_eq.residual", None),
        (SlopeBranch, "resolve", "functional_eq.resolve", None),
        (feq, "solve_implicit", "hodograph.solve_implicit", _points(1)),
        (fam, "solve_implicit", "hodograph.solve_implicit", _points(1)),
        (fam, "implicit_jet", "hodograph.implicit_jet", None),
        (fam, "compose_series", "jets.compose_series", None),
        (hod, "compose_series", "jets.compose_series", None),
        (hod, "schrodinger_solve", "hodograph.schrodinger_solve", _steps),
        (hod, "assemble_r_integral", "hodograph.assemble_r_integral", None),
        (SafeDomain, "mask", "families.mask", _points(1)),
        (SafeDomain, "require", "families.require", None),
        (Jet2, "__mul__", "jets.mul", _mul_elems),
        (Jet2, "__rmul__", "jets.mul", _mul_elems),
        (Jet2, "recip", "jets.recip", None),
    ]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def installed() -> list[str]:
    """Traced lookup sites that currently hold a wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in _targets() if hasattr(_current(owner, attr), MARK)]


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the patches ``restore`` undoes."""
    patches = []
    for owner, attr, name, amount in _targets():
        original = _current(owner, attr)
        if name == "families.make_family":
            new = _wrap_make_family(tracer, original)
        elif name == "verifier.admissible_grid":
            new = _wrap_admissible_grid(tracer, original)
        else:
            new = tracer.wrap(name, original, amount)
        patches.append((owner, attr, original))
        setattr(owner, attr, new)
    return patches


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def _wrap_make_family(tracer: Tracer, original):
    timed = tracer.wrap("families.make_family", original)

    @functools.wraps(original)
    def make_family(*args, **kwargs):
        bundle = timed(*args, **kwargs)
        bundle.fields_fn = tracer.wrap("families.fields_fn", bundle.fields_fn, _points(0))
        if bundle.derivative_forms is not None:
            bundle.derivative_forms = tracer.wrap("families.derivative_forms",
                                                  bundle.derivative_forms, _points(0))
        bundle.w_of_f = tracer.wrap("families.w_of_f", bundle.w_of_f)
        return bundle

    setattr(make_family, MARK, original)
    return make_family


def _wrap_admissible_grid(tracer: Tracer, original):
    timed = tracer.wrap("verifier.admissible_grid", original)

    @functools.wraps(original)
    def admissible_grid(*args, **kwargs):
        x, z = timed(*args, **kwargs)
        tracer.note_grid(int(x.size))
        return x, z

    setattr(admissible_grid, MARK, original)
    return admissible_grid
