"""In-process CPU time per layer of the Monte-Carlo path.

Usage::

    python tools/mc_layers.py <repo> [--repeats N]

imports ``dofsim`` from ``<repo>/src`` and wraps the layer functions in
``LAYERS`` from outside: each module attribute is swapped for a timing
wrapper while the cases run, as perfbench's tracer does, so no code under
``src/`` changes and two trees are measured by the same script.  The cases
are ``estimate_dof`` on each of ``CONFIGS`` (six with alpha > 0 and two
at alpha = 0) at 40/50/60 dB with 100 trials and with a full
block of 4096, and ``measure_error_exponent`` at 30/40/50 dB
with 500 draws.

For each case it prints the CPU ms of a whole call as its median and
quartiles over the timed calls and, per layer, the median CPU ms spent in
the layer itself (its self time: nested layers are not counted twice;
``_link_powers`` calls ``_directions`` and ``_step_rates`` calls
``_link_powers``), with its share of the median call.  For the
``estimate_dof`` cases of a full block it also prints, from one more call
that is not timed, the tracemalloc bytes that the draw
(``channel._sample_cells``) leaves allocated and the walk's
(``linkmc._step_rates``) peak, each above what was allocated when it
started.  An ``estimate_dof`` call builds its descriptor first, as the
``simulate`` command does, so the ``build`` layer
(``schemes.build_descriptor``) is part of it.  ``Layers`` also counts each layer's calls, so a test can
check that every layer is still entered.
CPU time is the process's (``time.process_time_ns``), so other load on
the machine shows less than in wall time, but a shared machine still
spreads the figures: compare two trees side by side.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import process_time_ns

#: (label, module attribute) of each layer, in the order they run.
LAYERS = (
    ("build", "schemes.build_descriptor"),
    ("sampler", "channel._trial_normals"),
    ("pairs", "channel._pairs_from_normals"),
    ("directions", "linkmc._directions"),
    ("link_powers", "linkmc._link_powers"),
    ("step_rates", "linkmc._step_rates"),
    ("slopes", "linkmc._slopes"),
)
# Spelled out rather than read from dofsim, so every tree runs the same calls.
CONFIGS = (
    ("fdma", 0.8, 0.5, "unmatched"),
    ("zfbf", 1.0, 1.0, "unmatched"),
    ("zfbf", 0.8, 0.5, "unmatched"),
    ("s3", 1.0, 0.5, "unmatched"),
    ("optimal-unmatched", 0.8, 0.5, "unmatched"),
    ("matched-optimal", 0.8, 0.5, "matched"),
    # alpha = 0: the alpha cells' estimates have zero variance and are scaled by 0.
    ("fdma", 0.8, 0.0, "unmatched"),
    ("matched-optimal", 0.8, 0.0, "matched"),
)
LADDER_DB = (40.0, 50.0, 60.0)
TRIALS = (100, 4096)
EXPONENT_LADDER_DB = (30.0, 40.0, 50.0)
EXPONENTS = (0.0, 0.5, 1.0)
DRAWS = 500


class Layers:
    """Self CPU time and call count of each layer while installed, reset by ``take``."""

    def __init__(self):
        self.self_ns, self.calls = [0] * len(LAYERS), [0] * len(LAYERS)
        self._stack = []  # [layer, start, ns spent in nested layers]
        self._saved = []

    def __enter__(self) -> "Layers":
        for i, (_, target) in enumerate(LAYERS):
            module, attr = target.split(".")
            owner = importlib.import_module(f"dofsim.{module}")
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, i))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, i):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [i, process_time_ns(), 0]
            self._stack.append(frame)
            self.calls[i] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                spent = process_time_ns() - frame[1]
                self._stack.pop()
                self.self_ns[i] += spent - frame[2]
                if self._stack:
                    self._stack[-1][2] += spent
        return timed

    def take(self):
        """(self ns, calls) per layer since the last take."""
        out = self.self_ns, self.calls
        self.self_ns, self.calls = [0] * len(LAYERS), [0] * len(LAYERS)
        return out


def measure(call, repeats):
    """CPU ns of each of ``repeats`` timed calls, and each call's (self ns,
    calls) per layer, after one warm-up call that is not timed."""
    call()  # warm caches
    totals, parts = [], []
    with Layers() as layers:
        for _ in range(repeats):
            start = process_time_ns()
            call()
            totals.append(process_time_ns() - start)
            parts.append(layers.take())
    return totals, parts


def _memory(call) -> tuple[int, int]:
    """The most tracemalloc bytes a ``channel._sample_cells`` call left
    allocated, and the largest peak of a ``linkmc._step_rates`` call, during
    call(), each above what was allocated when that call started."""
    from dofsim import channel, linkmc

    held, peaks = [], []

    def traced(fn, reading, out):
        """fn, appending tracemalloc's reading ``reading`` (0 current, 1 peak)
        after each call, less the bytes allocated before it, to out."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append(tracemalloc.get_traced_memory()[reading] - start)
        return wrapper

    draw, walk = channel._sample_cells, linkmc._step_rates
    channel._sample_cells = traced(draw, 0, held)
    linkmc._step_rates = traced(walk, 1, peaks)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        channel._sample_cells, linkmc._step_rates = draw, walk
    return max(held), max(peaks)


def _build_and_estimate(scheme, q, scenario, trials):
    from dofsim import linkmc, schemes

    d = schemes.build_descriptor(scheme, q, scenario)
    return linkmc.estimate_dof(d, q, scenario, LADDER_DB, trials, 0)


def _cases():
    """(label, call, its estimate_dof trial count or None) of each case."""
    from dofsim import channel

    ladder = tuple(channel.db_to_linear(v) for v in EXPONENT_LADDER_DB)
    for trials in TRIALS:
        for scheme, beta, alpha, kind in CONFIGS:
            q, scenario = channel.QualityPair(beta, alpha), channel.Scenario(kind)
            yield (f"estimate_dof {scheme}({beta},{alpha}) x{trials}",
                   functools.partial(_build_and_estimate, scheme, q, scenario, trials), trials)
    for a in EXPONENTS:
        yield (f"measure_error_exponent a={a} x{DRAWS}",
               functools.partial(channel.measure_error_exponent, a, ladder, DRAWS, 0), None)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", type=Path)
    parser.add_argument("--repeats", type=int, default=15, help="timed calls per case")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")
    sys.path.insert(0, str(args.repo / "src"))
    from dofsim import channel

    if not Path(channel.__file__).resolve().is_relative_to(args.repo.resolve()):
        raise SystemExit(f"imported dofsim from {channel.__file__}, not from {args.repo}")
    names = [name for name, _ in LAYERS]
    print(f"{'case':<46} {'call [q1, q3]':>26} "
          + " ".join(f"{n:>17}" for n in names) + f" {'draw held B':>12} {'walk peak B':>12}")
    for label, call, trials in _cases():
        totals, parts = measure(call, args.repeats)
        q1, total, q3 = (v / 1e6 for v in statistics.quantiles(totals, n=4, method="inclusive"))
        cols = []
        for i in range(len(LAYERS)):
            ms = statistics.median(ns[i] for ns, _ in parts) / 1e6
            cols.append(f"{ms:8.3f} ({100 * ms / total:4.1f}%)")
        memory = _memory(call) if trials == channel.TRIAL_BLOCK else ("", "")
        print(f"{label:<46} {total:8.3f} [{q1:7.3f}, {q3:7.3f}] "
              + " ".join(f"{c:>17}" for c in cols) + "".join(f" {b:>12}" for b in memory))


if __name__ == "__main__":
    main()
