"""Strategy-switching sweeps, ratio certificates and map serialization.

The array sweep is checked against the per-cell loop it replaced: one
``QualityPair`` and one scalar scoring per cell, rows written with
``csv.writer``.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from dofsim import cli
from dofsim import switcher as sw
from dofsim.model import MATCHED, UNMATCHED, QualityPair, Scenario
from dofsim.schemes import analytic_sum_dof


def _oracle_cell(beta, alpha, scenario):
    q = QualityPair(max(beta, alpha), min(beta, alpha))
    d_fdma = float(analytic_sum_dof("fdma", q, scenario))
    d_zfbf = float(analytic_sum_dof("zfbf", q, scenario))
    candidates = [("fdma", d_fdma), ("zfbf", d_zfbf)]
    d_s3 = None
    if scenario.kind == "unmatched":
        d_s3 = float(analytic_sum_dof("s3", q, scenario))
        candidates.append(("s3", d_s3))
    d_opt = float(analytic_sum_dof("optimal", q, scenario))
    best_name, best_value = candidates[0]
    for name, value in candidates[1:]:
        if value > best_value + 1e-12:
            best_name, best_value = name, value
    return sw.SweepCell(beta=beta, alpha=alpha, d_fdma=d_fdma, d_zfbf=d_zfbf, d_s3=d_s3,
                        d_opt=d_opt, best=best_name, ratio=best_value / d_opt)


@functools.lru_cache(maxsize=None)
def _oracle_cells(kind, step):
    n = round(1.0 / step)
    grid = [i / n for i in range(n + 1)]
    scenario = Scenario(kind)
    return tuple(_oracle_cell(b, a, scenario) for b in grid for a in grid)


def _coords(m):
    """Each cell's (beta, alpha), row-major over the map's grid axis."""
    beta, alpha = np.meshgrid(m.grid, m.grid, indexing="ij")
    return beta.ravel(), alpha.ravel()


def _cells(m, column):
    """A score column at every cell, row-major: its entries read through ``mirror``."""
    return np.broadcast_to(column, m.ratio.shape)[m.mirror]


def _assert_columns_match_the_oracle(m, kind, step):
    cells = _oracle_cells(kind, step)
    beta, alpha = _coords(m)
    assert list(zip(beta.tolist(), alpha.tolist())) == [(c.beta, c.alpha) for c in cells]
    for name in ("d_fdma", "d_zfbf", "d_opt", "ratio"):
        assert _cells(m, getattr(m, name)).tolist() == [getattr(c, name) for c in cells], name
    d_s3 = None if m.d_s3 is None else _cells(m, m.d_s3).tolist()
    assert d_s3 == (None if kind == "matched" else [c.d_s3 for c in cells])
    assert [sw.STRATEGIES[k] for k in _cells(m, m.best).tolist()] == [c.best for c in cells]


def _csv_columns(text):
    header, *rows = csv.reader(io.StringIO(text))
    assert header == sw.CSV_HEADER
    return dict(zip(header, zip(*rows)))


def _oracle_counts(cells, rho):
    counts = {}
    for c in cells:
        label = sw.OPTIMAL_NEEDED if c.ratio < rho - 1e-12 else c.best
        counts[label] = counts.get(label, 0) + 1
    return counts


def _oracle_outputs(kind, step, rho):
    """(csv text, json text, stderr line) of the per-cell sweep."""
    cells = _oracle_cells(kind, step)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sw.CSV_HEADER)
    for c in cells:
        writer.writerow([
            repr(c.beta), repr(c.alpha), repr(c.d_fdma), repr(c.d_zfbf),
            "" if c.d_s3 is None else repr(c.d_s3), repr(c.d_opt), c.best, repr(c.ratio),
        ])
    m = min(c.ratio for c in cells)
    counts = _oracle_counts(cells, rho)
    summary = {
        "scenario": kind, "step": step, "rho": rho, "min_ratio": m,
        "argmin": [[c.beta, c.alpha] for c in cells if c.ratio <= m + 1e-9],
        "counts_by_strategy": counts,
    }
    doc = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    return buf.getvalue(), doc, f"min ratio {m:.4f}; {tally}\n"


def _run_sweep(kind, step, rho, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--scenario", kind, "--step", repr(step),
                         "--rho", repr(rho), "--format", fmt])
    assert code == 0
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("step", [0.1, 0.05, 0.01, 0.005])
@pytest.mark.parametrize("rho", [0.9, 0.8, 1.0, 0.66])
def test_sweep_cli_bytes_match_the_per_cell_oracle(kind, step, rho):
    want_csv, want_json, want_err = _oracle_outputs(kind, step, rho)
    assert _run_sweep(kind, step, rho, "csv") == (want_csv, want_err)
    assert _run_sweep(kind, step, rho, "json") == (want_json, want_err)


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("n", [63, 64])
def test_sweep_csv_bytes_match_the_per_cell_oracle_across_a_block_boundary(kind, n):
    # 64**2 cells fill exactly one CSV block; 65**2 leave 129 rows for a second.
    assert (n + 1) ** 2 - sw._CSV_BLOCK == {63: 0, 64: 129}[n]
    want_csv, _, want_err = _oracle_outputs(kind, 1 / n, 0.9)
    assert _run_sweep(kind, 1 / n, 0.9, "csv") == (want_csv, want_err)


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("rho", [0.9, 0.66, 1.0])
@pytest.mark.parametrize("step", [0.05, 1 / 64])
def test_counts_are_keyed_in_order_of_first_appearance(kind, rho, step):
    # An off-diagonal entry counts for two cells, a diagonal one for one, and a
    # label first appears at the earlier of an entry's two cells.
    m = sw.sweep(Scenario(kind), step=step, rho=rho)
    want = _oracle_counts(_oracle_cells(kind, step), rho)
    assert list(m.counts_by_strategy().items()) == list(want.items())


def test_a_label_first_appears_at_the_earlier_of_its_entrys_cells():
    # The model's maps order their labels alike whichever cell of an entry
    # counts as first, so these labels are set by hand: zfbf at entry (10, 0),
    # first met at cell (0, 10), and s3 at entry (3, 1), first met at (1, 3).
    m = sw.sweep(UNMATCHED, step=0.1, rho=0.66)
    best = np.zeros_like(m.best)
    best[10 * 11 // 2 + 0], best[3 * 4 // 2 + 1] = 1, 2
    counts = dataclasses.replace(m, best=best).counts_by_strategy()
    assert list(counts.items()) == [("fdma", 117), ("zfbf", 2), ("s3", 2)]


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("step", [0.1, 0.01])
def test_sweep_cells_and_counts_match_the_per_cell_oracle(kind, step):
    m = sw.sweep(Scenario(kind), step=step, rho=0.9)
    _assert_columns_match_the_oracle(m, kind, step)
    assert all(type(v) is float for v in (m.argmin()[0][0], m.min_ratio()))
    assert m.counts_by_strategy() == _oracle_counts(_oracle_cells(kind, step), 0.9)


@pytest.mark.parametrize("q, scenario, want", [
    # Values of the scalar scoring on exact inputs; a float-only path gives
    # d_opt 1.6666666666666665 and ratio 0.8 at (2/3, 2/3).
    ((Fraction(2, 3), Fraction(2, 3)), UNMATCHED,
     (1.0, 1.3333333333333333, 1.3333333333333333, 1.6666666666666667, "zfbf",
      0.7999999999999999)),
    ((Fraction(1, 3), Fraction(1, 10)), MATCHED,
     (1.0, 0.43333333333333335, None, 1.2166666666666666, "fdma", 0.8219178082191781)),
    ((Fraction(1, 3), Fraction(1, 10)), UNMATCHED,
     (1.0, 0.43333333333333335, 1.1666666666666667, 1.2166666666666666, "s3",
      0.9589041095890413)),
])
def test_best_strategy_is_exact_on_fractions(q, scenario, want):
    cell = sw.best_strategy(QualityPair(*q), scenario)
    assert (cell.d_fdma, cell.d_zfbf, cell.d_s3, cell.d_opt, cell.best, cell.ratio) == want
    assert all(type(v) is float for v in (cell.beta, cell.d_opt, cell.ratio))


def test_best_strategy_perfect_csit():
    cell = sw.best_strategy(QualityPair(1.0, 1.0), UNMATCHED)
    assert cell.best == "zfbf"
    assert cell.d_zfbf == 2.0 and cell.d_opt == 2.0
    assert cell.ratio == pytest.approx(1.0)


def test_best_strategy_zero_quality_tie_goes_to_fdma():
    # fdma and s3 tie at sum DoF 1; the fixed order picks fdma.
    cell = sw.best_strategy(QualityPair(0.0, 0.0), UNMATCHED)
    assert (cell.d_fdma, cell.d_zfbf, cell.d_s3) == (1.0, 0.0, 1.0)
    assert cell.best == "fdma"
    assert cell.ratio == pytest.approx(1.0)


def test_best_strategy_matched_has_no_s3():
    cell = sw.best_strategy(QualityPair(0.5, 0.5), MATCHED)
    assert cell.d_s3 is None
    assert cell.best == "fdma"  # fdma and zfbf tie at 1
    assert cell.ratio == pytest.approx(1.0 / 1.5)


def test_best_strategy_worst_case_unmatched():
    cell = sw.best_strategy(QualityPair(2 / 3, 2 / 3), UNMATCHED)
    assert cell.ratio == pytest.approx(0.8, abs=1e-12)


def test_min_ratio_unmatched_certificate():
    m = sw.sweep(UNMATCHED, step=0.005, rho=1.0)
    value, argmin = m.min_ratio(), m.argmin()
    assert value == pytest.approx(0.8, abs=1e-3)
    assert value >= 0.8 - 1e-9, "the 80% guarantee must hold on the grid"
    assert argmin == [(0.665, 0.665)]  # the grid point closest to (2/3, 2/3)


def test_min_ratio_matched_certificate():
    m = sw.sweep(MATCHED, step=0.005, rho=1.0)
    value, argmin = m.min_ratio(), m.argmin()
    assert value == pytest.approx(2 / 3, abs=1e-3)
    assert value >= 2 / 3 - 1e-9
    assert len(argmin) == 201
    assert all(abs(b + a - 1.0) <= 1e-9 for b, a in argmin)


def _argmin_by_gather(m):
    """``SweepMap.argmin`` as a gather of the near entries over all n*n cells."""
    near = m.ratio <= m.min_ratio() + 1e-9
    row, col = np.divmod(np.flatnonzero(near[m.mirror]), len(m.grid))
    return list(zip(m.grid[row].tolist(), m.grid[col].tolist()))


@pytest.mark.parametrize("scenario", [UNMATCHED, MATCHED])
@pytest.mark.parametrize("step", [0.1, 0.05, 0.02, 0.01, 0.005])
def test_argmin_equals_the_gather_over_every_cell(scenario, step):
    m = sw.sweep(scenario, step=step, rho=1.0)
    assert m.argmin() == _argmin_by_gather(m)
    # Ties at random entries, on the diagonal and off it.
    ratio = np.random.default_rng(round(1 / step)).choice([0.5, 0.7], size=m.ratio.shape)
    tied = dataclasses.replace(m, ratio=ratio)
    assert len(tied.argmin()) > len(m.grid)
    assert tied.argmin() == _argmin_by_gather(tied)


def test_sweep_cell_count_and_coverage():
    m = sw.sweep(UNMATCHED, step=0.1, rho=0.9)
    assert m.grid.tolist() == [i / 10 for i in range(11)]
    assert m.mirror.shape == (11 * 11,) and m.mirror.dtype == np.int32
    assert all(column.shape == (11 * 12 // 2,) for column in (m.d_zfbf, m.d_s3, m.d_opt,
                                                                m.best, m.ratio))
    assert m.d_fdma.shape == ()  # one sum DoF on the whole grid


def test_sweep_mirror_symmetry():
    # Cells (i, j) and (j, i) read one entry, entry h(h+1)/2 + l for h >= l,
    # and every entry is read.
    m = sw.sweep(UNMATCHED, step=0.1, rho=0.9)
    square = m.mirror.reshape(11, 11)
    assert np.array_equal(square, square.T)
    h, l = np.tril_indices(11)
    assert square[h, l].tolist() == (h * (h + 1) // 2 + l).tolist() == list(range(66))


def test_sweep_fdma_floor_and_ratio_cap():
    for scenario in (UNMATCHED, MATCHED):
        m = sw.sweep(scenario, step=0.05, rho=0.9)
        assert np.all(m.d_fdma == 1.0)
        assert np.all(m.ratio <= 1.0 + 1e-12)


def test_sweep_s3_constant_along_beta_rows():
    m = sw.sweep(UNMATCHED, step=0.05, rho=0.9)
    square = _cells(m, m.d_s3).reshape(len(m.grid), len(m.grid))
    # Row i at beta = grid[i]; its canonical half (the rest is mirrored) is alpha <= beta.
    assert all(len(set(row[:i + 1].tolist())) == 1 for i, row in enumerate(square))


def test_sweep_zfbf_wins_exactly_when_it_should():
    m = sw.sweep(UNMATCHED, step=0.05, rho=0.9)
    for b, a, best in zip(*_coords(m), _cells(m, m.best).tolist()):
        if a > b:
            continue
        s = b + a
        threshold = max(1.0, 1.0 + b / 2)
        if s > threshold + 1e-9:
            assert sw.STRATEGIES[best] == "zfbf", (b, a)
        elif s < threshold - 1e-9:
            assert sw.STRATEGIES[best] != "zfbf", (b, a)


def test_sweep_label_threshold():
    # A cell below rho is labelled as needing the optimal scheme, any other
    # cell with its winning simple strategy; the counts follow those labels.
    m = sw.sweep(UNMATCHED, step=0.05, rho=0.9)
    want = {}
    for ratio, best in zip(_cells(m, m.ratio).tolist(), _cells(m, m.best).tolist()):
        label = sw.OPTIMAL_NEEDED if ratio < 0.9 - 1e-12 else sw.STRATEGIES[best]
        want[label] = want.get(label, 0) + 1
    assert sw.OPTIMAL_NEEDED in want
    assert list(m.counts_by_strategy().items()) == list(want.items())


def test_sweep_counts_at_both_thresholds():
    m_low = sw.sweep(UNMATCHED, step=0.01, rho=0.8)
    assert m_low.counts_by_strategy().get(sw.OPTIMAL_NEEDED, 0) == 0
    m_high = sw.sweep(UNMATCHED, step=0.01, rho=0.9)
    counts = m_high.counts_by_strategy()
    needed = counts.get(sw.OPTIMAL_NEEDED, 0)
    assert 0 < needed
    assert 0.3 <= needed / len(m_high.mirror) <= 0.6
    assert sum(counts.values()) == len(m_high.mirror)


def test_matched_two_thirds_threshold_never_needs_optimal():
    m = sw.sweep(MATCHED, step=0.01, rho=2 / 3)
    assert m.counts_by_strategy().get(sw.OPTIMAL_NEEDED, 0) == 0


def test_sweep_memory_at_the_finest_grid():
    import tracemalloc

    sw.sweep(UNMATCHED, step=0.1)  # warm caches
    tracemalloc.start()
    try:
        m = sw.sweep(UNMATCHED, step=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1001 * 1002 / 2 entries: 29.1 MB measured (x86-64, numpy 2.4); a map
    # that scores every one of the 1001**2 cells measured 66.1 MB.
    assert peak < 30.8e6, peak
    assert len(m.ratio) == 1001 * 1002 // 2 and len(m.mirror) == 1001 ** 2


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("kind, bound", [("unmatched", 17.8e6), ("matched", 14.6e6)])
def test_sweep_csv_writer_memory(kind, bound):
    import tracemalloc

    m = sw.sweep(Scenario(kind), step=0.002)
    sw.write_sweep_csv(sw.sweep(Scenario(kind), step=0.1), _Discard())  # warm caches
    tracemalloc.start()
    try:
        sw.write_sweep_csv(m, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 501**2 rows: 13.9 MB unmatched and 6.2 MB matched measured (x86-64,
    # numpy 2.4); the bounds are the peaks of a writer that formatted every
    # cell's scores from full-grid columns.
    assert peak < bound, peak


def test_sweep_validation():
    with pytest.raises(ValueError):
        sw.sweep(UNMATCHED, step=0.0)
    with pytest.raises(ValueError):
        sw.sweep(UNMATCHED, step=0.3)
    with pytest.raises(ValueError):
        sw.sweep(UNMATCHED, step=0.013)  # does not divide 1
    with pytest.raises(ValueError):
        sw.sweep(UNMATCHED, step=0.1, rho=0.0)
    with pytest.raises(ValueError):
        sw.sweep(UNMATCHED, step=0.1, rho=1.2)


def test_csv_roundtrip_lossless():
    m = sw.sweep(UNMATCHED, step=0.1, rho=0.9)
    buf = io.StringIO()
    sw.write_sweep_csv(m, buf)
    text = buf.getvalue()
    assert text.startswith(",".join(sw.CSV_HEADER) + "\n")
    columns = _csv_columns(text)
    beta, alpha = _coords(m)
    for name, want in (("beta", beta), ("alpha", alpha), ("d_fdma", _cells(m, m.d_fdma)),
                       ("d_zfbf", _cells(m, m.d_zfbf)), ("d_s3", _cells(m, m.d_s3)),
                       ("d_opt", _cells(m, m.d_opt)), ("ratio", _cells(m, m.ratio))):
        assert [float(v) for v in columns[name]] == want.tolist(), name
    assert list(columns["best"]) == [sw.STRATEGIES[k] for k in _cells(m, m.best).tolist()]


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("step", [0.1, 1 / 64, 0.005])
def test_csv_coordinates_are_the_grid_axis_row_major(kind, step):
    m = sw.sweep(Scenario(kind), step=step, rho=0.9)
    buf = io.StringIO()
    sw.write_sweep_csv(m, buf)
    columns = _csv_columns(buf.getvalue())
    n = len(m.grid)
    assert [float(v) for v in columns["beta"]] == np.repeat(m.grid, n).tolist()
    assert [float(v) for v in columns["alpha"]] == np.tile(m.grid, n).tolist()


@pytest.mark.parametrize("kind", ["unmatched", "matched"])
@pytest.mark.parametrize("value", [1.0, 0.1, -0.0])
def test_a_column_of_one_value_writes_as_any_other(kind, value):
    # A column of one value rides on the field before it: here d_zfbf, held
    # to one value over the entries, with a varying d_fdma before it.
    m = sw.sweep(Scenario(kind), step=0.1, rho=0.9)
    held = dataclasses.replace(m, d_fdma=m.d_opt, d_zfbf=np.full(m.ratio.shape, value))
    buf = io.StringIO()
    sw.write_sweep_csv(held, buf)
    columns = _csv_columns(buf.getvalue())
    assert [float(v) for v in columns["d_fdma"]] == _cells(m, m.d_opt).tolist()
    assert columns["d_zfbf"] == (repr(value),) * 121
    assert columns["d_s3"] == (("",) * 121 if m.d_s3 is None
                               else tuple(map(repr, _cells(m, m.d_s3).tolist())))


def test_csv_matched_leaves_s3_blank():
    m = sw.sweep(MATCHED, step=0.1, rho=0.9)
    buf = io.StringIO()
    sw.write_sweep_csv(m, buf)
    rows = buf.getvalue().strip().split("\n")[1:]
    assert all(row.split(",")[4] == "" for row in rows)
    assert _csv_columns(buf.getvalue())["d_s3"] == ("",) * 121


def test_summary_json_fields():
    import json

    m = sw.sweep(MATCHED, step=0.1, rho=0.7)
    buf = io.StringIO()
    sw.write_summary_json(m, buf)
    doc = json.loads(buf.getvalue())
    assert doc["scenario"] == "matched"
    assert doc["step"] == 0.1 and doc["rho"] == 0.7
    assert doc["min_ratio"] == pytest.approx(2 / 3)
    assert all(len(pair) == 2 for pair in doc["argmin"])
    assert sum(doc["counts_by_strategy"].values()) == len(m.mirror)
