"""The CSV number kernel ``e16._e16`` against ``'%.16e' % x``, its oracle.

The kernel must spell every double as ``'%.16e' % x`` does, byte for byte.
Elements its fast path cannot settle go to ``'%.16e' % x`` itself; the
last test checks that on the headline run almost none do, so that these
comparisons test the fast path and not the fallback.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfhx import Grid, Params, Scenario, cli, e16, run_scenario
from pfhx.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def kernel_text(values) -> str:
    records = e16._e16(np.array(values, dtype=float))
    return "\n".join(record.tobytes().replace(b"\0", b"").decode() for record in records)


def oracle_text(values) -> str:
    return "\n".join("%.16e" % float(v) for v in values)


def fallbacks(values, monkeypatch) -> int:
    """How many of ``values`` the kernel formats by ``%``."""
    count = []
    real = e16._e16_chunk
    monkeypatch.setattr(e16, "_e16_chunk", lambda *args: count.append(real(*args)) or count[-1])
    kernel_text(values)
    return sum(count)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert kernel_text(values) == oracle_text(values)


def test_random_bit_patterns_across_chunks():
    values = np.random.default_rng(7).integers(0, 2**64, 3 * e16._CHUNK_VALUES + 5,
                                               dtype=np.uint64).view(float)
    assert kernel_text(values) == oracle_text(values)


def test_every_power_of_ten_within_four_ulps():
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [power, -power]
        for direction in (0.0, math.inf):
            x = power
            for _ in range(4):
                x = math.nextafter(x, direction)
                values += [x, -x]
    assert kernel_text(values) == oracle_text(values)


def test_ties_take_the_fallback_and_round_half_even(monkeypatch):
    ties = [1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25), 1.0 + 2.0**-17, 0.5 + 2.0**-18]
    assert kernel_text(ties) == oracle_text(ties)
    assert kernel_text(ties[:2]) == "1.0000000000000002e+15\n1.0000000000000008e+15"
    assert fallbacks(ties, monkeypatch) == len(ties)


def test_signed_zeros_subnormals_non_finite_and_wide_exponents(monkeypatch):
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              math.inf, -math.inf, math.nan, -math.nan, 1e-280, 9.999999999999999e-281, 1e300,
              1.0000000000000001e300, 1.7976931348623157e308, 1.5e-200, -7.25e123, 1e100, 3e-100,
              1e-99, 9.99999999999999e99]
    assert kernel_text(values) == oracle_text(values)
    # zero and the bounds of [1e-280, 1e300] are the fast path's; the rest are not
    assert fallbacks([0.0, -0.0, 1e-280, 1e300, 1.5e-200, 1e100], monkeypatch) == 0


def test_chunk_seams(monkeypatch):
    rng = np.random.default_rng(11)
    size = 2 * e16._CHUNK_VALUES + 3
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    for seam in (e16._CHUNK_VALUES, 2 * e16._CHUNK_VALUES):
        values[seam - 1:seam + 2] = [math.nan, -0.0, 5e-324]
    assert kernel_text(values) == oracle_text(values)


@pytest.mark.parametrize("chunk", [1, 3, 7, 100])
def test_writers_cut_rows_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    # the writers' pieces end at whole rows, whatever the chunk, and join up
    # to what one piece gives; a chunk below one row still writes whole rows
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    scenario = Scenario(params=params, n_cells=6, T=3.0, snapshot_stride=0.3,
                        theta0=("step(0.5, 1.0, 0.0)", "sine(1, 1)"))
    result = run_scenario(scenario)
    grid = Grid(6, 1.0)
    whole = {}
    for name, write in (("norms.csv", lambda p: cli._write_norms(p, result)),
                        ("snapshots.csv", lambda p: cli._write_snapshots(p, result, grid))):
        write(tmp_path / name)
        whole[name] = (tmp_path / name).read_bytes()
    monkeypatch.setattr(e16, "_CHUNK_VALUES", chunk)
    cli._write_norms(tmp_path / "norms.csv", result)
    cli._write_snapshots(tmp_path / "snapshots.csv", result, grid)
    for name, data in whole.items():
        assert (tmp_path / name).read_bytes() == data
    traj = result.trajectory
    assert whole["snapshots.csv"].count(b"\n") == 1 + len(traj.snapshot_t) * 7
    assert whole["norms.csv"].count(b"\n") == 1 + len(traj.t)


def test_power_table_is_correctly_rounded():
    powers = e16._e16_tables()[0]
    assert len(powers) == e16._SLOW + 1 == e16._P[1] - e16._P[0] + 2
    hi, hi_hi, hi_lo, lo = powers[:e16._SLOW].T
    for p, h, l in zip(range(e16._P[0], e16._P[1] + 1), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** (16 - p)
        assert h == float(exact) and l == float(exact - Fraction(h)), p
    assert np.array_equal(hi_hi + hi_lo, hi)
    assert not np.any(np.asarray(hi_hi).view(np.uint64) & np.uint64(2**27 - 1))


def test_exponent_table_holds_the_least_double_at_or_above_each_power():
    least = e16._e16_tables()[1]
    assert len(least) == e16._P[1] - e16._P[0] + 1
    for p, bound in zip(range(e16._P[0], e16._P[1] + 1), least.tolist()):
        exact = Fraction(10) ** p
        assert Fraction(bound) >= exact > Fraction(math.nextafter(bound, 0.0)), p


def test_binade_table_starts_each_binade_at_its_least_exponent():
    # e = (bits + 2^52 - 1) >> 52 holds |x| in (2^(e - 1024), 2^(e - 1023)], and 0 holds zero
    _, least, start, bound = e16._e16_tables()[:4]
    assert len(start) == len(bound) == 2049
    assert start[0] == -e16._P[0] and bound[0] == least[1 - e16._P[0]]
    low, high = Fraction(1e-280), Fraction(1e300)
    for e, (row, limit) in enumerate(zip(start.tolist()[1:], bound.tolist()[1:]), 1):
        q = e - 1024
        if not (Fraction(2) ** (q + 1) >= low and Fraction(2) ** q < high):
            assert row == e16._SLOW and math.isnan(limit), e
            continue
        p = row + e16._P[0]  # floor(log10 2^q), from exact arithmetic
        assert Fraction(10) ** p <= Fraction(2) ** q < Fraction(10) ** (p + 1), e
        assert limit == least[row + 1], e


def exact_tie(v: float) -> bool:
    """Whether |v| 10^(16 - p), p = floor(log10 |v|), is an odd multiple of one half."""
    f = Fraction(abs(v))
    p = math.floor(math.log10(abs(v)))
    p += (Fraction(10) ** (p + 1) <= f) - (Fraction(10) ** p > f)
    return (f * Fraction(10) ** (16 - p)).denominator == 2


def test_binade_index_spells_zero_and_settles_every_binade_edge(monkeypatch):
    # each power of two and of ten in range and the doubles on either side of it;
    # only the exact ties among them (such as 2^-25 = 2.98023223876953125e-8) fall back
    values = [0.0, -0.0]
    for q in range(-931, 997):
        for x in (math.ldexp(1.0, q), float(f"1e{q // 3}")):
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    values = [v for v in values if 1e-280 <= v <= 1e300 or v == 0.0]
    values += [-v for v in values]
    assert kernel_text(values) == oracle_text(values)
    assert fallbacks(values, monkeypatch) == sum(exact_tie(v) for v in values if v) > 0


def _pieces_and_widths(monkeypatch, *groups):
    widths = []
    real = e16._slot_width
    monkeypatch.setattr(e16, "_slot_width", lambda parts: widths.append(real(parts)) or widths[-1])
    return list(e16._csv(*groups)), widths


@pytest.mark.parametrize("chunk", [4, 9, 64])
def test_csv_pieces_of_both_slot_widths_match_the_oracle(monkeypatch, chunk):
    # rows of three columns whose pieces mix three-digit exponents, signed zeros,
    # inf, nan and near ties with ordinary values; some pieces need 25-byte slots
    monkeypatch.setattr(e16, "_CHUNK_VALUES", chunk)
    narrow = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e15 + 0.25, -(1.0 + 2.0**-17),
              5e-324, 9.99999999999999e99]
    wide = [1.5e-200, -7.25e123, -1e-100, 1e100, -1.7976931348623157e308, -5e-324]
    rng = np.random.default_rng(5)
    values = rng.standard_normal(90) * 10.0 ** rng.integers(-8, 8, 90)
    values[5:5 + 7 * len(narrow):7] = narrow  # in the first rows
    values[-len(wide):] = wide  # in the last two rows
    rows = values.reshape(-1, 3)
    pieces, widths = _pieces_and_widths(monkeypatch, rows[:, None])
    expected = "\n".join(",".join("%.16e" % v for v in row) for row in rows.tolist())
    assert b"\n".join(pieces).decode() == expected
    assert set(widths) == {24, 25}


def test_constant_norms_columns_are_formatted_once_with_the_same_bytes(tmp_path, monkeypatch):
    # at tau > l both prediction-error columns are 0.0; a -0.0 makes a column vary
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)
    result = run_scenario(Scenario(params=params, n_cells=20, T=4.0,
                                   theta0=("sine(1, 1)", "step(0.5, 1.0, 0.0)"),
                                   warmup_u=("sine(1, 4)", "constant(0.5)")))
    traj = result.trajectory
    assert not traj.pred_err_at_l.any()
    signed = traj.pred_err_at_l.copy()
    signed[3, 1] = -0.0
    for case in (result, result._replace(trajectory=traj._replace(pred_err_at_l=signed))):
        counts = []
        real = e16._e16_chunk
        monkeypatch.setattr(e16, "_e16_chunk",
                            lambda x, *args: counts.append(len(x)) or real(x, *args))
        cli._write_norms(tmp_path / "norms.csv", case)
        monkeypatch.setattr(e16, "_e16_chunk", real)
        whole = np.column_stack(case.trajectory.columns())
        rows = [cli._NORMS_HEADER.encode(), *e16._csv(whole[:, None])]
        assert (tmp_path / "norms.csv").read_bytes() == b"\n".join(rows) + b"\n"
        constant = 2 if case is result else 1  # 0.0 and -0.0 are not the same value here
        assert sum(counts) == (9 - constant) * len(traj.t) + constant
    assert b"-0.0000000000000000e+00" in (tmp_path / "norms.csv").read_bytes()


def test_theorem_run_takes_the_fast_path(tmp_path, monkeypatch):
    # the benchmark's headline run at its full size: 678,763 values formatted,
    # the two zero prediction-error columns once, in 24-byte slots throughout
    text = (ROOT / "configs" / "theorem_run.ini").read_text()
    scenario = parse_config(text, overrides={"grid.n_cells": "1000"}).scenario
    result = run_scenario(scenario)
    counts, widths = [], []
    real, real_width = e16._e16_chunk, e16._slot_width
    monkeypatch.setattr(e16, "_e16_chunk",
                        lambda x, *args: counts.append((len(x), real(x, *args))) or counts[-1][1])
    monkeypatch.setattr(e16, "_slot_width",
                        lambda parts: widths.append(real_width(parts)) or widths[-1])
    cli._write_norms(tmp_path / "norms.csv", result)
    cli._write_snapshots(tmp_path / "snapshots.csv", result, Grid(1000, 1.0))
    values, slow = (sum(column) for column in zip(*counts))
    traj = result.trajectory
    assert values == 7 * len(traj.t) + 2 + traj.snapshots.size + len(traj.snapshot_t) + 1001
    assert slow < values * 1e-5
    assert len(widths) > 70 and set(widths) == {24}


def test_cli_import_leaves_out_the_process_pool():
    code = "import sys, pfhx.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout == "False\n"
