"""The CSV writer: every field is the bytes of `'%.17g' % x`."""

import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import deconv.commands as commands
import deconv.grid_signal as grid_signal
from deconv import fileio
from deconv.commands import cmd_analyze_kernel, cmd_deconvolve
from deconv.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def formatted(columns) -> bytes:
    out = bytearray()
    fileio._format_rows(columns, out)
    return bytes(out)


def reference(columns) -> bytes:
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in rows).encode()


def assert_same_fields(values):
    values = np.asarray(values, dtype=np.float64)
    got = formatted([values]).split(b"\n")
    want = reference([values]).split(b"\n")
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert bad == [] and len(got) == len(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=50))
def test_any_double_matches_percent_format(values):
    # nan, inf, subnormals and every magnitude `st.floats` reaches
    assert_same_fields(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=1, max_size=50))
def test_integers_as_floats_match_percent_format(values):
    assert_same_fields([float(v) for v in values])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(1, 24), offset=st.integers(0, 10 ** 6),
       negative=st.booleans())
def test_exact_ties_match_percent_format(p, offset, negative):
    # x = m / 2**(p+1), m odd, has x * 10**p = m * 5**p / 2: a tie at the
    # 17th digit when 10**16 <= x * 10**p < 10**17, as (4e15 + j) / 4 for
    # p = 1; m < 2**53 keeps x exact
    lo = -(-2 ** (p + 1) * 10 ** 16 // 10 ** p) | 1
    hi = min(2 ** (p + 1) * 10 ** 17 // 10 ** p, 2 ** 53)
    m = lo + 2 * (offset % ((hi - lo + 1) // 2))
    x = m / 2 ** (p + 1)
    assert 10 ** 16 <= m * 5 ** p // 2 < 10 ** 17
    assert_same_fields([-x if negative else x, np.nextafter(x, 0.0),
                        np.nextafter(x, np.inf)])


def near_ties():
    """Doubles x = m * 2**-(s + p) whose product x * 10**p = m * 5**p / 2**s
    lies within 1e-15 of a half-integer without being one (p >= 23, where
    10**p is no double).  2m is a continued-fraction denominator of
    5**p / 2**s, so m * 5**p / 2**s sits next to an odd multiple of 1/2."""
    found = []
    for p in range(23, 46):
        for s in range(p * 7 // 3 - 6, p * 7 // 3 + 3):
            num, den, k0, k1 = 5 ** p % 2 ** s, 2 ** s, 0, 1
            while num:
                a, (den, num) = den // num, (num, den % num)
                k0, k1 = k1, a * k1 + k0
                m = k1 // 2
                off = abs(2 * (m * 5 ** p % 2 ** s) - 2 ** s)
                if (k1 % 2 == 0 and 2 ** 52 <= m < 2 ** 53
                        and 10 ** 16 * 2 ** s <= m * 5 ** p < 10 ** 17 * 2 ** s
                        and 0 < off < 2 ** (s + 1) * 1e-15):
                    found.append(math.ldexp(m, -s - p))
    return found


def test_near_ties_match_percent_format():
    # the product's rounding error could put these on the wrong side of 1/2
    values = near_ties()
    assert len(values) >= 8
    assert_same_fields(values + [-x for x in values])


def test_powers_of_ten_and_their_neighbours_match_percent_format():
    powers = np.array([10.0 ** k for k in range(-30, 19)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    assert_same_fields(np.concatenate([values, -values, [0.0, -0.0]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(width=st.sampled_from([1, 2, 3, 4, 8]),
       blocks=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_columns_across_block_boundaries(width, blocks, seed):
    # a block holds _BLOCK_FIELDS // width rows; width 8 is sweep.csv's
    full, extra = blocks
    rows = full * (fileio._BLOCK_FIELDS // width) + extra
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.uniform(-35, 20, rows)
               for _ in range(width)]
    columns[0][rng.integers(0, rows, 3)] = [0.0, np.inf, np.nan]
    assert formatted(columns) == reference(columns)


def test_zero_rows_write_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    fileio.write_csv(str(path), "a,b", (np.zeros(0), np.zeros(0)))
    assert path.read_bytes() == b"a,b\n"


def test_columns_must_match_the_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        fileio.write_csv(path, "a,b", (np.zeros(3),))
    with pytest.raises(ValueError):
        fileio.write_csv(path, "a,b", (np.zeros(3), np.zeros(4)))
    assert not os.path.exists(path)


@pytest.mark.parametrize("config", ["gaussian", "indicator", "two_sided_exp"])
def test_shipped_tables_equal_percent_formatted_rows(tmp_path, monkeypatch,
                                                     config):
    # profile.csv, dual.csv and reconstruction.csv hold exactly the
    # `%`-formatted rows of the arrays the commands passed to write_csv
    written = {}

    def recording(path, header, columns):
        written[os.path.basename(path)] = (header, [np.array(c) for c in columns])
        fileio.write_csv(path, header, columns)

    monkeypatch.setattr(commands, "write_csv", recording)
    monkeypatch.setattr(grid_signal, "write_csv", recording)
    cfg = load_config(str(CONFIGS / f"{config}.json"))
    cmd_analyze_kernel(cfg, str(tmp_path))
    cmd_deconvolve(cfg, str(tmp_path))
    assert {"profile.csv", "dual.csv", "reconstruction.csv"} <= set(written)
    for name, (header, columns) in written.items():
        want = (header + "\n").encode() + reference(columns)
        assert (tmp_path / name).read_bytes() == want, name


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    cfg = load_config(str(CONFIGS / "indicator.json"))
    old = os.umask(umask)
    try:
        cmd_analyze_kernel(cfg, str(tmp_path / "kernel"))
        cmd_deconvolve(cfg, str(tmp_path / "deconvolve"))
    finally:
        os.umask(old)
    modes = {p.relative_to(tmp_path).as_posix(): oct(stat.S_IMODE(p.stat().st_mode))
             for p in tmp_path.rglob("*") if p.is_file()}
    assert {"kernel/profile.csv", "kernel/zeros.csv", "kernel/manifest.json",
            "deconvolve/reconstruction.csv"} <= set(modes)
    assert modes == dict.fromkeys(modes, oct(mode))


def spied(monkeypatch, columns):
    """formatted(columns) and the number of fields the numpy path laid out."""
    laid_out, real = [], fileio._format_fields

    def spy(v, buf):
        laid_out.append(v.size)
        return real(v, buf)

    monkeypatch.setattr(fileio, "_format_fields", spy)
    return formatted(columns), sum(laid_out)


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("constant", [0.0, -0.0, math.inf, -math.inf,
                                      math.nan, 1e300, "near tie"])
def test_a_constant_column_matches_percent_format(monkeypatch, where,
                                                  constant):
    # first, in the middle or last: printed once, never laid out per row
    x = near_ties()[0] if constant == "near tie" else constant
    rows = fileio._BLOCK_FIELDS + 7  # two varying columns: three blocks
    rng = np.random.default_rng(where)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.uniform(-35, 20, rows)
               for _ in range(2)]
    columns.insert(where, np.full(rows, x))
    got, laid_out = spied(monkeypatch, columns)
    assert got == reference(columns)
    assert laid_out == 2 * rows


@pytest.mark.parametrize("index", [0, 1, 500, 998, 999])
@pytest.mark.parametrize("other", [-0.0, 5e-324, -5e-324, 1.0])
def test_a_column_equal_but_for_one_value_is_not_constant(monkeypatch, index,
                                                          other):
    # -0.0 == 0.0, yet it prints '-0': a constant shares one bit pattern
    columns = [np.arange(1000.0), np.zeros(1000)]
    columns[1][index] = other
    got, laid_out = spied(monkeypatch, columns)
    assert got == reference(columns)
    assert laid_out == 2000


@pytest.mark.parametrize("row", [[1.5, -0.0, math.nan],
                                 [near_ties()[1], -math.inf, 1e-300]])
def test_a_one_row_table_matches_percent_format(monkeypatch, row):
    # every column of a one-row table is constant; so are these of 9 rows
    for rows in (1, 9):
        columns = [np.full(rows, x) for x in row]
        got, laid_out = spied(monkeypatch, columns)
        assert got == reference(columns) and laid_out == 0
