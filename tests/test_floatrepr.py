"""``mapdyn.floatrepr`` against the per-float ``repr`` oracle."""

import numpy as np

from mapdyn.floatrepr import BLOCK, csv_lines

from oracles import repr_csv_lines


def _first_difference(values, columns):
    """The first value whose cell differs from its ``repr``, for the failure message."""
    block = values.reshape(-1, columns)
    got = csv_lines(block).replace("\r\n", ",").split(",")
    want = repr_csv_lines(block).replace("\r\n", ",").split(",")
    for value, a, b in zip(block.ravel(), got, want):
        if a != b:
            return f"{value.view(np.uint64):#018x}: wrote {a!r}, repr writes {b!r}"
    return f"cell counts {len(got)} and {len(want)}"


def _hard_values(rng):
    """At least 10^6 float64s, both signs, from the families where shortest round-trip digits go wrong."""
    families = [
        # random bit patterns, then subnormals with random mantissas
        rng.integers(0, 2 ** 64, 650_000, dtype=np.uint64).view(np.float64),
        (rng.integers(1, 2 ** 52, 50_000, dtype=np.uint64)).view(np.float64),
    ]
    # every power of two and its two neighbours
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    families += [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    # k * 10^e for every e from -324 to 308, for short and long k
    ks = list(range(1, 100)) + [int(k) for k in 10 ** rng.uniform(2, 17, 100)]
    families.append(np.array([float(f"{k}e{e}") for k in ks for e in range(-324, 309)]))
    # integers around 2^53, and short decimals
    families.append((2 ** 53 + np.arange(-50_000, 50_000)).astype(np.float64))
    families.append(rng.integers(-10 ** 7, 10 ** 7, 100_000) / 10.0 ** rng.integers(0, 6, 100_000))
    values = np.concatenate(families)
    values.view(np.uint64)[rng.random(values.size) < 0.5] ^= np.uint64(1 << 63)
    return np.concatenate([values, [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]])


def test_matches_repr_on_a_million_hard_values():
    values = _hard_values(np.random.default_rng(22))
    assert values.size >= 10 ** 6
    columns = 7  # rows end at values all through a pass of BLOCK values
    values = values[: values.size // columns * columns]
    block = values.reshape(-1, columns)
    same = csv_lines(block) == repr_csv_lines(block)  # a bool, so that pytest diffs no 20 MB strings
    assert same, _first_difference(values, columns)


def test_empty_and_single_column_blocks():
    assert csv_lines(np.empty((0, 5))) == ""
    column = np.linspace(-2.0, 3.0, 2 * BLOCK + 3)[:, None]
    assert csv_lines(column) == repr_csv_lines(column)


def test_mixed_rows_become_float64_first():
    rows = [
        [0.0, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1 + 0.2],
        [3, -7, np.float64(0.1), np.float32(0.1), np.int64(12), True, 1e-5, 123456789.0],
    ]
    assert csv_lines(np.asarray(rows, dtype=float)) == repr_csv_lines(rows)
