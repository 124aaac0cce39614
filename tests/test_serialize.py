"""serialize.format17_lines: the numpy %.17g kernel gives the text of
``"%.17g\\n" % x`` byte for byte, on its fast path and on the fallback."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discgrowth.serialize import format17_lines


def _lines(xs):
    return "".join("%.17g\n" % v for v in np.asarray(xs, dtype=float).tolist()).encode()


def assert_formats_like_percent(xs):
    xs = np.asarray(xs, dtype=float)
    text, bounds = format17_lines(xs)
    assert text == _lines(xs)
    assert len(bounds) == len(xs) + 1 and bounds[0] == 0 and bounds[-1] == len(text)
    assert all(text[b - 1:b] == b"\n" for b in bounds[1:].tolist())


def test_million_doubles_over_the_fast_domain():
    rng = np.random.default_rng(17)
    log_spread = np.exp(rng.uniform(math.log(1e-4), math.log(8.0), 600_000))
    assert_formats_like_percent(log_spread)
    assert_formats_like_percent(rng.uniform(1e-4, 8.0, 400_000))


def test_exact_ties_round_half_even():
    # x = m 2^(E-17), m odd, in decade E has 18 significant digits, the last
    # a 5: an exact tie at 17 digits, which %g rounds to even
    assert format17_lines(np.array([1 + 2.0**-17]))[0] == b"1.0000076293945312\n"
    rng = np.random.default_rng(5)
    ties = []
    for e in range(-4, 1):
        lo, hi = 10.0**e, min(10.0 ** (e + 1), 8.0)
        m = rng.integers(math.ceil(lo * 2.0 ** (17 - e)), math.floor(hi * 2.0 ** (17 - e)), 20_000) | 1
        x = np.ldexp(m.astype(float), e - 17)
        ties.append(x[(x >= max(lo, 1e-4)) & (x < hi)])
    ties = np.concatenate(ties)
    digits = [("%.40e" % t).split("e")[0].replace(".", "").rstrip("0") for t in ties.tolist()]
    assert all(len(d) == 18 and d.endswith("5") for d in digits)
    assert_formats_like_percent(ties)


def test_neighbours_of_powers_of_ten_and_decade_rollovers():
    xs = []
    for e in range(-6, 3):
        for c in (10.0**e, float(f"9.9999999999999995e{e}"), float(f"9.99999999999999995e{e}")):
            x = c
            for _ in range(4):
                x = np.nextafter(x, 0.0)
            for _ in range(8):
                xs.append(x)
                x = np.nextafter(x, np.inf)
    xs = np.array(xs)
    assert_formats_like_percent(xs)
    # some of them make log10 miss the decimal exponent; the kernel counts
    # the decade edges at or below x instead
    fast = xs[(xs >= 1e-4) & (xs < 8.0)]
    true_e = np.array([int(("%.16e" % x).split("e")[1]) for x in fast.tolist()])
    assert np.any(np.floor(np.log10(fast)) != true_e)


def test_domain_edges_and_fallback_values():
    edge = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 8.0, np.nextafter(8.0, 0.0),
            np.nextafter(8.0, 9.0)]
    special = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               -1.0, -0.5, -6.283185307179586, 12.5, 1e15, 1e300, math.pi, 2 * math.pi,
               math.nan, math.inf, -math.inf]
    assert_formats_like_percent(edge + special)
    text, _ = format17_lines(np.array([np.nextafter(1e-4, 0.0), -0.0, 1.0, 0.5]))
    assert text == b"9.9999999999999991e-05\n-0\n1\n0.5\n"
    # fallback rows inside a block of fast ones keep their places
    rng = np.random.default_rng(3)
    mixed = rng.uniform(1e-4, 8.0, 3000)
    mixed[rng.choice(3000, 300, replace=False)] = rng.choice(np.array(special), 300)
    assert_formats_like_percent(mixed)


def test_empty_and_non_float_input():
    assert format17_lines(np.array([]))[0] == b""
    assert_formats_like_percent([1, 2, 3])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(min_value=1e-4, max_value=8.0, exclude_max=True)),
                max_size=40))
def test_matches_percent_on_any_doubles(xs):
    assert_formats_like_percent(xs)
