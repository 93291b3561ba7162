"""The chi-square tail port against scipy, the oracle it must equal bit for bit."""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from scipy import special

from quantum_nqueens import chisq

# n**n - 1 for n = 2..7: the degrees of freedom `sampling_report` asks for.
DFS = [3, 26, 255, 3124, 46655, 823542]

# Multiples of a = df/2 that put x/2 on each side of the branch rules: the
# prefactor's lgam path beyond |x - a| > 0.4a, the series below a, the
# continued fraction above it, and the asymptotic regime near a.
RATIOS = [0.05, 0.3, 0.55, 0.59, 0.61, 0.7, 0.85, 0.95, 0.99, 1.0, 1.01, 1.05, 1.15]
RATIOS += [1.3, 1.39, 1.41, 1.6, 2.0, 5.0, 20.0, 200.0, 2000.0]


def underflow_edge(a, c):
    """The x > a where x^a e^-x / Gamma(a) is e^-c, by Newton's method: around
    c = 709.78 the prefactor's lgam path cuts to 0 before exp would underflow."""
    x = a + c
    for _ in range(50):
        x -= (a * math.log(x) - x - math.lgamma(a) + c) / (a / x - 1)
    return x


def half_statistics(df):
    """Points x/2 for one df: the branch probes, both sides of each edge of the
    asymptotic regime, and seeded random points near a and across the tail."""
    a = df / 2
    width = 4.5 / math.sqrt(a) if a > 200 else 0.3
    xs = [0.0, 1e-300, 1e-3, 0.5, 1.1]
    xs += [a * r for r in RATIOS]
    xs += [a * (1 + s * width * f) for s in (-1, 1) for f in (0.97, 1.03)]
    xs += [underflow_edge(a, c) for c in (700, 720, 740, 760)]
    rng = random.Random(df)
    xs += [a * (1 + rng.uniform(-1.5, 1.5) * width) for _ in range(100)]
    xs += [math.exp(rng.uniform(math.log(1e-3), math.log(50 * a))) for _ in range(100)]
    return xs


@pytest.mark.parametrize("df", DFS)
def test_equals_scipy_bit_for_bit(df):
    for xh in half_statistics(df):
        x = 2 * xh
        assert chisq.chdtrc(df, x) == special.chdtrc(df, x), (df, x)


def recorded(monkeypatch, name):
    """Calls of chisq.<name> from now on, as (args, result) pairs."""
    calls, inner = [], getattr(chisq, name)

    def wrapper(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(chisq, name, wrapper)
    return calls


def test_branches_equal_scipy_before_the_final_subtraction(monkeypatch):
    """scipy's gammainc sums the same series for x < a outside the asymptotic
    regime, and gammaincc runs the same continued fraction and asymptotic
    series, so each branch is compared before chdtrc's 1 - P can round
    its last bits away."""
    series = recorded(monkeypatch, "_igam_series")
    fraction = recorded(monkeypatch, "_igamc_continued_fraction")
    asymptotic = recorded(monkeypatch, "_asymptotic_series")
    for df in DFS:
        for xh in half_statistics(df):
            chisq.chdtrc(df, 2 * xh)
    assert all(result == special.gammainc(*args) for args, result in series)
    assert all(result == special.gammaincc(*args) for args, result in fraction + asymptotic)
    assert min(map(len, (series, fraction, asymptotic))) > 100


def test_grid_reaches_every_ported_branch(monkeypatch):
    """Each point records the functions it called; together they cover every
    branch of the port, and no point needs a branch the port left out."""
    names = ("_asymptotic_series", "_igam_series", "_igamc_continued_fraction", "_igam_fac", "lgam")
    logs = {name: recorded(monkeypatch, name) for name in (*names, "_erfc", "_log1pmx")}
    branches = set()
    for df in DFS:
        for xh in half_statistics(df):
            start = {name: len(log) for name, log in logs.items()}
            chisq.chdtrc(df, 2 * xh)
            seen = {name for name, log in logs.items() if len(log) > start[name]}
            if not seen:
                branches.add("x = 0")
            if "_igam_series" in seen and xh <= 1.1:
                branches.add("series at x <= 1.1")
            branches |= seen & {"_asymptotic_series", "_igam_series", "_igamc_continued_fraction"}
            if any(result == 0.0 for _, result in logs["_igam_fac"][start["_igam_fac"]:]):
                branches.add("prefactor underflow")
            if "lgam" in seen:
                branches.add("prefactor by lgam")
            elif "_igam_fac" in seen:
                lanczos = "log1pmx" if "_log1pmx" in seen and "_asymptotic_series" not in seen else "pow"
                branches.add(f"prefactor by Lanczos and {lanczos}")

    assert branches == {
        "x = 0",
        "series at x <= 1.1",
        "_asymptotic_series",
        "_igam_series",
        "_igamc_continued_fraction",
        "prefactor underflow",
        "prefactor by lgam",
        "prefactor by Lanczos and pow",
        "prefactor by Lanczos and log1pmx",
    }
    # Cephes erfc's R/S form is for |x| >= 8, log1pmx's log1p form for |x| >= 0.5.
    assert max(abs(args[0]) for args, _ in logs["_erfc"]) < 8
    assert max(abs(args[0]) for args, _ in logs["_log1pmx"]) < 0.5


@pytest.mark.parametrize("a", [20.5, 60.0, 199.5, 200.5, 1e3, 1e5, 1e9])
def test_asymptotic_regime_keeps_erfc_below_its_large_argument_form(a):
    """At the widest |x - a| of the asymptotic regime, erfc's argument stays
    under 3.7, far from the |x| >= 8 form the port leaves out."""
    width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
    for sigma in (-width, width):
        eta = math.sqrt(-2 * chisq._log1pmx(sigma))
        assert eta * math.sqrt(a / 2) < 3.7


def test_lgam_equals_scipy_gammaln_bit_for_bit():
    rng = random.Random(2)
    xs = [k / 2 for k in range(3, 4001)] + [13.0, 1000.0, 1e8, 1.5e8, 4e15]
    xs += [rng.uniform(1.5, 13) for _ in range(2000)]
    xs += [rng.uniform(13, 1000) for _ in range(2000)]
    xs += [math.exp(rng.uniform(math.log(1000), math.log(1e12))) for _ in range(2000)]
    for x in xs:
        assert chisq.lgam(x) == special.gammaln(x), x


def dlmf_temme_coefficients(rows, cols):
    """d[k][n] of DLMF 8.12.12 for k < rows and n < cols, as exact rationals."""
    size = cols + 2 * rows
    # eta/lam = sqrt(2 (lam - log(1 + lam)) / lam^2), whose square is sum_j 2 (-lam)^j / (j + 2)
    square = [Fraction(2 * (-1) ** j, j + 2) for j in range(size)]
    root = [Fraction(1)]
    for m in range(1, size):
        root.append((square[m] - sum(root[i] * root[m - i] for i in range(1, m))) / 2)
    h = [Fraction(1)]  # lam/eta = 1/root
    for m in range(1, size):
        h.append(-sum(root[i] * h[m - i] for i in range(1, m + 1)))
    # Lagrange inversion (DLMF 8.12.13): lam = sum_m alpha_m eta^m, alpha_m = [t^(m-1)] h^m / m
    alpha, power = [Fraction(0)], [Fraction(1)] + [Fraction(0)] * (size - 1)
    for m in range(1, size):
        power = [sum(power[i] * h[j - i] for i in range(j + 1)) for j in range(size)]
        alpha.append(power[m - 1] / m)
    d0 = [Fraction(-1, 3)] + [(n + 2) * alpha[n + 2] for n in range(1, size - 2)]
    # Stirling's series Gamma*(z) = sum_k g_k z^-k = exp(sum_m B_2m / (2m (2m - 1)) z^(1 - 2m))
    bernoulli = [Fraction(1)]
    for m in range(1, rows + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    log_series = [Fraction(0)] * rows
    for m in range(1, rows // 2 + 1):
        log_series[2 * m - 1] = bernoulli[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)]
    for k in range(1, rows):
        g.append(sum(j * log_series[j] * g[k - j] for j in range(1, k + 1)) / k)
    d = [d0]
    for k in range(1, rows):
        d.append([(-1) ** k * g[k] * d0[n] + (n + 2) * d[k - 1][n + 2] for n in range(len(d0) - 2 * k)])
    return [row[:cols] for row in d]


def rounded_dlmf_temme_coefficients(rows, cols):
    """The DLMF values, each rounded to 17 significant digits and then to a
    double, as scipy's igam.h writes and its compiler reads them."""
    digits = Context(prec=17)
    return [
        [float(digits.divide(Decimal(f.numerator), Decimal(f.denominator))) for f in row]
        for row in dlmf_temme_coefficients(rows, cols)
    ]


def test_asymptotic_series_reads_only_rows_0_11_and_columns_0_17(monkeypatch):
    """On a table one row and one column longer than chisq.TEMME_D, the
    series' own stopping rules end it inside rows 0-11 and columns 0-17, so the
    cut table never ends a sum early. The grid has both edges and the middle
    of the regime at the smallest a, which needs the most rows, and at a just
    above 200, where the regime is widest and |eta| needs the most columns."""
    read = set()

    class Row(tuple):
        def __getitem__(self, n):
            read.add((self.k, n))
            return tuple.__getitem__(self, n)

    rows = []
    for k, values in enumerate(rounded_dlmf_temme_coefficients(13, 19)):
        rows.append(Row(values))
        rows[-1].k = k
    grid = []
    for a in (20 + 1e-9, 20.5, 50.0, 199.9, 200.5, 1e3, 1e6):
        width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
        grid += [(a, a * (1 + width * j / 50 * (1 - 1e-12))) for j in range(-50, 51)]
    cut = [chisq._asymptotic_series(a, x) for a, x in grid]
    monkeypatch.setattr(chisq, "TEMME_D", tuple(rows))
    assert [chisq._asymptotic_series(a, x) for a, x in grid] == cut
    assert max(k for k, _ in read) == 11 and max(n for _, n in read) == 17


def test_temme_coefficients_the_series_reads_are_the_dlmf_values():
    """chisq.TEMME_D is rows 0-11 and columns 0-17 of d, each entry the DLMF
    value rounded as scipy's igam.h has it."""
    assert [list(row) for row in chisq.TEMME_D] == rounded_dlmf_temme_coefficients(12, 18)


def test_temme_coefficients_start_with_the_dlmf_row():
    """Row 0 of d is -1/3, 1/12, -2/135, 1/864, 1/2835, -139/777600 (DLMF 8.12.12)."""
    head = [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135), Fraction(1, 864)]
    head += [Fraction(1, 2835), Fraction(-139, 777600)]
    assert list(chisq.TEMME_D[0][:6]) == [float(f) for f in head]


@pytest.mark.parametrize(
    "df, x",
    [(2, 1.0), (2.99, 1.0), (0, 1.0), (-3, 1.0), (math.nan, 1.0), (3, -1.0), (3, math.inf), (3, math.nan)],
)
def test_rejects_what_it_does_not_port(df, x):
    with pytest.raises(ValueError):
        chisq.chdtrc(df, x)
