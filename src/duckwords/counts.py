"""
Exact integer sequences, count triangles, the generating polynomials, and
the identity verification suite.

Triangle convention: row k (1-based) has entries for i = 0..k-1, where i is
the point deficiency -- entry i of the reduced-configuration triangle counts
reduced configurations with k hooks on 3k-i points, and entry i of the duck
triangle counts 3D-Dyck words of length 3k with exactly i Y's not preceded
by an X.

The duck triangle is counted by a recurrence, not by listing words.  Whether
an appended Y raises i depends only on the letter before it, and the
prefixes that end in an X are the extensions of the state one X back; so
`duck_triangle` runs a dynamic program over the letter counts (x, y, z)
alone, each state packing its counts by i into one integer, for k up to
TRANSFER_KMAX.  The underlined and reduced-configuration rows are its
binomial transform, f_k(x) = h_k(x + 1), read off with
`IntPolynomial.shift`.  That is the only way the library counts them:
enumeration (`words.enumerate_underlined`, `hooks.red_vhc_count_brute`) and
the simulated tennis-ball process (`maps.tennis_lawns`) stay as independent
oracles, which `verify_identities` and the tests call directly.

The enumerating modules are imported only by the functions here that call
them, so counting by recurrence loads none of them.
"""
from __future__ import annotations

import csv
import io
from importlib import resources
from math import comb, factorial
from pathlib import Path

from ._record import Record, set_field
from .errors import InvalidInput, ResourceLimit, check_size

# duck_triangle refuses rows beyond this k; the packed recurrence, whose
# fields grow to catalan3d(k).bit_length() + 1 bits, takes about 0.5 s there.
TRANSFER_KMAX = 80
# catalan, catalan3d and tennis_ball_weighted refuse k beyond this: their
# values stay under Python's 4,300-digit limit for printing an int.
CATALAN_KMAX = 2000


def _check_catalan_k(value: int, name: str) -> None:
    check_size(value, name)
    if value > CATALAN_KMAX:
        raise ResourceLimit(f"{name}={value} exceeds limit {CATALAN_KMAX}")


def _check_transfer_k(value: int, name: str) -> None:
    check_size(value, name)
    if value > TRANSFER_KMAX:
        raise ResourceLimit(f"{name}={value} exceeds recurrence limit {TRANSFER_KMAX}")


def catalan(k: int) -> int:
    _check_catalan_k(k, "k")
    return comb(2 * k, k) // (k + 1)


def catalan3d(k: int) -> int:
    """2 (3k)! / (k! (k+1)! (k+2)!), the number of 3D-Dyck words of length 3k."""
    _check_catalan_k(k, "k")
    num = 2 * factorial(3 * k)
    den = factorial(k) * factorial(k + 1) * factorial(k + 2)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"3D-Catalan formula not integral at k={k}")
    return q


class CountTriangle(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        try:
            rows = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise InvalidInput(f"count triangle rows are not sequences: {rows!r}") from exc
        for k, row in enumerate(rows, start=1):
            if len(row) != k:
                raise InvalidInput(f"row {k} has {len(row)} entries, expected {k}")
            if not all(type(e) is int for e in row):
                raise InvalidInput(f"row {k} has an entry that is not an int: {row!r}")
            if any(e < 0 for e in row):
                raise InvalidInput(f"row {k} has a negative entry")
        set_field(self, "rows", rows)

    @property
    def kmax(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> tuple[int, ...]:
        """Row k; InvalidInput unless 1 <= k <= kmax."""
        if type(k) is not int or not 1 <= k <= len(self.rows):
            raise InvalidInput(f"row k={k!r} is outside 1..{len(self.rows)}")
        return self.rows[k - 1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CountTriangle":
        if not isinstance(text, str):
            raise InvalidInput(f"malformed count triangle: {text!r}")
        try:
            rows = [tuple(int(tok) for tok in line)
                    for line in csv.reader(io.StringIO(text)) if line]
        except (ValueError, csv.Error) as exc:
            raise InvalidInput(f"malformed count triangle: {exc}") from exc
        return cls(tuple(rows))


def duck_triangle(kmax: int) -> CountTriangle:
    """
    Duck counts by (k, i) for every k <= kmax.  A kmax that is not a
    nonnegative int raises InvalidInput, and one above TRANSFER_KMAX raises
    ResourceLimit.

    A transfer-matrix recurrence over 3D-Dyck prefixes, grouped by letter
    counts (x, y, z), x >= y >= z.  A state holds one integer: bits
    [i*w, (i+1)*w) count its prefixes with i Y's not preceded by an X.  A
    prefix with x <= kmax extends to a distinct word of length 3*kmax, so
    no field exceeds catalan3d(kmax) < 2**(w-1) and none overflows.  X and
    Z keep i; Y raises it unless the prefix ends in an X, and those at
    (x, y, z) are the prefixes at (x-1, y, z) plus an X, a subset field by
    field, so the subtraction never borrows.  Row k is read at (k, k, k),
    whose prefixes are the words of length 3k.  Two layers of x are kept.
    """
    _check_transfer_k(kmax, "kmax")
    w = catalan3d(kmax).bit_length() + 1
    mask = (1 << w) - 1
    rows, prev = [], []
    for x in range(kmax + 1):
        cur = []  # cur[y][z]: the prefixes at (x, y, z), packed by i
        for y in range(x + 1):
            line = []
            for z in range(y + 1):
                # append X to (x-1, y, z); the empty prefix starts the count
                n = prev[y][z] if y < x else int(x == 0)
                if z < y:  # append Y to (x, y-1, z)
                    after_x = prev[y - 1][z]
                    n += after_x + ((cur[y - 1][z] - after_x) << w)
                if z:  # append Z to (x, y, z-1)
                    n += line[z - 1]
                line.append(n)
            cur.append(line)
        if x:
            rows.append(tuple((cur[x][x] >> (i * w)) & mask for i in range(x)))
        prev = cur
    return CountTriangle(tuple(rows))


def underlined_triangle(kmax: int) -> CountTriangle:
    """
    Counts of (k, i)-underlined duck words, equivalently of reduced
    312-avoiding configurations with k hooks on 3k-i points: the binomial
    transform of `duck_triangle(kmax)`, with its bounds.
    """
    return _binomial_transform(duck_triangle(kmax))


def _binomial_transform(duck: CountTriangle) -> CountTriangle:
    """The underlined triangle of a duck triangle: row k is h_k(x + 1)."""
    return CountTriangle(tuple(IntPolynomial(r).shift(1).coefficients for r in duck.rows))


class IntPolynomial(Record):
    """Exact-integer polynomial, coefficients in ascending degree: ints, stored
    as a tuple; anything else raises InvalidInput."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        try:
            coefficients = tuple(coefficients)
        except TypeError as exc:
            raise InvalidInput(f"coefficients are not a sequence: {coefficients!r}") from exc
        if not all(type(c) is int for c in coefficients):
            raise InvalidInput(f"a coefficient is not an int: {coefficients!r}")
        set_field(self, "coefficients", coefficients)

    def __call__(self, x: int) -> int:
        if type(x) is not int:
            raise InvalidInput(f"x must be an int, got {x!r}")
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def shift(self, delta: int) -> "IntPolynomial":
        """The polynomial p(x + delta), exactly, by repeated synthetic
        division by x - delta (Horner's Taylor shift)."""
        if type(delta) is not int:
            raise InvalidInput(f"delta must be an int, got {delta!r}")
        out = list(self.coefficients)
        n = len(out)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += delta * out[j + 1]
        return IntPolynomial(tuple(out))


def f_poly(k: int) -> IntPolynomial:
    """Generating polynomial of reduced-configuration counts by deficiency:
    the x^i coefficient counts reduced configurations on 3k-i points.
    f_0 is the constant 1: the empty configuration."""
    check_size(k, "k")
    return IntPolynomial(underlined_triangle(k).row(k) if k else (1,))


def h_poly(k: int) -> IntPolynomial:
    """f_k shifted by -1; its coefficients are the duck counts."""
    return f_poly(k).shift(-1)


# --- tennis-ball numbers ---------------------------------------------------


def tennis_ball_weighted(m: int) -> int:
    """
    The m-th weighted tennis-ball number: the sum of all ball labels on the
    lawn over every reachable configuration after m rounds, read from its
    closed form.  It refuses m above CATALAN_KMAX with ResourceLimit.
    `verify_identities` and the tests check it against the simulated
    process, `maps.tennis_lawns`.
    """
    _check_catalan_k(m, "m")
    num = (2 * m * m + 5 * m + 4) * comb(2 * m + 1, m)
    q, r = divmod(num, m + 2)
    if r:
        raise ArithmeticError(f"weighted tennis-ball formula not integral at m={m}")
    return q - 2 ** (2 * m + 1)


def duck_k1_oracle(k: int) -> int:
    """
    Independent count of duck words with exactly one Y not preceded by an X:
    over all Dyck words of length 2k, the number of ways to underline one of
    the U's past the first and circle one of the letters before it, i.e.
    the sum of the letter counts before each of U_2..U_k.

    Counted by a recurrence over Dyck prefixes: the state (ups, downs)
    holds the number of prefixes reaching it and the sum, over them, of the
    letter counts before each U past the first.
    """
    check_size(k, "k")
    # prev[d] = (prefixes, sum) at (u - 1, d); cur[d] the same at (u, d)
    prev: list[tuple[int, int]] = []
    for u in range(k + 1):
        cur: list[tuple[int, int]] = []
        for d in range(u + 1):
            count, total = (1, 0) if u == d == 0 else (0, 0)
            if d < u:  # append U_u, which has u - 1 + d letters before it
                c, t = prev[d]
                count += c
                total += t + (c * (u - 1 + d) if u > 1 else 0)
            if d:  # append a D
                c, t = cur[d - 1]
                count += c
                total += t
            cur.append((count, total))
        prev = cur
    return prev[k][1]


# --- golden data -----------------------------------------------------------


def load_golden_triangle(name: str, directory: str | Path | None = None) -> CountTriangle:
    """Load a shipped golden triangle ("redvhc" or "duck"); an explicit
    directory overrides the packaged data files.  A triangle with no rows
    would check nothing, so it raises InvalidInput, as does any other name."""
    if name not in ("duck", "redvhc"):
        raise InvalidInput(f"no golden triangle {name!r}: the names are 'duck' and 'redvhc'")
    filename = f"{name}_triangle.csv"
    if directory is not None:
        path = Path(directory) / filename
        if not path.is_file():
            raise InvalidInput(f"golden triangle not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"golden triangle is not UTF-8 text: {path}") from exc
    else:
        text = (resources.files("duckwords.data") / filename).read_text()
    triangle = CountTriangle.from_csv(text)
    if not triangle.kmax:
        raise InvalidInput(f"golden triangle {filename} has no rows")
    return triangle


# --- identity suite --------------------------------------------------------


# verify_identities lists underlined words only for k up to VERIFY_ENUM_KMAX,
# simulates the tennis-ball process only for n up to VERIFY_SIMULATE_N,
# checks Eq. (1) by brute force for n up to VERIFY_EQ1_N, and runs the
# roundtrips, which list every word, only for k up to VERIFY_ROUNDTRIP_KMAX:
# each grows much faster than the other checks.
VERIFY_ENUM_KMAX = 5
VERIFY_SIMULATE_N = 6
VERIFY_EQ1_N = 6
VERIFY_ROUNDTRIP_KMAX = 4


def _roundtrip_failures(kmax: int) -> tuple[int, list[str]]:
    """The number of phi, rewrite and phi' roundtrips over every word with
    k <= kmax, and a message for each one that fails."""
    from .maps import phi, phi_inverse, phi_prime, phi_prime_inverse
    from .words import decode, enumerate_3d_dyck, enumerate_underlined, rewrite, underline_all

    checked = 0
    failures: list[str] = []
    for k in range(1, kmax + 1):
        for w in enumerate_3d_dyck(k):
            checked += 2
            if phi(phi_inverse(w)) != w:
                failures.append(f"phi roundtrip failed on {w}")
            u = underline_all(w)
            if decode(rewrite(u)) != u:
                failures.append(f"rewrite roundtrip failed on {u.to_text()}")
        for i in range(k):
            for u in enumerate_underlined(k, i):
                checked += 1
                if phi_prime(phi_prime_inverse(u)) != u:
                    failures.append(f"phi' roundtrip failed on {u.to_text()}")
    return checked, failures


def verify_identities(kmax: int, golden_dir: str | Path | None = None) -> dict:
    """
    Check the paper's claims for every k <= kmax: the counting identities,
    Eq. (1), the phi, phi' and rewrite roundtrips, and the triangles against
    the golden files (from `golden_dir` if given, see `load_golden_triangle`).
    Returns {"kmax", "identities", "all_pass"}, with one entry
    {"id", "description", "pass", ...details} per check.  The checks that
    list or simulate are capped by the VERIFY_* constants above.
    """
    from .hooks import verify_eq1
    from .maps import tennis_lawns
    from .words import enumerate_3d_dyck, non_x_preceded_ys

    duck = duck_triangle(kmax)
    underlined = _binomial_transform(duck)
    golden = {"duck": (duck, load_golden_triangle("duck", golden_dir)),
              "redvhc": (underlined, load_golden_triangle("redvhc", golden_dir))}
    checks: list[dict] = []

    def add(ident: str, description: str, ok: bool, **details) -> None:
        checks.append({"id": ident, "description": description, "pass": bool(ok), **details})

    ks = range(1, kmax + 1)
    add("row_sum_3d_catalan", "duck row sums equal the 3D-Catalan numbers",
        all(sum(duck.row(k)) == catalan3d(k) for k in ks), values=[sum(r) for r in duck.rows])

    add("duck_i0_catalan", "duck entry i=0 equals the Catalan number",
        all(duck.row(k)[0] == catalan(k) for k in ks), values=[r[0] for r in duck.rows])

    add("duck_top_hankel", "duck entry i=k-1 equals C_k C_{k+2} - C_{k+1}^2",
        all(duck.row(k)[k - 1] == catalan(k) * catalan(k + 2) - catalan(k + 1) ** 2 for k in ks),
        values=[r[-1] for r in duck.rows])

    def listed_underlined_row(k: int) -> tuple[int, ...]:
        # a (k, i)-underlined word is a 3D-Dyck word with i of its j Y's not
        # preceded by an X underlined, so each word adds comb(j, i) to entry i
        row = [0] * k
        for w in enumerate_3d_dyck(k):
            j = len(non_x_preceded_ys(w))
            for i in range(j + 1):
                row[i] += comb(j, i)
        return tuple(row)

    gen_max = min(kmax, VERIFY_ENUM_KMAX)
    add("underline_transform", "binomial transform matches direct generation of underlined words",
        all(underlined.row(k) == listed_underlined_row(k) for k in range(1, gen_max + 1)),
        checked_up_to=gen_max)

    add("total_power_sum", "underlined row sums equal sum of 2^j duck entries",
        all(sum(underlined.row(k)) == sum(2 ** j * duck.row(k)[j] for j in range(k)) for k in ks),
        values=[sum(r) for r in underlined.rows])

    add("alternating_sum_catalan", "alternating underlined row sums equal the Catalan numbers",
        all(sum((-1) ** i * underlined.row(k)[i] for i in range(k)) == catalan(k)
            and IntPolynomial(underlined.row(k))(-1) == catalan(k) for k in ks))

    add("f_at_zero_3d_catalan", "constant term of the deficiency polynomial is the 3D-Catalan number",
        all(IntPolynomial(underlined.row(k))(0) == catalan3d(k) for k in ks))

    tb_ok = True
    tb_values = []
    for k in range(2, kmax + 1):
        expected = duck.row(k)[1]
        closed = tennis_ball_weighted(k - 1)
        oracle = duck_k1_oracle(k)
        ok = closed == expected == oracle
        if k - 1 <= VERIFY_SIMULATE_N:
            ok = ok and sum(map(sum, tennis_lawns(k - 1))) == expected
        tb_values.append({"k": k, "duck": expected, "closed_form": closed, "oracle": oracle})
        tb_ok = tb_ok and ok
    add("duck_k1_tennis_ball", "duck entry i=1 equals the weighted tennis-ball number",
        tb_ok, values=tb_values, simulated_up_to=max(0, min(kmax - 1, VERIFY_SIMULATE_N)))

    add("h_poly_positive", "shifted polynomial has strictly positive coefficients",
        all(all(c > 0 for c in IntPolynomial(r).shift(-1).coefficients) for r in underlined.rows))

    eq1 = [verify_eq1(n) for n in range(VERIFY_EQ1_N + 1)]
    add("eq1", "sum of #VHC over Av_n(312) equals sum of C(n, r) |RedVHC(Av_r(312))|",
        all(r["equal"] for r in eq1), checked_up_to=VERIFY_EQ1_N, values=eq1)

    roundtrip_max = min(kmax, VERIFY_ROUNDTRIP_KMAX)
    checked, failures = _roundtrip_failures(roundtrip_max)
    add("roundtrips", "phi, phi' and rewrite/decode invert each other on every word",
        not failures, checked_up_to=roundtrip_max, checked=checked, failures=failures)

    golden_max = min(kmax, *(g.kmax for _, g in golden.values()))
    mismatches = [
        {"triangle": name, "k": k, "computed": list(tri.row(k)), "golden": list(g.row(k))}
        for k in range(1, golden_max + 1)
        for name, (tri, g) in golden.items()
        if tri.row(k) != g.row(k)
    ]
    add("golden_triangles", "duck and reduced-configuration rows equal the golden triangles",
        not mismatches, checked_up_to=golden_max, mismatches=mismatches)

    return {
        "kmax": kmax,
        "identities": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
