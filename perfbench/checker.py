"""Output checks for the benchmark, kept apart from the timing code.

Every function here reads only what the CLI printed and the committed
reference data; nothing imports walshlab, so a defect in the library cannot
also hide itself in the checks.  Each check returns a list of problems; an
operation (one spectrum report, or one gated verify check) fails when it has
any.

Spectrum reports must pass the gates of Theorem 3.2 for f (value set, the
nonlinearity bound, the three counting relations, N0 > 0) plus identities any
Walsh spectrum obeys (Parseval, the total count, W(0) = 2^n - 2 wt(f)), and,
where the reference holds a report for the same (m, mu), equal it field by
field.  Verify runs must exit 0 with passed = true and keep every gated check
of the reference present and passing.  `detail` strings and info checks are
never compared.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SPECTRUM_REFERENCE = os.path.join(REFERENCE_DIR, "spectrum.json")
VERIFY_REFERENCE = os.path.join(REFERENCE_DIR, "verify_gated.json")

# compared against the reference; "lambda" is left out on purpose, it is an
# implementation choice the paper does not fix
REPORT_FIELDS = ("mu", "distribution", "nonlinearity", "classification", "balanced",
                 "weight", "algebraic_degree")


def load_spectrum_reference() -> dict:
    """{m: {K: report fields}} captured from `spectrum --mu idx:K` reports."""
    with open(SPECTRUM_REFERENCE) as fh:
        raw = json.load(fh)
    return {int(m): {int(k): rep for k, rep in by_k.items()} for m, by_k in raw.items()}


def spectrum_reference(m: int, mu_index: int | None) -> dict | None:
    """{mu: report fields} a request's reports must equal, or None if the
    reference does not cover it.  mu_index is K of `--mu idx:K`; None means
    `--mu all`, covered only if the reference holds every K of that m."""
    by_k = load_spectrum_reference().get(m, {})
    if mu_index is None:
        picked = list(by_k.values()) if len(by_k) == (1 << m) - 1 else []
    else:
        picked = [by_k[mu_index]] if mu_index in by_k else []
    return {rep["mu"]: rep for rep in picked} or None


def load_verify_reference() -> list[tuple]:
    """Every gated (suite, m, mu, name) of `verify --suite all` at the reference commit."""
    with open(VERIFY_REFERENCE) as fh:
        raw = json.load(fh)
    return [tuple(entry) for entry in raw["gated"]]


# ------------------------------------------------------------- spectrum ----


def f_value_set(m: int) -> set:
    return {0, 1 << m, -(1 << m), 1 << (m + 1), 3 << m}


def expected_classification(values: list[int], m: int) -> str:
    """The classification label the report should carry for this value set."""
    vset = set(values)
    if vset <= {1 << m, -(1 << m)}:
        return "bent"
    sb = 1 << (m + 1)
    if vset <= {0, sb, -sb}:
        return "semi-bent"
    nonzero = sorted(abs(v) for v in vset if v != 0)
    if nonzero and nonzero[0] == nonzero[-1]:
        return f"plateaued({nonzero[0]})"
    name = "five-valued" if len(vset) <= 5 else "other"
    return name + "{" + ",".join(str(v) for v in sorted(vset)) + "}"


def spectrum_problems(report: dict, m: int, reference: dict | None = None) -> list[str]:
    """Problems with one f spectrum report on GF(2^(2m)); empty when it is correct."""
    try:
        return _spectrum_problems(report, m, reference)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def _spectrum_problems(report: dict, m: int, reference: dict | None) -> list[str]:
    n = 2 * m
    out = []
    if (report["construction"], report["m"], report["n"]) != ("f", m, n):
        out.append("construction/m/n do not match the request")
    dist = {}
    for row in report["distribution"]:
        dist[int(row["value"])] = int(row["count"])
    values = sorted(dist)
    counts = {v: c for v, c in dist.items()}

    # identities of every Walsh spectrum
    if sum(counts.values()) != 1 << n:
        out.append(f"counts sum to {sum(counts.values())}, not 2^{n}")
    if sum(c * v * v for v, c in counts.items()) != 1 << (2 * n):
        out.append("Parseval: sum of W^2 is not 2^(2n)")
    if any(c <= 0 for c in counts.values()):
        out.append("non-positive count in the distribution")
    weight = report["weight"]
    if (1 << n) - 2 * weight not in counts:
        out.append("W(0) = 2^n - 2 wt(f) is not a spectrum value")
    if report["balanced"] != (weight == 1 << (n - 1)):
        out.append("balanced flag disagrees with the weight")
    nl = report["nonlinearity"]
    if nl != (1 << (n - 1)) - max(abs(v) for v in values) // 2:
        out.append("nonlinearity disagrees with the largest |W|")
    if report["classification"] != expected_classification(values, m):
        out.append(f"classification {report['classification']!r} does not fit the value set")
    if not 1 <= report["algebraic_degree"] <= n:
        out.append("algebraic degree out of range")

    # Theorem 3.2 gates
    if not set(values) <= f_value_set(m):
        out.append(f"value set {values} is not in {{0, +-2^m, 2^(m+1), 3*2^m}}")
    bound = (1 << (n - 1)) - 3 * (1 << (m - 1))
    if nl < bound:
        out.append(f"nonlinearity {nl} below the bound {bound}")
    unit = 1 << m
    big_n = {i: counts.get(i * unit, 0) for i in (-1, 0, 1, 2, 3)}
    half, halfm = 1 << (n - 1), 1 << (m - 1)
    if big_n[0] != 3 * big_n[2] + 8 * big_n[3]:
        out.append("counting relation N0 = 3 N2 + 8 N3 fails")
    if big_n[1] != half + halfm - 3 * big_n[2] - 6 * big_n[3]:
        out.append("counting relation for N1 fails")
    if big_n[-1] != half - halfm - big_n[2] - 3 * big_n[3]:
        out.append("counting relation for N-1 fails")
    if m >= 3 and big_n[0] <= 0:
        out.append("N0 is not positive")

    if reference is not None:
        for field in REPORT_FIELDS:
            if report[field] != reference[field]:
                out.append(f"{field} differs from the reference")
    return out


def spectrum_outcome(code: int, text: str, m: int, reports: int,
                     reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one `spectrum --format json` request
    that should produce `reports` reports; an operation is one report.

    `reference` maps mu to the fields its report must equal (see
    spectrum_reference); with it, the request must report exactly its mus.
    """
    if code != 0:
        return reports, reports, [f"exit code {code}"]
    try:
        payload = json.loads(text)
        got = payload["reports"] if reports > 1 else [payload]
    except (ValueError, KeyError, TypeError) as exc:
        return reports, reports, [f"malformed spectrum output: {exc!r}"]
    failed, problems, seen = 0, [], set()
    for report in got:
        mu = report.get("mu") if isinstance(report, dict) else None
        expected = None
        found = []
        if mu in seen:
            found.append("reported twice")
        seen.add(mu)
        if reference is not None:
            expected = reference.get(mu)
            if expected is None:
                found.append("mu was not requested")
        found += spectrum_problems(report, m, expected)
        failed += bool(found)
        problems += [f"mu {mu}: {p}" for p in found]
    missing = reports - len(got)
    if reference is not None:
        missing = max(missing, len(reference.keys() - seen))
    if missing > 0:
        failed += missing
        problems.append(f"{missing} of {reports} reports missing")
    return max(reports, len(got)), failed, problems


# --------------------------------------------------------------- verify ----


def verify_outcome(code: int, text: str, m_range: tuple[int, int],
                   reference: list[tuple]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one `verify --format json` run.

    An operation is one gated check.  Reference checks of the suites that
    honour --m-range are expected for m inside the range; `recursion` runs its
    fixed (m, s) pairs whatever the range.
    """
    lo, hi = m_range
    expected = {e for e in reference if e[0] == "recursion" or lo <= e[1] <= hi}
    problems = []
    try:
        payload = json.loads(text)
        gated = {}
        for c in payload["checks"]:
            if not c["info"]:
                gated[(c["suite"], c["m"], c["mu"], c["name"])] = c["pass"] is True
        passed = payload["passed"] is True
    except (ValueError, KeyError, TypeError) as exc:
        return len(expected), len(expected), [f"malformed verify output: {exc!r}"]
    failing = {k for k, ok in gated.items() if not ok}
    missing = expected - gated.keys()
    failed = len(failing) + len(missing)
    if failing:
        problems.append(f"{len(failing)} gated checks fail, e.g. {sorted(failing)[0]}")
    if missing:
        problems.append(f"{len(missing)} reference checks missing, e.g. {sorted(missing)[0]}")
    if code != 0 or not passed:
        problems.append(f"exit code {code}, passed={payload['passed']!r}")
        failed = max(failed, 1)
    return len(gated.keys() | expected), failed, problems
