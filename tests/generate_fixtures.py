"""Regenerate the reference-value fixtures under tests/fixtures/.

Run from the repository root (the PYTHONPATH is not needed when fracsurf is
installed):

    PYTHONPATH=src python tests/generate_fixtures.py

The sphere-series references are computed from the plain (unwindowed)
alternating series with repeated averaging of the partial sums, a method
independent of the windowed evaluation in fracsurf.oracle. Values are written
with 17 significant digits together with a manifest describing the method.
"""

import json
import os

import numpy as np

from fracsurf.oracle import legendre_at_zero

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

ALPHAS = (0.01, 0.3, 0.5, 0.7, 0.99)
X3S = (1.0, 0.6, -0.35)
TERMS = 200000
ROUNDS = 12


def averaged_series_value(alpha: float, x3: float, terms: int = TERMS,
                          rounds: int = ROUNDS) -> float:
    """Series value by repeated averaging of the partial sums (no window)."""
    k = np.arange(terms)
    n = 2 * k + 1
    p0 = legendre_at_zero(2 * terms + 2)
    coeffs = p0[2 * k] - p0[2 * k + 2]
    pn = np.empty(terms)
    p_prev, p_cur = 1.0, x3
    for j in range(1, 2 * terms + 1):
        if j % 2 == 1:
            pn[(j - 1) // 2] = p_cur
        p_prev, p_cur = p_cur, ((2 * j + 1) * x3 * p_cur - j * p_prev) / (j + 1)
    partial = np.cumsum(coeffs * (n * (n + 1.0)) ** (-alpha) * pn)
    tail = partial[-50000:]
    for _ in range(rounds):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[-1])


def main() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    rows = []
    for alpha in ALPHAS:
        for x3 in X3S:
            rows.append((alpha, x3, averaged_series_value(alpha, x3)))
    csv_path = os.path.join(FIXTURE_DIR, "sphere_series_reference.csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("alpha,x3,value\n")
        for alpha, x3, value in rows:
            fh.write(f"{alpha:.17g},{x3:.17g},{value:.17g}\n")
    manifest = {
        "generator": "PYTHONPATH=src python tests/generate_fixtures.py",
        "method": "plain alternating series, repeated averaging of partial sums",
        "terms": TERMS,
        "averaging_rounds": ROUNDS,
        "outputs": ["sphere_series_reference.csv"],
    }
    with open(os.path.join(FIXTURE_DIR, "MANIFEST.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
