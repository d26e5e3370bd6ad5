"""Pinned output digests: the exact core must keep its outputs byte-identical.

The expected digests were computed before the fast-path constructors,
the binomial ``shift`` and the cached Hermite rows were introduced.  A
speed change that alters any coefficient, any ordering or any verdict
of these small seeded corpora changes a digest and fails here.
"""

import hashlib
import json
import random
from fractions import Fraction

from gauss_rinv.adjoint import run_identity_battery
from gauss_rinv.hermite import WeightSpec, monomial_to_hermite
from gauss_rinv.polynomials import random_polynomial

BATTERY_SHA256 = "f2c4c791115d06d1035fb29031a36e21c5c1d2644165422eca440e50c7edb9d0"
CONVERSION_SHA256 = "67467ea262849db33096a45c0462fec0ec679980100d74b3c2061c0358ac3125"

# Unit, scaled, off-center and scaled off-center weights in n = 1, 2, 3.
WEIGHTS = (
    WeightSpec.unit(2),
    WeightSpec(1, Fraction(3, 2), (Fraction(1, 3),)),
    WeightSpec(2, Fraction(1, 4), (Fraction(-1, 2), Fraction(2))),
    WeightSpec(3, Fraction(5), (Fraction(0), Fraction(1, 5), Fraction(-3, 7))),
    WeightSpec(2, Fraction(2), ()),
)


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def conversion_documents() -> list[dict]:
    """monomial_to_hermite, to_polynomial and shift on seeded polynomials."""
    rng = random.Random(20191)
    docs = []
    for weight in WEIGHTS:
        for _ in range(3):
            p = random_polynomial(rng, weight.dim, max_degree=6, max_terms=8)
            expansion = monomial_to_hermite(p, weight)
            docs.append({
                "hermite": expansion.to_json_dict(),
                "back": expansion.to_polynomial().to_json_dict(),
                "shifted": p.shift(weight.center).to_json_dict(),
            })
    return docs


def test_battery_digest_pinned():
    results = run_identity_battery(seed=42, cases_per_identity=3, weight_cases=2)
    assert _sha256(results) == BATTERY_SHA256


def test_conversion_digest_pinned():
    assert _sha256(conversion_documents()) == CONVERSION_SHA256
