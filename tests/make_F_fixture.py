"""Write tests/data/F_fixture.json: the slope integral F at 50 digits.

F(e^s) is the integral of phi(M) = M^(a*kappa - 1) * (c0 + c2*M^kappa)^-(a+b)
over (0, e^s], with c0 = a0 + b0, c2 = a2 + b2, a = a0/c0 and b = b2/c2
(a = 1/(kappa*beta0), b = 1/(kappa*beta2)).  With ln u = ln(c2/c0) +
kappa*s it equals I * I_t(a, b) at t = 1/(1 + 1/u), where I = c0^-b *
c2^-a * B(a, b) / kappa is its limit.  Everything here is computed with
mpmath from the parameters alone, so the fixture does not depend on the
package.  For ln u >= 0 the reference is I - I * I_(1-t)(b, a) with 1 - t
formed in mpmath: a direct incomplete Beta near t = 1 loses ~1e-10.

Each set stores I_inf and F at about 40 float slopes s, chosen so that
ln u covers [-24, 24] in steps of 1.5, reaches 300, lies at +-1e-3 and straddles the point where
I_(1-t)(b, a) = 1/2 (where the kernel switches between 1 - c and its
complement) when that point is positive and reachable.  tests/test_reduction.py
reads the JSON and needs no mpmath.

    python tests/make_F_fixture.py          # rewrite the fixture
    python tests/make_F_fixture.py --check  # exit 1 if it would change
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

PATH = Path(__file__).with_name("data") / "F_fixture.json"

# (a0, a2, b0, b2, kappa): P1, P2, beta2 = 497 (tiny a and b), b = 0.024
# with the midpoint at ln u = 28, and the set where the Gauss-Legendre
# table that F replaced was worst
SETS = [
    (1.0, 3.0, 2.0, 1.0, 2),
    (1.0, 1.0, 1.0, 2.0, 2),
    (0.02806, 32.49, 20.27, 0.01635, 4),
    (16.17, 29.47, 0.03274, 0.7384, 6),
    (51.62, 0.01913, 0.03304, 62.13, 2),
]

# the complement argument 1 - t = 1/(1 + u) must stay a normal double
_LN_U_MAX = 700


def _fixture_set(a0, a2, b0, b2, kappa):
    a0, a2, b0, b2 = (mp.mpf(v) for v in (a0, a2, b0, b2))
    c0, c2 = a0 + b0, a2 + b2
    a, b = a0 / c0, b2 / c2
    I = c0 ** (-b) * c2 ** (-a) * mp.beta(a, b) / kappa
    shift = mp.log(c2) - mp.log(c0)

    def upper(x):
        # I_x(b, a), x = 1 - t
        return mp.betainc(b, a, 0, x, regularized=True)

    ln_u = [mp.mpf(-24) + mp.mpf(3) * j / 2 for j in range(33)]
    ln_u += [mp.mpf(v) for v in ("-1e-3", "1e-3", "36", "100", "300")]
    mid = mp.findroot(
        lambda lu: upper(1 / (1 + mp.exp(lu))) - mp.mpf(1) / 2, (-50, 1000), solver="anderson"
    )
    if 0 < mid < _LN_U_MAX:
        ln_u += [mid + d for d in (mp.mpf("-0.5"), mp.mpf("-1e-3"), mp.mpf("1e-3"), mp.mpf("0.5"))]
    slopes, values = [], []
    for target in sorted(ln_u):
        s = float((target - shift) / kappa)
        lu = shift + kappa * mp.mpf(s)
        if lu < 0:
            F = I * mp.betainc(a, b, 0, 1 / (1 + mp.exp(-lu)), regularized=True)
        else:
            F = I - I * upper(1 / (1 + mp.exp(lu)))
        slopes.append(s)
        values.append(float(F))
    return {
        "params": [float(a0), float(a2), float(b0), float(b2), kappa],
        "I_inf": float(I),
        "s": slopes,
        "F": values,
    }


def build() -> dict:
    mp.mp.dps = 50
    return {
        "about": "F(e^s) and I_inf of the slope reduction at 50 digits; "
        "written by tests/make_F_fixture.py",
        "sets": [_fixture_set(*p) for p in SETS],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the file, write nothing")
    args = ap.parse_args(argv)
    text = json.dumps(build(), indent=1) + "\n"
    if args.check:
        if not PATH.exists() or PATH.read_text() != text:
            print(f"{PATH} differs from a regenerated fixture", file=sys.stderr)
            return 1
        print(f"{PATH} is up to date")
        return 0
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(text)
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
