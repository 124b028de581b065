"""Run the closed-form and bound verifications at reduced sizes.

The full battery (kronspec theory) uses 1000 sweep graphs and 100
Monte-Carlo draws. Those are the only sizes a caller sets, and here they
are scaled down to 100 and 20; every check still runs: mean/RMS closed
forms, the staircase limit, the asymptotic inequality grid, the four-level
expected spectrum, estimator nonnegativity, the ER expectation of r(1,j),
the colinearity identity, the exact normalized-product decomposition, and
the degree-index lower bound (corrected form; the claimed form's slack is
reported too).
"""

import json

from kronspec.checks import theory_suite

report = theory_suite(output_dir="demos_out/theory", seed=5, draws=20, graphs=100)

for name in sorted(report):
    entry = report[name]
    if not isinstance(entry, dict) or "pass" not in entry:
        continue
    observed = entry["observed"]
    if isinstance(observed, dict):
        observed = {
            k: (float(f"{v:.3g}") if isinstance(v, float) else v) for k, v in observed.items()
        }
    elif isinstance(observed, float):
        observed = float(f"{observed:.6g}")
    print(f"{'PASS' if entry['pass'] else 'FAIL'}  {name:28s} {json.dumps(observed)}")

print("\nfull report at demos_out/theory/theory_report.json")
