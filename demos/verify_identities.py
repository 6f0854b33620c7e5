"""Walk through the numerical identity checks one suite at a time.

Each check compares an independently computed left and right side and
reports the residual against a stated tolerance; Monte Carlo based
checks use three standard errors.  The last suite, 'g', checks the
centered Laplacian gap and its expected-supremum bound.  `ulln verify all`
runs the same suites from the command line.

Run:  python demos/verify_identities.py
"""
from ulln.theory_checks import SUITE_NAMES, format_report, run_suite

for suite in SUITE_NAMES[1:]:
    reports = run_suite(suite)
    passed = sum(r.passed for r in reports)
    print(f"=== suite {suite!r}: {passed}/{len(reports)} passed ===")
    for report in reports:
        print(" ", format_report(report))
    print()
