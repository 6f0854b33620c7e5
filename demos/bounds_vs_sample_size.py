"""How the three uniform concentration bounds behave as n grows.

We track the scenario where the effective rank grows as r(n) = n / log n
(unit spectral norm, Gaussian design constant K = sqrt(2), radius R = 1)
and the failure probability shrinks as delta = 1/n^2.  The four-term
bound keeps shrinking; the classical Rademacher/McDiarmid bound and its
subgaussian extension pick up an extra log n and stall.

Run:  python demos/bounds_vs_sample_size.py
"""
import math

from ulln import BoundParams, bounds, ulln_ratio_table

# n, the trace and delta given here are replaced at each point by the sweep's grid and rules
params = BoundParams(n=10**3, R=1.0, delta=1e-6, trace_sigma=1.0, norm_sigma=1.0, K=math.sqrt(2.0))
print(f"{'n':>12} {'r(n)':>12} {'r/n':>8} {'theorem':>9} {'classical':>10} {'extended':>9}")
for n, trace, _, reports in bounds.sweep(params, "all", 10**3, 10**12, 10,
                                         trace_rule="n_over_log_n", delta_rule="inverse_n_squared"):
    theorem, classical, extended = (report.total for _, report in reports)
    print(f"{n:>12.0e} {trace:>12.4g} {trace / n:>8.4f} {theorem:>9.4f} {classical:>10.4f} {extended:>9.4f}")

print()
print("Sufficiency diagnostics for the uniform law (want columns to vanish):")
table = ulln_ratio_table([(10**k, 10**k / math.log(10**k), 1.0) for k in range(2, 7)])
print(f"{'n':>10} {'r':>12} {'r/n':>10} {'r log n/n':>10}")
for n, r, ratio, log_ratio in table.rows:
    print(f"{n:>10.0f} {r:>12.2f} {ratio:>10.5f} {log_ratio:>10.5f}")
print(f"r/n strictly decreasing:        {table.r_over_n_decreasing}")
print(f"r log n / n strictly decreasing: {table.r_log_n_over_n_decreasing}")
