"""Downscaled version of the prediction / sign-recovery study.

The full experiment (p=3000, n=1000, 100 replications per covariance)
lives behind `ulln experiment` with the bundled config; this demo runs a
p=300, n=100 miniature with 10 replications so the whole pipeline can be
watched in under a minute.  The qualitative picture already shows at
this scale: the identity design overfits (perfect training precision,
weak test precision) while the fast-decaying spectrum does not.

Run:  python demos/reproduce_tables_small.py
"""
import time

from ulln.experiments import (
    StudyConfig,
    run_studies,
    write_replications,
    write_table1,
    write_table2,
)
from ulln.solver import SolverOptions

start = time.time()
cfg = StudyConfig(
    p=300,
    n=100,
    n_test=100,
    beta=1e3,
    R=1.0,
    replications=10,
    base_seed=7,
    solver_opts=SolverOptions(max_iters=800, grad_map_tol=1e-7),
)
# one draw per replicate serves both spectra
studies = run_studies(cfg, threads=2)
for cov_kind, study in studies.items():
    means = study.means()
    print(f"--- {cov_kind} spectrum ---")
    print(f"  train precision : {means['train_precision']:.5f}")
    print(f"  test precision  : {means['test_precision']:.5f}")
    print(f"  |train - test|  : {means['abs_diff']:.5f}")
    print(f"  sign recovery   : first10={means['sign_recovery_10']:.3f} "
          f"first100={means['sign_recovery_100']:.3f} all={means['sign_recovery_all']:.3f} "
          f"weighted={means['sign_recovery_weighted']:.3f}")

write_table1("demo_table1.csv", studies["reciprocal"], studies["identity"])
write_table2("demo_table2.csv", studies["reciprocal"], studies["identity"])
write_replications("demo_replications.csv", studies)
print(f"\nwrote demo_table1.csv / demo_table2.csv / demo_replications.csv in {time.time() - start:.1f}s")
print("full-scale run: ulln experiment src/ulln/configs/table_reproduction.json out/")
