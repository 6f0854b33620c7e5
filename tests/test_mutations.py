"""Every identity check can fail: a table of small mutations of
`theory_checks`, each with the checks of `run_suite("all")` that must FAIL
under it.

Each mutation is patched with `monkeypatch`, so it also reaches the
replicate threads of `datagen.map_replicates`.  `CATALOG` holds its
functions by reference, so a mutation of sigma or sigma' replaces the
catalog entries that hold it as well as the module name.  A meta-test
requires every check name to appear in a row, or in NEVER_FAILS with the
reason no mutation here can move it.
"""
import pytest

from ulln import theory_checks
from ulln.theory_checks import CATALOG, CatalogFunction, run_suite


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _shifted(fn, offset):
    return lambda *args, **kwargs: fn(*args, **kwargs) + offset


def _in_place(fn, mutate):
    """Wrap a kernel that writes into and returns `out`, mutating `out` after it."""
    def wrapped(*args):
        out = fn(*args)
        mutate(out)
        return out
    return wrapped


def _weights_scaled(rule, factor):
    def wrapped(*args, **kwargs):
        nodes, weights = rule(*args, **kwargs)
        return nodes, weights * factor
    return wrapped


def sigma_prime_scaled(mp):
    derivative = _scaled(theory_checks.sigmoid_derivative, 1.01)
    mp.setattr(theory_checks, "sigmoid_derivative", derivative)
    mp.setattr(theory_checks, "_paired_sigma_prime",
               _in_place(theory_checks._paired_sigma_prime, lambda out: out.__imul__(1.01)))
    mp.setitem(CATALOG, "sigmoid", CatalogFunction(theory_checks.sigmoid, derivative))
    mp.setitem(CATALOG, "sigmoid_bump", CatalogFunction(derivative, theory_checks._sigmoid_second))


def sigma_shifted(mp):
    link = _shifted(theory_checks.sigmoid, 1e-4)
    mp.setattr(theory_checks, "sigmoid", link)
    mp.setattr(theory_checks, "_sigmoid_into",
               _in_place(theory_checks._sigmoid_into, lambda out: out.__iadd__(1e-4)))
    mp.setitem(CATALOG, "sigmoid", CatalogFunction(link, theory_checks.sigmoid_derivative))


def softplus_scaled(mp):
    # the logistic loss is a softplus, so it is scaled too
    mp.setattr(theory_checks, "softplus", _scaled(theory_checks.softplus, 1.001))
    mp.setattr(theory_checks, "per_example_loss", _scaled(theory_checks.per_example_loss, 1.001))
    mp.setattr(theory_checks, "_softplus_into",
               _in_place(theory_checks._softplus_into, lambda out: out.__imul__(1.001)))


def hermite_weights_scaled(mp):
    mp.setattr(theory_checks, "gauss_hermite", _weights_scaled(theory_checks.gauss_hermite, 1 + 1e-6))


def legendre_weights_scaled(mp):
    mp.setattr(theory_checks, "legendre_panels", _weights_scaled(theory_checks.legendre_panels, 1 + 1e-6))


def hermeval_shifted(mp):
    mp.setattr(theory_checks, "hermeval", _shifted(theory_checks.hermeval, 1e-6))


def log_density_variance_scaled(mp):
    logpdf = theory_checks._isotropic_logpdf
    mp.setattr(theory_checks, "_isotropic_logpdf", lambda w, mean, t: logpdf(w, mean, 1.01 * t))


class _ScaledNormals:
    """A generator whose `standard_normal` draws are scaled by `factor`; every other draw is the wrapped one's."""

    def __init__(self, rng, factor):
        self._rng, self._factor = rng, factor

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs) * self._factor

    def __getattr__(self, name):
        return getattr(self._rng, name)


def sampler_variance_scaled(mp):
    make_rng = theory_checks.make_rng
    mp.setattr(theory_checks, "make_rng", lambda seed: _ScaledNormals(make_rng(seed), 1.05))


def _hermite(names, ds=(0, 1, 2)):
    return {f"hermite:{name}:d{d}:first" for name in names for d in ds}


def _smoothing(names, ts=("0.1", "0.5", "1")):
    return {f"smoothing:{name}:t{t}" for name in names for t in ts}


ITO_LOGISTIC = {"ito:logistic:p1:t0.5", "ito:logistic:p3:t0.3"}
KL_SHIFTED = {"kl_shift:p2:t0.5", "kl_shift:p7:t0.3"}

# (mutation, the checks that must fail under it)
MUTATIONS = [
    (sigma_prime_scaled, _hermite(["sigmoid"], (0, 2)) | _hermite(["sigmoid_affine"]) | ITO_LOGISTIC),
    (sigma_shifted, _hermite(["sigmoid_bump"], (0, 2))),
    (softplus_scaled, ITO_LOGISTIC),
    (hermite_weights_scaled,
     _smoothing(["sigmoid", "sigmoid_bump", "sigmoid_affine"]) | {"ito:quadratic:p2:t0.8"} | KL_SHIFTED),
    (legendre_weights_scaled,
     _smoothing(["poly2", "poly4", "sigmoid_bump"]) | {"smoothing:sigmoid_affine:t1", "hermite3_abs_moment"}),
    (hermeval_shifted, _hermite(CATALOG)),
    (log_density_variance_scaled, KL_SHIFTED),
    (sampler_variance_scaled,
     {"ito:logistic:p1:t0.5:mc", "envelope:p4:t0.25:sphere", "envelope:p4:t0.25:origin"}),
]

# the checks no mutation above makes fail, and why
NEVER_FAILS = {
    **dict.fromkeys(_smoothing(["poly3"]), "both sides are 0 by odd symmetry"),
    "ito:logistic:p1:t1e-08": "both sides equal f(theta) up to 5e-9, against a tolerance of 1e-6",
    "kl_shift:p3:t1": "it sits at theta = 0, where the log-ratio is 0",
    "envelope:p4:t0.5:flat": "the zero covariance makes the equality half 0 = 0, and the hinge has 4x slack",
    "gap_centering:p2:n8:t0.5": "the gap is mean-zero under any scale error, so only the centering is tested",
    "expsup:p3:n50:R1:t1": "the hinge has 19x slack",
    "expsup:p3:n50:R0:t1": "at R = 0 the bound is 0 and the one probe is the origin, where the gap is mean-zero",
}


@pytest.mark.parametrize("mutate, must_fail", MUTATIONS, ids=[mutate.__name__ for mutate, _ in MUTATIONS])
def test_mutation_fails_its_checks(monkeypatch, mutate, must_fail):
    mutate(monkeypatch)
    failed = {report.name for report in run_suite("all") if not report.passed}
    assert sorted(must_fail - failed) == []


def test_every_check_has_a_mutation_or_a_reason():
    reports = run_suite("all")
    assert all(report.passed for report in reports)
    caught = set().union(*(must_fail for _, must_fail in MUTATIONS))
    assert caught.isdisjoint(NEVER_FAILS)
    assert {report.name for report in reports} == caught | set(NEVER_FAILS)
