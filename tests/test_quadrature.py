import math
import threading

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from ulln.model import sigmoid, sigmoid_derivative, softplus
from ulln.quadrature import WEIGHT_FLOOR, gauss_hermite, gauss_hermite_tensor, gauss_legendre, legendre_panels


def _full_rule(n):
    """The n-node Gauss-Hermite rule for N(0, 1) with every node kept."""
    z, w = hermegauss(n)
    return z, w / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("n, kept", [(48, 38), (128, 66), (180, 78), (256, 94)])
def test_pruned_rule_is_symmetric_and_drops_below_1e19_of_mass(n, kept):
    z, w = gauss_hermite(n)
    assert z.size == w.size == kept
    assert np.array_equal(z, -z[::-1])
    assert np.array_equal(w, w[::-1])
    assert w.min() >= WEIGHT_FLOOR
    # the kept weights are those of the full rule, so the fsum of the difference is the dropped mass
    dropped = math.fsum([*_full_rule(n)[1], *-w])
    assert 0.0 <= dropped < 1e-19


GAP_INTEGRANDS = {"softplus": softplus, "sigmoid": sigmoid, "sigmoid_derivative": sigmoid_derivative}


@pytest.mark.parametrize("n", [48, 128])
@pytest.mark.parametrize("integrand", sorted(GAP_INTEGRANDS))
def test_pruned_means_of_the_gap_integrands_match_the_full_rule(n, integrand):
    # f(mu + a z) for the mu and the largest a = sqrt(t lambda) of the g suite; each difference of means is one
    # fsum over both rules, so it is the dropped nodes' share, free of the rounding of either mean
    f, (z_full, w_full), (z, w) = GAP_INTEGRANDS[integrand], _full_rule(n), gauss_hermite(n)
    for mu in np.linspace(-3.0, 3.0, 13):
        for a in (0.25, 1.0, 2.0, 3.6):
            difference = math.fsum([*(w_full * f(mu + a * z_full)), *-(w * f(mu + a * z))])
            assert abs(difference) <= 1e-17, (mu, a, difference)


def test_pruned_tensor_keeps_the_products_above_the_floor():
    nodes, weights = gauss_hermite_tensor(128, 2)
    assert nodes.shape == (3260, 2) and weights.shape == (3260,)
    assert weights.min() >= WEIGHT_FLOOR
    assert abs(math.fsum(weights) - 1.0) <= 1e-15
    z, w = gauss_hermite(128)
    i, j = np.searchsorted(z, nodes[:, 0]), np.searchsorted(z, nodes[:, 1])
    assert np.array_equal(z[i], nodes[:, 0]) and np.array_equal(z[j], nodes[:, 1])
    assert np.array_equal(weights, w[i] * w[j])


def test_threads_asking_at_once_share_one_build():
    gauss_hermite.cache_clear()
    gauss_hermite_tensor.cache_clear()
    barrier = threading.Barrier(4)
    rules = [None] * 4

    def ask(i):
        barrier.wait()
        rules[i] = gauss_hermite_tensor(96, 2)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert gauss_hermite_tensor.cache_info().misses == 1
    assert gauss_hermite.cache_info().misses == 1
    nodes, weights = rules[0]
    assert all(rule[0] is nodes and rule[1] is weights for rule in rules)


def test_rules_keep_their_cache_controls():
    gauss_legendre.cache_clear()
    first = gauss_legendre(7)
    assert gauss_legendre(7) is first
    info = gauss_legendre.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert gauss_legendre.__name__ == "gauss_legendre"
    assert gauss_legendre.__module__ == "ulln.quadrature"


@pytest.mark.parametrize("a, b, panels, n", [
    (0.0, 3.0**0.5, 1, 128),
    (3.0**0.5, 12.0, 1, 128),
    (0.0, 0.7, 8, 12),
    (-1.3, 2.9, 16, 24),
])
def test_legendre_panels_is_the_per_panel_map_bit_for_bit(a, b, panels, n):
    x, w = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    want_x = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in zip(edges[:-1], edges[1:])])
    want_w = np.concatenate([0.5 * (hi - lo) * w for lo, hi in zip(edges[:-1], edges[1:])])
    got_x, got_w = legendre_panels(a, b, panels, n)
    assert got_x.tobytes() == want_x.tobytes()
    assert got_w.tobytes() == want_w.tobytes()



@pytest.mark.parametrize("panels", [0, -2])
def test_legendre_panels_needs_a_panel(panels):
    with pytest.raises(ValueError, match="panel count must be >= 1"):
        legendre_panels(0.0, 1.0, panels, 5)
