import threading

import numpy as np
import pytest

from ulln.quadrature import gauss_hermite, gauss_hermite_tensor, gauss_legendre, legendre_panels


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
