import numpy as np
import pytest
import scipy.sparse as sp

import mapdyn.blas as blas
import mapdyn.estimator as estimator
from mapdyn.estimator import NotPositiveDefiniteError

from oracles import factorized

ROUTES = blas.bundled_lapack()
needs_openblas = pytest.mark.skipif(not ROUTES, reason="no bundled OpenBLAS exports dpotrf/dtrtri")


def spd_stack(rng, samples, width):
    a = rng.normal(0.0, 1.0, (samples, width, width))
    return a @ a.transpose(0, 2, 1) + width * np.eye(width)


def run(route, stack):
    blocks = stack.copy()
    return route(blocks), blocks


@needs_openblas
@pytest.mark.parametrize("width", [1, 6, 26])
def test_openblas_routes_match_scipy(rng, width):
    """Every route of scipy's bundled copy against scipy.linalg.lapack's
    wrappers, which call that very library: bit for bit."""
    stack = spd_stack(rng, 9, width)
    failed_scipy, theirs = run(blas.ScipyCholeskyInverse(), stack)
    assert failed_scipy is None
    lower = np.tril(np.ones((width, width), dtype=bool))
    for route in ROUTES:
        failed, ours = run(route, stack)
        assert failed is None
        assert ours.tobytes() == theirs.tobytes(), route.library
        # the strict upper triangle is left as it was
        assert np.array_equal(ours[:, ~lower], stack[:, ~lower])
    # the lower triangle is the inverse of the lower Cholesky factor
    expected = np.linalg.inv(np.linalg.cholesky(stack))
    np.testing.assert_allclose(np.where(lower, theirs, 0.0), expected, rtol=1e-10, atol=1e-14)


@needs_openblas
def test_openblas_route_writes_the_blocks_of_a_panel_view(rng):
    """Blocks cut from the top of taller panels, as the solver passes them:
    only the blocks change, each at its own place."""
    width = 6
    stack = spd_stack(rng, 5, width)
    panels = rng.normal(0.0, 1.0, (5, width + 4, width))
    panels[:, :width] = stack
    below = panels[:, width:].copy()
    assert blas.cholesky_inverse()(panels[:, :width]) is None
    _, expected = run(blas.ScipyCholeskyInverse(), stack)
    assert panels[:, :width].tobytes() == expected.tobytes()
    assert panels[:, width:].tobytes() == below.tobytes()


@needs_openblas
def test_solver_route_is_the_first_bundled_one():
    assert blas.cholesky_inverse().library == ROUTES[0].library


@needs_openblas
def test_openblas_route_rejects_blocks_it_cannot_pass(rng):
    stack = spd_stack(rng, 3, 6)
    for blocks in (stack.transpose(0, 2, 1), stack[:, :, :5], stack.astype(np.float32)):
        with pytest.raises(ValueError, match="C-contiguous"):
            blas.cholesky_inverse()(blocks)
    stack.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        blas.cholesky_inverse()(stack)


def test_lookup_without_symbols_falls_back_to_scipy(monkeypatch):
    monkeypatch.setattr(blas, "_LAPACK_SYMBOLS", ())
    assert isinstance(blas.cholesky_inverse.__wrapped__(), blas.ScipyCholeskyInverse)


@needs_openblas
def test_failing_minor_is_reported_alike_on_every_route(rng, monkeypatch):
    routes = ROUTES + [blas.ScipyCholeskyInverse()]
    stack = spd_stack(rng, 4, 6)
    stack[2, 3, 3] = -1.0  # the leading minor of order 4 of sample 2
    assert [run(route, stack)[0] for route in routes] == [(2, 4)] * len(routes)

    # through the solver: the same pivot column in the caller's ordering
    dense = np.eye(5)
    dense[2, 3] = dense[3, 2] = 2.0
    columns = []
    for route in routes:
        monkeypatch.setattr(estimator, "cholesky_inverse", lambda route=route: route)
        with pytest.raises(NotPositiveDefiniteError) as err:
            factorized(sp.csc_matrix(dense))
        columns.append(err.value.pivot_index)
    assert columns == [3] * len(routes)
