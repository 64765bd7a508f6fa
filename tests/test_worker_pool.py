"""One worker pool under decode_batch, MonteCarloEngine and StreamEngine.

Every parallel evaluation loop goes through :class:`repro.api.batch.WorkerPool`,
so the same decoder must behave the same way at every worker count: a
closure-registered decoder decodes at ``workers=2`` exactly as at
``workers=1``, and a bad argument or a failing factory raises the same
exception whether or not a process pool is involved.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import (
    DecoderSession,
    UnionFindConfig,
    decode_batch,
    decoder_spec,
    get_decoder,
    register_decoder,
    unregister_decoder,
)
from repro.api.batch import WorkerPool
from repro.evaluation import MonteCarloEngine, StreamEngine, estimate_logical_error_rate
from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="closure factories reach worker processes only when they are forked",
)


@pytest.fixture(scope="module")
def graph():
    return surface_code_decoding_graph(3, circuit_level_noise(0.03))


@pytest.fixture
def closure_decoder():
    """A decoder registered with a closure factory (cannot be pickled)."""
    base = decoder_spec("union-find").factory

    def factory(graph, config):
        return base(graph, config)

    register_decoder("closure-union-find", factory, UnionFindConfig)
    yield "closure-union-find"
    unregister_decoder("closure-union-find")


@pytest.fixture
def failing_decoder():
    def factory(graph, config):
        raise ValueError("factory refuses this graph")

    register_decoder("failing-factory", factory, UnionFindConfig)
    yield "failing-factory"
    unregister_decoder("failing-factory")


def _view(outcomes, graph):
    return [
        (sorted(o.correction_edges(graph)), o.defect_count, sorted(o.counters.items()))
        for o in outcomes
    ]


@fork_only
def test_closure_registered_decoder_runs_at_two_workers(graph, closure_decoder):
    shots = [s for s in SyndromeSampler(graph, seed=4).sample_batch(60) if s.defects]
    assert len(shots) > 4
    batches = {
        workers: decode_batch(graph, closure_decoder, shots, workers=workers)
        for workers in (1, 2)
    }
    assert _view(batches[2].outcomes, graph) == _view(batches[1].outcomes, graph)
    assert batches[2].counters == batches[1].counters

    sessions = {
        workers: DecoderSession(graph, closure_decoder).decode_batch(shots, workers=workers)
        for workers in (1, 2)
    }
    assert _view(sessions[2].outcomes, graph) == _view(sessions[1].outcomes, graph)
    assert _view(sessions[1].outcomes, graph) == _view(batches[1].outcomes, graph)

    estimates = {
        workers: estimate_logical_error_rate(
            graph,
            closure_decoder,
            200,
            sampler=SyndromeSampler(graph, seed=9),
            workers=workers,
        )
        for workers in (1, 2)
    }
    assert estimates[1] == estimates[2]
    assert estimates[1].samples == 200


@pytest.mark.parametrize("workers", (1, 2))
def test_argument_and_build_errors_do_not_depend_on_workers(graph, failing_decoder, workers):
    with pytest.raises(ValueError, match="commit_depth requires a finite window"):
        StreamEngine(graph, "micro-blossom", commit_depth=2, workers=workers)

    with pytest.raises(ValueError, match="factory refuses this graph"):
        MonteCarloEngine(graph, failing_decoder, workers=workers).run(64, seed=1)
    shots = SyndromeSampler(graph, seed=1).sample_batch(8)
    with pytest.raises(ValueError, match="factory refuses this graph"):
        decode_batch(graph, failing_decoder, shots, workers=workers)

    instance = get_decoder("union-find", graph)
    with pytest.raises(TypeError, match="decoder instance"):
        MonteCarloEngine(graph, instance, config=UnionFindConfig(), workers=workers)


@pytest.mark.parametrize("workers", (1, 2))
def test_pool_returns_results_in_input_order(workers):
    with WorkerPool(workers, _square_fn) as pool:
        assert pool.map(list(range(7))) == [n * n for n in range(7)]
        assert pool.map([]) == []


def _square_fn():
    return lambda n: n * n
