"""Generated single-mutation tests of the BENCH document validators.

Every key path of a filled ``BENCH_service.json`` document and of a mixed
``BENCH_sweep.json`` document is deleted, or its value replaced by each of
a few wrong-typed values.  Each mutated document must either validate or
raise that document's schema error — never another exception, because the
CLI gates catch only the schema error.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceBenchSchemaError, validate_service_bench
from repro.sweeps import BenchSchemaError, SweepSpec, bench_document, run_sweep, validate_bench

_DELETE = object()
_REPLACEMENTS = (None, -1, "", [], {}, True)


def _paths(node, path=()):
    """Every key path below ``node``: object keys and array indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(node, path, value):
    """A copy of ``node`` with the value at ``path`` replaced or deleted.

    Only the containers along ``path`` are copied; the rest is shared.
    """
    key, rest = path[0], path[1:]
    copy = list(node) if isinstance(node, list) else dict(node)
    if rest:
        copy[key] = _mutated(node[key], rest, value)
    elif value is _DELETE:
        del copy[key]
    else:
        copy[key] = value
    return copy


def _single_mutations(document):
    for path in _paths(document):
        for value in (_DELETE, *_REPLACEMENTS):
            yield path, value, _mutated(document, path, value)


@pytest.fixture(scope="module")
def mixed_sweep_document():
    """A ``BENCH_sweep.json`` document with plain, ``lut+``, zero-failure
    and streaming points, latency summaries and threshold fits.

    ``lut+`` decoders have no timing model, so the latency points come from
    a second sweep and are appended.  Tests must copy it before mutating it.
    """
    lut_run = run_sweep(
        SweepSpec("mixed", (3, 5), (0.03,), ("union-find", "lut+union-find"), shots=32, seed=2)
    )
    latency_run = run_sweep(
        SweepSpec(
            "mixed-latency",
            (3,),
            (0.03,),
            ("union-find",),
            shots=16,
            seed=2,
            collect_latency=True,
            streaming=(False, True),
        )
    )
    document = bench_document(lut_run, commit="abc", timestamp="t")
    document["points"] += bench_document(latency_run, commit="abc", timestamp="t")["points"]
    return document


@pytest.mark.parametrize(
    "fixture, validate, error",
    [
        ("filled_service_document", validate_service_bench, ServiceBenchSchemaError),
        ("mixed_sweep_document", validate_bench, BenchSchemaError),
    ],
)
def test_every_single_mutation_validates_or_raises_the_schema_error(
    request, fixture, validate, error
):
    document = request.getfixturevalue(fixture)
    validate(document)
    mutations = list(_single_mutations(document))
    crashes = []
    for path, value, mutated in mutations:
        try:
            validate(mutated)
        except error:
            pass
        except Exception as exc:  # any other class escapes the CLI's schema gate
            label = "deleted" if value is _DELETE else f"= {value!r}"
            crashes.append(f"{'.'.join(map(str, path))} {label}: {type(exc).__name__}: {exc}")
    assert len(mutations) > 1000
    report = "\n".join(crashes)
    assert not crashes, f"{len(crashes)} of {len(mutations)} mutations crashed:\n{report}"
