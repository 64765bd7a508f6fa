"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the most common workflows without writing any Python:

* ``decode``     — sample and decode syndromes, verifying exactness;
* ``decoders``   — list registered backends with their capability flags;
* ``experiment`` — run one of the paper's experiments and print its table;
* ``resources``  — print the Table 4 resource model;
* ``accuracy``   — Monte-Carlo logical error rate of a decoder;
* ``latency``    — Monte-Carlo latency distribution under the timing models;
* ``stream``     — continuous-stream decoding: rounds pushed as they arrive,
  reaction-latency percentiles and backlog accounting (``docs/streaming.md``);
* ``sweep``      — declarative, resumable (d × noise × p × decoder ×
  streaming) sweeps with an on-disk result store and a ``BENCH_sweep.json``
  exporter (``run`` / ``resume`` / ``report`` / ``export-bench``, see
  ``docs/sweeps.md``);
* ``serve-bench`` — replay a seed-stable synthetic request trace through the
  micro-batching :class:`repro.service.DecodeService` and emit the
  schema-validated ``BENCH_service.json`` (throughput, queue-delay and
  end-to-end latency percentiles, batch-size histogram; ``docs/service.md``);
* ``serve-net``  — run a :class:`repro.service.net.NetServer` (``--serve``),
  or replay the pinned trace over loopback TCP and emit a
  ``BENCH_service.json`` with the saturation, process-scaling and wire
  blocks filled.

``serve-bench`` and ``serve-net`` exit non-zero on any row of
:data:`repro.service.SERVICE_BENCH_GATES` their written document fails.

``accuracy`` and ``latency`` run on the sharded
:class:`repro.evaluation.MonteCarloEngine`, ``stream`` on the
:class:`repro.evaluation.StreamEngine` (see ``docs/evaluation.md``): shots
are sampled in seed-stable shards and fanned out over ``--workers``
processes, with results independent of the worker count.

Decoders are resolved through the :mod:`repro.api` registry, so every backend
— including user-registered ones — is driven through the same typed
:class:`repro.api.Decoder` protocol.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from .api import available_decoders, decoder_spec, get_decoder
from .api.bench_schema import failed_gates
from .evaluation import (
    DECODERS_WITH_TIMING_MODELS,
    DEFAULT_LOAD_CONFIG,
    MonteCarloEngine,
    ServiceLoadEngine,
    StreamEngine,
    amdahl_profile,
    effective_error_grid,
    estimate_logical_error_rate,
    format_rows,
    improvement_breakdown,
    latency_sweep,
    modelled_latency_fn,
    resource_usage_table,
    stream_vs_batch,
)
from .graphs import SyndromeSampler, noise_model_by_name, surface_code_decoding_graph
from .matching import ReferenceDecoder
from .service import (
    HOSTILE_SMOKE_PLAN,
    HOSTILE_SMOKE_TRACES,
    SERVICE_BENCH_GATES,
    SMOKE_TRACE,
    WIRE_SPEEDUP_FLOOR,
    CodeSpec,
    FaultPlan,
    ServiceBenchSchemaError,
    ServiceConfig,
    TraceSpec,
    cache_comparison_entry,
    hostile_mix_entry,
    make_trace,
    saturation_entry,
    service_bench_document,
    wire_entry,
    write_service_bench,
)
from .sweeps import (
    SMOKE_SPEC,
    BenchSchemaError,
    ResultStore,
    StoreError,
    SweepSpec,
    bench_document,
    fit_sweep_scaling,
    make_spec,
    report_rows,
    run_sweep,
    write_bench,
)

EXPERIMENTS = {
    "figure2": (
        amdahl_profile,
        ["distance", "dual_fraction", "primal_fraction", "potential_speedup"],
    ),
    "figure9": (
        latency_sweep,
        ["decoder", "distance", "physical_error_rate", "mean_latency_us"],
    ),
    "figure10a": (
        improvement_breakdown,
        ["configuration", "distance", "mean_latency_us", "speedup_vs_cpu"],
    ),
    "figure10b": (
        stream_vs_batch,
        ["rounds", "batch_latency_us", "stream_latency_us"],
    ),
    "figure11": (
        effective_error_grid,
        [
            "distance",
            "physical_error_rate",
            "helios_ratio",
            "parity-blossom_ratio",
            "micro-blossom_ratio",
            "best_decoder",
        ],
    ),
    "table4": (
        resource_usage_table,
        ["distance", "num_vertices", "num_edges", "luts", "paper_luts", "clock_mhz"],
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Micro Blossom reproduction: MWPM decoding for QEC",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decode = subparsers.add_parser("decode", help="sample and decode syndromes")
    decode.add_argument("--distance", type=int, default=5)
    decode.add_argument("--error-rate", type=float, default=0.005)
    decode.add_argument("--noise", default="circuit_level")
    decode.add_argument("--samples", type=int, default=5)
    decode.add_argument("--seed", type=int, default=0)
    decode.add_argument(
        "--decoder", choices=available_decoders(), default="micro-blossom"
    )

    subparsers.add_parser(
        "decoders", help="list registered decoders and their capabilities"
    )

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    subparsers.add_parser("resources", help="print the Table 4 resource model")

    accuracy = subparsers.add_parser(
        "accuracy", help="Monte-Carlo logical error rate of a decoder"
    )
    accuracy.add_argument("--distance", type=int, default=3)
    accuracy.add_argument("--error-rate", type=float, default=0.02)
    accuracy.add_argument("--noise", default="circuit_level")
    accuracy.add_argument("--samples", type=int, default=200)
    accuracy.add_argument("--seed", type=int, default=0)
    accuracy.add_argument(
        "--decoder", choices=available_decoders(), default="micro-blossom"
    )
    accuracy.add_argument(
        "--workers",
        type=int,
        default=1,
        help="decode the sampled syndromes over this many worker processes",
    )
    accuracy.add_argument(
        "--shard-size",
        type=int,
        default=256,
        help="shots per seed-stable shard of the Monte-Carlo engine",
    )
    accuracy.add_argument(
        "--target-se",
        type=float,
        default=None,
        help="stop early once the standard error reaches this target",
    )

    latency = subparsers.add_parser(
        "latency",
        help="Monte-Carlo latency distribution under the published timing models",
    )
    latency.add_argument("--distance", type=int, default=5)
    latency.add_argument("--error-rate", type=float, default=0.001)
    latency.add_argument("--noise", default="circuit_level")
    latency.add_argument("--samples", type=int, default=200)
    latency.add_argument("--seed", type=int, default=0)
    latency.add_argument(
        "--decoder",
        choices=list(DECODERS_WITH_TIMING_MODELS),
        default="micro-blossom",
        help="decoders with a published timing model",
    )
    latency.add_argument("--workers", type=int, default=1)
    latency.add_argument("--shard-size", type=int, default=256)

    stream = subparsers.add_parser(
        "stream",
        help="continuous-stream decoding: reaction latency and backlog "
        "under round-by-round syndrome arrival",
    )
    stream.add_argument("--distance", type=int, default=5)
    stream.add_argument("--error-rate", type=float, default=0.002)
    stream.add_argument("--noise", default="circuit_level")
    stream.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="measurement rounds per shot (default: the code distance)",
    )
    stream.add_argument("--samples", type=int, default=200)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--decoder",
        choices=list(DECODERS_WITH_TIMING_MODELS),
        default="micro-blossom",
        help="decoders with a published timing model",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=None,
        help="sliding-window size for adapter-streamed backends "
        "(default: unbounded, exactness-preserving)",
    )
    stream.add_argument(
        "--commit-depth",
        type=int,
        default=None,
        help="rounds behind the window base after which decisions freeze",
    )
    stream.add_argument("--workers", type=int, default=1)
    stream.add_argument(
        "--shard-size",
        type=int,
        default=256,
        help="shots per seed-stable shard (= per concurrent logical-qubit stream)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="declarative, resumable evaluation sweeps (see docs/sweeps.md)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_store(sub, required: bool) -> None:
        sub.add_argument(
            "--store",
            required=required,
            default=None,
            help="JSON-lines result store (completed points are never re-run)",
        )

    run = sweep_sub.add_parser(
        "run", help="run every point of a sweep spec, resuming from the store"
    )
    add_store(run, required=False)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument(
        "--smoke",
        action="store_true",
        help="use the pinned CI smoke spec instead of flags/--spec",
    )
    run.add_argument("--spec", default=None, help="JSON sweep spec file")
    run.add_argument("--name", default="sweep")
    run.add_argument("--distances", default="3,5", help="comma-separated odd distances")
    run.add_argument("--error-rates", default="0.01,0.02", help="comma-separated rates")
    run.add_argument(
        "--decoders", default="micro-blossom", help="comma-separated registry names"
    )
    run.add_argument(
        "--noise-models", default="circuit_level", help="comma-separated noise names"
    )
    run.add_argument("--shots", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--shard-size", type=int, default=256)
    run.add_argument(
        "--target-se",
        type=float,
        default=None,
        help="per-point early-stopping target standard error",
    )
    run.add_argument(
        "--latency",
        action="store_true",
        help="collect latency histograms under the published timing models",
    )
    run.add_argument(
        "--streaming",
        action="store_true",
        help="add the streaming axis: run every cell batch AND streamed "
        "(reaction-latency percentiles on the same seeds)",
    )
    run.add_argument(
        "--lut",
        action="store_true",
        help="add a lut+<decoder> variant of every decoder on the axis "
        "(LUT hit rate and speedup-vs-fallback land in BENCH_sweep.json)",
    )

    resume = sweep_sub.add_parser(
        "resume",
        help="continue an interrupted sweep from its store (spec is read "
        "from the store, no flags needed)",
    )
    add_store(resume, required=True)
    resume.add_argument("--workers", type=int, default=1)

    report = sweep_sub.add_parser(
        "report", help="tabulate stored results (zero-failure points as bounds)"
    )
    add_store(report, required=True)

    export = sweep_sub.add_parser(
        "export-bench",
        help="emit the schema-validated BENCH_sweep.json performance trajectory",
    )
    add_store(export, required=True)
    export.add_argument("--output", default="BENCH_sweep.json")

    serve = subparsers.add_parser(
        "serve-bench",
        help="replay a synthetic request trace through the decode service "
        "and emit BENCH_service.json (see docs/service.md)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="use the pinned CI smoke trace instead of flags/--trace",
    )
    serve.add_argument("--trace", default=None, help="JSON trace spec file")
    serve.add_argument("--name", default="trace")
    serve.add_argument("--requests", type=int, default=256)
    serve.add_argument("--distances", default="3,5", help="comma-separated odd distances")
    serve.add_argument("--error-rates", default="0.02", help="comma-separated rates")
    serve.add_argument(
        "--decoders", default="micro-blossom", help="comma-separated registry names"
    )
    serve.add_argument(
        "--noise-models", default="circuit_level", help="comma-separated noise names"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--arrival",
        choices=("open", "closed"),
        default="open",
        help="open loop (scheduled arrivals) or closed loop (N clients)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop Poisson arrival rate in requests/sec "
        "(default: back-to-back)",
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="closed-loop concurrent callers"
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument(
        "--max-batch", type=int, default=16, help="micro-batch size flush bound"
    )
    serve.add_argument(
        "--max-wait-us",
        type=float,
        default=1000.0,
        help="micro-batch deadline flush bound (microseconds)",
    )
    serve.add_argument("--queue-capacity", type=int, default=1024)
    serve.add_argument(
        "--max-sessions", type=int, default=8, help="LRU bound on cached sessions"
    )
    serve.add_argument(
        "--policy",
        choices=("block", "shed"),
        default="block",
        help="overload policy at a full admission queue",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the direct-decode bit-identity check",
    )
    serve.add_argument(
        "--outcome-cache-bytes",
        type=int,
        default=0,
        help="byte budget of the content-addressed outcome cache "
        "(0 disables it; see docs/lut.md)",
    )
    serve.add_argument(
        "--compare-cache",
        action="store_true",
        help="replay the trace twice (outcome cache off, then on) and "
        "record the pair under cache_comparison; --smoke implies this",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-plan file injected into the primary replay "
        "(see docs/service.md)",
    )
    serve.add_argument(
        "--session-build-retries",
        type=int,
        default=2,
        help="retry budget for crashed session builds",
    )
    serve.add_argument(
        "--hostile-smoke",
        action="store_true",
        help="additionally replay the pinned hostile trace families under "
        "the pinned fault plan and record them as the hostile_mix series; "
        "fails on any non-isolated fault",
    )
    serve.add_argument("--output", default="BENCH_service.json")

    serve_net = subparsers.add_parser(
        "serve-net",
        help="serve the decode service over TCP with multi-process workers, "
        "or run the network digest/scaling smoke (see docs/service.md)",
    )
    net_mode = serve_net.add_mutually_exclusive_group(required=True)
    net_mode.add_argument(
        "--serve",
        action="store_true",
        help="run a standalone server until SIGTERM/SIGINT (graceful drain)",
    )
    net_mode.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: replay the pinned trace over loopback at each "
        "--processes count, sweep the closed-loop saturation ladder, compare "
        "the binary-v2 wire against per-request JSON-v1 framing, and emit a "
        "BENCH_service document with the saturation and wire blocks; fails "
        "on any SERVICE_BENCH_GATES row (digest identity against in-process "
        "serving, the wire speedup floor)",
    )
    serve_net.add_argument(
        "--config",
        default=None,
        help="ServiceConfig JSON file (defaults to the serve-bench sizing: "
        "max_batch_size=16, max_wait_seconds=0.001)",
    )
    serve_net.add_argument("--host", default="127.0.0.1")
    serve_net.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve_net.add_argument(
        "--processes",
        default=None,
        help="worker process count (--serve, default 2) or comma-separated "
        "counts to sweep (--smoke, default 1,2,4)",
    )
    serve_net.add_argument(
        "--client-ladder",
        default="1,2,4,8",
        help="closed-loop client counts the saturation sweep climbs (--smoke)",
    )
    serve_net.add_argument(
        "--prewarm-distances",
        default="3,5",
        help="comma-separated distances packed into shared memory (--serve)",
    )
    serve_net.add_argument(
        "--prewarm-error-rates",
        default="0.02,0.03",
        help="comma-separated error rates crossed with --prewarm-distances",
    )
    serve_net.add_argument("--output", default="BENCH_service_net.json")
    return parser


def _command_decode(args: argparse.Namespace) -> int:
    graph = surface_code_decoding_graph(
        args.distance, noise_model_by_name(args.noise, args.error_rate)
    )
    sampler = SyndromeSampler(graph, seed=args.seed)
    decoder = get_decoder(args.decoder, graph)
    reference = ReferenceDecoder(graph)
    rows = []
    for index in range(args.samples):
        syndrome = sampler.sample()
        outcome = decoder.decode_detailed(syndrome)
        correction = outcome.correction_edges(graph)
        row = {
            "sample": index,
            "defects": syndrome.defect_count,
            "correction_edges": len(correction),
            "weight": "-",
            "optimal": "-",
        }
        if outcome.is_exact:
            row["weight"] = outcome.weight
            row["optimal"] = reference.decode(syndrome).weight
        rows.append(row)
    print(format_rows(rows, ["sample", "defects", "correction_edges", "weight", "optimal"]))
    return 0


def _command_decoders(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_decoders():
        spec = decoder_spec(name)
        caps = spec.capabilities
        rows.append(
            {
                "name": name,
                "streaming": "native" if caps.native_streaming else "adapter",
                "timing_model": "yes" if name in DECODERS_WITH_TIMING_MODELS else "no",
                "exact": "yes" if caps.exact else "no",
                "lut": "yes" if caps.lut_predecode else "no",
                "description": spec.description,
            }
        )
    print(
        format_rows(
            rows,
            ["name", "streaming", "timing_model", "exact", "lut"],
        )
    )
    for row in rows:
        print(f"  {row['name']}: {row['description']}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    runner, columns = EXPERIMENTS[args.name]
    rows = runner()
    print(format_rows(rows, columns))
    return 0


def _command_resources(_args: argparse.Namespace) -> int:
    rows = resource_usage_table()
    print(
        format_rows(
            rows,
            ["distance", "num_vertices", "num_edges", "luts", "paper_luts", "clock_mhz"],
        )
    )
    return 0


def _command_accuracy(args: argparse.Namespace) -> int:
    graph = surface_code_decoding_graph(
        args.distance, noise_model_by_name(args.noise, args.error_rate)
    )
    estimate = estimate_logical_error_rate(
        graph,
        args.decoder,
        args.samples,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
        target_standard_error=args.target_se,
    )
    if estimate.zero_failures:
        # 0 errors in n shots is the degenerate estimate 0 ± 0; surface the
        # one-sided rule-of-three bound instead.
        rate_text = (
            f"logical_error_rate<={estimate.upper_bound:.4g} "
            f"(95% one-sided, rule of three; 0 errors observed)"
        )
    else:
        rate_text = (
            f"logical_error_rate={estimate.rate:.4g} "
            f"(+/- {estimate.standard_error:.2g})"
        )
    print(
        f"decoder={args.decoder} d={args.distance} p={args.error_rate} "
        f"samples={estimate.samples} errors={estimate.errors} {rate_text}"
    )
    return 0


def _command_latency(args: argparse.Namespace) -> int:
    graph = surface_code_decoding_graph(
        args.distance, noise_model_by_name(args.noise, args.error_rate)
    )
    engine = MonteCarloEngine(
        graph,
        args.decoder,
        shard_size=args.shard_size,
        workers=args.workers,
        latency_fn=modelled_latency_fn(args.decoder, graph),
    )
    result = engine.run(args.samples, seed=args.seed)
    histogram = result.histogram
    print(
        f"decoder={args.decoder} d={args.distance} p={args.error_rate} "
        f"shots={result.shots} decoded={result.decoded_shots} "
        f"logical_error_rate={result.rate:.4g}"
    )
    if histogram.count == 0:
        print(
            "latency_us n/a (no shot carried defects; raise --error-rate or "
            "--samples)"
        )
        return 0
    print(
        f"latency_us mean={histogram.mean * 1e6:.3f} "
        f"p50={histogram.percentile(50) * 1e6:.3f} "
        f"p99={histogram.percentile(99) * 1e6:.3f} "
        f"max={histogram.max_seconds * 1e6:.3f}"
    )
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    graph = surface_code_decoding_graph(
        args.distance,
        noise_model_by_name(args.noise, args.error_rate),
        rounds=args.rounds,
    )
    engine = StreamEngine(
        graph,
        args.decoder,
        window=args.window,
        commit_depth=args.commit_depth,
        shard_size=args.shard_size,
        workers=args.workers,
    )
    result = engine.run(args.samples, seed=args.seed)
    reaction = result.reaction
    print(
        f"decoder={args.decoder} d={args.distance} p={args.error_rate} "
        f"rounds={graph.num_layers} shots={result.shots} "
        f"streams={result.streams} logical_error_rate={result.rate:.4g}"
    )
    print(
        f"reaction_us mean={reaction.mean * 1e6:.3f} "
        f"p50={reaction.percentile(50) * 1e6:.3f} "
        f"p99={reaction.percentile(99) * 1e6:.3f} "
        f"max={reaction.max_seconds * 1e6:.3f}"
    )
    print(f"max_backlog_us={result.max_backlog_seconds * 1e6:.3f}")
    return 0


REPORT_COLUMNS = [
    "distance",
    "noise",
    "physical_error_rate",
    "decoder",
    "mode",
    "shots",
    "errors",
    "logical_error_rate",
    "upper_bound",
    "shots_per_sec",
    "cached",
]


def _parse_list(text: str, convert) -> tuple:
    return tuple(convert(item) for item in text.split(",") if item.strip())


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    if args.smoke:
        return SMOKE_SPEC
    if args.spec:
        return SweepSpec.from_file(args.spec)
    decoders = _parse_list(args.decoders, str)
    if getattr(args, "lut", False):
        decoders = decoders + tuple(
            f"lut+{name}" for name in decoders if not name.startswith("lut+")
        )
    return make_spec(
        args.name,
        _parse_list(args.distances, int),
        _parse_list(args.error_rates, float),
        decoders,
        args.shots,
        noise_models=_parse_list(args.noise_models, str),
        seed=args.seed,
        shard_size=args.shard_size,
        target_standard_error=args.target_se,
        collect_latency=args.latency,
        streaming=(False, True) if args.streaming else (False,),
    )


def _report_table(results) -> str:
    rows = report_rows(results)
    columns = list(REPORT_COLUMNS)
    if any("latency_p99_us" in row for row in rows):
        columns.append("latency_p99_us")
    return format_rows(rows, columns)


def _print_sweep_summary(run) -> None:
    spec = run.spec
    print(
        f"sweep {spec.name!r} [{run.spec_hash}]: "
        f"{len(run.results)} points ({run.completed} run, {run.cached} cached)"
    )
    print(_report_table(run.results))


def _run_sweep_command(args: argparse.Namespace, spec: SweepSpec) -> int:
    store = ResultStore(args.store)
    total = len(spec.expand())

    def progress(point, result) -> None:
        status = "cached" if result.cached else f"{result.elapsed_seconds:.2f}s"
        print(f"  [{len(completed) + 1}/{total}] {point.key} {status}")
        completed.append(point)

    completed: list = []
    run = run_sweep(spec, store, workers=args.workers, progress=progress)
    _print_sweep_summary(run)
    return 0


def _command_sweep_run(args: argparse.Namespace) -> int:
    return _run_sweep_command(args, _sweep_spec_from_args(args))


def _command_sweep_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    specs = store.specs
    if not specs:
        print(
            f"store {args.store!r} records no sweep spec; run `repro sweep run` first",
            file=sys.stderr,
        )
        return 2
    for spec in specs.values():
        run = run_sweep(spec, store, workers=args.workers)
        _print_sweep_summary(run)
    return 0


def _command_sweep_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if not len(store):
        print(f"store {args.store!r} holds no results", file=sys.stderr)
        return 2
    for spec_hash, spec in store.specs.items():
        results = store.results(spec_hash)
        if not results:
            continue
        print(f"sweep {spec.name!r} [{spec_hash}]: {len(results)} stored points")
        print(_report_table(results))
        for noise in spec.noise_models:
            for decoder in spec.decoders:
                try:
                    fit = fit_sweep_scaling(results, noise=noise, decoder=decoder)
                except ValueError:
                    continue
                print(
                    f"  scaling fit {noise}/{decoder}: "
                    f"threshold={fit.threshold:.3g} amplitude={fit.amplitude:.3g}"
                )
    return 0


def _command_sweep_export(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    specs = store.specs
    if not specs:
        print(f"store {args.store!r} records no sweep spec", file=sys.stderr)
        return 2
    # export the most recently recorded sweep
    spec_hash, spec = list(specs.items())[-1]
    run = run_sweep(spec, store)  # cache-complete by construction
    if run.completed:
        print(
            f"note: {run.completed} missing points were computed before export",
            file=sys.stderr,
        )
    try:
        path = write_bench(bench_document(run), args.output)
    except BenchSchemaError as error:
        print(f"BENCH schema violation: {error}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({len(run.results)} points, spec {spec.name!r})")
    return 0


def _serve_trace_from_args(args: argparse.Namespace) -> TraceSpec:
    if args.smoke:
        return SMOKE_TRACE
    if args.trace:
        return TraceSpec.from_file(args.trace)
    return make_trace(
        args.name,
        _parse_list(args.distances, int),
        _parse_list(args.error_rates, float),
        _parse_list(args.decoders, str),
        args.requests,
        noise_models=_parse_list(args.noise_models, str),
        seed=args.seed,
        arrival=args.arrival,
        rate_rps=args.rate,
        clients=args.clients,
    )


#: Outcome-cache byte budget used by cache comparisons when the user did not
#: pick one (``serve-bench --smoke`` / ``--compare-cache`` without
#: ``--outcome-cache-bytes``).
_DEFAULT_COMPARE_CACHE_BYTES = 4 << 20


#: Drain bound of every CLI-driven service replay: a close() that cannot
#: finish within this raises ServiceDrainError and fails the run instead of
#: wedging CI.
_SERVE_DRAIN_TIMEOUT_SECONDS = 60.0


def _serve_config(
    args: argparse.Namespace,
    outcome_cache_bytes: int | None,
    fault_plan: FaultPlan | None = None,
) -> ServiceConfig:
    """The ServiceConfig every serve-bench replay runs under."""
    return ServiceConfig(
        workers=args.workers,
        max_batch_size=args.max_batch,
        max_wait_seconds=args.max_wait_us * 1e-6,
        queue_capacity=args.queue_capacity,
        max_sessions=args.max_sessions,
        overload_policy=args.policy,
        outcome_cache_bytes=outcome_cache_bytes,
        fault_plan=fault_plan,
        session_build_retries=args.session_build_retries,
        session_build_backoff_seconds=0.0005,
    )


def _serve_engine(
    args: argparse.Namespace,
    trace: TraceSpec,
    outcome_cache_bytes: int | None,
    repeats: int = 1,
    fault_plan: FaultPlan | None = None,
) -> ServiceLoadEngine:
    return ServiceLoadEngine(
        trace,
        config=_serve_config(args, outcome_cache_bytes, fault_plan),
        repeats=repeats,
        drain_timeout_seconds=_SERVE_DRAIN_TIMEOUT_SECONDS,
    )


def _run_hostile_mix(args: argparse.Namespace) -> list:
    """Replay every pinned hostile family under the pinned fault plan and
    return the ``hostile_mix`` entries."""
    entries = []
    # No shedding (digests stay comparable) and a retry budget the pinned
    # plan's build crashes fit in.
    config = _serve_config(args, None, HOSTILE_SMOKE_PLAN).replace(
        max_sessions=8, overload_policy="block", session_build_retries=2
    )
    for family, spec in HOSTILE_SMOKE_TRACES:
        engine = ServiceLoadEngine(
            spec,
            config=config,
            drain_timeout_seconds=_SERVE_DRAIN_TIMEOUT_SECONDS,
        )
        result = engine.run(verify_identity=True)
        entry = hostile_mix_entry(family, spec, HOSTILE_SMOKE_PLAN, result)
        entries.append(entry)
        verdict = "isolated" if entry["isolated"] else "NOT ISOLATED"
        print(
            f"hostile {family:14s} [{entry['trace_hash']}]: "
            f"{result.completed} ok, {result.error_responses} error "
            f"({result.poisoned_errored}/{result.poisoned} poisoned), "
            f"{result.retries} retries, "
            f"{result.streams - result.stream_mismatches}/{result.streams} "
            f"streams, fairness min={result.min_completion_ratio:.2f} "
            f"-> {verdict}"
        )
    return entries


def _write_gated_service_bench(document: dict, output: str) -> int:
    """Validate and write a BENCH_service document, then evaluate
    :data:`SERVICE_BENCH_GATES` on it: 1 on a schema violation or any
    failing row (each named on stderr), else 0."""
    try:
        path = write_service_bench(document, output)
    except ServiceBenchSchemaError as error:
        print(f"BENCH_service schema violation: {error}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    failures = failed_gates(document, SERVICE_BENCH_GATES)
    for message in failures:
        print(f"BENCH_service gate failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    trace = _serve_trace_from_args(args)
    fault_plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    compare = args.compare_cache or args.smoke
    cache_bytes = args.outcome_cache_bytes
    if compare and cache_bytes <= 0:
        cache_bytes = _DEFAULT_COMPARE_CACHE_BYTES
    comparison = None
    if compare:
        # The same trace, two passes per side (pass 2 re-submits the same
        # syndromes — the cache's target workload), cache off then on.  The
        # cache-on run is the primary document (and the identity-gated one —
        # verifying it proves cached responses equal direct decodes).
        off_result = _serve_engine(args, trace, None, repeats=2, fault_plan=fault_plan).run()
        result = _serve_engine(
            args, trace, cache_bytes, repeats=2, fault_plan=fault_plan
        ).run(verify_identity=not args.no_verify)
        comparison = cache_comparison_entry(off_result, result)
    else:
        result = _serve_engine(
            args, trace, cache_bytes if cache_bytes > 0 else None, fault_plan=fault_plan
        ).run(verify_identity=not args.no_verify)
    print(
        f"trace {trace.name!r} [{trace.trace_hash()}]: "
        f"{result.requests} requests ({result.completed} completed, "
        f"{result.shed} shed, {result.error_responses} error) "
        f"in {result.elapsed_seconds:.2f}s "
        f"= {result.throughput_rps:.0f} req/s"
    )
    if fault_plan is not None:
        print(
            f"fault_plan {fault_plan.name!r} [{fault_plan.plan_hash()}]: "
            f"{result.poisoned_errored}/{result.poisoned} poisoned errored, "
            f"{result.retries} retries, shed_rate={result.shed_rate:.3f}, "
            f"fairness min={result.min_completion_ratio:.2f} "
            f"max={result.max_completion_ratio:.2f}"
        )
    print(
        f"queue_delay_us p50={result.queue_delay.percentile(50) * 1e6:.1f} "
        f"p99={result.queue_delay.percentile(99) * 1e6:.1f}  "
        f"latency_us p50={result.latency.percentile(50) * 1e6:.1f} "
        f"p99={result.latency.percentile(99) * 1e6:.1f}"
    )
    sessions = result.session_stats
    print(
        f"batches={result.batches} mean_batch_size={result.mean_batch_size:.2f} "
        f"sessions hits={sessions.get('hits', 0)} "
        f"misses={sessions.get('misses', 0)} "
        f"evictions={sessions.get('evictions', 0)}"
    )
    if result.outcome_cache.get("enabled"):
        cache = result.outcome_cache
        print(
            f"outcome_cache hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']} "
            f"bytes_resident={cache['bytes_resident']}"
        )
    if comparison is not None:
        print(
            f"cache_comparison throughput x{comparison['throughput_ratio']:.2f} "
            f"(off={comparison['off']['throughput_rps']:.0f} req/s, "
            f"on={comparison['on']['throughput_rps']:.0f} req/s)"
        )
    if result.evaluated:
        print(
            f"logical_error_rate={result.logical_error_rate:.4g} "
            f"({result.errors}/{result.evaluated}) "
            f"outcome_digest={result.outcome_digest}"
        )
    if not args.no_verify:
        print(
            f"identity: {result.identity_checked} checked, "
            f"{result.identity_mismatches} mismatches"
        )
    document = service_bench_document(
        trace,
        result,
        cache_comparison=comparison,
        fault_plan=fault_plan,
        hostile_mix=_run_hostile_mix(args) if args.hostile_smoke else None,
    )
    return _write_gated_service_bench(document, args.output)


def _command_serve_net(args: argparse.Namespace) -> int:
    # Local import: the net tier (asyncio, multiprocessing) should not
    # tax every other CLI command's startup.
    from .service.net import NetServer
    from .service.net.bench import scaling_bench, wire_comparison

    config = ServiceConfig.from_file(args.config) if args.config else DEFAULT_LOAD_CONFIG
    if args.serve:
        processes = int(args.processes) if args.processes else 2
        prewarm = [
            CodeSpec(distance, physical_error_rate=rate)
            for distance in _parse_list(args.prewarm_distances, int)
            for rate in _parse_list(args.prewarm_error_rates, float)
        ]
        server = NetServer(
            config,
            processes=processes,
            host=args.host,
            port=args.port,
            prewarm=prewarm,
            drain_timeout_seconds=_SERVE_DRAIN_TIMEOUT_SECONDS,
        )
        # The server logs its drain and any worker death at INFO/WARNING.
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        server.run_forever()
        return 0

    trace = SMOKE_TRACE
    counts = _parse_list(args.processes or "1,2,4", int)
    engine = ServiceLoadEngine(
        trace, config=config, drain_timeout_seconds=_SERVE_DRAIN_TIMEOUT_SECONDS
    )
    inproc = engine.run(verify_identity=True)
    print(
        f"in-process [{trace.trace_hash()}]: {inproc.completed} completed "
        f"= {inproc.throughput_rps:.0f} req/s, "
        f"healthy_digest={inproc.healthy_digest}"
    )
    saturation = engine.saturate(client_ladder=_parse_list(args.client_ladder, int))
    for point in saturation.points:
        marker = " <- knee" if point.clients == saturation.knee_clients else ""
        print(
            f"saturation clients={point.clients:3d}: "
            f"{point.throughput_rps:.0f} req/s "
            f"p99={point.latency_p99_us:.0f}us{marker}"
        )
    scaling, net_results = scaling_bench(trace, process_counts=counts, config=config)
    for row in scaling["series"]:
        net = net_results[row["processes"]]
        print(
            f"net processes={row['processes']}: {row['throughput_rps']:.0f} req/s "
            f"efficiency={row['efficiency']:.2f} "
            f"queue_delay_us p50={net.queue_delay.percentile(50) * 1e6:.1f} "
            f"mean_batch_size={net.mean_batch_size:.2f} "
            f"healthy_digest={row['healthy_digest']}, "
            f"identity {net.identity_checked} checked / "
            f"{row['identity_mismatches']} mismatches"
        )
    print(
        f"scaling measured on {scaling['cpu_count']} CPU core(s); "
        f"efficiency is relative to {counts[0]} process(es)"
    )
    comparison = wire_comparison(trace, processes=counts[-1], config=config)
    for side in ("v2", "v1"):
        stats = comparison[side]
        print(
            f"wire {side} (codec {stats['codec']}): "
            f"{stats['throughput_rps']:.0f} req/s, "
            f"{stats['bytes_sent']} B out / {stats['bytes_received']} B in "
            f"over {stats['frames_sent']}+{stats['frames_received']} frames"
        )
    print(
        f"wire v2 speedup over v1: {comparison['speedup']:.2f}x "
        f"(floor {WIRE_SPEEDUP_FLOOR}x), digest "
        f"{'==' if comparison['digest_match'] else '!='} across codecs"
    )
    document = service_bench_document(
        trace,
        inproc,
        saturation=saturation_entry(saturation, scaling=scaling),
        wire=wire_entry(net_results[counts[-1]].wire, comparison),
    )
    return _write_gated_service_bench(document, args.output)


def _command_sweep(args: argparse.Namespace) -> int:
    handlers = {
        "run": _command_sweep_run,
        "resume": _command_sweep_resume,
        "report": _command_sweep_report,
        "export-bench": _command_sweep_export,
    }
    try:
        return handlers[args.sweep_command](args)
    except StoreError as error:
        # torn trailing lines are repaired transparently on load; reaching
        # here means genuine corruption (a malformed *terminated* record)
        print(f"result store is corrupt: {error}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the test suite."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "decode": _command_decode,
        "decoders": _command_decoders,
        "experiment": _command_experiment,
        "resources": _command_resources,
        "accuracy": _command_accuracy,
        "latency": _command_latency,
        "stream": _command_stream,
        "sweep": _command_sweep,
        "serve-bench": _command_serve_bench,
        "serve-net": _command_serve_net,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
