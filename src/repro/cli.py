"""Command-line interface of the GPRS reproduction.

Usage (installed as ``gprs-repro`` or via ``python -m repro``)::

    gprs-repro list                      # tables/figures and runtime scenarios
    gprs-repro list --kind network       # only the multi-cell scenarios
    gprs-repro run figure12              # regenerate figure 12 (scaled preset)
    gprs-repro run figure7 --preset paper --jobs 4
    gprs-repro sweep heavy-gprs --jobs 4 # parallel scenario sweep (cached)
    gprs-repro sweep figure12 --preset paper --json
    gprs-repro network hotspot-cluster --jobs 4   # per-cell network sweep
    gprs-repro transient busy-hour-ramp --rate 0.5  # QoS trajectory over time
    gprs-repro solve --arrival-rate 0.5 --gprs-fraction 0.05 --reserved-pdch 2
    gprs-repro simulate --arrival-rate 0.5 --time 5000

``run`` reproduces a table or figure of the paper, ``sweep`` executes a
registered runtime scenario through the parallel, cache-aware executor
(network scenarios report network-mean measures, transient scenarios their
time-averaged measures), ``network`` sweeps a multi-cell scenario with
per-cell detail (the analytic handover-coupled network model of
:mod:`repro.network`), ``transient`` solves a non-stationary scenario's
QoS trajectory over time (:mod:`repro.transient`), ``solve`` evaluates the
analytical model for a single configuration and ``simulate`` runs the
discrete-event simulator for one configuration.

``run``, ``sweep``, ``network`` and ``transient`` consult a
content-addressed result cache (default
``~/.cache/gprs-repro``; override with ``--cache-dir`` or the
``GPRS_REPRO_CACHE_DIR`` environment variable, disable with ``--no-cache``),
so repeated and incremental runs skip already-solved sweep points.  Sweeps
are solved incrementally in chunks of adjacent arrival rates that share one
generator template and warm-start each other (``--chunk-size`` sets the
chunk length; ``--cold`` disables warm-starting for A/B timing).  Network
sweeps solve their points in rate order, each warm-continued from the
previous one, with ``--jobs N`` solving the cells of a point in parallel;
transient trajectories serve repeated identical segments from the
in-process propagator cache (reported as "propagator replay(s)").

Observability (:mod:`repro.obs`): ``run``, ``sweep``, ``network``,
``transient`` and ``solve`` accept ``--trace`` (print hierarchical span
totals), ``--metrics`` (print the run's counter/gauge/histogram deltas) and
``--ledger PATH`` (append one schema-versioned JSONL record to PATH);
``gprs-repro report PATH`` renders a ledger record (top spans plus
counters) and ``report PATH --compare OTHER`` diffs the latest records of
two ledgers.  Instrumentation never changes numbers: results are bitwise
identical with and without these flags.

Fault tolerance (:mod:`repro.runtime.resilience`): parallel tasks are
retried with backoff on worker death and OS errors (``--max-attempts``),
bounded by per-task deadlines (``--task-timeout``); a task that exhausts
its budget becomes a per-point failure warning and exit code 3 (``--strict``
restores fail-fast).  ``--checkpoint PATH`` journals completed points so an
interrupted sweep resumes from cache, and ``--inject-faults SPEC`` (or
``$REPRO_FAULTS``) deterministically injects worker kills, timeouts, raised
errors and cache corruption for testing the recovery paths.

Artifact store and service mode (:mod:`repro.store`, :mod:`repro.service`):
binary intermediates (propagator replay checkpoints, generator templates,
warm-start seeds) persist across *processes* in a content-addressed
store (``--store-dir`` or ``$REPRO_STORE_DIR``; off by default for one-shot
commands, ``--no-store`` forces it off).  ``gprs-repro serve`` keeps the
store's memory tier, the result cache and a worker pool hot in one
long-lived process and answers JSON scenario requests over HTTP;
``gprs-repro client`` talks to it.  ``--canonical`` prints the
provenance-free rendering of a result -- byte-identical across cold, warm
and served runs -- and ``--warm-seeds`` opts into store-seeded solver
starts (tolerance-level, not bitwise, hence opt-in).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.model import GprsMarkovModel
from repro.core.parameters import GprsModelParameters
from repro.experiments.reporting import (
    format_network_result,
    format_scenario_result,
    format_table,
    format_transient_result,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.scale import ExperimentScale
from repro.network.sweep import run_network_sweep
from repro.transient.sweep import run_transient_sweep
from repro.runtime import ResultCache, default_cache_dir, list_scenarios, run_sweep, scenario
from repro.traffic.presets import traffic_model

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``gprs-repro`` command."""
    parser = argparse.ArgumentParser(
        prog="gprs-repro",
        description="Reproduction of 'Performance Analysis of the General Packet "
        "Radio Service' (Lindemann & Thuemmler).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list all regenerable tables/figures and runtime scenarios"
    )
    list_parser.add_argument(
        "--kind",
        choices=("figures", "scenarios", "network", "transient"),
        default=None,
        help="restrict the listing: paper tables/figures, single-cell "
        "scenarios, multi-cell network scenarios, or non-stationary "
        "transient scenarios",
    )

    run_parser = subparsers.add_parser("run", help="regenerate a table or figure")
    run_parser.add_argument("experiment", help="experiment name, e.g. figure12 or table2")
    run_parser.add_argument(
        "--preset",
        choices=("smoke", "default", "paper"),
        default="default",
        help="experiment scale (paper = full Table 2/3 sizes)",
    )
    _add_runtime_arguments(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a registered runtime scenario (parallel, cached)"
    )
    sweep_parser.add_argument(
        "scenario", help="scenario name, e.g. figure12 or heavy-gprs (see 'list')"
    )
    sweep_parser.add_argument(
        "--preset",
        choices=("smoke", "default", "paper"),
        default="default",
        help="experiment scale applied to the scenario",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    sweep_parser.add_argument(
        "--canonical", action="store_true",
        help="emit the provenance-free canonical JSON (byte-identical "
        "across cold, warm and served runs)",
    )
    _add_runtime_arguments(sweep_parser)

    network_parser = subparsers.add_parser(
        "network",
        help="sweep a multi-cell network scenario (per-cell detail)",
    )
    network_parser.add_argument(
        "scenario",
        help="network scenario name, e.g. hotspot-cluster (see 'list --kind network')",
    )
    network_parser.add_argument(
        "--preset",
        choices=("smoke", "default", "paper"),
        default="default",
        help="experiment scale applied to the base cell",
    )
    network_parser.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    network_parser.add_argument(
        "--canonical", action="store_true",
        help="emit the provenance-free canonical JSON (byte-identical "
        "across cold, warm and served runs)",
    )
    # Network sweeps have no point-chunking (cells parallelise within a
    # point), so the --chunk-size knob would be a silent no-op here.
    _add_runtime_arguments(network_parser, chunking=False)

    transient_parser = subparsers.add_parser(
        "transient",
        help="solve a non-stationary scenario's QoS trajectory over time",
    )
    transient_parser.add_argument(
        "scenario",
        help="transient scenario name, e.g. busy-hour-ramp "
        "(see 'list --kind transient')",
    )
    transient_parser.add_argument(
        "--preset",
        choices=("smoke", "default", "paper"),
        default="default",
        help="experiment scale applied to the base cell",
    )
    transient_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="solve only this base arrival rate (calls/s) instead of the "
        "preset's whole sweep axis",
    )
    transient_parser.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    transient_parser.add_argument(
        "--canonical", action="store_true",
        help="emit the provenance-free canonical JSON (byte-identical "
        "across cold, warm and served runs)",
    )
    # Transient sweeps have no point-chunking (whole trajectories
    # parallelise); --cold maps to per-segment template rebuilds (a pure
    # construction-cost A/B -- trajectories are bitwise identical).
    _add_runtime_arguments(transient_parser, chunking=False)

    solve_parser = subparsers.add_parser(
        "solve", help="solve the analytical model for one configuration"
    )
    _add_model_arguments(solve_parser)
    solve_parser.add_argument(
        "--solver", default="auto",
        choices=("auto", "structured", "gth", "direct", "power", "gauss-seidel"),
        help="steady-state solver (default auto)",
    )
    _add_obs_arguments(solve_parser)

    report_parser = subparsers.add_parser(
        "report", help="render a run-ledger record (top spans and counters)"
    )
    report_parser.add_argument("ledger", type=Path, help="run-ledger JSONL file")
    report_parser.add_argument(
        "--index", type=int, default=-1,
        help="record to render (default -1 = the latest)",
    )
    report_parser.add_argument(
        "--top", type=int, default=10, help="span names to show (default 10)"
    )
    report_parser.add_argument(
        "--compare", type=Path, default=None,
        help="second ledger: diff its latest record against this one's",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived scenario service (warm store, cache and "
        "worker pool; JSON over HTTP)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8754,
                              help="TCP port (default 8754; 0 = ephemeral)")
    serve_parser.add_argument("--jobs", type=int, default=1,
                              help="persistent worker processes shared by "
                              "network-sweep requests, started once the "
                              "work repays their start cost (1 = serial)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="serve without the result cache")
    serve_parser.add_argument("--cache-dir", type=Path, default=None,
                              help="result cache directory (default: "
                              "~/.cache/gprs-repro or $GPRS_REPRO_CACHE_DIR/"
                              "$REPRO_CACHE_DIR)")
    serve_parser.add_argument("--store-dir", type=Path, default=None,
                              help="artifact store directory (default: "
                              "<cache-dir>/store or $REPRO_STORE_DIR)")
    serve_parser.add_argument("--no-store", action="store_true",
                              help="serve without the artifact store "
                              "(result cache only)")
    serve_parser.add_argument("--service-workers", type=int, default=1,
                              help="concurrent solver threads consuming the "
                              "admission queue (default 1)")
    serve_parser.add_argument("--max-queue", type=int, default=32,
                              help="waiting requests admitted before the "
                              "service answers 429 (default 32)")
    serve_parser.add_argument("--max-inflight", type=int, default=None,
                              help="cap on queued + running requests "
                              "(default: workers + max-queue)")
    serve_parser.add_argument("--request-timeout", type=float, default=None,
                              help="per-request deadline in seconds; expired "
                              "waiters get 504 (also bounds pool task time)")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              help="seconds graceful shutdown waits for "
                              "in-flight solves (default 30)")
    serve_parser.add_argument("--journal", type=Path, default=None,
                              help="crash-consistent request journal (JSONL); "
                              "admitted-but-unanswered requests are replayed "
                              "into the cache on restart")

    client_parser = subparsers.add_parser(
        "client", help="talk to a running 'gprs-repro serve' instance"
    )
    client_parser.add_argument(
        "action", choices=("run", "batch", "stats", "health", "shutdown"),
        help="run one request, post a batch file, or inspect/stop the server",
    )
    client_parser.add_argument(
        "kind", nargs="?", choices=("sweep", "network", "transient"),
        help="for 'run': which sweep kind to request",
    )
    client_parser.add_argument(
        "scenario", nargs="?", help="for 'run': the scenario name"
    )
    client_parser.add_argument("--url", default=None,
                               help="service URL (overrides --host/--port)")
    client_parser.add_argument("--host", default="127.0.0.1",
                               help="service host (default 127.0.0.1)")
    client_parser.add_argument("--port", type=int, default=8754,
                               help="service port (default 8754)")
    client_parser.add_argument("--preset",
                               choices=("smoke", "default", "paper"),
                               default="default",
                               help="experiment scale of the request")
    client_parser.add_argument("--rate", type=float, default=None,
                               help="transient requests: solve only this "
                               "base arrival rate")
    client_parser.add_argument("--no-request-cache", action="store_true",
                               help="ask the server to bypass its result "
                               "cache for this request (the warm artifact "
                               "store still applies)")
    client_parser.add_argument("--canonical", action="store_true",
                               help="print the provenance-free canonical "
                               "JSON (byte-identical to CLI --canonical)")
    client_parser.add_argument("--json", action="store_true",
                               help="print the server's full JSON response "
                               "(payload, metrics delta, timing)")
    client_parser.add_argument("--batch-file", type=Path, default=None,
                               help="for 'batch': JSON file holding the "
                               "request list ('-' = stdin)")
    client_parser.add_argument("--timeout", type=float, default=600.0,
                               help="per-request HTTP timeout in seconds")
    client_parser.add_argument("--retries", type=int, default=0,
                               help="extra attempts after a retryable "
                               "failure (connection error, 429 honouring "
                               "Retry-After, 503); shutdown is never "
                               "retried")

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the network-level simulator for one configuration"
    )
    _add_model_arguments(simulate_parser)
    simulate_parser.add_argument("--time", type=float, default=5000.0,
                                 help="measured simulation time in seconds")
    simulate_parser.add_argument("--warmup", type=float, default=500.0,
                                 help="warm-up time in seconds")
    simulate_parser.add_argument("--cells", type=int, default=7, help="cells in the cluster")
    simulate_parser.add_argument("--batches", type=int, default=5,
                                 help="batches for confidence intervals")
    simulate_parser.add_argument("--seed", type=int, default=20020527, help="random seed")
    simulate_parser.add_argument("--no-tcp", action="store_true",
                                 help="disable TCP flow control")
    return parser


def _add_runtime_arguments(
    parser: argparse.ArgumentParser, *, chunking: bool = True
) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="at most this many worker processes, started "
                        "only when the work repays their start cost "
                        "(1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache for this invocation")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache directory (default: ~/.cache/gprs-repro "
                        "or $GPRS_REPRO_CACHE_DIR)")
    parser.add_argument("--cold", action="store_true",
                        help="disable sweep-aware warm-starting (solver and "
                        "handover continuation) for A/B timing")
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="enable the cross-process artifact store at this "
                        "directory (also via $REPRO_STORE_DIR)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the artifact store even if "
                        "$REPRO_STORE_DIR is set")
    if chunking:
        parser.add_argument("--chunk-size", type=int, default=None,
                            help="adjacent sweep points per warm-started chunk "
                            "(also the parallel scheduling unit; default 8)")
        parser.add_argument("--warm-seeds", action="store_true",
                            help="seed each chunk's first solve from the "
                            "store's persisted distribution stack (opt-in: "
                            "tolerance-level, not bitwise)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        help="attempts per task before it is recorded as a "
                        "failure (default 3; retried tasks re-run the "
                        "identical payload)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task deadline in seconds (parallel runs "
                        "only); timed-out tasks are retried, then recorded "
                        "as failures")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast: abort on the first task that "
                        "exhausts its retries instead of recording a "
                        "per-point failure")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="JSONL sweep checkpoint: completed points are "
                        "journaled so an interrupted run resumes from cache "
                        "(requires the result cache)")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                        "'chunk@1=kill,cell@2=timeout:5,cache@0=corrupt'; "
                        "cache@N indexes puts to the content store across "
                        "result cache and artifact store "
                        "(testing; also via $REPRO_FAULTS)")
    _add_obs_arguments(parser)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="collect hierarchical spans and print their "
                        "per-name totals after the run (results are bitwise "
                        "identical with or without tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the run's counter/gauge/histogram deltas")
    parser.add_argument("--ledger", type=Path, default=None,
                        help="append one schema-versioned JSONL run record "
                        "(spans, metrics, spec digest, environment) to this file")


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir if args.cache_dir is not None else default_cache_dir())


def _store_from_args(args: argparse.Namespace):
    """Resolve the artifact store of one runtime command.

    ``--no-store`` wins, then ``--store-dir`` (exported to
    ``$REPRO_STORE_DIR`` so worker processes inherit it), then the ambient
    environment-derived store.  One-shot commands default to *no* store --
    the cross-process tier is opt-in outside ``serve``.
    """
    from repro.store import STORE_DIR_ENV, ArtifactStore, current_store

    if getattr(args, "no_store", False):
        return None
    if getattr(args, "store_dir", None) is not None:
        os.environ[STORE_DIR_ENV] = str(args.store_dir)
        return ArtifactStore(Path(args.store_dir))
    return current_store()


def _resilience_from_args(args: argparse.Namespace) -> dict:
    """The retry/timeout/strict/checkpoint kwargs of one runtime command."""
    from repro.runtime.resilience import RetryPolicy, SweepCheckpoint

    retry = None
    if getattr(args, "max_attempts", None) is not None:
        if args.max_attempts < 1:
            raise ValueError("--max-attempts must be at least 1")
        retry = RetryPolicy(max_attempts=args.max_attempts)
    checkpoint = None
    if getattr(args, "checkpoint", None) is not None:
        if args.no_cache:
            raise ValueError(
                "--checkpoint needs the result cache (drop --no-cache): "
                "resumption serves checkpointed points from cache"
            )
        checkpoint = SweepCheckpoint.load(args.checkpoint)
    return {
        "retry": retry,
        "task_timeout": getattr(args, "task_timeout", None),
        "strict": bool(getattr(args, "strict", False)),
        "checkpoint": checkpoint,
    }


def _report_failures(failures) -> int:
    """Print per-point failure warnings; exit code 3 marks a partial result."""
    for failure in failures:
        points = (
            f" (sweep point(s) {', '.join(str(p) for p in failure.points)})"
            if failure.points
            else ""
        )
        print(
            f"warning: {failure.site} task {failure.index} failed after "
            f"{failure.attempts} attempt(s): {failure.error_type}: "
            f"{failure.message}{points}",
            file=sys.stderr,
        )
    return 3 if failures else 0


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrival-rate", type=float, required=True,
                        help="total GSM/GPRS call arrival rate in calls per second")
    parser.add_argument("--traffic-model", type=int, choices=(1, 2, 3), default=3,
                        help="traffic model of Table 3")
    parser.add_argument("--gprs-fraction", type=float, default=0.05,
                        help="fraction of arriving calls that are GPRS sessions")
    parser.add_argument("--reserved-pdch", type=int, default=1,
                        help="number of PDCHs permanently reserved for GPRS")
    parser.add_argument("--buffer-size", type=int, default=None,
                        help="BSC buffer size K (defaults to the paper value of 100)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="admission cap M (defaults to the traffic model value)")
    parser.add_argument("--eta", type=float, default=0.7, help="TCP threshold eta")


def _parameters_from_args(args: argparse.Namespace) -> GprsModelParameters:
    overrides = {
        "gprs_fraction": args.gprs_fraction,
        "reserved_pdch": args.reserved_pdch,
        "tcp_threshold": args.eta,
    }
    if args.buffer_size is not None:
        overrides["buffer_size"] = args.buffer_size
    if args.max_sessions is not None:
        overrides["max_gprs_sessions"] = args.max_sessions
    return GprsModelParameters.from_traffic_model(
        traffic_model(args.traffic_model), args.arrival_rate, **overrides
    )


def _serve_command(args: argparse.Namespace) -> int:
    """Start the long-lived scenario service (``gprs-repro serve``)."""
    from repro.service import ScenarioService, serve
    from repro.store import STORE_DIR_ENV, ArtifactStore, default_store_dir

    cache = _cache_from_args(args)
    store = None
    if not args.no_store:
        # The store is the point of serve mode, so it defaults ON here
        # (one-shot commands default OFF).  Exporting the directory lets
        # pool workers read and write the same store.
        store_dir = args.store_dir if args.store_dir is not None else default_store_dir()
        os.environ[STORE_DIR_ENV] = str(store_dir)
        store = ArtifactStore(Path(store_dir))
    service = ScenarioService(
        jobs=args.jobs,
        cache=cache,
        store=store,
        workers=args.service_workers,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
        journal_path=args.journal,
    )
    return serve(service, args.host, args.port)


def _print_client_response(args: argparse.Namespace, response: dict) -> int:
    """Render one /run response the way the flags ask; returns exit code."""
    if not response.get("ok"):
        print(f"error: {response.get('error', 'request failed')}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    elif args.canonical:
        print(response["canonical"])
    else:
        print(response["output"])
    return 3 if response.get("failures") else 0


def _client_command(args: argparse.Namespace) -> int:
    """Talk to a running service (``gprs-repro client``)."""
    from repro.service import ServiceClient, ServiceError

    url = args.url if args.url is not None else f"http://{args.host}:{args.port}"
    client = ServiceClient(url, timeout=args.timeout, retries=args.retries)
    try:
        if args.action == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.action == "shutdown":
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
            return 0
        if args.action == "run":
            if args.kind is None or args.scenario is None:
                print(
                    "error: 'client run' needs a kind and a scenario, e.g. "
                    "'client run transient diurnal-24h'",
                    file=sys.stderr,
                )
                return 2
            response = client.run(
                {
                    "command": args.kind,
                    "scenario": args.scenario,
                    "preset": args.preset,
                    "rate": args.rate,
                    "cache": not args.no_request_cache,
                }
            )
            return _print_client_response(args, response)
        # batch
        if args.batch_file is None:
            print("error: 'client batch' needs --batch-file", file=sys.stderr)
            return 2
        text = (
            sys.stdin.read()
            if str(args.batch_file) == "-"
            else args.batch_file.read_text(encoding="utf-8")
        )
        requests = json.loads(text)
        if not isinstance(requests, list):
            print("error: batch file must hold a JSON list", file=sys.stderr)
            return 2
        reply = client.batch(requests)
        if args.json:
            print(json.dumps(reply, indent=2, sort_keys=True))
            return 0 if reply.get("ok") else 2
        code = 0
        for response in reply.get("responses", ()):
            code = max(code, _print_client_response(args, response))
        return code
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _report_command(args: argparse.Namespace) -> int:
    """Render (or diff) run-ledger records for ``gprs-repro report``."""
    from repro import obs

    try:
        if args.compare is not None:
            diff = obs.compare(str(args.ledger), str(args.compare))
            print(obs.render_compare(diff, top=args.top))
            return 0
        records = obs.read_ledger(str(args.ledger))
        if not records:
            print(f"error: {args.ledger}: ledger holds no records", file=sys.stderr)
            return 2
        try:
            record = records[args.index]
        except IndexError:
            print(
                f"error: {args.ledger}: no record at index {args.index} "
                f"({len(records)} available)",
                file=sys.stderr,
            )
            return 2
        print(obs.render_report(record, top=args.top))
        return 0
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _spec_payload(args: argparse.Namespace):
    """The resolved spec a ledger record's digest is computed over."""
    if args.command in ("sweep", "network", "transient"):
        try:
            return scenario(args.scenario).to_dict()
        except (KeyError, ValueError):
            return {"scenario": args.scenario}
    if args.command == "run":
        return {"experiment": args.experiment, "preset": args.preset}
    if args.command == "solve":
        from repro.runtime.spec import parameters_to_dict

        try:
            return parameters_to_dict(_parameters_from_args(args))
        except ValueError:
            return None  # the command itself reported the bad parameters
    return None


def _obs_args_summary(args: argparse.Namespace) -> dict:
    """The invocation knobs worth persisting in a ledger record."""
    summary = {}
    for name in ("jobs", "cold", "chunk_size", "rate", "solver",
                 "no_cache", "json", "canonical", "max_attempts",
                 "task_timeout", "strict", "checkpoint", "inject_faults",
                 "store_dir", "no_store", "warm_seeds"):
        value = getattr(args, name, None)
        if value not in (None, False):
            summary[name] = value if not isinstance(value, Path) else str(value)
    return summary


def _execute_with_obs(args: argparse.Namespace) -> int:
    """Run one command inside an observability session.

    Installs a live tracer with a root ``cli.<command>`` span (so span
    totals account for the whole command's wall time), snapshots the metrics
    registry around the run, then prints and/or persists what the flags
    asked for.  The solve itself is the very same :func:`_execute` path an
    uninstrumented invocation takes -- tracing changes no numbers.
    """
    import time

    from repro import obs

    tracer = obs.Tracer()
    registry = obs.current_registry()
    baseline = registry.snapshot()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with obs.activate_tracer(tracer):
        with tracer.span(f"cli.{args.command}"):
            code = _execute(args)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start

    record = obs.make_record(
        command=args.command,
        target=getattr(args, "scenario", None) or getattr(args, "experiment", None),
        preset=getattr(args, "preset", None),
        args=_obs_args_summary(args),
        spec=_spec_payload(args),
        wall_s=wall_s,
        cpu_s=cpu_s,
        span_totals=tracer.span_totals(),
        metrics=registry.delta_since(baseline),
    )
    if args.trace:
        totals = sorted(
            record["spans"].items(), key=lambda item: item[1]["wall_s"], reverse=True
        )
        print()
        print(f"spans (wall {wall_s:.3f} s):")
        width = max(len(name) for name, _ in totals) if totals else 0
        for name, entry in totals:
            share = 100.0 * entry["wall_s"] / wall_s if wall_s else 0.0
            print(
                f"  {name:<{width}}  {entry['wall_s']:>9.3f} s  "
                f"{share:>5.1f}%  x{entry['count']}"
            )
    if args.metrics:
        print()
        print("metrics:")
        counters = record["metrics"].get("counters", {})
        gauges = record["metrics"].get("gauges", {})
        names = sorted(counters) + sorted(gauges)
        width = max(len(name) for name in names) if names else 0
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")
        for name in sorted(gauges):
            print(f"  {name:<{width}}  {gauges[name]:g}")
    if args.ledger is not None:
        obs.append_record(str(args.ledger), record)
        print(f"\nledger: appended 1 record to {args.ledger}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``gprs-repro`` command; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return _report_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "client":
        return _client_command(args)
    instrumented = getattr(args, "trace", False) or getattr(
        args, "metrics", False
    ) or (getattr(args, "ledger", None) is not None)
    runner = _execute_with_obs if instrumented else _execute
    plan = None
    fault_spec = getattr(args, "inject_faults", None)
    if fault_spec:
        from repro.runtime.faults import FaultPlan

        try:
            plan = FaultPlan.parse(fault_spec)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    def invoke() -> int:
        if plan is not None:
            from repro.runtime.faults import inject_faults

            with inject_faults(plan):
                return runner(args)
        return runner(args)

    if hasattr(args, "no_store"):
        from repro.store import store_context

        with store_context(_store_from_args(args)):
            return invoke()
    return invoke()


def _execute(args: argparse.Namespace) -> int:
    """Dispatch one parsed command (shared by plain and instrumented runs)."""
    if args.command == "list":
        sections = []
        if args.kind in (None, "figures"):
            sections.append(
                "experiments (gprs-repro run <name>):\n"
                + "\n".join(f"  {name}" for name in sorted(EXPERIMENTS))
            )
        if args.kind in (None, "scenarios"):
            lines = ["scenarios (gprs-repro sweep <name>):"]
            for spec in list_scenarios(kind="cell"):
                tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
                lines.append(f"  {spec.name:<16} {spec.description}{tags}")
            sections.append("\n".join(lines))
        if args.kind in (None, "network"):
            lines = ["network scenarios (gprs-repro network <name>):"]
            for spec in list_scenarios(kind="network"):
                cells = spec.network.number_of_cells
                lines.append(
                    f"  {spec.name:<16} {spec.description} "
                    f"[{spec.network.name}, {cells} cells]"
                )
            sections.append("\n".join(lines))
        if args.kind in (None, "transient"):
            lines = ["transient scenarios (gprs-repro transient <name>):"]
            for spec in list_scenarios(kind="transient"):
                profile = spec.transient
                lines.append(
                    f"  {spec.name:<16} {spec.description} "
                    f"[{profile.name}, {profile.schedule.number_of_segments} "
                    f"segments, {profile.total_duration_s:g}s]"
                )
            sections.append("\n".join(lines))
        print("\n\n".join(sections))
        return 0

    if args.command == "run":
        from repro.runtime import execution_options
        from repro.runtime.resilience import SweepFailureError

        try:
            # run_experiment passes every knob explicitly except the
            # warm-seed opt-in, which flows through the ambient options.
            with execution_options(seed_from_store=bool(args.warm_seeds)):
                report = run_experiment(
                    args.experiment,
                    ExperimentScale.from_name(args.preset),
                    jobs=args.jobs,
                    cache=_cache_from_args(args),
                    warm=not args.cold,
                    chunk_size=args.chunk_size,
                    **_resilience_from_args(args),
                )
        except SweepFailureError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
        except (RuntimeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(report)
        return 0

    if args.command == "sweep":
        from repro.runtime.resilience import SweepFailureError

        try:
            result = run_sweep(
                scenario(args.scenario),
                ExperimentScale.from_name(args.preset),
                jobs=args.jobs,
                cache=_cache_from_args(args),
                warm=not args.cold,
                chunk_size=args.chunk_size,
                seed_from_store=bool(args.warm_seeds),
                **_resilience_from_args(args),
            )
        except SweepFailureError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.canonical:
            from repro.service.protocol import canonical_text

            print(canonical_text(result.as_dict()))
        elif args.json:
            print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_scenario_result(result))
        return _report_failures(result.failures)

    if args.command == "network":
        from repro.runtime.resilience import SweepFailureError

        try:
            spec = scenario(args.scenario)
            if spec.network is None:
                raise ValueError(
                    f"scenario {args.scenario!r} is single-cell; pick one from "
                    "'gprs-repro list --kind network' (or use 'sweep')"
                )
            result = run_network_sweep(
                spec,
                ExperimentScale.from_name(args.preset),
                jobs=args.jobs,
                cache=_cache_from_args(args),
                warm=not args.cold,
                **_resilience_from_args(args),
            )
        except SweepFailureError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.canonical:
            from repro.service.protocol import canonical_text

            print(canonical_text(result.as_dict()))
        elif args.json:
            print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_network_result(result))
        return _report_failures(result.failures)

    if args.command == "transient":
        from repro.runtime.resilience import SweepFailureError

        try:
            spec = scenario(args.scenario)
            if spec.transient is None:
                raise ValueError(
                    f"scenario {args.scenario!r} is stationary; pick one from "
                    "'gprs-repro list --kind transient' (or use 'sweep')"
                )
            result = run_transient_sweep(
                spec,
                ExperimentScale.from_name(args.preset),
                jobs=args.jobs,
                cache=_cache_from_args(args),
                warm=not args.cold,
                rates=None if args.rate is None else (args.rate,),
                **_resilience_from_args(args),
            )
        except SweepFailureError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.canonical:
            from repro.service.protocol import canonical_text

            print(canonical_text(result.as_dict()))
        elif args.json:
            print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_transient_result(result))
        return _report_failures(result.failures)

    if args.command in ("solve", "simulate"):
        try:
            params = _parameters_from_args(args)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "solve":
        solution = GprsMarkovModel(params, solver_method=args.solver).solve()
        rows = solution.measures.as_dict()
        rows["states"] = solution.parameters.state_space_size
        rows["solver"] = solution.steady_state.method
        rows["solver iterations"] = solution.steady_state.iterations
        if solution.steady_state.coarse_corrections:
            rows["coarse corrections"] = solution.steady_state.coarse_corrections
        print(format_table("Analytical model solution", rows))
        return 0

    if args.command == "simulate":
        # The DES stack is imported only by the command that runs it.
        from repro.simulator.config import SimulationConfig, TcpConfig
        from repro.simulator.simulation import GprsNetworkSimulator

        config = SimulationConfig(
            cell_parameters=params,
            number_of_cells=args.cells,
            simulation_time_s=args.time,
            warmup_time_s=args.warmup,
            batches=args.batches,
            seed=args.seed,
            tcp=TcpConfig(enabled=not args.no_tcp),
        )
        results = GprsNetworkSimulator(config).run()
        rows: dict[str, float | str] = {}
        for metric in results.available_metrics():
            interval = results.interval(metric)
            rows[metric] = f"{interval.mean:.6g} +/- {interval.half_width:.2g}"
        rows["events processed"] = results.events_processed
        print(format_table("Simulation results (mid cell, 95% confidence)", rows))
        return 0

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
