"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate --app mcf --scheme split+gcm [--refs N] [--json]`` — run one
  timing simulation and print normalized IPC plus the memory-system
  statistics (``--json`` emits one machine-readable object instead).
* ``schemes [--json]`` — list the named configuration presets.
* ``apps`` — list the SPEC CPU 2000-like workloads and the scenario
  library (database/page-cache, GC, ML-inference patterns).
* ``trace record --workload W --out T.rtrc [--refs N] [--seed S]`` /
  ``trace replay T.rtrc [--scheme S] [--refs N]`` / ``trace info T.rtrc``
  — record any generator workload into the compact mmap-able ``.rtrc``
  container, replay a recording through the full simulator (bit-identical
  to the live generator), or validate and describe a trace file.
  Anywhere a workload is named (``simulate``, ``profile``, ``sweep``,
  ``trace replay``), a recorded trace can stand in via ``trace:<path>``
  or a plain ``*.rtrc`` path.
* ``attack [--no-counter-auth]`` — stage the section-4.3 counter-replay
  attack and report detection.
* ``fuzz [--campaigns N] [--seed S] [--recover POLICY] [--timeout SEC]
  [--json]`` — run the adversarial-memory fault-injection harness over the
  scheme presets; ``--recover`` enables integrity-violation recovery on
  every system under test (transient glitches must heal, persistent
  tampers must still end loudly).  Exit codes: 0 clean, 1 failures found
  (missed / spurious / unrecovered transient / diverged differential),
  2 usage error, 3 wall-clock timeout hit with no failures so far (the
  report is valid but partial; see :mod:`repro.testing`).
* ``sweep [--scheme S ...] [--app A ...] [--timeout SEC] [--retries N]
  [--parallel N] [--queue-dir DIR] [--json]`` — run the scheme x app
  cross product on the crash-tolerant sweep fabric: spawn-isolated
  workers, each cell with a wall-clock budget and crash/timeout
  retries.  Exit codes: 0 all cells ok, 1 any cell failed or timed out,
  2 usage error, 130 interrupted by SIGINT, 143 by SIGTERM (the partial
  report is still printed).
* ``profile --app mcf --scheme split+gcm [--trace-out t.json] [--csv-out
  t.csv] [--json]`` — run one traced simulation, decompose every L2 miss's
  latency into bus/DRAM/AES/GHASH/tree components, and report the
  per-component totals; exits non-zero if any miss's attribution residual
  exceeds ``--tolerance`` (default 1%).
* ``bench [--json] [--out PATH] [--baseline PATH] [--tolerance F]
  [--quick]`` — run the seeded perf-regression suite (crypto micros under
  every kernel + deterministic preset simulations + the serve saturation
  sweep) and emit the schema-versioned BENCH report.  ``--out`` also
  writes it to a file (atomically); ``--baseline`` diffs the gate metrics
  against a committed report.  Exit codes: 0 clean, 2 regression gate
  tripped (geo-mean of current/baseline gate-metric ratios below
  ``1 - tolerance``) or usage error.
* ``serve [--host H] [--port P] [--shards N] [--backend inline|process]
  [--scheme S] [--tenant-bytes N] [--queue-depth N]`` — run the
  multi-tenant secure-memory service until SIGINT/SIGTERM.  Prints one
  ``{"event": "listening", "host": ..., "port": ...}`` JSON line on
  stdout once the socket is bound (port 0 picks an ephemeral port).
* ``loadgen --port P [--host H] [--tenants N] [--connections N]
  [--requests N] [--batch N] [--seed S] [--json]`` — drive the seeded
  mixed read/write workload against a running server and report
  requests/s plus p50/p99 latency.  Exit codes: 0 clean, 1 any non-BUSY
  request error.

JSON contract: with ``--json``, stdout carries exactly one JSON document
and nothing else — all progress and notes go to stderr.

The CLI is a thin layer over :mod:`repro.api`; anything it prints is
available programmatically from :class:`repro.api.ExperimentResult`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api
from repro.core import SecureMemorySystem, split_gcm_config
from repro.resilience import CHECKPOINT_REFS
from repro.workloads import SCENARIO_APPS, SPEC_APPS, workload_kind


def _cmd_schemes(args) -> int:
    schemes = api.list_schemes()
    if args.json:
        print(json.dumps({info.name: info.to_dict() for info in schemes},
                         indent=2))
        return 0
    for info in schemes:
        counters = info.counters if info.counters is not None else "-"
        print(f"{info.name:<14} encryption={info.encryption:<8} "
              f"counters={counters:<10} "
              f"auth={info.auth:<5} integrity={info.integrity:<7} "
              f"{info.summary}")
    return 0


def _cmd_apps(_args) -> int:
    print(" ".join(SPEC_APPS))
    print("scenarios: " + " ".join(SCENARIO_APPS))
    return 0


def _check_workload(name: str) -> str | None:
    """None if ``name`` resolves (app, scenario, or trace file); else the
    error message to print before exiting 2."""
    try:
        workload_kind(name)
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_simulate(args) -> int:
    try:
        config = api.get_config(args.scheme)
    except KeyError as exc:
        print(f"unknown scheme {args.scheme!r}; see `python -m repro "
              f"schemes` ({exc.args[0]})", file=sys.stderr)
        return 2
    error = _check_workload(args.app)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        experiment = api.Experiment(config, args.app, refs=args.refs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result = experiment.run()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"app={args.app} scheme={args.scheme} refs={args.refs}")
    print(f"  baseline IPC        : {result.baseline_ipc:.3f}")
    print(f"  scheme IPC          : {result.ipc:.3f}")
    print(f"  normalized IPC      : {result.normalized_ipc:.3f}  "
          f"(overhead {result.overhead:.1%})")
    print(f"  L2 misses           : {result.l2_misses}")
    print(f"  bus utilization     : {result.bus_utilization:.0%}")
    if result.counter_cache_hit_rate is not None:
        print(f"  counter-cache hits  : {result.counter_cache_hit_rate:.1%}")
    if result.timely_pad_rate is not None:
        print(f"  timely pads         : {result.timely_pad_rate:.1%}")
    if result.page_reencryptions:
        print(f"  page re-encryptions : {result.page_reencryptions} "
              f"(mean {result.mean_page_reencryption_cycles:,.0f} cycles)")
    return 0


def _cmd_attack(args) -> int:
    from repro.attacks import counter_replay_attack

    config = split_gcm_config(
        counter_cache_size=64, counter_cache_assoc=1,
        authenticate_counters=not args.no_counter_auth,
    )
    system = SecureMemorySystem(config, protected_bytes=512 * 1024,
                                l2_size=4 * 1024, l2_assoc=2)
    report = counter_replay_attack(system, 0, b"\xaa" * 64, b"\x55" * 64,
                                   scratch_base=128 * 1024)
    print(report)
    return 0 if report.defended else 1


def _cmd_fuzz(args) -> int:
    from repro.testing import format_report

    if args.workload is not None:
        error = _check_workload(args.workload)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    try:
        report = api.fuzz(
            campaigns=args.campaigns, seed=args.seed,
            presets=args.preset or None, weaken=args.weaken,
            num_ops=args.ops, shrink=not args.no_shrink,
            mac_bits=args.mac_bits, recover=args.recover,
            timeout=args.timeout, workload=args.workload,
        )
    except KeyError as exc:
        print(f"{exc.args[0]}; see `python -m repro schemes`",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report(report))
    if not report.ok:
        return 1
    return 3 if report.timed_out else 0


def _cmd_sweep(args) -> int:
    import dataclasses
    import signal

    from repro.resilience import SweepCell

    schemes = args.scheme or ["split+gcm"]
    for name in schemes:
        try:
            api.get_config(name)
        except KeyError as exc:
            print(f"{exc.args[0]}", file=sys.stderr)
            return 2
    apps = args.app or ["swim"]
    for name in apps:
        error = _check_workload(name)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    cells = [SweepCell(scheme=scheme, app=app, refs=args.refs)
             for scheme in schemes for app in apps]
    for spec in args.inject or ():
        kind, sep, index = spec.partition("@")
        if not sep or not index.lstrip("-").isdigit():
            print(f"--inject wants KIND@INDEX, got {spec!r}",
                  file=sys.stderr)
            return 2
        position = int(index)
        if not 0 <= position < len(cells):
            print(f"--inject index {position} out of range "
                  f"(sweep has {len(cells)} cell(s))", file=sys.stderr)
            return 2
        try:
            cells[position] = dataclasses.replace(cells[position],
                                                  inject=kind)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    def progress(result) -> None:
        print(f"sweep: {result.cell.label} -> {result.status} "
              f"({result.attempts} attempt(s))", file=sys.stderr)

    # SIGTERM drains exactly like Ctrl-C (run_many catches the
    # KeyboardInterrupt, drains workers, and returns the partial report) but
    # exits 143 so a supervisor can tell "operator interrupt" from
    # "terminated by the platform".
    sigterm = {"hit": False}

    def _on_sigterm(_signum, _frame) -> None:
        sigterm["hit"] = True
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        report = api.run_many(
            cells, timeout=args.timeout, retries=args.retries,
            retry_backoff=args.retry_backoff, progress=progress,
            out_path=args.out, parallelism=args.parallel,
            queue_dir=args.queue_dir, resume=args.resume,
            heartbeat_interval=args.heartbeat_interval,
            lease_ttl=args.lease_ttl, checkpoint_refs=args.checkpoint_refs)
    except ValueError as exc:
        # rejected before any cell ran: bad settings (--parallel 0,
        # --resume without --queue-dir), a queue dir holding another
        # sweep, a kill inject that cannot fire
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
    if args.out:
        print(f"sweep: report at {args.out} (updated after every cell)",
              file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for cell in report.cells:
            line = (f"  {cell.cell.label:<22} {cell.status:<8} "
                    f"attempts={cell.attempts}")
            if cell.error:
                line += f"  ({cell.error})"
            print(line)
        counts = report.counts()
        summary = ", ".join(f"{counts[key]} {key}" for key in sorted(counts))
        # a --resume run adopts the queue's manifest, so the real cell
        # count is whatever the report came back with, not the CLI args
        print(f"sweep: {len(report.cells)} cell(s): {summary}"
              + ("  [INTERRUPTED]" if report.interrupted else ""))
    if report.interrupted:
        return 143 if sigterm["hit"] else 130
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    from repro.obs import AttributionError

    try:
        config = api.get_config(args.scheme)
    except KeyError as exc:
        print(f"unknown scheme {args.scheme!r}; see `python -m repro "
              f"schemes` ({exc.args[0]})", file=sys.stderr)
        return 2
    error = _check_workload(args.app)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        profiled = api.profile(
            config, args.app, refs=args.refs, tolerance=args.tolerance,
            trace_out=args.trace_out, csv_out=args.csv_out,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except AttributionError as exc:
        # Strict recording already failed a miss mid-run: the breakdown
        # did not sum to the observed latency.
        print(f"attribution identity violated: {exc}", file=sys.stderr)
        return 1
    report = profiled.attribution
    if args.trace_out:
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    if args.csv_out:
        print(f"wrote CSV to {args.csv_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(profiled.to_dict(), indent=2))
        return 0 if profiled.ok else 1
    result = profiled.run
    print(f"app={args.app} scheme={args.scheme} refs={args.refs}")
    print(f"  normalized IPC      : {result.normalized_ipc:.3f}")
    print(f"  misses attributed   : {report.misses}")
    print(f"  mean miss latency   : {report.mean_latency:,.1f} cycles")
    print(f"  max miss latency    : {report.max_latency:,.1f} cycles")
    print(f"  max residual        : {report.max_residual_fraction:.2%} "
          f"(tolerance {profiled.tolerance:.0%})")
    for component, fraction in sorted(report.fractions().items(),
                                      key=lambda kv: -kv[1]):
        if report.components.get(component):
            print(f"    {component:<13}: {fraction:7.1%}  "
                  f"({report.components[component]:,.0f} cycles)")
    return 0 if profiled.ok else 1


def _cmd_bench(args) -> int:
    from repro.bench import compare_reports, load_report

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    result = api.bench(seed=args.seed, quick=args.quick,
                       progress=progress)
    report = result.report
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot use baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            report["regression_gate"] = compare_reports(
                report, baseline, tolerance=args.tolerance)
        except ValueError as exc:
            print(f"cannot gate against {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
    if args.out is not None:
        from repro.resilience.checkpoint import atomic_write_json

        atomic_write_json(args.out, report)
        print(f"wrote bench report to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        micro = report["micro"]
        print(f"{report['bench_id']}  (schema {report['schema']}"
              + (", quick)" if report["quick"] else ")"))
        for name, entry in micro.items():
            speed = entry["speedup_vs_scalar"]
            table = speed.get("table", float("nan"))
            vec = speed.get("vector", float("nan"))
            print(f"  {name:<15} {entry['units']:>5} {entry['unit']:<9} "
                  f"table {table:6.1f}x  vector {vec:6.1f}x  (vs scalar)")
        sim = report["sim"]
        print(f"  sim ({sim['app']}, {sim['refs']} refs): "
              f"geomean normalized IPC "
              f"{sim['geomean_normalized_ipc']:.4f}")
        gate = report.get("regression_gate")
        if gate is not None:
            verdict = "ok" if gate["ok"] else "REGRESSION"
            print(f"  gate vs baseline: geomean ratio "
                  f"{gate['geomean_ratio']:.4f} "
                  f"(tolerance {gate['tolerance']:.0%}) -> {verdict}")
    gate = report.get("regression_gate")
    if gate is not None and not gate["ok"]:
        return 2
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    try:
        config = ServeConfig(
            host=args.host, port=args.port, scheme=args.scheme,
            num_shards=args.shards, backend=args.backend,
            tenant_bytes=args.tenant_bytes, queue_depth=args.queue_depth,
            batch_max=args.batch_max, l2_size=args.l2_size,
        )
        api.get_config(args.scheme)
    except (KeyError, ValueError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"{detail}", file=sys.stderr)
        return 2

    def ready(address) -> None:
        host, port = address
        # one parseable line so scripts (and the CI smoke job) can find
        # an ephemeral port without racing the log
        print(json.dumps({"event": "listening", "host": host,
                          "port": port}), flush=True)
        print(f"serve: {args.shards} shard(s), {args.backend} backend, "
              f"scheme {args.scheme}; Ctrl-C to stop", file=sys.stderr)

    run_server(config, ready=ready)
    print("serve: drained and stopped", file=sys.stderr)
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve import run_loadgen

    if args.workload is not None:
        error = _check_workload(args.workload)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    try:
        result = run_loadgen(
            args.host, args.port, tenants=args.tenants,
            connections=args.connections, requests=args.requests,
            batch=args.batch, read_fraction=args.read_fraction,
            footprint_blocks=args.footprint_blocks, seed=args.seed,
            recovery=args.recovery, workload=args.workload,
        )
    except (ConnectionError, OSError) as exc:
        print(f"loadgen: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"loadgen: {result.requests} requests "
              f"({result.reads} reads / {result.writes} writes, "
              f"{result.blocks} blocks) over {result.connections} "
              f"connection(s) x {result.tenants} tenant(s)")
        print(f"  throughput : {result.rps:,.1f} req/s "
              f"({result.elapsed_s:.2f} s)")
        print(f"  latency    : p50 {result.p50_ms:.2f} ms   "
              f"p99 {result.p99_ms:.2f} ms")
        print(f"  backpressure: {result.busy_retries} BUSY retries")
        if result.errors:
            print(f"  ERRORS     : {result.errors} "
                  f"(first: {result.error_details[:3]})")
    return 1 if result.errors else 0


def _cmd_trace(args) -> int:
    from repro.workloads import (
        TraceFileError,
        read_header,
        resolve_trace,
        trace_fingerprint,
        write_trace,
    )

    if args.trace_command == "record":
        error = _check_workload(args.workload)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        trace = resolve_trace(args.workload, args.refs, seed=args.seed)
        write_trace(args.out, trace)
        summary = {
            "out": args.out,
            "workload": args.workload,
            "records": len(trace),
            "fingerprint": trace_fingerprint(args.out),
        }
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(f"recorded {summary['records']} references of "
                  f"{args.workload!r} to {args.out} "
                  f"(fingerprint {summary['fingerprint']})")
        return 0

    if args.trace_command == "info":
        try:
            header = read_header(args.trace)
        except (TraceFileError, OSError) as exc:
            print(f"{exc}", file=sys.stderr)
            return 2
        info = {
            "path": args.trace,
            "version": header["version"],
            "name": header["name"],
            "records": header["records"],
            "fingerprint": header["payload_sha256"][:12],
            "payload_sha256": header["payload_sha256"],
        }
        if args.json:
            print(json.dumps(info, indent=2))
        else:
            print(f"{args.trace}: version {info['version']}, "
                  f"name {info['name']!r}, {info['records']} records, "
                  f"fingerprint {info['fingerprint']}")
        return 0

    # replay: run the recording through the full simulator
    try:
        config = api.get_config(args.scheme)
    except KeyError as exc:
        print(f"unknown scheme {args.scheme!r}; see `python -m repro "
              f"schemes` ({exc.args[0]})", file=sys.stderr)
        return 2
    try:
        refs = args.refs
        if refs is None:
            refs = read_header(args.trace)["records"]
        result = api.run(config, f"trace:{args.trace}", refs=refs)
    except (TraceFileError, OSError, ValueError) as exc:
        print(f"{exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"trace={args.trace} scheme={args.scheme} refs={result.refs}")
    print(f"  normalized IPC      : {result.normalized_ipc:.3f}  "
          f"(overhead {result.overhead:.1%})")
    print(f"  L2 misses           : {result.l2_misses}")
    print(f"  bus utilization     : {result.bus_utilization:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Split-counter memory encryption + GCM authentication "
                    "(ISCA 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = sub.add_parser("schemes", help="list configuration presets")
    schemes.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON object")
    sub.add_parser("apps", help="list workloads")
    sim = sub.add_parser("simulate", help="run one timing simulation")
    sim.add_argument("--app", default="swim",
                     help="SPEC app, scenario name, or recorded trace "
                          "(trace:<path> / *.rtrc); see `apps`")
    sim.add_argument("--scheme", default="split+gcm")
    sim.add_argument("--refs", type=int, default=60_000)
    sim.add_argument("--json", action="store_true",
                     help="emit one machine-readable JSON object")
    atk = sub.add_parser("attack", help="stage the counter-replay attack")
    atk.add_argument("--no-counter-auth", action="store_true",
                     help="disable counter authentication (the 4.3 flaw)")
    fuzz = sub.add_parser(
        "fuzz", help="run the adversarial-memory fault-injection harness")
    fuzz.add_argument("--campaigns", type=int, default=20,
                      help="seeded fault campaigns per preset (default 20)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; a run replays bit-for-bit from it")
    fuzz.add_argument("--preset", action="append", metavar="NAME",
                      help="restrict to a preset (repeatable; default: all)")
    fuzz.add_argument("--mac-bits", type=int, default=None,
                      choices=(32, 64, 128),
                      help="override the MAC truncation width")
    fuzz.add_argument("--ops", type=int, default=28,
                      help="operations per schedule (default 28)")
    fuzz.add_argument("--weaken", choices=("no-tree",), default=None,
                      help="deliberately sabotage every system under test "
                           "(harness self-check: faults must be missed)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip minimizing failing schedules")
    fuzz.add_argument("--recover", choices=("halt", "quarantine_page"),
                      default=None,
                      help="enable integrity-violation recovery on every "
                           "system under test; rotates transient glitches "
                           "into the fault mix")
    fuzz.add_argument("--timeout", type=float, default=None, metavar="SEC",
                      help="wall-clock budget; stops between scenarios and "
                           "reports partial results (exit 3 if clean)")
    fuzz.add_argument("--workload", default=None, metavar="NAME",
                      help="shape campaign working sets after a named "
                           "workload (SPEC app, scenario, or "
                           "trace:<path>/*.rtrc) instead of stratified")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")
    sweep = sub.add_parser(
        "sweep", help="multi-experiment sweep on the crash-tolerant fabric")
    sweep.add_argument("--scheme", action="append", metavar="NAME",
                       help="scheme preset (repeatable; default split+gcm)")
    sweep.add_argument("--app", action="append",
                       help="workload: SPEC app, scenario, or recorded "
                            "trace (trace:<path> / *.rtrc; repeatable; "
                            "default swim)")
    sweep.add_argument("--refs", type=int, default=20_000,
                       help="memory references per cell (default 20000)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-attempt wall-clock budget per cell")
    sweep.add_argument("--retries", type=int, default=1,
                       help="extra attempts for crashed/timed-out cells "
                            "(default 1)")
    sweep.add_argument("--retry-backoff", type=float, default=0.25,
                       metavar="SEC",
                       help="base retry delay, doubles per retry")
    sweep.add_argument("--inject", action="append", metavar="KIND@INDEX",
                       help="test hook: make cell INDEX misbehave (crash, "
                            "hang, crash-always, hang-always, kill9:N or "
                            "killworker:N — SIGKILL after the Nth "
                            "checkpoint, which needs N checkpoints before "
                            "the cell's last ref: N * --checkpoint-refs < "
                            "--refs, else exit 2; repeatable)")
    sweep.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON report")
    sweep.add_argument("--out", metavar="PATH",
                       help="stream the report here (rewritten atomically "
                            "after every finished cell, so a crash or "
                            "Ctrl-C leaves a valid partial report)")
    sweep.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes (default 1)")
    sweep.add_argument("--queue-dir", metavar="DIR",
                       help="work-stealing queue directory (default: a "
                            "private temporary one); point a second "
                            "invocation (or host on a shared filesystem) "
                            "at the same DIR to cooperate")
    sweep.add_argument("--resume", action="store_true",
                       help="adopt the manifest already in --queue-dir and "
                            "skip every cell with a published result")
    sweep.add_argument("--lease-ttl", type=float, default=10.0,
                       metavar="SEC",
                       help="reclaim a cell whose lease heartbeat is older "
                            "(or more future-dated) than this (default 10)")
    sweep.add_argument("--heartbeat-interval", type=float, default=0.5,
                       metavar="SEC",
                       help="lease renewal cadence (default 0.5)")
    sweep.add_argument("--checkpoint-refs", type=int,
                       default=CHECKPOINT_REFS, metavar="REFS",
                       help="mid-cell checkpoint cadence so reclaimed or "
                            "retried cells resume instead of rerunning; a "
                            "cell of at most REFS refs runs unchecked "
                            f"(default {CHECKPOINT_REFS})")
    prof = sub.add_parser(
        "profile", help="traced simulation with per-miss cycle attribution")
    prof.add_argument("--app", default="swim",
                      help="SPEC app, scenario name, or recorded trace "
                           "(trace:<path> / *.rtrc); see `apps`")
    prof.add_argument("--scheme", default="split+gcm")
    prof.add_argument("--refs", type=int, default=60_000)
    prof.add_argument("--tolerance", type=float, default=0.01,
                      help="max per-miss attribution residual (default 1%%)")
    prof.add_argument("--trace-out", metavar="PATH",
                      help="write a Chrome/Perfetto trace JSON here")
    prof.add_argument("--csv-out", metavar="PATH",
                      help="write the flat CSV event dump here")
    prof.add_argument("--json", action="store_true",
                      help="emit one machine-readable JSON object")
    bench = sub.add_parser(
        "bench", help="seeded perf-regression bench suite")
    bench.add_argument("--seed", type=int, default=0,
                       help="RNG seed for the micro-bench inputs")
    bench.add_argument("--quick", action="store_true",
                       help="tiny workload for smoke/subprocess tests "
                            "(only gate quick against quick)")
    bench.add_argument("--out", metavar="PATH",
                       help="also write the JSON report here (BENCH_8.json)")
    bench.add_argument("--baseline", metavar="PATH",
                       help="committed bench report to gate against")
    bench.add_argument("--tolerance", type=float, default=0.10,
                       help="max tolerated geo-mean gate-metric regression "
                            "(default 10%%)")
    bench.add_argument("--json", action="store_true",
                       help="emit the machine-readable report on stdout")
    serve = sub.add_parser(
        "serve", help="run the multi-tenant secure-memory service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral; the bound "
                            "port is printed as a JSON line)")
    serve.add_argument("--shards", type=int, default=1,
                       help="number of shards (default 1)")
    serve.add_argument("--backend", choices=("inline", "process"),
                       default="process",
                       help="shard backend: worker processes (real "
                            "parallelism) or inline (default process)")
    serve.add_argument("--scheme", default="split+gcm",
                       help="scheme preset for every tenant system")
    serve.add_argument("--tenant-bytes", type=int, default=1 << 20,
                       help="per-tenant address-space size (default 1 MiB)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="per-shard admission-control cap (default 256)")
    serve.add_argument("--batch-max", type=int, default=64,
                       help="max ops coalesced per shard batch (default 64)")
    serve.add_argument("--l2-size", type=int, default=64 * 1024,
                       help="per-(tenant, shard) L2 size in bytes (default "
                            "64 KiB; shrink it to force the crypto path)")
    load = sub.add_parser(
        "loadgen", help="drive a seeded workload against a running server")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, required=True)
    load.add_argument("--tenants", type=int, default=2)
    load.add_argument("--connections", type=int, default=4)
    load.add_argument("--requests", type=int, default=200,
                      help="requests per connection (default 200)")
    load.add_argument("--batch", type=int, default=4,
                      help="blocks per request (default 4)")
    load.add_argument("--read-fraction", type=float, default=0.65)
    load.add_argument("--footprint-blocks", type=int, default=512,
                      help="per-tenant working-set size in blocks")
    load.add_argument("--seed", type=int, default=1234)
    load.add_argument("--recovery",
                      choices=("halt", "quarantine_page", "degrade"),
                      default=None,
                      help="recovery policy for the opened tenants")
    load.add_argument("--workload", default=None, metavar="NAME",
                      help="shape the address stream like a named workload "
                           "(SPEC app, scenario, or trace:<path>/*.rtrc) "
                           "instead of uniform-random")
    load.add_argument("--json", action="store_true",
                      help="emit one machine-readable JSON object")
    trace = sub.add_parser(
        "trace", help="record/replay/inspect compact .rtrc trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    t_rec = trace_sub.add_parser(
        "record", help="record a generator workload into a trace file")
    t_rec.add_argument("--workload", required=True, metavar="NAME",
                       help="SPEC app or scenario name (see `apps`)")
    t_rec.add_argument("--out", required=True, metavar="PATH.rtrc",
                       help="trace file to write")
    t_rec.add_argument("--refs", type=int, default=60_000,
                       help="memory references to record (default 60000)")
    t_rec.add_argument("--seed", type=int, default=1234,
                       help="generator seed (default 1234)")
    t_rec.add_argument("--json", action="store_true")
    t_rep = trace_sub.add_parser(
        "replay", help="replay a recording through the full simulator")
    t_rep.add_argument("trace", metavar="PATH.rtrc")
    t_rep.add_argument("--scheme", default="split+gcm")
    t_rep.add_argument("--refs", type=int, default=None,
                       help="replay only the first N references "
                            "(default: the whole recording)")
    t_rep.add_argument("--json", action="store_true")
    t_info = trace_sub.add_parser(
        "info", help="validate a trace file and print its header")
    t_info.add_argument("trace", metavar="PATH.rtrc")
    t_info.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    return {"schemes": _cmd_schemes, "apps": _cmd_apps,
            "simulate": _cmd_simulate, "attack": _cmd_attack,
            "fuzz": _cmd_fuzz, "profile": _cmd_profile,
            "sweep": _cmd_sweep, "bench": _cmd_bench,
            "serve": _cmd_serve, "loadgen": _cmd_loadgen,
            "trace": _cmd_trace}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
