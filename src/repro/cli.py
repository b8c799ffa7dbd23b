"""Command-line interface.

Mirrors the workflows a user of the paper's framework runs by hand::

    python -m repro list-workloads --category memory
    python -m repro measure  --core a72 --workload ML2_BWld
    python -m repro simulate --core a53 --workload CS1 --set l1d.prefetcher=stride
    python -m repro lmbench  --core a53
    python -m repro validate --core a53 --profile fast --jobs 4 --out results/a53.json
    python -m repro sweep    --core a53 --workloads STc,MD \\
        --set l1d.prefetcher=none,stride --set l1d.prefetch_degree=2,4
    python -m repro components --slot prefetcher

Every experiment-running subcommand accepts ``--store PATH`` to read and
write a persistent experiment store (SQLite): results survive the
process, successive runs share cache hits, and ``validate``/``sweep``
runs become resumable via ``--resume RUN_ID``. The ``store`` subcommand
(``stats | ls | gc | export | import``) manages a store directly.

The store file doubles as the distributed fabric's job queue:
``--executor fabric`` on ``simulate``/``validate``/``sweep`` dispatches
every simulation batch to it, ``repro worker --store PATH`` processes
(any number, any host sharing the file) execute them, ``repro submit``
enqueues a grid without waiting, and ``repro status`` shows queue
depth, leases, dead letters and per-worker throughput::

    python -m repro worker --store fab.sqlite --max-idle 120 &
    python -m repro worker --store fab.sqlite --max-idle 120 &
    python -m repro validate --core a53 --profile fast \\
        --executor fabric --store fab.sqlite
    python -m repro status --store fab.sqlite --json

Fleets without shared storage speak HTTP instead: ``repro serve`` fronts
the store file with the experiment service (:mod:`repro.service`), and
``worker``/``status``/``submit`` accept ``--url`` (plus ``--token`` or
the ``REPRO_TOKEN`` environment variable) in place of ``--store``::

    export REPRO_TOKEN=$(python -c 'import secrets; print(secrets.token_hex())')
    python -m repro serve --store fab.sqlite --port 8537 &
    python -m repro worker --url http://fab-host:8537 --max-idle 120 &
    python -m repro status --url http://fab-host:8537 --json
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from dataclasses import asdict

from repro.analysis.io import save_result_json
from repro.analysis.tables import render_table
from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.engine import EvaluationEngine
from repro.hardware.board import FireflyRK3399
from repro.hardware.lmbench import lat_mem_rd
from repro.store import open_store
from repro.tuning.cost import cpi_error
from repro.validation.campaign import PROFILES, ValidationCampaign
from repro.workloads.microbench import ALL_MICROBENCHMARKS, MICROBENCHMARKS, list_microbenchmarks
from repro.workloads.spec import SPEC_WORKLOADS


def _lookup_workload(name: str):
    if name in MICROBENCHMARKS:
        return MICROBENCHMARKS[name]
    if name in SPEC_WORKLOADS:
        return SPEC_WORKLOADS[name]
    raise SystemExit(f"unknown workload {name!r}; try 'list-workloads'")


def _public_config(core: str):
    key = core.lower().replace("cortex-", "")
    if key == "a53":
        return cortex_a53_public_config()
    if key == "a72":
        return cortex_a72_public_config()
    raise SystemExit(f"unknown core {core!r}; the board has a53 and a72")


def _convert_token(raw: str):
    """One ``--set`` value token to int/float/bool/str."""
    for conv in (int, float):
        try:
            return conv(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_overrides(pairs):
    """``key=value`` strings into a dotted-path update dict."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key] = _convert_token(raw)
    return out


def _apply_overrides(config, overrides):
    """Apply ``--set`` overrides with up-front validation.

    Unknown dotted paths and invalid component names surface here as a
    clean error with the registry's did-you-mean suggestion, instead of
    a traceback from deep inside a simulation.
    """
    try:
        return config.with_updates(overrides)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"bad --set parameter: {message}") from None


def _parse_sweep_sets(pairs):
    """``key=v1,v2,...`` strings into an ordered {key: [values]} grid."""
    if not pairs:
        raise SystemExit("sweep needs at least one --set key=v1,v2,...")
    grid = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=v1,v2,..., got {pair!r}")
        key, raw = pair.split("=", 1)
        if key in grid:
            raise SystemExit(f"--set {key} given twice; list all values in one --set")
        values = [_convert_token(tok) for tok in raw.split(",") if tok != ""]
        if not values:
            raise SystemExit(f"--set {key} has no values")
        grid[key] = values
    return grid


def cmd_list_workloads(args) -> int:
    rows = []
    for wl in list_microbenchmarks(args.category):
        rows.append([wl.name, wl.category, wl.paper_instructions])
    if args.category is None:
        for wl in SPEC_WORKLOADS.values():
            rows.append([wl.name, wl.category, wl.paper_instructions])
    print(render_table(["name", "category", "paper instructions"], rows))
    return 0


def _check_executor(args) -> str:
    """Validate ``--executor`` against the other knobs; returns it.

    The fabric executor queues work in the store file for external
    ``repro worker`` processes, so it is meaningless without ``--store``;
    the process executor needs ``--jobs >= 2`` to have a pool to run on.
    Both fail here, before any simulation starts.
    """
    executor = getattr(args, "executor", None)
    if executor == "fabric" and not getattr(args, "store", None):
        raise SystemExit(
            "--executor fabric needs --store PATH (the job queue lives in "
            "the store file the workers share)"
        )
    if executor == "process" and getattr(args, "jobs", 1) < 2:
        raise SystemExit(
            "--executor process needs --jobs 2 or more (or drop --executor: "
            "--jobs alone selects the process pool)"
        )
    return executor


class _RunRecord:
    """One CLI run's store and registry record, from open to close.

    A context manager around the run's body; ``store`` is the run's
    ``--store``, and without one it does nothing. :meth:`create` registers a new run, :meth:`resume` reopens
    the one behind ``--resume RUN_ID``, and :meth:`complete` marks the
    body's success with its engine's telemetry. However the body ends,
    the record is finished with ``status`` and ``telemetry`` and the
    store closed; ``status`` starts as the state a run that raises is
    left in.
    """

    def __init__(self, args, status: str) -> None:
        path = getattr(args, "store", None)
        self.store = open_store(path) if path else None
        self.status = status
        self.telemetry = None
        self.record = None

    def create(self, kind: str, announce: bool = False, **fields) -> None:
        """Register a new ``kind`` run; ``announce`` prints its id."""
        if self.store is None:
            return
        self.record = self.store.registry.create(kind, **fields)
        if announce:
            print(f"run id: {self.record.run_id}")

    def resume(self, run_id: str, kind: str):
        """Fetch and reopen the ``kind`` run ``run_id``; returns its record."""
        if self.store is None:
            raise SystemExit("--resume needs --store (the run lives in a store)")
        try:
            record = self.store.registry.get(run_id)
        except KeyError:
            raise SystemExit(f"unknown run id {run_id!r}; try 'store ls'") from None
        if record.kind != kind:
            raise SystemExit(f"run {run_id!r} is a {record.kind!r} run, not {kind}")
        self.store.registry.reopen(record.run_id)
        self.record = record
        return record

    def complete(self, telemetry) -> None:
        """The body succeeded; ``telemetry`` is its engine's."""
        self.status, self.telemetry = "completed", telemetry

    def __enter__(self) -> "_RunRecord":
        return self

    def __exit__(self, *exc) -> None:
        if self.store is None:
            return
        try:
            if self.record is not None:
                self.store.registry.finish(
                    self.record.run_id, status=self.status,
                    telemetry=None if self.telemetry is None else asdict(self.telemetry),
                )
        finally:
            self.store.close()


def cmd_measure(args) -> int:
    """Hardware ground truth for one workload — through the engine, so a
    ``--store`` makes the measurement durable and shareable."""
    board = FireflyRK3399()
    wl = _lookup_workload(args.workload)
    with _RunRecord(args, status="failed") as run:
        run.create("measure", core=args.core, params={"workload": args.workload})
        with EvaluationEngine(hw=board.core(args.core), workloads=[wl],
                              store=run.store) as engine:
            result = engine.measure_hw(args.workload)
            rows = [[name, value] for name, value in sorted(result.counters.items())]
            rows.append(["cpi", f"{result.cpi:.4f}"])
            print(render_table(["counter", "value"],
                               rows, title=f"{args.workload} on {result.core}"))
            run.complete(engine.telemetry)
        if run.store is not None:
            print(f"engine: {engine.telemetry.summary()}")
    return 0


def cmd_simulate(args) -> int:
    """One (config, workload) trial vs hardware — engine-routed: cached,
    telemetered, and persistent when ``--store`` is given."""
    board = FireflyRK3399()
    overrides = _parse_overrides(args.set)
    config = _apply_overrides(_public_config(args.core), overrides)
    wl = _lookup_workload(args.workload)
    executor = _check_executor(args)
    with _RunRecord(args, status="failed") as run:
        run.create("simulate", core=args.core,
                   params={"workload": args.workload, "set": overrides})
        with EvaluationEngine(hw=board.core(args.core), workloads=[wl],
                              executor=executor, store=run.store) as engine:
            stats = engine.simulate(config, args.workload)
            hw = engine.measure_hw(args.workload)
            rows = [
                ["instructions", stats.instructions, hw.instructions],
                ["cycles", stats.cycles, hw.cycles],
                ["CPI", f"{stats.cpi:.4f}", f"{hw.cpi:.4f}"],
                ["branch misses", stats.branch.mispredicts, hw.counter("branch-misses")],
                ["L1D misses", stats.l1d.misses, hw.counter("L1-dcache-load-misses")],
                ["L2 misses", stats.l2.misses, hw.counter("l2-misses")],
            ]
            print(render_table(["metric", "simulator", "hardware"], rows,
                               title=f"{args.workload} — {config.name}"))
            print(f"CPI error: {cpi_error(stats, hw):.1%}")
            run.complete(engine.telemetry)
        if run.store is not None:
            print(f"engine: {engine.telemetry.summary()}")
    return 0


def cmd_lmbench(args) -> int:
    board = FireflyRK3399()
    config = _public_config(args.core)
    estimates = lat_mem_rd(board.core(args.core),
                           l1_size=config.l1d.size, l2_size=config.l2.size)
    print(f"lmbench estimates for {args.core}: {estimates.summary()}")
    return 0


def cmd_validate(args) -> int:
    board = FireflyRK3399()
    executor = _check_executor(args)
    core, profile, seed, stages = args.core, args.profile, args.seed, args.stages
    resume = False
    with _RunRecord(args, status="interrupted") as run:
        if args.resume:
            record = run.resume(args.resume, "validate")
            # The record carries the run's identity; only --jobs may
            # differ (parallelism never changes results).
            core, profile, seed = record.core, record.profile, record.seed
            stages = record.params.get("stages", stages)
            resume = True
            print(f"resuming run {record.run_id} ({core}, {profile} profile)")
        else:
            run.create(
                "validate", announce=True, core=core, profile=profile, seed=seed,
                params={"stages": stages, "jobs": args.jobs,
                        "race_mode": args.race_mode}, run_id=args.run_id,
            )
        campaign = ValidationCampaign(
            board, core=core, profile=profile, seed=seed, verbose=True,
            jobs=args.jobs, executor=executor, store=run.store,
            run_id=run.record.run_id if run.record else None,
            race_mode=args.race_mode, lookahead=args.lookahead,
        )
        run.telemetry = campaign.engine.telemetry
        try:
            result = campaign.run(stages=stages, resume=resume)
        finally:
            campaign.close()
        run.complete(campaign.engine.telemetry)
        print(result.summary())
        print(f"engine: {campaign.engine.telemetry.summary()}")
        if args.out:
            payload = {
                "core": result.core,
                "profile": result.profile,
                "untuned_errors": result.untuned_errors,
                "final_errors": result.final_errors,
                "tuned_assignment": result.stages[-1].irace.best_assignment,
            }
            save_result_json(args.out, payload)
            print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    """Scenario exploration: cross-product of --set value lists."""
    board = FireflyRK3399()
    executor = _check_executor(args)
    core, scale, workload_arg = args.core, args.scale, args.workloads
    resume = False
    with _RunRecord(args, status="interrupted") as run:
        if args.resume:
            record = run.resume(args.resume, "sweep")
            core = record.core
            scale = record.params["scale"]
            workload_arg = record.params["workloads"]
            # The grid is recorded as ordered [key, values] pairs: canonical
            # JSON sorts dict keys, and axis order defines trial order.
            grid = dict(record.params["grid"])
            resume = True
            print(f"resuming run {record.run_id} ({core})")
        else:
            grid = _parse_sweep_sets(args.set)
        base = _public_config(core)
        keys = list(grid)
        combos = [dict(zip(keys, values)) for values in itertools.product(*grid.values())]
        if workload_arg:
            names = [n.strip() for n in workload_arg.split(",") if n.strip()]
            if not names:
                raise SystemExit("--workloads names no workloads")
            workloads = [_lookup_workload(n) for n in names]
        else:
            workloads = list(ALL_MICROBENCHMARKS)
            names = [wl.name for wl in workloads]

        configs = [_apply_overrides(base, combo) for combo in combos]

        if not resume:
            run.create(
                "sweep", announce=True, core=core,
                params={"grid": [[key, values] for key, values in grid.items()],
                        "workloads": workload_arg, "scale": scale,
                        "jobs": args.jobs},
            )

        with EvaluationEngine(
            hw=board.core(core), workloads=workloads,
            scale=scale, jobs=args.jobs, executor=executor, store=run.store,
        ) as engine:
            pairs = [(config, name) for config in configs for name in names]
            stats_list = engine.simulate_batch(pairs)

            rows, results, combo_means = [], [], []
            stats_iter = iter(stats_list)
            for combo in combos:
                errs = []
                for name in names:
                    stats = next(stats_iter)
                    hw = engine.measure_hw(name)
                    err = cpi_error(stats, hw)
                    errs.append(err)
                    rows.append([*[combo[k] for k in keys], name,
                                 f"{stats.cpi:.4f}", f"{hw.cpi:.4f}", f"{err:.1%}"])
                    results.append({"workload": name, **combo,
                                    "sim_cpi": stats.cpi, "hw_cpi": hw.cpi,
                                    "cpi_error": err})
                combo_means.append(sum(errs) / len(errs))
            run.complete(engine.telemetry)

        print(render_table([*keys, "workload", "sim CPI", "hw CPI", "CPI err"],
                           rows, title=f"sweep — {base.name} on {core}"))
        best = min(range(len(combos)), key=combo_means.__getitem__)
        best_desc = ", ".join(f"{k}={combos[best][k]}" for k in keys)
        print(f"{len(combos)} configurations x {len(names)} workloads "
              f"= {len(pairs)} trials ({engine.telemetry.unique_trials} unique simulations)")
        print(f"best mean CPI error: {combo_means[best]:.1%} ({best_desc})")
        if args.out:
            payload = {
                "core": core,
                "base_config": base.name,
                "grid": grid,
                "workloads": names,
                "scale": scale,
                "trials": results,
                "best": {"mean_cpi_error": combo_means[best], **combos[best]},
            }
            save_result_json(args.out, payload)
            print(f"wrote {args.out}")
    return 0


def cmd_components(args) -> int:
    """List the component registry: slots, components, knobs, sites."""
    from repro.components import REGISTRY, registry_fingerprint

    if args.json:
        import json as _json

        payload = REGISTRY.describe()
        payload["fingerprint"] = registry_fingerprint()
        print(_json.dumps(payload, indent=1, sort_keys=True))
        return 0

    slots = REGISTRY.slots()
    if args.slot:
        slots = [s for s in slots if s.name == args.slot]
        if not slots:
            known = ", ".join(s.name for s in REGISTRY.slots())
            raise SystemExit(f"unknown slot {args.slot!r}; choose from {known}")

    for slot in slots:
        rows = []
        for comp in slot:
            binding = ", ".join(
                f"{kwarg}<-{fieldname}" for kwarg, fieldname in comp.params
            ) or "-"
            flags = []
            if comp.null:
                flags.append("null")
            if not comp.tunable:
                flags.append("untunable")
            rows.append([comp.name, f"stage {comp.stage}",
                         " ".join(flags) or "-", binding, comp.summary])
        selector = slot.selector or "(structural)"
        print(render_table(
            ["component", "raceable", "flags", "knob binding", "summary"],
            rows, title=f"slot {slot.name} — selector field: {selector}"))

        knob_rows = []
        for knob in slot.knobs:
            condition = "always"
            if knob.gated and slot.null_name is not None:
                condition = f"when {slot.selector} != {slot.null_name!r}"
            candidates = ", ".join(map(str, knob.values))
            if not candidates and knob.kind == "boolean":
                candidates = "False, True"
            knob_rows.append([knob.field, knob.kind, candidates or "-",
                              condition, knob.summary])
        if knob_rows:
            print(render_table(["knob", "kind", "candidates", "active", "summary"],
                               knob_rows, title=f"slot {slot.name} — knobs"))

        site_rows = []
        for site in REGISTRY.sites(slot.name):
            restricted = ", ".join(site.components) if site.components else "all tunable"
            over = "; ".join(
                f"{field}={', '.join(map(str, values))}"
                for field, values in (site.values or {}).items()
            ) or "-"
            site_rows.append([site.section, restricted, over,
                              ", ".join(site.domains) or "-"])
        if site_rows:
            print(render_table(
                ["config section", "candidates", "knob overrides", "round domains"],
                site_rows, title=f"slot {slot.name} — tuning sites"))
        print()
    print(f"registry fingerprint: {registry_fingerprint()} "
          "(folded into engine cache keys)")
    return 0


def cmd_bench(args) -> int:
    """Run the perf suite and record/update ``BENCH_<host>.json``."""
    from repro.bench import (
        compare_runs,
        default_bench_path,
        get_suite,
        load_report,
        run_bench,
    )

    suite = "quick" if args.quick else args.suite
    if args.list:
        rows = [[s.name, s.kind, s.core if s.kind != "trace" else "-",
                 len(s.workloads), s.repeats]
                for s in get_suite(suite)]
        print(render_table(["scenario", "kind", "core", "workloads", "repeats"],
                           rows, title=f"bench suite — {suite}"))
        return 0

    report, entry, path = run_bench(
        suite=suite, repeats=args.repeat,
        out=args.out if args.out else default_bench_path(),
        progress=print,
    )
    rows = []
    for scn in entry["scenarios"]:
        rows.append([
            scn["name"], scn["kind"], scn["core"] or "-", scn["workloads"],
            f"{scn['wall_seconds'] * 1e3:.1f}",
            f"{scn['instructions_per_second']:,.0f}",
            f"{scn['cycles_per_second']:,.0f}" if scn["cycles_per_second"] else "-",
        ])
    print(render_table(
        ["scenario", "kind", "core", "workloads", "wall ms",
         "instr/s", "sim cycles/s"],
        rows, title=f"repro bench — {suite} suite"))
    totals = entry["totals"]
    print(f"simulate scenarios: {totals['simulate_instructions']} instructions "
          f"in {totals['simulate_wall_seconds'] * 1e3:.1f} ms = "
          f"{totals['simulate_instructions_per_second']:,.0f} instr/s")
    for scn in entry["scenarios"]:
        if not scn["telemetry"]:
            continue
        t = scn["telemetry"]
        if scn["kind"] == "batch":
            print(f"batched race step ({scn['name']}): {t['candidates']} candidates, "
                  f"{t['speedup_vs_isolated']:.2f}x vs isolated passes, "
                  f"{t['speedup_vs_warm_serial']:.2f}x vs warm serial "
                  f"(batched {t['batched_wall_seconds'] * 1e3:.1f} ms)")
        elif scn["kind"] == "mmap":
            print(f"trace attach ({scn['name']}): {t['blobs']} blobs, "
                  f"attach {t['attach_wall_seconds'] * 1e3:.2f} ms vs "
                  f"record+persist {t['build_persist_wall_seconds'] * 1e3:.1f} ms "
                  f"({t['attach_speedup']:.0f}x)")
    print(f"wrote {len(report['runs'])} run(s) to {path}")
    if args.json:
        import json as _json

        print(_json.dumps(entry, indent=1, sort_keys=True))
    if args.compare:
        baseline = load_report(args.compare)
        rows, regressions = compare_runs(
            baseline["runs"][-1], entry, max_regression=args.max_regression,
        )
        if not rows:
            print(f"compare: no scenarios in common with {args.compare}")
        else:
            table = [[r["name"],
                      f"{r['baseline_instructions_per_second']:,.0f}",
                      f"{r['current_instructions_per_second']:,.0f}",
                      f"{r['ratio']:.2f}x",
                      "REGRESSED" if r["regressed"] else "ok"]
                     for r in rows]
            print(render_table(
                ["scenario", "baseline instr/s", "current instr/s",
                 "ratio", "verdict"],
                table, title=f"compare vs {args.compare} "
                             f"(threshold -{args.max_regression:.0%})"))
        if regressions:
            names = ", ".join(r["name"] for r in regressions)
            print(f"compare: {len(regressions)} scenario(s) regressed "
                  f">{args.max_regression:.0%}: {names}")
            if not args.compare_warn:
                return 1
            print("compare: --compare-warn set; not failing")
    return 0


def _fabric_spec(args):
    """Resolve a fabric subcommand's queue/store spec.

    Exactly one of ``--store PATH`` (shared file) and ``--url URL``
    (experiment service) must be given; returns ``(spec, token)``
    where the token — ``--token`` falling back to ``REPRO_TOKEN`` — is
    ``None`` for file specs.
    """
    url = getattr(args, "url", None)
    if bool(args.store) == bool(url):
        raise SystemExit(
            "give exactly one of --store PATH (shared store file) or "
            "--url URL (remote experiment service)"
        )
    if url:
        from repro.service.protocol import resolve_token

        return url, resolve_token(getattr(args, "token", None))
    return args.store, None


def cmd_serve(args) -> int:
    """Serve a fabric store over HTTP for a remote worker fleet."""
    from repro.service.protocol import WIRE_VERSION
    from repro.service.server import ExperimentService

    try:  # no token, or one too short to redact safely
        service = ExperimentService(
            args.store, token=args.token, host=args.host, port=args.port,
            max_depth=args.max_depth, lease_seconds=args.lease,
            progress=print if args.verbose else None,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}") from None
    depth = "unbounded" if args.max_depth is None else str(args.max_depth)
    print(f"serving {args.store} at {service.url} "
          f"(wire v{WIRE_VERSION}, max depth {depth}; Ctrl-C to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nserve: shutting down")
    finally:
        service.close()
    return 0


def cmd_submit(args) -> int:
    """Enqueue a grid of simulation tasks on the fabric (no waiting).

    The sweep-shaped spec (``--set key=v1,v2`` axes x workloads) is
    decomposed into content-keyed tasks, deduplicated against the
    store, and left on the durable queue for ``repro worker``
    processes to chew through — pre-warming the store for campaigns
    and sweeps that run later. Dead-lettered keys in the grid get a
    fresh claim budget and count as enqueued; "already queued" counts
    keys left as they were (queued, leased or done).
    """
    from repro.fabric import expand_grid, open_queue, plan_simulations

    grid = _parse_sweep_sets(args.set) if args.set else {}
    base = _public_config(args.core)
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        if not names:
            raise SystemExit("--workloads names no workloads")
    else:
        names = [wl.name for wl in ALL_MICROBENCHMARKS]
    for name in names:
        _lookup_workload(name)  # fail on unknown names before enqueueing
    try:
        items = expand_grid(base, grid, names, scale=args.scale)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"bad --set parameter: {message}") from None
    spec, token = _fabric_spec(args)
    with open_store(spec, token=token) as store:
        plan = plan_simulations(items, store=store)
        with open_queue(spec, token=token) as queue:
            added = queue.enqueue(plan.tasks, submitted_by="submit")
            depth = queue.depth()
    already_queued = len(plan.tasks) - added
    flag = "--url" if getattr(args, "url", None) else "--store"
    print(f"submit: {len(plan.keys)} unique trials: {added} enqueued, "
          f"{len(plan.store_hits)} already in store, "
          f"{already_queued} already queued")
    print(f"queue depth now {depth}; run `repro worker {flag} {spec}` "
          "to execute")
    return 0


def cmd_worker(args) -> int:
    """Run one fabric worker against a shared store file or service URL."""
    from repro.fabric import FabricWorker

    spec, token = _fabric_spec(args)
    worker = FabricWorker(
        spec,
        worker_id=args.id,
        lease=args.lease,
        poll=args.poll,
        max_tasks=args.max_tasks,
        max_idle=args.max_idle,
        drain=args.drain,
        progress=print,
        token=token,
        max_retries=args.max_retries,
    )
    print(f"worker {worker.worker_id} on {spec} "
          f"(lease {args.lease:.0f}s, pid {os.getpid()})")
    stats = worker.run()
    print(f"worker {worker.worker_id}: {stats.claimed} claimed, "
          f"{stats.completed} completed, {stats.failed} failed, "
          f"{stats.lost_leases} leases lost")
    return 0


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB"):
        if n < 1024 or unit == "MiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}MiB"


def cmd_status(args) -> int:
    """Queue depth, leases, workers and throughput of a fabric store."""
    from repro.fabric import open_queue, status_snapshot

    spec, token = _fabric_spec(args)
    if args.requeue_dead:
        with open_queue(spec, token=token) as queue:
            revived = queue.requeue_dead()
        print(f"requeued {revived} dead task(s)")
    snap = status_snapshot(spec, token=token)
    if args.json:
        import json as _json

        print(_json.dumps(snap, indent=1, sort_keys=True))
        return 0

    counts = snap["queue"]
    print(render_table(
        ["state", "tasks"],
        [[state, counts[state]] for state in ("queued", "leased", "done", "dead")]
        + [["(retries)", snap["retries"]]],
        title=f"fabric queue — {spec}"))
    if snap["leases"]:
        rows = [[l["worker"], f"{l['expires_in_seconds']:.1f}s",
                 l["attempts"], l["key"][:60]]
                for l in snap["leases"]]
        print(render_table(["worker", "expires in", "attempt", "task key"],
                           rows, title="live leases"))
    if snap["dead"]:
        rows = [[d["attempts"], (d["error"] or "-")[:50], d["key"][:50]]
                for d in snap["dead"]]
        print(render_table(["attempts", "last error", "task key"],
                           rows, title="dead letters"))
    if snap["workers"]:
        rows = []
        for w in snap["workers"]:
            rows.append([
                w["worker_id"], w["pid"] or "-",
                f"{w['last_seen_seconds_ago']:.1f}s ago",
                w["tasks_done"], w["tasks_failed"],
                f"{w['tasks_per_second']:.2f}/s",
                w["store_hits"],
                f"{w['unique_trials']}/{w['requested_trials']}",
                w["batched_trials"],
                w["wire_requests"],
                _human_bytes(w["wire_bytes_out"] + w["wire_bytes_in"]),
            ])
        print(render_table(
            ["worker", "pid", "last seen", "done", "failed", "throughput",
             "store hits", "trials (unique/req)", "batched", "wire reqs",
             "wire bytes"],
            rows, title="workers"))
    results = snap["results"]
    print(f"store: {results['sim_results']} sim results, "
          f"{results['hw_results']} hw results, "
          f"{results['trial_costs']} trial costs")
    return 0


def cmd_store_stats(args) -> int:
    with open_store(args.store) as store:
        stats = store.stats()
    rows = [[key, stats[key]] for key in
            ("backend", "path", "schema_version", "sim_results", "hw_results",
             "trial_costs", "runs", "checkpoints", "size_bytes")]
    print(render_table(["field", "value"], rows, title=f"store — {args.store}"))
    return 0


def cmd_store_ls(args) -> int:
    with open_store(args.store) as store:
        records = store.registry.list(kind=args.kind, status=args.status)
    rows = []
    for r in records:
        started = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(r.started))
        wall = f"{r.wall_seconds:.1f}s" if r.wall_seconds is not None else "-"
        trials = "-"
        if r.telemetry:
            trials = (f"{r.telemetry.get('unique_trials', 0)}"
                      f"/{r.telemetry.get('requested_trials', 0)}")
        rows.append([r.run_id, r.kind, r.core or "-", r.profile or "-",
                     r.status, started, wall, trials])
    print(render_table(
        ["run id", "kind", "core", "profile", "status", "started",
         "wall", "trials (unique/req)"],
        rows, title=f"runs — {args.store}"))
    return 0


def cmd_store_gc(args) -> int:
    with open_store(args.store) as store:
        removed = store.gc(days=args.days)
    print(f"gc: removed {removed['checkpoints_removed']} checkpoints of finished runs, "
          f"pruned {removed['rows_pruned']} result rows")
    return 0


def cmd_store_export(args) -> int:
    with open_store(args.store) as store:
        counts = store.export_json(args.file)
    total = sum(counts.values())
    print(f"exported {total} rows ({', '.join(f'{k}={v}' for k, v in counts.items())}) "
          f"to {args.file}")
    return 0


def cmd_store_import(args) -> int:
    with open_store(args.store) as store:
        counts = store.import_json(args.file, replace=args.replace)
    total = sum(counts.values())
    print(f"imported {total} new rows "
          f"({', '.join(f'{k}={v}' for k, v in counts.items())}) from {args.file}")
    return 0


def _add_fabric_target(p) -> None:
    """``--store`` / ``--url`` / ``--token`` trio of fabric subcommands."""
    p.add_argument("--store", default=None,
                   help="shared store file (queue + results)")
    p.add_argument("--url", default=None,
                   help="experiment service URL (http://host:port) instead "
                        "of --store")
    p.add_argument("--token", default=None,
                   help="bearer token for --url (default: REPRO_TOKEN "
                        "environment variable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Racing to Hardware-Validated Simulation — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-workloads", help="list micro-benchmarks and SPEC proxies")
    p.add_argument("--category", choices=["memory", "control", "dataparallel",
                                          "execution", "store"], default=None)
    p.set_defaults(func=cmd_list_workloads)

    p = sub.add_parser("measure", help="perf-measure a workload on the board")
    p.add_argument("--core", default="a53")
    p.add_argument("--workload", required=True)
    p.add_argument("--store", default=None,
                   help="persistent experiment store (SQLite path)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("simulate", help="simulate a workload and compare to hardware")
    p.add_argument("--core", default="a53")
    p.add_argument("--workload", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config parameter (repeatable)")
    p.add_argument("--store", default=None,
                   help="persistent experiment store (SQLite path)")
    p.add_argument("--executor", choices=["serial", "process", "fabric"],
                   default=None,
                   help="execution backend (fabric = distributed workers)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lmbench", help="estimate cache/memory latencies (step #2)")
    p.add_argument("--core", default="a53")
    p.set_defaults(func=cmd_lmbench)

    p = sub.add_parser("validate", help="run the full validation campaign")
    p.add_argument("--core", default="a53")
    p.add_argument("--profile", choices=sorted(PROFILES), default="fast")
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel simulation processes (1 = serial)")
    p.add_argument("--executor", choices=["serial", "process", "fabric"],
                   default=None,
                   help="execution backend (fabric = distributed workers "
                        "sharing --store)")
    p.add_argument("--race-mode", choices=["sync", "async"], default="sync",
                   help="race execution: sync = barrier per instance step, "
                        "async = speculative scheduling that keeps workers "
                        "saturated (bit-identical results either way)")
    p.add_argument("--lookahead", type=int, default=2,
                   help="async racing: instance steps speculated beyond the "
                        "commit frontier per alive candidate")
    p.add_argument("--out", default=None, help="write results JSON here")
    p.add_argument("--store", default=None,
                   help="persistent experiment store (SQLite path)")
    p.add_argument("--resume", default=None, metavar="RUN_ID",
                   help="resume an interrupted run from its checkpoints")
    p.add_argument("--run-id", default=None,
                   help="explicit run id for the registry (default: generated)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "sweep",
        help="simulate the cross-product of --set value lists over workloads",
    )
    p.add_argument("--core", default="a53")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload names (default: all 40 kernels)")
    p.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                   help="parameter value list to sweep (repeatable)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="trace scale (1.0 = nominal length)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel simulation processes (1 = serial)")
    p.add_argument("--executor", choices=["serial", "process", "fabric"],
                   default=None,
                   help="execution backend (fabric = distributed workers "
                        "sharing --store)")
    p.add_argument("--out", default=None, help="write sweep results JSON here")
    p.add_argument("--store", default=None,
                   help="persistent experiment store (SQLite path)")
    p.add_argument("--resume", default=None, metavar="RUN_ID",
                   help="re-run a recorded sweep (warm store makes it cheap)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "submit",
        help="enqueue a task grid on the distributed fabric (no waiting)",
    )
    p.add_argument("--core", default="a53")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload names (default: all 40 kernels)")
    p.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                   help="parameter value list axis (repeatable; optional)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="trace scale (1.0 = nominal length)")
    _add_fabric_target(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "serve",
        help="serve a fabric store over HTTP for remote workers",
    )
    p.add_argument("--store", required=True,
                   help="store file to serve (queue + results)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback; 0.0.0.0 for a fleet)")
    p.add_argument("--port", type=int, default=8537,
                   help="TCP port (default 8537; 0 picks a free port)")
    p.add_argument("--token", default=None,
                   help="bearer token workers must present, at least 16 "
                        "characters (default: REPRO_TOKEN environment "
                        "variable; required)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="backpressure: reject submits (429) while this many "
                        "tasks are outstanding (default: unbounded)")
    p.add_argument("--lease", type=float, default=30.0,
                   help="default lease seconds for claims that don't override")
    p.add_argument("--verbose", action="store_true",
                   help="log every request (tokens redacted)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a fabric worker: lease tasks, simulate, write the store",
    )
    _add_fabric_target(p)
    p.add_argument("--id", default=None,
                   help="stable worker id (default: generated)")
    p.add_argument("--lease", type=float, default=30.0,
                   help="lease seconds per claim (heartbeat renews at 1/3)")
    p.add_argument("--poll", type=float, default=0.5,
                   help="seconds between empty claim attempts")
    p.add_argument("--max-tasks", type=int, default=None,
                   help="exit after executing this many tasks")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many seconds without work")
    p.add_argument("--drain", action="store_true",
                   help="run the current backlog, then exit")
    p.add_argument("--max-retries", type=int, default=None,
                   help="with --url: transient-failure budget per request "
                        "(connection refused, timeout, 5xx, 429; "
                        "exponential backoff with jitter between tries)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "status",
        help="fabric queue depth, leases, workers, throughput",
    )
    _add_fabric_target(p)
    p.add_argument("--json", action="store_true",
                   help="emit the snapshot as JSON")
    p.add_argument("--requeue-dead", action="store_true",
                   help="give dead-lettered tasks a fresh claim budget first")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "components",
        help="list registered components per slot (knobs, candidates, sites)",
    )
    p.add_argument("--slot", default=None,
                   help="show one slot only (e.g. prefetcher)")
    p.add_argument("--json", action="store_true",
                   help="emit the registry description as JSON")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser(
        "bench",
        help="run the perf scenario suite, update BENCH_<host>.json",
    )
    p.add_argument("--suite", choices=["full", "quick"], default="full")
    p.add_argument("--quick", action="store_true",
                   help="shorthand for --suite quick (CI smoke)")
    p.add_argument("--repeat", type=int, default=None,
                   help="override per-scenario repeat count")
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_<host>.json)")
    p.add_argument("--list", action="store_true",
                   help="print the scenario list without running")
    p.add_argument("--json", action="store_true",
                   help="also print this run's entry as JSON")
    p.add_argument("--compare", default=None, metavar="BASELINE.json",
                   help="diff this run against a baseline report; exit "
                        "non-zero on regression")
    p.add_argument("--compare-warn", action="store_true",
                   help="with --compare: report regressions but exit 0 "
                        "(soft gate for noisy shared runners)")
    p.add_argument("--max-regression", type=float, default=0.15,
                   help="relative throughput loss tolerated by --compare "
                        "(default 0.15)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("store", help="manage a persistent experiment store")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("stats", help="row counts, schema, size")
    sp.add_argument("--store", required=True)
    sp.set_defaults(func=cmd_store_stats)

    sp = store_sub.add_parser("ls", help="list registered runs")
    sp.add_argument("--store", required=True)
    sp.add_argument("--kind", default=None,
                    choices=["validate", "sweep", "measure", "simulate"])
    sp.add_argument("--status", default=None,
                    choices=["running", "interrupted", "completed", "failed"])
    sp.set_defaults(func=cmd_store_ls)

    sp = store_sub.add_parser("gc", help="drop finished runs' checkpoints, prune old rows")
    sp.add_argument("--store", required=True)
    sp.add_argument("--days", type=float, default=None,
                    help="also prune result rows older than this many days")
    sp.set_defaults(func=cmd_store_gc)

    sp = store_sub.add_parser("export", help="dump the store to a portable JSON file")
    sp.add_argument("--store", required=True)
    sp.add_argument("file")
    sp.set_defaults(func=cmd_store_export)

    sp = store_sub.add_parser("import", help="merge an exported JSON file into the store")
    sp.add_argument("--store", required=True)
    sp.add_argument("file")
    sp.add_argument("--replace", action="store_true",
                    help="overwrite rows that already exist (default: skip)")
    sp.set_defaults(func=cmd_store_import)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
