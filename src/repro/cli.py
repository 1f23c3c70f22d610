"""Command-line experiment runner.

``repro <experiment>`` regenerates a paper figure's numbers from the
terminal::

    repro fig6-modes        # four decoder working modes (Fig. 6 middle)
    repro fig6-playback     # affect-driven playback energy (Fig. 6 bottom)
    repro fig7-usage        # app usage patterns by subject (Fig. 7 left)
    repro fig7-emulator     # emulator specification (Fig. 7 right)
    repro fig10-memory      # memory / loading-time savings (Fig. 10)
    repro fig3-models       # classifier study (Fig. 3; slow)
    repro stats             # end-to-end workload + metrics/SLO report
    repro chaos             # end-to-end workload under fault injection
    repro trace             # per-request trace capture (Perfetto JSON)
    repro monitor           # surge chaos plan under burn-rate alerting
    repro profile           # serve workload under the continuous profiler
    repro daemon            # network serving daemon (TCP ingest + admin)

Serving capacity and latency are measured by ``perfbench/``
(``python3 perfbench/run.py``), not by a subcommand here.
"""

from __future__ import annotations

import argparse
import sys


def _fig6_modes(args: argparse.Namespace) -> None:
    from repro.core import DecoderMode, measure_mode_power
    from repro.core.casestudy import paper_clip_stream

    frames, stream = paper_clip_stream(seed=args.seed)
    table = measure_mode_power(stream, frames)
    print(f"DF share of standard-mode power: {table.df_share_standard * 100:.1f}% "
          "(paper: 31.4%)")
    print(f"{'mode':<10} {'power':>6} {'saving':>7} {'PSNR dB':>8} {'blockiness':>10}")
    for mode in DecoderMode:
        r = table.results[mode]
        print(
            f"{mode.value:<10} {r.power:6.3f} {r.saving * 100:6.1f}% "
            f"{r.psnr_db:8.2f} {r.blockiness:10.2f}"
        )


def _fig6_playback(args: argparse.Namespace) -> None:
    from repro.affect import segment_engagement
    from repro.core import measure_mode_power, simulate_playback
    from repro.core.casestudy import paper_clip_stream
    from repro.datasets import generate_sc_session

    frames, stream = paper_clip_stream(seed=args.seed)
    table = measure_mode_power(stream, frames)
    session = generate_sc_session(seed=args.seed)
    segments = segment_engagement(session)
    report = simulate_playback(segments, float(session.time_s[-1]), table)
    for seg in report.segments:
        print(
            f"{seg.start_s / 60:5.1f}-{seg.end_s / 60:5.1f} min  "
            f"{seg.state:<13} {seg.mode.value:<9} P={seg.power:.3f}"
        )
    print(f"energy saving vs standard: {report.energy_saving * 100:.1f}% "
          "(paper: 23.1%)")


def _fig7_usage(args: argparse.Namespace) -> None:
    from repro.datasets import SUBJECTS, usage_distribution

    for subject in SUBJECTS:
        dist = usage_distribution(subject)
        top = sorted(dist.items(), key=lambda kv: kv[1], reverse=True)[:6]
        share = dist["Messaging"] + dist["Internet_Browser"]
        print(f"Subject {subject.subject_id} ({subject.description}); "
              f"messaging+browsing = {share * 100:.0f}%")
        for category, p in top:
            print(f"    {category:<22} {p * 100:5.1f}%")


def _fig7_emulator(args: argparse.Namespace) -> None:
    from repro.android import PAPER_EMULATOR_CONFIG as cfg

    rows = [
        ("Platform", cfg.platform),
        ("Emulator Version", cfg.emulator_version),
        ("CPU CORE", cfg.cpu_cores),
        ("Ram Allocation", f"{cfg.ram_mb} MB"),
        ("Rom Allocation", f"{cfg.rom_gb}GB"),
        ("# of Total Apps", cfg.n_apps),
        ("Resolution", cfg.resolution),
    ]
    for key, value in rows:
        print(f"{key:<18} {value}")


def _fig10_memory(args: argparse.Namespace) -> None:
    from repro.core.appstudy import run_case_study

    result = run_case_study(seed=args.seed)
    base, emo = result.baseline, result.emotion
    print(f"{'':<18} {'emotion-driven':>16} {'baseline':>12}")
    print(f"{'loaded bytes':<18} {emo.total_loaded_bytes:>16,} "
          f"{base.total_loaded_bytes:>12,}")
    print(f"{'loading time (s)':<18} {emo.total_load_time_s:>16.1f} "
          f"{base.total_load_time_s:>12.1f}")
    print(f"memory saving: {result.memory_saving * 100:.1f}% (paper: 17%)")
    print(f"time saving:   {result.time_saving * 100:.1f}% (paper: 12%)")


def _fig3_models(args: argparse.Namespace) -> None:
    from repro.affect import AffectClassifierPipeline, default_training
    from repro.datasets import cremad_like, emovo_like, ravdess_like

    builders = {
        "RAVDESS": ravdess_like,
        "EMOVO": emovo_like,
        "CREMA-D": cremad_like,
    }
    print(f"{'corpus':<10} {'MLP':>6} {'CNN':>6} {'LSTM':>6}")
    for name, builder in builders.items():
        corpus = builder(n_per_class=args.per_class, seed=args.seed)
        row = []
        for arch in ("mlp", "cnn", "lstm"):
            epochs, lr = default_training(arch)
            pipeline = AffectClassifierPipeline(arch, seed=args.seed)
            metrics = pipeline.train(corpus, epochs=epochs, lr=lr)
            row.append(metrics["test_accuracy"])
        print(f"{name:<10} " + " ".join(f"{a * 100:5.1f}%" for a in row))


def _entropy(args: argparse.Namespace) -> None:
    from dataclasses import replace

    from repro.core.casestudy import PAPER_CLIP_ENCODER, paper_clip_frames
    from repro.video import Decoder, Encoder
    from repro.video.quality import sequence_psnr

    frames = paper_clip_frames(seed=args.seed)
    sizes = {}
    for mode in ("eg", "cavlc"):
        stream = Encoder(replace(PAPER_CLIP_ENCODER, entropy=mode)).encode(frames)
        decoded = Decoder().decode(stream)
        sizes[mode] = len(stream)
        print(f"{mode:<6} {len(stream):>7,} bytes  "
              f"PSNR {sequence_psnr(frames, decoded.frames):.2f} dB")
    saving = 1.0 - sizes["cavlc"] / sizes["eg"]
    print(f"CAVLC saves {saving * 100:.1f}% of the bitstream")


def _stats(args: argparse.Namespace) -> None:
    import json

    from repro.obs import get_registry
    from repro.obs.alerts import DEFAULT_ALERT_RULES, AlertManager
    from repro.obs.export import prometheus_text
    from repro.obs.slo import evaluate_slos, render_slo_report
    from repro.obs.workload import run_canned_workload

    registry = get_registry()
    registry.reset()
    summary = run_canned_workload(seed=args.seed)
    # Scrape-complete exposition: every alert rule exports its state
    # gauge (repro_alert_state{rule=...,severity=...}) even when no
    # manager is live — dashboards can build panels before incidents.
    AlertManager(DEFAULT_ALERT_RULES).export_state(registry)
    fmt = "json" if args.json else args.format
    if fmt == "prom":
        exposition = prometheus_text(registry)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(exposition)
            print(f"wrote Prometheus exposition to {args.output}")
        else:
            print(exposition, end="")
        return
    if fmt == "json" or args.output:
        report = json.dumps(
            {
                "workload": summary,
                "metrics": registry.snapshot(),
                "slos": [v.to_dict() for v in evaluate_slos(registry)],
            },
            indent=2, sort_keys=True,
        )
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"wrote metrics report to {args.output}")
        else:
            print(report)
        return
    print("== workload ==")
    for section, values in summary.items():
        print(f"{section}: {values}")
    print(registry.render_text())
    print(render_slo_report(evaluate_slos(registry)))


def _chaos(args: argparse.Namespace) -> None:
    import json

    from repro.obs import get_registry
    from repro.resilience.chaos import run_chaos_workload

    registry = get_registry()
    registry.reset()
    if args.plan in ("surge", "battery-drain"):
        from repro.resilience.chaos import run_surge_workload

        stats = run_surge_workload(
            seed=args.seed, sessions=args.sessions,
            seconds=args.seconds, plan=args.plan,
        )
        if args.json or args.output:
            report = json.dumps(stats, indent=2, sort_keys=True, default=str)
            if args.output:
                from pathlib import Path

                Path(args.output).write_text(report + "\n")
                print(f"wrote chaos report to {args.output}")
            else:
                print(report)
        else:
            base, adapt = stats["baseline"], stats["adaptive"]
            print(f"== chaos {args.plan} (seed={args.seed}, "
                  f"{args.sessions} sessions, {args.seconds:g} s) ==")
            print(f"windows: {stats['windows']}  ladder: "
                  f"{' -> '.join(stats['ladder'])}")
            print(f"baseline: shed {base['shed']} "
                  f"({base['shed_frac'] * 100:.1f}%), "
                  f"accuracy {base['accuracy'] * 100:.1f}%")
            print(f"adaptive: shed {adapt['shed']} "
                  f"({adapt['shed_frac'] * 100:.1f}%), absorbed "
                  f"{adapt['absorbed']}, accuracy "
                  f"{adapt['accuracy'] * 100:.1f}%")
            print(f"tier mix: {adapt['tier_mix']}")
            print(f"ladder moves: {adapt['adaptive']['demotions']} down, "
                  f"{adapt['adaptive']['promotions']} up; energy "
                  f"{adapt['adaptive']['energy_drained']:.1f}")
            print(f"survived: {stats['survived']}")
        if not stats["survived"]:
            raise SystemExit(1)
        return
    stats = run_chaos_workload(
        seed=args.seed, fault_rate=args.fault_rate, windows=args.windows
    )
    snapshot = registry.snapshot()
    if args.json or args.output:
        report = json.dumps(
            {"chaos": stats, "metrics": snapshot}, indent=2, sort_keys=True
        )
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"wrote chaos report to {args.output}")
        else:
            print(report)
    else:
        counters = snapshot["counters"]
        injected = {
            k.rsplit(".", 1)[-1]: int(v)
            for k, v in counters.items()
            if k.startswith("resilience.faults_injected.")
        }
        deg = stats["degradation"]
        vid = stats["video"]
        clf = stats["classifier"]
        print(f"== chaos run (seed={args.seed}, fault rate "
              f"{args.fault_rate * 100:.0f}%) ==")
        print(f"faults injected: {stats['total_faults_injected']} {injected}")
        print(f"classifier: {clf['windows']} windows, "
              f"{clf['failures']} failures, {clf['fallbacks']} fallbacks, "
              f"breaker opened {clf['breaker_opened']}x")
        print("degraded-mode dwell: "
              f"{counters.get('resilience.degraded_dwell_s', 0.0):.0f} s "
              f"({deg['dwell_fraction'] * 100:.0f}% of "
              f"{clf['windows']} windows)")
        print(f"video: {vid['frames_delivered']}/{vid['frames_expected']} "
              f"frames delivered, {vid['units_corrupt']} corrupt units "
              f"concealed, mean PSNR {vid['mean_psnr_db']:.1f} dB")
        print(f"emulator: {stats['emulator']}")
        print(f"unhandled crashes: {stats['crashes']}")
    if stats["crashes"]:
        raise SystemExit(1)


def _trace(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs import get_registry
    from repro.obs.export import (
        chrome_trace_events,
        render_trace_tree,
        spans_to_jsonl,
    )
    from repro.obs.slo import evaluate_slos, render_slo_report
    from repro.serve.bench import run_trace_workload, serve_chain_coverage

    registry = get_registry()
    registry.reset()
    report, spans = run_trace_workload(
        sessions=args.sessions, seconds=args.seconds, seed=args.seed,
        max_batch=args.batch, sample_rate=args.sample_rate,
    )
    path = Path(args.output or "trace.json")
    events = chrome_trace_events(spans)
    path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ) + "\n")
    if args.jsonl:
        Path(args.jsonl).write_text(spans_to_jsonl(spans))
    coverage = serve_chain_coverage(spans)
    print(render_trace_tree(spans, max_traces=args.max_traces))
    print()
    acct = report["accounting"]
    print(f"== trace ({args.sessions} sessions, {args.seconds:g} s, "
          f"sample rate {args.sample_rate:g}) ==")
    print(f"windows: {acct['submitted']} submitted, {acct['completed']} "
          f"completed, {acct['shed']} shed")
    print(f"spans: {len(spans)} across "
          f"{len({s.trace_id for s in spans})} traces")
    print(f"chain coverage: {coverage['covered']}/{coverage['windows']} "
          f"completed windows ({coverage['coverage'] * 100:.1f}%)")
    print(render_slo_report(evaluate_slos(registry)))
    print(f"wrote {len(events)} trace events to {path}")
    if args.jsonl:
        print(f"wrote {len(spans)} spans to {args.jsonl}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    if coverage["coverage"] < 0.95:
        # The tracing contract: completed windows must be attributable.
        raise SystemExit(1)


def _monitor(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs.monitor import run_monitored_surge

    report = run_monitored_surge(
        seed=args.seed, sessions=args.sessions, seconds=args.seconds,
        plan=args.plan, sample_rate=args.sample_rate,
        bundle_dir=args.bundle_dir, alert_log=args.alert_log,
    )
    gates = report["gates"]
    if args.json:
        payload = {k: v for k, v in report.items() if k != "timeline_text"}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        arm = report["arm"]
        retention = report["retention"]
        print(f"== monitor ({args.plan} x{report['surge_scale']:g}, "
              f"{args.sessions} sessions, {args.seconds:g} s, "
              f"head sampling {report['sample_rate']:g}) ==")
        print(f"windows: {arm['windows']}, shed {arm['shed']} "
              f"({arm['shed_frac'] * 100:.1f}%), "
              f"p95 {arm['latency_s']['p95']:.3f} s")
        print(report["timeline_text"])
        print(f"retention: {retention['retained_roots']}/"
              f"{retention['violating_windows']} SLO-violating traces "
              f"retained ({retention['coverage'] * 100:.0f}%), "
              f"{retention['head_sampled_out']} head-sampled out, "
              f"reasons {retention['by_reason']}")
        print(f"page fired t={gates['first_page_at']} "
              f"(surge onset t={gates['surge_start_s']:g}, "
              f"deadline t={gates['fire_deadline_s']:g}), "
              f"resolved: {gates['page_resolved']}")
        for bundle in report["bundles"]:
            print(f"incident bundle: {bundle}/")
        print(f"gates ok: {gates['ok']}")
    if args.output:
        payload = {k: v for k, v in report.items() if k != "timeline_text"}
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote monitor report to {args.output}")
    if not gates["ok"]:
        # The monitoring contract: the page fires inside one fast
        # window of the fault, resolves after calm, and every
        # SLO-violating trace survives head sampling.
        raise SystemExit(1)


def _profile(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs.export import chrome_trace_json
    from repro.obs.prof import (
        profile_counter_events,
        render_flame_summary,
        run_profile_workload,
    )

    print(f"profiling serve workload ({args.sessions} sessions, "
          f"{args.seconds:g} s, seed {args.seed}, "
          f"heap {'off' if args.no_heap else 'on'})...")
    result = run_profile_workload(
        sessions=args.sessions, seconds=args.seconds, seed=args.seed,
        max_batch=args.batch, heap=not args.no_heap,
    )
    sampler = result.pop("_sampler")
    heap = result.pop("_heap")
    spans = result.pop("_spans")
    outdir = Path(args.output or "profile_out")
    outdir.mkdir(parents=True, exist_ok=True)
    collapsed_path = outdir / "profile.collapsed"
    collapsed_path.write_text(sampler.collapsed())
    perfetto_path = outdir / "profile.perfetto.json"
    perfetto_path.write_text(chrome_trace_json(
        spans, counter_events=profile_counter_events(sampler, heap),
    ))
    json_path = outdir / "profile.json"
    json_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(render_flame_summary(sampler, heap))
    print(f"wrote {collapsed_path}  (flamegraph.pl / speedscope)")
    print(f"wrote {perfetto_path}  (https://ui.perfetto.dev)")
    print(f"wrote {json_path}")
    fraction = result["attribution"]["fraction"]
    samples = result["attribution"]["samples"]
    print(f"attribution: {fraction * 100:.1f}% of {samples} samples "
          "carry a stage (gate: >= 90%)")
    untracked = result["profile"].get("untracked_cpu_frac")
    if untracked is not None:
        print(f"untracked:   {untracked * 100:.1f}% of process CPU ran on "
              "native threads no sample can see")
    if fraction < 0.90:
        # The attribution contract: continuous profiling is only useful
        # if nearly every sample maps to a named pipeline stage.
        raise SystemExit(1)


def _daemon(args: argparse.Namespace) -> None:
    import asyncio

    from repro.daemon.server import DaemonConfig, ReproDaemon
    from repro.obs import get_registry
    from repro.serve.bench import train_bench_pipeline
    from repro.serve.runtime import AffectServer, ServeConfig

    get_registry().reset()
    print(f"training pipeline (seed={args.seed})...")
    pipeline = train_bench_pipeline(seed=args.seed)
    server = AffectServer(pipeline, ServeConfig(max_batch=args.batch))
    config = DaemonConfig(
        host=args.host, port=args.port, admin_port=args.admin_port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight, bundle_dir=args.bundle_dir,
    )
    daemon = ReproDaemon(server, config)

    async def _serve() -> None:
        await daemon.start()
        print(f"ingest:  {config.host}:{daemon.port} "
              "(newline-delimited JSON, see repro.daemon.protocol)")
        print(f"admin:   http://{config.host}:{daemon.admin_port}"
              "  (/healthz /metrics /bundles)")
        print(f"gates:   {config.max_connections} connections, "
              f"{config.max_inflight} in-flight windows per session")
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("daemon stopped")


def _export_trace(args: argparse.Namespace) -> None:
    from repro.core.appstudy import run_case_study

    result = run_case_study(seed=args.seed)
    path = args.output or "emotion_trace.json"
    result.emotion.tracer.save_chrome_trace(path)
    print(f"wrote {len(result.emotion.tracer.events)} events to {path}")
    print("open in https://ui.perfetto.dev or chrome://tracing")


_COMMANDS = {
    "fig6-modes": _fig6_modes,
    "fig6-playback": _fig6_playback,
    "fig7-usage": _fig7_usage,
    "fig7-emulator": _fig7_emulator,
    "fig10-memory": _fig10_memory,
    "fig3-models": _fig3_models,
    "entropy": _entropy,
    "export-trace": _export_trace,
    "stats": _stats,
    "chaos": _chaos,
    "trace": _trace,
    "monitor": _monitor,
    "profile": _profile,
    "daemon": _daemon,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse the experiment name and run it."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's experiments."
    )
    parser.add_argument("experiment", choices=sorted(_COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--per-class", type=int, default=40,
        help="samples per emotion class for fig3-models",
    )
    parser.add_argument(
        "--output", "--out", type=str, default=None, dest="output",
        help="output path for export-trace / stats / trace, or the "
             "artifact directory for profile (default profile_out/)",
    )
    parser.add_argument(
        "--no-heap", action="store_true",
        help="profile: skip tracemalloc allocation tracking (CPU only)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the stats/chaos report as JSON on stdout",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="stats output format (prom = Prometheus text exposition)",
    )
    parser.add_argument(
        "--sample-rate", type=float, default=None,
        help="head-sampling probability (default 1.0 for trace, 0.01 "
             "for monitor — tail retention keeps the violating traces)",
    )
    parser.add_argument(
        "--bundle-dir", type=str, default="incidents",
        help="monitor: directory incident bundles are written under",
    )
    parser.add_argument(
        "--alert-log", type=str, default=None,
        help="monitor: also append every alert transition as JSONL here",
    )
    parser.add_argument(
        "--max-traces", type=int, default=3,
        help="trace trees to print before truncating (default 3)",
    )
    parser.add_argument(
        "--jsonl", type=str, default=None,
        help="also write the trace's spans as JSONL to this path",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.2,
        help="per-kind fault probability for chaos (default 0.2)",
    )
    parser.add_argument(
        "--windows", type=int, default=24,
        help="classifier windows the chaos workload drives (default 24)",
    )
    parser.add_argument(
        "--plan", choices=("uniform", "surge", "battery-drain"),
        default="uniform",
        help="chaos plan: uniform fault injection (default), a diurnal "
             "load surge, or a battery drain through the tier ladder",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent synthetic sessions (default 16 for trace/"
             "profile, 64 for chaos surge plans and monitor)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="workload seconds per run (default 4 for trace/profile, "
             "10 for chaos surge plans, 12 for monitor)",
    )
    parser.add_argument(
        "--batch", type=int, default=32,
        help="micro-batch size for trace, profile and daemon (default 32)",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="daemon: interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7861,
        help="daemon: ingest TCP port (0 = ephemeral; default 7861)",
    )
    parser.add_argument(
        "--admin-port", type=int, default=7862,
        help="daemon: admin HTTP port (0 = ephemeral; default 7862)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="daemon: connection cap before LRU preemption (default 64)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="daemon: per-session in-flight window cap (default 8)",
    )
    args = parser.parse_args(argv)
    # Workload-size defaults differ per experiment: the trace and profile
    # smokes want seconds-long runs, while monitor and the surge chaos
    # plans need a surge big enough for their gates (a lethal baseline
    # shed, visible recovery) to be meaningful.
    surge_chaos = args.experiment == "chaos" and args.plan != "uniform"
    if args.experiment == "monitor" and args.plan == "uniform":
        args.plan = "surge"  # monitor only runs the serve-layer plans
    if args.sessions is None:
        args.sessions = (64 if surge_chaos or args.experiment == "monitor"
                         else 16)
    if args.seconds is None:
        args.seconds = (12.0 if args.experiment == "monitor"
                        else 10.0 if surge_chaos else 4.0)
    if args.sample_rate is None:
        args.sample_rate = 0.01 if args.experiment == "monitor" else 1.0
    try:
        _COMMANDS[args.experiment](args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
