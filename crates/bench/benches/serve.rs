//! Fleet serving bench: load ramps and fault storms over the
//! `pcount-fleet` co-simulation, written to `BENCH_serve.json` at the
//! workspace root so the serving-layer trajectory (p50/p99 latency,
//! queue depths, shed/quarantine counts, per-shard error-budget burn)
//! stays machine-readable across PRs.
//!
//! The bench runs the timing-independent serve tripwires in every mode
//! (including `BENCH_SMOKE=1`):
//!
//! * a ≥200-node fleet run completes with every delivery slot disposed
//!   of exactly once — no node fault ever aborts the service;
//! * the same fleet seed is bit-reproducible across pool widths 1 and 4
//!   (identical occupancy trajectory digest and report JSON), with and
//!   without shard crashes in the schedule;
//! * the load ramp actually bites: the hardest level sheds or
//!   downsamples, and the bounded queue never exceeds its cap;
//! * a crash storm (half the shards die mid-run and restart from their
//!   checkpoints) conserves every queued frame and reports recovery-time
//!   percentiles, one sample per outage;
//! * burn-driven adaptive admission beats the static watermarks on the
//!   hardest ramp level: fewer frames shed at the queue with p99 latency
//!   inside the static envelope.

use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_fleet::{
    AdaptiveConfig, CrashConfig, FleetConfig, FleetReport, FleetService, StormConfig,
};
use pcount_kernels::{Deployment, Target};

/// Seed of the demo model and the dataset nodes replay.
const SEED: u64 = 7;
/// Fleet seed of every reported run (chaos, phases, skews).
const FLEET_SEED: u64 = 4242;
/// Worker threads of the reported runs.
const POOL_THREADS: usize = 4;

fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Base fleet configuration of the bench: the smoke fleet keeps the
/// ≥200-node floor but shortens each node's window.
fn base_cfg(smoke: bool) -> FleetConfig {
    let mut cfg = if smoke {
        FleetConfig::smoke()
    } else {
        FleetConfig::default()
    };
    cfg.seed = FLEET_SEED;
    cfg
}

/// The deployed demo model and the dataset.
fn deployed() -> (Deployment, IrDataset) {
    let (model, _) = pcount_bench::demo_int8_model(SEED);
    let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
    let data = IrDataset::generate(&DatasetConfig::tiny(), SEED);
    (deployment, data)
}

fn run_fleet(deployment: &Deployment, data: &IrDataset, cfg: FleetConfig) -> FleetReport {
    let svc = FleetService::new(deployment.clone(), cfg, data).expect("fleet");
    let mut pool = svc.make_pool(POOL_THREADS).expect("pool");
    svc.run(&mut pool)
}

/// Serve-smoke gate: the run completed, conserved every frame, and its
/// latency block is populated.
fn check_complete(report: &FleetReport, what: &str) {
    assert!(
        report.conservation_holds(),
        "{what}: front-end algebra violated"
    );
    assert!(
        report.nodes >= 200,
        "{what}: fleet below the 200-node floor"
    );
    assert!(
        report.totals.admitted > 0 && report.latency.count > 0,
        "{what}: no admitted frames / empty latency block"
    );
    assert!(
        report.latency.p50 > 0 && report.latency.p99 >= report.latency.p50,
        "{what}: degenerate latency percentiles"
    );
}

/// Always-on bit-reproducibility tripwire: same fleet seed, pool width
/// 1 vs 4 ⇒ identical occupancy trajectory and report.
fn check_reproducible(deployment: &Deployment, data: &IrDataset, cfg: &FleetConfig) -> String {
    let svc = FleetService::new(deployment.clone(), cfg.clone(), data).expect("fleet");
    let mut narrow = svc.make_pool(1).expect("pool");
    let mut wide = svc.make_pool(4).expect("pool");
    let a = svc.run(&mut narrow);
    let b = svc.run(&mut wide);
    assert_eq!(
        a.occupancy.hash, b.occupancy.hash,
        "occupancy trajectory diverged across pool widths"
    );
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "fleet report diverged across pool widths"
    );
    a.occupancy.hash_hex()
}

fn write_bench_json(lines: &[(&str, String)]) {
    let body: Vec<String> = lines
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn main() {
    let smoke = smoke_mode();
    let (deployment, data) = deployed();

    // The reported runs record telemetry so the global fleet/* surface
    // is exercised too; recording never changes any computed result.
    pcount_telemetry::set_enabled(true);

    // Load ramp: sweep the sensor frame period down (offered load up)
    // at a fixed fleet. The hardest level oversubscribes the shards.
    let periods_ms: &[u32] = if smoke {
        &[100, 25]
    } else {
        &[150, 100, 50, 25]
    };
    let mut ramp_entries = Vec::new();
    for (i, &period) in periods_ms.iter().enumerate() {
        let cfg = FleetConfig {
            frame_period_ms: period,
            ..base_cfg(smoke)
        };
        let queue_cap = cfg.queue_cap as u64;
        let report = run_fleet(&deployment, &data, cfg);
        check_complete(&report, &format!("ramp period {period} ms"));
        assert!(
            report.queue_depth_peak <= queue_cap,
            "ramp period {period} ms: queue overran its cap"
        );
        if i == periods_ms.len() - 1 {
            assert!(
                report.totals.shed + report.totals.downsampled > 0,
                "hardest ramp level triggered no load shedding at all"
            );
        }
        println!(
            "serve ramp {period:>3} ms: admitted {} shed {} downsampled {} \
             p50 {} us p99 {} us peak-depth {} worst-burn {} milli",
            report.totals.admitted,
            report.totals.shed,
            report.totals.downsampled,
            report.latency.p50 / 1_000,
            report.latency.p99 / 1_000,
            report.queue_depth_peak,
            report.worst_shard_burn_milli,
        );
        ramp_entries.push(format!(
            "{{\"frame_period_ms\":{period},\"report\":{}}}",
            report.to_json()
        ));
    }

    // Fault storm: a third of the fleet at intensity 0.6 for the middle
    // half of the run, on top of the baseline chaos.
    let storm_cfg = FleetConfig {
        storm: Some(StormConfig::default()),
        ..base_cfg(smoke)
    };
    let storm_report = run_fleet(&deployment, &data, storm_cfg.clone());
    check_complete(&storm_report, "fault storm");
    let storm_faults: u64 = storm_report
        .node_reports
        .iter()
        .map(|n| n.gaps + n.fallback + n.retries)
        .sum();
    assert!(storm_faults > 0, "storm injected no faults");
    println!(
        "serve storm: {} faults, {} quarantine trips, {} readmissions, worst burn {} milli",
        storm_faults,
        storm_report.totals.quarantine_trips,
        storm_report.totals.readmissions,
        storm_report.worst_shard_burn_milli,
    );

    // Crash storm: every other shard dies mid-run and restarts from its
    // checkpoint. The hardest ramp period keeps the queues backed up, so
    // each outage strands a real backlog for the disposal policy.
    let crash_cfg = FleetConfig {
        frame_period_ms: 25,
        // A slowed service clock against a small queue keeps a real
        // backlog queued at the crash instant for the disposal policy.
        service_clock_hz: 50_000_000,
        queue_cap: 32,
        high_watermark: 24,
        low_watermark: 8,
        crash: Some(CrashConfig::default()),
        // Several checkpoint boundaries fit even the short smoke run, so
        // the restarts genuinely recover from checkpointed state.
        checkpoint_period_ms: 25,
        ..base_cfg(smoke)
    };
    let crash_report = run_fleet(&deployment, &data, crash_cfg.clone());
    check_complete(&crash_report, "crash storm");
    assert!(crash_report.totals.crashes > 0, "crash storm never fired");
    assert_eq!(
        crash_report.crash_reports.len() as u64,
        crash_report.totals.crashes,
        "one outage report per crash"
    );
    assert_eq!(
        crash_report.recovery.count, crash_report.totals.crashes,
        "one recovery sample per crash"
    );
    assert!(
        crash_report.recovery.p50 > 0,
        "recovery percentiles must be populated"
    );
    let mut stranded = 0;
    for c in &crash_report.crash_reports {
        assert_eq!(
            c.queued_at_crash,
            c.crash_lost + c.rerouted + c.held,
            "shard {} outage leaked part of its queue",
            c.shard
        );
        stranded += c.queued_at_crash;
    }
    assert!(stranded > 0, "no crash found a backlog to dispose of");
    assert!(
        crash_report.totals.rerouted > 0,
        "reroute policy moved no traffic to the survivors"
    );
    println!(
        "serve crash storm: {} crashes, {} frames lost vs {} rerouted, \
         recovery p50 {} us p99 {} us, {} checkpoints {} migrations",
        crash_report.totals.crashes,
        crash_report.totals.crash_lost,
        crash_report.totals.rerouted,
        crash_report.recovery.p50 / 1_000,
        crash_report.recovery.p99 / 1_000,
        crash_report.totals.checkpoints,
        crash_report.totals.migrations,
    );

    // Adaptive admission vs the static watermarks, same overload: the
    // burn-driven controller must shed fewer frames at the queue while
    // keeping p99 latency inside the static envelope.
    // Saturating front-end: a slowed service clock against a small queue
    // makes the static watermarks shed hard at the cap.
    let static_cfg = FleetConfig {
        frame_period_ms: 25,
        service_clock_hz: 50_000_000,
        queue_cap: 32,
        high_watermark: 24,
        low_watermark: 8,
        ..base_cfg(smoke)
    };
    let adaptive_cfg = FleetConfig {
        adaptive: Some(AdaptiveConfig::default()),
        ..static_cfg.clone()
    };
    let static_report = run_fleet(&deployment, &data, static_cfg);
    let adaptive_report = run_fleet(&deployment, &data, adaptive_cfg);
    check_complete(&static_report, "static admission");
    check_complete(&adaptive_report, "adaptive admission");
    let tightens: u64 = adaptive_report
        .shard_reports
        .iter()
        .map(|s| s.adaptive_tightens)
        .sum();
    assert!(tightens > 0, "overload never tightened the watermarks");
    assert!(
        adaptive_report.totals.shed < static_report.totals.shed,
        "adaptive shed {} >= static shed {}",
        adaptive_report.totals.shed,
        static_report.totals.shed
    );
    assert!(
        adaptive_report.latency.p99 <= static_report.latency.p99 * 5 / 4,
        "adaptive p99 {} ns escaped the static envelope ({} ns)",
        adaptive_report.latency.p99,
        static_report.latency.p99
    );
    println!(
        "serve adaptive: shed {} vs static {} (downsampled {} vs {}), \
         p99 {} us vs {} us, {} tightens {} relaxes",
        adaptive_report.totals.shed,
        static_report.totals.shed,
        adaptive_report.totals.downsampled,
        static_report.totals.downsampled,
        adaptive_report.latency.p99 / 1_000,
        static_report.latency.p99 / 1_000,
        tightens,
        adaptive_report
            .shard_reports
            .iter()
            .map(|s| s.adaptive_relaxes)
            .sum::<u64>(),
    );

    // Always-on determinism tripwires (the CI serve-smoke gate): once
    // plain, once with the crash schedule in play.
    let occupancy_hash = check_reproducible(&deployment, &data, &base_cfg(smoke));
    let failover_hash = check_reproducible(&deployment, &data, &crash_cfg);
    pcount_telemetry::set_enabled(false);

    write_bench_json(&[
        ("bench", "\"serve\"".into()),
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("host", pcount_bench::host_metadata_json(smoke)),
        ("fleet_seed", FLEET_SEED.to_string()),
        ("pool_threads", POOL_THREADS.to_string()),
        (
            "serve",
            format!(
                "{{\"ramp\":[{}],\"storm\":{},\"crash_storm\":{},\
                 \"adaptive\":{{\"static\":{},\"adaptive\":{}}},\"determinism\":{{\
                 \"occupancy_hash\":\"{}\",\"failover_occupancy_hash\":\"{}\",\
                 \"pool_widths\":[1,4],\"bit_identical\":true}}}}",
                ramp_entries.join(","),
                storm_report.to_json(),
                crash_report.to_json(),
                static_report.to_json(),
                adaptive_report.to_json(),
                occupancy_hash,
                failover_hash,
            ),
        ),
    ]);
}
