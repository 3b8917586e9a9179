//! The `fleet_serve` and `fleet_storm` workloads: `FleetService::run`
//! serving the INT8 demo model (`pcount_bench::demo_int8_model`) to a
//! seeded building of sensor nodes.
//!
//! Each fleet run is an open-loop schedule in virtual time: every node
//! sends on its frame period whatever the service does, so overload shows
//! as queueing, shedding and downsampling rather than as a slower sender.
//! The host repeats the whole schedule for the measuring time and reports
//! the median run.

use crate::probe;
use crate::trace::Tracer;
use crate::{median, median_time, percentile, sample_indices, Args, Outcome};
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_fleet::{
    AdaptiveConfig, CrashConfig, FleetConfig, FleetReport, FleetService, StormConfig,
};
use pcount_isa::MemoryModel;
use pcount_kernels::{Deployment, Target};
use pcount_nn::{balanced_accuracy, train_classifier, CnnConfig, TrainConfig};
use pcount_platform::{result_from_report, PlatformSpec};
use pcount_postproc::apply_majority;
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::{SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Seed of the served demo model (fixed: the model is part of the system
/// under test; the nodes' frames and the fleet's chaos are the inputs).
const MODEL_SEED: u64 = 7;
/// Channel widths of `pcount_bench::demo_int8_model`.
const DEMO_CHANNELS: (usize, usize, usize) = (8, 8, 16);
/// Set-ups timed for `setup_s`.
const SETUP_REPS: usize = 15;
/// Seeded buildings one run serves, round-robin, to average out how the
/// work of one building depends on its frames and chaos draws.
const BUILDINGS: usize = 6;
/// Fewest traced fleet runs.
const MIN_TRACED_RUNS: usize = 2;
/// Frames of the logit-parity check.
const CHECK_FRAMES: usize = 64;
/// Frames of the layer probes.
const PROBE_FRAMES: usize = 256;
/// Majority-voting window of the served model's accuracy.
const MAJORITY_WINDOW: usize = 5;

/// `fleet_serve`: the default building, flat memory.
pub fn run_serve(args: &Args) -> Outcome {
    let cfg = FleetConfig {
        seed: args.seed,
        ..FleetConfig::default()
    };
    run(args, cfg, MemoryModel::Flat)
}

/// `fleet_storm`: the default building at 4× the frame rate with small
/// queues, a fault storm, shard crashes, adaptive admission and the
/// MAUPITI memory hierarchy.
pub fn run_storm(args: &Args) -> Outcome {
    let cfg = FleetConfig {
        frame_period_ms: 25,
        queue_cap: 32,
        high_watermark: 24,
        low_watermark: 8,
        storm: Some(StormConfig::default()),
        crash: Some(CrashConfig::default()),
        checkpoint_period_ms: 25,
        adaptive: Some(AdaptiveConfig::default()),
        seed: args.seed,
        ..FleetConfig::default()
    };
    run(args, cfg, MemoryModel::maupiti())
}

/// The served model and its deployment under the workload's memory model.
struct Served {
    model: QuantizedCnn,
    deployment: Deployment,
}

/// One seeded building: the nodes' dataset and the provisioned fleet.
struct Building {
    data: IrDataset,
    svc: FleetService,
}

fn served(mem: MemoryModel) -> Served {
    let (model, _) = pcount_bench::demo_int8_model(MODEL_SEED);
    let mut deployment = Deployment::new(&model, Target::Maupiti).expect("demo model deploys");
    deployment.set_memory_model(mem);
    Served { model, deployment }
}

fn building(served: &Served, cfg: &FleetConfig, seed: u64) -> Building {
    let data = IrDataset::generate(&DatasetConfig::tiny(), seed);
    let cfg = FleetConfig {
        seed,
        ..cfg.clone()
    };
    let svc = FleetService::new(served.deployment.clone(), cfg, &data).expect("fleet provisions");
    Building { data, svc }
}

/// The run's building seeds: the run seed itself, then seeds drawn from it.
fn building_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::once(seed)
        .chain((1..BUILDINGS).map(|_| rng.next_u64()))
        .collect()
}

/// [`served`] and the first [`building`] composed from the public calls
/// `demo_int8_model` and `FleetService::new` make, each layer call in a
/// span.
fn traced_setup(
    tracer: &Tracer,
    cfg: &FleetConfig,
    mem: MemoryModel,
    seed: u64,
) -> (Served, Building) {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let train_data = tracer.segment("dataset.generate", || {
        IrDataset::generate(&DatasetConfig::tiny(), MODEL_SEED)
    });
    let fold = &train_data.leave_one_session_out()[0];
    let (x_train, y_train) = train_data.gather_normalized(fold.train.as_slice());
    let (c1, c2, f1) = DEMO_CHANNELS;
    let arch = CnnConfig::seed().with_channels(c1, c2, f1);
    let mut net = arch.build(&mut rng);
    let train = TrainConfig {
        epochs: 3,
        batch_size: 64,
        learning_rate: 2e-3,
        weight_decay: 0.0,
        verbose: false,
    };
    tracer.segment("nn.seed_train", || {
        train_classifier(&mut net, &x_train, &y_train, &train, &mut rng)
    });
    let model = tracer.segment("quant.quantize", || {
        let folded = fold_sequential(arch, &net).expect("canonical layout");
        let mut qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        qat.calibrate(&x_train);
        QuantizedCnn::from_qat(&qat)
    });
    let data = tracer.segment("dataset.generate", || {
        IrDataset::generate(&DatasetConfig::tiny(), seed)
    });
    let deployment = tracer.segment("kernels.deploy_sweep", || {
        let mut deployment = Deployment::new(&model, Target::Maupiti).expect("demo model deploys");
        deployment.set_memory_model(mem);
        let (first, _) = data.gather_normalized(&[0]);
        deployment.report(first.data()).expect("sample frame runs");
        deployment
    });
    let cfg = FleetConfig {
        seed,
        ..cfg.clone()
    };
    let svc = tracer.segment("fleet.setup", || {
        FleetService::new(deployment.clone(), cfg, &data).expect("fleet provisions")
    });
    (Served { model, deployment }, Building { data, svc })
}

/// Seeded frames of the nodes' dataset, normalised as the nodes send them.
fn sample_frames(data: &IrDataset, n: usize, seed: u64) -> Tensor {
    data.gather_normalized(&sample_indices(data.len(), n, seed))
        .0
}

/// Majority-voted balanced accuracy of `model` over every session of
/// `data`, each session voted as one stream.
fn served_bas(model: &QuantizedCnn, data: &IrDataset) -> f64 {
    let mut preds = Vec::new();
    let mut labels = Vec::new();
    for s in 0..data.num_sessions() {
        let (x, y) = data.session_stream(s);
        preds.extend(apply_majority(&model.predict_batch(&x), MAJORITY_WINDOW));
        labels.extend(y);
    }
    balanced_accuracy(&preds, &labels, data.num_classes())
}

/// Failed-operations numerator: requests shed, downsampled, lost to a
/// crash or withheld from fusion by quarantine.
fn unserved(report: &FleetReport) -> u64 {
    let t = &report.totals;
    t.shed + t.downsampled + t.crash_lost + t.quarantined_frames
}

/// The timed fleet runs of one measurement.
struct Runs {
    /// `(building index, host seconds, admitted frames)` per run, in order.
    runs: Vec<(usize, f64, u64)>,
    /// The first report of every building.
    reports: Vec<FleetReport>,
}

impl Runs {
    fn times_of(&self, building: usize) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.0 == building)
            .map(|r| r.1)
            .collect()
    }
}

/// Serves the buildings round-robin until `seconds` have passed and at
/// least `min_runs` runs are done, timing each `FleetService::run` call
/// through `timed`. Checks every run's conservation and that a repeated
/// building repeats its occupancy digest.
fn timed_runs(
    out: &mut Outcome,
    buildings: &[&Building],
    seconds: f64,
    min_runs: usize,
    mut timed: impl FnMut(&mut dyn FnMut() -> FleetReport) -> FleetReport,
) -> Runs {
    let width = pcount_runtime::current().width();
    let mut pools: Vec<_> = buildings
        .iter()
        .map(|b| b.svc.make_pool(width).expect("warm-up frame runs"))
        .collect();
    let mut runs = Vec::new();
    let mut reports: Vec<FleetReport> = Vec::new();
    let start = Instant::now();
    while runs.len() < min_runs || start.elapsed().as_secs_f64() < seconds {
        let b = runs.len() % buildings.len();
        let svc = &buildings[b].svc;
        let pool = &mut pools[b];
        let t = Instant::now();
        let report = timed(&mut || svc.run(pool));
        runs.push((b, t.elapsed().as_secs_f64(), report.totals.admitted));
        out.check(
            format!(
                "run {}: every request is disposed of exactly once",
                runs.len()
            ),
            report.conservation_holds(),
        );
        match reports.get(b) {
            Some(first) => out.check(
                format!(
                    "run {}: building {b} repeats its occupancy digest",
                    runs.len()
                ),
                report.occupancy.hash == first.occupancy.hash,
            ),
            None => reports.push(report),
        }
    }
    Runs { runs, reports }
}

fn run(args: &Args, cfg: FleetConfig, mem: MemoryModel) -> Outcome {
    let mut out = Outcome::default();
    let seeds = building_seeds(args.seed);
    let (setup_s, (model, first)) = median_time(SETUP_REPS, || {
        let model = served(mem);
        let first = building(&model, &cfg, seeds[0]);
        (model, first)
    });
    let rest: Vec<Building> = seeds[1..]
        .iter()
        .map(|&seed| building(&model, &cfg, seed))
        .collect();
    let all: Vec<&Building> = std::iter::once(&first).chain(&rest).collect();
    let measured = timed_runs(&mut out, &all, args.seconds, BUILDINGS + 1, |run| run());
    out.attempted = measured
        .runs
        .iter()
        .map(|&(b, _, _)| measured.reports[b].totals.requests)
        .sum();

    let check = sample_frames(&first.data, CHECK_FRAMES, args.seed);
    out.check(
        "forward_int logits equal the simulator's on the sampled frames",
        probe::logits_match(&model.deployment, &model.model, &check),
    );

    if !args.trace {
        let times: Vec<f64> = measured.runs.iter().map(|r| r.1).collect();
        let rates: Vec<f64> = measured
            .runs
            .iter()
            .map(|&(_, s, admitted)| admitted as f64 / s)
            .collect();
        let latencies: Vec<f64> = measured
            .reports
            .iter()
            .flat_map(|r| r.deliveries.iter().filter_map(|d| d.latency_ns))
            .map(|ns| ns as f64)
            .collect();
        let requests: u64 = measured.reports.iter().map(|r| r.totals.requests).sum();
        let unserved: u64 = measured.reports.iter().map(unserved).sum();
        out.set("wall_s", median(&times));
        out.set("setup_s", setup_s);
        out.set("frames_per_s", median(&rates));
        out.set("p99_ms", percentile(&latencies, 99.0) / 1e6);
        out.set("served_share", 1.0 - unserved as f64 / requests as f64);
        return out;
    }

    let tracer = Tracer::start();
    let (traced_model, traced) = traced_setup(&tracer, &cfg, mem, seeds[0]);
    out.check(
        "the traced set-up rebuilds the same served model",
        probe::logits_match(&traced_model.deployment, &model.model, &check),
    );
    let traced_runs = timed_runs(
        &mut out,
        &[&traced],
        args.seconds / BUILDINGS as f64,
        MIN_TRACED_RUNS,
        |run| tracer.span("fleet.run", run),
    );
    let report = &traced_runs.reports[0];
    out.check(
        "tracing leaves the occupancy digest unchanged",
        report.occupancy.hash == measured.reports[0].occupancy.hash,
    );
    let probe_frames = sample_frames(&traced.data, PROBE_FRAMES, args.seed);
    probe::layers(
        &tracer,
        &mut out,
        &traced_model.deployment,
        &traced_model.model,
        &probe_frames,
    );
    for (name, value) in tracer.finish() {
        out.set(name, value);
    }

    let cost = result_from_report(
        PlatformSpec::MAUPITI,
        &traced_model
            .deployment
            .report(probe::frame(&check, 0))
            .expect("sample frame runs"),
    );
    let (c1, c2, f1) = DEMO_CHANNELS;
    let arch = CnnConfig::seed().with_channels(c1, c2, f1);
    out.set(
        "front_best_bas",
        served_bas(&traced_model.model, &traced.data),
    );
    out.set(
        "front_min_bytes",
        PrecisionAssignment::uniform(Precision::Int8).memory_bytes(&arch) as f64,
    );
    out.set("front_min_energy_uj", cost.energy_uj);

    let t = &report.totals;
    let retries: u64 = report.node_reports.iter().map(|n| n.retries).sum();
    let depths: Vec<f64> = report
        .deliveries
        .iter()
        .map(|d| d.queue_depth_after as f64)
        .collect();
    let traced_wall_s = median(&traced_runs.times_of(0));
    out.set("dataset.generate_s", tracer.total("dataset.generate"));
    out.set("nn.seed_train_s", tracer.total("nn.seed_train"));
    out.set(
        "kernels.deploy_sweep_s",
        tracer.total("kernels.deploy_sweep"),
    );
    out.set("fleet.setup_s", tracer.total("fleet.setup"));
    out.set("fleet.run_s", traced_wall_s);
    out.set(
        "resilience.attempts_per_admitted",
        (t.admitted + retries) as f64 / t.admitted as f64,
    );
    out.set("fleet.shed", t.shed as f64);
    out.set("fleet.downsampled", t.downsampled as f64);
    out.set("fleet.quarantined_frames", t.quarantined_frames as f64);
    out.set("fleet.crash_lost", t.crash_lost as f64);
    out.set("fleet.rerouted", t.rerouted as f64);
    out.set("fleet.queue_depth_p99", percentile(&depths, 99.0));
    out.set(
        "trace_overhead_share",
        traced_wall_s / median(&measured.times_of(0)) - 1.0,
    );
    out
}
