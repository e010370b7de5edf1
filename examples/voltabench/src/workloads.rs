//! The four workloads. Each runs serially on the calling thread
//! (`Executor::Serial`) as a closed loop: a pass issues its requests
//! one at a time, each only after the previous one returned, in an
//! order drawn from the pass's seed.
//!
//! In a traced pass every grid cell is additionally replayed layer by
//! layer through the public functions `grid::cell_report` is built
//! from, so each layer's host time can be attributed from outside the
//! program.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dgx1_repro::comm::{tuner, Ring, TuningSpace};
use dgx1_repro::prelude::*;
use dgx1_repro::sim::SimSpan;
use dgx1_repro::voltascope::calibration::dgx1_system;
use dgx1_repro::voltascope::experiments::fig3;
use dgx1_repro::voltascope::grid::{cell_report, harness_for};
use dgx1_repro::voltascope::service::persist::TraceOut;
use dgx1_repro::voltascope::workloads::workload_dir;

use crate::check::{cell_key, golden_contains, report_line, Expected, Ops};
use crate::stats::SplitMix64;
use crate::trace::Tracer;

/// The workloads, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["fig3_cold", "faults_tuned", "snapshot_rw", "data_dag"];

const FIG3_TITLE: &str = "Fig. 3: Training time per epoch (s)";
const FIG3_GOLDEN: &str = include_str!("../../../results/fig3_training_time.txt");
const DAG_GOLDEN: &str = include_str!("../../../results/dag_overlap.txt");
const TRANSFORMER_GOLDEN: &str = include_str!("../../../results/extension_transformer.txt");

/// Warm load-and-answer cycles per `snapshot_rw` pass.
const WARM_READS: usize = 5;
/// `data_dag` batch sizes and (GPUs, method) configurations.
const DAG_BATCHES: [usize; 2] = [32, 64];
const DAG_CONFIGS: [(usize, CommMethod); 3] = [
    (1, CommMethod::P2p),
    (4, CommMethod::Nccl),
    (8, CommMethod::Nccl),
];
/// The batch and configurations `results/dag_overlap.txt` reports.
const DAG_GOLDEN_BATCH: usize = 32;
const DAG_GOLDEN_CONFIGS: [(usize, CommMethod); 2] = [(1, CommMethod::P2p), (4, CommMethod::Nccl)];
const PIPELINE_MICROBATCHES: [usize; 5] = [1, 2, 4, 8, 16];

/// The checked-in expected outputs of workload `name`.
pub fn expected_text(name: &str) -> &'static str {
    match name {
        "fig3_cold" => include_str!("../expected/fig3_cold.txt"),
        "faults_tuned" => include_str!("../expected/faults_tuned.txt"),
        "snapshot_rw" => include_str!("../expected/snapshot_rw.txt"),
        "data_dag" => include_str!("../expected/data_dag.txt"),
        _ => "",
    }
}

/// Where the expected outputs of `name` are checked in.
pub fn expected_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{name}.txt"))
}

/// Scratch space for the snapshot file and span dumps.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/voltabench")
}

/// What one pass of a workload is given.
pub struct Pass<'a> {
    index: u32,
    rng: SplitMix64,
    t: &'a mut Tracer,
    ops: &'a mut Ops,
    /// Host latency of every request, in ms, by request key.
    requests: &'a mut BTreeMap<String, Vec<f64>>,
    next_request: u32,
}

impl<'a> Pass<'a> {
    pub fn new(
        index: u32,
        seed: u64,
        t: &'a mut Tracer,
        ops: &'a mut Ops,
        requests: &'a mut BTreeMap<String, Vec<f64>>,
    ) -> Self {
        Pass {
            index,
            rng: SplitMix64::new(seed),
            t,
            ops,
            requests,
            next_request: 0,
        }
    }

    /// Records the host latency of one request, in ms, under a key that
    /// names the same request in every pass.
    fn latency(&mut self, key: &str, ms: f64) {
        self.requests.entry(key.to_string()).or_default().push(ms);
    }

    /// Starts the next request of the pass: later spans carry its id.
    fn request(&mut self) {
        self.t.set_request(self.index, self.next_request);
        self.next_request += 1;
    }

    /// Closes the pass: every expected output must have been produced.
    fn end(&mut self, expected: &mut Expected) {
        self.request();
        self.ops
            .run("expected outputs", self.t, |_| (), |_| expected.end_pass());
    }
}

/// A workload after set-up.
pub trait Bench {
    /// Issues every request of the workload once.
    fn pass(&mut self, p: &mut Pass<'_>);

    /// The expected outputs the passes are checked against.
    fn expected(&self) -> &Expected;
}

/// Sets up workload `name`.
pub fn setup(name: &str, expected: Expected) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "fig3_cold" => Box::new(GridBench::fig3(expected)?),
        "faults_tuned" => Box::new(GridBench::faults(expected)?),
        "snapshot_rw" => Box::new(SnapshotBench::new(expected)?),
        "data_dag" => Box::new(DagBench::new(expected)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// The paper harness with its tuning space set in code rather than
/// read from the environment.
fn harness(tuning: TuningSpace) -> Harness {
    let mut h = Harness::paper();
    h.sys.nccl.tuning = tuning;
    h
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The Fig. 3 artefact exactly as the regeneration binary prints it.
fn fig3_text(service: &GridService, spec: &GridSpec) -> String {
    let rows = fig3::rows_from(service.base(), &service.sweep(spec));
    format!("== {FIG3_TITLE} ==\n{}\n", fig3::render(&rows).render())
}

/// The Fig. 3 table must be byte-equal to its golden file.
fn fig3_check(text: &str) -> Result<(), String> {
    if text == FIG3_GOLDEN {
        return Ok(());
    }
    golden_contains(FIG3_GOLDEN, text)?;
    Err("output is only part of the golden".to_string())
}

/// FNV-1a, for content digests and tuner-call keys.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

/// `fig3_cold` and `faults_tuned`: every cell requested once from a
/// fresh service, so every request computes.
struct GridBench {
    harness: Harness,
    cells: Vec<Cell>,
    /// Render this grid as Fig. 3 after the requests.
    table: Option<GridSpec>,
    expected: Expected,
}

impl GridBench {
    /// The 120-cell Fig. 3 grid with the paper's singleton tuning
    /// space, which never simulates a tuner candidate.
    fn fig3(expected: Expected) -> Result<Self, String> {
        let spec = fig3::spec(&Workload::ALL);
        Self::new(
            harness(TuningSpace::paper()),
            spec.clone(),
            Some(spec),
            expected,
        )
    }

    /// Every fault scenario on eight GPUs under NCCL, with the modern
    /// tuning space, which simulates every candidate per bucket size.
    fn faults(expected: Expected) -> Result<Self, String> {
        let spec = GridSpec::paper()
            .comms([CommMethod::Nccl])
            .batches([32])
            .gpu_counts([8])
            .faults(FaultScenario::EXTENDED);
        Self::new(harness(TuningSpace::modern()), spec, None, expected)
    }

    /// Set-up builds every definition and platform harness the grid
    /// needs, as the grid engine does before a sweep, and lowers every
    /// cell once, so a malformed cell fails here rather than in a timed
    /// request.
    fn new(
        harness: Harness,
        spec: GridSpec,
        table: Option<GridSpec>,
        expected: Expected,
    ) -> Result<Self, String> {
        let lowered = GridRunner::new(&harness, &spec).run(Executor::Serial, &spec, |ctx| {
            ctx.def
                .lowered(ctx.cell.batch)
                .map(|_| ())
                .map_err(|e| format!("{}: {e}", cell_key(&ctx.cell)))
        });
        if let Some(Err(e)) = lowered.values().iter().find(|r| r.is_err()) {
            return Err(e.clone());
        }
        Ok(GridBench {
            harness,
            cells: spec.cells(),
            table,
            expected,
        })
    }
}

impl Bench for GridBench {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let service = GridService::with_executor(self.harness.clone(), Executor::Serial);
        let mut order = self.cells.clone();
        p.rng.shuffle(&mut order);
        let mut replay = Replay::default();
        for (i, cell) in order.iter().enumerate() {
            p.request();
            let key = cell_key(cell);
            let expected = &mut self.expected;
            // The replay runs before the request for every other cell
            // and after it for the rest, so that whichever of the two
            // simulations of a cell runs second and finds warm caches,
            // the request minus the replay is not biased either way.
            let replay_first = i % 2 == 0;
            let out = p.ops.run(
                &key,
                p.t,
                |t| {
                    let op = t.begin("request");
                    if t.enabled() && replay_first {
                        replay.cell(t, &self.harness, cell);
                    }
                    let out = t.span("service.request", || {
                        timed(|| service.run_cells(std::slice::from_ref(cell)))
                    });
                    if t.enabled() && !replay_first {
                        replay.cell(t, &self.harness, cell);
                    }
                    t.end(op);
                    out
                },
                |(reports, _)| expected.check(&key, &report_line(&reports[0])),
            );
            if let Some((_, ms)) = out {
                p.latency(&key, ms);
            }
        }
        let stats = service.stats();
        p.t.count("service.hits", (stats.hits + stats.coalesced) as f64);
        p.t.count("service.cells", stats.cells as f64);
        if let Some(spec) = &self.table {
            p.request();
            p.ops.run(
                "fig3 table",
                p.t,
                |t| t.span("profile.render", || fig3_text(&service, spec)),
                |text| fig3_check(text),
            );
        }
        p.end(&mut self.expected);
    }

    fn expected(&self) -> &Expected {
        &self.expected
    }
}

/// Per-pass state of the layer-by-layer replay: what the service pools
/// across a pass (definitions, platform harnesses) and the tuner calls
/// seen so far.
#[derive(Default)]
struct Replay {
    defs: HashMap<WorkloadSel, Arc<Definition>>,
    harnesses: HashMap<(Platform, FaultScenario), (Arc<Harness>, u64)>,
    tune_keys: HashSet<(u64, u64, u64, u64, bool)>,
}

impl Replay {
    /// Replays one grid cell through each layer, ending with the
    /// simulation itself.
    fn cell(&mut self, t: &mut Tracer, base: &Harness, cell: &Cell) {
        let def = match self.defs.get(&cell.workload) {
            Some(def) => def.clone(),
            None => {
                let def = Arc::new(t.span("dnn.build", || cell.workload.definition()));
                self.defs.insert(cell.workload, def.clone());
                def
            }
        };
        let lowered = t
            .span("workload.lower", || def.lowered(cell.batch))
            .expect("grid workloads lower");
        let (harness, topo_fp) = match self.harnesses.get(&(cell.platform, cell.fault)) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(t.span("topo.apply", || {
                    harness_for(base, cell.platform, cell.fault)
                }));
                let entry = (h.clone(), fingerprint(&h.sys.topo));
                self.harnesses
                    .insert((cell.platform, cell.fault), entry.clone());
                entry
            }
        };
        let sizes = bucket_sizes(&lowered);
        self.epoch_setup(t, &harness.sys, topo_fp, cell.gpus, cell.comm, &sizes);
        if cell.fault.mid_epoch_fraction().is_some() {
            // A mid-epoch fault simulates the degraded twin, then the
            // healthy system again for the transition iteration.
            let degraded = t.span("topo.apply", || harness.sys.with_faults(&cell.fault.spec()));
            let degraded_fp = fingerprint(&degraded.topo);
            self.epoch_setup(t, &degraded, degraded_fp, cell.gpus, cell.comm, &sizes);
            self.epoch_setup(t, &harness.sys, topo_fp, cell.gpus, cell.comm, &sizes);
        }
        let report = t.span("train.epoch", || cell_report(&harness, &def, cell));
        t.count("sim.trace_events", report.iter_trace.len() as f64);
    }

    /// What one epoch simulation does before its engine runs: build the
    /// ring and, under NCCL, tune both collectives for every distinct
    /// bucket size.
    fn epoch_setup(
        &mut self,
        t: &mut Tracer,
        sys: &SystemModel,
        topo_fp: u64,
        gpus: usize,
        comm: CommMethod,
        sizes: &BTreeSet<u64>,
    ) {
        let ring = t.span("comm.ring_build", || Ring::build(&sys.topo, gpus));
        if comm != CommMethod::Nccl {
            return;
        }
        let ring_fp = fingerprint(&ring.devices());
        let space_fp = fingerprint(&sys.nccl.tuning);
        for &bytes in sizes {
            for all_reduce in [true, false] {
                let choice = t.span("comm.tune", || {
                    if all_reduce {
                        tuner::choose_all_reduce(&sys.topo, &ring, bytes, &sys.nccl)
                    } else {
                        tuner::choose_broadcast(&sys.topo, &ring, bytes, &sys.nccl)
                    }
                });
                black_box(choice.expect("tuner candidates emit"));
                if self
                    .tune_keys
                    .insert((topo_fp, ring_fp, space_fp, bytes, all_reduce))
                {
                    t.count("comm.tune_unique", 1.0);
                }
            }
        }
    }
}

/// The distinct gradient-bucket sizes an unfused epoch tunes for: each
/// non-empty layer bucket closes a bucket, and empty ones merge into a
/// neighbour without changing its size.
fn bucket_sizes(w: &LoweredWorkload) -> BTreeSet<u64> {
    let mut sizes: BTreeSet<u64> = w
        .buckets
        .iter()
        .map(|b| b.bytes)
        .filter(|&b| b > 0)
        .collect();
    if sizes.is_empty() && !w.buckets.is_empty() {
        sizes.insert(0);
    }
    sizes
}

/// Every scalar of a report, to compare a warm answer with the cold one.
fn scalars(r: &EpochReport) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
        r.iterations,
        r.iter_time,
        r.epoch_time,
        r.fp_bp_iter,
        r.wu_iter,
        r.api_iter,
        r.sync_wall_iter,
        r.compute_utilization.to_bits(),
        r.critical_chain
    )
}

/// `snapshot_rw`: persistence and warm serving of the Fig. 3 cache,
/// with no simulation.
struct SnapshotBench {
    harness: Harness,
    spec: GridSpec,
    /// The cold fill, which every warm answer must reproduce.
    cold: HashMap<Cell, Arc<EpochReport>>,
    cold_scalars: HashMap<Cell, String>,
    entries: Vec<(Cell, Arc<EpochReport>)>,
    /// The eight-GPU cells, whose traces the decode step reads.
    decode_cells: Vec<Cell>,
    path: PathBuf,
    expected: Expected,
}

impl SnapshotBench {
    fn new(expected: Expected) -> Result<Self, String> {
        let harness = harness(TuningSpace::paper());
        let spec = fig3::spec(&Workload::ALL);
        let service = GridService::with_executor(harness.clone(), Executor::Serial);
        let entries: Vec<(Cell, Arc<EpochReport>)> = service.sweep(&spec).into_pairs().collect();
        let dir = work_dir();
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(SnapshotBench {
            cold: entries.iter().cloned().collect(),
            cold_scalars: entries.iter().map(|(c, r)| (*c, scalars(r))).collect(),
            decode_cells: spec.cells().into_iter().filter(|c| c.gpus == 8).collect(),
            path: dir.join(format!("snapshot_rw-{}.snap", std::process::id())),
            harness,
            spec,
            entries,
            expected,
        })
    }
}

impl Drop for SnapshotBench {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Writes through a temporary sibling and a rename, as the service's
/// own snapshot saves do.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("snap.tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

impl Bench for SnapshotBench {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let SnapshotBench {
            harness,
            spec,
            cold,
            cold_scalars,
            entries,
            decode_cells,
            path,
            expected,
        } = self;
        let path = &*path;

        // Write: encode the whole cache and replace the file.
        let fingerprint = persist::harness_fingerprint(harness);
        let mut order = entries.clone();
        p.rng.shuffle(&mut order);
        p.request();
        let written = p.ops.run(
            "snapshot write",
            p.t,
            |t| {
                let with: Vec<(Cell, Arc<EpochReport>, TraceOut)> = order
                    .iter()
                    .map(|(c, r)| (*c, r.clone(), TraceOut::Events))
                    .collect();
                let bytes = t.span("persist.encode", || {
                    persist::encode_with_traces(fingerprint, &with)
                });
                let written = t.span("persist.write", || write_atomic(path, &bytes));
                (bytes, written)
            },
            |(bytes, written)| {
                written.as_ref().map_err(|e| e.to_string())?;
                let digest = format!("bytes={} fnv={:016x}", bytes.len(), fnv(bytes));
                expected.check("snapshot", &digest)
            },
        );
        if let Some((bytes, _)) = written {
            p.t.count("persist.bytes", bytes.len() as f64);
            p.t.count("persist.cells", order.len() as f64);
        }

        // Read: warm loads, each answering the table from scalars only.
        // One load-and-answer cycle is one request of this workload; its
        // latency sums the timed steps and leaves the checks out.
        let mut warm = None;
        for cycle in 0..WARM_READS {
            p.request();
            let loaded = p.ops.run(
                "warm load",
                p.t,
                |t| {
                    t.span("persist.decode_lazy", || {
                        timed(|| {
                            GridService::with_snapshot(harness.clone(), Executor::Serial, path)
                        })
                    })
                },
                |((_, status), _)| match status {
                    SnapshotStatus::Loaded { cells } if *cells == cold.len() => Ok(()),
                    other => Err(other.to_string()),
                },
            );
            let Some(((service, _), mut cycle_ms)) = loaded else {
                continue;
            };
            let mut order = spec.cells();
            p.rng.shuffle(&mut order);
            for cell in &order {
                p.request();
                let answered = p.ops.run(
                    cell_key(cell),
                    p.t,
                    |t| {
                        t.span("service.request", || {
                            timed(|| service.run_cells(std::slice::from_ref(cell)))
                        })
                    },
                    |(reports, _)| {
                        let warm = &reports[0];
                        if scalars(warm) != cold_scalars[cell] {
                            Err("warm answer differs from the cold one".to_string())
                        } else if !warm.iter_trace.is_empty() {
                            Err("table-only answer carries a decoded trace".to_string())
                        } else {
                            Ok(())
                        }
                    },
                );
                cycle_ms += answered.map_or(0.0, |(_, ms)| ms);
            }
            p.request();
            let rendered = p.ops.run(
                "warm fig3 table",
                p.t,
                |t| t.span("profile.render", || timed(|| fig3_text(&service, spec))),
                |(text, _)| match service.trace_decodes() {
                    0 => fig3_check(text),
                    n => Err(format!("table-only read decoded {n} traces")),
                },
            );
            cycle_ms += rendered.map_or(0.0, |(_, ms)| ms);
            p.latency(&format!("warm#{cycle}"), cycle_ms);
            let stats = service.stats();
            p.t.count("service.hits", (stats.hits + stats.coalesced) as f64);
            p.t.count("service.cells", stats.cells as f64);
            p.t.count("service.trace_decodes", service.trace_decodes() as f64);
            warm = Some(service);
        }

        // Decode: traced requests force the lazy trace blocks open.
        if let Some(service) = warm {
            let mut order = decode_cells.clone();
            p.rng.shuffle(&mut order);
            for cell in &order {
                p.request();
                let key = cell_key(cell);
                p.ops.run(
                    &key,
                    p.t,
                    |t| {
                        t.span("persist.trace_decode", || {
                            service.run_cells_traced(std::slice::from_ref(cell), true)
                        })
                    },
                    |reports| {
                        if reports[0].iter_trace.events() != cold[cell].iter_trace.events() {
                            return Err("decoded trace differs from the cold one".to_string());
                        }
                        expected.check(&key, &report_line(&reports[0]))
                    },
                );
            }
            p.request();
            p.ops.run(
                "decode without recompute",
                p.t,
                |_| service.stats().computed,
                |&computed| match computed {
                    0 => Ok(()),
                    n => Err(format!("{n} cells recomputed instead of decoded")),
                },
            );
        }
        p.end(expected);
    }

    fn expected(&self) -> &Expected {
        &self.expected
    }
}

/// `data_dag`: the `.workload` data path, from text to DAG simulation
/// and the pipeline schedule.
struct DagBench {
    /// (key, text) of every `.workload` file; the key is its path
    /// under `workloads/` without the extension.
    files: Vec<(String, String)>,
    /// The calibrated DGX-1 with two compute streams per GPU, under
    /// which DAG branches overlap.
    sys: SystemModel,
    pipeline_sys: SystemModel,
    expected: Expected,
}

/// One `data_dag` cell: (file key, batch, GPUs, method).
type DagCell = (String, usize, usize, CommMethod);

impl DagBench {
    fn new(expected: Expected) -> Result<Self, String> {
        let root = workload_dir();
        let mut files = Vec::new();
        for sub in ["", "dag"] {
            let dir = root.join(sub);
            let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "workload"))
                .collect();
            paths.sort();
            for path in paths {
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
                let key = if sub.is_empty() {
                    stem.to_string()
                } else {
                    format!("{sub}/{stem}")
                };
                // Set-up checks every file parses and lowers, so the
                // passes time only well-formed inputs.
                let spec = WorkloadSpec::parse(&text).map_err(|e| format!("{key}: {e}"))?;
                let batches: &[usize] = if spec.pipeline_stages > 1 {
                    &[1]
                } else {
                    &DAG_BATCHES
                };
                for &batch in batches {
                    lower(&spec, batch).map_err(|e| format!("{key} at batch {batch}: {e}"))?;
                }
                files.push((key, text));
            }
        }
        let mut sys = dgx1_system();
        sys.nccl.tuning = TuningSpace::paper();
        sys.compute_streams = 2;
        let mut pipeline_sys = SystemModel::dgx1();
        pipeline_sys.nccl.tuning = TuningSpace::paper();
        Ok(DagBench {
            files,
            sys,
            pipeline_sys,
            expected,
        })
    }
}

impl Bench for DagBench {
    fn pass(&mut self, p: &mut Pass<'_>) {
        let DagBench {
            files,
            sys,
            pipeline_sys,
            expected,
        } = self;

        let mut order: Vec<&(String, String)> = files.iter().collect();
        p.rng.shuffle(&mut order);
        let mut specs: BTreeMap<&str, WorkloadSpec> = BTreeMap::new();
        for (key, text) in order {
            p.request();
            let parsed = p.ops.run(
                key,
                p.t,
                |t| t.span("workload.parse", || WorkloadSpec::parse(text)),
                |r| r.as_ref().map(|_| ()).map_err(|e| e.to_string()),
            );
            if let Some(Ok(spec)) = parsed {
                specs.insert(key, spec);
            }
        }

        let mut cells: Vec<DagCell> = Vec::new();
        for (key, spec) in &specs {
            if spec.pipeline_stages > 1 {
                continue;
            }
            for batch in DAG_BATCHES {
                for (gpus, comm) in DAG_CONFIGS {
                    cells.push((key.to_string(), batch, gpus, comm));
                }
            }
        }
        p.rng.shuffle(&mut cells);
        let mut replay = Replay::default();
        let topo_fp = if p.t.enabled() {
            fingerprint(&sys.topo)
        } else {
            0
        };
        let mut iters: HashMap<(String, usize, usize), (SimSpan, Vec<String>)> = HashMap::new();
        for (key, batch, gpus, comm) in cells {
            p.request();
            let spec = &specs[key.as_str()];
            let cell_key = format!("{key}/{}/b{batch}/g{gpus}", comm.name());
            let out = p.ops.run(
                &cell_key,
                p.t,
                |t| {
                    let op = t.begin("request");
                    let out = timed(|| {
                        let lowered = t
                            .span("workload.lower", || lower(spec, batch))
                            .expect("checked-in workloads lower");
                        if t.enabled() {
                            let sizes = bucket_sizes(&lowered);
                            replay.epoch_setup(t, sys, topo_fp, gpus, comm, &sizes);
                        }
                        let cfg = TrainConfig::strong(batch, gpus, comm);
                        t.span("train.epoch", || {
                            simulate_epoch_lowered(sys, &lowered, &cfg)
                        })
                    });
                    t.end(op);
                    out
                },
                |(report, _)| expected.check(&cell_key, &report_line(report)),
            );
            if let Some((report, ms)) = out {
                p.latency(&cell_key, ms);
                p.t.count("sim.trace_events", report.iter_trace.len() as f64);
                iters.insert(
                    (key, batch, gpus),
                    (report.iter_time, report.critical_chain),
                );
            }
        }

        let mut pipeline = BTreeMap::new();
        if let Some((key, spec)) = specs.iter().find(|(_, s)| s.pipeline_stages > 1) {
            let mut order = PIPELINE_MICROBATCHES;
            p.rng.shuffle(&mut order);
            for microbatches in order {
                p.request();
                let run_key = format!("{key}/pipeline/mb{microbatches}");
                let cfg = PipelineConfig {
                    microbatch: 1,
                    microbatches,
                };
                let out = p.ops.run(
                    &run_key,
                    p.t,
                    |t| {
                        t.span("train.pipeline", || {
                            simulate_pipeline_epoch(pipeline_sys, spec, &cfg)
                        })
                    },
                    |r| match r {
                        Ok(r) => expected.check(&run_key, &pipeline_line(r)),
                        Err(e) => Err(e.to_string()),
                    },
                );
                if let Some(Ok(r)) = out {
                    pipeline.insert(microbatches, r);
                }
            }
        }

        p.request();
        p.ops.run(
            "dag and pipeline tables",
            p.t,
            |t| t.span("profile.render", || dag_tables(&specs, &iters, &pipeline)),
            |(dag, pipe)| {
                golden_contains(DAG_GOLDEN, dag)?;
                golden_contains(TRANSFORMER_GOLDEN, pipe)
            },
        );
        p.end(expected);
    }

    fn expected(&self) -> &Expected {
        &self.expected
    }
}

fn pipeline_line(r: &PipelineReport) -> String {
    let busy: Vec<String> = r
        .stage_busy
        .iter()
        .map(|s| s.as_nanos().to_string())
        .collect();
    format!(
        "iter_ns={} bubble={} stage_busy_ns={}",
        r.iter_time.as_nanos(),
        r.bubble_fraction,
        busy.join(",")
    )
}

/// The DAG-overlap and pipeline tables as `results/dag_overlap.txt`
/// and `results/extension_transformer.txt` print them. Each DAG export
/// is set against the linear file of the same network, which lowers
/// like the DAG with its edges erased.
fn dag_tables(
    specs: &BTreeMap<&str, WorkloadSpec>,
    iters: &HashMap<(String, usize, usize), (SimSpan, Vec<String>)>,
    pipeline: &BTreeMap<usize, PipelineReport>,
) -> (String, String) {
    let mut table = TextTable::new([
        "Workload",
        "GPUs",
        "Comm",
        "Linear iter (s)",
        "DAG iter (s)",
        "Speedup",
    ]);
    let mut chains = String::new();
    for (key, spec) in specs {
        let Some(linear_key) = key.strip_prefix("dag/") else {
            continue;
        };
        for (gpus, comm) in DAG_GOLDEN_CONFIGS {
            let get = |k: &str| iters.get(&(k.to_string(), DAG_GOLDEN_BATCH, gpus));
            let (Some((dag, chain)), Some((lin, _))) = (get(key), get(linear_key)) else {
                continue;
            };
            let (dag, lin) = (dag.as_secs_f64(), lin.as_secs_f64());
            table.row([
                spec.name.clone(),
                gpus.to_string(),
                comm.name().to_string(),
                format!("{lin:.4}"),
                format!("{dag:.4}"),
                format!("{:.3}x", lin / dag),
            ]);
            if gpus == 1 {
                let head: Vec<&str> = chain.iter().take(6).map(String::as_str).collect();
                chains.push_str(&format!(
                    "critical chain {} ({} tasks): {} ...\n",
                    spec.name,
                    chain.len(),
                    head.join(" -> ")
                ));
            }
        }
    }
    let mut pp = TextTable::new([
        "Micro-batches",
        "Iter (s)",
        "Bubble (%)",
        "Busiest stage (s)",
    ]);
    for (microbatches, r) in pipeline {
        let busiest = r.stage_busy.iter().copied().max().unwrap_or(SimSpan::ZERO);
        pp.row([
            microbatches.to_string(),
            format!("{:.3}", r.iter_time.as_secs_f64()),
            format!("{:.1}", 100.0 * r.bubble_fraction),
            format!("{:.3}", busiest.as_secs_f64()),
        ]);
    }
    (
        format!(
            "== DAG overlap: branchy networks ==\n{}\n{chains}",
            table.render()
        ),
        format!(
            "== Extension: transformer pipeline-parallel ==\n{}\n",
            pp.render()
        ),
    )
}
