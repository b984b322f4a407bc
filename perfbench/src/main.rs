//! The benchmark command.
//!
//! ```text
//! perfbench --workload <fleet_churn|tenant_fused|tenant_flood> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it carries the run's metadata.

use perfbench::cores::Cores;
use perfbench::fleet_churn::{self, Cluster, FleetChurnConfig};
use perfbench::stats::{median, quantile};
use perfbench::tenant::{self, TenantConfig};
use perfbench::trace::{summarize, Tracer};
use perfbench::Outcome;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use valkyrie_core::hash::mix64;
use valkyrie_core::{Classification, EngineConfig, ProcessId, ShareActuator, ValkyrieEngine};

/// The seed whose outcome digests are pinned below.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    FleetChurn,
    TenantFused,
    TenantFlood,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_churn" => Some(Self::FleetChurn),
            "tenant_fused" => Some(Self::TenantFused),
            "tenant_flood" => Some(Self::TenantFlood),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetChurn => "fleet_churn",
            Self::TenantFused => "tenant_fused",
            Self::TenantFlood => "tenant_flood",
        }
    }

    /// Episodes with distinct derived seeds; their outcomes are pooled
    /// into the security metrics. Episodes past these repeat them, for
    /// timing only, and must reproduce their digests.
    fn distinct(self) -> u64 {
        match self {
            Self::FleetChurn => 1,
            Self::TenantFused => 16,
            Self::TenantFlood => 12,
        }
    }

    /// Pinned outcome digest of the first episode at [`DEFAULT_SEED`].
    fn pinned_digest(self) -> u64 {
        match self {
            Self::FleetChurn => 0xeb2c_2b30_8ebf_c3b2,
            Self::TenantFused => 0x941c_50a2_75f7_9b7e,
            Self::TenantFlood => 0x1f9c_490d_320b_4b8b,
        }
    }

    /// Seconds one more set-up of episode 0 takes (built, then dropped).
    fn setup_only(self, seed: u64) -> f64 {
        let start = Instant::now();
        match self {
            Self::FleetChurn => {
                let cluster = Cluster::build(&FleetChurnConfig::bench(Self::episode_seed(seed, 0)));
                let setup_s = start.elapsed().as_secs_f64();
                drop(cluster);
                setup_s
            }
            // Tenant runs take a set-up sample per episode, many per run.
            Self::TenantFused | Self::TenantFlood => {
                unreachable!("tenant runs hold more than MIN_SETUPS episodes")
            }
        }
    }

    fn episode_seed(seed: u64, index: u64) -> u64 {
        mix64(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    fn episode(self, seed: u64, index: u64, single_thread: bool, tr: &mut Tracer) -> Outcome {
        let seed = Self::episode_seed(seed, index);
        match self {
            Self::FleetChurn => {
                let cfg = FleetChurnConfig {
                    single_thread,
                    ..FleetChurnConfig::bench(seed)
                };
                fleet_churn::run(&cfg, tr)
            }
            Self::TenantFused => tenant::run(&TenantConfig::fused(seed), tr),
            Self::TenantFlood => tenant::run(&TenantConfig::flooded(seed), tr),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Collects `"name": {"value": v, "unit": u}` entries.
#[derive(Default)]
struct Metrics(String);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            self.0,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's commit, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Same-run calibration: the paper-era `observe_loop` (one
/// `ValkyrieEngine::observe` per process) over a 100k-process tick, best
/// of 15 ticks, milliseconds.
fn observe_loop_100k_ms() -> f64 {
    const PROCS: u64 = 100_000;
    let config = EngineConfig::builder()
        .measurements_required(1 << 40)
        .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
        .build()
        .expect("valid calibration config");
    let mut engine = ValkyrieEngine::with_capacity(config, PROCS as usize);
    let ring: Vec<Vec<(ProcessId, Classification)>> = (0..7)
        .map(|epoch| {
            (0..PROCS)
                .map(|pid| {
                    let cls = if (pid + epoch).is_multiple_of(7) {
                        Classification::Malicious
                    } else {
                        Classification::Benign
                    };
                    (ProcessId(pid), cls)
                })
                .collect()
        })
        .collect();
    let mut best = f64::INFINITY;
    for tick in 0..18 {
        let t0 = Instant::now();
        for &(pid, cls) in &ring[tick % 7] {
            std::hint::black_box(engine.observe(pid, cls));
        }
        if tick >= 3 {
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

fn pct(num: f64, den: f64) -> f64 {
    100.0 * num / den.max(1.0)
}

/// What one run reports besides its metrics.
struct Checks {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.correct = false;
        self.failed += 1;
        self.notes.push(note);
    }

    /// Folds one episode's oracle counts in. Ingest drops under the flood
    /// are the overload defense at work, not failed responses; they are
    /// reported as `ingest.dropped_legit`.
    fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.checked;
        self.failed += o.violations;
        if o.violations > 0 {
            self.correct = false;
            self.notes
                .push(format!("{} invariant violations", o.violations));
        }
    }

    /// Checks a first episode against the pinned digest.
    fn check_pin(&mut self, wl: Workload, seed: u64, o: &Outcome) {
        if seed == DEFAULT_SEED && o.digest() != wl.pinned_digest() {
            self.fail(format!(
                "digest {:#018x} differs from the pinned {:#018x}",
                o.digest(),
                wl.pinned_digest()
            ));
        }
    }
}

/// Mean over cores of each core's median of the `(core, value)` samples.
fn per_core_median(samples: &[(usize, f64)], cores: usize) -> f64 {
    per_core(samples, cores, median)
}

/// Mean over cores of `stat` applied to each core's `(core, value)`
/// samples (cores without samples are left out).
fn per_core(samples: &[(usize, f64)], cores: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let stats: Vec<f64> = (0..cores)
        .map(|c| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|(core, _)| *core == c)
                .map(|&(_, x)| x)
                .collect();
            stat(&xs)
        })
        .filter(|x| !x.is_nan())
        .collect();
    stats.iter().sum::<f64>() / stats.len().max(1) as f64
}

/// Set-up samples every run takes at least, so `setup_s` is a median even
/// when a run has a single episode.
const MIN_SETUPS: usize = 9;

/// The untraced run: episodes until `seconds` have passed (at least the
/// distinct set), end-to-end metrics. Episode `i` runs on core `i`.
fn run_untraced(a: &Args, cores: &Cores, v: &mut Checks, meta: &mut String) -> Metrics {
    let wl = a.workload;
    let distinct = wl.distinct();
    let n = cores.len();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut outs: Vec<Outcome> = Vec::new();
    loop {
        let index = outs.len() as u64;
        cores.visit(index as usize);
        let o = wl.episode(a.seed, index % distinct, false, &mut Tracer::new(false));
        v.absorb(&o);
        if index < distinct {
            if index == 0 {
                v.check_pin(wl, a.seed, &o);
            }
        } else if o.digest() != outs[(index % distinct) as usize].digest() {
            v.fail(format!("episode {index} did not reproduce its digest"));
        }
        outs.push(o);
        if outs.len() as u64 >= distinct && start.elapsed() >= budget {
            break;
        }
    }
    let mut setups: Vec<(usize, f64)> = outs
        .iter()
        .enumerate()
        .map(|(i, o)| (i % n, o.setup_s))
        .collect();
    for i in setups.len()..MIN_SETUPS {
        cores.visit(i);
        setups.push((i % n, wl.setup_only(a.seed)));
    }
    // Timings: each core's best episode, averaged over cores. Contention
    // from the other tenants of a shared host only ever slows an episode,
    // and it comes and goes over seconds: on the 2-vCPU host the benchmark
    // was sized on, the median episode of a 20 s window moved by 16%
    // (interquartile over windows), the best one by 3%.
    let best = |f: &dyn Fn(&Outcome) -> f64, q: f64| {
        let xs: Vec<(usize, f64)> = outs
            .iter()
            .enumerate()
            .map(|(i, o)| (i % n, f(o)))
            .collect();
        per_core(&xs, n, |v| quantile(v, q))
    };
    let ticks: usize = outs.iter().map(|o| o.tick_ms.len()).sum();

    let pooled = &outs[..distinct as usize];
    let sum = |f: fn(&Outcome) -> f64| pooled.iter().map(f).sum::<f64>();
    let attacks = sum(|o| o.attacks as f64);
    let killed = sum(|o| o.attacks_killed() as f64);

    let mut m = Metrics::default();
    m.put("setup_s", per_core_median(&setups, n), "s");
    m.put("wall_s", best(&|o| o.wall_s, 0.0), "s");
    m.put(
        "engine_mobs_per_s",
        best(&|o| o.observations as f64 / o.engine_s() / 1e6, 1.0),
        "Mobs/s",
    );
    m.put(
        "tick_p50_ms",
        best(&|o| quantile(&o.tick_ms, 0.5), 0.0),
        "ms",
    );
    m.put(
        "tick_p90_ms",
        best(&|o| quantile(&o.tick_ms, 0.9), 0.0),
        "ms",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("attacks_killed_pct", pct(killed, attacks), "%");
    m.put(
        "kill_lag_epochs",
        sum(|o| o.kill_lag_sum as f64) / killed.max(1.0),
        "epochs",
    );
    m.put(
        "wrongful_kill_pct",
        pct(
            sum(|o| o.benign_killed as f64),
            sum(|o| o.benign_spawned as f64),
        ),
        "%",
    );
    m.put(
        "benign_slowdown_pct",
        100.0 * (1.0 - sum(|o| o.share_sum) / sum(|o| o.share_epochs as f64).max(1.0)),
        "%",
    );
    let _ = write!(
        meta,
        ", \"episodes\": {}, \"distinct_episodes\": {distinct}, \"tick_samples\": {ticks}, \
         \"digest\": \"{:#018x}\", \"peak_tracked\": {}",
        outs.len(),
        outs[0].digest(),
        outs[0].peak_tracked
    );
    m
}

/// Elapsed time after which a traced `fleet_churn` run skips its
/// single-thread repeat. The pair before it normally ends at about 65 s
/// and the repeat costs about 0.75× as long again, so a run stays well
/// inside three minutes even when the host runs 1.3× slow.
const SINGLE_THREAD_CUTOFF: Duration = Duration::from_secs(85);

/// The traced run: pairs of an untraced and a traced episode of the first
/// distinct seed, pair `k` on core `k`, until `seconds` have passed;
/// per-layer metrics from the first traced episode.
fn run_traced(a: &Args, cores: &Cores, v: &mut Checks, meta: &mut String) -> Metrics {
    let wl = a.workload;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut overheads = Vec::new();
    let mut first: Option<(Outcome, Tracer)> = None;
    loop {
        cores.visit(overheads.len());
        let plain = wl.episode(a.seed, 0, false, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let traced = wl.episode(a.seed, 0, false, &mut tr);
        v.absorb(&traced);
        if traced.digest() != plain.digest() {
            v.fail(format!(
                "traced digest {:#018x} differs from untraced {:#018x}",
                traced.digest(),
                plain.digest()
            ));
        }
        overheads.push((
            overheads.len() % cores.len(),
            100.0 * (traced.wall_s / plain.wall_s - 1.0),
        ));
        if first.is_none() {
            v.check_pin(wl, a.seed, &plain);
            first = Some((traced, tr));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let (o, tr) = first.expect("at least one traced episode ran");
    let (by_name, top_s) = summarize(tr.spans());
    let coverage = 100.0 * top_s / o.wall_s;
    if coverage < 95.0 {
        v.fail(format!(
            "spans cover {coverage:.1}% of the traced wall time"
        ));
    }
    // A run must end within a few minutes; on a host slowed far beyond
    // the usual the single-thread repeat is skipped (and says so) rather
    // than risk that.
    let repeat_single = wl == Workload::FleetChurn && start.elapsed() < SINGLE_THREAD_CUTOFF;
    if wl == Workload::FleetChurn && !repeat_single {
        v.notes
            .push("single-thread repeat skipped: host too slow".into());
    }
    let single_thread_s = if repeat_single {
        cores.visit(0);
        let mut st = Tracer::new(true);
        let single = wl.episode(a.seed, 0, true, &mut st);
        if single.digest() != o.digest() {
            v.fail("single-thread digest differs".into());
        }
        summarize(st.spans())
            .0
            .get("fleet.observe_batch")
            .map_or(0.0, |s| s.busy_s)
    } else {
        0.0
    };
    let path =
        std::path::PathBuf::from(format!("perfbench/traces/{}-seed{}.tsv", wl.name(), a.seed));
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let span = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let mut m = Metrics::default();
    for layer in [
        "fleet.observe_batch",
        "fleet.purge",
        "fleet.forget",
        "fleet.complete",
        "sharded.drain_batch",
        "sharded.purge",
        "sharded.complete",
        "ingest.publish",
        "ingest.publish_flood",
    ] {
        m.put(&format!("{layer}.busy_s"), span(layer).busy_s, "s");
    }
    m.put(
        "fleet.observe_batch.p50_ms",
        quantile(&span("fleet.observe_batch").call_ms, 0.5),
        "ms",
    );
    m.put(
        "sharded.drain_batch.p50_ms",
        quantile(&span("sharded.drain_batch").call_ms, 0.5),
        "ms",
    );
    m.put(
        "fleet.observe_batch.single_thread_busy_s",
        single_thread_s,
        "s",
    );
    m.put("workloads.gen.busy_s", span("workloads.gen").self_s, "s");
    m.put("driver.credit.busy_s", span("driver.credit").self_s, "s");
    for (name, unit) in [
        ("fleet.purged", "count"),
        ("fleet.forget.calls", "count"),
        ("fleet.complete.calls", "count"),
        ("fleet.tracked_peak", "count"),
        ("sharded.complete.calls", "count"),
        ("sharded.tracked_peak", "count"),
        ("ingest.published", "count"),
        ("ingest.drained", "count"),
        ("ingest.dropped", "count"),
        ("ingest.dropped_legit", "count"),
        ("ingest.priority_queued", "count"),
        ("ingest.evictions_deflected", "count"),
        ("ingest.useful_ratio", "ratio"),
        ("fusion.verdicts", "count"),
        ("fusion.stale_decayed", "count"),
        ("fusion.escalations", "count"),
        ("fusion.verdicts_per_response", "ratio"),
    ] {
        m.put(name, o.counter(name), unit);
    }
    for (i, state) in ["normal", "suspicious", "terminable"].iter().enumerate() {
        m.put(
            &format!("monitor.census.{state}"),
            o.census[i] as f64,
            "count",
        );
    }
    m.put(
        "trace.overhead_pct",
        per_core_median(&overheads, cores.len()),
        "%",
    );

    let mut table = String::new();
    for (name, s) in &by_name {
        let _ = write!(
            table,
            "{}{{\"span\": \"{name}\", \"calls\": {}, \"busy_s\": {:.6}, \"self_s\": {:.6}, \
             \"share_of_wall_pct\": {:.2}}}",
            if table.is_empty() { "" } else { ", " },
            s.calls,
            s.busy_s,
            s.self_s,
            100.0 * s.self_s / o.wall_s
        );
    }
    let _ = write!(
        meta,
        ", \"traced_pairs\": {}, \"span_coverage_pct\": {coverage:.3}, \
         \"traced_wall_s\": {:.6}, \"spans\": [{table}], \"trace_file\": \"{}\"",
        overheads.len(),
        o.wall_s,
        path.display()
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::new();
    let mut meta = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cores\": {}, \
         \"commit\": \"{}\"",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        valkyrie_core::host_parallelism(),
        commit()
    );
    let cores = Cores::detect();
    let metrics = if args.trace {
        run_traced(&args, &cores, &mut checks, &mut meta)
    } else {
        run_untraced(&args, &cores, &mut checks, &mut meta)
    };
    let _ = write!(
        meta,
        ", \"observe_loop_100k_ms\": {:.4}, \"notes\": [{}]",
        observe_loop_100k_ms(),
        checks
            .notes
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{{\"meta\": {{{meta}}}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct,
        checks.attempted.max(1),
        checks.failed,
        metrics.0
    );
}
