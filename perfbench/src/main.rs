//! `spotfi-perfbench` — end-to-end and per-layer benchmark of SpotFi's
//! serving path (wire frames → registry → fleet engine → fixes) and of the
//! paper's one-shot batch localization.
//!
//! ```text
//! spotfi-perfbench --workload <fleet_walk|fleet_ring8|batch_paper>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the recorder stays off and the last line of standard
//! output is a JSON object with the end-to-end metrics; with `--trace 1`
//! the same inputs run with `spotfi-obs` enabled and the JSON carries the
//! per-layer metrics instead. Everything before that line is a
//! human-readable account of the run: the input digest, the producer's
//! lateness, the correctness checks and (traced) the stage ledgers.
//! See `README.md` for the workloads and what each metric should move.

mod batch;
mod fleet;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run reports.
pub struct Outcome {
    /// Correctness failures; empty means every check passed.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in any order: every name of [`END_TO_END`]
    /// (untraced), or the [`PER_LAYER`] names of the layers the workload
    /// runs (traced).
    pub metrics: Vec<(&'static str, f64)>,
}

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("capacity_pps", "packets/s"),
    ("fix_p50_ms", "ms"),
    ("err_p50_m", "m"),
    ("err_p90_m", "m"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them. A
/// workload that does not run a layer reports 0 for it. `fix_p90_ms` is
/// end-to-end, but on the fleet workloads it follows the host's wake-up
/// latency too closely to carry a bound, so it is reported here.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("fix_p90_ms", "ms"),
    ("wire.decode_us_per_frame", "us"),
    ("ingest.admit_us_per_pkt", "us"),
    ("fleet.ingest_us_per_pkt", "us"),
    ("fleet.producer_blocked_s", "s"),
    ("fleet.queue_depth_max", "packets"),
    ("gen.late_p99_ms", "ms"),
    ("stream.packet_us", "us"),
    ("stream.sanitize_us", "us"),
    ("stream.smooth_us", "us"),
    ("stream.track_us", "us"),
    ("stream.eigen_us", "us"),
    ("stream.sweep_us", "us"),
    ("stream.self_us", "us"),
    ("stream.warm_hit_ratio", "ratio"),
    ("stream.anchors", "count/round"),
    ("stream.fallbacks", "count/round"),
    ("stream.no_paths", "count/round"),
    ("music.hill_climb_steps", "steps/pkt"),
    ("music.tau_memo_hit_ratio", "ratio"),
    ("eigen.batch_solves", "count/round"),
    ("batch.eigen_batch_us", "us"),
    ("eigen.calls", "count/round"),
    ("fuse.us_per_fix", "us"),
    ("fuse.cluster_us", "us"),
    ("fuse.localize_us", "us"),
    ("localize.grid_evals_per_fix", "evals"),
    ("batch.analyze_ms", "ms"),
    ("batch.sweep_us", "us"),
    ("batch.localize_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet_walk" => fleet::run(&fleet::Workload::walk(), &args),
        "fleet_ring8" => fleet::run(&fleet::Workload::ring8(), &args),
        "batch_paper" => batch::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|t| t.0 == *name),
            "workload reported {name}, which BENCHMARK.json does not list"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.iter().find(|m| m.0 == *name) {
                Some(m) => m.1,
                None if args.trace => 0.0,
                None => panic!("workload did not report {name}"),
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shortest round-trip decimal form; JSON has no NaN/Inf, so those become
/// `null` (and fail the driver's schema loudly instead of parsing as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

// ── Shared helpers ──────────────────────────────────────────────────────

/// splitmix64 over `(seed, a, b)`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + a))
        .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(1 + b));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, folded incrementally over input bytes so two commits can
/// show they generated identical inputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank quantile of `xs` (sorted in place). `NaN` when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// The global allocator: the system's, counting live heap bytes so a run
/// can report the program's peak heap apart from the inputs it generated.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Starts a heap peak measurement: call it once the inputs are generated,
/// before set-up. Returns the live heap it starts from.
pub fn heap_baseline() -> usize {
    reset_heap_peak();
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the peak from the live heap, against the same baseline.
pub fn reset_heap_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since [`heap_baseline`] above that baseline, MB: what
/// set-up and serving held at their peak, without the generated inputs.
pub fn peak_heap_mb(baseline: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / (1024.0 * 1024.0)
}

/// Collects correctness failures by name.
#[derive(Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.0.len() < 64 {
            self.0.push(what());
        }
    }
}

/// Per-unit share of an obs time metric, microseconds.
pub fn span_us(snap: &spotfi_obs::Snapshot, name: &str, per: f64) -> f64 {
    if per <= 0.0 {
        return 0.0;
    }
    snap.time_total_ns(name) as f64 / 1e3 / per
}
