//! The two serving workloads: a fleet scenario encoded as spotfi-wire-v1
//! frames, decoded in-process and admitted through the receiver registry
//! into a one-worker `FleetEngine` — `serve`'s path after the socket read.
//!
//! Each run has two phases over the same bytes:
//!
//! * **paced**: an open-loop replay at the capture timestamps' pace. The
//!   producer sleeps in short slices between arrivals (a spinning producer
//!   steals the core the worker needs and triples the tail) and drains
//!   `try_updates` while it waits. Fix latency runs from the moment the
//!   packet that triggers a fusion was *due* to the moment its fix is
//!   drained, so producer lateness counts against the system.
//! * **unpaced**: a closed loop that offers the bytes back to back into a
//!   blocking queue; packets per second of wall time is the capacity.
//!
//! Every round is a fresh engine fed a whole input. Each paced round has
//! its own join schedule, and the unpaced rounds after it replay its
//! bytes. Every schedule carries the same per-target packet sequences, so
//! every round attempts the same operations, and the per-target raw fixes
//! must come out bit-identical in all rounds: paced or not, traced or not,
//! whatever the schedule.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use spotfi_channel::Rng;
use spotfi_core::localize::SearchBounds;
use spotfi_core::{
    FleetConfig, FleetEngine, FleetStats, FleetUpdate, OverflowPolicy, PushResult,
    ReceiverCalibration, ReceiverRegistry, SpotFi, SpotFiConfig,
};
use spotfi_io::{encode_frame, from_csi_packet, packet_from_record, WireDecoder, WireEvent};
use spotfi_testbed::fleet::FleetScenarioConfig;
use spotfi_testbed::FleetScenario;

use crate::{median, mix, quantile, span_us, Args, Checks, Digest, Outcome};

/// The producer never sleeps longer than this between looks at the clock
/// and the update channel.
const SLICE: Duration = Duration::from_micros(100);
/// `serve` reads its socket into a 64 KiB buffer; the unpaced replay feeds
/// the decoder in chunks of the same size.
const READ_CHUNK: usize = 64 * 1024;
/// Share of the run spent in the paced phase; the rest is unpaced.
const PACED_SHARE: f64 = 0.85;
/// Set-up is timed this many times before every round and the median over
/// the run reported, so it samples the whole run, not one moment of it.
const SETUPS_PER_ROUND: usize = 8;

/// Target joins are spread uniformly over this window, seconds. It spans
/// several fusion periods, so fusions do not fire in lock-step. With the
/// target count it sets the paced load: light enough that a fix rarely
/// waits behind another target's burst of packets, which would otherwise
/// decide the p90.
const JOIN_WINDOW_S: f64 = 4.8;

/// One serving workload: its name and scenario.
pub struct Workload {
    name: &'static str,
    scenario: FleetScenarioConfig,
}

impl Workload {
    /// Three apartment APs, slow-walking targets, a clean stream.
    pub fn walk() -> Self {
        Workload {
            name: "fleet_walk",
            scenario: FleetScenarioConfig::apartment(48),
        }
    }

    /// The 8-AP perimeter ring: brisker walking, 10% link loss and
    /// ±300 ppm per-AP clock drift.
    pub fn ring8() -> Self {
        Workload {
            name: "fleet_ring8",
            scenario: FleetScenarioConfig {
                aps: 8,
                speed_mps: 1.0,
                loss_rate: 0.1,
                clock_drift_ppm: 300.0,
                seed: 0x8A9_0001,
                ..FleetScenarioConfig::apartment(12)
            },
        }
    }
}

/// One join schedule of the scenario: the wire bytes in arrival order plus
/// what the benchmark needs to pace them and to judge the fixes.
struct Input {
    bytes: Vec<u8>,
    /// Per frame: due time relative to the first frame, and its bytes.
    frames: Vec<(f64, Range<usize>)>,
    /// Capture timestamp of the first frame.
    ts0: f64,
    /// Per target id: the join offset added to its timestamps.
    join: BTreeMap<u64, f64>,
}

/// Staggers target joins from `(seed, schedule)` and encodes the merged
/// arrival order as wire frames. The scenario is fixed, so every seed and
/// schedule carries the same per-target packet sequences.
fn make_input(scenario: &FleetScenario, seed: u64, schedule: u64) -> Input {
    let mut rng = Rng::seed_from_u64(mix(seed, 0x10_1A, schedule));
    let join: BTreeMap<u64, f64> = scenario
        .targets
        .iter()
        .map(|t| (t.target_id, rng.gen_range(0.0..JOIN_WINDOW_S)))
        .collect();
    let mut order: Vec<(f64, usize)> = scenario
        .schedule
        .iter()
        .enumerate()
        .map(|(i, p)| (p.packet.timestamp_s + join[&p.target_id], i))
        .collect();
    order.sort_by(|a, b| {
        let (pa, pb) = (&scenario.schedule[a.1], &scenario.schedule[b.1]);
        a.0.total_cmp(&b.0)
            .then(pa.target_id.cmp(&pb.target_id))
            .then(pa.ap_id.cmp(&pb.ap_id))
    });
    let ts0 = order.first().map_or(0.0, |o| o.0);
    let mut bytes = Vec::new();
    let mut frames = Vec::with_capacity(order.len());
    for (n, &(ts, i)) in order.iter().enumerate() {
        let p = &scenario.schedule[i];
        let record = from_csi_packet(&p.packet, n as u16, 30);
        let start = bytes.len();
        bytes.extend_from_slice(&encode_frame(p.ap_id as u16, p.target_id, ts, &record));
        frames.push((ts - ts0, start..bytes.len()));
    }
    Input {
        bytes,
        frames,
        ts0,
        join,
    }
}

/// Everything the engine needs before it can take its first input.
struct Served {
    spotfi: SpotFi,
    registry: ReceiverRegistry,
    cfg: FleetConfig,
}

fn building_bounds(scenario: &FleetScenario) -> SearchBounds {
    let (min, max) = scenario
        .floorplan
        .bounding_box()
        .expect("the apartment has walls");
    SearchBounds {
        min_x: min.x,
        max_x: max.x,
        min_y: min.y,
        max_y: max.y,
    }
}

/// Builds `SpotFi` (and its steering cache) with `serve`'s configuration,
/// the registry (receiver `i` is AP `i`, identity calibration) and the
/// engine with its one worker.
fn set_up(scenario: &FleetScenario) -> (Served, FleetEngine) {
    let spotfi = SpotFi::new(SpotFiConfig::fast_test());
    let mut registry = ReceiverRegistry::new();
    for (i, ap) in scenario.aps.iter().enumerate() {
        registry.register(i as u32, ap.array, ReceiverCalibration::default());
    }
    let cfg = FleetConfig {
        workers: 1,
        overflow: OverflowPolicy::Block,
        bounds: Some(building_bounds(scenario)),
        ..FleetConfig::default()
    };
    let engine = FleetEngine::new(spotfi.clone(), cfg);
    (
        Served {
            spotfi,
            registry,
            cfg,
        },
        engine,
    )
}

/// Times [`SETUPS_PER_ROUND`] set-ups, each engine shut down unused, and
/// returns the last one's state.
fn time_set_ups(scenario: &FleetScenario, setup_s: &mut Vec<f64>) -> Served {
    let mut served = None;
    for _ in 0..SETUPS_PER_ROUND {
        let t = Instant::now();
        let (s, engine) = set_up(scenario);
        setup_s.push(t.elapsed().as_secs_f64());
        engine.shutdown();
        served = Some(s);
    }
    served.expect("at least one set-up")
}

/// What one replay round produced.
struct Round {
    stats: FleetStats,
    updates: Vec<FleetUpdate>,
    wire: spotfi_io::WireStats,
    unknown_receivers: u64,
    /// Paced: fix latency (due → drained), ms. Unpaced: empty.
    fix_ms: Vec<f64>,
    /// Paced: how late each frame was offered, ms.
    late_ms: Vec<f64>,
    /// Time inside `FleetEngine::ingest`, ns.
    ingest_ns: u64,
    /// Time inside `ingest` calls that had to wait for queue space, ns.
    blocked_ns: u64,
    /// Unpaced: wall time from the first byte to the joined worker.
    wall_s: f64,
}

impl Round {
    fn new(frames: usize) -> Self {
        Round {
            stats: FleetStats::default(),
            updates: Vec::new(),
            wire: Default::default(),
            unknown_receivers: 0,
            fix_ms: Vec::new(),
            late_ms: Vec::with_capacity(frames),
            ingest_ns: 0,
            blocked_ns: 0,
            wall_s: 0.0,
        }
    }

    /// Decodes frames from `chunk` and admits each into the engine.
    fn feed(&mut self, dec: &mut WireDecoder, chunk: &[u8], served: &Served, engine: &FleetEngine) {
        dec.feed(chunk, &mut |e| {
            if let WireEvent::Frame(f) = e {
                let p = packet_from_record(&f.record, f.timestamp_s);
                match served
                    .registry
                    .fleet_packet(f.receiver_id as u32, f.source_id, p)
                {
                    Some(fp) => {
                        let t = Instant::now();
                        let r = engine.ingest(fp);
                        let ns = t.elapsed().as_nanos() as u64;
                        self.ingest_ns += ns;
                        if r == PushResult::AcceptedAfterWait {
                            self.blocked_ns += ns;
                        }
                    }
                    None => self.unknown_receivers += 1,
                }
            }
        });
    }
}

fn paced_round(served: &Served, input: &Input) -> Round {
    let mut round = Round::new(input.frames.len());
    let engine = FleetEngine::new(served.spotfi.clone(), served.cfg);
    let mut dec = WireDecoder::new();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |offset_s: f64| start + Duration::from_secs_f64(offset_s.max(0.0));
    let drain = |engine: &FleetEngine, round: &mut Round| {
        let updates = engine.try_updates();
        if updates.is_empty() {
            return;
        }
        let now = Instant::now();
        for u in updates {
            let lat = now.saturating_duration_since(due(u.time_s - input.ts0));
            round.fix_ms.push(lat.as_secs_f64() * 1e3);
            round.updates.push(u);
        }
    };
    for (offset, range) in &input.frames {
        let at = due(*offset);
        loop {
            drain(&engine, &mut round);
            let now = Instant::now();
            if now >= at {
                round.late_ms.push((now - at).as_secs_f64() * 1e3);
                break;
            }
            std::thread::sleep((at - now).min(SLICE));
        }
        round.feed(&mut dec, &input.bytes[range.clone()], served, &engine);
        drain(&engine, &mut round);
    }
    dec.finish(&mut |_| {});
    // Wait for the worker to finish what it accepted, still draining fixes
    // as they come so their latency is measured, not the shutdown's.
    loop {
        drain(&engine, &mut round);
        let s = engine.stats();
        if s.processed == s.accepted && s.updates == round.updates.len() as u64 {
            break;
        }
        std::thread::sleep(SLICE);
    }
    let report = engine.shutdown();
    round.stats = report.stats;
    round.updates.extend(report.updates);
    round.wire = dec.stats();
    round
}

fn unpaced_round(served: &Served, input: &Input) -> Round {
    let mut round = Round::new(0);
    let engine = FleetEngine::new(served.spotfi.clone(), served.cfg);
    let mut dec = WireDecoder::new();
    let start = Instant::now();
    for chunk in input.bytes.chunks(READ_CHUNK) {
        round.feed(&mut dec, chunk, served, &engine);
        round.updates.extend(engine.try_updates());
    }
    dec.finish(&mut |_| {});
    let report = engine.shutdown();
    round.wall_s = start.elapsed().as_secs_f64();
    round.stats = report.stats;
    round.updates.extend(report.updates);
    round.wire = dec.stats();
    round
}

/// Per-target fixes in emission order, hashed bit for bit: the raw fix
/// only, or with the fix time and the tracked position, which follow the
/// schedule's timestamps.
fn fix_digest(updates: &[FleetUpdate], with_time: bool) -> String {
    let mut by_target: BTreeMap<u64, Vec<&FleetUpdate>> = BTreeMap::new();
    for u in updates {
        by_target.entry(u.target_id).or_default().push(u);
    }
    let mut d = Digest::default();
    for (t, us) in by_target {
        d.u64(t);
        for u in us {
            d.f64(u.raw.position.x);
            d.f64(u.raw.position.y);
            d.u64(u.aps_used as u64);
            d.u64(u.degraded as u64);
            if with_time {
                d.f64(u.time_s);
                d.f64(u.tracked.x);
                d.f64(u.tracked.y);
            }
        }
    }
    d.hex()
}

/// The accounting and geometry every round must satisfy.
fn check_round(checks: &mut Checks, kind: &str, r: &Round, input: &Input, bounds: SearchBounds) {
    let (w, s) = (&r.wire, &r.stats);
    let frames = input.frames.len() as u64;
    checks.require(w.decoded == frames, || {
        format!("{kind}: decoded {} of {frames} frames", w.decoded)
    });
    checks.require(
        w.received == w.decoded + w.corrupt + w.incomplete && w.corrupt == 0 && w.incomplete == 0,
        || {
            format!(
                "{kind}: wire received {} != decoded {} + corrupt {} + incomplete {}",
                w.received, w.decoded, w.corrupt, w.incomplete
            )
        },
    );
    checks.require(r.unknown_receivers == 0, || {
        format!(
            "{kind}: {} frames from unknown receivers",
            r.unknown_receivers
        )
    });
    checks.require(
        s.ingested == s.accepted + s.dropped && s.dropped == 0 && s.ingested == frames,
        || {
            format!(
                "{kind}: ingested {} != accepted {} + dropped {} (frames {frames})",
                s.ingested, s.accepted, s.dropped
            )
        },
    );
    checks.require(s.accepted == s.processed, || {
        format!(
            "{kind}: accepted {} != processed {}",
            s.accepted, s.processed
        )
    });
    checks.require(
        s.fusions == s.updates + s.fusion_no_fix && s.updates == r.updates.len() as u64,
        || {
            format!(
                "{kind}: fusions {} != updates {} + no-fix {} (drained {})",
                s.fusions,
                s.updates,
                s.fusion_no_fix,
                r.updates.len()
            )
        },
    );
    let eps = 1e-9;
    let outside = r
        .updates
        .iter()
        .filter(|u| {
            let p = u.raw.position;
            !(p.x >= bounds.min_x - eps
                && p.x <= bounds.max_x + eps
                && p.y >= bounds.min_y - eps
                && p.y <= bounds.max_y + eps)
        })
        .count();
    checks.require(outside == 0, || {
        format!("{kind}: {outside} fixes outside the floorplan's bounding box")
    });
}

pub fn run(w: &Workload, args: &Args) -> Outcome {
    let scenario = FleetScenario::generate(&w.scenario);
    // The run alternates paced rounds with stretches of unpaced rounds, so
    // both phases sample the whole run instead of one end of it: host speed
    // drifts over tens of seconds. Each paced round gets its own join
    // schedule, so a run samples several schedules instead of one. A paced
    // round lasts at most the join window plus one target's capture and
    // start offset, so the number of paced rounds depends only on the
    // workload and `--seconds`, never on the seed or host speed.
    let trace = &w.scenario.trace;
    let round_s =
        JOIN_WINDOW_S + (w.scenario.packets_per_link as f64 + 1.0) * trace.packet_interval_s;
    let paced_rounds = ((args.seconds * PACED_SHARE) / round_s).floor().max(2.0) as usize;
    let stretch_s = (args.seconds - paced_rounds as f64 * round_s).max(0.0) / paced_rounds as f64;
    let inputs: Vec<Input> = (0..paced_rounds)
        .map(|r| make_input(&scenario, args.seed, r as u64))
        .collect();
    let span_s = inputs[0].frames.last().map_or(0.0, |f| f.0);
    let mut digest = Digest::default();
    for input in &inputs {
        digest.bytes(&input.bytes);
    }
    let frames = inputs[0].frames.len();
    println!(
        "{}: {} targets x {} APs, {} frames per round, {} paced rounds with joins over {:.1} s, \
         each spanning about {:.2} s of capture",
        w.name,
        scenario.targets.len(),
        scenario.aps.len(),
        frames,
        paced_rounds,
        JOIN_WINDOW_S,
        span_s,
    );
    println!(
        "input digest (fnv1a-64 of every round's wire bytes): {}",
        digest.hex()
    );

    let heap_base = crate::heap_baseline();
    let mut setup_s = Vec::new();
    let served = time_set_ups(&scenario, &mut setup_s);
    let bounds = building_bounds(&scenario);

    let mut checks = Checks::default();
    let mut layer = LayerTimes::default();
    if args.trace {
        spotfi_obs::set_enabled(true);
        layer.decode_admit(&served, &inputs[0]);
        spotfi_obs::set_enabled(false);
        spotfi_obs::reset();
    }

    // Raw fixes must match across every round; fix times and tracked
    // positions across the rounds that replay the same schedule.
    let mut raw_reference: Option<String> = None;
    let mut compare = |checks: &mut Checks,
                       kind: &str,
                       r: &Round,
                       same_schedule: &mut Option<String>| {
        for (reference, with_time) in [(&mut raw_reference, false), (same_schedule, true)] {
            let d = fix_digest(&r.updates, with_time);
            match reference {
                None => *reference = Some(d),
                Some(want) => checks.require(*want == d, || {
                    format!("{kind}: per-target fixes differ from an earlier round ({d} vs {want})")
                }),
            }
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut round_p50, mut round_p90) = (Vec::new(), Vec::new());
    let (mut fix_ms, mut late_ms, mut errs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_max, mut ingest_ns, mut ingested) = (0u64, 0u64, 0u64);
    let (mut rates, mut traced_rates, mut blocked_s) = (Vec::new(), Vec::new(), Vec::new());
    // Heap peak per schedule: its set-ups, its paced round and the unpaced
    // rounds that replay it. How many targets already hold stream state
    // while the queue is full depends on the join order, so one schedule's
    // peak differs from another's by up to 14% on `fleet_ring8`; the
    // median over the run's schedules is steadier than their maximum.
    let mut heap_peaks = Vec::with_capacity(inputs.len());
    for (cycle, input) in inputs.iter().enumerate() {
        let mut schedule_reference = None;
        crate::reset_heap_peak();
        let served = time_set_ups(&scenario, &mut setup_s);
        let r = paced_round(&served, input);
        check_round(&mut checks, "paced", &r, input, bounds);
        compare(&mut checks, "paced", &r, &mut schedule_reference);
        attempted += r.stats.ingested + r.stats.fusions;
        failed += r.stats.stream_errors + r.stats.fusion_no_fix;
        fix_ms.extend_from_slice(&r.fix_ms);
        late_ms.extend_from_slice(&r.late_ms);
        queue_max = queue_max.max(r.stats.max_queue_depth);
        ingest_ns += r.ingest_ns;
        ingested += r.stats.ingested;
        let mut f = r.fix_ms.clone();
        round_p50.push(quantile(&mut f, 0.5));
        round_p90.push(quantile(&mut f, 0.9));
        if cycle == 0 {
            println!(
                "paced round: {} fixes, {} stream errors, {} no-fix fusions",
                r.updates.len(),
                r.stats.stream_errors,
                r.stats.fusion_no_fix
            );
            for u in &r.updates {
                let truth = scenario
                    .truth_at(u.target_id, u.time_s - input.join[&u.target_id])
                    .expect("every fix belongs to a generated target");
                errs.push(u.tracked.distance(truth));
            }
        }

        // Unpaced stretch: at least two rounds; traced runs alternate an
        // untraced and a traced round so the recorder's cost is measured
        // on the same inputs, and end each stretch on a traced one.
        let stretch = Instant::now();
        let mut k = 0usize;
        while k < 2 || stretch.elapsed().as_secs_f64() < stretch_s || (args.trace && k % 2 == 1) {
            let traced = args.trace && k % 2 == 1;
            let served = time_set_ups(&scenario, &mut setup_s);
            spotfi_obs::set_enabled(traced);
            let r = unpaced_round(&served, input);
            spotfi_obs::set_enabled(false);
            check_round(&mut checks, "unpaced", &r, input, bounds);
            compare(
                &mut checks,
                if traced { "unpaced traced" } else { "unpaced" },
                &r,
                &mut schedule_reference,
            );
            attempted += r.stats.ingested + r.stats.fusions;
            failed += r.stats.stream_errors + r.stats.fusion_no_fix;
            let rate = r.stats.processed as f64 / r.wall_s;
            if traced {
                traced_rates.push(rate);
                blocked_s.push(r.blocked_ns as f64 / 1e9);
            } else {
                rates.push(rate);
            }
            k += 1;
        }
        heap_peaks.push(crate::peak_heap_mb(heap_base));
    }
    let capacity = median(&rates);
    let late_p99 = quantile(&mut late_ms, 0.99);
    println!(
        "unpaced rounds (packets/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "paced producer: {} frames in {} rounds, late p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        late_ms.len(),
        paced_rounds,
        quantile(&mut late_ms, 0.5),
        late_p99,
        quantile(&mut late_ms, 1.0)
    );
    let offered_pps = frames as f64 / span_s.max(1e-9);
    println!(
        "offered load {:.0} packets/s on average = {:.1}% of the measured capacity {:.0} packets/s; \
         max queue depth {queue_max}",
        offered_pps,
        100.0 * offered_pps / capacity,
        capacity,
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "fixes: {} over {paced_rounds} paced rounds, p50 {:.3} ms, p90 {:.3} ms (per round: p50 [{}], \
         p90 [{}] ms); tracked error p50 {:.3} m, p90 {:.3} m",
        fix_ms.len(),
        quantile(&mut fix_ms, 0.5),
        quantile(&mut fix_ms, 0.9),
        fmt(&round_p50),
        fmt(&round_p90),
        quantile(&mut errs, 0.5),
        quantile(&mut errs, 0.9),
    );
    let beyond_p90 = fix_ms.len() - (0.9 * fix_ms.len() as f64).ceil() as usize;
    checks.require(beyond_p90 >= 10, || {
        format!("only {beyond_p90} fixes lie beyond fix p90; the run is too short")
    });
    println!(
        "operations: {attempted} attempted (packets offered + fusions), {failed} failed \
         (warm-start packets dropped as NoPaths)"
    );

    let metrics = if args.trace {
        let snap = spotfi_obs::snapshot();
        checks.require(
            snap.counter_total("pipeline.packets_no_paths")
                == snap.counter_total("fleet.stream_errors"),
            || {
                format!(
                    "stream errors {} are not all NoPaths ({})",
                    snap.counter_total("fleet.stream_errors"),
                    snap.counter_total("pipeline.packets_no_paths")
                )
            },
        );
        layer.fleet_ingest_us = ingest_ns as f64 / 1e3 / ingested.max(1) as f64;
        layer.blocked_s = median(&blocked_s);
        layer.queue_max = queue_max as f64;
        layer.late_p99_ms = late_p99;
        layer.overhead = capacity / median(&traced_rates);
        let mut m = layer.per_layer(&snap, traced_rates.len());
        m.push(("fix_p90_ms", quantile(&mut fix_ms, 0.9)));
        m
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("capacity_pps", capacity),
            ("fix_p50_ms", quantile(&mut fix_ms, 0.5)),
            ("err_p50_m", quantile(&mut errs, 0.5)),
            ("err_p90_m", quantile(&mut errs, 0.9)),
            ("peak_heap_mb", median(&heap_peaks)),
        ]
    };
    Outcome {
        failures: checks.0,
        attempted,
        failed,
        metrics,
    }
}

/// Caller-side layer timings the benchmark takes itself, plus the
/// assembly of every per-layer metric from the recorder's snapshot.
#[derive(Default)]
struct LayerTimes {
    decode_us: f64,
    admit_us: f64,
    fleet_ingest_us: f64,
    blocked_s: f64,
    queue_max: f64,
    late_p99_ms: f64,
    overhead: f64,
}

impl LayerTimes {
    /// Times decoding (`io.wire` + `io.convert`) and registry admission
    /// (`core.ingest`) of the whole input on their own, five times each.
    fn decode_admit(&mut self, served: &Served, input: &Input) {
        let frames = input.frames.len() as f64;
        let mut decode = Vec::new();
        let mut admit = Vec::new();
        for _ in 0..5 {
            let mut dec = WireDecoder::new();
            let mut decoded = Vec::with_capacity(input.frames.len());
            let t = Instant::now();
            for chunk in input.bytes.chunks(READ_CHUNK) {
                dec.feed(chunk, &mut |e| {
                    if let WireEvent::Frame(f) = e {
                        let p = packet_from_record(&f.record, f.timestamp_s);
                        decoded.push((f.receiver_id as u32, f.source_id, p));
                    }
                });
            }
            dec.finish(&mut |_| {});
            decode.push(t.elapsed().as_secs_f64() * 1e6 / frames);
            let t = Instant::now();
            let admitted: Vec<_> = decoded
                .into_iter()
                .map(|(rx, src, p)| served.registry.fleet_packet(rx, src, p))
                .collect();
            admit.push(t.elapsed().as_secs_f64() * 1e6 / frames);
            std::hint::black_box(admitted);
        }
        self.decode_us = median(&decode);
        self.admit_us = median(&admit);
    }

    fn per_layer(&self, snap: &spotfi_obs::Snapshot, rounds: usize) -> Vec<(&'static str, f64)> {
        let count = |name: &str| snap.counter_total(name) as f64;
        let per_round = |name: &str| count(name) / rounds.max(1) as f64;
        let packets = count("stream.packets");
        let fusions = count("fleet.fusions");
        let stream = |name: &str| span_us(snap, name, packets);
        let children = [
            "stage.sanitize",
            "stage.smooth",
            "stage.track",
            "stage.eigen",
            "stage.sweep",
        ];
        let packet_us = stream("stream.packet");
        let child_us: f64 = children.iter().map(|c| stream(c)).sum();
        let fuse_us = span_us(snap, "stage.fuse", fusions);
        let fuse_children: f64 = ["stage.cluster", "stage.likelihood", "stage.localize"]
            .iter()
            .map(|c| span_us(snap, c, fusions))
            .sum();
        println!(
            "stage ledger per streamed packet ({packets} packets over {rounds} traced rounds):"
        );
        println!("  stream.packet {packet_us:.2} us");
        for c in children {
            println!(
                "    {c:<15} {:8.2} us {:5.1}%",
                stream(c),
                100.0 * stream(c) / packet_us
            );
        }
        println!(
            "    unaccounted     {:8.2} us {:5.1}%",
            packet_us - child_us,
            100.0 * (packet_us - child_us) / packet_us
        );
        println!("stage ledger per fusion ({fusions} fusions):");
        println!("  stage.fuse {fuse_us:.2} us");
        for c in ["stage.cluster", "stage.likelihood", "stage.localize"] {
            let v = span_us(snap, c, fusions);
            println!("    {c:<16} {v:8.2} us {:5.1}%", 100.0 * v / fuse_us);
        }
        println!(
            "    unaccounted      {:8.2} us {:5.1}%",
            fuse_us - fuse_children,
            100.0 * (fuse_us - fuse_children) / fuse_us
        );
        let per_packet_total = packet_us + fuse_us * fusions / packets.max(1.0);
        println!(
            "  per packet: stream {:.1}% + fusion {:.1}% of {:.2} us of worker compute",
            100.0 * packet_us / per_packet_total,
            100.0 * (per_packet_total - packet_us) / per_packet_total,
            per_packet_total
        );
        let memo = count("music.tau_memo_hits") + count("music.tau_memo_misses");
        vec![
            ("wire.decode_us_per_frame", self.decode_us),
            ("ingest.admit_us_per_pkt", self.admit_us),
            ("fleet.ingest_us_per_pkt", self.fleet_ingest_us),
            ("fleet.producer_blocked_s", self.blocked_s),
            ("fleet.queue_depth_max", self.queue_max),
            ("gen.late_p99_ms", self.late_p99_ms),
            ("stream.packet_us", packet_us),
            ("stream.sanitize_us", stream("stage.sanitize")),
            ("stream.smooth_us", stream("stage.smooth")),
            ("stream.track_us", stream("stage.track")),
            ("stream.eigen_us", stream("stage.eigen")),
            ("stream.sweep_us", stream("stage.sweep")),
            ("stream.self_us", packet_us - child_us),
            (
                "stream.warm_hit_ratio",
                count("stream.warmstart_hit") / packets.max(1.0),
            ),
            ("stream.anchors", per_round("stream.anchor")),
            ("stream.fallbacks", per_round("stream.tracker_fallback")),
            ("stream.no_paths", per_round("pipeline.packets_no_paths")),
            (
                "music.hill_climb_steps",
                count("music.hill_climb_steps") / packets.max(1.0),
            ),
            (
                "music.tau_memo_hit_ratio",
                count("music.tau_memo_hits") / memo.max(1.0),
            ),
            ("eigen.batch_solves", per_round("eigen.batch_solves")),
            ("eigen.calls", per_round("eigen.calls")),
            ("fuse.us_per_fix", fuse_us),
            ("fuse.cluster_us", span_us(snap, "stage.cluster", fusions)),
            ("fuse.localize_us", span_us(snap, "stage.localize", fusions)),
            (
                "localize.grid_evals_per_fix",
                count("localize.grid_evals") / count("localize.solves").max(1.0),
            ),
            ("obs.overhead_ratio", self.overhead),
        ]
    }
}
