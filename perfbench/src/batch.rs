//! The paper's one-shot localization (§4.3): office, NLoS and corridor
//! deployments, 10 packets per audible AP, default full-resolution grids,
//! one fix at a time on one thread. Each fix is `SpotFi::analyze_all`
//! followed by `localize::localize_in_bounds` — the body of
//! `SpotFi::localize_in_bounds`, split so the traced run can time the two
//! halves and the benchmark can judge each AP's direct path.
//!
//! A round is every target of the three deployments, traced afresh from a
//! sub-seed of `--seed` and the round index. A run generates [`ROUNDS`]
//! rounds up front and cycles through them until its time is up, so the
//! accuracy figures come from a fixed set of fixes and later passes must
//! reproduce the first pass's fixes bit for bit.

use std::time::Instant;

use spotfi_channel::{AntennaArray, Point};
use spotfi_core::localize::{localize_in_bounds, SearchBounds};
use spotfi_core::{ApMeasurement, ApPackets, RuntimeConfig, SpotFi, SpotFiConfig};
use spotfi_testbed::runner::audible_traces;
use spotfi_testbed::{Deployment, RunnerConfig, Scenario};

use crate::{median, mix, quantile, span_us, Args, Checks, Digest, Outcome};

/// Distinct rounds generated per run.
const ROUNDS: usize = 8;
/// Set-up is timed this many times before every round and the median over
/// the run reported, so it samples the whole run, not one moment of it.
const SETUPS_PER_ROUND: usize = 8;
/// Physical sanity limits on accuracy (see README): a working SpotFi
/// resolves the direct path to a few degrees and the position to about a
/// metre; these limits only catch a pipeline that has stopped working.
const AOA_MEDIAN_LIMIT_DEG: f64 = 15.0;
const ERR_MEDIAN_LIMIT_M: f64 = 3.0;

struct Fix {
    truth: Point,
    aps: Vec<ApPackets>,
    bounds: SearchBounds,
    packets: usize,
}

/// The paper harness's search box (`Runner::search_bounds` in
/// spotfi-testbed): `SearchBounds::around_aps` over every audible AP,
/// clamped to the building outline.
fn search_bounds(aps: &[ApPackets], margin: f64, outline: (Point, Point)) -> SearchBounds {
    let at: Vec<ApMeasurement> = aps
        .iter()
        .map(|a| ApMeasurement {
            array: a.array,
            direct_aoa_deg: 0.0,
            likelihood: 1.0,
            rssi_dbm: 0.0,
        })
        .collect();
    let b = SearchBounds::around_aps(&at, margin);
    SearchBounds {
        min_x: b.min_x.max(outline.0.x),
        max_x: b.max_x.min(outline.1.x),
        min_y: b.min_y.max(outline.0.y),
        max_y: b.max_y.min(outline.1.y),
    }
}

/// The direct path's AoA at `array` for a source at `truth`, degrees,
/// from the array's pose alone: the sine of the bearing against the array
/// axis (the normal turned −90°), folded into the front half-plane.
fn bearing_deg(array: &AntennaArray, truth: Point) -> f64 {
    let (dx, dy) = (array.position.x - truth.x, array.position.y - truth.y);
    let axis = array.normal_angle - std::f64::consts::FRAC_PI_2;
    let sin = (dx * axis.cos() + dy * axis.sin()) / dx.hypot(dy);
    sin.clamp(-1.0, 1.0).asin().to_degrees()
}

fn make_rounds(seed: u64, digest: &mut Digest) -> (Vec<Vec<Fix>>, (Point, Point)) {
    let deployment = Deployment::standard();
    let outline = deployment
        .floorplan
        .bounding_box()
        .expect("the deployment has walls");
    let runner = RunnerConfig::default();
    let margin = runner.spotfi.localize.search_margin_m;
    let base = [
        Scenario::office(&deployment),
        Scenario::nlos(&deployment),
        Scenario::corridor(&deployment),
    ];
    let rounds = (0..ROUNDS)
        .map(|r| {
            let mut fixes = Vec::new();
            for (s, scenario) in base.iter().enumerate() {
                let scenario = Scenario {
                    seed: mix(seed, s as u64, r as u64),
                    ..scenario.clone()
                };
                for (t, target) in scenario.targets.iter().enumerate() {
                    let aps: Vec<ApPackets> = audible_traces(&scenario, &runner, t)
                        .into_iter()
                        .map(|(_, ap, trace)| ApPackets {
                            array: ap.array,
                            packets: trace.packets,
                        })
                        .collect();
                    for ap in &aps {
                        for p in &ap.packets {
                            for z in p.csi.as_slice() {
                                digest.f64(z.re);
                                digest.f64(z.im);
                            }
                            digest.f64(p.rssi_dbm);
                        }
                    }
                    let packets = aps.iter().map(|a| a.packets.len()).sum();
                    fixes.push(Fix {
                        truth: target.position,
                        bounds: search_bounds(&aps, margin, outline),
                        aps,
                        packets,
                    });
                }
            }
            fixes
        })
        .collect();
    (rounds, outline)
}

pub fn run(args: &Args) -> Outcome {
    let mut digest = Digest::default();
    let (rounds, outline) = make_rounds(args.seed, &mut digest);
    let per_round: usize = rounds[0].len();
    let packets_per_round: Vec<usize> = rounds
        .iter()
        .map(|r| r.iter().map(|f| f.packets).sum())
        .collect();
    println!(
        "batch_paper: {ROUNDS} rounds of {per_round} fixes (office, nlos, corridor), \
         {packets_per_round:?} packets per round"
    );
    println!(
        "input digest (fnv1a-64 of the CSI and RSSI bits): {}",
        digest.hex()
    );

    let heap_base = crate::heap_baseline();
    let cfg = SpotFiConfig {
        runtime: RuntimeConfig::with_threads(1),
        ..SpotFiConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let mut spotfi = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let s = SpotFi::new(cfg.clone());
            setup_s.push(t.elapsed().as_secs_f64());
            spotfi = Some(s);
        }
        spotfi.expect("at least one set-up")
    };

    let mut checks = Checks::default();
    let mut first_pass: Vec<Vec<Option<(u64, u64)>>> = vec![Vec::new(); ROUNDS];
    let mut fix_ms = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut errs = Vec::new();
    let mut aoa_errs = Vec::new();
    let (mut analyze_ns, mut localize_ns, mut traced_fixes, mut traced_packets) =
        (0u128, 0u128, 0usize, 0usize);
    let mut traced_rounds = 0usize;
    let (mut attempted, mut failed) = (0u64, 0u64);
    if args.trace {
        spotfi_obs::reset();
    }
    let start = Instant::now();
    let mut n = 0usize;
    while n < ROUNDS || start.elapsed().as_secs_f64() < args.seconds || (args.trace && n % 2 == 1) {
        let r = n % ROUNDS;
        let traced = args.trace && n % 2 == 1;
        let spotfi = set_up();
        spotfi_obs::set_enabled(traced);
        let t_round = Instant::now();
        for (i, fix) in rounds[r].iter().enumerate() {
            let t0 = Instant::now();
            let analyses = spotfi.analyze_all(&fix.aps);
            let t1 = Instant::now();
            let est = analyses.as_ref().ok().and_then(|a| {
                let m: Vec<ApMeasurement> = a.iter().filter_map(|x| x.to_measurement()).collect();
                localize_in_bounds(&m, fix.bounds, &spotfi.config().localize).ok()
            });
            let t2 = Instant::now();
            attempted += 1;
            if !traced {
                fix_ms.push((t2 - t0).as_secs_f64() * 1e3);
            } else {
                analyze_ns += (t1 - t0).as_nanos();
                localize_ns += (t2 - t1).as_nanos();
                traced_fixes += 1;
                traced_packets += fix.packets;
            }
            let bits = est.map(|e| (e.position.x.to_bits(), e.position.y.to_bits()));
            if n >= ROUNDS {
                checks.require(first_pass[r].get(i) == Some(&bits), || {
                    format!("round {r} fix {i}: differs from its first pass")
                });
            } else {
                first_pass[r].push(bits);
            }
            let Some(est) = est else {
                failed += 1;
                continue;
            };
            let p = est.position;
            checks.require(
                p.x >= outline.0.x
                    && p.x <= outline.1.x
                    && p.y >= outline.0.y
                    && p.y <= outline.1.y,
                || {
                    format!(
                        "round {r} fix {i}: ({:.2}, {:.2}) outside the floorplan",
                        p.x, p.y
                    )
                },
            );
            if n < ROUNDS {
                errs.push(p.distance(fix.truth));
                for a in analyses.iter().flatten() {
                    if let Some(d) = a.direct {
                        let err = (d.aoa_deg - bearing_deg(&a.array, fix.truth)).abs();
                        aoa_errs.push(err);
                    }
                }
            }
        }
        spotfi_obs::set_enabled(false);
        let rate = packets_per_round[r] as f64 / t_round.elapsed().as_secs_f64();
        if traced {
            traced_rates.push(rate);
            traced_rounds += 1;
        } else {
            rates.push(rate);
        }
        n += 1;
    }
    println!(
        "rounds (packets/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let aoa_median = median(&aoa_errs);
    let err_median = median(&errs);
    println!(
        "{n} rounds run; {} fixes timed, {attempted} attempted, {failed} failed",
        fix_ms.len()
    );
    println!(
        "accuracy over {} fixes: position error p50 {:.3} m, p90 {:.3} m; direct-path AoA error \
         p50 {:.2} deg over {} links (limits {ERR_MEDIAN_LIMIT_M} m, {AOA_MEDIAN_LIMIT_DEG} deg)",
        errs.len(),
        err_median,
        quantile(&mut errs, 0.9),
        aoa_median,
        aoa_errs.len()
    );
    checks.require(aoa_median < AOA_MEDIAN_LIMIT_DEG, || {
        format!("median direct-path AoA error {aoa_median:.2} deg over the {AOA_MEDIAN_LIMIT_DEG} deg limit")
    });
    checks.require(err_median < ERR_MEDIAN_LIMIT_M, || {
        format!("median position error {err_median:.3} m over the {ERR_MEDIAN_LIMIT_M} m limit")
    });
    let beyond_p90 = fix_ms.len() - (0.9 * fix_ms.len() as f64).ceil() as usize;
    checks.require(beyond_p90 >= 10, || {
        format!("only {beyond_p90} fixes lie beyond fix p90; the run is too short")
    });

    let metrics = if args.trace {
        let snap = spotfi_obs::snapshot();
        let per_fix = |ns: u128| ns as f64 / 1e6 / traced_fixes.max(1) as f64;
        let pkts = traced_packets as f64;
        let count = |name: &str| snap.counter_total(name) as f64;
        let per_round = |name: &str| count(name) / traced_rounds.max(1) as f64;
        let analyze_ms = per_fix(analyze_ns);
        let stages = [
            "stage.sanitize",
            "stage.smooth",
            "stage.eigen_batch",
            "stage.sweep",
            "stage.cluster",
            "stage.likelihood",
        ];
        let fixes = traced_fixes.max(1) as f64;
        println!("stage ledger per fix ({traced_fixes} fixes over {traced_rounds} traced rounds):");
        println!(
            "  fix {:.3} ms = analyze_all {:.3} ms + localize_in_bounds {:.3} ms",
            analyze_ms + per_fix(localize_ns),
            analyze_ms,
            per_fix(localize_ns)
        );
        let mut covered = 0.0;
        for s in stages {
            let ms = span_us(&snap, s, fixes) / 1e3;
            covered += ms;
            println!("    {s:<17} {ms:8.3} ms {:5.1}%", 100.0 * ms / analyze_ms);
        }
        println!(
            "    unaccounted       {:8.3} ms {:5.1}% of analyze_all",
            analyze_ms - covered,
            100.0 * (analyze_ms - covered) / analyze_ms
        );
        let memo = count("music.tau_memo_hits") + count("music.tau_memo_misses");
        vec![
            (
                "music.hill_climb_steps",
                count("music.hill_climb_steps") / pkts.max(1.0),
            ),
            (
                "music.tau_memo_hit_ratio",
                count("music.tau_memo_hits") / memo.max(1.0),
            ),
            ("eigen.batch_solves", per_round("eigen.batch_solves")),
            (
                "batch.eigen_batch_us",
                span_us(&snap, "stage.eigen_batch", pkts),
            ),
            ("eigen.calls", per_round("eigen.calls")),
            (
                "localize.grid_evals_per_fix",
                count("localize.grid_evals") / count("localize.solves").max(1.0),
            ),
            ("batch.analyze_ms", analyze_ms),
            ("batch.sweep_us", span_us(&snap, "stage.sweep", pkts)),
            ("batch.localize_ms", per_fix(localize_ns)),
            ("obs.overhead_ratio", median(&rates) / median(&traced_rates)),
            ("fix_p90_ms", quantile(&mut fix_ms, 0.9)),
        ]
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("capacity_pps", median(&rates)),
            ("fix_p50_ms", quantile(&mut fix_ms, 0.5)),
            ("err_p50_m", quantile(&mut errs, 0.5)),
            ("err_p90_m", quantile(&mut errs, 0.9)),
            ("peak_heap_mb", crate::peak_heap_mb(heap_base)),
        ]
    };
    Outcome {
        failures: checks.0,
        attempted,
        failed,
        metrics,
    }
}
