//! `sim-paper`: the in-process simulator in the paper's Fig. 8 setting.
//!
//! Sessions stream the Jurassic Park GOP-12 trace through the netsim
//! Gilbert–Elliott channel (`P_bad` 0.6) with adaptive spread ordering in
//! 24-frame windows. Set-up warms up on three window sizes, so `b̂`
//! adaptation meets fresh `(n, b)` order-cache keys as well as warm ones.
//! No socket, `net` or `fec` code runs.

use std::time::Instant;

use espread_protocol::{Ordering, ProtocolConfig, Session, StreamSource};
use espread_trace::{Movie, MpegTrace};

use crate::spans::SpanLog;
use crate::tally::{ratio, Tally, TelemDelta};
use crate::{derive_seed, procfs, Opts, Outcome, SETUP_REPS};

/// Window size of the measured sessions and the matched check, in GOPs
/// of 12 frames. Every measured session has the same shape, so session
/// times form one population and the tail is a tail.
const GOPS_PER_WINDOW: usize = 2;
/// Window sizes of the warm-up sessions, in GOPs.
const WARMUP_GOPS_PER_WINDOW: [usize; 3] = [1, 2, 3];
/// Windows per measured session: long enough that a 45 s run holds about
/// 60 sessions, so the tail is p75 and a short slow spell of a shared
/// host cannot move it.
const WINDOWS_PER_SESSION: usize = 45_000;
/// Windows per warm-up session, and of the matched check.
const SHORT_WINDOWS: usize = 200;
/// The paper's Fig. 8 bad-state loss probability.
const P_BAD: f64 = 0.6;
/// Seed stream offsets, so warm-up, measured and check sessions never
/// share a channel realisation.
const WARMUP_STREAM: u64 = 1 << 40;
const CHECK_STREAM: u64 = 2 << 40;

struct Rig {
    /// The measured sessions' source.
    source: StreamSource,
    /// Short warm-up sources, one per warm-up window size.
    warmup: Vec<StreamSource>,
    /// The matched check's source.
    check: StreamSource,
}

fn build() -> Rig {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    Rig {
        source: StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS_PER_SESSION, false),
        warmup: WARMUP_GOPS_PER_WINDOW
            .iter()
            .map(|&g| StreamSource::mpeg(&trace, g, SHORT_WINDOWS, false))
            .collect(),
        check: StreamSource::mpeg(&trace, GOPS_PER_WINDOW, SHORT_WINDOWS, false),
    }
}

/// Builds the trace and sources and runs one short warm-up session per
/// window size, [`SETUP_REPS`] times; returns the last rig.
fn setup(opts: &Opts, out: &mut Outcome) -> Rig {
    let mut rig = None;
    for rep in 0..SETUP_REPS as u64 {
        let t0 = Instant::now();
        let built = build();
        let t1 = Instant::now();
        for (k, source) in built.warmup.iter().enumerate() {
            let cfg = ProtocolConfig::paper(
                P_BAD,
                derive_seed(opts.seed, WARMUP_STREAM + rep * 8 + k as u64),
            );
            Session::new(cfg, source.clone()).run();
        }
        let t2 = Instant::now();
        let root = out.spans.record("setup", rep, None, t0, t2);
        out.spans
            .record("trace.source_build", rep, Some(root), t0, t1);
        out.spans.record("warmup", rep, Some(root), t1, t2);
        rig = Some(built);
    }
    rig.expect("at least one set-up repetition")
}

/// Runs sessions back to back for `seconds`, numbering them from `*next`.
fn pass(
    rig: &Rig,
    opts: &Opts,
    seconds: f64,
    next: &mut u64,
    spans: Option<&mut SpanLog>,
) -> Tally {
    let mut tally = Tally::default();
    let mut spans = spans;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let i = *next;
        *next += 1;
        let source = &rig.source;
        let session = Session::new(
            ProtocolConfig::paper(P_BAD, derive_seed(opts.seed, i)),
            source.clone(),
        );
        let cpu0 = procfs::thread_cpu_ns();
        let t0 = Instant::now();
        let report = session.run();
        let t1 = Instant::now();
        let cpu_ns = procfs::cpu_ns_between(&cpu0, &procfs::thread_cpu_ns());
        if let Some(log) = spans.as_deref_mut() {
            log.record("session.run", i, None, t0, t1);
        }
        tally.check(report.series.len() == source.window_count(), || {
            format!(
                "session {i}: {} of {} windows",
                report.series.len(),
                source.window_count()
            )
        });
        tally.completed(
            (t1 - t0).as_secs_f64(),
            &report.series,
            &report.patterns,
            &source.windows,
        );
        tally.cpu(cpu_ns, report.packets_offered - report.packets_lost);
    }
    tally
}

/// Spread must not do worse than in-order on one matched realisation.
fn matched_check(rig: &Rig, opts: &Opts, out: &mut Outcome) {
    let source = rig.check.clone();
    let cfg = ProtocolConfig::paper(P_BAD, derive_seed(opts.seed, CHECK_STREAM));
    let spread = Session::new(cfg.clone(), source.clone())
        .run()
        .summary()
        .mean_clf;
    let in_order = Session::new(cfg.with_ordering(Ordering::InOrder), source)
        .run()
        .summary()
        .mean_clf;
    out.note(format!(
        "matched realisation ({SHORT_WINDOWS} windows of {} frames): spread mean CLF {spread:.4}, in-order {in_order:.4}",
        GOPS_PER_WINDOW * 12
    ));
    if spread > in_order {
        out.failures.push(format!(
            "spread mean CLF {spread} exceeds in-order {in_order} on a matched realisation"
        ));
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let rig = setup(opts, &mut out);
    let mut next = 0u64;
    if !opts.trace {
        let tally = pass(&rig, opts, opts.seconds, &mut next, None);
        out.end_to_end(&tally);
        out.absorb(tally);
    } else {
        let half = opts.seconds / 2.0;
        let plain = pass(&rig, opts, half, &mut next, None);
        let before = TelemDelta::begin();
        let traced = pass(&rig, opts, half, &mut next, Some(&mut out.spans));
        let telem = TelemDelta::end(before);
        let run_ns: f64 = out.spans.durations_s("session.run").iter().sum::<f64>() * 1e9;
        let v = &mut out.values;
        let windows = traced.windows as f64;
        let per_window = |name: &str| ratio(telem.histogram(name).1 as f64, windows);
        let phases: f64 = [
            "protocol.session.plan_ns",
            "protocol.session.send_ns",
            "protocol.session.feedback_ns",
            "protocol.client.finalize_ns",
        ]
        .iter()
        .map(|n| telem.histogram(n).1 as f64)
        .sum();
        v.set(
            "protocol.plan.ns_per_window",
            per_window("protocol.session.plan_ns"),
        );
        v.set(
            "protocol.send.ns_per_window",
            per_window("protocol.session.send_ns"),
        );
        v.set(
            "protocol.feedback.ns_per_window",
            per_window("protocol.session.feedback_ns"),
        );
        v.set(
            "protocol.finalize.ns_per_window",
            per_window("protocol.client.finalize_ns"),
        );
        v.set("sim.self.ns_per_window", ratio(run_ns - phases, windows));
        out.core_layers(&telem);
        // No socket, proxy, FEC or recorder runs in the simulator.
        out.zero(&[
            "net.demux.busy_share",
            "net.server.decode_errors",
            "net.shard.busy_share",
            "net.server.datagrams_tx_per_window",
            "net.server.useful_tx_ratio",
            "net.server.retries_per_window",
            "net.server.retransmissions_per_window",
            "net.stage.queued_to_sent_us_p50",
            "net.stage.windowend_to_ack_us_p50",
            "net.stage.windowend_to_ack_us_p99",
            "net.proxy.busy_share",
            "net.stage.proxy_hop_us_p50",
            "net.client.busy_share",
            "net.stage.deliver_to_close_us_p50",
            "net.client.nacks_per_window",
            "net.client.hello_retries",
            "net.fec.recovered_ratio",
            "net.fec.parity_overhead",
            "obs.dropped_events",
        ]);
        out.traced_common(&plain, &traced);
        out.absorb(plain);
        out.absorb(traced);
    }
    matched_check(&rig, opts, &mut out);
    out
}
