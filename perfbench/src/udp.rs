//! `udp-lossy`: the protocol over real UDP on loopback, driven
//! closed-loop by one client thread, one session at a time, each session
//! through its own lossy fault proxy.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use espread_net::{
    FaultPolicy, FaultProxy, NetClient, NetClientConfig, NetServer, NetServerConfig,
    SessionRecorder,
};
use espread_obs::{trio, FlightRecorder};
use espread_protocol::{FecPolicy, FecScope, Ordering, ProtocolConfig, SessionOffer, StreamSource};
use espread_trace::{GopPattern, Movie, MpegTrace};

use crate::procfs::{self, CpuLedger, Role, CLIENT_THREAD};
use crate::spans::SpanLog;
use crate::stages::Stages;
use crate::stats;
use crate::tally::{ratio, Tally, TelemDelta};
use crate::{derive_seed, Opts, Outcome, SETUP_REPS};

/// Fragment size on the wire.
const PACKET_BYTES: u32 = 2048;
/// GOPs of 12 frames per window.
const GOPS_PER_WINDOW: usize = 2;
/// Windows per session.
const WINDOWS: usize = 24;
/// Server worker shards.
const WORKERS: usize = 2;
/// Server pacing between data datagrams (the default).
const PACE: Duration = Duration::from_micros(50);
/// Gilbert–Elliott `(P_good, P_bad)` the proxy applies to data.
const GE_LOSS: (f64, f64) = (0.92, 0.6);
/// A session that has not finished by then counts as failed; it is also
/// the latency every failed session enters the percentiles with.
const DEADLINE: Duration = Duration::from_secs(5);
/// Flight-recorder ring size per role in the traced pass. A traced chunk
/// ends once any ring is half full, so no session can overflow one.
const RING_CAPACITY: usize = 1 << 18;
/// Seed stream offset of the warm-up sessions.
const WARMUP_STREAM: u64 = 1 << 40;

fn source() -> StreamSource {
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    StreamSource::mpeg(&trace, GOPS_PER_WINDOW, WINDOWS, false)
}

/// Binds a server with spread-capable sessions, critical-layer RS(4, 1)
/// FEC and the default pacing.
fn bind(source: &StreamSource, recorder: SessionRecorder) -> Result<NetServer, String> {
    let offer = SessionOffer {
        gop_pattern: GopPattern::gop12(),
        gops_per_window: GOPS_PER_WINDOW,
        open_gop: false,
        fps: 24,
        packet_bytes: PACKET_BYTES,
        max_frame_bytes: 62_776 / 8,
        fec: FecPolicy::rs(FecScope::Critical, 4, 1),
    };
    let mut config = NetServerConfig::new(ProtocolConfig::paper(0.6, 1), offer, source.clone());
    config.pace = PACE;
    config.workers = WORKERS;
    config.recorder = recorder;
    NetServer::bind("127.0.0.1:0", config).map_err(|e| format!("server bind: {e}"))
}

/// The recorders of one traced chunk.
struct Recorders {
    server: FlightRecorder,
    proxy: FlightRecorder,
    client: FlightRecorder,
}

impl Recorders {
    fn new(chunk: u32) -> Self {
        let (server, proxy, client) = trio(RING_CAPACITY, chunk);
        Recorders {
            server,
            proxy,
            client,
        }
    }

    fn half_full(&self) -> bool {
        [&self.server, &self.proxy, &self.client]
            .iter()
            .any(|r| r.len() > RING_CAPACITY / 2)
    }

    fn dropped(&self) -> u64 {
        self.server.dropped() + self.proxy.dropped() + self.client.dropped()
    }
}

/// A measured pass: what the sessions saw plus the per-layer extras.
#[derive(Debug, Default)]
struct Pass {
    tally: Tally,
    nacks: u64,
    hello_retries: u64,
    proxy_send_errors: u64,
    client_send_errors: u64,
    errors: Vec<String>,
}

struct Runner<'a> {
    source: &'a StreamSource,
    seed: u64,
}

impl Runner<'_> {
    /// Streams one session `i` to the server at `addr` through a fresh
    /// lossy proxy.
    fn session(
        &self,
        addr: SocketAddr,
        i: u64,
        pass: &mut Pass,
        rec: Option<&Recorders>,
        mut traced: Option<(&mut SpanLog, &mut CpuLedger)>,
    ) -> Result<(), String> {
        let attach = |r: Option<&FlightRecorder>| {
            r.map_or_else(SessionRecorder::disabled, |r| {
                SessionRecorder::attached(r.clone())
            })
        };
        let (p_good, p_bad) = GE_LOSS;
        let mut proxy = FaultProxy::spawn_with_recorder(
            addr,
            FaultPolicy::transparent().gilbert_data_loss(p_good, p_bad, derive_seed(self.seed, i)),
            FaultPolicy::transparent(),
            attach(rec.map(|r| &r.proxy)),
        )
        .map_err(|e| format!("proxy spawn: {e}"))?;
        let config = NetClientConfig {
            ordering: Ordering::spread(),
            recovery: true,
            deadline: DEADLINE,
            recorder: attach(rec.map(|r| &r.client)),
            ..NetClientConfig::default()
        };
        let cpu0 = procfs::thread_cpu_ns();
        let t0 = Instant::now();
        let connected = NetClient::connect(proxy.client_addr(), config);
        let t1 = Instant::now();
        let result = connected.and_then(NetClient::stream);
        let t2 = Instant::now();
        // Read while the session's proxy thread is still alive.
        let cpu_ns = procfs::cpu_ns_between(&cpu0, &procfs::thread_cpu_ns());

        let tally = &mut pass.tally;
        let secs = (t2 - t0).as_secs_f64();
        if let Some((log, _)) = traced.as_mut() {
            let root = log.record("session", i, None, t0, t2);
            log.record("connect", i, Some(root), t0, t1);
            log.record("stream", i, Some(root), t1, t2);
        }
        match result {
            Ok(report) => {
                tally.handshake_ms.push((t1 - t0).as_secs_f64() * 1e3);
                let windows = self.source.window_count();
                tally.check(
                    report.windows_completed == windows && report.windows_total == windows,
                    || {
                        format!(
                            "session {i}: {} of {} windows completed, {windows} streamed",
                            report.windows_completed, report.windows_total
                        )
                    },
                );
                tally.completed(secs, &report.series, &report.patterns, &self.source.windows);
                tally.cpu(cpu_ns, report.data_rx);
                pass.nacks += report.nacks_sent;
                pass.hello_retries += u64::from(report.hello_retries);
                pass.client_send_errors += report.send_errors;
            }
            Err(e) => {
                tally.fail(secs, DEADLINE.as_secs_f64() * 1e3, &self.source.windows);
                pass.errors.push(format!("session {i}: {e}"));
            }
        }
        if let Some((_, ledger)) = traced.as_mut() {
            ledger.observe();
        }
        // The proxy counts a datagram as processed before it forwards or
        // drops it, so its books balance only once its thread has ended.
        proxy.shutdown();
        let stats = proxy.stats();
        pass.tally.check(stats.conserved(), || {
            format!("session {i}: proxy conservation broken: {stats:?}")
        });
        pass.proxy_send_errors += stats.send_errors;
        Ok(())
    }
}

/// Runs `f` on the benchmark's named client thread and waits for it.
fn on_client_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(CLIENT_THREAD.into())
            .spawn_scoped(scope, f)
            .expect("spawn the client thread")
            .join()
            .expect("client thread panicked")
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Socket set-up failures of the harness (binding, spawning a proxy).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up, repeated: source build, server bind, one warm-up session.
    let mut rig: Option<(StreamSource, NetServer)> = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(rig.take());
        let t0 = Instant::now();
        let source = source();
        let t1 = Instant::now();
        let server = bind(&source, SessionRecorder::disabled())?;
        let t2 = Instant::now();
        let runner = Runner {
            source: &source,
            seed: opts.seed,
        };
        let mut warm = Pass::default();
        runner.session(
            server.local_addr(),
            WARMUP_STREAM + rep,
            &mut warm,
            None,
            None,
        )?;
        let t3 = Instant::now();
        let root = out.spans.record("setup", rep, None, t0, t3);
        out.spans
            .record("trace.source_build", rep, Some(root), t0, t1);
        out.spans.record("server.bind", rep, Some(root), t1, t2);
        out.spans.record("warmup", rep, Some(root), t2, t3);
        // A warm-up session counts like a measured one: a failed output
        // check fails the run, a failed session counts as failed.
        out.notes.extend(warm.errors);
        out.absorb(warm.tally);
        rig = Some((source, server));
    }
    let (source, mut server) = rig.expect("at least one set-up repetition");
    let runner = Runner {
        source: &source,
        seed: opts.seed,
    };
    let addr = server.local_addr();
    let mut next = 0u64;

    let pass_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = on_client_thread(|| -> Result<Pass, String> {
        let mut pass = Pass::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < pass_seconds {
            runner.session(addr, next, &mut pass, None, None)?;
            next += 1;
        }
        Ok(pass)
    })?;
    server.shutdown();

    if !opts.trace {
        out.end_to_end(&plain.tally);
        out.note_pass(&plain);
        out.absorb(plain.tally);
        return Ok(out);
    }

    // Traced pass: recorders attached, a fresh server per chunk.
    let spans = &mut out.spans;
    let before = TelemDelta::begin();
    let (traced, stages, dropped, ledger, wall_s) =
        on_client_thread(|| -> Result<(Pass, Stages, u64, CpuLedger, f64), String> {
            let mut pass = Pass::default();
            let mut stages = Stages::default();
            let mut dropped = 0;
            let mut ledger = CpuLedger::start();
            let start = Instant::now();
            let mut chunk = 0u32;
            while start.elapsed().as_secs_f64() < pass_seconds {
                let rec = Recorders::new(chunk);
                chunk += 1;
                let mut server = bind(&source, SessionRecorder::attached(rec.server.clone()))?;
                let addr = server.local_addr();
                while start.elapsed().as_secs_f64() < pass_seconds && !rec.half_full() {
                    runner.session(
                        addr,
                        next,
                        &mut pass,
                        Some(&rec),
                        Some((&mut *spans, &mut ledger)),
                    )?;
                    next += 1;
                }
                ledger.observe();
                server.shutdown();
                stages.add(
                    &rec.server.recording(),
                    &rec.proxy.recording(),
                    &rec.client.recording(),
                );
                dropped += rec.dropped();
            }
            ledger.observe();
            Ok((pass, stages, dropped, ledger, start.elapsed().as_secs_f64()))
        })?;
    let telem = TelemDelta::end(before);

    let windows = traced.tally.windows as f64;
    let per_window = |n: u64| ratio(n as f64, windows);
    let p = |v: &[f64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(v), q)
        }
    };
    let busy = |role: Role, threads: usize| ratio(ledger.seconds(role), wall_s * threads as f64);
    let tx = telem.counter("net.server.datagrams_tx");
    let recovered = telem.counter("net.fec.recovered");
    let unrecoverable = telem.counter("net.fec.unrecoverable");
    let v = &mut out.values;
    v.set("net.demux.busy_share", busy(Role::Demux, 1));
    v.set(
        "net.server.decode_errors",
        telem.counter("net.server.decode_errors") as f64,
    );
    v.set("net.shard.busy_share", busy(Role::Shard, WORKERS));
    v.set("net.server.datagrams_tx_per_window", per_window(tx));
    v.set(
        "net.server.useful_tx_ratio",
        ratio(stages.first_sends as f64, tx as f64),
    );
    v.set(
        "net.server.retries_per_window",
        per_window(telem.counter("net.server.retries")),
    );
    v.set(
        "net.server.retransmissions_per_window",
        per_window(telem.counter("net.server.retransmissions")),
    );
    v.set(
        "net.stage.queued_to_sent_us_p50",
        p(&stages.queued_to_sent, 50.0),
    );
    v.set(
        "net.stage.windowend_to_ack_us_p50",
        p(&stages.windowend_to_ack, 50.0),
    );
    v.set(
        "net.stage.windowend_to_ack_us_p99",
        p(&stages.windowend_to_ack, 99.0),
    );
    v.set("net.proxy.busy_share", busy(Role::Proxy, 1));
    v.set("net.stage.proxy_hop_us_p50", p(&stages.proxy_hop, 50.0));
    v.set("net.client.busy_share", busy(Role::Client, 1));
    v.set(
        "net.stage.deliver_to_close_us_p50",
        p(&stages.deliver_to_close, 50.0),
    );
    v.set("net.client.nacks_per_window", per_window(traced.nacks));
    v.set("net.client.hello_retries", traced.hello_retries as f64);
    v.set(
        "net.fec.recovered_ratio",
        ratio(recovered as f64, (recovered + unrecoverable) as f64),
    );
    v.set(
        "net.fec.parity_overhead",
        ratio(
            telem.counter("net.fec.parity_sent") as f64,
            stages.first_sends as f64,
        ),
    );
    v.set("obs.dropped_events", dropped as f64);
    out.zero(&[
        "protocol.plan.ns_per_window",
        "protocol.send.ns_per_window",
        "protocol.feedback.ns_per_window",
        "protocol.finalize.ns_per_window",
        "sim.self.ns_per_window",
    ]);
    out.core_layers(&telem);
    out.traced_common(&plain.tally, &traced.tally);
    if dropped > 0 {
        out.failures.push(format!(
            "flight recorders overflowed: {dropped} events lost"
        ));
    }
    out.note_pass(&plain);
    out.note_pass(&traced);
    out.absorb(plain.tally);
    out.absorb(traced.tally);
    Ok(out)
}

impl Outcome {
    fn note_pass(&mut self, pass: &Pass) {
        self.note(format!(
            "send errors: proxy {}, client {}; NACKs {}; hello retries {}",
            pass.proxy_send_errors, pass.client_send_errors, pass.nacks, pass.hello_retries
        ));
        self.notes.extend(pass.errors.iter().cloned());
    }
}
