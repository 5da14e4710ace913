//! End-to-end and per-layer benchmark of the error-spreading stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `sim-paper` — the in-process simulator, paper Fig. 8 setting;
//! * `udp-lossy` — real UDP through a lossy proxy, full recovery loop.
//!
//! `--trace 0` measures the end-to-end metrics with no recorders
//! attached. `--trace 1` runs an untraced half and a traced half (flight
//! recorders, benchmark spans) and prints the per-layer metrics; the
//! spans go to `perfbench/out/`. Human-readable lines come first; the
//! last line of standard output is one JSON object. The exit code is 1
//! when an output check fails and 2 on a usage or harness error.

mod metrics;
mod procfs;
mod sim;
mod spans;
mod stages;
mod stats;
mod tally;
mod udp;

use std::path::Path;
use std::process::ExitCode;

use metrics::{Values, END_TO_END, PER_LAYER};
use spans::SpanLog;
use tally::{ratio, Tally, TelemDelta};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

const WORKLOADS: [&str; 2] = ["sim-paper", "udp-lossy"];

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A per-session seed from the workload seed (SplitMix64 of the pair), so
/// every session faces its own channel realisation and the same workload
/// seed reproduces all of them.
pub fn derive_seed(seed: u64, session: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(session)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    /// Failed output checks; any makes the run incorrect.
    failures: Vec<String>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
    spans: SpanLog,
}

impl Outcome {
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a measured pass's sessions and keeps its failed checks.
    fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.failures.extend(tally.check_failures);
    }

    fn zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.values.set(name, 0.0);
        }
    }

    /// The end-to-end metrics of an untraced pass.
    fn end_to_end(&mut self, t: &Tally) {
        let sorted = stats::sorted(&t.session_ms);
        let tail = stats::tail(&sorted);
        let v = &mut self.values;
        v.set("windows_per_s", t.windows_per_s());
        v.set(
            "session_ms_p50",
            if sorted.is_empty() {
                0.0
            } else {
                stats::percentile(&sorted, 50.0)
            },
        );
        v.set("session_ms_tail", tail.map_or(0.0, |t| t.value));
        v.set("goodput_mbps", t.goodput_mbps());
        v.set("cpu_us_per_datagram", t.median_cpu_us_per_datagram());
        v.set("mean_clf", t.mean_clf());
        v.set("residual_loss_share", t.residual_loss_share());
        v.set("windows_clf_ok_share", 1.0 - t.clf_breach_share());
        if !sorted.is_empty() {
            let q = |p| stats::percentile(&sorted, p);
            self.notes.push(format!(
                "session ms: p10 {:.3}, p25 {:.3}, p50 {:.3}, p75 {:.3}, p90 {:.3}, max {:.3}",
                q(10.0),
                q(25.0),
                q(50.0),
                q(75.0),
                q(90.0),
                q(100.0)
            ));
        }
        match tail {
            Some(tail) => self.notes.push(format!(
                "session_ms_tail is p{} of {} sessions ({} beyond it)",
                tail.percentile, tail.samples, tail.beyond
            )),
            None => self.failures.push(format!(
                "only {} sessions: too few for a tail with {} samples beyond it",
                sorted.len(),
                stats::TAIL_MIN_BEYOND
            )),
        }
        self.notes.push(format!(
            "clf_breach_share {:.4} (CLF > {}); failed_share {:.4} ({} of {} sessions); \
             handshake_ms_p50 {:.4} ms",
            t.clf_breach_share(),
            tally::CLF_THRESHOLD,
            t.failed_share(),
            t.failed,
            t.attempted,
            t.handshake_ms_p50()
        ));
    }

    /// The `core` order-planning metrics over a traced pass.
    fn core_layers(&mut self, telem: &TelemDelta) {
        let v = &mut self.values;
        v.set("core.spread_cache.miss_ratio", telem.spread_miss_ratio());
        v.set("core.layered_cache.miss_ratio", telem.layered_miss_ratio());
        v.set(
            "core.layered_build.ns_mean",
            telem.histogram_mean("core.layered_order.build_ns"),
        );
        v.set(
            "core.calculate_permutation.ns_mean",
            telem.histogram_mean("core.calculate_permutation.ns"),
        );
    }

    /// Metrics every traced run reports: continuity of the traced pass,
    /// its handshakes, and the cost of tracing against the untraced pass.
    fn traced_common(&mut self, plain: &Tally, traced: &Tally) {
        let overhead = 1.0 - ratio(traced.windows_per_s(), plain.windows_per_s());
        let v = &mut self.values;
        v.set("qos.clf_breach_share", traced.clf_breach_share());
        v.set("net.client.handshake_ms_p50", traced.handshake_ms_p50());
        v.set("trace.overhead_share", overhead);
        self.notes.push(format!(
            "windows/s untraced {:.1}, traced {:.1}",
            plain.windows_per_s(),
            traced.windows_per_s()
        ));
    }
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = match opts.workload.as_str() {
        "sim-paper" => sim::run(opts),
        "udp-lossy" => udp::run(opts)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if out.failed == out.attempted {
        out.failures
            .push(format!("all {} sessions failed", out.attempted));
    }
    let setup = out.spans.durations_s("setup");
    if opts.trace {
        let build_s = stats::median(&out.spans.durations_s("trace.source_build"));
        out.values.set("trace.source_build_s", build_s);
        let path = Path::new("perfbench/out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        out.spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
    } else {
        out.values.set("setup_s", stats::median(&setup));
        out.values.set("peak_rss_mb", procfs::peak_rss_mb());
    }
    out.note(format!(
        "set-up repetitions (s): {}",
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(out)
}

/// Four decimals, or scientific notation where that would hide the value.
fn display(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.4e}")
    } else {
        format!("{value:.4}")
    }
}

/// Pins glibc's mmap threshold at its default of 128 KiB. Left dynamic,
/// it rises to the size of the largest block freed, so whether a
/// session's large vectors come from `mmap` or from the heap depends on
/// heap placement, and `sim-paper`'s peak RSS jumped by about 4 MiB from
/// seed to seed. Pinned, `peak_rss_mb` follows what the program keeps
/// alive.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::ffi::c_int;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` only tunes the allocator, and it runs before the
    // benchmark starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} (loopback UDP, {} CPUs)",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for &(name, unit) in table {
        if let Some(value) = out.values.get(name) {
            println!("  {name:<40} {:>16} {unit}", display(value));
        }
    }
    for line in &out.notes {
        println!("  {line}");
    }
    for failure in &out.failures {
        println!("  CHECK FAILED: {failure}");
    }
    let correct = out.failures.is_empty();
    match metrics::result_line(table, &out.values, correct, out.attempted, out.failed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let opts = parse_args(&args(
            "--workload udp-lossy --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            opts,
            Opts {
                workload: "udp-lossy".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim-paper --seed -1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim-paper --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload sim-paper --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload sim-paper --seed 1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    #[test]
    fn session_seeds_are_distinct_and_reproducible() {
        let a: Vec<u64> = (0..1000).map(|i| derive_seed(1, i)).collect();
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len());
        assert_eq!(derive_seed(1, 5), a[5]);
        assert_ne!(derive_seed(2, 5), a[5]);
    }
}
