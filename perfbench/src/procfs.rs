//! CPU time and memory read from `/proc/self`, from outside the program.

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// The fields of one `/proc/.../stat` line the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// The task's name, as the kernel truncates it (15 bytes).
    pub comm: String,
    /// User plus system CPU time, in clock ticks.
    pub cpu_ticks: u64,
}

/// Parses a `stat` line. The name sits in parentheses and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After the name: state (field 3) … utime (14), stime (15).
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(Stat {
        comm,
        cpu_ticks: utime + stime,
    })
}

/// Parses a `schedstat` line: nanoseconds on the CPU come first.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("VmHWM present") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A thread role whose CPU time the per-layer metrics attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The server's receive/demux loop.
    Demux,
    /// The server's worker shards.
    Shard,
    /// The fault-injecting proxy.
    Proxy,
    /// The benchmark's client thread.
    Client,
}

/// Name of the benchmark's client thread.
pub const CLIENT_THREAD: &str = "perfbench-client";

/// Maps a (kernel-truncated) thread name to its role.
pub fn role_of(comm: &str) -> Option<Role> {
    let roles = [
        ("espread-net-demux", Role::Demux),
        ("espread-net-shard-", Role::Shard),
        ("espread-net-proxy", Role::Proxy),
        (CLIENT_THREAD, Role::Client),
    ];
    roles.iter().find_map(|&(name, role)| {
        // The kernel keeps 15 bytes of a thread name.
        let kept = &name[..name.len().min(15)];
        comm.starts_with(kept).then_some(role)
    })
}

/// One live thread's CPU reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u32,
    /// Thread name.
    pub comm: String,
    /// Nanoseconds on the CPU so far.
    pub cpu_ns: u64,
}

/// Reads every live thread of this process. `schedstat` gives
/// nanoseconds; where it is missing, `stat` ticks stand in.
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
        let path = entry.path();
        // A thread may exit between listing and reading: skip it.
        let stat = parse_stat(&fs::read_to_string(path.join("stat")).ok()?)?;
        let cpu_ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .unwrap_or(stat.cpu_ticks * (1e9 / TICKS_PER_S) as u64);
        Some(ThreadCpu {
            tid,
            comm: stat.comm,
            cpu_ns,
        })
    })
    .collect()
}

/// Nanoseconds on the CPU of every live thread, by thread id.
pub fn thread_cpu_ns() -> HashMap<u32, u64> {
    threads().into_iter().map(|t| (t.tid, t.cpu_ns)).collect()
}

/// CPU the process used between two [`thread_cpu_ns`] readings, in
/// nanoseconds. A thread born in between counts from zero; every thread
/// that matters must still be alive at `after`.
pub fn cpu_ns_between(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Accumulates CPU time per [`Role`] across readings, so threads that
/// exit between readings (a proxy per session, a server per traced chunk)
/// keep the time they used up to their last reading. Read just before
/// stopping a thread to keep all of it.
#[derive(Debug, Default)]
pub struct CpuLedger {
    last: HashMap<u32, ThreadCpu>,
    by_role: HashMap<Role, u64>,
}

impl CpuLedger {
    /// A ledger that charges nothing used before this moment.
    pub fn start() -> Self {
        CpuLedger {
            last: threads().into_iter().map(|t| (t.tid, t)).collect(),
            ..CpuLedger::default()
        }
    }

    /// Charges every live thread's CPU since its previous reading.
    pub fn observe(&mut self) {
        for t in threads() {
            self.charge(t);
        }
    }

    fn charge(&mut self, t: ThreadCpu) {
        let base = match self.last.get(&t.tid) {
            // Same thread as last time; a reused tid starts from zero.
            Some(prev) if prev.comm == t.comm && prev.cpu_ns <= t.cpu_ns => prev.cpu_ns,
            _ => 0,
        };
        if let Some(role) = role_of(&t.comm) {
            *self.by_role.entry(role).or_insert(0) += t.cpu_ns - base;
        }
        self.last.insert(t.tid, t);
    }

    /// CPU seconds charged to `role`.
    pub fn seconds(&self, role: Role) -> f64 {
        self.by_role.get(&role).copied().unwrap_or(0) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_name() {
        let line = "4242 (espread (x) y) S 1 2 3 0 -1 4194304 85 0 0 0 37 5 0 0 20 0 1 0 \
                    125827 2703360 335 18446744073709551615";
        let stat = parse_stat(line).expect("parses");
        assert_eq!(stat.comm, "espread (x) y");
        assert_eq!(stat.cpu_ticks, 42);
        assert_eq!(parse_stat("4242 (cut"), None);
        assert_eq!(parse_stat("4242 (short) S 1 2"), None);
    }

    #[test]
    fn live_readings_parse() {
        let own = fs::read_to_string("/proc/self/stat").expect("readable");
        assert!(parse_stat(&own).is_some());
        let before = thread_cpu_ns();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {}
        assert!(cpu_ns_between(&before, &thread_cpu_ns()) > 0);
        assert!(peak_rss_mb() > 0.0);
        assert!(!threads().is_empty());
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(parse_schedstat("484008873 2508301 30\n"), Some(484_008_873));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    1688 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1688));
    }

    #[test]
    fn cpu_between_readings_counts_new_threads_from_zero() {
        let before = HashMap::from([(1, 100), (2, 50)]);
        let after = HashMap::from([(1, 160), (3, 7)]);
        assert_eq!(cpu_ns_between(&before, &after), 67);
    }

    #[test]
    fn truncated_thread_names_map_to_roles() {
        assert_eq!(role_of("espread-net-dem"), Some(Role::Demux));
        assert_eq!(role_of("espread-net-sha"), Some(Role::Shard));
        assert_eq!(role_of("espread-net-pro"), Some(Role::Proxy));
        assert_eq!(role_of("perfbench-clien"), Some(Role::Client));
        assert_eq!(role_of("perfbench"), None);
    }

    fn t(tid: u32, comm: &str, cpu_ns: u64) -> ThreadCpu {
        ThreadCpu {
            tid,
            comm: comm.into(),
            cpu_ns,
        }
    }

    #[test]
    fn ledger_charges_deltas_and_keeps_exited_threads() {
        let mut ledger = CpuLedger::default();
        ledger.last.insert(1, t(1, "espread-net-sha", 500));
        ledger.charge(t(1, "espread-net-sha", 800));
        // A proxy seen twice, then gone: its time stays charged.
        ledger.charge(t(2, "espread-net-pro", 100));
        ledger.charge(t(2, "espread-net-pro", 250));
        // Its tid reused by a client thread: counted from zero.
        ledger.charge(t(2, "perfbench-clien", 40));
        ledger.charge(t(3, "main", 1_000));
        assert_eq!(ledger.seconds(Role::Shard), 300e-9);
        assert_eq!(ledger.seconds(Role::Proxy), 250e-9);
        assert_eq!(ledger.seconds(Role::Client), 40e-9);
        assert_eq!(ledger.seconds(Role::Demux), 0.0);
    }
}
