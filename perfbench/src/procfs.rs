//! Process accounting from Linux `/proc`: CPU time, peak resident set,
//! run-queue wait and hypervisor steal. Parsing is split from reading so
//! it can be tested on fixed text.

use std::collections::BTreeMap;
use std::fs;
use std::io;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. Linux fixes this user-visible `USER_HZ` at 100.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `(user, system)` CPU ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may hold spaces or
/// parentheses, so fields are counted from after its last `)`: the next
/// field is field 3 (`state`), and `utime`/`stime` are fields 14 and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value in KiB of a `key:   <n> kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        let mut parts = v.split_whitespace();
        let n = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(n)
    })
}

/// `(on-CPU ns, run-queue wait ns)` from the text of a
/// `/proc/<pid>/task/<tid>/schedstat` file (`run wait timeslices`).
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut f = text.split_whitespace();
    let run = f.next()?.parse().ok()?;
    let wait = f.next()?.parse().ok()?;
    Some((run, wait))
}

/// Steal ticks of all CPUs, from the text of `/proc/stat`: the eighth
/// value of the aggregate `cpu` line (`user nice system idle iowait irq
/// softirq steal ...`), time the hypervisor ran something else while a
/// virtual CPU of this machine had work.
pub fn parse_proc_stat_steal(stat: &str) -> Option<u64> {
    let mut f = stat.lines().next()?.split_whitespace();
    if f.next()? != "cpu" {
        return None;
    }
    f.nth(7)?.parse().ok()
}

/// This process's `(user, system)` CPU time in seconds, including
/// threads that have already exited.
pub fn cpu_seconds() -> io::Result<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    let (user, system) = parse_stat_cpu_ticks(&stat).ok_or_else(|| bad("/proc/self/stat"))?;
    Ok((
        user as f64 / TICKS_PER_SECOND,
        system as f64 / TICKS_PER_SECOND,
    ))
}

/// Peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = parse_status_kib(&status, "VmHWM").ok_or_else(|| bad("/proc/self/status"))?;
    Ok(kib * 1024)
}

/// Reset the peak resident set size to the current one, so a later
/// [`peak_rss_bytes`] covers only what ran after this call.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Run-queue wait in ns of every live thread of this process, by thread
/// id. A thread that exits between two snapshots takes its wait with it.
fn task_waits() -> io::Result<BTreeMap<u64, u64>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some((_, wait)) = parse_schedstat(&text) {
            out.insert(tid, wait);
        }
    }
    Ok(out)
}

/// Interference from outside the program over a window of time.
pub struct HostWindow {
    waits: BTreeMap<u64, u64>,
    steal_ticks: u64,
}

impl HostWindow {
    /// Open the window now.
    pub fn start() -> io::Result<HostWindow> {
        Ok(HostWindow {
            waits: task_waits()?,
            steal_ticks: steal_ticks()?,
        })
    }

    /// `(run-queue wait of this process's threads, steal of all CPUs)` in
    /// ms since [`HostWindow::start`].
    pub fn finish(&self) -> io::Result<(f64, f64)> {
        let runq_ns = wait_since(&self.waits, &task_waits()?);
        let steal = steal_ticks()?.saturating_sub(self.steal_ticks);
        Ok((runq_ns as f64 / 1e6, steal as f64 * 1e3 / TICKS_PER_SECOND))
    }
}

fn steal_ticks() -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/stat")?;
    parse_proc_stat_steal(&stat).ok_or_else(|| bad("/proc/stat"))
}

/// Steal of all CPUs since boot, in seconds: a reading to subtract from a
/// later one.
pub fn steal_seconds() -> io::Result<f64> {
    Ok(steal_ticks()? as f64 / TICKS_PER_SECOND)
}

/// Total run-queue wait in ns accrued between two [`task_waits`]
/// snapshots. A thread absent from `before` started in between, so all
/// of its wait counts.
fn wait_since(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, &w)| w.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected format of {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_after_the_command_name() {
        let stat = "4242 (perf bench) R 1 4242 4242 0 -1 4194304 9055 0 0 0 \
                    731 96 0 0 20 0 3 0 12345 1000000 5000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((731, 96)));
        // A command name holding ") " must not shift the fields.
        let tricky = "7 (a) b (c) S 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(tricky), Some((5, 6)));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn proc_stat_steal_field() {
        let stat = "cpu  106640 0 19458 456656 271 0 601 8737 0 0\n\
                    cpu0 53000 0 9000 228000 100 0 300 4300 0 0\nintr 1 2\n";
        assert_eq!(parse_proc_stat_steal(stat), Some(8737));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3 4 5 6 7 8 9\n"), None);
        assert_eq!(parse_proc_stat_steal("cpu 1 2 3\n"), None);
    }

    #[test]
    fn status_kib_lines() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  379012 kB\n\
                      VmRSS:\t  120000 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(379_012));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(120_000));
        // Keys match whole, and values need their unit.
        assert_eq!(parse_status_kib(status, "Vm"), None);
        assert_eq!(parse_status_kib(status, "Threads"), None);
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("1203456789 45678901 812\n"),
            Some((1_203_456_789, 45_678_901))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn wait_deltas_across_snapshots() {
        let before = BTreeMap::from([(1, 100), (2, 50), (3, 10)]);
        // Thread 3 exited; thread 4 started after `before`.
        let after = BTreeMap::from([(1, 160), (2, 50), (4, 7)]);
        assert_eq!(wait_since(&before, &after), 60 + 7);
    }

    #[test]
    fn live_proc_files_parse() {
        let (user, system) = cpu_seconds().unwrap();
        assert!(user >= 0.0 && system >= 0.0);
        assert!(peak_rss_bytes().unwrap() > 0);
        assert!(!task_waits().unwrap().is_empty());
        let (runq_ms, steal_ms) = HostWindow::start().unwrap().finish().unwrap();
        assert!(runq_ms >= 0.0 && steal_ms >= 0.0);
        assert!(steal_seconds().unwrap() >= 0.0);
    }
}
