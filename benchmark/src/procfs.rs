//! Parsers for the three `/proc` files the harness reads: machine-wide CPU
//! time (steal), this process's CPU time, and its resident memory.

use std::fs;

/// Jiffies from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

/// Parses the first (`cpu `) line of `/proc/stat`:
/// `cpu user nice system idle iowait irq softirq steal guest guest_nice`.
/// Guest time is already inside user/nice, so it is not added again.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    Some(CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Share of machine CPU time stolen by the hypervisor between two readings,
/// in percent.
pub fn steal_pct(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// utime + stime of this process in clock ticks, from `/proc/self/stat`.
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_self_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state (field 3) … utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*` line of `/proc/self/status` in KiB.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn machine_cpu() -> CpuTimes {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .unwrap_or_default()
}

/// CPU seconds this process has used so far. Linux reports ticks of
/// `USER_HZ`, which is 100 on every supported architecture.
pub fn process_cpu_secs() -> f64 {
    const USER_HZ: f64 = 100.0;
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_self_stat_ticks(&t))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_kib(&t, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_sums_the_first_eight_fields() {
        let text = "cpu  100 5 50 1000 20 0 3 22 7 0\ncpu0 50 2 25 500 10 0 1 11 3 0\nintr 1\n";
        let t = parse_proc_stat(text).unwrap();
        assert_eq!(t.total, 100 + 5 + 50 + 1000 + 20 + 3 + 22);
        assert_eq!(t.steal, 22);
        assert!(parse_proc_stat("intr 1\n").is_none());
        assert!(parse_proc_stat("cpu  1 x 3 4\n").is_none());
    }

    #[test]
    fn steal_is_a_share_of_the_interval() {
        let a = CpuTimes {
            total: 1_000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1_200,
            steal: 40,
        };
        assert!((steal_pct(a, b) - 15.0).abs() < 1e-12);
        assert_eq!(steal_pct(b, b), 0.0);
    }

    #[test]
    fn self_stat_survives_a_hostile_command_name() {
        let text = "4242 (cg bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_self_stat_ticks(text), Some(42));
        assert_eq!(parse_self_stat_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines_match_whole_keys() {
        let text = "Name:\tcgbench\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nVmRSSX:\t 1 kB\n";
        assert_eq!(parse_status_kib(text, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_kib(text, "VmRSS"), Some(102_400));
        assert_eq!(parse_status_kib(text, "VmSwap"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(machine_cpu().total > 0);
        assert!(peak_rss_mib() > 0.0 && process_cpu_secs() >= 0.0);
    }
}
