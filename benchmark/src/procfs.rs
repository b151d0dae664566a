//! Process CPU time and peak resident memory from `/proc/self`.

/// Kernel clock ticks per second as `/proc` reports them. `USER_HZ` is 100
/// on every Linux ABI, whatever the kernel's internal tick rate.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU milliseconds (user + system, every thread) this process has used.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparseable /proc/self/stat")?;
    Ok(ticks as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 1103 0 0 0 \
                    731 29 0 0 20 0 3 0 88123 1000000 900 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(760));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tkfusion\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_readings_parse() {
        assert!(cpu_ms().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
