//! What Linux reports about a process under test: peak resident memory,
//! CPU time split into user and system, minor page faults.

/// `pid`'s directory under `/proc`; `None` is this process.
fn dir(pid: Option<u32>) -> String {
    pid.map_or("/proc/self".into(), |p| format!("/proc/{p}"))
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/status", dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Cumulative CPU ticks and minor faults of a process, threads included.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuSample {
    pub user_ticks: u64,
    pub sys_ticks: u64,
    pub minor_faults: u64,
}

impl CpuSample {
    /// Reads `/proc/<pid>/stat`.
    pub fn read(pid: Option<u32>) -> Result<CpuSample, String> {
        let path = format!("{}/stat", dir(pid));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_stat(&text).ok_or_else(|| format!("unexpected format in {path}"))
    }

    /// Share of CPU time spent in the kernel since `earlier`.
    pub fn sys_frac_since(&self, earlier: &CpuSample) -> f64 {
        let sys = (self.sys_ticks - earlier.sys_ticks) as f64;
        let user = (self.user_ticks - earlier.user_ticks) as f64;
        if sys + user > 0.0 {
            sys / (sys + user)
        } else {
            0.0
        }
    }
}

/// Fields of `/proc/<pid>/stat` are counted after the parenthesised command
/// name, which may itself hold spaces: state is field 3, `minflt` 10,
/// `utime` 14, `stime` 15.
fn parse_stat(text: &str) -> Option<CpuSample> {
    let after = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuSample {
        minor_faults: field(10)?,
        user_ticks: field(14)?,
        sys_ticks: field(15)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "77 (pde bench) x) S 1 77 77 0 -1 4194304 1234 0 0 0 250 750 0 0 20 0 3 0 1";
        assert_eq!(
            parse_stat(line),
            Some(CpuSample {
                minor_faults: 1234,
                user_ticks: 250,
                sys_ticks: 750
            })
        );
        let later = CpuSample {
            minor_faults: 2000,
            user_ticks: 350,
            sys_ticks: 1050,
        };
        assert_eq!(later.sys_frac_since(&parse_stat(line).unwrap()), 0.75);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(CpuSample::read(None).is_ok());
    }
}
