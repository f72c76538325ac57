//! Process-level host measurements read from Linux `/proc`.

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`sysconf(_SC_CLK_TCK)`, 100 on every Linux ABI in use).
const CLK_TCK: f64 = 100.0;

/// User plus system CPU seconds consumed so far by this process, all
/// threads included (finished ones too).
///
/// # Errors
///
/// When `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being fields 14
    // and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}
