//! The host block recorded with every result, and the process's peak
//! resident set.

use serde::value::Value;

/// The compiler that built the benchmark, captured by `build.rs`.
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// CPU count, CPU model and compiler of this host.
pub fn host_block() -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::object()
        .with("available_parallelism", Value::U64(parallelism as u64))
        .with("cpu_model", Value::Str(cpu_model))
        .with("rustc", Value::Str(RUSTC_VERSION.to_string()))
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
