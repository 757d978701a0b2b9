//! Host facts for benchmark reports.

/// Logical CPUs from the scheduler and total memory from `/proc/meminfo`,
/// as `(host_cores, host_mem_bytes)`. Either side is `None` when the
/// platform won't say.
pub fn host_facts() -> (Option<u64>, Option<u64>) {
    let cores = std::thread::available_parallelism()
        .ok()
        .map(|n| n.get() as u64);
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                let rest = l.strip_prefix("MemTotal:")?;
                let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
                Some(kb * 1024)
            })
        });
    (cores, mem)
}
