//! Host measurements read from `/proc` (the benchmark runs on Linux).

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`, fixed at
/// 100 by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the whole process has used, including
/// threads that have already exited.
///
/// # Panics
///
/// Panics when `/proc/self/stat` cannot be read or parsed.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let mut times = rest
        .split_ascii_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().expect("stat holds numeric CPU times"));
    let utime = times.next().expect("stat has utime");
    let stime = times.next().expect("stat has stime");
    (utime + stime) / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in kB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no readable `VmHWM` line.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .expect("/proc/self/status reports VmHWM")
}
