//! CPU pinning and the load shape the benchmark is allowed to run.
//!
//! Unpinned, the ≈8 µs memo-hit round trip is bimodal on cross-vCPU
//! wake-ups (19k–47k op/s in four back-to-back runs on the 2-vCPU box this
//! was designed on; 112k–116k pinned), so every run pins the whole process
//! to one CPU before any thread is spawned and refuses to report otherwise.

use std::fmt;

/// Connection workers of the in-process `NetServer`.
pub const WORKERS: usize = 1;
/// Client connections, each a closed loop with one request in flight.
pub const CLIENTS: usize = 1;

/// Why the harness refused to run.
#[derive(Debug, PartialEq, Eq)]
pub enum PinError {
    /// `/proc/self/status` has no parsable `Cpus_allowed_list`.
    NoCpuList(String),
    /// `sched_setaffinity` failed with this errno-less return code.
    SetAffinity(i32),
    /// After pinning, more (or fewer) than one CPU is allowed.
    NotPinned(Vec<usize>),
    /// A load shape other than one worker and one closed-loop client.
    LoadShape { workers: usize, clients: usize },
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::NoCpuList(why) => write!(f, "cannot read the allowed CPU list: {why}"),
            PinError::SetAffinity(rc) => write!(f, "sched_setaffinity failed (returned {rc})"),
            PinError::NotPinned(cpus) => write!(
                f,
                "refusing to report: the process must be pinned to exactly one CPU, allowed = {cpus:?}"
            ),
            PinError::LoadShape { workers, clients } => write!(
                f,
                "refusing to run {workers} worker(s) + {clients} client(s): on one pinned CPU only \
                 one worker serving one closed-loop client never has two runnable threads"
            ),
        }
    }
}

impl std::error::Error for PinError {}

/// Parse a kernel CPU list such as `0-1` or `0,2-3,7`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (
                    lo.trim().parse::<usize>().ok()?,
                    hi.trim().parse::<usize>().ok()?,
                );
                if lo > hi {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on, from `/proc/self/status`.
pub fn allowed_cpus() -> Result<Vec<usize>, PinError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| PinError::NoCpuList(e.to_string()))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or_else(|| PinError::NoCpuList("no Cpus_allowed_list line".to_string()))?;
    parse_cpu_list(line).ok_or_else(|| PinError::NoCpuList(format!("unparsable list {line:?}")))
}

/// The one CPU a pinned process runs on; anything else is refused.
pub fn require_single_cpu(allowed: &[usize]) -> Result<usize, PinError> {
    match allowed {
        [cpu] => Ok(*cpu),
        other => Err(PinError::NotPinned(other.to_vec())),
    }
}

/// One worker serving one closed-loop client hand the single CPU back and
/// forth and never queue behind each other; any larger shape oversubscribes
/// the pinned CPU and measures the scheduler instead of the program.
pub fn require_closed_loop(workers: usize, clients: usize) -> Result<(), PinError> {
    if workers == 1 && clients == 1 {
        Ok(())
    } else {
        Err(PinError::LoadShape { workers, clients })
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// What [`pin_to_last_allowed_cpu`] did, recorded in every result file.
#[derive(Clone, Debug)]
pub struct Pinned {
    /// CPUs allowed before pinning (`nproc` is its length).
    pub allowed_before: Vec<usize>,
    /// The CPU every thread of this process now runs on.
    pub cpu: usize,
}

/// Pin the calling thread — call it first thing in `main`, so every thread
/// spawned later inherits the mask — to the last CPU it was allowed on, and
/// verify the kernel now reports exactly that one CPU.
pub fn pin_to_last_allowed_cpu() -> Result<Pinned, PinError> {
    let allowed_before = allowed_cpus()?;
    let cpu = *allowed_before
        .last()
        .expect("parse_cpu_list never returns an empty list");
    let mut mask = [0u64; 16]; // 1024 CPUs, the kernel's default CPU_SETSIZE
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| PinError::NoCpuList(format!("cpu {cpu} beyond the 1024-bit mask")))?;
    *word = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of `size_of_val(&mask)`
    // bytes for the duration of the call, and the kernel only reads it; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(PinError::SetAffinity(rc));
    }
    let now = allowed_cpus()?;
    if require_single_cpu(&now)? != cpu {
        return Err(PinError::NotPinned(now));
    }
    Ok(Pinned {
        allowed_before,
        cpu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list(" 0,2-3,7"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn unpinned_processes_are_refused() {
        assert_eq!(require_single_cpu(&[1]), Ok(1));
        assert_eq!(
            require_single_cpu(&[0, 1]),
            Err(PinError::NotPinned(vec![0, 1]))
        );
        assert_eq!(require_single_cpu(&[]), Err(PinError::NotPinned(vec![])));
    }

    #[test]
    fn only_one_worker_and_one_client_may_share_the_pinned_cpu() {
        assert_eq!(require_closed_loop(WORKERS, CLIENTS), Ok(()));
        assert_eq!(
            require_closed_loop(2, 1),
            Err(PinError::LoadShape {
                workers: 2,
                clients: 1
            })
        );
        assert_eq!(
            require_closed_loop(1, 16),
            Err(PinError::LoadShape {
                workers: 1,
                clients: 16
            })
        );
    }
}
