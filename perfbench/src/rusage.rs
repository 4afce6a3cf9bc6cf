//! Process resource counters through `getrusage(2)`: the peak resident set
//! and the minor page-fault count, read without touching the file system.

/// The two counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Peak resident set size of the process so far, in KiB.
    pub max_rss_kib: u64,
    /// Minor page faults served so far.
    pub minor_faults: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_long};

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub(super) struct Rusage {
        utime: Timeval,
        stime: Timeval,
        pub(super) maxrss: c_long,
        ixrss: c_long,
        idrss: c_long,
        isrss: c_long,
        pub(super) minflt: c_long,
        majflt: c_long,
        nswap: c_long,
        inblock: c_long,
        oublock: c_long,
        msgsnd: c_long,
        msgrcv: c_long,
        nsignals: c_long,
        nvcsw: c_long,
        nivcsw: c_long,
    }

    const RUSAGE_SELF: c_int = 0;

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    /// The calling process's usage, or `None` if the call fails.
    #[allow(unsafe_code)]
    pub(super) fn read() -> Option<Rusage> {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage` laid out as
        // the 64-bit Linux ABI defines it (`repr(C)`, all fields `long`),
        // and `getrusage` writes nothing beyond that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        (rc == 0).then_some(usage)
    }
}

/// The process's counters now; zeros where the platform offers none.
pub fn now() -> Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if let Some(u) = sys::read() {
        return Usage {
            max_rss_kib: u64::try_from(u.maxrss).unwrap_or(0),
            minor_faults: u64::try_from(u.minflt).unwrap_or(0),
        };
    }
    Usage::default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn counters_grow_with_touched_memory() {
        let before = super::now();
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        let after = super::now();
        if cfg!(target_os = "linux") {
            assert!(
                after.max_rss_kib >= 32 << 10,
                "peak rss {} KiB",
                after.max_rss_kib
            );
            assert!(after.minor_faults > before.minor_faults);
        }
    }
}
