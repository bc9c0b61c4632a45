//! Host-side counters, std-only: a user-space retired-instruction
//! counter (raw `perf_event_open`), a counting global allocator, and the
//! process's peak resident set size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and reallocation) and its bytes. The
/// counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations so far: `(count, bytes)`.
pub fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// A user-space-only retired-instruction counter for the calling thread.
pub struct InstrCounter {
    file: std::fs::File,
}

impl InstrCounter {
    /// Opens the counter, enabled from creation. On failure returns the
    /// OS error (for example `EACCES` under a strict
    /// `perf_event_paranoid`, or `ENOENT` where the PMU is not exposed).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub fn open() -> std::io::Result<InstrCounter> {
        use std::os::fd::FromRawFd;
        use std::os::raw::{c_int, c_long};

        extern "C" {
            fn syscall(number: c_long, ...) -> c_long;
        }
        const SYS_PERF_EVENT_OPEN: c_long = 298;
        const PERF_TYPE_HARDWARE: u64 = 0;
        const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
        const ATTR_SIZE: u64 = 128;
        const EXCLUDE_KERNEL: u64 = 1 << 5;
        const EXCLUDE_HV: u64 = 1 << 6;
        const PERF_FLAG_FD_CLOEXEC: c_long = 1 << 3;
        // `struct perf_event_attr` (PERF_ATTR_SIZE_VER7, 128 bytes) as
        // little-endian words: `type` and `size` share word 0, `config`
        // is word 1, and the flag bitfield is word 5 (byte offset 40).
        // Everything else stays zero: counting mode, not disabled.
        let mut attr = [0u64; 16];
        attr[0] = PERF_TYPE_HARDWARE | (ATTR_SIZE << 32);
        attr[1] = PERF_COUNT_HW_INSTRUCTIONS;
        attr[5] = EXCLUDE_KERNEL | EXCLUDE_HV;
        // SAFETY: `attr` is a live, 8-byte-aligned, 128-byte buffer laid
        // out as the kernel's `perf_event_attr` with `size` = 128, and it
        // outlives the call. The remaining arguments are plain integers:
        // pid 0 (this thread), cpu -1 (any), no group, close-on-exec.
        // The syscall only reads `attr` and returns a new fd or -1.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                attr.as_ptr(),
                0 as c_int,
                -1 as c_int,
                -1 as c_int,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let fd = c_int::try_from(fd).expect("file descriptors fit c_int");
        // SAFETY: `fd` was just returned by the kernel, is open, and is
        // owned by nothing else; the `File` takes sole ownership.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        Ok(InstrCounter { file })
    }

    /// The counter is Linux/x86_64 only.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub fn open() -> std::io::Result<InstrCounter> {
        Err(std::io::Error::from(std::io::ErrorKind::Unsupported))
    }

    /// Instructions retired in user space since the counter opened.
    pub fn read(&mut self) -> u64 {
        use std::io::Read;
        let mut buf = [0u8; 8];
        self.file
            .read_exact(&mut buf)
            .expect("an open perf counter always yields 8 bytes");
        u64::from_ne_bytes(buf)
    }
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
