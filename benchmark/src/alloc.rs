//! Counting global allocator.
//!
//! Every allocation of every thread goes through [`Counting`], which
//! keeps process-wide totals (allocation calls and live heap bytes) in
//! relaxed atomics and the same two figures per thread in const-initialized
//! thread-locals. The process-wide figures feed `bytes_per_stream` and the
//! per-heartbeat allocation counts; the per-thread ones make the
//! self-test exact even while other threads allocate.
//!
//! A `realloc` counts as one allocation call: it may move the block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator: [`System`] plus counters.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, grown: usize, shrunk: usize) {
    ALLOCS.fetch_add(calls, Relaxed);
    LIVE.fetch_add(grown as u64, Relaxed);
    LIVE.fetch_sub(shrunk as u64, Relaxed);
    // `try_with` fails only while the thread's locals are being torn
    // down; the process-wide figures above still count that call.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + calls));
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() + grown as i64 - shrunk as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocated memory and never allocate themselves (const thread-locals
// without destructors, plain atomics).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(1, layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(1, layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks unchanged.
        unsafe { System.dealloc(ptr, layout) };
        note(0, 0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` is a `System` block.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(1, new_size, layout.size());
        }
        p
    }
}

/// Process-wide allocator totals at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls so far (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Heap bytes currently allocated.
    pub live: u64,
}

/// Reads the process-wide totals.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// The calling thread's own totals: allocation calls and net bytes
/// (allocated minus freed by this thread).
pub fn thread_snapshot() -> (u64, i64) {
    (THREAD_ALLOCS.with(Cell::get), THREAD_LIVE.with(Cell::get))
}

/// Checks that the counters see exactly what the thread allocates:
/// one `Vec` of known capacity, grown once, then freed. Runs on the
/// calling thread's counters, so it is exact under concurrency.
pub fn self_test() -> Result<(), String> {
    let (a0, l0) = thread_snapshot();
    let mut v: Vec<u8> = Vec::with_capacity(1000);
    v.push(1);
    let (a1, l1) = thread_snapshot();
    v.reserve_exact(3000 - v.len());
    let cap = v.capacity();
    let (a2, l2) = thread_snapshot();
    drop(std::hint::black_box(v));
    let (a3, l3) = thread_snapshot();
    let got = (a1 - a0, l1 - l0, a2 - a1, l2 - l0, a3 - a2, l3 - l0);
    let want = (1, 1000, 1, cap as i64, 0, 0);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "allocator self-test: got (allocs, bytes) deltas {got:?}, want {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn allocator_counts_exactly() {
        super::self_test().expect("exact counts");
    }

    #[test]
    fn process_totals_move_with_thread_totals() {
        let before = super::snapshot();
        let b = std::hint::black_box(Box::new([0u8; 4096]));
        let during = super::snapshot();
        assert!(during.allocs > before.allocs);
        drop(b);
    }
}
