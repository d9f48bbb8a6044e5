//! The benchmark's counting allocator: calls, bytes requested, live
//! bytes and the live-bytes high-water mark.
//!
//! Allocation counts are the benchmark's noise-proof cost figures — on
//! a shared host they repeat exactly where wall time drifts by
//! percents — so they are taken at the allocator itself, not
//! estimated. `sdp_metrics::alloc` tracks live and peak bytes only;
//! the per-request figures need the call and byte totals as well.
//!
//! Counting must not slow what it counts. Five atomic read-modify-write
//! operations per allocate/free pair cost 28 ns here, which made a
//! cache hit (291 pairs) 27 % and a governed miss 34 % slower than
//! uncounted. So the one thread that issues requests — the *client*,
//! whichever thread called [`adopt_client`] — counts in plain
//! thread-local cells, and only the other threads (the store's
//! write-behind thread, a daemon worker) pay for atomics. Totals are
//! the client's cells plus the shared atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

thread_local! {
    // Const-initialized and without destructors, so the allocator can
    // touch them at any point of a thread's life without allocating.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    static CLIENT_CALLS: Cell<u64> = const { Cell::new(0) };
    static CLIENT_BYTES: Cell<u64> = const { Cell::new(0) };
    // Signed: memory allocated by one thread and freed by another
    // leaves the two with opposite amounts.
    static CLIENT_LIVE: Cell<i64> = const { Cell::new(0) };
    static CLIENT_PEAK: Cell<i64> = const { Cell::new(0) };
}

// Every thread but the client. Relaxed throughout: each is a statistic
// that publishes no other data.
static SHARED_CALLS: AtomicU64 = AtomicU64::new(0);
static SHARED_BYTES: AtomicU64 = AtomicU64::new(0);
static SHARED_LIVE: AtomicI64 = AtomicI64::new(0);

/// Set while [`uncounted`] runs: nobody counts.
static PAUSED: AtomicBool = AtomicBool::new(false);

/// `System` plus the counters.
#[derive(Debug)]
pub struct CountingAllocator;

/// Account an allocator call that requested `bytes` more.
fn grew(bytes: u64) {
    if PAUSED.load(Ordering::Relaxed) {
        return;
    }
    if IS_CLIENT.get() {
        CLIENT_CALLS.set(CLIENT_CALLS.get() + 1);
        CLIENT_BYTES.set(CLIENT_BYTES.get() + bytes);
        let live = CLIENT_LIVE.get() + bytes as i64;
        CLIENT_LIVE.set(live);
        // The high-water mark is kept where the client allocates: what
        // other threads hold at that moment counts, a peak they alone
        // cause between two client allocations does not.
        let total = live + SHARED_LIVE.load(Ordering::Relaxed);
        if total > CLIENT_PEAK.get() {
            CLIENT_PEAK.set(total);
        }
    } else {
        SHARED_CALLS.fetch_add(1, Ordering::Relaxed);
        SHARED_BYTES.fetch_add(bytes, Ordering::Relaxed);
        SHARED_LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
    }
}

/// Account `bytes` given back.
fn shrank(bytes: u64) {
    if PAUSED.load(Ordering::Relaxed) {
        return;
    }
    if IS_CLIENT.get() {
        CLIENT_LIVE.set(CLIENT_LIVE.get() - bytes as i64);
    } else {
        SHARED_LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around it touches
// only atomics and const-initialized thread-local cells, and never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // hence from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A call either way; a shrinking one requests nothing.
            let (old, new) = (layout.size() as u64, new_size as u64);
            grew(new.saturating_sub(old));
            shrank(old.saturating_sub(new));
        }
        p
    }
}

/// Make the calling thread the client: from here on it counts without
/// atomics. Call it once, from the thread that will issue the requests,
/// before anything is measured. What the thread counted until now stays
/// in the shared totals.
pub fn adopt_client() {
    IS_CLIENT.set(true);
}

/// Run `measured` with counting switched off on every thread: for
/// comparing the client with another thread (the daemon's worker, a
/// second enumeration thread), which would otherwise be the only one
/// paying for atomics. Everything `measured` allocates it must also
/// free, or live bytes go wrong from here on.
pub fn uncounted<T>(measured: impl FnOnce() -> T) -> T {
    PAUSED.store(true, Ordering::Relaxed);
    let value = measured();
    PAUSED.store(false, Ordering::Relaxed);
    value
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far, all threads.
    pub calls: u64,
    /// Bytes requested so far (a growing `realloc` counts its growth).
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
    /// Highest `live` the client saw since the last [`reset_peak`].
    pub peak: u64,
}

/// Read the totals. Meaningful on the client thread, whose cells are
/// part of them.
pub fn snapshot() -> AllocSnapshot {
    let live = CLIENT_LIVE.get() + SHARED_LIVE.load(Ordering::Relaxed);
    AllocSnapshot {
        calls: CLIENT_CALLS.get() + SHARED_CALLS.load(Ordering::Relaxed),
        bytes: CLIENT_BYTES.get() + SHARED_BYTES.load(Ordering::Relaxed),
        live: live.max(0) as u64,
        peak: CLIENT_PEAK.get().max(live).max(0) as u64,
    }
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    CLIENT_PEAK.set(CLIENT_LIVE.get() + SHARED_LIVE.load(Ordering::Relaxed));
}
