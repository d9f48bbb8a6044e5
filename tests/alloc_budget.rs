//! Allocation budget of the enumeration core, measured with a
//! call-counting global allocator (hence a test binary of its own).
//!
//! Costing a candidate must not touch the allocator, and neither may
//! retaining it, evicting it, pruning its JCR or keeping that JCR for
//! the levels above: a plan is a record inside its group, groups sit
//! in per-run buffers that grow a level at a time, and only a JCR that
//! keeps more than two plans spills. What allocates is per run (the
//! context's tables, the access paths, the level buffers) or per level
//! (its survivor list and index, the memo's growth) — and the served
//! plan's nodes. The budget is stated per plan costed, the paper's
//! effort unit, so it holds at any query size.
//!
//! The same allocator counts live bytes, for what the durable store
//! may keep resident per persisted plan: a frame reference, not the
//! plan's bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdp::core::{Budget, EnumContext, EnumeratorKind, RunStats};
use sdp::prelude::*;

thread_local! {
    /// Allocator calls made by the current thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counter is no longer reachable.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn hold(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` (no destructor, no allocation). The provided
// `alloc_zeroed` and `realloc` go through `alloc` (and `dealloc`), so
// each is counted once as well.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls the current thread makes while running `f`.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Allocator calls, and the run's counters, of one run (every
/// allocation of which lands on this thread).
fn calls_of_a_run(topology: Topology, algorithm: Algorithm) -> (u64, RunStats) {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let query = QueryGenerator::new(&catalog, topology, 7).instance(0);
    let (plan, calls) = calls_during(|| optimizer.optimize(&query, algorithm).unwrap());
    println!(
        "{topology} {}: {calls} allocator calls for {} plans costed ({:.4} per plan), {} JCRs",
        algorithm.label(),
        plan.stats.plans_costed,
        calls as f64 / plan.stats.plans_costed as f64,
        plan.stats.jcrs_processed
    );
    (calls, plan.stats)
}

fn calls_per_plan(topology: Topology, algorithm: Algorithm) -> f64 {
    let (calls, stats) = calls_of_a_run(topology, algorithm);
    calls as f64 / stats.plans_costed as f64
}

/// Allocator calls, and the run's counters, of the enumeration alone
/// over the rewritten query: the incumbent-bounded DP `Algorithm::Dp`
/// runs (`bounded`), or the unbounded one, which costs every connected
/// subgraph.
fn calls_of_the_enumeration(topology: Topology, bounded: bool) -> (u64, RunStats) {
    let catalog = Catalog::paper();
    let model = CostModel::with_defaults(&catalog);
    let mut query = QueryGenerator::new(&catalog, topology, 7).instance(0);
    sdp::query::infer_transitive_edges(&mut query.graph);
    let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
    let (_, calls) = calls_during(|| {
        if bounded {
            sdp::core::dp::optimize_dp(&mut ctx)
        } else {
            sdp::core::dp::optimize_complete(&mut ctx)
        }
        .unwrap()
    });
    let stats = ctx.stats();
    println!(
        "{topology} DP (bounded: {bounded}): {calls} allocator calls for {} plans costed \
         ({:.4} per plan), {} JCRs",
        stats.plans_costed,
        calls as f64 / stats.plans_costed as f64,
        stats.jcrs_processed
    );
    (calls, stats)
}

#[test]
fn exhaustive_dp_stays_under_the_allocation_budget() {
    // Per plan costed, the unbounded enumeration; and the bound, which
    // costs a fraction of its plans, allocates no more than it does:
    // its greedy keeps no plan and the barrier drops JCRs in place.
    for topology in [Topology::Star(10), Topology::star_chain(12)] {
        let (unbounded, stats) = calls_of_the_enumeration(topology, false);
        let per_plan = unbounded as f64 / stats.plans_costed as f64;
        assert!(per_plan < 0.02, "{topology}: {per_plan:.4} per plan");
        let (bounded, _) = calls_of_the_enumeration(topology, true);
        assert!(
            bounded <= unbounded,
            "{topology}: {bounded} allocator calls bounded, {unbounded} unbounded"
        );
    }
}

#[test]
fn sdp_stays_under_the_allocation_budget() {
    // Fewer plans per JCR than exhaustive DP, and the pruner's own
    // (reused) buffers: a wider budget, which an allocation per JCR —
    // pruned or kept — would still break.
    let topology = Topology::star_chain(16);
    let per_plan = calls_per_plan(topology, Algorithm::Sdp(SdpConfig::paper()));
    assert!(per_plan < 0.05, "{topology}: {per_plan:.4} per plan");
}

#[test]
fn allocations_follow_levels_not_jcrs() {
    // Three more spokes are eight times the JCRs and three more levels:
    // a run that allocated per JCR — a node, an entry vector — would
    // allocate about eight times as often. The unbounded enumeration
    // creates every connected subgraph, so the JCR counts are known.
    let (small_calls, small) = calls_of_the_enumeration(Topology::Star(9), false);
    let (large_calls, large) = calls_of_the_enumeration(Topology::Star(12), false);
    assert_eq!(
        (small.jcrs_processed, large.jcrs_processed),
        (256 + 8, 2048 + 11)
    );
    assert!(
        large_calls < 2 * small_calls,
        "{small_calls} allocator calls at Star-9, {large_calls} at Star-12"
    );
}

#[test]
fn costing_a_dominated_pair_does_not_allocate() {
    // The second costing of a pair offers the first one's plans again:
    // every one is dominated (an equal plan is in the group), so the
    // group keeps none of what the pair retained among itself — and
    // that, too, was held inline.
    let catalog = Catalog::paper();
    let model = CostModel::with_defaults(&catalog);
    let query = QueryGenerator::new(&catalog, Topology::Star(4), 7).instance(0);
    let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
    (0..4).for_each(|i| ctx.ensure_base_group(i));
    let (hub, spoke) = (RelSet::single(0), RelSet::single(1));
    assert!(ctx.join_pair(hub, spoke), "first costing creates the JCR");
    let plans_costed = ctx.plans_costed;
    let (created, calls) = calls_during(|| ctx.join_pair(hub, spoke));
    assert!(!created);
    assert!(ctx.plans_costed > plans_costed, "the pair was costed again");
    assert_eq!(calls, 0);
}

#[test]
fn the_store_holds_a_frame_reference_per_plan_not_its_bytes() {
    use sdp_store::{PlanRecord, PlanStore, RecordKey, StoreOptions};

    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let query = QueryGenerator::new(&catalog, Topology::star_chain(14), 7).instance(0);
    let plan = optimizer
        .optimize(&query, Algorithm::Sdp(SdpConfig::paper()))
        .unwrap();
    let dir = std::env::temp_dir().join(format!("sdp-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _, _) =
        PlanStore::open(&dir, 1, StoreOptions::default(), Default::default()).unwrap();

    const APPENDS: usize = 200;
    let mut record = PlanRecord {
        fingerprint: 0,
        stats_epoch: 1,
        rung: Some(Rung::Sdp),
        enumerator: EnumeratorKind::LevelScan,
        algo_repr: "Dp".to_string(),
        strategy: "SDP".to_string(),
        degradations: 1,
        cost: plan.cost,
        rows: plan.rows,
        root: plan.root,
    };
    let before = LIVE_BYTES.with(Cell::get);
    for fingerprint in 0..APPENDS {
        record.fingerprint = fingerprint as u128;
        store.append(&record).unwrap();
    }
    let held = LIVE_BYTES.with(Cell::get) - before;
    assert_eq!(store.live_len(), APPENDS);
    let keys = APPENDS * (std::mem::size_of::<RecordKey>() + record.algo_repr.len());
    let per_record = (held - keys as i64) / APPENDS as i64;
    println!("{held} B held for {APPENDS} live records, {per_record} B each beyond the key");
    // A Star-Chain-14 plan encodes to over a kilobyte.
    assert!(per_record < 100, "{per_record} B per live record");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
