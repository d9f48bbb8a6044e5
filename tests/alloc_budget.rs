//! Allocation budget of the enumeration core, measured with a
//! call-counting global allocator (hence a test binary of its own).
//!
//! Costing a candidate must not touch the allocator, and neither may
//! retaining it, evicting it, pruning its JCR or keeping that JCR for
//! the levels above: a plan is a record inside its group, groups sit
//! in buffers that live for the run, and only a JCR that keeps more
//! than two plans spills. What allocates is the nodes — of the access
//! paths and of the served plan — and a logarithmic number of growth
//! steps of the run's buffers (the context's tables, the join classes,
//! the survivor table, the stage, the pruner's scratch), plus the memo,
//! which grows with the levels' survivors: nothing per JCR, per join
//! class or per level. Budgets are stated per JCR processed, the unit
//! an allocation per JCR would show in (plans costed moves with every
//! costing shortcut, allocations do not), so they hold at any query
//! size, and per optimization of the benchmark's two cold workloads.
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
        "{topology} {}: {calls} allocator calls for {} JCRs ({:.4} per JCR), {} plans costed",
        algorithm.label(),
        plan.stats.jcrs_processed,
        calls as f64 / plan.stats.jcrs_processed as f64,
        plan.stats.plans_costed
    );
    (calls, plan.stats)
}

fn calls_per_jcr(topology: Topology, algorithm: Algorithm) -> f64 {
    let (calls, stats) = calls_of_a_run(topology, algorithm);
    calls as f64 / stats.jcrs_processed as f64
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
        "{topology} DP (bounded: {bounded}): {calls} allocator calls for {} JCRs \
         ({:.4} per JCR), {} plans costed",
        stats.jcrs_processed,
        calls as f64 / stats.jcrs_processed as f64,
        stats.plans_costed
    );
    (calls, stats)
}

#[test]
fn exhaustive_dp_stays_under_the_allocation_budget() {
    // Per JCR processed, the unbounded enumeration: an allocation per
    // JCR — a node, an entry vector — would be at least one each, where
    // the run's allocations follow its levels. And the bound, which
    // costs a fraction of its plans, allocates no more than it does:
    // its greedy keeps no plan and the barrier drops JCRs in place.
    for topology in [Topology::Star(10), Topology::star_chain(12)] {
        let (unbounded, stats) = calls_of_the_enumeration(topology, false);
        let per_jcr = unbounded as f64 / stats.jcrs_processed as f64;
        assert!(per_jcr < 0.25, "{topology}: {per_jcr:.4} per JCR");
        let (bounded, _) = calls_of_the_enumeration(topology, true);
        assert!(
            bounded <= unbounded,
            "{topology}: {bounded} allocator calls bounded, {unbounded} unbounded"
        );
    }
}

#[test]
fn sdp_stays_under_the_allocation_budget() {
    // Fewer JCRs to spread a run's allocations over than exhaustive DP,
    // and the pruner's own (reused) buffers: a wider budget, which an
    // allocation per JCR — pruned or kept — would still break.
    let topology = Topology::star_chain(16);
    let per_jcr = calls_per_jcr(topology, Algorithm::Sdp(SdpConfig::paper()));
    assert!(per_jcr < 0.4, "{topology}: {per_jcr:.4} per JCR");
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

/// The access-path nodes an optimization of `query` builds, however it
/// is run: one per path a base group is offered — the sequential scan,
/// the full index scan where its column joins (its order is then worth
/// offering) and the range scan where a filter drives it.
fn access_path_nodes(catalog: &Catalog, query: &Query) -> u64 {
    let model = CostModel::with_defaults(catalog);
    let graph = &query.graph;
    (0..graph.len())
        .map(|node| {
            let indexed = catalog
                .relation(graph.relation(node))
                .unwrap()
                .indexed_column;
            let joins = graph
                .edges()
                .iter()
                .flat_map(|e| [e.left, e.right])
                .any(|c| c.node == node && c.col == indexed);
            let range = model
                .scan_paths_for_node(graph, node)
                .iter()
                .any(|p| p.kind == sdp::cost::ScanKind::IndexRange);
            1 + u64::from(joins) + u64::from(range)
        })
        .sum()
}

/// Allocator calls of one `Optimizer::optimize` of instance `k` of
/// `topology`, and the calls it cannot avoid: the nodes of the access
/// paths and those the plan it serves adds above its scans.
fn calls_beside_nodes(topology: Topology, algorithm: Algorithm, k: u64) -> (u64, u64) {
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let query = QueryGenerator::new(&catalog, topology, 7).instance(k);
    let (plan, calls) = calls_during(|| optimizer.optimize(&query, algorithm).unwrap());
    let scans = query.num_relations();
    let nodes = access_path_nodes(&catalog, &query) + (plan.root.node_count() - scans) as u64;
    println!(
        "{topology} {} #{k}: {calls} allocator calls, {nodes} of them nodes",
        algorithm.label()
    );
    (calls, nodes)
}

#[test]
fn allocations_follow_the_run_not_the_levels() {
    // Eight more relations are eight more levels, groups and join
    // classes. Beside the nodes, what an optimization allocates is its
    // run-scoped buffers' growth, a logarithmic number of steps: a
    // buffer per level, group or class would add eight calls or more.
    let sdp = Algorithm::Sdp(SdpConfig::paper());
    for k in 0..3 {
        let (small, small_nodes) = calls_beside_nodes(Topology::star_chain(16), sdp, k);
        let (large, large_nodes) = calls_beside_nodes(Topology::star_chain(24), sdp, k);
        let (small, large) = (small - small_nodes, large - large_nodes);
        println!("instance {k}: {small} calls beside the nodes at 16 relations, {large} at 24");
        assert!(
            large <= small + 32,
            "instance {k}: {small} allocator calls beside the nodes at Star-Chain-16, {large} at Star-Chain-24"
        );
    }
}

#[test]
fn an_optimization_stays_under_its_allocation_budget() {
    // The benchmark's two cold workloads, per optimization: SDP on
    // Star-Chain-23 and exhaustive DP on Star-12.
    for (topology, algorithm, budget) in [
        (
            Topology::star_chain(23),
            Algorithm::Sdp(SdpConfig::paper()),
            210,
        ),
        (Topology::Star(12), Algorithm::Dp, 120),
    ] {
        for k in 0..4 {
            let (calls, _) = calls_beside_nodes(topology, algorithm, k);
            assert!(
                calls <= budget,
                "{topology} {} #{k}: {calls} allocator calls, over {budget}",
                algorithm.label()
            );
        }
    }
}

#[test]
fn a_served_plan_keeps_72_bytes_a_node() {
    // What the service caches is the plan. Once its run is gone, each
    // node is one `Arc` allocation — a node of at most 56 bytes and the
    // `Arc`'s two counts — and nothing of the run stays with it.
    const SLACK: i64 = 64;
    let catalog = Catalog::paper();
    let optimizer = Optimizer::new(&catalog);
    let generator = QueryGenerator::new(&catalog, Topology::star_chain(23), 7);
    let sdp = Algorithm::Sdp(SdpConfig::paper());
    // A first run settles whatever the process initializes once.
    drop(optimizer.optimize(&generator.instance(0), sdp).unwrap());
    for k in 0..4 {
        let query = generator.instance(k);
        let before = LIVE_BYTES.with(Cell::get);
        let root = optimizer.optimize(&query, sdp).unwrap().root;
        let kept = LIVE_BYTES.with(Cell::get) - before;
        let nodes = root.node_count() as i64;
        println!(
            "Star-Chain-23 SDP #{k}: {kept} B kept by a plan of {nodes} nodes ({:.1} B a node)",
            kept as f64 / nodes as f64
        );
        assert!(
            kept <= 72 * nodes + SLACK,
            "#{k}: {kept} B kept by {nodes} nodes"
        );
    }
}

#[test]
fn a_latency_sample_under_a_known_label_does_not_allocate() {
    // The service files every fresh enumeration's time under what
    // produced its plan: a label the table holds already costs no key,
    // only a new one does.
    use sdp::metrics::RungLatencies;
    use std::time::Duration;

    let rungs = RungLatencies::new();
    let sample = Duration::from_micros(700);
    let (_, first) = calls_during(|| rungs.record("SDP", sample));
    assert!(first > 0, "a new label allocates its key");
    let (_, again) = calls_during(|| rungs.record("SDP", sample));
    assert_eq!(again, 0);
    assert_eq!(rungs.snapshot()["SDP"].count, 2);
}

#[test]
fn an_empty_service_holds_neither_a_catalog_copy_nor_cache_slots() {
    // A service shares its caller's catalog snapshot and grows its
    // cache with what it holds. Before either, an empty service held
    // 442 263 B: a 225 815 B copy of the catalog (1 302 allocations)
    // and 216 448 B, nearly all of it cache slots and index buckets
    // allocated up front. It now holds 1 264 B.
    use sdp::service::{OptimizerService, ServiceConfig};

    let before = LIVE_BYTES.with(Cell::get);
    let catalog = Catalog::paper();
    let catalog_bytes = LIVE_BYTES.with(Cell::get) - before;
    let (snapshot, calls) = calls_during(|| catalog.clone());
    assert_eq!(calls, 0, "a catalog clone shares its slices");
    let before = LIVE_BYTES.with(Cell::get);
    let _service = OptimizerService::new(snapshot, ServiceConfig::default());
    let held = LIVE_BYTES.with(Cell::get) - before;
    println!("Catalog::paper() holds {catalog_bytes} B; an empty service {held} B");
    assert!(held < 8 << 10, "an empty service holds {held} B");
}
