//! Versioned, deterministic binary codec for optimized plans and
//! dead-letter records.
//!
//! Hand-rolled little-endian encoding, like every other wire format in
//! the workspace (metrics JSON, chrome traces): the formats are small
//! and taking a serialization dependency for them would be the tail
//! wagging the dog. Determinism is structural — encoding visits the
//! plan tree pre-order and every field has a fixed width or an
//! explicit length prefix — so equal records encode to equal bytes on
//! every platform.
//!
//! # Round-trip guarantee
//!
//! `decode(encode(p))` reconstructs the plan tree field-for-field:
//! operator tags come from the *same* stable-tag surface
//! ([`PlanOp::stable_tag`], `JoinMethod::stable_tag`,
//! `Rung::stable_tag`, `EnumeratorKind::stable_tag`) that
//! [`PlanNode::structural_digest`] hashes, and rows/costs are stored
//! as exact `f64` bit patterns — so a decoded plan digests identically
//! to the one encoded, which is what "bit-identical for costing and
//! explain" means operationally. The encoder embeds the root digest
//! and the decoder re-derives and checks it, so a codec regression
//! fails loudly at decode time instead of silently serving a mutated
//! plan.
//!
//! Every payload opens with a version byte. Records written by a
//! future format version fail decoding with a versioned error; the
//! segment replayer skips (and counts) them rather than refusing the
//! whole log. Older supported versions decode compatibly:
//!
//! * **v1 → v2** — v2 appends the query's `GROUP BY` column to the
//!   dead-letter query encoding (plan payloads are byte-identical
//!   apart from the version stamp). v1 records decode with
//!   `group_by = None` — they replay group-blind rather than being
//!   dropped.

use std::sync::Arc;

use sdp_catalog::{ColId, RelId};
use sdp_core::{Algorithm, DegradeReason, EnumeratorKind, PlanNode, PlanOp, Rung, SdpConfig};
use sdp_cost::JoinMethod;
use sdp_query::{ClassId, ColRef, JoinEdge, JoinGraph, PredOp, Predicate, Query, RelSet};

use crate::StoreError;

/// Current codec version, stamped on every payload.
pub const CODEC_VERSION: u8 = 2;

/// Oldest codec version this build still decodes.
pub const MIN_CODEC_VERSION: u8 = 1;

/// One persisted plan: the record of the `(fingerprint, stats_epoch,
/// rung) → plan` map plus the provenance the service layer caches
/// alongside.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// WL fingerprint of the query the plan answers.
    pub fingerprint: u128,
    /// Statistics epoch the plan was optimized under.
    pub stats_epoch: u64,
    /// Ladder rung that produced the plan: always `Some` when written
    /// now, `None` only in records of the retired off-ladder
    /// strategies.
    pub rung: Option<Rung>,
    /// The pair-generation tag; one value is left (see
    /// [`EnumeratorKind`]).
    pub enumerator: EnumeratorKind,
    /// Identity of the *requested* strategy (its `Debug` rendering) —
    /// the in-memory cache folds this into the plan key, so warm
    /// restart must reproduce it exactly.
    pub algo_repr: String,
    /// Display label of the strategy that produced the plan.
    pub strategy: String,
    /// Ladder descents taken while producing the plan.
    pub degradations: u64,
    /// Estimated plan cost.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Root of the plan tree.
    pub root: Arc<PlanNode>,
}

/// Why a request landed in the dead-letter queue. Tag 3 (caller
/// cancellation, which left the optimizer) is retired and never
/// reused: a record carrying it fails to decode and is skipped and
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlqErrorKind {
    /// The deadline expired on the bottom rung.
    Timeout,
    /// The memory budget tripped on the bottom rung.
    Memory,
    /// The single-flight leader panicked and the bounded retry was
    /// exhausted.
    LeaderPanicked,
    /// Any other terminal error.
    Other,
    /// The fingerprint's circuit breaker was open: the request was
    /// rejected fast without entering enumeration.
    BreakerOpen,
}

impl DlqErrorKind {
    fn stable_tag(self) -> u8 {
        match self {
            DlqErrorKind::Timeout => 1,
            DlqErrorKind::Memory => 2,
            DlqErrorKind::LeaderPanicked => 4,
            DlqErrorKind::Other => 5,
            DlqErrorKind::BreakerOpen => 6,
        }
    }

    fn from_stable_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(DlqErrorKind::Timeout),
            2 => Some(DlqErrorKind::Memory),
            4 => Some(DlqErrorKind::LeaderPanicked),
            5 => Some(DlqErrorKind::Other),
            6 => Some(DlqErrorKind::BreakerOpen),
            _ => None,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            DlqErrorKind::Timeout => "timeout",
            DlqErrorKind::Memory => "memory",
            DlqErrorKind::LeaderPanicked => "leader-panicked",
            DlqErrorKind::Other => "other",
            DlqErrorKind::BreakerOpen => "breaker-open",
        }
    }
}

/// One descent recorded in a dead-letter record (the deterministic
/// facts of a `DegradeEvent`; elapsed wall-clock stays out of the
/// persisted form, same policy as trace canonicalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlqDegradation {
    /// Rung abandoned.
    pub from: Rung,
    /// Rung descended to.
    pub to: Rung,
    /// Why.
    pub reason: DegradeReason,
}

/// A failed request serialized as a replayable artifact: the query
/// canon (structural encoding + rendered SQL), the fault context, and
/// the ladder-descent history.
#[derive(Debug, Clone)]
pub struct DlqRecord {
    /// WL fingerprint of the failing query.
    pub fingerprint: u128,
    /// Statistics epoch the failure happened under.
    pub stats_epoch: u64,
    /// The pinned strategy, canonicalized; `None` when the request let
    /// the topology selector choose (re-optimization re-runs the
    /// selector, which is deterministic for a given query).
    pub algorithm: Option<Algorithm>,
    /// Error classification.
    pub error_kind: DlqErrorKind,
    /// Rendered error message.
    pub error: String,
    /// Ladder descents taken before the run gave up.
    pub degradations: Vec<DlqDegradation>,
    /// The original request's deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// The original request's memory budget in bytes, if any.
    pub memory_bytes: Option<u64>,
    /// The query rendered as SQL (human-readable canon).
    pub sql: String,
    /// The query itself, structurally encoded for deterministic
    /// re-optimization.
    pub query: Query,
}

// ---------------------------------------------------------------------
// byte-level helpers

/// The little-endian writer of every payload this crate encodes, and of
/// the flight log's (`sdp-obs`): fixed-width integers, `f64` bit
/// patterns, and `u16`-prefixed counts and UTF-8 strings. A length its
/// prefix cannot express is refused as [`StoreError::TooLong`], never
/// wrapped.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Writer(Vec::with_capacity(256))
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its exact bit pattern.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A count or length as a `u16` prefix; `field` names it in the
    /// [`StoreError::TooLong`] a `len` over `u16::MAX` is refused with.
    pub fn len_u16(&mut self, field: &'static str, len: usize) -> Result<(), StoreError> {
        let prefix = u16::try_from(len).map_err(|_| StoreError::TooLong { field, len })?;
        self.u16(prefix);
        Ok(())
    }

    /// A UTF-8 string behind its `u16` byte length (see
    /// [`Writer::len_u16`]).
    pub fn str(&mut self, field: &'static str, s: &str) -> Result<(), StoreError> {
        self.len_u16(field, s.len())?;
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// The bytes written.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// The reader of [`Writer`]'s payloads. Every read checks the bytes
/// left, so a short or corrupt payload is a [`StoreError::Codec`],
/// never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(StoreError::Codec(format!(
                "record truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, StoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// An `f64` from its bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A UTF-8 string behind its `u16` byte length.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Codec(format!("invalid utf-8 string: {e}")))
    }

    /// Refuse bytes left over after the record.
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(StoreError::Codec(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn check_version(reader: &mut Reader<'_>) -> Result<u8, StoreError> {
    let version = reader.u8()?;
    if !(MIN_CODEC_VERSION..=CODEC_VERSION).contains(&version) {
        return Err(StoreError::Codec(format!(
            "unsupported codec version {version} \
             (this build reads {MIN_CODEC_VERSION}..={CODEC_VERSION})"
        )));
    }
    Ok(version)
}

// ---------------------------------------------------------------------
// plan trees

fn encode_node(w: &mut Writer, node: &PlanNode) {
    w.u8(node.op.stable_tag());
    match node.op {
        PlanOp::SeqScan { rel, node: idx } => {
            w.u32(rel.0);
            w.u16(idx);
        }
        PlanOp::IndexScan {
            rel,
            node: idx,
            col,
        } => {
            w.u32(rel.0);
            w.u16(idx);
            w.u16(col.0);
        }
        PlanOp::Join { method, .. } => w.u8(method.stable_tag()),
        PlanOp::Sort { class, .. } => w.u32(class),
    }
    w.u64(node.set.0);
    w.f64_bits(node.rows);
    w.f64_bits(node.cost);
    w.u64(match node.ordering {
        None => u64::MAX,
        Some(class) => class as u64,
    });
    let children = node.children();
    w.u8(children.len() as u8);
    for child in children {
        encode_node(w, child);
    }
}

/// An operator as a node's bytes open with it: its inputs come last.
enum OpHead {
    Scan(PlanOp),
    Join(JoinMethod),
    Sort(ClassId),
}

fn decode_node(r: &mut Reader<'_>) -> Result<Arc<PlanNode>, StoreError> {
    let tag = r.u8()?;
    let head = match tag {
        1 => OpHead::Scan(PlanOp::SeqScan {
            rel: RelId(r.u32()?),
            node: r.u16()?,
        }),
        2 => OpHead::Scan(PlanOp::IndexScan {
            rel: RelId(r.u32()?),
            node: r.u16()?,
            col: ColId(r.u16()?),
        }),
        3 => {
            let m = r.u8()?;
            OpHead::Join(
                JoinMethod::from_stable_tag(m)
                    .ok_or_else(|| StoreError::Codec(format!("unknown join-method tag {m}")))?,
            )
        }
        4 => OpHead::Sort(r.u32()?),
        other => {
            return Err(StoreError::Codec(format!("unknown plan-op tag {other}")));
        }
    };
    let set = RelSet(r.u64()?);
    let rows = r.f64_bits()?;
    let cost = r.f64_bits()?;
    let ordering = match r.u64()? {
        u64::MAX => None,
        class if class <= u64::from(u32::MAX) => Some(class as u32),
        other => {
            return Err(StoreError::Codec(format!(
                "implausible ordering class {other}"
            )));
        }
    };
    if !rows.is_finite() || rows < 0.0 || !cost.is_finite() || cost < 0.0 {
        return Err(StoreError::Codec(format!(
            "implausible node estimates (rows {rows}, cost {cost})"
        )));
    }
    let children = r.u8()?;
    let arity = match head {
        OpHead::Scan(_) => 0,
        OpHead::Sort(_) => 1,
        OpHead::Join(_) => 2,
    };
    if children != arity {
        return Err(StoreError::Codec(format!(
            "{children} children under plan-op tag {tag}"
        )));
    }
    let op = match head {
        OpHead::Scan(op) => op,
        OpHead::Join(method) => PlanOp::Join {
            method,
            inputs: [decode_node(r)?, decode_node(r)?],
        },
        OpHead::Sort(class) => PlanOp::Sort {
            class,
            input: [decode_node(r)?],
        },
    };
    Ok(PlanNode::new(op, set, rows, cost, ordering))
}

/// Read the pair-generation tag byte both record kinds carry. Only
/// tag 1 (`levelscan`) is live; 2 (`dpccp`) and 3 (the single-tree
/// surrogate prototype) are retired and never reused. A record
/// carrying one came from pair generation that no longer exists: it
/// fails here, and the replayers skip and count it as undecodable
/// instead of serving it.
fn decode_enumerator(r: &mut Reader<'_>) -> Result<EnumeratorKind, StoreError> {
    let tag = r.u8()?;
    EnumeratorKind::from_stable_tag(tag)
        .ok_or_else(|| StoreError::Codec(format!("unknown or retired enumerator tag {tag}")))
}

// ---------------------------------------------------------------------
// plan records

/// Encode a plan record as one log payload.
pub fn encode_plan(record: &PlanRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CODEC_VERSION);
    w.u128(record.fingerprint);
    w.u64(record.stats_epoch);
    w.u8(record.rung.map(|r| r.stable_tag()).unwrap_or(0));
    w.u8(record.enumerator.stable_tag());
    // Both are labels (`Algorithm::label`, `GovernedPlan::rung_label`),
    // a few bytes long: never near the prefix's limit.
    let label = "a label fits its length prefix";
    w.str("algo_repr", &record.algo_repr).expect(label);
    w.str("strategy", &record.strategy).expect(label);
    w.u64(record.degradations);
    w.f64_bits(record.cost);
    w.f64_bits(record.rows);
    w.u64(record.root.structural_digest());
    encode_node(&mut w, &record.root);
    w.finish()
}

/// Decode a plan record. The embedded structural digest is re-checked
/// so a corrupt-but-CRC-valid or version-skewed payload cannot smuggle
/// in a mutated plan, and so are the tree's invariants
/// ([`PlanNode::check_invariants`]): the decoder refuses a tree the
/// optimizer could not have served, a node's arity and a scan's node
/// index included.
pub fn decode_plan(payload: &[u8]) -> Result<PlanRecord, StoreError> {
    let mut r = Reader::new(payload);
    check_version(&mut r)?;
    let fingerprint = r.u128()?;
    let stats_epoch = r.u64()?;
    let rung = match r.u8()? {
        0 => None,
        tag => Some(
            Rung::from_stable_tag(tag)
                .ok_or_else(|| StoreError::Codec(format!("unknown rung tag {tag}")))?,
        ),
    };
    let enumerator = decode_enumerator(&mut r)?;
    let algo_repr = r.str()?;
    let strategy = r.str()?;
    let degradations = r.u64()?;
    let cost = r.f64_bits()?;
    let rows = r.f64_bits()?;
    let digest = r.u64()?;
    let root = decode_node(&mut r)?;
    r.finish()?;
    if root.structural_digest() != digest {
        return Err(StoreError::Codec(
            "plan digest mismatch after decode".to_string(),
        ));
    }
    root.check_invariants()
        .map_err(|e| StoreError::Codec(format!("decoded plan is malformed: {e}")))?;
    Ok(PlanRecord {
        fingerprint,
        stats_epoch,
        rung,
        enumerator,
        algo_repr,
        strategy,
        degradations,
        cost,
        rows,
        root,
    })
}

// ---------------------------------------------------------------------
// queries and algorithms (dead-letter records)

fn pred_op_tag(op: PredOp) -> u8 {
    match op {
        PredOp::Eq => 1,
        PredOp::Lt => 2,
        PredOp::Le => 3,
        PredOp::Gt => 4,
        PredOp::Ge => 5,
    }
}

fn pred_op_from_tag(tag: u8) -> Option<PredOp> {
    match tag {
        1 => Some(PredOp::Eq),
        2 => Some(PredOp::Lt),
        3 => Some(PredOp::Le),
        4 => Some(PredOp::Gt),
        5 => Some(PredOp::Ge),
        _ => None,
    }
}

fn encode_colref(w: &mut Writer, col: ColRef) {
    w.u16(col.node as u16);
    w.u16(col.col.0);
}

/// A column reference of a query over `relations` nodes.
fn decode_colref(r: &mut Reader<'_>, relations: usize) -> Result<ColRef, StoreError> {
    let node = r.u16()? as usize;
    let col = ColId(r.u16()?);
    if node >= relations {
        return Err(StoreError::Codec(format!(
            "column of node {node} in a query over {relations} relations"
        )));
    }
    Ok(ColRef::new(node, col))
}

/// A presence flag: exactly 0 or 1, so that every payload that decodes
/// is the encoding of what it decodes to.
fn decode_flag(r: &mut Reader<'_>) -> Result<bool, StoreError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(StoreError::Codec(format!("presence flag {other}"))),
    }
}

/// An optional `u64` written as a flag and a value that is 0 when
/// absent.
fn decode_optional_u64(r: &mut Reader<'_>) -> Result<Option<u64>, StoreError> {
    match (decode_flag(r)?, r.u64()?) {
        (true, value) => Ok(Some(value)),
        (false, 0) => Ok(None),
        (false, value) => Err(StoreError::Codec(format!(
            "value {value} behind an absent flag"
        ))),
    }
}

fn encode_query(w: &mut Writer, query: &Query) -> Result<(), StoreError> {
    let graph = &query.graph;
    w.len_u16("relations", graph.relations().len())?;
    for rel in graph.relations() {
        w.u32(rel.0);
    }
    w.len_u16("edges", graph.edges().len())?;
    for edge in graph.edges() {
        encode_colref(w, edge.left);
        encode_colref(w, edge.right);
    }
    w.len_u16("filters", graph.filters().len())?;
    for filter in graph.filters() {
        encode_colref(w, filter.column);
        w.u8(pred_op_tag(filter.op));
        w.i64(filter.value);
    }
    match query.order_by {
        None => w.u8(0),
        Some(order) => {
            w.u8(1);
            encode_colref(w, order.column);
        }
    }
    // v2: GROUP BY, appended last so v1 payloads are a strict prefix.
    match query.group_by {
        None => w.u8(0),
        Some(group) => {
            w.u8(1);
            encode_colref(w, group.column);
        }
    }
    Ok(())
}

/// The query of a dead-letter record. Every node index is checked
/// before the join graph sees it — `JoinGraph` asserts its invariants —
/// so a corrupt record fails to decode instead of panicking.
fn decode_query(r: &mut Reader<'_>, version: u8) -> Result<Query, StoreError> {
    let n_rels = r.u16()? as usize;
    if n_rels > RelSet::MAX_RELATIONS {
        return Err(StoreError::Codec(format!(
            "{n_rels} relations, more than {}",
            RelSet::MAX_RELATIONS
        )));
    }
    let mut relations = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        relations.push(RelId(r.u32()?));
    }
    let n_edges = r.u16()? as usize;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let left = decode_colref(r, n_rels)?;
        let right = decode_colref(r, n_rels)?;
        // `JoinEdge::new` orders the endpoints; the encoder wrote them
        // in that order.
        if left.node >= right.node {
            return Err(StoreError::Codec(format!(
                "edge endpoints {} and {} not ascending",
                left.node, right.node
            )));
        }
        edges.push(JoinEdge::new(left, right));
    }
    let mut graph = JoinGraph::new(relations, edges);
    let n_filters = r.u16()? as usize;
    for _ in 0..n_filters {
        let column = decode_colref(r, n_rels)?;
        let tag = r.u8()?;
        let op = pred_op_from_tag(tag)
            .ok_or_else(|| StoreError::Codec(format!("unknown predicate-op tag {tag}")))?;
        let value = r.i64()?;
        graph.add_filter(Predicate::new(column, op, value));
    }
    let mut query = Query::new(graph);
    if decode_flag(r)? {
        query = query.with_order_by(decode_colref(r, n_rels)?);
    }
    // v1 records predate GROUP BY; they replay group-blind.
    if version >= 2 && decode_flag(r)? {
        query = query.with_group_by(decode_colref(r, n_rels)?);
    }
    Ok(query)
}

/// The requested strategy, canonicalized to the nearest paper-default
/// configuration (the fault context is what matters for replay, and
/// descents use canonical configurations anyway). Tag 0 means "let the
/// selector choose". Tags 4 (standard IDP1), 6 (Iterative Improvement)
/// and 7 (Simulated Annealing) are retired and never reused: those
/// strategies left the optimizer, so a record carrying one fails to
/// decode and is skipped and counted, like a retired enumerator tag.
fn encode_algorithm(w: &mut Writer, algorithm: Option<Algorithm>) {
    let (tag, param): (u8, u64) = match algorithm {
        None => (0, 0),
        Some(Algorithm::Dp) => (1, 0),
        Some(Algorithm::Sdp(_)) => (2, 0),
        Some(Algorithm::Idp { k }) => (3, k as u64),
        Some(Algorithm::Goo) => (5, 0),
    };
    w.u8(tag);
    w.u64(param);
}

fn decode_algorithm(r: &mut Reader<'_>) -> Result<Option<Algorithm>, StoreError> {
    let tag = r.u8()?;
    let param = r.u64()?;
    // Only IDP's block size is a parameter; the others write 0. A block
    // of fewer than two atoms contracts nothing: IDP would panic on it.
    match (tag, param) {
        (3, k) if k < 2 => {
            return Err(StoreError::Codec(format!("IDP block size {k} below 2")));
        }
        (3, _) | (_, 0) => {}
        _ => {
            return Err(StoreError::Codec(format!(
                "parameter {param} for algorithm tag {tag}"
            )));
        }
    }
    Ok(match tag {
        0 => None,
        1 => Some(Algorithm::Dp),
        2 => Some(Algorithm::Sdp(SdpConfig::paper())),
        3 => Some(Algorithm::Idp { k: param as usize }),
        5 => Some(Algorithm::Goo),
        other => {
            return Err(StoreError::Codec(format!(
                "unknown or retired algorithm tag {other}"
            )));
        }
    })
}

/// Encode a dead-letter record as one log payload. Its strings and
/// its query come from outside the program: one a `u16` length prefix
/// cannot express is refused as [`StoreError::TooLong`].
pub fn encode_dlq(record: &DlqRecord) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.u8(CODEC_VERSION);
    w.u128(record.fingerprint);
    w.u64(record.stats_epoch);
    w.u8(EnumeratorKind::LevelScan.stable_tag());
    encode_algorithm(&mut w, record.algorithm);
    w.u8(record.error_kind.stable_tag());
    w.str("error", &record.error)?;
    w.len_u16("degradations", record.degradations.len())?;
    for d in &record.degradations {
        w.u8(d.from.stable_tag());
        w.u8(d.to.stable_tag());
        w.u8(d.reason.stable_tag());
    }
    w.u8(record.deadline_ms.is_some() as u8);
    w.u64(record.deadline_ms.unwrap_or(0));
    w.u8(record.memory_bytes.is_some() as u8);
    w.u64(record.memory_bytes.unwrap_or(0));
    w.str("sql", &record.sql)?;
    encode_query(&mut w, &record.query)?;
    Ok(w.finish())
}

/// Decode a dead-letter record.
pub fn decode_dlq(payload: &[u8]) -> Result<DlqRecord, StoreError> {
    let mut r = Reader::new(payload);
    let version = check_version(&mut r)?;
    let fingerprint = r.u128()?;
    let stats_epoch = r.u64()?;
    decode_enumerator(&mut r)?;
    let algorithm = decode_algorithm(&mut r)?;
    let kind_tag = r.u8()?;
    let error_kind = DlqErrorKind::from_stable_tag(kind_tag)
        .ok_or_else(|| StoreError::Codec(format!("unknown error-kind tag {kind_tag}")))?;
    let error = r.str()?;
    let n_degradations = r.u16()? as usize;
    let mut degradations = Vec::with_capacity(n_degradations);
    for _ in 0..n_degradations {
        let from = r.u8()?;
        let to = r.u8()?;
        let reason = r.u8()?;
        degradations.push(DlqDegradation {
            from: Rung::from_stable_tag(from)
                .ok_or_else(|| StoreError::Codec(format!("unknown rung tag {from}")))?,
            to: Rung::from_stable_tag(to)
                .ok_or_else(|| StoreError::Codec(format!("unknown rung tag {to}")))?,
            reason: DegradeReason::from_stable_tag(reason)
                .ok_or_else(|| StoreError::Codec(format!("unknown reason tag {reason}")))?,
        });
    }
    let deadline_ms = decode_optional_u64(&mut r)?;
    let memory_bytes = decode_optional_u64(&mut r)?;
    let sql = r.str()?;
    let query = decode_query(&mut r, version)?;
    r.finish()?;
    Ok(DlqRecord {
        fingerprint,
        stats_epoch,
        algorithm,
        error_kind,
        error,
        degradations,
        deadline_ms,
        memory_bytes,
        sql,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(node: u16) -> Arc<PlanNode> {
        let op = PlanOp::SeqScan {
            rel: RelId(u32::from(node)),
            node,
        };
        PlanNode::new(op, RelSet::single(usize::from(node)), 100.0, 3.5, None)
    }

    fn sample_plan() -> PlanRecord {
        let left = scan(0);
        let right = PlanNode::new(
            PlanOp::IndexScan {
                rel: RelId(7),
                node: 1,
                col: ColId(2),
            },
            RelSet::single(1),
            40.0,
            1.25,
            Some(5),
        );
        let set = left.set | right.set;
        let join = PlanNode::new(
            PlanOp::Join {
                method: JoinMethod::Merge,
                inputs: [left, right],
            },
            set,
            60.0,
            9.75,
            Some(5),
        );
        let root = PlanNode::new(
            PlanOp::Sort {
                class: 3,
                input: [join],
            },
            set,
            60.0,
            12.0,
            Some(3),
        );
        PlanRecord {
            fingerprint: 0xdead_beef_0123_4567_89ab_cdef_0011_2233,
            stats_epoch: 4,
            rung: Some(Rung::Sdp),
            enumerator: EnumeratorKind::LevelScan,
            algo_repr: "Sdp(SdpConfig { .. })".to_string(),
            strategy: "SDP".to_string(),
            degradations: 1,
            cost: 12.0,
            rows: 60.0,
            root,
        }
    }

    #[test]
    fn plan_round_trip_is_bit_identical() {
        let record = sample_plan();
        let payload = encode_plan(&record);
        let decoded = decode_plan(&payload).unwrap();
        assert_eq!(
            decoded.root.structural_digest(),
            record.root.structural_digest()
        );
        assert_eq!(decoded.fingerprint, record.fingerprint);
        assert_eq!(decoded.stats_epoch, 4);
        assert_eq!(decoded.rung, Some(Rung::Sdp));
        assert_eq!(decoded.enumerator, EnumeratorKind::LevelScan);
        assert_eq!(decoded.algo_repr, record.algo_repr);
        assert_eq!(decoded.strategy, "SDP");
        assert_eq!(decoded.degradations, 1);
        assert_eq!(decoded.cost.to_bits(), record.cost.to_bits());
        assert_eq!(decoded.rows.to_bits(), record.rows.to_bits());
        // Encoding is deterministic: same record, same bytes.
        assert_eq!(payload, encode_plan(&decoded));
    }

    #[test]
    fn future_version_is_rejected_with_a_codec_error() {
        let mut payload = encode_plan(&sample_plan());
        payload[0] = CODEC_VERSION + 1;
        let err = decode_plan(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn v1_plan_records_still_decode() {
        // Plan payloads are byte-identical between v1 and v2 apart
        // from the version stamp; a pre-bump record must be served,
        // not dropped. (The sample carries sort enforcers and order
        // properties — exactly the plans the bump was about.)
        let record = sample_plan();
        let mut payload = encode_plan(&record);
        payload[0] = 1;
        let decoded = decode_plan(&payload).expect("v1 plan record decodes");
        assert_eq!(
            decoded.root.structural_digest(),
            record.root.structural_digest()
        );
        // Re-encoding writes the current version; only byte 0 differs.
        let reencoded = encode_plan(&decoded);
        assert_eq!(reencoded[0], CODEC_VERSION);
        assert_eq!(reencoded[1..], payload[1..]);
    }

    #[test]
    fn v1_dlq_records_decode_group_blind() {
        // A v1 dead-letter payload ends at the ORDER BY field: strip
        // the trailing GROUP BY flag (encoded as one 0x00 byte when
        // absent) and stamp version 1. It must decode with
        // `group_by = None`, not error out.
        let graph = JoinGraph::new(
            vec![RelId(1), RelId(2)],
            vec![JoinEdge::new(
                ColRef::new(0, ColId(0)),
                ColRef::new(1, ColId(1)),
            )],
        );
        let record = DlqRecord {
            fingerprint: 9,
            stats_epoch: 1,
            algorithm: None,
            error_kind: DlqErrorKind::Timeout,
            error: "deadline".to_string(),
            degradations: vec![],
            deadline_ms: Some(10),
            memory_bytes: None,
            sql: "SELECT * FROM ...".to_string(),
            query: Query::new(graph).with_order_by(ColRef::new(0, ColId(0))),
        };
        let mut payload = encode_dlq(&record).unwrap();
        assert_eq!(*payload.last().unwrap(), 0, "absent GROUP BY is one 0x00");
        payload.pop();
        payload[0] = 1;
        let decoded = decode_dlq(&payload).expect("v1 dlq record decodes");
        assert_eq!(decoded.query.order_by, record.query.order_by);
        assert_eq!(decoded.query.group_by, None);
        assert_eq!(decoded.fingerprint, 9);
    }

    #[test]
    fn dlq_round_trip_preserves_group_by() {
        let graph = JoinGraph::new(
            vec![RelId(4), RelId(6)],
            vec![JoinEdge::new(
                ColRef::new(0, ColId(2)),
                ColRef::new(1, ColId(0)),
            )],
        );
        let record = DlqRecord {
            fingerprint: 11,
            stats_epoch: 3,
            algorithm: Some(Algorithm::Goo),
            error_kind: DlqErrorKind::Other,
            error: "other".to_string(),
            degradations: vec![],
            deadline_ms: None,
            memory_bytes: Some(1 << 20),
            sql: "SELECT * FROM ...".to_string(),
            query: Query::new(graph).with_group_by(ColRef::new(1, ColId(0))),
        };
        let payload = encode_dlq(&record).unwrap();
        let decoded = decode_dlq(&payload).unwrap();
        assert_eq!(decoded.query.group_by, record.query.group_by);
        assert_eq!(decoded.query.order_by, None);
        assert_eq!(payload, encode_dlq(&decoded).unwrap());
    }

    #[test]
    fn digest_check_catches_payload_mutation() {
        let mut payload = encode_plan(&sample_plan());
        // Flip a bit inside the cost of the last node (tail of the
        // payload), past the embedded digest.
        let n = payload.len();
        payload[n - 20] ^= 0x40;
        let err = decode_plan(&payload).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
    }

    #[test]
    fn dlq_round_trip_preserves_query_and_context() {
        let mut graph = JoinGraph::new(
            vec![RelId(0), RelId(3), RelId(5)],
            vec![
                JoinEdge::new(ColRef::new(0, ColId(0)), ColRef::new(1, ColId(1))),
                JoinEdge::new(ColRef::new(1, ColId(0)), ColRef::new(2, ColId(2))),
            ],
        );
        graph.add_filter(Predicate::new(ColRef::new(2, ColId(1)), PredOp::Lt, -42));
        let query = Query::new(graph).with_order_by(ColRef::new(0, ColId(0)));
        let record = DlqRecord {
            fingerprint: 77,
            stats_epoch: 2,
            algorithm: Some(Algorithm::Idp { k: 4 }),
            error_kind: DlqErrorKind::Memory,
            error: "memory exhausted at GOO".to_string(),
            degradations: vec![
                DlqDegradation {
                    from: Rung::Dp,
                    to: Rung::Sdp,
                    reason: DegradeReason::Memory,
                },
                DlqDegradation {
                    from: Rung::Sdp,
                    to: Rung::Idp,
                    reason: DegradeReason::Memory,
                },
            ],
            deadline_ms: Some(250),
            memory_bytes: None,
            sql: "SELECT * FROM ...".to_string(),
            query,
        };
        let payload = encode_dlq(&record).unwrap();
        let decoded = decode_dlq(&payload).unwrap();
        assert_eq!(decoded.fingerprint, 77);
        assert!(matches!(decoded.algorithm, Some(Algorithm::Idp { k: 4 })));
        assert_eq!(decoded.error_kind, DlqErrorKind::Memory);
        assert_eq!(decoded.degradations, record.degradations);
        assert_eq!(decoded.deadline_ms, Some(250));
        assert_eq!(decoded.memory_bytes, None);
        assert_eq!(
            decoded.query.graph.relations(),
            record.query.graph.relations()
        );
        assert_eq!(decoded.query.graph.edges(), record.query.graph.edges());
        assert_eq!(
            decoded.query.graph.filters().len(),
            record.query.graph.filters().len()
        );
        assert_eq!(decoded.query.order_by, record.query.order_by);
        assert_eq!(payload, encode_dlq(&decoded).unwrap());
    }

    #[test]
    fn dlq_fields_a_u16_prefix_cannot_express_are_refused() {
        let graph = JoinGraph::new(
            vec![RelId(1), RelId(2)],
            vec![JoinEdge::new(
                ColRef::new(0, ColId(0)),
                ColRef::new(1, ColId(1)),
            )],
        );
        let record = |sql_len: usize, filters: usize| {
            let mut graph = graph.clone();
            for _ in 0..filters {
                graph.add_filter(Predicate::new(ColRef::new(0, ColId(1)), PredOp::Lt, 5));
            }
            DlqRecord {
                fingerprint: 3,
                stats_epoch: 1,
                algorithm: None,
                error_kind: DlqErrorKind::Memory,
                error: "memory exhausted".to_string(),
                degradations: vec![],
                deadline_ms: None,
                memory_bytes: Some(0),
                sql: "x".repeat(sql_len),
                query: Query::new(graph),
            }
        };
        let max = u16::MAX as usize;
        // At the limit a record round-trips; one past it is refused by
        // the field that overflows, not written with a wrapped prefix.
        let at_limit = record(max, max);
        let decoded = decode_dlq(&encode_dlq(&at_limit).unwrap()).unwrap();
        assert_eq!(decoded.sql.len(), max);
        assert_eq!(decoded.query.graph.filters().len(), max);
        for (record, field) in [(record(max + 1, 0), "sql"), (record(0, max + 1), "filters")] {
            match encode_dlq(&record) {
                Err(StoreError::TooLong { field: f, len }) => {
                    assert_eq!((f, len), (field, max + 1));
                }
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn more_than_two_children_is_a_codec_error() {
        // A leaf's child count is the last byte of its encoding.
        let mut w = Writer::new();
        encode_node(&mut w, &scan(0));
        *w.0.last_mut().unwrap() = 3;
        let err = decode_node(&mut Reader::new(&w.0)).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
    }

    /// A plan node as bytes, whatever the plan types can hold: an
    /// operator tag (1 scan, 3 hash join, 4 sort), its argument (the
    /// scan's node index, the sort's class), the relation set, and the
    /// children.
    struct RawNode {
        tag: u8,
        arg: u16,
        set: u64,
        ordering: Option<u32>,
        children: Vec<RawNode>,
    }

    impl RawNode {
        fn scan(node: u16, set: u64) -> Self {
            RawNode {
                tag: 1,
                arg: node,
                set,
                ordering: None,
                children: Vec::new(),
            }
        }

        fn with(tag: u8, arg: u16, set: u64, children: Vec<RawNode>) -> Self {
            let ordering = (tag == 4).then_some(u32::from(arg));
            RawNode {
                tag,
                arg,
                set,
                ordering,
                children,
            }
        }

        /// `PlanNode::structural_digest`, from the bytes' fields.
        fn digest(&self) -> u64 {
            let arg = match self.tag {
                3 => u64::from(JoinMethod::Hash.stable_tag()),
                _ => u64::from(self.arg),
            };
            let op_words = match self.tag {
                1 => [1, 0, arg, 0],
                tag => [u64::from(tag), arg, 0, 0],
            };
            let mut h = sdp_query::canon::StableHasher::new(0x70_6c_61_6e);
            for word in op_words {
                h.write_u64(word);
            }
            h.write_u64(self.set);
            h.write_u64(1.0f64.to_bits());
            h.write_u64(self.cost().to_bits());
            h.write_u64(self.ordering.map_or(u64::MAX, u64::from));
            h.write_u64(self.children.len() as u64);
            for c in &self.children {
                h.write_u64(c.digest());
            }
            h.finish()
        }

        /// One per node: no join costs less than its inputs.
        fn cost(&self) -> f64 {
            1.0 + self.children.iter().map(RawNode::cost).sum::<f64>()
        }

        fn encode(&self, w: &mut Writer) {
            w.u8(self.tag);
            match self.tag {
                1 => {
                    w.u32(0);
                    w.u16(self.arg);
                }
                3 => w.u8(JoinMethod::Hash.stable_tag()),
                _ => w.u32(u32::from(self.arg)),
            }
            w.u64(self.set);
            w.f64_bits(1.0);
            w.f64_bits(self.cost());
            w.u64(self.ordering.map_or(u64::MAX, u64::from));
            w.u8(self.children.len() as u8);
            for c in &self.children {
                c.encode(w);
            }
        }

        /// A plan record around the node, carrying its digest.
        fn payload(&self) -> Vec<u8> {
            let mut w = Writer::new();
            w.u8(CODEC_VERSION);
            w.u128(7);
            w.u64(0);
            w.u8(Rung::Sdp.stable_tag());
            w.u8(EnumeratorKind::LevelScan.stable_tag());
            w.str("algo_repr", "SDP").unwrap();
            w.str("strategy", "SDP").unwrap();
            w.u64(0);
            w.f64_bits(self.cost());
            w.f64_bits(1.0);
            w.u64(self.digest());
            self.encode(&mut w);
            w.finish()
        }
    }

    #[test]
    fn a_plan_the_optimizer_could_not_serve_is_a_codec_error() {
        use RawNode as N;
        let join = |set, children| N::with(3, 0, set, children);
        // The bytes are well formed: a valid tree decodes.
        let valid = join(0b11, vec![N::scan(0, 0b1), N::scan(1, 0b10)]);
        let decoded = decode_plan(&valid.payload()).unwrap();
        assert_eq!(decoded.root.structural_digest(), valid.digest());

        let malformed = [
            (
                "a scan with an input",
                N::with(1, 0, 0b1, vec![N::scan(1, 0b10)]),
            ),
            ("a join with one input", join(0b1, vec![N::scan(0, 0b1)])),
            (
                "a sort with two inputs",
                N::with(4, 2, 0b11, vec![N::scan(0, 0b1), N::scan(1, 0b10)]),
            ),
            ("a scan of node 64", N::scan(64, 0)),
            ("a scan of node 65 535", N::scan(u16::MAX, 1 << 63)),
            (
                "a join over more than its inputs",
                join(0b111, vec![N::scan(0, 0b1), N::scan(1, 0b10)]),
            ),
            (
                "overlapping join inputs",
                join(0b1, vec![N::scan(0, 0b1), N::scan(0, 0b1)]),
            ),
        ];
        for (what, root) in malformed {
            match decode_plan(&root.payload()) {
                Err(StoreError::Codec(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_is_a_codec_error() {
        let payload = encode_plan(&sample_plan());
        let err = decode_plan(&payload[..payload.len() - 3]).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
    }
}
