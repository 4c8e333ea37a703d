//! The tuple-independent probabilistic structure `(A, p)`.

use crate::delta::{AppliedDelta, ChangeKind, DeltaBatch, DeltaOp, TupleChange};
use cq::{Query, RelId, Value, Vocabulary};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Index of a tuple within a [`ProbDb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId(pub u32);

/// A possible tuple with its marginal probability.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbTuple {
    pub rel: RelId,
    pub args: Vec<Value>,
    pub prob: f64,
}

/// A tuple-independent probabilistic structure (§1): a finite first-order
/// structure together with a probability `p(t) ∈ [0,1]` for every tuple.
/// Tuples not present have probability 0. The induced distribution over
/// sub-structures is the product distribution of Eq. 1.
#[derive(Debug)]
pub struct ProbDb {
    /// Process-unique identity, minted fresh on construction *and on
    /// clone*: two databases share a `uid` only if they are the same
    /// value. `(uid, version)` therefore names one immutable-under-`&`
    /// content state, which is what cross-database caches (the engine's
    /// result cache) key by — version stamps alone collide across
    /// independently grown databases and across diverged clones.
    uid: u64,
    pub voc: Vocabulary,
    tuples: Vec<ProbTuple>,
    /// Tombstone flags, parallel to `tuples`: deleting a tuple keeps its
    /// slot (ids never shift — the incremental views and probability
    /// vectors key by id) but removes it from every index and zeroes its
    /// probability, so no evaluator can observe it.
    dead: Vec<bool>,
    /// Content lookup, keyed by a 64-bit hash of `(rel, args)` with the
    /// candidate ids verified against tuple storage — the tuple's own
    /// `args` allocation is the only copy of the key (bulk loads used to
    /// clone every `args` twice into a `(RelId, Vec<Value>)` map key).
    index: HashMap<u64, Vec<TupleId>>,
    by_rel: HashMap<RelId, Vec<TupleId>>,
    /// Secondary indexes: `(relation, column, value)` → ids of the tuples
    /// holding `value` in that column, **ascending** (insertion appends
    /// monotonically increasing ids and deletion splices, preserving
    /// order). The extensional executor's constant-pushdown scans read
    /// these posting lists so `R(x, 'c')` atoms stop filtering full
    /// relations; ascending order keeps a pushed-down scan's output
    /// bit-identical to a filtered full scan.
    cols: HashMap<(RelId, u32, Value), Vec<TupleId>>,
    /// Monotonically increasing version stamp: every mutation bumps it.
    version: u64,
    /// The delta log: one [`AppliedDelta`] per [`ProbDb::apply`] batch,
    /// capped at [`MAX_DELTA_LOG`] entries. Out-of-band mutations (raw
    /// [`ProbDb::insert`] / [`ProbDb::delete`]) clear it — views detect
    /// the gap through `logged_from` and rebuild instead of replaying.
    log: VecDeque<AppliedDelta>,
    /// The version immediately before the oldest retained log entry: the
    /// log can replay any view synced at `version >= logged_from`.
    logged_from: u64,
}

/// Applied batches retained in the delta log; older entries are dropped
/// (views further behind fall back to a full rebuild).
pub const MAX_DELTA_LOG: usize = 1024;

/// Mint a process-unique database identity (see `ProbDb::uid`).
fn fresh_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for ProbDb {
    /// Clones carry every field verbatim — same version stamp, same delta
    /// log, so incremental views synced against the original replay
    /// against the clone — but mint a fresh `uid`: the clone may diverge,
    /// and caches must not confuse its states with the original's.
    fn clone(&self) -> Self {
        ProbDb {
            uid: fresh_uid(),
            voc: self.voc.clone(),
            tuples: self.tuples.clone(),
            dead: self.dead.clone(),
            index: self.index.clone(),
            by_rel: self.by_rel.clone(),
            cols: self.cols.clone(),
            version: self.version,
            log: self.log.clone(),
            logged_from: self.logged_from,
        }
    }
}

impl Default for ProbDb {
    fn default() -> Self {
        ProbDb::new(Vocabulary::default())
    }
}

/// Splice `id` out of an ascending id list (binary search + remove).
fn remove_ascending(list: &mut Vec<TupleId>, id: TupleId) {
    if let Ok(pos) = list.binary_search(&id) {
        list.remove(pos);
    }
}

/// FNV-1a content hash of a tuple key. Collisions are handled (candidates
/// are verified against tuple storage), so this only affects probe cost.
fn content_hash(rel: RelId, args: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= u64::from(rel.0);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for v in args {
        h ^= v.0;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

// The morsel-driven parallel executor shares `&ProbDb` across scoped
// worker threads; keep the structure free of interior mutability so these
// bounds hold (a compile error here means a field broke that contract).
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ProbDb>();
    assert_shareable::<ProbTuple>();
};

impl ProbDb {
    pub fn new(voc: Vocabulary) -> Self {
        ProbDb {
            uid: fresh_uid(),
            voc,
            tuples: Vec::new(),
            dead: Vec::new(),
            index: HashMap::new(),
            by_rel: HashMap::new(),
            cols: HashMap::new(),
            version: 0,
            log: VecDeque::new(),
            logged_from: 0,
        }
    }

    /// Insert (or overwrite) a tuple with probability `prob`. `args` is
    /// moved into tuple storage — the content and column indexes key by
    /// hash and tuple id, so a bulk load performs no key cloning.
    ///
    /// This is an *out-of-band* mutation: it bumps the version stamp and
    /// invalidates the delta log (incremental views will rebuild rather
    /// than replay). Use [`ProbDb::apply`] to mutate through the log.
    ///
    /// # Panics
    /// If the arity disagrees with the vocabulary or `prob ∉ [0,1]`.
    pub fn insert(&mut self, rel: RelId, args: Vec<Value>, prob: f64) -> TupleId {
        let (id, _) = self.insert_inner(rel, args, prob);
        self.bump_out_of_band();
        id
    }

    /// Delete a tuple by content, returning its id (now a tombstone) if it
    /// was present. Out-of-band like [`ProbDb::insert`]: bumps the version
    /// and invalidates the delta log.
    pub fn delete(&mut self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        let deleted = self.delete_inner(rel, args).map(|(id, _)| id);
        if deleted.is_some() {
            self.bump_out_of_band();
        }
        deleted
    }

    /// The insert kernel shared by [`ProbDb::insert`] and
    /// [`ProbDb::apply`]; does not touch the version or the log. The flag
    /// distinguishes a fresh id from a probability overwrite.
    fn insert_inner(&mut self, rel: RelId, args: Vec<Value>, prob: f64) -> (TupleId, bool) {
        assert_eq!(
            args.len(),
            self.voc.arity(rel),
            "arity mismatch inserting into {}",
            self.voc.rel_name(rel)
        );
        assert!(
            (0.0..=1.0).contains(&prob),
            "tuple probability {prob} outside [0,1]"
        );
        let h = content_hash(rel, &args);
        if let Some(id) = self.lookup_hashed(h, rel, &args) {
            self.tuples[id.0 as usize].prob = prob;
            return (id, false);
        }
        let id = TupleId(self.tuples.len() as u32);
        self.index.entry(h).or_default().push(id);
        self.by_rel.entry(rel).or_default().push(id);
        for (pos, &v) in args.iter().enumerate() {
            self.cols.entry((rel, pos as u32, v)).or_default().push(id);
        }
        self.tuples.push(ProbTuple { rel, args, prob });
        self.dead.push(false);
        (id, true)
    }

    /// The delete kernel: tombstone the slot and splice the id out of the
    /// content index, the relation list, and every column posting list
    /// (all ascending — removal preserves order, so index-served scans
    /// stay bit-identical to filtered full scans). Returns the id and the
    /// old probability when the tuple was present.
    fn delete_inner(&mut self, rel: RelId, args: &[Value]) -> Option<(TupleId, f64)> {
        let h = content_hash(rel, args);
        let id = self.lookup_hashed(h, rel, args)?;
        let chain = self.index.get_mut(&h).expect("indexed tuple has a chain");
        chain.retain(|&x| x != id);
        if chain.is_empty() {
            self.index.remove(&h);
        }
        remove_ascending(self.by_rel.get_mut(&rel).expect("by_rel list"), id);
        for (pos, &v) in args.iter().enumerate() {
            let key = (rel, pos as u32, v);
            let list = self.cols.get_mut(&key).expect("posting list");
            remove_ascending(list, id);
            if list.is_empty() {
                self.cols.remove(&key);
            }
        }
        let t = &mut self.tuples[id.0 as usize];
        let old_prob = t.prob;
        // The tombstone keeps its args (diagnostics, late readers) but can
        // never contribute probability mass: every evaluator that bypasses
        // the indexes (brute force, lineage) sees `p = 0`.
        t.prob = 0.0;
        self.dead[id.0 as usize] = true;
        Some((id, old_prob))
    }

    fn bump_out_of_band(&mut self) {
        self.version += 1;
        self.log.clear();
        self.logged_from = self.version;
    }

    /// Apply a [`DeltaBatch`] atomically: resolve every operation to a
    /// tuple-level [`TupleChange`], bump the version once, and append the
    /// [`AppliedDelta`] to the delta log (capped at [`MAX_DELTA_LOG`]
    /// entries — views further behind rebuild). Returns the new version.
    ///
    /// Semantics per op: `Insert` of present content and `Update` overwrite
    /// the probability in place (`Updated`); `Update` of absent content
    /// inserts (`Inserted`); `Delete` of absent content is a no-op and
    /// writing an identical probability is dropped from the change list.
    pub fn apply(&mut self, batch: &DeltaBatch) -> u64 {
        let mut changes = Vec::with_capacity(batch.ops.len());
        for op in &batch.ops {
            match op {
                DeltaOp::Insert { rel, args, prob } | DeltaOp::Update { rel, args, prob } => {
                    let old = self
                        .find(*rel, args)
                        .map(|id| self.tuples[id.0 as usize].prob);
                    let (id, fresh) = self.insert_inner(*rel, args.clone(), *prob);
                    let kind = if fresh {
                        ChangeKind::Inserted
                    } else {
                        let old_prob = old.expect("overwrite had a prior probability");
                        if old_prob.to_bits() == prob.to_bits() {
                            continue; // identical probability: nothing changed
                        }
                        ChangeKind::Updated {
                            old_prob,
                            new_prob: *prob,
                        }
                    };
                    changes.push(TupleChange {
                        id,
                        rel: *rel,
                        kind,
                    });
                }
                DeltaOp::Delete { rel, args } => {
                    if let Some((id, old_prob)) = self.delete_inner(*rel, args) {
                        changes.push(TupleChange {
                            id,
                            rel: *rel,
                            kind: ChangeKind::Deleted { old_prob },
                        });
                    }
                }
            }
        }
        self.version += 1;
        self.log.push_back(AppliedDelta {
            version: self.version,
            changes,
        });
        while self.log.len() > MAX_DELTA_LOG {
            let dropped = self.log.pop_front().expect("non-empty log");
            self.logged_from = dropped.version;
        }
        self.version
    }

    /// The current version stamp. Starts at 0; every mutation — applied
    /// batch or out-of-band insert/delete — increases it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this database value, fresh per
    /// construction and per clone. `(uid(), version())` names one
    /// immutable-under-`&` content state — the key cross-database caches
    /// use (version stamps alone collide across databases and clones).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The oldest version the delta log can replay *from*: a reader synced
    /// at `v >= delta_log_start()` can catch up through
    /// [`ProbDb::changes_since`]; one behind it must rebuild.
    pub fn delta_log_start(&self) -> u64 {
        self.logged_from
    }

    /// The logged deltas with `version > since`, oldest first.
    pub fn changes_since(&self, since: u64) -> impl Iterator<Item = &AppliedDelta> {
        self.log.iter().filter(move |d| d.version > since)
    }

    /// Is the tuple slot live (not a tombstone)?
    pub fn is_live(&self, id: TupleId) -> bool {
        !self.dead[id.0 as usize]
    }

    fn lookup(&self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.lookup_hashed(content_hash(rel, args), rel, args)
    }

    fn lookup_hashed(&self, h: u64, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.index.get(&h)?.iter().copied().find(|&id| {
            let t = &self.tuples[id.0 as usize];
            t.rel == rel && t.args == args
        })
    }

    /// Convenience: insert resolving the relation by name.
    pub fn insert_named(&mut self, rel: &str, args: Vec<Value>, prob: f64) -> TupleId {
        let id = self
            .voc
            .relation(rel, args.len())
            .expect("relation arity clash");
        self.insert(id, args, prob)
    }

    /// Number of tuple *slots* (including tombstones left by deletions —
    /// a tombstone has probability 0 and is invisible to every index, so
    /// probability computations are unaffected). [`TupleId`]s index this
    /// range, and probability vectors have this length.
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    pub fn tuples(&self) -> &[ProbTuple] {
        &self.tuples
    }

    pub fn tuple(&self, id: TupleId) -> &ProbTuple {
        &self.tuples[id.0 as usize]
    }

    /// Ids of the possible tuples of relation `rel`.
    pub fn tuples_of(&self, rel: RelId) -> &[TupleId] {
        self.by_rel.get(&rel).map_or(&[], |v| v.as_slice())
    }

    /// Ids of the tuples of `rel` whose column `col` holds `value`, in
    /// ascending id order — the constant-pushdown posting list. Empty when
    /// no tuple matches.
    pub fn tuples_with(&self, rel: RelId, col: usize, value: Value) -> &[TupleId] {
        self.cols
            .get(&(rel, col as u32, value))
            .map_or(&[], |v| v.as_slice())
    }

    /// Look up a tuple id by content.
    pub fn find(&self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.lookup(rel, args)
    }

    /// Marginal probability of a (possibly absent) tuple.
    pub fn prob_of(&self, rel: RelId, args: &[Value]) -> f64 {
        match self.find(rel, args) {
            Some(id) => self.tuples[id.0 as usize].prob,
            None => 0.0,
        }
    }

    /// The active domain: every value occurring in some possible (live)
    /// tuple — tombstones left by deletions do not contribute.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.tuples
            .iter()
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .flat_map(|(t, _)| t.args.iter().copied())
            .collect()
    }

    /// Active domain extended with the constants of a query — the range the
    /// paper's recurrences iterate over (`Π_{a∈A}` in Eq. 3).
    pub fn eval_domain(&self, q: &Query) -> BTreeSet<Value> {
        let mut dom = self.active_domain();
        dom.extend(q.constants());
        dom
    }

    /// The probability vector indexed by [`TupleId`], for the lineage
    /// model counters.
    pub fn prob_vector(&self) -> Vec<f64> {
        self.tuples.iter().map(|t| t.prob).collect()
    }

    /// A copy of the database with one tuple's probability replaced —
    /// conditioning on presence (`1.0`) or absence (`0.0`) — used by the
    /// safe evaluator to handle ground sub-goals.
    pub fn conditioned(&self, rel: RelId, args: &[Value], prob: f64) -> ProbDb {
        let mut out = self.clone();
        out.insert(rel, args.to_vec(), prob);
        out
    }

    /// Render one tuple for diagnostics.
    pub fn display_tuple(&self, id: TupleId) -> String {
        let t = self.tuple(id);
        let args: Vec<String> = t.args.iter().map(|&v| self.voc.value_name(v)).collect();
        format!(
            "{}({}) @ {:.3}",
            self.voc.rel_name(t.rel),
            args.join(","),
            t.prob
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ProbDb, RelId) {
        let mut voc = Vocabulary::new();
        let r = voc.relation("R", 2).unwrap();
        (ProbDb::new(voc), r)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut db, r) = setup();
        let id = db.insert(r, vec![Value(1), Value(2)], 0.5);
        assert_eq!(db.find(r, &[Value(1), Value(2)]), Some(id));
        assert_eq!(db.prob_of(r, &[Value(1), Value(2)]), 0.5);
        assert_eq!(db.prob_of(r, &[Value(2), Value(1)]), 0.0);
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn reinsert_overwrites_probability() {
        let (mut db, r) = setup();
        let id1 = db.insert(r, vec![Value(1), Value(2)], 0.5);
        let id2 = db.insert(r, vec![Value(1), Value(2)], 0.9);
        assert_eq!(id1, id2);
        assert_eq!(db.num_tuples(), 1);
        assert_eq!(db.prob_of(r, &[Value(1), Value(2)]), 0.9);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1)], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_range_checked() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1), Value(2)], 1.5);
    }

    #[test]
    fn active_domain_collects_values() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1), Value(2)], 0.5);
        db.insert(r, vec![Value(2), Value(7)], 0.5);
        let dom = db.active_domain();
        assert_eq!(dom, BTreeSet::from([Value(1), Value(2), Value(7)]));
    }

    #[test]
    fn conditioning_copies() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1), Value(2)], 0.5);
        let cond = db.conditioned(r, &[Value(1), Value(2)], 1.0);
        assert_eq!(cond.prob_of(r, &[Value(1), Value(2)]), 1.0);
        assert_eq!(db.prob_of(r, &[Value(1), Value(2)]), 0.5);
    }

    #[test]
    fn column_posting_lists_ascend_and_track_inserts() {
        let (mut db, r) = setup();
        let a = db.insert(r, vec![Value(1), Value(9)], 0.5);
        let b = db.insert(r, vec![Value(2), Value(9)], 0.5);
        let c = db.insert(r, vec![Value(1), Value(7)], 0.5);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[a, c]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[a, b]);
        assert_eq!(db.tuples_with(r, 1, Value(7)), &[c]);
        assert_eq!(db.tuples_with(r, 0, Value(42)), &[] as &[TupleId]);
        // Overwrites change probabilities, not posting lists.
        db.insert(r, vec![Value(1), Value(9)], 0.9);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[a, c]);
        assert_eq!(db.prob_of(r, &[Value(1), Value(9)]), 0.9);
    }

    #[test]
    fn hash_keyed_content_index_distinguishes_relations() {
        let (mut db, r) = setup();
        let mut voc2 = db.voc.clone();
        let s = voc2.relation("S", 2).unwrap();
        db.voc = voc2;
        let a = db.insert(r, vec![Value(1), Value(2)], 0.25);
        let b = db.insert(s, vec![Value(1), Value(2)], 0.75);
        assert_ne!(a, b);
        assert_eq!(db.find(r, &[Value(1), Value(2)]), Some(a));
        assert_eq!(db.find(s, &[Value(1), Value(2)]), Some(b));
        assert_eq!(db.find(s, &[Value(2), Value(1)]), None);
    }

    #[test]
    fn delete_tombstones_and_unindexes() {
        let (mut db, r) = setup();
        let a = db.insert(r, vec![Value(1), Value(9)], 0.5);
        let b = db.insert(r, vec![Value(2), Value(9)], 0.25);
        assert_eq!(db.delete(r, &[Value(1), Value(9)]), Some(a));
        // Content lookups, posting lists, and the relation list all forget
        // the tuple; the slot stays (ids never shift) with probability 0.
        assert_eq!(db.find(r, &[Value(1), Value(9)]), None);
        assert_eq!(db.prob_of(r, &[Value(1), Value(9)]), 0.0);
        assert_eq!(db.tuples_of(r), &[b]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[b]);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[] as &[TupleId]);
        assert_eq!(db.num_tuples(), 2, "slot retained");
        assert!(!db.is_live(a));
        assert!(db.is_live(b));
        assert_eq!(db.tuple(a).prob, 0.0, "tombstone carries no mass");
        assert_eq!(db.active_domain(), BTreeSet::from([Value(2), Value(9)]));
        // Deleting an absent tuple is a no-op.
        assert_eq!(db.delete(r, &[Value(1), Value(9)]), None);
        // Re-inserting the same content allocates a fresh id.
        let c = db.insert(r, vec![Value(1), Value(9)], 0.75);
        assert_ne!(c, a);
        assert_eq!(db.tuples_of(r), &[b, c]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[b, c]);
    }

    /// The satellite invariant: interleaved inserts, deletes, and updates
    /// keep every `(column, value)` posting list equal to a filtered full
    /// scan — ascending ids, live tuples only, exact column matches.
    #[test]
    fn posting_lists_survive_interleaved_mutations() {
        let (mut db, r) = setup();
        use crate::delta::DeltaBatch;
        let mut batch = DeltaBatch::new();
        for i in 0..20u64 {
            batch.insert(r, vec![Value(i % 4), Value(i % 3)], 0.5);
        }
        db.apply(&batch);
        let mut b2 = DeltaBatch::new();
        b2.delete(r, vec![Value(1), Value(1)])
            .update(r, vec![Value(2), Value(2)], 0.9)
            .insert(r, vec![Value(1), Value(1)], 0.3) // resurrect content
            .delete(r, vec![Value(0), Value(0)])
            .insert(r, vec![Value(9), Value(0)], 0.4);
        db.apply(&b2);
        // Oracle: filter the full relation list per (column, value).
        for col in 0..2usize {
            for v in 0..10u64 {
                let want: Vec<TupleId> = db
                    .tuples_of(r)
                    .iter()
                    .copied()
                    .filter(|&id| db.tuple(id).args[col] == Value(v))
                    .collect();
                assert_eq!(
                    db.tuples_with(r, col, Value(v)),
                    want.as_slice(),
                    "col {col} value {v}"
                );
                assert!(
                    want.windows(2).all(|w| w[0] < w[1]),
                    "ascending col {col} value {v}"
                );
            }
        }
        for &id in db.tuples_of(r) {
            assert!(db.is_live(id));
        }
    }

    #[test]
    fn apply_logs_versioned_tuple_changes() {
        use crate::delta::{ChangeKind, DeltaBatch};
        let (mut db, r) = setup();
        assert_eq!(db.version(), 0);
        let mut batch = DeltaBatch::new();
        batch
            .insert(r, vec![Value(1), Value(2)], 0.5)
            .insert(r, vec![Value(3), Value(4)], 0.25);
        assert_eq!(db.apply(&batch), 1);
        let mut b2 = DeltaBatch::new();
        b2.update(r, vec![Value(1), Value(2)], 0.75)
            .delete(r, vec![Value(3), Value(4)])
            .delete(r, vec![Value(9), Value(9)]) // absent: dropped
            .update(r, vec![Value(5), Value(6)], 0.1); // absent: upsert
        assert_eq!(db.apply(&b2), 2);
        assert_eq!(db.version(), 2);
        assert_eq!(db.delta_log_start(), 0);
        let logged: Vec<_> = db.changes_since(1).collect();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].version, 2);
        let kinds: Vec<ChangeKind> = logged[0].changes.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ChangeKind::Updated {
                    old_prob: 0.5,
                    new_prob: 0.75
                },
                ChangeKind::Deleted { old_prob: 0.25 },
                ChangeKind::Inserted,
            ]
        );
        assert_eq!(db.changes_since(0).count(), 2);
        // An identical-probability overwrite is not a change.
        let mut b3 = DeltaBatch::new();
        b3.update(r, vec![Value(1), Value(2)], 0.75);
        db.apply(&b3);
        assert!(db.changes_since(2).next().unwrap().changes.is_empty());
    }

    #[test]
    fn out_of_band_mutation_invalidates_the_log() {
        use crate::delta::DeltaBatch;
        let (mut db, r) = setup();
        let mut batch = DeltaBatch::new();
        batch.insert(r, vec![Value(1), Value(2)], 0.5);
        db.apply(&batch);
        assert_eq!(db.changes_since(0).count(), 1);
        db.insert(r, vec![Value(3), Value(4)], 0.5);
        assert_eq!(db.version(), 2);
        assert_eq!(db.delta_log_start(), 2, "log can no longer replay");
        assert_eq!(db.changes_since(0).count(), 0);
    }

    #[test]
    fn by_rel_index() {
        let (mut db, r) = setup();
        let mut voc2 = db.voc.clone();
        let s = voc2.relation("S", 1).unwrap();
        db.voc = voc2;
        db.insert(r, vec![Value(1), Value(2)], 0.5);
        db.insert(s, vec![Value(3)], 0.5);
        db.insert(r, vec![Value(4), Value(5)], 0.5);
        assert_eq!(db.tuples_of(r).len(), 2);
        assert_eq!(db.tuples_of(s).len(), 1);
    }
}
