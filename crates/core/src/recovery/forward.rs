//! The forward pass: analysis + redo in one sweep (§3.6.1).
//!
//! "Because some ARIES variants merge the analysis and redo passes in a
//! single forward pass, ARIES/RH relies on a single forward pass to add
//! delegation." The pass
//!
//! * restores the checkpoint snapshot (transaction table **with scopes**,
//!   dirty-page table, txn-id high-water mark) pointed to by the master
//!   record, if any;
//! * *repeats history*: redoes every logged update and CLR whose effect is
//!   missing from the page (page-LSN test), starting from the earliest
//!   recLSN in the checkpointed dirty-page table;
//! * analyzes records after the checkpoint: transactions are **losers by
//!   default**, commits promote to winner, `delegate` records re-transfer
//!   scopes between Ob_Lists exactly as normal processing did (§3.6.1
//!   delegate: "this is done just as delegate (3) in normal processing");
//! * collects the LSNs compensated by CLRs, so a backward pass after a
//!   crash-during-recovery never undoes the same update twice.

use crate::checkpoint::CheckpointSnapshot;
use crate::provenance::ProvenanceTable;
use crate::txn_table::{TrList, TxnStatus};
use rh_common::codec::Codec;
use rh_common::{Lsn, ObjectId, Result, RhError, TxnId, UpdateOp};
use rh_obs::{names, Obs};
use rh_storage::BufferPool;
use rh_wal::record::{DelegateBody, LogRecord, RecordBody};
use rh_wal::LogManager;
use std::collections::{HashMap, HashSet};

/// Counters describing one forward pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardStats {
    /// LSN the redo scan started at.
    pub redo_from: Lsn,
    /// LSN analysis started at (after the checkpoint snapshot, if any).
    pub analysis_from: Lsn,
    /// Records visited by the scan.
    pub records_scanned: u64,
    /// Updates/CLRs actually reapplied to pages.
    pub redone: u64,
    /// Commit records seen (winners).
    pub commits_seen: u64,
    /// Abort records seen.
    pub aborts_seen: u64,
    /// Delegate records seen.
    pub delegations_seen: u64,
    /// 2PC `Prepare` records seen.
    pub prepares_seen: u64,
}

/// Everything the forward pass reconstructs.
#[derive(Debug)]
pub struct ForwardOutcome {
    /// The rebuilt transaction table: "Ob_Lists are restored to their
    /// state before the crash, for all transactions" (§3.6.1).
    pub tr: TrList,
    /// LSNs of updates already undone by a logged CLR.
    pub compensated: HashSet<Lsn>,
    /// Transaction-id high-water mark + 1.
    pub next_txn: u64,
    /// Lazy-baseline bookkeeping: scope identity `(ob, invoker, first)` →
    /// `(last, final owner)` for every scope ever delegated, including
    /// scopes whose owner has since left the table. Empty unless tracking
    /// was requested.
    pub lazy_scopes: HashMap<(ObjectId, TxnId, Lsn), (Lsn, TxnId)>,
    /// Per-object delegation responsibility chains: restored from the
    /// checkpoint snapshot, then extended by every delegate record the
    /// analysis region replays — the same hops normal processing
    /// recorded before the crash.
    pub prov: ProvenanceTable,
    /// Coordinator commit decisions found in this log: transaction →
    /// participant shard indices. The sharded resolver unions these
    /// across every shard's recovery to decide in-doubt transactions.
    pub coord_commits: Vec<(TxnId, Vec<u32>)>,
    /// Counters.
    pub stats: ForwardStats,
}

/// Ensures `txn` has a table entry; records of unknown transactions imply
/// one (ARIES analysis does the same — and the lazy baseline can leave
/// rewritten records positioned before their new owner's begin record).
fn ensure_txn(tr: &mut TrList, txn: TxnId, lsn: Lsn) {
    if !tr.contains(txn) {
        tr.insert(txn, lsn);
    }
}

fn redo_if_needed(
    pool: &mut BufferPool,
    log: &LogManager,
    lsn: Lsn,
    ob: ObjectId,
    op: &UpdateOp,
    stats: &mut ForwardStats,
) -> Result<()> {
    let page_lsn = pool.page_lsn_of(ob, log)?;
    if page_lsn.is_null() || page_lsn < lsn {
        let cur = pool.read_object(ob, log)?;
        pool.write_object(ob, op.apply(cur), lsn, log)?;
        stats.redone += 1;
    }
    Ok(())
}

/// Runs the forward pass. When `track_lazy` is set, also records every
/// delegated scope for the lazy-rewrite baseline's backward pass.
///
/// Scope-table reconstruction is narrated into `obs`: scope opens and
/// extends, delegate-record replays (with their merge counts), and a
/// `forward` span bracketing the whole sweep.
pub fn forward_pass(
    log: &LogManager,
    pool: &mut BufferPool,
    track_lazy: bool,
    obs: &Obs,
) -> Result<ForwardOutcome> {
    let span = obs.tracer.span(names::SPAN_FORWARD);
    let mut tr = TrList::new();
    let mut compensated = HashSet::new();
    let mut lazy_scopes = HashMap::new();
    let mut prov = ProvenanceTable::new();
    let mut coord_commits: Vec<(TxnId, Vec<u32>)> = Vec::new();
    let mut next_txn: u64 = 0;
    let mut stats = ForwardStats::default();

    // ---- locate the starting points -----------------------------------
    let master = log.stable().master();
    // A truncated log begins after its base; records before it cannot be
    // (and never need to be) read.
    let mut redo_from = log.first_lsn();
    let mut analysis_from = log.first_lsn();
    if !master.is_null() {
        // Find the CheckpointEnd paired with the master's CheckpointBegin
        // (in this engine they are adjacent, but scan defensively).
        let mut lsn = master.next();
        let end = log.curr_lsn();
        while lsn < end {
            let rec = log.read(lsn)?;
            if let RecordBody::CheckpointEnd { payload } = &rec.body {
                if rec.prev_lsn == master {
                    let snap = CheckpointSnapshot::from_bytes(payload).map_err(|_| {
                        RhError::CorruptLog { lsn, reason: "undecodable checkpoint snapshot" }
                    })?;
                    tr = snap.tr_list;
                    next_txn = snap.next_txn;
                    compensated.extend(snap.compensated.iter().copied());
                    prov = snap.provenance;
                    // Re-report coordinator decisions the snapshot
                    // carried: their CoordCommit records lie behind this
                    // anchor, but another shard's in-doubt resolution
                    // may still depend on them.
                    coord_commits.extend(snap.coord_decisions.iter().cloned());
                    analysis_from = lsn.next();
                    redo_from = snap
                        .dpt
                        .iter()
                        .map(|&(_, rec_lsn)| rec_lsn)
                        .filter(|l| !l.is_null())
                        .min()
                        .unwrap_or(analysis_from)
                        .max(log.first_lsn());
                    break;
                }
            }
            lsn = lsn.next();
        }
    }
    stats.redo_from = redo_from;
    stats.analysis_from = analysis_from;

    // ---- the single sweep ----------------------------------------------
    log.scan_forward(redo_from, log.curr_lsn().prev(), |rec| {
        let lsn = rec.lsn;
        stats.records_scanned += 1;
        if lsn < analysis_from {
            // Redo-only region: state changes here are already reflected
            // in the checkpoint snapshot; only page contents may lag.
            match &rec.body {
                RecordBody::Update { ob, op } | RecordBody::Clr { ob, op, .. } => {
                    redo_if_needed(pool, log, lsn, *ob, op, &mut stats)?;
                    if let RecordBody::Clr { compensated: c, .. } = &rec.body {
                        compensated.insert(*c);
                    }
                }
                _ => {}
            }
        } else {
            apply_record(
                log,
                pool,
                &mut tr,
                &mut compensated,
                &mut lazy_scopes,
                &mut prov,
                &mut coord_commits,
                track_lazy,
                rec,
                &mut stats,
                obs,
                Some(&span),
            )?;
        }
        if !rec.txn.is_none() {
            next_txn = next_txn.max(rec.txn.raw() + 1);
        }
        Ok(())
    })?;

    Ok(ForwardOutcome { tr, compensated, next_txn, lazy_scopes, prov, coord_commits, stats })
}

/// Analyzes (and redoes) **one** record, mutating the forward-pass state
/// in place — the loop body of [`forward_pass`]'s analysis region, made
/// standalone so a read replica can stay in perpetual forward pass:
/// every shipped record flows through exactly this function, so the
/// replica's scope tables, provenance chains, and coordinator decisions
/// are byte-for-byte what a restart recovery of the same log would
/// build. `span` is the enclosing forward-pass span when run inside a
/// recovery; a replica's open-ended pass has none.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_record(
    log: &LogManager,
    pool: &mut BufferPool,
    tr: &mut TrList,
    compensated: &mut HashSet<Lsn>,
    lazy_scopes: &mut HashMap<(ObjectId, TxnId, Lsn), (Lsn, TxnId)>,
    prov: &mut ProvenanceTable,
    coord_commits: &mut Vec<(TxnId, Vec<u32>)>,
    track_lazy: bool,
    rec: &LogRecord,
    stats: &mut ForwardStats,
    obs: &Obs,
    span: Option<&rh_obs::SpanGuard<'_>>,
) -> Result<()> {
    let lsn = rec.lsn;
    match &rec.body {
        RecordBody::Begin => {
            // LOSER BY DEFAULT (§3.6.1): a fresh entry is Active, and
            // Active means loser until a commit record says otherwise.
            ensure_txn(tr, rec.txn, lsn);
        }
        RecordBody::Update { ob, op } => {
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            // ADJUST SCOPES "just as update (1) in normal processing".
            match tr.get_mut(rec.txn)?.ob_list.record_update(*ob, rec.txn, lsn) {
                crate::oblist::ScopeAction::Opened => obs.registry.inc(names::M_SCOPE_OPENS),
                crate::oblist::ScopeAction::Extended => obs.registry.inc(names::M_SCOPE_EXTENDS),
            }
            redo_if_needed(pool, log, lsn, *ob, op, stats)?;
        }
        RecordBody::Clr { ob, op, compensated: c, .. } => {
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            compensated.insert(*c);
            redo_if_needed(pool, log, lsn, *ob, op, stats)?;
        }
        RecordBody::Delegate { tee, body, .. } => {
            stats.delegations_seen += 1;
            obs.registry.inc(names::M_SCOPE_DELEGATE_REPLAYS);
            if let Some(span) = span {
                span.point(
                    names::EV_DELEGATE_REPLAY,
                    lsn.raw(),
                    lsn.raw(),
                    rec.txn.raw(),
                    tee.raw(),
                );
            }
            ensure_txn(tr, rec.txn, lsn);
            ensure_txn(tr, *tee, lsn);
            // TRANSFER RESPONSIBILITY "just as delegate (3) in normal
            // processing" — leniently: on a log the lazy baseline has
            // rewritten, the delegator's entry may already be gone.
            let objects: Vec<ObjectId> = match body {
                DelegateBody::Objects(objs) => objs.clone(),
                DelegateBody::All => tr.get(rec.txn)?.ob_list.objects().collect(),
            };
            for ob in objects {
                if let Some(entry) = tr.get_mut(rec.txn)?.ob_list.take(ob) {
                    if track_lazy {
                        for s in &entry.scopes {
                            lazy_scopes.insert((ob, s.invoker, s.first), (s.last, *tee));
                        }
                    }
                    let merged = tr.get_mut(*tee)?.ob_list.absorb(ob, entry, rec.txn);
                    obs.registry.add(names::M_SCOPE_MERGES, merged as u64);
                    // REBUILD PROVENANCE: the same hop normal processing
                    // recorded. Idempotent per (ob, lsn), so hops already
                    // restored from the checkpoint are not re-counted.
                    if let Some(depth) = prov.record_hop(ob, rec.txn, *tee, lsn) {
                        obs.registry.inc(names::M_PROVENANCE_HOPS);
                        obs.registry.observe(names::M_PROVENANCE_CHAIN_DEPTH, depth as u64);
                        obs.tracer.point(
                            names::EV_PROVENANCE_HOP,
                            lsn.raw(),
                            ob.raw(),
                            rec.txn.raw(),
                            tee.raw(),
                        );
                    }
                }
            }
            tr.set_bc(rec.txn, lsn)?;
            tr.set_bc(*tee, lsn)?;
        }
        RecordBody::Commit => {
            stats.commits_seen += 1;
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            // WINNER (§3.6.1): "Declare t as a winner."
            tr.get_mut(rec.txn)?.status = TxnStatus::Committed;
        }
        RecordBody::Abort => {
            stats.aborts_seen += 1;
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            let entry = tr.get_mut(rec.txn)?;
            entry.status = TxnStatus::Aborted;
            // The abort record is only written after every responsible
            // update was undone and compensated (§3.5 abort), so these
            // scopes have nothing left to undo — drop them so the
            // backward pass does not walk dead clusters.
            entry.ob_list = crate::oblist::ObList::new();
        }
        RecordBody::End => {
            tr.remove(rec.txn);
        }
        RecordBody::Prepare => {
            stats.prepares_seen += 1;
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            // IN DOUBT: prepared, and no local commit/abort seen yet. A
            // later Commit/Abort record overrides this, exactly as during
            // normal 2PC processing.
            tr.get_mut(rec.txn)?.status = TxnStatus::Prepared;
        }
        RecordBody::CoordCommit { participants } => {
            ensure_txn(tr, rec.txn, lsn);
            tr.set_bc(rec.txn, lsn)?;
            coord_commits.push((rec.txn, participants.clone()));
            // The coordinator record's durability IS the global commit:
            // locally the transaction is a winner from here on, even if
            // its (lazily flushed) participant Commit record was lost.
            tr.get_mut(rec.txn)?.status = TxnStatus::Committed;
        }
        RecordBody::CheckpointBegin | RecordBody::CheckpointEnd { .. } => {
            // A checkpoint later than the master anchor (or an incomplete
            // one): its information is redundant with the live scan.
        }
    }
    Ok(())
}
