//! Machine-checked safety invariants for the BFT engines.
//!
//! A [`SafetyMonitor`] sits beside a consensus cluster and observes every
//! proposal, vote, quorum claim, certificate, and commit at message level —
//! the same ground truth the nodes act on, not a summary of it. It checks
//! the invariants Byzantine fault tolerance promises:
//!
//! - **agreement** — no two conflicting commits (different digests) at the
//!   same height/sequence, and no two conflicting certificates for the same
//!   slot;
//! - **quorum integrity** — no node claims a quorum backed by fewer than
//!   `2f+1` *distinct* voters;
//! - **accountable equivocation** — proposing two blocks for one slot or
//!   voting for two digests in one round is detected and attributed, so a
//!   run can assert that ≤ f equivocators never finalize conflicting state.
//!
//! Violations are *counted*, never panicked on (mirroring the
//! `DeliveryAccounting` style in `coconut::chaos`): beyond-f campaigns are
//! legitimate experiments whose measured safety loss is the result, and a
//! monitor that aborts the run would leave that unmeasurable.
//!
//! The monitor distinguishes *observations* (Byzantine behaviour seen on
//! the wire — expected whenever a fault campaign flags nodes) from
//! *violations* (safety actually lost — expected only beyond f). A report
//! is counters and the number of flagged nodes, and the monitor never
//! iterates its maps, so reports are deterministic for a deterministic
//! message schedule whatever order its state is stored in. Proposals,
//! votes and tallies are kept per `(epoch, slot)` as one short list of
//! distinct records, so an observation costs one map lookup and a scan of
//! the records of its own slot.

use std::collections::{BTreeMap, BTreeSet};

use coconut_simnet::ByzantineBehaviour;
use coconut_types::{MixMap, NodeId, SimTime};

/// An ordered set that holds its first element inline and spills to a
/// sorted `Vec` only on the second. Nearly every slot sees one certified
/// and one committed digest, and the rest see a handful, so this spares
/// each entry the tree node a `BTreeSet` would allocate.
#[derive(Debug, Clone, Default)]
enum InlineSet<T> {
    #[default]
    Empty,
    One(T),
    Many(Vec<T>),
}

impl<T: Ord + Copy> InlineSet<T> {
    /// Adds `value`; `true` if it was not present (as `BTreeSet::insert`).
    fn insert(&mut self, value: T) -> bool {
        match self {
            InlineSet::Empty => *self = InlineSet::One(value),
            InlineSet::One(first) if *first == value => return false,
            InlineSet::One(first) => {
                *self = InlineSet::Many(vec![(*first).min(value), (*first).max(value)])
            }
            InlineSet::Many(set) => match set.binary_search(&value) {
                Ok(_) => return false,
                Err(at) => set.insert(at, value),
            },
        }
        true
    }

    fn is_empty(&self) -> bool {
        matches!(self, InlineSet::Empty)
    }
}

/// What a [`Record`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `node` proposed `digest`.
    Proposal,
    /// `node` cast a vote of this phase for `digest`.
    Vote(VotePhase),
    /// `node` counted the `voters` of this phase for `digest`.
    Tally(VotePhase),
}

/// One distinct observation at an `(epoch, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    kind: Kind,
    /// A tally's voters are ids `64 * word + i` for each bit `i` of
    /// `voters`. A 16-bit word keeps a record at three words and covers
    /// ids below 2^22.
    word: u16,
    node: NodeId,
    digest: u64,
    voters: u64,
}

/// Adds the record that `node` did `kind` for `digest` unless it is there
/// already. `true` when it is new and `node` had done `kind` for another
/// digest: an equivocation or a double vote.
fn conflicts(records: &mut Vec<Record>, kind: Kind, node: NodeId, digest: u64) -> bool {
    let (mut seen, mut other) = (false, false);
    for r in records.iter().filter(|r| r.kind == kind && r.node == node) {
        seen |= r.digest == digest;
        other |= r.digest != digest;
    }
    if !seen {
        records.push(Record {
            kind,
            word: 0,
            node,
            digest,
            voters: 0,
        });
    }
    !seen && other
}

/// Which voting phase a vote belongs to; phases never mix in the counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VotePhase {
    /// PBFT/IBFT prepare phase (including the proposer's implicit prepare).
    Prepare,
    /// PBFT/IBFT commit phase.
    Commit,
    /// DiemBFT's single vote phase (votes aggregate into a QC).
    Vote,
}

/// Safety actually lost: each counter is a broken invariant, expected to be
/// zero whenever at most f nodes misbehave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafetyViolations {
    /// Two different digests committed for the same height/sequence.
    pub conflicting_commits: u64,
    /// Two different digests certified (quorum-signed) for the same slot.
    pub conflicting_certificates: u64,
    /// A node acted on a "quorum" backed by < 2f+1 distinct voters.
    pub undersized_quorums: u64,
    /// A commit was certified by a quorum of a superseded configuration
    /// epoch (membership had already changed when the certificate was
    /// acted on).
    pub stale_epoch_commits: u64,
    /// A joiner voted before its catch-up/state transfer completed.
    pub presync_votes: u64,
}

impl SafetyViolations {
    /// Total violations across all invariants.
    pub fn total(&self) -> u64 {
        self.conflicting_commits
            + self.conflicting_certificates
            + self.undersized_quorums
            + self.stale_epoch_commits
            + self.presync_votes
    }

    /// `true` when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Byzantine behaviour observed on the wire — evidence of *attempted*
/// subversion, not of safety loss. Non-zero whenever a campaign flags
/// nodes, regardless of whether the attack succeeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByzantineObservations {
    /// A proposer sent two different digests for the same slot.
    pub equivocating_proposals: u64,
    /// A validator voted for two different digests in one phase and slot.
    pub double_votes: u64,
    /// Distinct nodes caught doing either of the above.
    pub byzantine_nodes: u64,
}

/// The monitor's verdict: what was observed and what was actually broken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafetyReport {
    /// Invariants broken (expected zero at ≤ f misbehaving nodes).
    pub violations: SafetyViolations,
    /// Misbehaviour seen on the wire (expected non-zero when flagged).
    pub observed: ByzantineObservations,
}

/// Observes a BFT cluster's messages and checks the safety invariants.
///
/// Keys are `(epoch, slot)` pairs: PBFT uses `(view, seq)`, IBFT
/// `(round, height)`, DiemBFT `(0, round)`. Commits and certificates are
/// keyed by slot alone, because agreement must hold across views/rounds —
/// committing different blocks for one height in two views is exactly the
/// disaster BFT exists to prevent.
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    quorum: u32,
    /// The cluster's current membership-configuration epoch (0 = genesis
    /// membership). Distinct from the view/round "epoch" in the observe
    /// keys: this one only advances on join/leave reconfiguration.
    config_epoch: u64,
    /// Reconfigurations seen (number of `begin_epoch` calls).
    reconfigurations: u64,
    /// Joiners whose catch-up/state transfer has started but not finished.
    /// Any vote by such a node is a `presync_votes` violation.
    syncing: BTreeSet<NodeId>,
    /// (epoch, slot) → its distinct records: each proposer's digests
    /// (equivocation), each voter's digests per phase (double votes, a
    /// global view), and each observer's voters per phase and digest (the
    /// quorum-size check).
    slots: MixMap<(u64, u64), Vec<Record>>,
    /// slot → digests certified by some quorum.
    certificates: BTreeMap<u64, InlineSet<u64>>,
    /// slot → digests committed by some node.
    commits: BTreeMap<u64, InlineSet<u64>>,
    /// Nodes caught equivocating or double-voting.
    flagged: BTreeSet<NodeId>,
    violations: SafetyViolations,
    equivocating_proposals: u64,
    double_votes: u64,
}

impl SafetyMonitor {
    /// A monitor for a cluster whose quorum threshold is `quorum`
    /// (`2f+1` of `n = 3f+1` — see [`crate::bft_quorum`]).
    pub fn new(quorum: u32) -> Self {
        SafetyMonitor {
            quorum,
            config_epoch: 0,
            reconfigurations: 0,
            syncing: BTreeSet::new(),
            slots: MixMap::default(),
            certificates: BTreeMap::new(),
            commits: BTreeMap::new(),
            flagged: BTreeSet::new(),
            violations: SafetyViolations::default(),
            equivocating_proposals: 0,
            double_votes: 0,
        }
    }

    /// The quorum threshold this monitor checks against.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }

    /// The current membership-configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch
    }

    /// Reconfigurations recorded so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Advances the membership-configuration epoch to `epoch` with the
    /// recomputed `quorum` threshold of the new membership. From this point
    /// on, quorum-size checks use the new threshold and any commit whose
    /// certificate was formed under a superseded epoch is a
    /// `stale_epoch_commits` violation.
    pub fn begin_epoch(&mut self, epoch: u64, quorum: u32) {
        self.config_epoch = epoch;
        self.quorum = quorum;
        self.reconfigurations += 1;
    }

    /// Records that joiner `node` started its catch-up/state transfer. Any
    /// vote it casts before [`SafetyMonitor::observe_sync_complete`] is a
    /// `presync_votes` violation.
    pub fn observe_sync_start(&mut self, node: NodeId) {
        self.syncing.insert(node);
    }

    /// Records that joiner `node` finished catch-up and may vote and lead.
    pub fn observe_sync_complete(&mut self, node: NodeId) {
        self.syncing.remove(&node);
    }

    /// `true` while `node` is a joiner mid-catch-up.
    pub fn is_syncing(&self, node: NodeId) -> bool {
        self.syncing.contains(&node)
    }

    /// Records that some node committed `digest` at `slot` on the strength
    /// of a certificate formed in membership epoch `cert_epoch`. Besides
    /// the agreement check of [`SafetyMonitor::observe_commit`], a
    /// certificate from a superseded epoch is a `stale_epoch_commits`
    /// violation: the quorum that signed it no longer is one.
    pub fn observe_epoch_commit(&mut self, cert_epoch: u64, slot: u64, digest: u64) {
        if cert_epoch != self.config_epoch {
            self.violations.stale_epoch_commits += 1;
        }
        self.observe_commit(slot, digest);
    }

    /// Records that `proposer` proposed `digest` for `(epoch, slot)`. A
    /// second distinct digest for the same key is an equivocation.
    pub fn observe_proposal(&mut self, epoch: u64, slot: u64, proposer: NodeId, digest: u64) {
        let records = self.slots.entry((epoch, slot)).or_default();
        if conflicts(records, Kind::Proposal, proposer, digest) {
            self.equivocating_proposals += 1;
            self.flagged.insert(proposer);
        }
    }

    /// Records that `observer` counted a `phase` vote by `voter` for
    /// `digest` at `(epoch, slot)`. Detects double votes (one voter, two
    /// digests, same phase and slot) and feeds the observer's tally for
    /// the quorum-size check.
    pub fn observe_vote(
        &mut self,
        observer: NodeId,
        phase: VotePhase,
        epoch: u64,
        slot: u64,
        digest: u64,
        voter: NodeId,
    ) {
        if self.syncing.contains(&voter) {
            self.violations.presync_votes += 1;
        }
        let records = self.slots.entry((epoch, slot)).or_default();
        if conflicts(records, Kind::Vote(phase), voter, digest) {
            self.double_votes += 1;
            self.flagged.insert(voter);
        }
        let word = u16::try_from(voter.0 / 64).expect("voter ids are below 2^22");
        let bit = 1u64 << (voter.0 % 64);
        let kind = Kind::Tally(phase);
        match records
            .iter_mut()
            .find(|r| (r.kind, r.node, r.word, r.digest) == (kind, observer, word, digest))
        {
            Some(r) => r.voters |= bit,
            None => records.push(Record {
                kind,
                word,
                node: observer,
                digest,
                voters: bit,
            }),
        }
    }

    /// Records that `observer` acted on a full `phase` quorum for `digest`
    /// at `(epoch, slot)` — e.g. moved to prepared/committed, or formed a
    /// QC. If the observer's tally holds fewer than `quorum` distinct
    /// voters, the quorum was undersized.
    pub fn observe_quorum(
        &mut self,
        observer: NodeId,
        phase: VotePhase,
        epoch: u64,
        slot: u64,
        digest: u64,
    ) {
        let distinct: u32 = self.slots.get(&(epoch, slot)).map_or(0, |records| {
            records
                .iter()
                .filter(|r| (r.kind, r.node, r.digest) == (Kind::Tally(phase), observer, digest))
                .map(|r| r.voters.count_ones())
                .sum()
        });
        if distinct < self.quorum {
            self.violations.undersized_quorums += 1;
        }
    }

    /// Records a quorum certificate for `digest` at `slot`. A second
    /// distinct certified digest for the slot is a conflicting
    /// certificate.
    pub fn observe_certificate(&mut self, slot: u64, digest: u64) {
        let digests = self.certificates.entry(slot).or_default();
        if !digests.is_empty() && digests.insert(digest) {
            self.violations.conflicting_certificates += 1;
        } else {
            digests.insert(digest);
        }
    }

    /// Records that some node committed `digest` at `slot`. A second
    /// distinct committed digest for the slot breaks agreement.
    pub fn observe_commit(&mut self, slot: u64, digest: u64) {
        let digests = self.commits.entry(slot).or_default();
        if !digests.is_empty() && digests.insert(digest) {
            self.violations.conflicting_commits += 1;
        } else {
            digests.insert(digest);
        }
    }

    /// Drops the records of every slot below `slot`, in every epoch. The
    /// counters and flagged nodes stay, so the report is unchanged; a later
    /// observation at a forgotten slot would be checked against nothing,
    /// so call this only below the lowest slot any node can still act on.
    pub fn forget_below(&mut self, slot: u64) {
        self.slots.retain(|&(_, s), _| s >= slot);
        self.certificates = self.certificates.split_off(&slot);
        self.commits = self.commits.split_off(&slot);
    }

    /// The verdict over everything observed so far.
    pub fn report(&self) -> SafetyReport {
        SafetyReport {
            violations: self.violations,
            observed: ByzantineObservations {
                equivocating_proposals: self.equivocating_proposals,
                double_votes: self.double_votes,
                byzantine_nodes: self.flagged.len() as u64,
            },
        }
    }
}

/// Per-node Byzantine fault windows, as armed by fault injection. The BFT
/// engines keep one per node and consult it at proposal/vote time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByzantineFlags {
    equivocate_until: Option<SimTime>,
    double_vote_until: Option<SimTime>,
}

impl ByzantineFlags {
    /// Arms `behaviour` until virtual time `until`; a later window extends
    /// an earlier one, it never shortens it.
    pub fn arm(&mut self, behaviour: ByzantineBehaviour, until: SimTime) {
        let slot = match behaviour {
            ByzantineBehaviour::EquivocateProposer => &mut self.equivocate_until,
            ByzantineBehaviour::DoubleVote => &mut self.double_vote_until,
        };
        *slot = Some(slot.map_or(until, |t| t.max(until)));
    }

    /// `true` while the node equivocates as proposer.
    pub fn equivocates(&self, now: SimTime) -> bool {
        self.equivocate_until.is_some_and(|t| now < t)
    }

    /// `true` while the node double-votes as validator.
    pub fn double_votes(&self, now: SimTime) -> bool {
        self.double_vote_until.is_some_and(|t| now < t)
    }

    /// `true` while either behaviour is armed — equivocating proposers
    /// deliver both conflicting blocks to such peers (their accomplices).
    pub fn is_byzantine(&self, now: SimTime) -> bool {
        self.equivocates(now) || self.double_votes(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u32 = 3; // n = 4, f = 1

    impl SafetyMonitor {
        /// Distinct `(epoch, slot)` keys holding records.
        pub(crate) fn slot_count(&self) -> usize {
            self.slots.len()
        }
    }

    impl<T> InlineSet<T> {
        fn len(&self) -> usize {
            match self {
                InlineSet::Empty => 0,
                InlineSet::One(_) => 1,
                InlineSet::Many(set) => set.len(),
            }
        }
    }

    #[test]
    fn clean_run_reports_clean() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_proposal(0, 1, NodeId(0), 0xAA);
        for voter in 0..3 {
            m.observe_vote(NodeId(1), VotePhase::Prepare, 0, 1, 0xAA, NodeId(voter));
        }
        m.observe_quorum(NodeId(1), VotePhase::Prepare, 0, 1, 0xAA);
        m.observe_certificate(1, 0xAA);
        m.observe_commit(1, 0xAA);
        m.observe_commit(1, 0xAA); // same digest again: still clean
        let r = m.report();
        assert!(r.violations.is_clean());
        assert_eq!(r.observed, ByzantineObservations::default());
    }

    #[test]
    fn equivocation_is_attributed_but_not_a_violation() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_proposal(0, 1, NodeId(0), 0xAA);
        m.observe_proposal(0, 1, NodeId(0), 0xBB);
        m.observe_proposal(0, 1, NodeId(0), 0xBB); // repeat: counted once
        m.observe_proposal(0, 2, NodeId(0), 0xCC); // next slot: fine
        let r = m.report();
        assert_eq!(r.observed.equivocating_proposals, 1);
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "attempt alone breaks nothing");
    }

    #[test]
    fn double_votes_are_per_phase_and_slot() {
        let mut m = SafetyMonitor::new(Q);
        let o = NodeId(3);
        m.observe_vote(o, VotePhase::Prepare, 0, 1, 0xAA, NodeId(2));
        m.observe_vote(o, VotePhase::Prepare, 0, 1, 0xBB, NodeId(2)); // double
        m.observe_vote(o, VotePhase::Commit, 0, 1, 0xAA, NodeId(2)); // other phase
        m.observe_vote(o, VotePhase::Prepare, 1, 1, 0xCC, NodeId(2)); // other view
        let r = m.report();
        assert_eq!(r.observed.double_votes, 1);
        assert_eq!(r.observed.byzantine_nodes, 1);
    }

    #[test]
    fn undersized_quorum_is_a_violation() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_vote(NodeId(1), VotePhase::Commit, 0, 7, 0xAA, NodeId(0));
        m.observe_vote(NodeId(1), VotePhase::Commit, 0, 7, 0xAA, NodeId(0)); // dup voter
        m.observe_vote(NodeId(1), VotePhase::Commit, 0, 7, 0xAA, NodeId(1));
        m.observe_quorum(NodeId(1), VotePhase::Commit, 0, 7, 0xAA);
        assert_eq!(m.report().violations.undersized_quorums, 1);
        // A third distinct voter fixes it for the next claim.
        m.observe_vote(NodeId(1), VotePhase::Commit, 0, 7, 0xAA, NodeId(2));
        m.observe_quorum(NodeId(1), VotePhase::Commit, 0, 7, 0xAA);
        assert_eq!(m.report().violations.undersized_quorums, 1);
    }

    #[test]
    fn tallies_count_voters_across_id_words() {
        let mut m = SafetyMonitor::new(Q);
        for voter in [1, 64, 130, 64, 1] {
            m.observe_vote(NodeId(0), VotePhase::Vote, 0, 2, 0xAA, NodeId(voter));
        }
        m.observe_quorum(NodeId(0), VotePhase::Vote, 0, 2, 0xAA);
        assert!(m.report().violations.is_clean(), "three distinct voters");
        m.begin_epoch(1, 4);
        m.observe_quorum(NodeId(0), VotePhase::Vote, 0, 2, 0xAA);
        assert_eq!(m.report().violations.undersized_quorums, 1);
    }

    #[test]
    fn conflicting_commits_and_certificates_are_violations() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_certificate(4, 0xAA);
        m.observe_certificate(4, 0xBB);
        m.observe_commit(4, 0xAA);
        m.observe_commit(4, 0xBB);
        m.observe_commit(5, 0xCC); // other slot: fine
        let r = m.report();
        assert_eq!(r.violations.conflicting_certificates, 1);
        assert_eq!(r.violations.conflicting_commits, 1);
        assert_eq!(r.violations.total(), 2);
    }

    #[test]
    fn presync_votes_are_violations_until_sync_completes() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_sync_start(NodeId(4));
        assert!(m.is_syncing(NodeId(4)));
        m.observe_vote(NodeId(1), VotePhase::Prepare, 0, 1, 0xAA, NodeId(4));
        assert_eq!(m.report().violations.presync_votes, 1);
        m.observe_sync_complete(NodeId(4));
        assert!(!m.is_syncing(NodeId(4)));
        m.observe_vote(NodeId(1), VotePhase::Prepare, 0, 2, 0xBB, NodeId(4));
        assert_eq!(m.report().violations.presync_votes, 1, "synced: clean");
    }

    #[test]
    fn stale_epoch_commits_are_violations() {
        let mut m = SafetyMonitor::new(Q);
        m.observe_epoch_commit(0, 1, 0xAA);
        assert!(m.report().violations.is_clean());
        m.begin_epoch(1, 3);
        assert_eq!(m.config_epoch(), 1);
        assert_eq!(m.reconfigurations(), 1);
        // A certificate formed under epoch 0 must not commit in epoch 1.
        m.observe_epoch_commit(0, 2, 0xBB);
        assert_eq!(m.report().violations.stale_epoch_commits, 1);
        m.observe_epoch_commit(1, 3, 0xCC);
        assert_eq!(m.report().violations.stale_epoch_commits, 1);
    }

    #[test]
    fn begin_epoch_updates_quorum_threshold() {
        let mut m = SafetyMonitor::new(Q);
        // Membership grows 4 → 5: quorum stays 2f+1 = 3; shrink to 3 → 1.
        m.begin_epoch(1, 1);
        assert_eq!(m.quorum(), 1);
        m.observe_vote(NodeId(1), VotePhase::Commit, 0, 9, 0xAA, NodeId(0));
        m.observe_quorum(NodeId(1), VotePhase::Commit, 0, 9, 0xAA);
        assert_eq!(m.report().violations.undersized_quorums, 0);
    }

    /// One interleaved stream over two view epochs, out-of-order slots and
    /// every kind of observation pins the whole report: each counter keeps
    /// its meaning whatever layout the monitor stores its records in.
    #[test]
    fn interleaved_stream_pins_the_exact_report() {
        use VotePhase::{Commit, Prepare};
        let mut m = SafetyMonitor::new(Q);
        let [a, b, c, d, joiner] = [0, 1, 2, 3, 4].map(NodeId);
        m.observe_sync_start(joiner);
        // Epoch 0: slot 5 opens before slot 3, and `a` equivocates at 5.
        m.observe_proposal(0, 5, a, 0x50);
        m.observe_proposal(0, 3, a, 0x30);
        m.observe_proposal(0, 5, a, 0x51); // equivocation 1
        m.observe_proposal(0, 5, a, 0x51); // repeat: not counted again
        m.observe_proposal(0, 5, b, 0x51); // another proposer: not `a`'s
        for voter in [a, b, c] {
            m.observe_vote(d, Prepare, 0, 5, 0x50, voter);
        }
        m.observe_vote(d, Prepare, 0, 5, 0x51, b); // double vote 1 (prepare)
        m.observe_vote(c, Prepare, 0, 5, 0x51, b); // same pair, new observer
        m.observe_vote(d, Commit, 0, 5, 0x50, b); // other phase: clean
        m.observe_vote(d, Prepare, 0, 3, 0x30, a);
        m.observe_quorum(d, Prepare, 0, 5, 0x50); // three distinct voters
        m.observe_quorum(d, Prepare, 0, 5, 0x51); // one voter: undersized 1
        m.observe_quorum(c, Prepare, 0, 5, 0x50); // no tally at c: undersized 2
        m.observe_vote(joiner, Prepare, 0, 5, 0x50, joiner); // presync 1
        m.observe_proposal(0, 5, a, 0x52); // third digest: equivocation 2
                                           // Epoch 1 reuses slots 3 and 5; nothing carries over from epoch 0.
        m.observe_proposal(1, 5, a, 0x55); // a's first proposal in epoch 1
        m.observe_proposal(1, 3, b, 0x33);
        m.observe_proposal(1, 3, b, 0x34); // equivocation 3
        m.observe_vote(a, Prepare, 1, 5, 0x51, b); // epoch 0 vote does not pair
        for voter in [a, c, c] {
            m.observe_vote(d, Commit, 1, 3, 0x33, voter);
        }
        m.observe_quorum(d, Commit, 1, 3, 0x33); // c twice: undersized 3
        m.observe_vote(d, Commit, 1, 3, 0x34, c); // double vote 2 (commit)
        m.observe_vote(d, Commit, 1, 3, 0x35, c); // third digest: double vote 3
        m.observe_vote(d, Commit, 1, 3, 0x33, d);
        m.observe_quorum(d, Commit, 1, 3, 0x33); // a, c and d: fine
                                                 // A late vote for the old epoch's slot 3 after epoch 1 opened.
        m.observe_vote(d, Prepare, 0, 3, 0x31, a); // double vote 4
        m.observe_vote(b, Prepare, 0, 3, 0x30, joiner); // presync 2
        m.observe_sync_complete(joiner);
        m.observe_vote(b, Prepare, 0, 3, 0x30, joiner); // synced: clean
                                                        // Certificates and commits are keyed by slot alone.
        m.observe_certificate(5, 0x50);
        m.observe_certificate(3, 0x30);
        m.observe_certificate(5, 0x50);
        m.observe_certificate(3, 0x33); // conflicting certificate 1
        m.observe_certificate(3, 0x34); // conflicting certificate 2
        m.observe_commit(5, 0x50);
        m.observe_epoch_commit(0, 3, 0x33);
        m.observe_epoch_commit(0, 5, 0x51); // conflicting commit 1
        m.begin_epoch(1, 3);
        m.observe_epoch_commit(0, 7, 0x70); // stale epoch 1
        m.observe_epoch_commit(1, 7, 0x70);
        m.observe_vote(a, Commit, 1, 5, 0x55, a);
        m.observe_quorum(a, Commit, 1, 5, 0x55); // undersized 4
        assert_eq!(
            m.report(),
            SafetyReport {
                violations: SafetyViolations {
                    conflicting_commits: 1,
                    conflicting_certificates: 2,
                    undersized_quorums: 4,
                    stale_epoch_commits: 1,
                    presync_votes: 2,
                },
                observed: ByzantineObservations {
                    equivocating_proposals: 3,
                    double_votes: 4,
                    byzantine_nodes: 3,
                },
            }
        );
    }

    #[test]
    fn forget_below_keeps_the_report_and_checks_the_slots_it_keeps() {
        let mut m = SafetyMonitor::new(Q);
        for slot in 1..=6 {
            m.observe_proposal(0, slot, NodeId(0), slot);
            m.observe_vote(NodeId(1), VotePhase::Vote, 0, slot, slot, NodeId(2));
            m.observe_certificate(slot, slot);
            m.observe_commit(slot, slot);
        }
        m.observe_proposal(1, 2, NodeId(3), 0xE);
        m.observe_proposal(0, 2, NodeId(0), 0xF); // equivocation 1
        let before = m.report();
        m.forget_below(4);
        assert_eq!(m.report(), before, "forgetting changes no counter");
        let mut slots: Vec<_> = m.slots.keys().copied().collect();
        slots.sort_unstable();
        assert_eq!(slots, [(0, 4), (0, 5), (0, 6)], "every epoch is cut");
        assert_eq!(
            m.certificates.keys().copied().collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert_eq!(m.commits.keys().copied().collect::<Vec<_>>(), [4, 5, 6]);
        // The kept slots still detect every conflict against their records.
        m.observe_proposal(0, 4, NodeId(0), 0xA); // equivocation 2
        m.observe_vote(NodeId(1), VotePhase::Vote, 0, 5, 0xB, NodeId(2)); // double vote
        m.observe_certificate(6, 0xC);
        m.observe_commit(6, 0xD);
        let r = m.report();
        assert_eq!(r.observed.equivocating_proposals, 2);
        assert_eq!(r.observed.double_votes, 1);
        assert_eq!(r.violations.conflicting_certificates, 1);
        assert_eq!(r.violations.conflicting_commits, 1);
        // A forgotten slot has no records left to conflict with.
        m.observe_commit(3, 0xD);
        assert_eq!(m.report().violations.conflicting_commits, 1);
    }

    #[test]
    fn records_stay_three_words() {
        assert_eq!(std::mem::size_of::<Record>(), 24);
    }

    #[test]
    fn inline_set_insert_and_len_from_empty_to_many() {
        let mut s = InlineSet::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.insert(7u64), "empty → one");
        assert!(!s.insert(7), "repeat of the inline element");
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        assert!(s.insert(3), "one → many");
        assert!(!s.insert(7), "repeat of the first element after the move");
        assert!(!s.insert(3));
        assert_eq!(s.len(), 2);
        assert!(s.insert(11));
        assert!(!s.insert(11));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn inline_set_agrees_with_btreeset() {
        let mut rng = coconut_types::SimRng::seed_from_u64(9);
        for _ in 0..200 {
            let (mut inline, mut tree) = (InlineSet::default(), BTreeSet::new());
            for _ in 0..rng.gen_range_inclusive(0, 12) {
                let v = NodeId(rng.gen_range_inclusive(0, 9) as u32);
                assert_eq!(inline.insert(v), tree.insert(v));
                assert_eq!(inline.len(), tree.len());
                assert_eq!(inline.is_empty(), tree.is_empty());
            }
        }
    }

    #[test]
    fn flags_window_semantics() {
        let mut f = ByzantineFlags::default();
        assert!(!f.is_byzantine(SimTime::ZERO));
        f.arm(
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(10),
        );
        f.arm(
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(5),
        ); // no shrink
        assert!(f.equivocates(SimTime::from_secs(9)));
        assert!(
            !f.equivocates(SimTime::from_secs(10)),
            "window end exclusive"
        );
        assert!(!f.double_votes(SimTime::from_secs(9)));
        f.arm(ByzantineBehaviour::DoubleVote, SimTime::from_secs(20));
        assert!(f.double_votes(SimTime::from_secs(15)));
        assert!(f.is_byzantine(SimTime::from_secs(15)));
        assert!(!f.is_byzantine(SimTime::from_secs(25)));
    }
}
