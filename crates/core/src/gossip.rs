//! Decentralized control plane: SWIM-style gossip membership and
//! reputation-weighted health dissemination.
//!
//! The coordinator was the last single point of failure and the sole
//! consumer of [`crate::health`] signals. This module removes both
//! assumptions:
//!
//! * **Membership** — every node keeps a versioned view of the fleet
//!   ([`MemberRecord`]: incarnation + heartbeat counter + graded member
//!   state) and periodically push-pulls digests with a few random peers.
//!   Records merge by `(incarnation, heartbeat)` freshness, with the
//!   SWIM refutation rule: a node seeing itself suspected bumps its own
//!   incarnation, so a stale rumor cannot permanently kill a live node.
//! * **Health dissemination** — each node attaches its local
//!   [`Fleet`](crate::fleet::Fleet) observations ([`HealthReport`]: graded state,
//!   routing penalty, p50/p95 latency digest) to every gossip exchange,
//!   versioned per reporter so replayed or duplicated frames are
//!   idempotent.
//! * **Byzantine-resistant aggregation** — [`ReputationAggregator`]
//!   folds peer reports into a per-device penalty with a coordinate-wise
//!   *trimmed mean* weighted by per-reporter reputation. With trim width
//!   `k`, up to `k` lying reporters can never move the aggregate outside
//!   the honest reporters' range (the values outside that range are
//!   exactly the ones trimmed), and reporters whose claims repeatedly
//!   disagree with direct observation lose weight until they are ignored
//!   entirely. Aggregated peer penalties are *capped* when folded into
//!   the fleet (see `peer_penalty_cap`): gossip steers routing, but
//!   quarantine always requires local evidence plus a local canary pass.
//!
//! Everything is driven by explicit ticks and caller-provided seeds —
//! no wall clock, no OS entropy — so gossip chaos tests replay
//! bit-for-bit.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Wire format version of [`GossipMsg::encode`].
pub const GOSSIP_WIRE_VERSION: u8 = 1;

/// Hard cap on records per message: a corrupted length field must not
/// allocate unbounded memory.
const MAX_RECORDS: usize = 4096;

/// A deterministic node identity, derived from the run seed — never from
/// OS entropy — so distributed runs replay bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Derives the id of node `index` for a run seeded with `seed`
    /// (splitmix64 over the pair; stable across platforms).
    pub fn derive(seed: u64, index: u64) -> NodeId {
        let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        NodeId(z ^ (z >> 31))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What a node does in the fleet; coordinators are failover candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Runs (or can run) the serving/control loop.
    Coordinator,
    /// Hosts device compute.
    Worker,
}

impl NodeRole {
    fn code(self) -> u8 {
        match self {
            NodeRole::Coordinator => 0,
            NodeRole::Worker => 1,
        }
    }

    fn from_code(c: u8) -> NodeRole {
        if c == 0 {
            NodeRole::Coordinator
        } else {
            NodeRole::Worker
        }
    }
}

/// Graded membership state, ordered by badness for merge tie-breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberState {
    /// Heartbeats advancing.
    Alive,
    /// Heartbeat stale for `suspect_after` ticks — still a failover
    /// candidate, but rumored unhealthy.
    Suspect,
    /// Heartbeat stale for `fail_after` ticks — treated as gone.
    Failed,
}

impl MemberState {
    fn code(self) -> u8 {
        match self {
            MemberState::Alive => 0,
            MemberState::Suspect => 1,
            MemberState::Failed => 2,
        }
    }

    fn from_code(c: u8) -> MemberState {
        match c {
            1 => MemberState::Suspect,
            2 => MemberState::Failed,
            _ => MemberState::Alive,
        }
    }
}

/// One node's versioned membership record as seen by some observer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemberRecord {
    /// Whose record this is.
    pub id: NodeId,
    /// Role in the fleet.
    pub role: NodeRole,
    /// Failover rank (coordinators): lower ranks take over first; ties
    /// break by id, so the ordering is total and every node computes the
    /// same primary from the same view.
    pub rank: u32,
    /// Bumped by the owner to refute rumors about itself; the highest
    /// incarnation always wins a merge.
    pub incarnation: u64,
    /// Monotone liveness counter bumped by the owner every tick.
    pub heartbeat: u64,
    /// Observer-graded liveness.
    pub state: MemberState,
}

impl MemberRecord {
    /// Merge precedence: does `self` carry strictly newer information
    /// than `cur`? Same-version records merge to the *worse* state, so a
    /// suspicion and its evidence commute.
    fn supersedes(&self, cur: &MemberRecord) -> bool {
        (self.incarnation, self.heartbeat) > (cur.incarnation, cur.heartbeat)
            || ((self.incarnation, self.heartbeat) == (cur.incarnation, cur.heartbeat)
                && self.state > cur.state)
    }

    const WIRE_BYTES: usize = 8 + 1 + 4 + 8 + 8 + 1;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.0.to_le_bytes());
        out.push(self.role.code());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.incarnation.to_le_bytes());
        out.extend_from_slice(&self.heartbeat.to_le_bytes());
        out.push(self.state.code());
    }

    fn read(c: &mut Cursor<'_>) -> Result<MemberRecord, GossipError> {
        Ok(MemberRecord {
            id: NodeId(c.u64()?),
            role: NodeRole::from_code(c.u8()?),
            rank: c.u32()?,
            incarnation: c.u64()?,
            heartbeat: c.u64()?,
            state: MemberState::from_code(c.u8()?),
        })
    }
}

/// One reporter's graded-health observation of one device, as gossiped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthReport {
    /// Who observed it.
    pub reporter: NodeId,
    /// Which device the observation is about.
    pub device: u32,
    /// Claimed [`HealthState`](crate::health::HealthState) wire code.
    pub state: u8,
    /// Claimed routing-penalty multiplier (∞ = quarantined claim).
    pub penalty: f64,
    /// Claimed median latency (ms; NaN when unknown).
    pub p50_ms: f64,
    /// Claimed p95 latency (ms; NaN when unknown).
    pub p95_ms: f64,
    /// Reporter-local version: higher wins, equal is idempotent.
    pub version: u64,
}

impl HealthReport {
    const WIRE_BYTES: usize = 8 + 4 + 1 + 8 + 8 + 8 + 8;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.reporter.0.to_le_bytes());
        out.extend_from_slice(&self.device.to_le_bytes());
        out.push(self.state);
        out.extend_from_slice(&self.penalty.to_bits().to_le_bytes());
        out.extend_from_slice(&self.p50_ms.to_bits().to_le_bytes());
        out.extend_from_slice(&self.p95_ms.to_bits().to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
    }

    fn read(c: &mut Cursor<'_>) -> Result<HealthReport, GossipError> {
        Ok(HealthReport {
            reporter: NodeId(c.u64()?),
            device: c.u32()?,
            state: c.u8()?,
            penalty: f64::from_bits(c.u64()?),
            p50_ms: f64::from_bits(c.u64()?),
            p95_ms: f64::from_bits(c.u64()?),
            version: c.u64()?,
        })
    }
}

/// Why a gossip payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipError {
    /// Payload ended mid-record.
    Truncated,
    /// Unknown wire version byte.
    Version(u8),
    /// A length field exceeded `MAX_RECORDS` (4096).
    TooLarge(usize),
}

impl std::fmt::Display for GossipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GossipError::Truncated => write!(f, "gossip payload truncated"),
            GossipError::Version(v) => write!(f, "unknown gossip wire version {v}"),
            GossipError::TooLarge(n) => write!(f, "gossip record count {n} exceeds cap"),
        }
    }
}

impl std::error::Error for GossipError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], GossipError> {
        let end = self.pos.checked_add(n).ok_or(GossipError::Truncated)?;
        if end > self.buf.len() {
            return Err(GossipError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, GossipError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, GossipError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, GossipError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
}

/// One push (or pull reply) of gossip: the sender's full membership view
/// plus every health report it carries. Merging is idempotent, so
/// duplicated or reordered frames are harmless.
#[derive(Clone, Debug, PartialEq)]
pub struct GossipMsg {
    /// The sending node.
    pub from: NodeId,
    /// Membership records in the sender's view.
    pub members: Vec<MemberRecord>,
    /// Health reports in the sender's view (all reporters, not just the
    /// sender — rumors travel).
    pub reports: Vec<HealthReport>,
}

impl GossipMsg {
    /// Serializes to the versioned little-endian wire format carried by
    /// the transport's gossip control frame.
    pub fn encode(&self) -> Vec<u8> {
        let cap = 1
            + 8
            + 4
            + self.members.len() * MemberRecord::WIRE_BYTES
            + 4
            + self.reports.len() * HealthReport::WIRE_BYTES;
        let mut out = Vec::with_capacity(cap);
        out.push(GOSSIP_WIRE_VERSION);
        out.extend_from_slice(&self.from.0.to_le_bytes());
        out.extend_from_slice(&(self.members.len().min(MAX_RECORDS) as u32).to_le_bytes());
        for m in self.members.iter().take(MAX_RECORDS) {
            m.write(&mut out);
        }
        out.extend_from_slice(&(self.reports.len().min(MAX_RECORDS) as u32).to_le_bytes());
        for r in self.reports.iter().take(MAX_RECORDS) {
            r.write(&mut out);
        }
        out
    }

    /// Parses a payload produced by [`GossipMsg::encode`]; every length
    /// is bounds-checked, so corrupted payloads error instead of
    /// panicking or over-allocating.
    pub fn decode(buf: &[u8]) -> Result<GossipMsg, GossipError> {
        let mut c = Cursor { buf, pos: 0 };
        let v = c.u8()?;
        if v != GOSSIP_WIRE_VERSION {
            return Err(GossipError::Version(v));
        }
        let from = NodeId(c.u64()?);
        let n_members = c.u32()? as usize;
        if n_members > MAX_RECORDS {
            return Err(GossipError::TooLarge(n_members));
        }
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(MemberRecord::read(&mut c)?);
        }
        let n_reports = c.u32()? as usize;
        if n_reports > MAX_RECORDS {
            return Err(GossipError::TooLarge(n_reports));
        }
        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            reports.push(HealthReport::read(&mut c)?);
        }
        Ok(GossipMsg { from, members, reports })
    }
}

/// Tuning for the gossip node.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Random peers contacted per round.
    pub fanout: usize,
    /// Local ticks without heartbeat progress before a peer is Suspect.
    pub suspect_after: u64,
    /// Local ticks without heartbeat progress before a peer is Failed.
    pub fail_after: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig { fanout: 2, suspect_after: 3, fail_after: 6 }
    }
}

/// What a merge changed, so callers can react (and tests can assert
/// idempotency).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeDelta {
    /// Member records inserted or superseded.
    pub members_updated: usize,
    /// Health reports inserted or superseded.
    pub reports_updated: usize,
    /// Whether we refuted a rumor about ourselves (incarnation bumped).
    pub refuted: bool,
}

impl MergeDelta {
    /// True when the merge changed nothing — the idempotency fast-path.
    pub fn is_noop(&self) -> bool {
        self.members_updated == 0 && self.reports_updated == 0 && !self.refuted
    }
}

/// One node's gossip state machine: its membership view, the health
/// rumors it carries, and the seeded RNG that picks gossip partners.
pub struct GossipNode {
    cfg: GossipConfig,
    me: NodeId,
    view: BTreeMap<NodeId, MemberRecord>,
    reports: BTreeMap<(NodeId, u32), HealthReport>,
    /// Local tick at which each peer's heartbeat last advanced.
    last_advance: BTreeMap<NodeId, u64>,
    tick: u64,
    rng: StdRng,
}

impl GossipNode {
    /// A node whose identity is [`NodeId::derive`]`(seed, index)`.
    pub fn new(seed: u64, index: u64, role: NodeRole, rank: u32, cfg: GossipConfig) -> Self {
        let me = NodeId::derive(seed, index);
        let mut view = BTreeMap::new();
        view.insert(
            me,
            MemberRecord {
                id: me,
                role,
                rank,
                incarnation: 0,
                heartbeat: 0,
                state: MemberState::Alive,
            },
        );
        GossipNode {
            cfg,
            me,
            view,
            reports: BTreeMap::new(),
            last_advance: BTreeMap::new(),
            tick: 0,
            rng: StdRng::seed_from_u64(seed ^ me.0),
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// This node's own record in its view.
    pub fn self_record(&self) -> MemberRecord {
        self.view.get(&self.me).copied().unwrap_or(MemberRecord {
            id: self.me,
            role: NodeRole::Coordinator,
            rank: u32::MAX,
            incarnation: 0,
            heartbeat: 0,
            state: MemberState::Alive,
        })
    }

    /// Every record in the view.
    pub fn members(&self) -> Vec<MemberRecord> {
        self.view.values().copied().collect()
    }

    /// The record for `id`, if known.
    pub fn member(&self, id: NodeId) -> Option<MemberRecord> {
        self.view.get(&id).copied()
    }

    /// Advances one gossip round: bumps our heartbeat and sweeps peers
    /// whose heartbeat has not advanced for `suspect_after` /
    /// `fail_after` local ticks. Returns the peers whose state this tick
    /// degraded, worst first.
    pub fn tick(&mut self) -> Vec<(NodeId, MemberState)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(m) = self.view.get_mut(&self.me) {
            m.heartbeat = m.heartbeat.max(tick);
            m.state = MemberState::Alive;
        }
        let mut degraded = Vec::new();
        for (id, rec) in self.view.iter_mut() {
            if *id == self.me || rec.state == MemberState::Failed {
                continue;
            }
            let last = *self.last_advance.entry(*id).or_insert(tick.saturating_sub(1));
            let stale = tick.saturating_sub(last);
            let want = if stale >= self.cfg.fail_after {
                MemberState::Failed
            } else if stale >= self.cfg.suspect_after {
                MemberState::Suspect
            } else {
                MemberState::Alive
            };
            if want > rec.state {
                rec.state = want;
                degraded.push((*id, want));
            }
        }
        degraded
    }

    /// The digest this node pushes (and replies with when pulled).
    pub fn digest(&self) -> GossipMsg {
        GossipMsg {
            from: self.me,
            members: self.members(),
            reports: self.reports.values().copied().collect(),
        }
    }

    /// Merges a received digest. Versioned records make this idempotent:
    /// merging the same message twice is a no-op, so duplicated frames
    /// (chaos `duplicate` mode) and re-deliveries are harmless.
    pub fn merge(&mut self, msg: &GossipMsg) -> MergeDelta {
        let mut delta = MergeDelta::default();
        for rec in &msg.members {
            if rec.id == self.me {
                // SWIM refutation: a rumor that we are not Alive, at our
                // incarnation or newer, is refuted by outliving it.
                let mine = self.self_record();
                if rec.state != MemberState::Alive && rec.incarnation >= mine.incarnation {
                    if let Some(m) = self.view.get_mut(&self.me) {
                        m.incarnation = rec.incarnation + 1;
                        m.state = MemberState::Alive;
                        m.heartbeat = m.heartbeat.max(rec.heartbeat + 1);
                    }
                    delta.refuted = true;
                }
                continue;
            }
            match self.view.get_mut(&rec.id) {
                None => {
                    self.view.insert(rec.id, *rec);
                    self.last_advance.insert(rec.id, self.tick);
                    delta.members_updated += 1;
                }
                Some(cur) => {
                    if rec.supersedes(cur) {
                        if rec.heartbeat > cur.heartbeat || rec.incarnation > cur.incarnation {
                            self.last_advance.insert(rec.id, self.tick);
                        }
                        *cur = *rec;
                        delta.members_updated += 1;
                    }
                }
            }
        }
        for rep in &msg.reports {
            let key = (rep.reporter, rep.device);
            match self.reports.get(&key) {
                Some(cur) if cur.version >= rep.version => {}
                _ => {
                    self.reports.insert(key, *rep);
                    delta.reports_updated += 1;
                }
            }
        }
        delta
    }

    /// Every carried report from reporters other than `exclude` (pass
    /// the local node to keep self-reports out of peer aggregation).
    pub fn peer_reports(&self, exclude: NodeId) -> Vec<HealthReport> {
        self.reports.values().filter(|r| r.reporter != exclude).copied().collect()
    }

    /// Up to `fanout` random live peers to push-pull with this round.
    pub fn gossip_peers(&mut self) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = self
            .view
            .values()
            .filter(|m| m.id != self.me && m.state != MemberState::Failed)
            .map(|m| m.id)
            .collect();
        let mut picked = Vec::new();
        let mut pool = candidates;
        for _ in 0..self.cfg.fanout.min(pool.len()) {
            let i = self.rng.gen_range(0..pool.len());
            picked.push(pool.swap_remove(i));
        }
        picked
    }

    /// The current primary coordinator: the not-Failed coordinator with
    /// the lowest `(rank, id)`. Every node with the same view computes
    /// the same answer, so failover needs no election protocol.
    pub fn primary_coordinator(&self) -> Option<MemberRecord> {
        self.view
            .values()
            .filter(|m| m.role == NodeRole::Coordinator && m.state != MemberState::Failed)
            .min_by_key(|m| (m.rank, m.id))
            .copied()
    }

    /// Whether this node should currently be the acting coordinator.
    pub fn is_primary(&self) -> bool {
        self.primary_coordinator().is_some_and(|m| m.id == self.me)
    }
}

/// Tuning for reputation-weighted aggregation.
#[derive(Clone, Copy, Debug)]
pub struct ReputationConfig {
    /// Reports trimmed from *each* end before averaging; up to `trim`
    /// Byzantine reporters cannot move the aggregate outside the honest
    /// range. Needs `2*trim + 1` usable reports to aggregate at all.
    pub trim: usize,
    /// Absolute penalty disagreement tolerated before a reporter's claim
    /// counts against its reputation.
    pub agree_tol: f64,
    /// Multiplicative weight decay on a disagreeing claim.
    pub disagree_decay: f64,
    /// Additive weight recovery on an agreeing claim (capped at 1.0).
    pub agree_recover: f64,
    /// Reporters below this weight are excluded from aggregation.
    pub min_weight: f64,
    /// Claims are clamped into `[1.0, claim_cap]` before comparison and
    /// aggregation (an ∞ "quarantined" claim becomes the cap).
    pub claim_cap: f64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            trim: 1,
            agree_tol: 1.0,
            disagree_decay: 0.5,
            agree_recover: 0.1,
            min_weight: 0.2,
            claim_cap: 16.0,
        }
    }
}

/// Per-reporter reputation plus the coordinate-wise trimmed-mean fold.
///
/// Reputation is earned back slowly (`agree_recover`) and lost fast
/// (`disagree_decay`), so a flaky or lying reporter is discounted after a
/// few contradicted claims and rehabilitated only by a run of honest
/// ones. The trimmed mean makes even *full-weight* liars bounded: with
/// `k ≤ trim` liars among `≥ 2·trim+1` reports, every claim outside the
/// honest range is trimmed, so the aggregate stays within
/// `[min honest, max honest]` — the bound the proptests pin.
pub struct ReputationAggregator {
    cfg: ReputationConfig,
    weights: BTreeMap<NodeId, f64>,
}

impl ReputationAggregator {
    /// An aggregator where every reporter starts fully trusted.
    pub fn new(cfg: ReputationConfig) -> Self {
        ReputationAggregator { cfg, weights: BTreeMap::new() }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReputationConfig {
        &self.cfg
    }

    /// Current weight of `reporter` (1.0 until observed misbehaving).
    pub fn weight(&self, reporter: NodeId) -> f64 {
        self.weights.get(&reporter).copied().unwrap_or(1.0)
    }

    fn clamp_claim(&self, p: f64) -> f64 {
        if p.is_nan() {
            1.0
        } else {
            p.clamp(1.0, self.cfg.claim_cap)
        }
    }

    /// Scores one claim against a direct local observation of the same
    /// device: agreement earns weight back, disagreement decays it.
    pub fn observe(&mut self, reporter: NodeId, claimed_penalty: f64, observed_penalty: f64) {
        let claimed = self.clamp_claim(claimed_penalty);
        let observed = self.clamp_claim(observed_penalty);
        let w = self.weight(reporter);
        let w = if (claimed - observed).abs() > self.cfg.agree_tol {
            w * self.cfg.disagree_decay
        } else {
            (w + self.cfg.agree_recover).min(1.0)
        };
        self.weights.insert(reporter, w);
    }

    /// Coordinate-wise trimmed mean of one device's peer-claimed
    /// penalties, weighted by reporter reputation. Returns `None` when
    /// fewer than `2·trim + 1` sufficiently-trusted reports exist — the
    /// caller then falls back to purely local evidence.
    pub fn aggregate(&self, claims: &[(NodeId, f64)]) -> Option<f64> {
        let mut usable: Vec<(f64, f64)> = claims
            .iter()
            .map(|(who, p)| (self.weight(*who), self.clamp_claim(*p)))
            .filter(|(w, _)| *w >= self.cfg.min_weight)
            .collect();
        if usable.len() < 2 * self.cfg.trim + 1 {
            return None;
        }
        usable.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mid = &usable[self.cfg.trim..usable.len() - self.cfg.trim];
        let wsum: f64 = mid.iter().map(|(w, _)| w).sum();
        if wsum <= 0.0 {
            return None;
        }
        Some(mid.iter().map(|(w, p)| w * p).sum::<f64>() / wsum)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, Input};
    use crate::health::{HealthConfig, HealthState};

    fn node(seed: u64, index: u64, role: NodeRole, rank: u32) -> GossipNode {
        GossipNode::new(seed, index, role, rank, GossipConfig::default())
    }

    #[test]
    fn node_ids_are_seed_deterministic_and_distinct() {
        assert_eq!(NodeId::derive(7, 0), NodeId::derive(7, 0));
        assert_ne!(NodeId::derive(7, 0), NodeId::derive(7, 1));
        assert_ne!(NodeId::derive(7, 0), NodeId::derive(8, 0));
    }

    #[test]
    fn digest_round_trips_through_wire() {
        let mut a = node(1, 0, NodeRole::Coordinator, 0);
        let mut fleet = Fleet::new(3, HealthConfig::default());
        for i in 0..16 {
            fleet.step(i as f64, Input::Latency { dev: 1, ms: 10.0 + (i % 3) as f64 });
        }
        let reports = fleet.export_reports(a.id(), 1);
        a.merge(&GossipMsg { from: a.id(), members: Vec::new(), reports });
        let _ = a.tick();
        let msg = a.digest();
        let decoded = GossipMsg::decode(&msg.encode()).unwrap();
        // NaN digests forbid direct struct equality; bit-exact re-encoding
        // is the stronger check anyway.
        assert_eq!(decoded.encode(), msg.encode());
        assert_eq!(decoded.members, msg.members);
        assert_eq!(decoded.from, msg.from);
    }

    #[test]
    fn infinite_penalty_claims_survive_encoding() {
        let msg = GossipMsg {
            from: NodeId(9),
            members: vec![],
            reports: vec![HealthReport {
                reporter: NodeId(9),
                device: 2,
                state: HealthState::Quarantined.code(),
                penalty: f64::INFINITY,
                p50_ms: f64::NAN,
                p95_ms: f64::NAN,
                version: 3,
            }],
        };
        let d = GossipMsg::decode(&msg.encode()).unwrap();
        assert!(d.reports[0].penalty.is_infinite());
        assert!(d.reports[0].p50_ms.is_nan());
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert_eq!(GossipMsg::decode(&[]), Err(GossipError::Truncated));
        assert!(matches!(GossipMsg::decode(&[99, 0, 0]), Err(GossipError::Version(99))));
        // A huge member count must error, not allocate.
        let mut buf = vec![GOSSIP_WIRE_VERSION];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(GossipMsg::decode(&buf), Err(GossipError::TooLarge(_))));
        // Truncated mid-record.
        let mut buf = vec![GOSSIP_WIRE_VERSION];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        assert_eq!(GossipMsg::decode(&buf), Err(GossipError::Truncated));
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = node(3, 0, NodeRole::Coordinator, 0);
        let mut b = node(3, 1, NodeRole::Worker, 0);
        let _ = b.tick();
        let msg = b.digest();
        let first = a.merge(&msg);
        assert!(first.members_updated > 0);
        let second = a.merge(&msg);
        assert!(second.is_noop(), "re-merging the same digest must change nothing: {second:?}");
    }

    #[test]
    fn rumors_travel_transitively() {
        let a = node(5, 0, NodeRole::Coordinator, 0);
        let mut b = node(5, 1, NodeRole::Worker, 0);
        let mut c = node(5, 2, NodeRole::Worker, 0);
        // a <-> b, then b <-> c: c learns about a without ever meeting it.
        let _ = b.merge(&a.digest());
        let _ = c.merge(&b.digest());
        assert!(c.member(a.id()).is_some());
    }

    #[test]
    fn stale_heartbeats_suspect_then_fail() {
        let cfg = GossipConfig::default();
        let mut a = node(11, 0, NodeRole::Coordinator, 0);
        let mut b = node(11, 1, NodeRole::Coordinator, 1);
        let _ = b.tick();
        let _ = a.merge(&b.digest());
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Alive);
        // b goes silent: a's local ticks mark it Suspect, then Failed.
        for _ in 0..cfg.suspect_after {
            let _ = a.tick();
        }
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Suspect);
        for _ in 0..cfg.fail_after {
            let _ = a.tick();
        }
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Failed);
        // A fresh heartbeat resurrects the record.
        let _ = b.tick();
        let _ = b.tick();
        let delta = a.merge(&b.digest());
        assert!(delta.members_updated > 0);
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Alive);
    }

    #[test]
    fn refutation_outlives_rumors() {
        let mut a = node(13, 0, NodeRole::Coordinator, 0);
        let mut b = node(13, 1, NodeRole::Coordinator, 1);
        let _ = a.merge(&b.digest());
        // a wrongly believes b failed; b refutes by bumping incarnation.
        for _ in 0..10 {
            let _ = a.tick();
        }
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Failed);
        let delta = b.merge(&a.digest());
        assert!(delta.refuted);
        let rec = b.self_record();
        assert_eq!(rec.state, MemberState::Alive);
        assert!(rec.incarnation > 0);
        // The refuted record now supersedes the rumor everywhere.
        let delta = a.merge(&b.digest());
        assert!(delta.members_updated > 0);
        assert_eq!(a.member(b.id()).unwrap().state, MemberState::Alive);
    }

    #[test]
    fn primary_is_deterministic_and_fails_over_by_rank() {
        let mut w = node(17, 5, NodeRole::Worker, 0);
        let mut c0 = node(17, 0, NodeRole::Coordinator, 0);
        let mut c1 = node(17, 1, NodeRole::Coordinator, 1);
        let _ = c0.tick();
        let _ = c1.tick();
        let _ = w.merge(&c0.digest());
        let _ = w.merge(&c1.digest());
        let _ = c1.merge(&w.digest());
        assert_eq!(w.primary_coordinator().unwrap().id, c0.id());
        assert_eq!(c1.primary_coordinator().unwrap().id, c0.id());
        assert!(!c1.is_primary());
        // c0 goes silent; once Failed in c1's view, c1 becomes primary.
        for _ in 0..10 {
            let _ = c1.tick();
        }
        assert_eq!(c1.member(c0.id()).unwrap().state, MemberState::Failed);
        assert!(c1.is_primary());
    }

    #[test]
    fn gossip_peer_selection_is_seeded() {
        let build = || {
            let mut n = node(23, 0, NodeRole::Coordinator, 0);
            for i in 1..6 {
                let _ = n.merge(&node(23, i, NodeRole::Worker, 0).digest());
            }
            let mut picks = Vec::new();
            for _ in 0..4 {
                picks.push(n.gossip_peers());
            }
            picks
        };
        assert_eq!(build(), build(), "peer selection must replay bit-for-bit");
    }

    #[test]
    fn liars_lose_weight_and_recover_with_honesty() {
        let mut rep = ReputationAggregator::new(ReputationConfig::default());
        let liar = NodeId(1);
        assert_eq!(rep.weight(liar), 1.0);
        for _ in 0..3 {
            rep.observe(liar, 16.0, 1.0);
        }
        assert!(rep.weight(liar) < ReputationConfig::default().min_weight);
        // Honest reporting rehabilitates, slowly.
        let mut rounds = 0;
        while rep.weight(liar) < 1.0 && rounds < 100 {
            rep.observe(liar, 1.0, 1.0);
            rounds += 1;
        }
        assert!(rep.weight(liar) >= 1.0);
        assert!(rounds > 5, "recovery must be slower than the decay");
    }

    #[test]
    fn trimmed_aggregate_ignores_one_liar() {
        let rep = ReputationAggregator::new(ReputationConfig::default());
        let claims = vec![(NodeId(1), 1.0), (NodeId(2), 1.2), (NodeId(3), 1.1), (NodeId(4), 16.0)];
        let agg = rep.aggregate(&claims).unwrap();
        assert!((1.0..=1.2).contains(&agg), "aggregate {agg} must stay in the honest range");
        // Too few reports: no aggregate, local evidence rules.
        assert!(rep.aggregate(&claims[..2]).is_none());
    }
}
