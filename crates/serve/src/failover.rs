//! Coordinator failover: a standby coordinator that takes over mid-load
//! when the primary dies.
//!
//! # Architecture
//!
//! A [`FailoverCluster`] holds one coordinator per rank. Rank 0 starts
//! serving; higher ranks hold a [`SharedRuntime`] of their own but no
//! serving threads. Coordinators exchange gossip digests (through the
//! real wire encoding, with optional seeded drop/duplicate chaos), so
//! each maintains a membership view and a store of peer health reports.
//!
//! When the primary crashes ([`FailoverCluster::kill_active`], which
//! drops its queued requests unresolved — exactly what a dead process
//! does), its gossip record stops advancing. The standby's staleness
//! sweep walks the record Alive → Suspect → Failed, at which point the
//! standby is the lowest-ranked live coordinator
//! ([`GossipNode::is_primary`]) and promotes itself: it folds the
//! gossiped health reports into its *own* runtime (steering routing away
//! from devices the old primary had penalised — but never quarantining
//! on hearsay), starts a fresh serving stack, and begins draining
//! retries. Its [`StrategyCache`](murmuration_core::cache) starts cold
//! by construction — a new `SharedRuntime` — because cached strategies
//! from before the crash reflect monitoring the standby never saw.
//!
//! # Conservation across the handover
//!
//! A crash deliberately breaks the per-server invariant
//! `completed + rejected == submitted`: queued requests are dropped and
//! their outcome channels close. The cluster restores it one level up:
//! a dropped request's submitter observes the disconnect, retries once
//! on the promoted standby, and the cluster counts the logical request
//! exactly once. [`ClusterStats`] therefore satisfies
//! `completed + rejected + lost == submitted`, and the chaos suite
//! asserts `lost == 0`.

use crate::request::{RejectReason, ServeOutcome};
use crate::server::{EnvModel, ServeConfig, ServeHandle};
use murmuration_core::gossip::{GossipConfig, GossipMsg, GossipNode, NodeRole, ReputationConfig};
use murmuration_core::SharedRuntime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Everything a coordinator needs to serve: its runtime, the environment
/// ground truth, and the serving config. Standbys keep these dormant
/// until promotion.
pub struct CoordinatorSpec {
    pub rt: Arc<SharedRuntime>,
    pub env: EnvModel,
    pub cfg: ServeConfig,
}

/// Cluster-level knobs.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Seed for gossip node identities and exchange chaos. Deterministic:
    /// same seed, same failover schedule.
    pub seed: u64,
    /// Gossip cadence knobs (staleness thresholds drive detection time).
    pub gossip: GossipConfig,
    /// Reputation policy installed on every coordinator's runtime. The
    /// default trims nothing (`trim = 0`): with one peer coordinator
    /// there are too few reporters for a trimmed mean, and coordinators
    /// already trust each other's direct observations. Fleets with ≥ 3
    /// reporters should raise `trim` to get the Byzantine bound.
    pub reputation: ReputationConfig,
    /// Probability an exchanged digest is dropped (per direction, seeded).
    pub drop_prob: f64,
    /// Probability a delivered digest is merged twice (duplicate
    /// delivery; merge idempotency makes this a no-op, asserted in debug).
    pub dup_prob: f64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            seed: 0x6d75_726d,
            gossip: GossipConfig::default(),
            reputation: ReputationConfig { trim: 0, ..ReputationConfig::default() },
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }
}

struct Coordinator {
    rt: Arc<SharedRuntime>,
    env: EnvModel,
    cfg: ServeConfig,
    node: GossipNode,
    /// Serving stack; `Some` only while this coordinator is (or was)
    /// active. A promoted standby starts its own.
    handle: Option<ServeHandle>,
    /// Crashed: no longer ticks, gossips, or serves.
    dead: bool,
}

/// Cluster-level counters. Conservation across the handover:
/// `completed + rejected + lost == submitted`, each logical request
/// counted once no matter how many coordinators touched it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Requests re-served on another coordinator after a crash cut their
    /// first attempt short.
    pub retried: u64,
    /// Standby promotions.
    pub failovers: u64,
    /// Requests the crash dropped from the dead coordinator's queues
    /// (each shows up again as a retry).
    pub crash_dropped: u64,
    /// Requests that resolved nowhere — must be zero when a standby
    /// exists.
    pub lost: u64,
}

/// A submitted-but-unresolved cluster request. Resolve it with
/// [`FailoverCluster::resolve`]; the split lets chaos tests hold a window
/// of in-flight requests across a kill.
pub struct PendingServe {
    class: usize,
    rx: Option<Receiver<ServeOutcome>>,
}

/// A primary + standby coordinator group with gossip-driven failover.
pub struct FailoverCluster {
    fo: FailoverConfig,
    coords: Vec<Coordinator>,
    active: Option<usize>,
    rng: StdRng,
    report_version: u64,
    stats: ClusterStats,
}

impl FailoverCluster {
    /// Builds the cluster and starts rank 0 serving. `specs[i]` becomes
    /// rank `i`; lower rank wins the deterministic primary election.
    pub fn new(specs: Vec<CoordinatorSpec>, fo: FailoverConfig) -> Self {
        assert!(!specs.is_empty(), "need at least one coordinator");
        let mut coords: Vec<Coordinator> = specs
            .into_iter()
            .enumerate()
            .map(|(rank, s)| {
                s.rt.set_reputation_config(fo.reputation);
                Coordinator {
                    node: GossipNode::new(
                        fo.seed,
                        rank as u64,
                        NodeRole::Coordinator,
                        rank as u32,
                        fo.gossip,
                    ),
                    rt: s.rt,
                    env: s.env,
                    cfg: s.cfg,
                    handle: None,
                    dead: false,
                }
            })
            .collect();
        let primary = &mut coords[0];
        primary.handle = Some(ServeHandle::start(
            Arc::clone(&primary.rt),
            primary.env.clone(),
            primary.cfg.clone(),
        ));
        let mut cluster = FailoverCluster {
            rng: StdRng::seed_from_u64(fo.seed ^ 0xFA_110F),
            fo,
            coords,
            active: Some(0),
            report_version: 0,
            stats: ClusterStats::default(),
        };
        // Introduce everyone to everyone before load arrives.
        cluster.pump();
        cluster
    }

    /// The rank currently serving, if any.
    pub fn active_rank(&self) -> Option<u32> {
        self.active.map(|i| i as u32)
    }

    /// How many promotions have happened.
    pub fn failovers(&self) -> u64 {
        self.stats.failovers
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// One gossip round: every live coordinator ticks its node, publishes
    /// its runtime's direct health observations, exchanges digests with
    /// every other live coordinator (through the wire encoding, with
    /// seeded drop/duplicate chaos), folds peer reports into its routing
    /// penalties, and finally the cluster checks whether a standby should
    /// promote. Deterministic given the seed and the call sequence.
    pub fn pump(&mut self) {
        self.report_version += 1;
        for c in self.coords.iter_mut().filter(|c| !c.dead) {
            let _ = c.node.tick();
            let reports = c.rt.export_health_reports(c.node.id(), self.report_version);
            if !reports.is_empty() {
                // Self-merge routes our observations into the report store
                // the digest is built from.
                let msg = GossipMsg { from: c.node.id(), members: Vec::new(), reports };
                c.node.merge(&msg);
            }
        }
        let digests: Vec<Option<Vec<u8>>> =
            self.coords.iter().map(|c| (!c.dead).then(|| c.node.digest().encode())).collect();
        for (from, bytes) in digests.iter().enumerate() {
            let Some(bytes) = bytes else { continue };
            let Ok(msg) = GossipMsg::decode(bytes) else { continue };
            for to in 0..self.coords.len() {
                if to == from || self.coords[to].dead {
                    continue;
                }
                if self.fo.drop_prob > 0.0 && self.rng.gen_bool(self.fo.drop_prob) {
                    continue;
                }
                self.coords[to].node.merge(&msg);
                if self.fo.dup_prob > 0.0 && self.rng.gen_bool(self.fo.dup_prob) {
                    // Duplicate delivery: merging again must change nothing.
                    let delta = self.coords[to].node.merge(&msg);
                    debug_assert!(delta.is_noop(), "gossip merge must be idempotent");
                }
            }
        }
        for c in self.coords.iter_mut().filter(|c| !c.dead) {
            let peer = c.node.peer_reports(c.node.id());
            if !peer.is_empty() {
                c.rt.fold_peer_reports(&peer);
            }
        }
        self.maybe_promote();
    }

    /// Crashes the active coordinator: queued requests are dropped
    /// unresolved, its gossip node goes silent. Returns how many requests
    /// were dropped (each comes back as a retry on resolve).
    pub fn kill_active(&mut self) -> usize {
        let Some(i) = self.active.take() else { return 0 };
        let c = &mut self.coords[i];
        c.dead = true;
        let dropped = c.handle.take().map_or(0, |h| h.kill().1);
        self.stats.crash_dropped += dropped as u64;
        dropped
    }

    /// Submits one logical request to the cluster. If no coordinator is
    /// active, gossip is pumped (bounded) to let a standby promote first.
    pub fn submit(&mut self, class: usize) -> PendingServe {
        self.stats.submitted += 1;
        let rx = self.submit_on_active(class);
        PendingServe { class, rx }
    }

    /// Resolves a pending request, retrying once on the promoted standby
    /// if the first coordinator crashed under it. Returns `None` only
    /// when the request resolved nowhere (counted in `lost`).
    pub fn resolve(&mut self, p: PendingServe) -> Option<ServeOutcome> {
        let first = p.rx.and_then(|rx| rx.recv().ok());
        self.settle(p.class, first)
    }

    /// Submit-and-wait convenience for closed-loop drivers. With a live
    /// active coordinator this delegates to [`ServeHandle::submit_wait`],
    /// keeping the server's inline idle fast path — a lone request
    /// through the cluster pays the same price as through a bare handle.
    pub fn submit_wait(&mut self, class: usize) -> Option<ServeOutcome> {
        let direct = self
            .active
            .filter(|&i| !self.coords[i].dead)
            .and_then(|i| self.coords[i].handle.as_ref())
            .map(|h| h.submit_wait(class));
        if direct.is_none() {
            let p = self.submit(class);
            return self.resolve(p);
        }
        self.stats.submitted += 1;
        self.settle(class, direct)
    }

    /// Counts a request's first outcome. A Shutdown rejection out of a
    /// crashed coordinator is the admission race losing to the kill (the
    /// request never ran), so, like a dropped one, it retries once on the
    /// active coordinator.
    fn settle(&mut self, class: usize, first: Option<ServeOutcome>) -> Option<ServeOutcome> {
        let outcome = match first {
            Some(o) if !crashed_under(&o) => Some(o),
            _ => {
                self.stats.retried += 1;
                self.submit_on_active(class).and_then(|rx| rx.recv().ok())
            }
        };
        match &outcome {
            Some(ServeOutcome::Done(_)) => self.stats.completed += 1,
            Some(ServeOutcome::Rejected(_)) => self.stats.rejected += 1,
            None => self.stats.lost += 1,
        }
        outcome
    }

    /// Graceful end: shuts down whichever coordinator is serving and
    /// returns the final cluster counters.
    pub fn shutdown(mut self) -> ClusterStats {
        for c in &mut self.coords {
            if let Some(h) = c.handle.take() {
                h.shutdown();
            }
        }
        self.stats
    }

    fn submit_on_active(&mut self, class: usize) -> Option<Receiver<ServeOutcome>> {
        let i = self.ensure_active()?;
        Some(self.coords[i].handle.as_ref()?.submit(class))
    }

    /// Returns the live active coordinator, pumping gossip (bounded by
    /// the staleness thresholds plus chaos slack) until a standby
    /// promotes if none is serving.
    fn ensure_active(&mut self) -> Option<usize> {
        if let Some(i) = self.active {
            if !self.coords[i].dead {
                return Some(i);
            }
        }
        // Failed detection needs `fail_after` silent ticks; chaos drops
        // only delay learning about members, not the local sweep, so a
        // small multiple is a safe bound.
        let bound = (self.fo.gossip.suspect_after + self.fo.gossip.fail_after + 4) * 4;
        for _ in 0..bound {
            self.pump();
            if let Some(i) = self.active {
                if !self.coords[i].dead {
                    return Some(i);
                }
            }
        }
        self.active.filter(|i| !self.coords[*i].dead)
    }

    fn maybe_promote(&mut self) {
        if let Some(i) = self.active {
            if !self.coords[i].dead {
                return;
            }
        }
        let candidate = (0..self.coords.len()).find(|&i| {
            let c = &self.coords[i];
            !c.dead && c.handle.is_none() && c.node.is_primary()
        });
        let Some(i) = candidate else { return };
        let c = &mut self.coords[i];
        // Hydrate from gossip before serving: the dead primary's health
        // reports steer routing penalties (soft), while quarantine still
        // requires this runtime's own evidence + canary.
        let peer = c.node.peer_reports(c.node.id());
        if !peer.is_empty() {
            c.rt.fold_peer_reports(&peer);
        }
        c.handle = Some(ServeHandle::start(Arc::clone(&c.rt), c.env.clone(), c.cfg.clone()));
        self.active = Some(i);
        self.stats.failovers += 1;
    }
}

/// Gossip rounds after which a standby promotes over a silent primary. A
/// member's record goes `Failed` once its heartbeat is `fail_after` rounds
/// stale (`Suspect` is only a waypoint), and the primary election skips
/// only failed members. The campaign's failover cells wait this many
/// control ticks.
pub(crate) fn detection_rounds(gossip: &GossipConfig) -> u64 {
    gossip.fail_after
}

/// Whether an outcome means "the coordinator died before serving this":
/// the admission-vs-kill race surfaces as a `Shutdown` rejection.
fn crashed_under(o: &ServeOutcome) -> bool {
    matches!(
        o,
        ServeOutcome::Rejected(r) if matches!(r.reason, RejectReason::Shutdown)
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::class::default_classes;
    use murmuration_core::fleet::Input;
    use murmuration_core::runtime::RuntimeConfig;
    use murmuration_edgesim::LinkState;
    use murmuration_partition::compliance::Slo;
    use murmuration_rl::{LstmPolicy, Scenario, SloKind};

    fn spec(seed: u64) -> CoordinatorSpec {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let rt = Arc::new(SharedRuntime::new(
            sc,
            policy,
            RuntimeConfig::default(),
            Slo::LatencyMs(200.0),
        ));
        let cfg = ServeConfig {
            service_sleep: false,
            time_scale: 0.01,
            base_seed: seed,
            ..ServeConfig::engineered(default_classes())
        };
        let env = EnvModel::constant(LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 }, 1);
        CoordinatorSpec { rt, env, cfg }
    }

    fn cluster(fo: FailoverConfig) -> FailoverCluster {
        FailoverCluster::new(vec![spec(11), spec(23)], fo)
    }

    #[test]
    fn standby_takes_over_and_conservation_holds() {
        let mut cl = cluster(FailoverConfig::default());
        for _ in 0..20 {
            let _ = cl.submit_wait(0);
        }
        assert_eq!(cl.active_rank(), Some(0));
        cl.kill_active();
        for _ in 0..20 {
            let _ = cl.submit_wait(0);
        }
        assert_eq!(cl.active_rank(), Some(1), "standby must be serving after the kill");
        let s = cl.shutdown();
        assert_eq!(s.failovers, 1);
        assert_eq!(s.lost, 0, "no request may vanish across the handover");
        assert_eq!(s.completed + s.rejected, s.submitted, "cluster-level conservation");
    }

    #[test]
    fn standby_promotes_after_the_detection_rounds_the_campaign_waits() {
        let mut cl = cluster(FailoverConfig::default());
        for _ in 0..3 {
            cl.pump();
        }
        cl.kill_active();
        let mut pumps = 0;
        while cl.active_rank().is_none() && pumps < 100 {
            cl.pump();
            pumps += 1;
        }
        assert_eq!(cl.active_rank(), Some(1));
        assert_eq!(pumps, detection_rounds(&FailoverConfig::default().gossip));
        assert_eq!(pumps, 6, "fail_after alone, not suspect_after + fail_after");
    }

    #[test]
    fn queued_requests_fail_over_as_retries() {
        let mut cl = cluster(FailoverConfig::default());
        // A window of unresolved requests spanning the kill.
        let pending: Vec<PendingServe> = (0..24).map(|_| cl.submit(0)).collect();
        let dropped = cl.kill_active();
        let outcomes: Vec<_> = pending.into_iter().map(|p| cl.resolve(p)).collect();
        assert!(outcomes.iter().all(Option::is_some), "every request must resolve somewhere");
        let s = cl.shutdown();
        assert_eq!(s.crash_dropped as usize, dropped);
        assert!(
            s.retried >= s.crash_dropped,
            "each dropped request retries (plus any cut off mid-flight): {s:?}"
        );
        assert_eq!(s.lost, 0);
        assert_eq!(s.completed + s.rejected, s.submitted, "{s:?}");
    }

    #[test]
    fn gossip_chaos_delays_but_never_blocks_failover() {
        let fo = FailoverConfig { drop_prob: 0.4, dup_prob: 0.4, seed: 99, ..Default::default() };
        let mut cl = cluster(fo);
        for _ in 0..8 {
            let _ = cl.submit_wait(0);
        }
        cl.kill_active();
        for _ in 0..8 {
            let _ = cl.submit_wait(0);
        }
        let s = cl.shutdown();
        assert_eq!(s.failovers, 1, "lossy, duplicating gossip must still converge: {s:?}");
        assert_eq!(s.lost, 0);
        assert_eq!(s.completed + s.rejected, s.submitted);
    }

    #[test]
    fn promoted_standby_inherits_peer_health_but_not_quarantine() {
        let mut cl = cluster(FailoverConfig::default());
        // The primary directly observes device 1 as slow (local samples).
        {
            let primary = &cl.coords[0];
            for i in 0..32 {
                primary.rt.observe(i as f64 * 10.0, [Input::Latency { dev: 1, ms: 80.0 }]);
            }
        }
        let primary_penalty = cl.coords[0].rt.fleet().devices[1].penalty;
        for _ in 0..3 {
            cl.pump();
        }
        cl.kill_active();
        // Force promotion (no load needed).
        let _ = cl.ensure_active();
        assert_eq!(cl.active_rank(), Some(1));
        let standby = &cl.coords[1];
        if primary_penalty > 1.0 {
            assert!(
                standby.rt.fleet().devices[1].penalty > 1.0,
                "gossiped penalty must steer the standby's routing"
            );
        }
        // Hearsay steers, it never quarantines: the standby has no local
        // evidence, so the device stays placeable.
        assert!(standby.rt.fleet().devices[1].placeable, "no quarantine without local evidence");
        let s = cl.shutdown();
        assert_eq!(s.failovers, 1);
    }
}
