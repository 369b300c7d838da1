//! The latency model shared by every method.
//!
//! Execution of one inference is a sequential chain of units; a unit may
//! fan out over FDSP tiles on several devices. The model charges:
//!
//! * **compute** — per layer, `profile.layer_time_ms(op, macs)`, with tiled
//!   units dividing each layer's MACs across tiles plus an FDSP seam
//!   overhead (zero-padding recomputes tile borders);
//! * **communication** — a redistribution step between consecutive units:
//!   each destination device needs its input fraction, drawn
//!   proportionally from every source device's output fraction, and
//!   concurrent incoming transfers serialize on the destination's link.
//!
//! Every price — the estimate, the beam planner's, ADCNN's — is a fold of
//! `LatencyEstimator::step` over the units, so the comparison is fair;
//! [`crate::des_sim`] re-derives the same semantics from events as an
//! independent check.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::plan::{participants, ExecutionPlan};
use murmuration_edgesim::{Device, DeviceId, NetworkState};
use murmuration_models::LayerSpec;
use murmuration_supernet::{ExecUnit, SubnetSpec};
use murmuration_tensor::quant::BitWidth;

/// Latency estimate split into its components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// End-to-end latency (ms).
    pub total_ms: f64,
    /// Critical-path compute portion (ms).
    pub compute_ms: f64,
    /// Critical-path communication portion (ms).
    pub comm_ms: f64,
}

/// A data holder: device, fraction of the tensor it holds, and when that
/// fraction is ready.
#[derive(Clone, Copy, Debug)]
pub struct Holder {
    pub dev: DeviceId,
    pub frac: f64,
    pub ready_ms: f64,
}

/// Holders kept inline: the search space's largest grid is 2×2.
const INLINE_HOLDERS: usize = 4;

const INPUT: Holder = Holder { dev: 0, frac: 1.0, ready_ms: 0.0 };

/// Who holds the tensor between two steps of the cost walk, in the
/// producing unit's participant order. Up to [`INLINE_HOLDERS`] live
/// inline, so pricing a search-space plan never allocates; wider fan-outs
/// (ADCNN past four workers, hand-built `Tiled` lists) spill to `spill`.
#[derive(Clone, Debug)]
pub(crate) struct Holders {
    len: usize,
    inline: [Holder; INLINE_HOLDERS],
    spill: Vec<Holder>,
}

impl Holders {
    /// The input image: whole on device 0, ready at t = 0.
    pub(crate) fn input() -> Self {
        Holders { len: 1, inline: [INPUT; INLINE_HOLDERS], spill: Vec::new() }
    }

    fn push(&mut self, h: Holder) {
        if self.len < INLINE_HOLDERS {
            self.inline[self.len] = h;
        } else {
            if self.len == INLINE_HOLDERS {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(h);
        }
        self.len += 1;
    }

    /// When the slowest holder is ready.
    pub(crate) fn ready_ms(&self) -> f64 {
        self.iter().fold(0.0f64, |m, h| m.max(h.ready_ms))
    }
}

impl std::ops::Deref for Holders {
    type Target = [Holder];

    fn deref(&self) -> &[Holder] {
        if self.len <= INLINE_HOLDERS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Redistributes `bytes` from `srcs` to destination devices with fractions
/// `dsts`; yields per-destination ready times, lazily and in `dsts` order.
///
/// Destination `d` first consumes whatever fraction is already co-located
/// on it (free — this is what makes consecutive same-grid FDSP stages
/// communication-free, as in ADCNN); the remaining need is pulled from the
/// foreign sources proportionally to their shares. Incoming transfers
/// serialize on `d`'s link and cannot start before every source is ready.
pub fn redistribute<'a>(
    net: &'a NetworkState,
    srcs: &'a [Holder],
    dsts: impl IntoIterator<Item = (DeviceId, f64)> + 'a,
    bytes: u64,
) -> impl Iterator<Item = (DeviceId, f64)> + 'a {
    let src_ready = srcs.iter().fold(0.0f64, |m, h| m.max(h.ready_ms));
    dsts.into_iter().map(move |(d, fd)| {
        let own: f64 = srcs.iter().filter(|s| s.dev == d).map(|s| s.frac).sum();
        let foreign: f64 = srcs.iter().filter(|s| s.dev != d).map(|s| s.frac).sum();
        let need = (fd - own).max(0.0);
        let mut t = 0.0;
        if need > 0.0 && foreign > 0.0 {
            for s in srcs {
                if s.dev == d {
                    continue;
                }
                let b = (bytes as f64 * need * s.frac / foreign).ceil() as u64;
                if b > 0 {
                    t += net.transfer_ms(s.dev, d, b);
                }
            }
        }
        (d, src_ready + t)
    })
}

/// FDSP seam-overhead factor for a `tiles`-way split.
pub fn seam_overhead(tiles: usize) -> f64 {
    1.0 + 0.04 * (tiles as f64 - 1.0)
}

/// Compute time of a layer sequence on one device, with MACs scaled by
/// `1/tiles × seam_overhead` when tiled, at *compute* precision `bits`: `B8`
/// charges MAC-bound layers at the profile's int8 rate (the device runs the
/// `murmuration_tensor::int8` kernels), anything wider is costed as f32.
/// Callers derive `bits` from `ExecUnit::compute_bits()` so the estimate
/// tracks what the executor actually runs.
pub fn layers_time_ms_bits(
    profile: &murmuration_edgesim::ComputeProfile,
    layers: &[LayerSpec],
    tiles: usize,
    bits: BitWidth,
) -> f64 {
    let int8 = bits == BitWidth::B8;
    let scale = if tiles <= 1 { 1.0 } else { seam_overhead(tiles) / tiles as f64 };
    layers
        .iter()
        .map(|l| profile.layer_time_ms_q(l.op, (l.macs as f64 * scale).ceil() as u64, int8))
        .sum()
}

/// Latency estimator bound to a device fleet and current network state.
///
/// ```
/// use murmuration_edgesim::device::device_swarm_devices;
/// use murmuration_edgesim::{LinkState, NetworkState};
/// use murmuration_partition::{ExecutionPlan, LatencyEstimator};
/// use murmuration_supernet::{SearchSpace, SubnetSpec};
///
/// let devices = device_swarm_devices(3);
/// let net = NetworkState::uniform(2, LinkState::lan());
/// let spec = SubnetSpec::lower(&SearchSpace::default().min_config());
/// let est = LatencyEstimator::new(&devices, &net);
/// let local = est.estimate(&spec, &ExecutionPlan::all_on(&spec, 0));
/// assert!(local.total_ms > 0.0 && local.comm_ms == 0.0);
/// ```
pub struct LatencyEstimator<'a> {
    pub devices: &'a [Device],
    pub net: &'a NetworkState,
}

impl<'a> LatencyEstimator<'a> {
    /// Binds the estimator.
    pub fn new(devices: &'a [Device], net: &'a NetworkState) -> Self {
        assert_eq!(net.n_remote() + 1, devices.len(), "network must cover every non-local device");
        LatencyEstimator { devices, net }
    }

    /// One step of the cost walk. The tensor of `bytes` held by `holders`
    /// is redistributed to the merged participants of `tiles` (one device
    /// per tile), each participant runs `layers` on its share at `bits` —
    /// devices in parallel, tiles co-located on one device one after
    /// another — and the participants become the new holders. Returns them
    /// with the time the slowest input arrived.
    pub(crate) fn step(
        &self,
        holders: &Holders,
        tiles: &[DeviceId],
        bytes: u64,
        layers: &[LayerSpec],
        bits: BitWidth,
    ) -> (Holders, f64) {
        let dsts = participants(tiles).map(|(d, frac, _)| (d, frac));
        let arrivals = redistribute(self.net, holders, dsts, bytes);
        let mut next = Holders { len: 0, ..Holders::input() };
        let mut input_ready_ms = 0.0f64;
        for ((d, ready), (_, frac, count)) in arrivals.zip(participants(tiles)) {
            input_ready_ms = input_ready_ms.max(ready);
            let t = layers_time_ms_bits(&self.devices[d].profile(), layers, tiles.len(), bits);
            next.push(Holder { dev: d, frac, ready_ms: ready + t * count as f64 });
        }
        (next, input_ready_ms)
    }

    /// The walk's last step: the logits return to device 0, where nothing
    /// is left to compute. Returns when they arrive.
    pub(crate) fn gather_ms(&self, holders: &Holders, bytes: u64) -> f64 {
        self.step(holders, &[0], bytes, &[], BitWidth::B32).1
    }

    /// Estimates one inference of `spec` under `plan`. The input image
    /// starts on device 0 and the classification result must return there.
    pub fn estimate(&self, spec: &SubnetSpec, plan: &ExecutionPlan) -> LatencyBreakdown {
        self.walk(spec, plan, |_, _, _, _| {})
    }

    /// Folds [`step`](Self::step) over the units and gathers the logits,
    /// calling `observe(unit, tiles, input_ready_ms, done_ms)` per unit.
    fn walk(
        &self,
        spec: &SubnetSpec,
        plan: &ExecutionPlan,
        mut observe: impl FnMut(&ExecUnit, &[DeviceId], f64, f64),
    ) -> LatencyBreakdown {
        debug_assert!(plan.validate(spec, self.devices.len()).is_ok());
        let mut holders = Holders::input();
        let mut bytes = spec.input_bytes();
        let (mut compute_ms, mut comm_ms) = (0.0, 0.0);
        for (unit, placement) in spec.units.iter().zip(&plan.placements) {
            let before = holders.ready_ms();
            let tiles = placement.tiles();
            let (next, input_ready_ms) =
                self.step(&holders, tiles, bytes, &unit.layers, unit.compute_bits());
            holders = next;
            let done_ms = holders.ready_ms();
            comm_ms += input_ready_ms - before;
            compute_ms += done_ms - input_ready_ms;
            observe(unit, tiles, input_ready_ms, done_ms);
            bytes = unit.out_wire_bytes();
        }
        let before = holders.ready_ms();
        let done = self.gather_ms(&holders, bytes);
        comm_ms += done - before;
        LatencyBreakdown { total_ms: done, compute_ms, comm_ms }
    }

    /// Like [`estimate`](Self::estimate) but also returns the per-unit
    /// timeline (for debugging and the CLI's `estimate --trace`).
    pub fn estimate_with_trace(
        &self,
        spec: &SubnetSpec,
        plan: &ExecutionPlan,
    ) -> (LatencyBreakdown, Vec<UnitTrace>) {
        let mut trace = Vec::with_capacity(spec.units.len());
        let breakdown = self.walk(spec, plan, |unit, tiles, input_ready_ms, done_ms| {
            trace.push(UnitTrace {
                unit: unit.name.clone(),
                input_ready_ms,
                done_ms,
                devices: participants(tiles).map(|(d, _, _)| d).collect(),
            });
        });
        (breakdown, trace)
    }
}

/// Time to run a plain f32 layer sequence entirely on one device (no
/// comms): the baseline models are not quantized.
pub fn sequential_time_ms(dev: &Device, layers: &[LayerSpec]) -> f64 {
    layers_time_ms_bits(&dev.profile(), layers, 1, BitWidth::B32)
}

/// Per-unit timing of one estimated inference.
#[derive(Clone, Debug)]
pub struct UnitTrace {
    pub unit: String,
    /// When the unit's slowest input arrived (ms).
    pub input_ready_ms: f64,
    /// When the unit's slowest participant finished (ms).
    pub done_ms: f64,
    /// Devices participating.
    pub devices: Vec<DeviceId>,
}

/// Steady-state per-inference time of *pipelined* execution over a
/// homogeneous fleet: consecutive elastic stages are assigned to disjoint
/// device groups (each group `tiles`-way FDSP-parallel), so back-to-back
/// requests overlap and throughput is bounded by the slowest pipeline
/// element. Models the paper's Fig. 17 measurement protocol (the average
/// of 20 consecutive inferences).
///
/// Returns the bottleneck time in ms: the max of (a) any group's share of
/// the tiled stage work, (b) the unpartitionable stem+head on the local
/// device, plus a per-boundary handoff `handoff_ms`.
pub fn pipelined_time_ms(
    dev: &Device,
    spec: &SubnetSpec,
    n_devices: usize,
    tiles: usize,
    handoff_ms: f64,
) -> f64 {
    assert!(tiles >= 1 && n_devices >= 1);
    let profile = dev.profile();
    let n_stages = spec.units.len().saturating_sub(2).max(1);
    // No more pipeline groups than stages; each group needs `tiles` devices.
    let groups = (n_devices / tiles).clamp(1, n_stages) as f64;
    let stage_total: f64 = spec.units[1..spec.units.len() - 1]
        .iter()
        .map(|u| layers_time_ms_bits(&profile, &u.layers, tiles, u.compute_bits()))
        .sum();
    let whole = |u: &ExecUnit| layers_time_ms_bits(&profile, &u.layers, 1, u.compute_bits());
    let ends = whole(&spec.units[0]) + whole(&spec.units[spec.units.len() - 1]);
    (stage_total / groups).max(ends) + handoff_ms
}

/// Wire bytes of a tensor of `elems` f32 elements at precision `q`.
pub fn wire_bytes(elems: u64, q: BitWidth) -> u64 {
    q.wire_bytes(elems as usize) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UnitPlacement;
    use murmuration_edgesim::device::{augmented_computing_devices, device_swarm_devices};
    use murmuration_edgesim::LinkState;
    use murmuration_supernet::space::SearchSpace;
    use murmuration_tensor::tile::GridSpec;

    fn lan(n_remote: usize) -> NetworkState {
        NetworkState::uniform(n_remote, LinkState::lan())
    }

    #[test]
    fn redistribute_identity_is_free() {
        let net = lan(2);
        let srcs = [Holder { dev: 1, frac: 1.0, ready_ms: 5.0 }];
        let out: Vec<_> = redistribute(&net, &srcs, [(1, 1.0)], 1_000_000).collect();
        assert_eq!(out, vec![(1, 5.0)]);
    }

    #[test]
    fn redistribute_single_to_single_matches_link() {
        let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 100.0, delay_ms: 10.0 });
        let srcs = [Holder { dev: 0, frac: 1.0, ready_ms: 2.0 }];
        let out: Vec<_> = redistribute(&net, &srcs, [(1, 1.0)], 1_000_000).collect();
        // 2.0 + 10 + 80 = 92.
        assert!((out[0].1 - 92.0).abs() < 1e-6, "{}", out[0].1);
    }

    #[test]
    fn scatter_splits_bytes() {
        let net = NetworkState::uniform(2, LinkState { bandwidth_mbps: 100.0, delay_ms: 0.0 });
        let srcs = [Holder { dev: 0, frac: 1.0, ready_ms: 0.0 }];
        let out: Vec<_> = redistribute(&net, &srcs, [(1, 0.5), (2, 0.5)], 1_000_000).collect();
        // Each gets 500 KB over its own link: 40 ms, in parallel.
        for &(_, t) in &out {
            assert!((t - 40.0).abs() < 1e-3, "{t}");
        }
    }

    #[test]
    fn gather_serializes_on_destination() {
        let net = NetworkState::uniform(2, LinkState { bandwidth_mbps: 100.0, delay_ms: 0.0 });
        let srcs = [
            Holder { dev: 1, frac: 0.5, ready_ms: 0.0 },
            Holder { dev: 2, frac: 0.5, ready_ms: 0.0 },
        ];
        let out: Vec<_> = redistribute(&net, &srcs, [(0, 1.0)], 1_000_000).collect();
        // Two 500 KB incoming transfers serialize: 80 ms.
        assert!((out[0].1 - 80.0).abs() < 1e-3, "{}", out[0].1);
    }

    #[test]
    fn local_plan_has_no_comm() {
        let devices = device_swarm_devices(5);
        let net = lan(4);
        let est = LatencyEstimator::new(&devices, &net);
        let spec = SubnetSpec::lower(&SearchSpace::default().min_config());
        let plan = ExecutionPlan::all_on(&spec, 0);
        let b = est.estimate(&spec, &plan);
        assert_eq!(b.comm_ms, 0.0);
        assert!(b.total_ms > 50.0, "min subnet on a Pi should take a while: {}", b.total_ms);
        assert!((b.total_ms - b.compute_ms).abs() < 1e-9);
    }

    #[test]
    fn offload_to_gpu_wins_at_high_bandwidth_loses_at_low() {
        let devices = augmented_computing_devices();
        let spec = SubnetSpec::lower(&SearchSpace::default().max_config());
        let local = ExecutionPlan::all_on(&spec, 0);
        let remote = ExecutionPlan::all_on(&spec, 1);

        let fast = NetworkState::uniform(1, LinkState { bandwidth_mbps: 400.0, delay_ms: 5.0 });
        let est = LatencyEstimator::new(&devices, &fast);
        let l_local = est.estimate(&spec, &local).total_ms;
        let l_remote = est.estimate(&spec, &remote).total_ms;
        assert!(l_remote < l_local, "GPU offload must win at 400 Mbps: {l_remote} vs {l_local}");

        let slow = NetworkState::uniform(1, LinkState { bandwidth_mbps: 1.0, delay_ms: 400.0 });
        let est = LatencyEstimator::new(&devices, &slow);
        let l_remote_slow = est.estimate(&spec, &remote).total_ms;
        assert!(
            l_remote_slow > l_local,
            "offload must lose on a 1 Mbps / 400 ms link: {l_remote_slow} vs {l_local}"
        );
    }

    #[test]
    fn tiling_across_swarm_cuts_latency_on_fast_lan() {
        let devices = device_swarm_devices(5);
        let net = lan(4);
        let est = LatencyEstimator::new(&devices, &net);
        let mut cfg = SearchSpace::default().max_config();
        for st in &mut cfg.stages {
            st.partition = GridSpec::new(2, 2);
        }
        let spec = SubnetSpec::lower(&cfg);
        let solo = est.estimate(&spec, &ExecutionPlan::all_on(&spec, 0)).total_ms;
        let spread = est.estimate(&spec, &ExecutionPlan::spread(&spec, 5)).total_ms;
        assert!(
            spread < solo * 0.7,
            "4-way tiling on 1 Gbps LAN must speed up: {spread} vs {solo}"
        );
    }

    #[test]
    fn quantization_reduces_comm() {
        let devices = augmented_computing_devices();
        // Zero-delay link so the comparison isolates serialized payload.
        let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 20.0, delay_ms: 0.0 });
        let est = LatencyEstimator::new(&devices, &net);
        let space = SearchSpace::default();
        let mut cfg = space.min_config();
        let spec32 = SubnetSpec::lower(&cfg);
        // Split after stage2: stem..stage2 local, rest on GPU.
        let mut placements = vec![UnitPlacement::Single(0); spec32.units.len()];
        for p in placements.iter_mut().skip(4) {
            *p = UnitPlacement::Single(1);
        }
        let plan = ExecutionPlan { placements };
        let full = est.estimate(&spec32, &plan);
        for st in &mut cfg.stages {
            st.quant = BitWidth::B8;
        }
        let spec8 = SubnetSpec::lower(&cfg);
        let quant = est.estimate(&spec8, &plan);
        assert!(
            quant.comm_ms < full.comm_ms * 0.5,
            "8-bit transfer must cut comm: {} vs {}",
            quant.comm_ms,
            full.comm_ms
        );
    }

    #[test]
    fn pipelined_time_scales_then_saturates() {
        let devices = device_swarm_devices(2);
        let spec = SubnetSpec::lower(&SearchSpace::default().max_config());
        let t1 = pipelined_time_ms(&devices[0], &spec, 4, 4, 5.0);
        let t2 = pipelined_time_ms(&devices[0], &spec, 8, 4, 5.0);
        let t5 = pipelined_time_ms(&devices[0], &spec, 20, 4, 5.0);
        let t6 = pipelined_time_ms(&devices[0], &spec, 24, 4, 5.0);
        assert!(t2 < t1, "2 groups beat 1: {t2} vs {t1}");
        assert!(t5 <= t2);
        // Group count saturates at the stage count (5).
        assert_eq!(t5, t6, "groups cap at the number of stages");
    }

    #[test]
    fn pipelined_never_beats_the_ends_floor() {
        let devices = device_swarm_devices(2);
        let spec = SubnetSpec::lower(&SearchSpace::default().min_config());
        let p = devices[0].profile();
        let ends = layers_time_ms_bits(&p, &spec.units[0].layers, 1, BitWidth::B32)
            + layers_time_ms_bits(&p, &spec.units[6].layers, 1, BitWidth::B32);
        let t = pipelined_time_ms(&devices[0], &spec, 1000, 4, 0.0);
        assert!(t >= ends, "{t} vs floor {ends}");
    }

    #[test]
    fn pipelining_one_device_never_beats_running_the_plan_straight_through() {
        let devices = device_swarm_devices(1);
        let net = lan(0);
        let est = LatencyEstimator::new(&devices, &net);
        for bits in [BitWidth::B8, BitWidth::B32] {
            let mut cfg = SearchSpace::default().min_config();
            for st in &mut cfg.stages {
                st.quant = bits;
            }
            let spec = SubnetSpec::lower(&cfg);
            let sequential = est.estimate(&spec, &ExecutionPlan::all_on(&spec, 0)).total_ms;
            let pipelined = pipelined_time_ms(&devices[0], &spec, 1, 1, 0.0);
            assert!(pipelined <= sequential, "{bits:?}: pipelined {pipelined} vs {sequential}");
        }
    }
}
