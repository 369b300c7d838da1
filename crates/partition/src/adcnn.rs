//! ADCNN (Zhang et al., ICPP '20): FDSP spatial partitioning of a fixed
//! CNN across N edge devices.
//!
//! The model is executed segment by segment (segments delimited by the
//! model's legal cut points). Convolutional segments are FDSP-tiled across
//! `k` workers — zero padding removes intra-segment halo exchange, so
//! communication happens only at segment boundaries, where the feature map
//! is redistributed. Fully-connected / global tails run on the local
//! device. The planner picks the worker count `k` that minimizes latency
//! under the current network state.

use crate::estimator::{wire_bytes, Holders, LatencyEstimator};
use murmuration_edgesim::{Device, DeviceId, NetworkState};
use murmuration_models::{LayerSpec, ModelSpec};
use murmuration_tensor::quant::BitWidth;

/// An ADCNN execution decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdcnnPlan {
    /// Number of workers the convolutional segments are tiled across.
    pub n_workers: usize,
    /// Predicted end-to-end latency (ms).
    pub latency_ms: f64,
}

/// Accuracy of the FDSP-finetuned model: the paper's progressive
/// fine-tuning recovers most but not all of the seam loss.
pub fn adcnn_accuracy(model: &ModelSpec) -> f32 {
    model.top1 - 0.5
}

/// Splits layers into segments at legal cut points.
fn segments(model: &ModelSpec) -> Vec<&[LayerSpec]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, l) in model.layers.iter().enumerate() {
        if l.cut_ok {
            out.push(&model.layers[start..=i]);
            start = i + 1;
        }
    }
    if start < model.layers.len() {
        out.push(&model.layers[start..]);
    }
    out
}

/// Whether a segment can be FDSP-tiled: spatial layers dominate its cost
/// (global squeeze-excite bits are tolerated, FC tails are not).
fn tileable(seg: &[LayerSpec]) -> bool {
    let total: u64 = seg.iter().map(|l| l.macs).sum();
    if total == 0 {
        return false;
    }
    let spatial: u64 = seg.iter().filter(|l| l.spatial_ok).map(|l| l.macs).sum();
    spatial as f64 / total as f64 >= 0.9
}

/// Latency of ADCNN execution with `k` workers (devices `0..k`).
pub fn latency_with_workers(
    model: &ModelSpec,
    devices: &[Device],
    net: &NetworkState,
    k: usize,
) -> f64 {
    assert!(k >= 1 && k <= devices.len());
    let est = LatencyEstimator { devices, net };
    let workers: Vec<DeviceId> = (0..k).collect();
    let mut holders = Holders::input();
    let mut bytes = model.input_bytes();
    for seg in segments(model) {
        // k equal shares on devices 0..k, or the whole segment on device 0.
        let tiles = if tileable(seg) { &workers[..] } else { &workers[..1] };
        holders = est.step(&holders, tiles, bytes, seg, BitWidth::B32).0;
        bytes = wire_bytes(seg.last().unwrap().out_elems(), BitWidth::B32);
    }
    est.gather_ms(&holders, bytes)
}

/// Picks the best worker count for the current conditions.
pub fn plan(model: &ModelSpec, devices: &[Device], net: &NetworkState) -> AdcnnPlan {
    let mut best = AdcnnPlan { n_workers: 1, latency_ms: f64::INFINITY };
    for k in 1..=devices.len() {
        let l = latency_with_workers(model, devices, net, k);
        if l < best.latency_ms {
            best = AdcnnPlan { n_workers: k, latency_ms: l };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_edgesim::device::device_swarm_devices;
    use murmuration_edgesim::LinkState;
    use murmuration_models::{mobilenet_v3_large, resnet50};

    fn net(n: usize, bw: f64, delay: f64) -> NetworkState {
        NetworkState::uniform(n, LinkState { bandwidth_mbps: bw, delay_ms: delay })
    }

    #[test]
    fn fast_lan_uses_many_workers() {
        let devices = device_swarm_devices(5);
        let p = plan(&resnet50(224), &devices, &net(4, 1000.0, 2.0));
        assert!(p.n_workers >= 4, "got {} workers", p.n_workers);
        let solo = latency_with_workers(&resnet50(224), &devices, &net(4, 1000.0, 2.0), 1);
        assert!(
            p.latency_ms < solo * 0.45,
            "swarm must speed up ResNet50: {} vs {solo}",
            p.latency_ms
        );
    }

    #[test]
    fn terrible_network_degenerates_to_one_worker() {
        let devices = device_swarm_devices(5);
        let p = plan(&mobilenet_v3_large(224), &devices, &net(4, 0.5, 200.0));
        assert_eq!(p.n_workers, 1);
    }

    #[test]
    fn latency_decreases_then_plateaus_with_workers() {
        let devices = device_swarm_devices(8);
        let n = net(7, 1000.0, 2.0);
        let model = resnet50(224);
        let l1 = latency_with_workers(&model, &devices, &n, 1);
        let l4 = latency_with_workers(&model, &devices, &n, 4);
        let l8 = latency_with_workers(&model, &devices, &n, 8);
        assert!(l4 < l1, "4 workers beat 1: {l4} vs {l1}");
        // Diminishing returns: 8 gains less over 4 than 4 over 1.
        assert!((l4 - l8) < (l1 - l4), "diminishing returns: {l1} {l4} {l8}");
    }

    #[test]
    fn segments_cover_all_layers_once() {
        let model = resnet50(224);
        let segs = segments(&model);
        let n: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(n, model.layers.len());
        // Every segment ends at a cut (except possibly a trailing one).
        for s in &segs[..segs.len() - 1] {
            assert!(s.last().unwrap().cut_ok);
        }
    }

    #[test]
    fn fc_tail_is_never_tiled() {
        let model = resnet50(224);
        let segs = segments(&model);
        let tail = segs.last().unwrap();
        assert!(!tileable(tail) || tail.iter().all(|l| l.spatial_ok));
    }

    #[test]
    fn infinite_bandwidth_makes_workers_monotone() {
        // With a free network, more workers never hurt ADCNN (diminishing
        // but non-negative returns), modulo the seam-overhead tail.
        let devices = device_swarm_devices(6);
        let n = net(5, 1.0e9, 0.0);
        let model = resnet50(224);
        let mut prev = f64::MAX;
        for k in 1..=6 {
            let l = latency_with_workers(&model, &devices, &n, k);
            assert!(l <= prev * 1.01, "k={k}: {l} vs {prev}");
            prev = l;
        }
    }

    #[test]
    fn accuracy_penalty_is_small() {
        let m = resnet50(224);
        let a = adcnn_accuracy(&m);
        assert!(a < m.top1 && a > m.top1 - 1.0);
    }
}
