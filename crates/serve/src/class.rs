//! SLO classes: the serving layer's unit of differentiation.
//!
//! A class bundles an SLO (latency deadline or accuracy floor), a bounded
//! queue, and an implicit priority (table order: index 0 drains first).
//! Latency tiers map directly onto the paper's latency SLOs; the accuracy
//! tier carries throughput-oriented traffic that cares about model quality
//! but tolerates queueing.

use murmuration_partition::compliance::{Outcome, Slo};

/// What a class promises its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClassKind {
    /// End-to-end deadline (queue wait + service) in virtual ms. The
    /// deadline doubles as the decision module's latency-SLO scalar.
    Latency { deadline_ms: f64 },
    /// Predicted top-1 accuracy floor (%); no deadline. Decided with the
    /// scenario's most permissive latency budget so the largest feasible
    /// submodel serves it.
    Accuracy { floor_pct: f32 },
}

/// One SLO class: name, promise, and queue bound.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Human-readable tag (also the metrics key).
    pub name: String,
    pub kind: ClassKind,
    /// Bounded queue length; a full queue rejects at admission.
    pub queue_capacity: usize,
    /// Route this class through the stage-parallel pipeline (throughput
    /// mode) instead of the micro-batched latency path. Sustained streams
    /// drain at the bottleneck-stage rate; latency-critical classes
    /// should keep the default `false`.
    pub pipeline: bool,
}

impl ClassSpec {
    /// A latency-tier class.
    pub fn latency(name: &str, deadline_ms: f64, queue_capacity: usize) -> Self {
        assert!(deadline_ms > 0.0 && queue_capacity >= 1);
        ClassSpec {
            name: name.to_string(),
            kind: ClassKind::Latency { deadline_ms },
            queue_capacity,
            pipeline: false,
        }
    }

    /// An accuracy-tier class.
    pub fn accuracy(name: &str, floor_pct: f32, queue_capacity: usize) -> Self {
        assert!((0.0..=100.0).contains(&floor_pct) && queue_capacity >= 1);
        ClassSpec {
            name: name.to_string(),
            kind: ClassKind::Accuracy { floor_pct },
            queue_capacity,
            pipeline: false,
        }
    }

    /// Marks the class as throughput-mode: its requests stream through
    /// the stage-parallel pipeline.
    pub fn with_pipeline(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// The class SLO as the runtime's `Slo` type.
    pub fn slo(&self) -> Slo {
        match self.kind {
            ClassKind::Latency { deadline_ms } => Slo::LatencyMs(deadline_ms),
            ClassKind::Accuracy { floor_pct } => Slo::AccuracyPct(floor_pct),
        }
    }

    /// Whether a request served end to end in `latency_ms` by a submodel
    /// of `accuracy_pct` met the class SLO.
    pub(crate) fn met(&self, latency_ms: f64, accuracy_pct: f32) -> bool {
        self.slo().met(&Outcome { latency_ms, accuracy_pct })
    }

    /// End-to-end deadline, when the class has one.
    pub fn deadline_ms(&self) -> Option<f64> {
        match self.kind {
            ClassKind::Latency { deadline_ms } => Some(deadline_ms),
            ClassKind::Accuracy { .. } => None,
        }
    }
}

/// The default three-tier mix used by experiments and the CLI, calibrated
/// to the augmented-computing scenario's latency range (80–400 ms):
/// `interactive` (tight deadline, drains first), `standard` (relaxed
/// deadline), `besteffort` (accuracy floor, drains last).
pub fn default_classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::latency("interactive", 200.0, 32),
        ClassSpec::latency("standard", 400.0, 64),
        ClassSpec::accuracy("besteffort", 74.0, 128),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn class_slos_round_trip() {
        let lat = ClassSpec::latency("a", 150.0, 8);
        assert_eq!(lat.slo(), Slo::LatencyMs(150.0));
        assert_eq!(lat.deadline_ms(), Some(150.0));
        let acc = ClassSpec::accuracy("b", 75.0, 8);
        assert_eq!(acc.slo(), Slo::AccuracyPct(75.0));
        assert_eq!(acc.deadline_ms(), None);
    }

    #[test]
    fn default_mix_is_tiered() {
        let classes = default_classes();
        assert_eq!(classes.len(), 3);
        // Priority order: tightest deadline first, accuracy tier last.
        assert!(classes[0].deadline_ms().unwrap() < classes[1].deadline_ms().unwrap());
        assert!(classes[2].deadline_ms().is_none());
    }

    #[test]
    #[should_panic]
    fn zero_deadline_is_rejected() {
        let _ = ClassSpec::latency("bad", 0.0, 8);
    }
}
