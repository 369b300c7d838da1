//! Request and response types of the serving layer.
//!
//! Every submitted request resolves to exactly one [`ServeOutcome`]:
//! either a [`Completion`] with full latency accounting, or a typed
//! [`Rejection`] naming why the server refused or shed it. There is no
//! third state — the conservation invariant `completed + rejected ==
//! submitted` is what the chaos tests pin down.

/// Why the server refused or shed a request. Every variant is a *normal*
/// overload/fault response, not an error: callers are expected to retry
/// against a lower tier, back off, or surface the reason upstream.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The class queue was at capacity when the request arrived.
    QueueFull { class: usize },
    /// Admission control predicted the deadline cannot be met: serving
    /// would need `needed_ms` but only `budget_ms` remain.
    DeadlineUnmeetable { needed_ms: f64, budget_ms: f64 },
    /// Shed at dispatch: the request waited so long its remaining budget
    /// no longer covers the estimated service time.
    Expired { waited_ms: f64, deadline_ms: f64 },
    /// The monitor had no estimates yet (server still warming up).
    NotReady,
    /// A pipeline stage's device died with this request in flight and the
    /// remaining budget could not cover the coordinator rescue.
    StageDead { stage: usize, dev: usize },
    /// The server is shutting down and no longer accepts work.
    Shutdown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { class } => write!(f, "class {class} queue full"),
            RejectReason::DeadlineUnmeetable { needed_ms, budget_ms } => {
                write!(f, "deadline unmeetable: need {needed_ms:.0} ms, budget {budget_ms:.0} ms")
            }
            RejectReason::Expired { waited_ms, deadline_ms } => {
                write!(f, "expired in queue: waited {waited_ms:.0} of {deadline_ms:.0} ms")
            }
            RejectReason::NotReady => write!(f, "monitor not ready"),
            RejectReason::StageDead { stage, dev } => {
                write!(f, "pipeline stage {stage} lost device {dev} mid-flight")
            }
            RejectReason::Shutdown => write!(f, "server shutting down"),
        }
    }
}

/// A request the server refused or shed, with its reason.
#[derive(Clone, Debug)]
pub struct Rejection {
    pub id: u64,
    pub class: usize,
    pub reason: RejectReason,
    /// Virtual time of the rejection.
    pub t_ms: f64,
}

/// A served request with full latency accounting (all times virtual ms).
#[derive(Clone, Debug)]
pub struct Completion {
    pub id: u64,
    pub class: usize,
    /// Time spent queued before the request's batch was dispatched.
    pub queue_ms: f64,
    /// This request's service share: deployment latency plus its batch
    /// serialization position.
    pub service_ms: f64,
    /// End-to-end: `queue_ms + service_ms`.
    pub total_ms: f64,
    /// The deployment's estimated network latency (one pipeline pass).
    pub deploy_ms: f64,
    pub accuracy_pct: f32,
    /// How many requests shared the batch (1 = unbatched).
    pub batch_size: usize,
    /// Whether the strategy came from the cache.
    pub cached: bool,
    /// Whether the request was served under degradation (dead devices
    /// masked or forced-local fallback).
    pub degraded: bool,
    /// Goodput flag: the class SLO held end-to-end (deadline covered the
    /// total for latency tiers; accuracy floor held for accuracy tiers).
    pub slo_ok: bool,
}

/// The resolution of one submitted request.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    Done(Completion),
    Rejected(Rejection),
}

impl ServeOutcome {
    /// The completion, if the request was served.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            ServeOutcome::Done(c) => Some(c),
            ServeOutcome::Rejected(_) => None,
        }
    }

    /// The rejection, if the request was refused.
    pub fn rejection(&self) -> Option<&Rejection> {
        match self {
            ServeOutcome::Done(_) => None,
            ServeOutcome::Rejected(r) => Some(r),
        }
    }
}
