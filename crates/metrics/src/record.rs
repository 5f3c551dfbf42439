//! Per-invocation records and startup-type classification.

use std::fmt;

use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::FunctionId;

/// How an invocation's container was obtained — the categories of the
/// paper's Fig. 10 (`Load` there corresponds to [`StartType::Attached`]:
/// the invocation latched onto a container whose initialization was
/// already in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StartType {
    /// Full warm start from an idle `User` container of the function.
    WarmUser,
    /// Partial warm start by re-forking a SEUSS-style snapshot of the
    /// function's fully initialized state.
    Snapshot,
    /// Warm-ish start from a re-packed shared container (Pagurus-style).
    Packed,
    /// Partial warm start from an idle `Lang` container.
    SharedLang,
    /// Partial warm start from an idle `Bare` container.
    SharedBare,
    /// Attached to a container still initializing (pre-warm in flight).
    Attached,
    /// Fully cold start.
    Cold,
}

impl StartType {
    /// All start types, warmest first.
    pub const ALL: [StartType; 7] = [
        StartType::WarmUser,
        StartType::Snapshot,
        StartType::Packed,
        StartType::SharedLang,
        StartType::SharedBare,
        StartType::Attached,
        StartType::Cold,
    ];

    /// Whether the start avoided paying the full cold path.
    pub fn is_warm(self) -> bool {
        !matches!(self, StartType::Cold)
    }

    /// The paper's Fig. 10 label for this category.
    pub fn paper_label(self) -> &'static str {
        match self {
            StartType::WarmUser => "User",
            StartType::Snapshot => "User(snap)",
            StartType::Packed => "User(shared)",
            StartType::SharedLang => "Lang",
            StartType::SharedBare => "Bare",
            StartType::Attached => "Load",
            StartType::Cold => "Cold",
        }
    }
}

impl fmt::Display for StartType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// The measured life of one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationRecord {
    /// Function invoked.
    pub function: FunctionId,
    /// Arrival time.
    pub arrival: Instant,
    /// Time spent queued waiting for memory/admission.
    pub queue: Micros,
    /// Startup overhead (§4.2: from preparing a container until actual
    /// execution).
    pub startup: Micros,
    /// Execution time.
    pub exec: Micros,
    /// How the container was obtained.
    pub start_type: StartType,
}

impl InvocationRecord {
    /// End-to-end latency: queueing + startup + execution.
    pub fn e2e(&self) -> Micros {
        self.queue + self.startup + self.exec
    }

    /// Completion time.
    pub fn completed_at(&self) -> Instant {
        self.arrival + self.e2e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_type: StartType) -> InvocationRecord {
        InvocationRecord {
            function: FunctionId::new(0),
            arrival: Instant::from_micros(1_000),
            queue: Micros::from_millis(5),
            startup: Micros::from_millis(100),
            exec: Micros::from_millis(900),
            start_type,
        }
    }

    #[test]
    fn e2e_sums_components() {
        let r = rec(StartType::Cold);
        assert_eq!(r.e2e(), Micros::from_micros(1_005_000));
        assert_eq!(r.completed_at(), Instant::from_micros(1_006_000));
    }

    #[test]
    fn warm_classification() {
        assert!(!StartType::Cold.is_warm());
        for t in StartType::ALL {
            if t != StartType::Cold {
                assert!(t.is_warm(), "{t:?}");
            }
        }
    }

    #[test]
    fn paper_labels_match_fig10() {
        assert_eq!(StartType::WarmUser.paper_label(), "User");
        assert_eq!(StartType::SharedLang.paper_label(), "Lang");
        assert_eq!(StartType::SharedBare.paper_label(), "Bare");
        assert_eq!(StartType::Attached.paper_label(), "Load");
        assert_eq!(StartType::Cold.paper_label(), "Cold");
    }
}
