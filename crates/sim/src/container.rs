//! The simulator-side container: the core lifecycle state machine plus
//! timing, memory, and invocation bookkeeping.
//!
//! The [`LifecycleState`] is the only record of a container's layer,
//! language, owner and in-flight function; the fields beside it hold
//! what the state machine does not model: memory, times, the packed
//! set, the bound invocation's timing and the ladder schedule.

use rainbowcake_core::lifecycle::{IllegalTransition, LifecycleEvent, LifecycleState};
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{ContainerView, TtlLadder};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Language, Layer};
use rainbowcake_metrics::StartType;

/// An idle container's ladder keep-alive state: the schedule fixed by
/// the policy when it went idle, plus how far down it the container has
/// physically settled. Present only while the container sits in a
/// ladder idle period; cleared on reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderState {
    /// The full schedule the policy exposed at idle time.
    pub ladder: TtlLadder,
    /// When the idle period began (rung 0's start).
    pub started: Instant,
    /// The rung the container currently sits at (0-based). The current
    /// rung began at `Container::idle_since` and expires at
    /// `idle_since + ladder.ttls[rung]`.
    pub rung: u8,
}

impl LadderState {
    /// The instant the current rung expires, or `None` if it never does.
    pub fn next_boundary(&self, idle_since: Instant) -> Option<Instant> {
        let ttl = self.ladder.ttls[self.rung as usize];
        if ttl == Micros::MAX {
            return None;
        }
        idle_since
            .as_micros()
            .checked_add(ttl.as_micros())
            .map(Instant::from_micros)
    }

    /// Whether the current rung is the last one (its expiry terminates
    /// the container).
    pub fn on_last_rung(&self) -> bool {
        self.rung + 1 >= self.ladder.rungs
    }

    /// The oracle for lazy settlement: the (rung, rung-start) the eager
    /// per-rung chain would have physically reached at instant `t`,
    /// walking the schedule's cumulative boundaries from the idle start
    /// ([`TtlLadder::boundary`]), independently of the incremental
    /// [`Self::next_boundary`] that settlement uses. A downgrade at
    /// boundary `b` becomes visible strictly *after* `b` (an observer at
    /// exactly `b` still sees the pre-downgrade rung, matching the eager
    /// chain's within-tick ordering). Returns `None` when the eager chain
    /// would already have terminated the container.
    pub fn effective_at(&self, t: Instant) -> Option<(u8, Instant)> {
        let mut start = self.started;
        for rung in 0..self.ladder.rungs {
            match self.ladder.boundary(self.started, rung) {
                Some(end) if t > end => start = end,
                _ => return Some((rung, start)),
            }
        }
        None
    }
}

/// The invocation currently assigned to a container (waiting for its
/// startup to finish, or executing). Its function is the container's:
/// the one it initializes for, or the one it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignedInvocation {
    /// When the invocation arrived at the platform.
    pub arrival: Instant,
    /// When it was admitted (differs from `arrival` if it queued).
    pub admit: Instant,
    /// Total startup overhead charged to the invocation.
    pub startup: Micros,
    /// Sampled execution duration.
    pub exec: Micros,
    /// How the container was obtained.
    pub start_type: StartType,
}

/// One container in the simulated worker's pool.
#[derive(Debug, Clone)]
pub struct Container {
    /// Pool-unique id.
    pub id: ContainerId,
    /// Lifecycle state (Fig. 5).
    pub state: LifecycleState,
    /// Memory currently allocated to this container.
    pub memory: MemMb,
    /// Extra functions packed into this container (sharing schemes).
    pub packed: Vec<FunctionId>,
    /// Creation time.
    pub created_at: Instant,
    /// Start of the current idle interval (valid while idle).
    pub idle_since: Instant,
    /// Completed executions.
    pub hits: u32,
    /// Epoch counter invalidating stale timeout/init events.
    pub epoch: u64,
    /// When the in-flight initialization completes (valid while
    /// initializing).
    pub init_done_at: Instant,
    /// The invocation bound to this container, if any.
    pub assigned: Option<AssignedInvocation>,
    /// Ladder keep-alive state while in a ladder idle period (policies
    /// exposing a [`TtlLadder`] at idle time); `None` otherwise.
    pub ladder: Option<LadderState>,
}

impl Container {
    /// Creates a container that starts initializing toward `target` for
    /// `for_function` at time `now`.
    pub fn new_initializing(
        id: ContainerId,
        now: Instant,
        target: Layer,
        for_function: FunctionId,
        language: Option<Language>,
        memory: MemMb,
        init_done_at: Instant,
    ) -> Self {
        Container {
            id,
            state: LifecycleState::Initializing {
                target,
                for_function,
                language,
            },
            memory,
            packed: Vec::new(),
            created_at: now,
            idle_since: now,
            hits: 0,
            epoch: 0,
            init_done_at,
            assigned: None,
            ladder: None,
        }
    }

    /// Whether the container is idle (reusable).
    pub fn is_idle(&self) -> bool {
        self.state.is_idle()
    }

    /// Whether the container is initializing with no invocation bound to
    /// it yet (an attachable pre-warm in flight).
    pub fn is_attachable_init(&self) -> bool {
        matches!(self.state, LifecycleState::Initializing { .. }) && self.assigned.is_none()
    }

    /// The installed (or target) layer.
    pub fn layer(&self) -> Layer {
        self.state.layer()
    }

    /// The owner of an idle `User` container.
    pub fn owner(&self) -> Option<FunctionId> {
        match self.state {
            LifecycleState::Idle { owner, .. } => owner,
            _ => None,
        }
    }

    /// The installed (or in-flight) language, if any.
    pub fn language(&self) -> Option<Language> {
        match self.state {
            LifecycleState::Initializing { language, .. }
            | LifecycleState::Idle { language, .. } => language,
            LifecycleState::Running { language, .. } => Some(language),
        }
    }

    /// Applies a lifecycle event, bumping the epoch so any events armed
    /// for the previous state become stale.
    ///
    /// # Errors
    ///
    /// Propagates [`IllegalTransition`] from the state machine.
    pub fn apply(&mut self, event: LifecycleEvent) -> Result<(), IllegalTransition> {
        self.state = self.state.transition(event)?;
        self.epoch += 1;
        Ok(())
    }

    /// Bumps the epoch without a lifecycle transition (used when an idle
    /// container is re-armed in place: a re-pack, or a keep-alive
    /// timeout's [`Self::downgrade`]).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Peels the top layer off an idle container **without** bumping the
    /// epoch: the epoch marks the idle period, which a settled ladder
    /// rung does not end, so the settlement entry pushed for the next
    /// rung carries the same epoch, and the reuse that ends the period
    /// invalidates them all at once. A keep-alive timeout's downgrade
    /// does end the period and bumps the epoch itself. The caller
    /// advances `idle_since`, the packed set, the ladder rung and the
    /// memory footprint.
    ///
    /// # Errors
    ///
    /// Propagates [`IllegalTransition`] from the state machine.
    pub fn downgrade(&mut self) -> Result<(), IllegalTransition> {
        self.state = self.state.transition(LifecycleEvent::Downgrade)?;
        Ok(())
    }

    /// The policy-facing view of this container.
    pub fn view(&self) -> ContainerView {
        ContainerView {
            id: self.id,
            layer: self.layer(),
            language: self.language(),
            owner: self.owner(),
            packed: self.packed.clone(),
            memory: self.memory,
            idle_since: self.idle_since,
            created_at: self.created_at,
            hits: self.hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Container {
        Container::new_initializing(
            ContainerId::new(1),
            Instant::ZERO,
            Layer::User,
            FunctionId::new(0),
            Some(Language::Python),
            MemMb::new(200),
            Instant::from_micros(2_000_000),
        )
    }

    #[test]
    fn fresh_container_is_attachable() {
        let c = fresh();
        assert!(c.is_attachable_init());
        assert!(!c.is_idle());
        assert_eq!(c.layer(), Layer::User);
        assert_eq!(c.language(), Some(Language::Python));
    }

    #[test]
    fn apply_bumps_epoch() {
        let mut c = fresh();
        let e0 = c.epoch;
        c.apply(LifecycleEvent::InitComplete).unwrap();
        assert_eq!(c.epoch, e0 + 1);
        assert!(c.is_idle());
        assert_eq!(c.owner(), Some(FunctionId::new(0)));
    }

    #[test]
    fn illegal_event_leaves_state_unchanged() {
        let mut c = fresh();
        let before = c.state;
        let err = c.apply(LifecycleEvent::Downgrade);
        assert!(err.is_err());
        assert_eq!(c.state, before);
    }

    #[test]
    fn ladder_effective_state_walks_the_schedule() {
        let t0 = Instant::from_micros(60_000_000);
        let min = |m: u64| Micros::from_mins(m);
        let st = LadderState {
            ladder: TtlLadder {
                ttls: [min(5), min(3), min(2)],
                rungs: 3,
            },
            started: t0,
            rung: 0,
        };
        // A downgrade at boundary b is visible strictly after b.
        assert_eq!(st.effective_at(t0), Some((0, t0)));
        assert_eq!(st.effective_at(t0 + min(5)), Some((0, t0)));
        assert_eq!(
            st.effective_at(t0 + min(5) + Micros::from_micros(1)),
            Some((1, t0 + min(5)))
        );
        assert_eq!(st.effective_at(t0 + min(9)), Some((2, t0 + min(8))));
        assert_eq!(st.effective_at(t0 + min(10)), Some((2, t0 + min(8))));
        // Strictly past the death instant the eager chain has no
        // container left.
        assert_eq!(st.effective_at(t0 + min(10) + Micros::from_micros(1)), None);
        // A never-expiring rung parks the walk.
        let parked = LadderState {
            ladder: TtlLadder {
                ttls: [min(5), Micros::MAX, Micros::MAX],
                rungs: 3,
            },
            started: t0,
            rung: 0,
        };
        assert_eq!(parked.effective_at(t0 + min(500)), Some((1, t0 + min(5))));
        // Boundary/last-rung helpers.
        assert_eq!(st.next_boundary(t0), Some(t0 + min(5)));
        assert!(!st.on_last_rung());
        let last = LadderState { rung: 2, ..st };
        assert!(last.on_last_rung());
        assert_eq!(parked.next_boundary(t0), Some(t0 + min(5)));
        let parked_rung1 = LadderState { rung: 1, ..parked };
        assert_eq!(parked_rung1.next_boundary(t0 + min(5)), None);
    }

    #[test]
    fn downgrade_keeps_the_epoch() {
        let mut c = fresh();
        c.apply(LifecycleEvent::InitComplete).unwrap();
        let e = c.epoch;
        c.downgrade().unwrap();
        assert_eq!(c.epoch, e);
        assert_eq!(c.layer(), Layer::Lang);
        assert_eq!(c.owner(), None);
        c.downgrade().unwrap();
        assert_eq!(c.epoch, e);
        assert_eq!(c.layer(), Layer::Bare);
        assert!(c.downgrade().is_err());
    }

    #[test]
    fn view_mirrors_state() {
        let mut c = fresh();
        c.apply(LifecycleEvent::InitComplete).unwrap();
        let v = c.view();
        assert_eq!(v.layer, Layer::User);
        assert_eq!(v.owner, Some(FunctionId::new(0)));
        assert_eq!(v.memory, MemMb::new(200));
    }
}
