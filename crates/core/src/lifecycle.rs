//! Container life cycle and state transitions (Fig. 5 of the paper).
//!
//! A container moves along the path `Null → Bare → Lang → User → Running`
//! while layers are installed (pre-warm or serving an invocation), drops
//! back to idle-`User` after execution, and peels layers off one at a time
//! while keep-alive windows expire (`User → Lang → Bare`). Its death, when
//! a `Bare` window expires or eviction picks it, is no state: the
//! simulator removes the container from its pool.
//!
//! [`LifecycleState`] is the only record of a container's lifecycle
//! facts: its layer, its language, its owner and, while a layer install
//! or an execution is in flight, the function it serves.
//! [`LifecycleState::transition`] makes every edge the simulator takes
//! explicit, so it cannot drive a container through an impossible path
//! or into an inconsistent state.

use std::fmt;

use crate::types::{FunctionId, Language, Layer};

/// The observable state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Layers are being installed up to a target layer. `for_function`
    /// is the function whose profile drives install latencies; once the
    /// target is `User`, the container becomes specialized to it.
    Initializing {
        /// Target layer of the in-flight initialization.
        target: Layer,
        /// Function the initialization is performed for.
        for_function: FunctionId,
        /// Language runtime being installed (present iff `target` is at
        /// least `Lang`; completion checks it).
        language: Option<Language>,
    },
    /// Idle and keep-alive at `layer`. A `Lang`/`User` idle container
    /// remembers its language; a `User` container its owner.
    Idle {
        /// The installed top layer.
        layer: Layer,
        /// Language runtime (present unless `layer == Bare`).
        language: Option<Language>,
        /// Owning function (present iff `layer == User`).
        owner: Option<FunctionId>,
    },
    /// Executing an invocation of `function` at the `User` layer.
    Running {
        /// The function being executed.
        function: FunctionId,
        /// The installed language runtime.
        language: Language,
    },
}

/// An edge in the Fig. 5 state diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// Initialization finished: the container becomes idle at its target
    /// layer, with the language it installed and, at `User`, owned by the
    /// function it was initialized for. An invocation bound to it starts
    /// with a separate `BeginExecution`.
    InitComplete,
    /// An invocation begins executing (requires an idle `User` container
    /// owned by the function).
    BeginExecution {
        /// Function to run; must match the idle container's owner.
        function: FunctionId,
    },
    /// Execution finished; the container becomes idle at `User`, owned
    /// by the function it ran.
    ExecutionComplete,
    /// Keep-alive expired and the top layer is peeled off (only above
    /// `Bare`).
    Downgrade,
    /// An idle container is upgraded in place for a (possibly different)
    /// function: the partial warm-start path of §3.3.
    BeginUpgrade {
        /// Function the upgrade specializes the container for.
        for_function: FunctionId,
        /// New target layer (must be above the current one).
        target: Layer,
        /// Language runtime the upgrade installs or keeps.
        language: Language,
    },
    /// An idle `User` container is re-specialized (renamed) to a
    /// different function whose packages it already holds — the hand-off
    /// step of container-sharing schemes like Pagurus.
    Adopt {
        /// The adopting function.
        function: FunctionId,
    },
}

/// Error returned when an event is applied to a state with no matching
/// edge in Fig. 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State the container was in.
    pub state: LifecycleState,
    /// Event that had no edge from `state`.
    pub event: LifecycleEvent,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal container transition: {:?} on {:?}",
            self.state, self.event
        )
    }
}

impl std::error::Error for IllegalTransition {}

impl LifecycleState {
    /// Whether the container is idle (available for reuse or sharing).
    pub fn is_idle(&self) -> bool {
        matches!(self, LifecycleState::Idle { .. })
    }

    /// The installed (or in-flight target) top layer.
    pub fn layer(&self) -> Layer {
        match self {
            LifecycleState::Initializing { target, .. } => *target,
            LifecycleState::Idle { layer, .. } => *layer,
            LifecycleState::Running { .. } => Layer::User,
        }
    }

    /// Applies `event`, returning the successor state.
    ///
    /// # Errors
    ///
    /// Returns [`IllegalTransition`] if Fig. 5 has no such edge — e.g.
    /// downgrading a running container, or executing on a `Bare` idle
    /// container without upgrading it first — or if an initialization
    /// completes without a language at `Lang` or above, or with one at
    /// `Bare`.
    pub fn transition(self, event: LifecycleEvent) -> Result<LifecycleState, IllegalTransition> {
        use LifecycleEvent as E;
        use LifecycleState as S;
        match (self, event) {
            (
                S::Initializing {
                    target,
                    for_function,
                    language,
                },
                E::InitComplete,
            ) if language.is_some() == (target >= Layer::Lang) => Ok(S::Idle {
                layer: target,
                language,
                owner: (target == Layer::User).then_some(for_function),
            }),
            (
                S::Idle {
                    layer: Layer::User,
                    language: Some(language),
                    owner: Some(owner),
                },
                E::BeginExecution { function },
            ) if owner == function => Ok(S::Running { function, language }),
            (S::Running { function, language }, E::ExecutionComplete) => Ok(S::Idle {
                layer: Layer::User,
                language: Some(language),
                owner: Some(function),
            }),
            (
                S::Idle { layer, .. },
                E::BeginUpgrade {
                    for_function,
                    target,
                    language,
                },
            ) if layer < target => Ok(S::Initializing {
                target,
                for_function,
                language: Some(language),
            }),
            (
                S::Idle {
                    layer, language, ..
                },
                E::Downgrade,
            ) => match layer.downgrade() {
                Some(Layer::Lang) => Ok(S::Idle {
                    layer: Layer::Lang,
                    language,
                    owner: None,
                }),
                Some(Layer::Bare) => Ok(S::Idle {
                    layer: Layer::Bare,
                    language: None,
                    owner: None,
                }),
                _ => Err(IllegalTransition { state: self, event }),
            },
            (
                S::Idle {
                    layer: Layer::User,
                    language,
                    owner: Some(_),
                },
                E::Adopt { function },
            ) => Ok(S::Idle {
                layer: Layer::User,
                language,
                owner: Some(function),
            }),
            _ => Err(IllegalTransition { state: self, event }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FunctionId = FunctionId::new(0);
    const G: FunctionId = FunctionId::new(1);

    fn idle_user() -> LifecycleState {
        LifecycleState::Idle {
            layer: Layer::User,
            language: Some(Language::Python),
            owner: Some(F),
        }
    }

    fn initializing(target: Layer, language: Option<Language>) -> LifecycleState {
        LifecycleState::Initializing {
            target,
            for_function: F,
            language,
        }
    }

    #[test]
    fn cold_path_init_to_idle_user() {
        let s = initializing(Layer::User, Some(Language::Python));
        let s = s.transition(LifecycleEvent::InitComplete).unwrap();
        assert_eq!(s, idle_user());
    }

    #[test]
    fn init_language_must_match_target() {
        // A language at Bare, or none at Lang or User, cannot complete.
        for (target, language) in [
            (Layer::Bare, Some(Language::Python)),
            (Layer::Lang, None),
            (Layer::User, None),
        ] {
            let s = initializing(target, language);
            assert!(s.transition(LifecycleEvent::InitComplete).is_err());
        }
        // A pre-warm completes at its target without an owner below User.
        let s = initializing(Layer::Lang, Some(Language::Java));
        assert_eq!(
            s.transition(LifecycleEvent::InitComplete).unwrap(),
            LifecycleState::Idle {
                layer: Layer::Lang,
                language: Some(Language::Java),
                owner: None,
            }
        );
    }

    #[test]
    fn execution_cycle() {
        let s = idle_user();
        let s = s
            .transition(LifecycleEvent::BeginExecution { function: F })
            .unwrap();
        assert_eq!(
            s,
            LifecycleState::Running {
                function: F,
                language: Language::Python,
            }
        );
        let s = s.transition(LifecycleEvent::ExecutionComplete).unwrap();
        assert_eq!(s, idle_user());
        assert!(s.transition(LifecycleEvent::ExecutionComplete).is_err());
    }

    #[test]
    fn user_container_rejects_foreign_function() {
        let s = idle_user();
        assert!(s
            .transition(LifecycleEvent::BeginExecution { function: G })
            .is_err());
    }

    #[test]
    fn downgrade_peels_layers_and_clears_identity() {
        let s = idle_user();
        let s = s.transition(LifecycleEvent::Downgrade).unwrap();
        assert_eq!(
            s,
            LifecycleState::Idle {
                layer: Layer::Lang,
                language: Some(Language::Python),
                owner: None,
            }
        );
        let s = s.transition(LifecycleEvent::Downgrade).unwrap();
        assert_eq!(
            s,
            LifecycleState::Idle {
                layer: Layer::Bare,
                language: None,
                owner: None,
            }
        );
        // A Bare container cannot downgrade further; the pool removes it.
        assert!(s.transition(LifecycleEvent::Downgrade).is_err());
    }

    #[test]
    fn partial_warm_start_via_upgrade() {
        // A Lang container left by F is reused by G (same language):
        // the sharing path at the bottom of Fig. 4.
        let s = LifecycleState::Idle {
            layer: Layer::Lang,
            language: Some(Language::Python),
            owner: None,
        };
        let s = s
            .transition(LifecycleEvent::BeginUpgrade {
                for_function: G,
                target: Layer::User,
                language: Language::Python,
            })
            .unwrap();
        let s = s.transition(LifecycleEvent::InitComplete).unwrap();
        assert_eq!(
            s.transition(LifecycleEvent::BeginExecution { function: G })
                .unwrap(),
            LifecycleState::Running {
                function: G,
                language: Language::Python,
            }
        );
    }

    #[test]
    fn upgrade_must_move_up() {
        let s = idle_user();
        assert!(s
            .transition(LifecycleEvent::BeginUpgrade {
                for_function: F,
                target: Layer::User,
                language: Language::Python,
            })
            .is_err());
    }

    #[test]
    fn running_cannot_downgrade() {
        let s = LifecycleState::Running {
            function: F,
            language: Language::Python,
        };
        assert!(s.transition(LifecycleEvent::Downgrade).is_err());
        assert!(s.transition(LifecycleEvent::InitComplete).is_err());
    }

    #[test]
    fn adopt_renames_a_user_container() {
        let s = idle_user();
        let s = s.transition(LifecycleEvent::Adopt { function: G }).unwrap();
        assert_eq!(
            s,
            LifecycleState::Idle {
                layer: Layer::User,
                language: Some(Language::Python),
                owner: Some(G),
            }
        );
        // The adopted container can now run G.
        assert!(s
            .transition(LifecycleEvent::BeginExecution { function: G })
            .is_ok());
    }

    #[test]
    fn adopt_requires_a_user_container() {
        let lang = LifecycleState::Idle {
            layer: Layer::Lang,
            language: Some(Language::Python),
            owner: None,
        };
        assert!(lang
            .transition(LifecycleEvent::Adopt { function: G })
            .is_err());
        assert!(LifecycleState::Running {
            function: F,
            language: Language::Python,
        }
        .transition(LifecycleEvent::Adopt { function: G })
        .is_err());
    }

    #[test]
    fn layer_reporting() {
        assert_eq!(idle_user().layer(), Layer::User);
        assert_eq!(
            LifecycleState::Running {
                function: F,
                language: Language::Python,
            }
            .layer(),
            Layer::User
        );
        assert_eq!(
            initializing(Layer::Lang, Some(Language::Python)).layer(),
            Layer::Lang
        );
    }
}
