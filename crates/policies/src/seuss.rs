//! The SEUSS policy (Cadden et al., EuroSys'20) — the paper's
//! partial-container-caching baseline.
//!
//! SEUSS skips redundant initialization paths by snapshotting execution
//! environments at intermediate stages: a function start builds on a
//! cached language-runtime snapshot instead of booting from scratch.
//! Mapped onto the layered container model (as §2.3 does — SEUSS's
//! "three initialization paths" align with the Bare/Lang/User split),
//! the policy behaves as:
//!
//! * fully specialized (`User`) state is kept only briefly — SEUSS is
//!   frugal with memory and relies on cheap partial starts;
//! * on expiry the container falls back to the `Lang` snapshot level,
//!   which is cached for a long time and serves any same-language
//!   function (snapshots are function-agnostic up to the runtime);
//! * no pre-warming and no sharing-aware adaptation: all windows are
//!   fixed.

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    lru_victims, ContainerView, Policy, PolicyCtx, ReuseClass, ReuseScope, TimeoutDecision,
};
use rainbowcake_core::time::Micros;
use rainbowcake_core::types::{ContainerId, FunctionId, Layer};

/// How long a fully specialized (`User`) container is kept: briefly,
/// since SEUSS does not keep specialized state warm — repeat invocations
/// normally pay the partial snapshot-fork path, which is why its warm
/// starts are "partial" in Fig. 3.
const USER_TTL: Micros = Micros::from_mins(3);

/// How long a language-snapshot (`Lang`) container is kept.
const LANG_TTL: Micros = Micros::from_mins(30);

/// SEUSS-style partial caching with fixed per-level windows.
#[derive(Debug, Clone, Default)]
pub struct Seuss;

impl Seuss {
    /// Creates the policy with its standard windows: 3 minutes at
    /// `User`, 30 minutes at the snapshot level.
    pub fn new() -> Self {
        Seuss
    }
}

impl Policy for Seuss {
    fn name(&self) -> &'static str {
        "SEUSS"
    }

    fn reuse_class(
        &self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        c: &ContainerView,
    ) -> Option<ReuseClass> {
        match c.layer {
            // A "hit" on cached specialized state is a snapshot
            // re-fork, not a live warm container: SEUSS warm starts are
            // partial (§2.2).
            Layer::User if c.owner == Some(f) => Some(ReuseClass::SnapshotUser),
            // Snapshot reuse: any same-language function boots from the
            // cached Lang state.
            Layer::Lang if c.language == Some(ctx.profile(f).language) => {
                Some(ReuseClass::SharedLang)
            }
            _ => None,
        }
    }

    /// Mirrors [`Self::reuse_class`]: snapshot re-forks from owned
    /// `User` state, snapshot boots from same-language `Lang` state,
    /// and nothing from `Bare` — so the platform can serve arrivals
    /// from its owner and language indices.
    fn reuse_scope(&self) -> ReuseScope {
        ReuseScope::Layered {
            user: ReuseClass::SnapshotUser,
            lang: true,
            bare: false,
        }
    }

    fn on_idle(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
        match c.layer {
            Layer::User => USER_TTL,
            Layer::Lang => LANG_TTL,
            Layer::Bare => Micros::from_mins(1),
        }
    }

    fn on_timeout(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
        match c.layer {
            // Fall back to the snapshot level instead of dying.
            Layer::User => TimeoutDecision::Downgrade { ttl: LANG_TTL },
            _ => TimeoutDecision::Terminate,
        }
    }

    fn select_victims(
        &mut self,
        _: &PolicyCtx<'_>,
        candidates: &[ContainerView],
        need: MemMb,
    ) -> Vec<ContainerId> {
        lru_victims(candidates, need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbowcake_core::mem::MemMb;
    use rainbowcake_core::profile::{Catalog, FunctionProfile};
    use rainbowcake_core::time::Instant;
    use rainbowcake_core::types::{ContainerId, Language};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Java,
        ));
        c
    }

    fn view(layer: Layer, owner: Option<FunctionId>, lang: Option<Language>) -> ContainerView {
        ContainerView {
            id: ContainerId::new(0),
            layer,
            language: lang,
            owner,
            packed: Vec::new(),
            memory: MemMb::new(100),
            idle_since: Instant::ZERO,
            created_at: Instant::ZERO,
            hits: 0,
        }
    }

    fn ctx(c: &Catalog) -> PolicyCtx<'_> {
        PolicyCtx {
            now: Instant::ZERO,
            catalog: c,
        }
    }

    #[test]
    fn snapshot_reuse_within_language_only() {
        let c = catalog();
        let p = Seuss::new();
        let cx = ctx(&c);
        let py_snapshot = view(Layer::Lang, None, Some(Language::Python));
        assert_eq!(
            p.reuse_class(&cx, FunctionId::new(1), &py_snapshot),
            Some(ReuseClass::SharedLang)
        );
        // Own specialized snapshot: partial, not warm.
        let user = view(
            Layer::User,
            Some(FunctionId::new(0)),
            Some(Language::Python),
        );
        assert_eq!(
            p.reuse_class(&cx, FunctionId::new(0), &user),
            Some(ReuseClass::SnapshotUser)
        );
        assert_eq!(p.reuse_class(&cx, FunctionId::new(2), &py_snapshot), None);
        // Bare containers are not a SEUSS snapshot level for reuse.
        assert_eq!(
            p.reuse_class(&cx, FunctionId::new(0), &view(Layer::Bare, None, None)),
            None
        );
    }

    #[test]
    fn user_state_is_short_lived_and_falls_back_to_snapshot() {
        let c = catalog();
        let mut p = Seuss::new();
        let cx = ctx(&c);
        let user = view(
            Layer::User,
            Some(FunctionId::new(0)),
            Some(Language::Python),
        );
        assert_eq!(p.on_idle(&cx, &user), Micros::from_mins(3));
        assert_eq!(
            p.on_timeout(&cx, &user),
            TimeoutDecision::Downgrade {
                ttl: Micros::from_mins(30)
            }
        );
    }

    #[test]
    fn snapshot_level_is_long_lived_then_dies() {
        let c = catalog();
        let mut p = Seuss::new();
        let cx = ctx(&c);
        let lang = view(Layer::Lang, None, Some(Language::Python));
        assert_eq!(p.on_idle(&cx, &lang), Micros::from_mins(30));
        assert_eq!(p.on_timeout(&cx, &lang), TimeoutDecision::Terminate);
    }

    #[test]
    fn scope_mirrors_reuse_class() {
        let p = Seuss::new();
        assert_eq!(
            p.reuse_scope(),
            ReuseScope::Layered {
                user: ReuseClass::SnapshotUser,
                lang: true,
                bare: false,
            }
        );
    }

    #[test]
    fn no_prewarming() {
        let c = catalog();
        let mut p = Seuss::new();
        assert!(p.on_arrival(&ctx(&c), FunctionId::new(0)).prewarm.is_none());
    }
}
