//! The OpenWhisk default policy: keep every idle container alive for a
//! fixed 10 minutes, then terminate (§7.1 baseline 1). Commercial
//! platforms (AWS Lambda, Google Cloud Functions, Azure Functions) use
//! a similar fixed-window strategy.

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    lru_victims, ContainerView, Policy, PolicyCtx, ReuseScope, TimeoutDecision,
};
use rainbowcake_core::time::Micros;
use rainbowcake_core::types::ContainerId;

/// The fixed keep-alive window used by OpenWhisk.
pub const OPENWHISK_TTL: Micros = Micros::from_mins(10);

/// OpenWhisk's default fixed keep-alive policy.
#[derive(Debug, Clone, Default)]
pub struct OpenWhiskDefault;

impl OpenWhiskDefault {
    /// Creates the policy with the standard 10-minute window.
    pub fn new() -> Self {
        OpenWhiskDefault
    }
}

impl Policy for OpenWhiskDefault {
    fn name(&self) -> &'static str {
        "OpenWhisk"
    }

    fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
        OPENWHISK_TTL
    }

    fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
        TimeoutDecision::Terminate
    }

    fn reuse_scope(&self) -> ReuseScope {
        // Keeps the default owned-or-packed `reuse_class`, so arrivals
        // can be served from the per-function pool indices.
        ReuseScope::OwnedOrPacked
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
    use rainbowcake_core::types::{ContainerId, FunctionId, Language, Layer};

    fn fixture() -> (Catalog, ContainerView) {
        let mut c = Catalog::new();
        let f = c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let view = ContainerView {
            id: ContainerId::new(0),
            layer: Layer::User,
            language: Some(Language::Python),
            owner: Some(f),
            packed: Vec::new(),
            memory: MemMb::new(100),
            idle_since: Instant::ZERO,
            created_at: Instant::ZERO,
            hits: 1,
        };
        (c, view)
    }

    #[test]
    fn fixed_ten_minute_window() {
        let (catalog, view) = fixture();
        let mut p = OpenWhiskDefault::new();
        let ctx = PolicyCtx {
            now: Instant::ZERO,
            catalog: &catalog,
        };
        assert_eq!(p.on_idle(&ctx, &view), Micros::from_mins(10));
        assert_eq!(p.on_timeout(&ctx, &view), TimeoutDecision::Terminate);
    }

    #[test]
    fn no_prewarm_is_scheduled() {
        let (catalog, _) = fixture();
        let mut p = OpenWhiskDefault::new();
        let ctx = PolicyCtx {
            now: Instant::ZERO,
            catalog: &catalog,
        };
        assert!(p.on_arrival(&ctx, FunctionId::new(0)).prewarm.is_none());
    }

    #[test]
    fn no_cross_function_reuse() {
        let (catalog, mut view) = fixture();
        let p = OpenWhiskDefault::new();
        let ctx = PolicyCtx {
            now: Instant::ZERO,
            catalog: &catalog,
        };
        view.layer = Layer::Lang;
        view.owner = None;
        assert_eq!(p.reuse_class(&ctx, FunctionId::new(0), &view), None);
    }
}
