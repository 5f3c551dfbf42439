//! The Pagurus policy (Li et al., USENIX ATC'22, "Help Rather Than
//! Recycle") — the paper's container-sharing baseline.
//!
//! Pagurus lets an idle container *help* other functions instead of
//! being recycled: after a private keep-alive phase with no reuse, the
//! container is re-forked into a "zygote" that packs the dependencies of
//! several candidate functions (chosen by how likely they are to arrive
//! soon), so any of them can take it over with a near-warm start. The
//! price is an over-packed, heavyweight container — exactly the memory
//! overhead RainbowCake's layer-wise design avoids (§2.2-2.3).

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    lru_victims, ArrivalResponse, ContainerView, Policy, PolicyCtx, ReuseScope, TimeoutDecision,
};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId};

/// Private keep-alive phase before re-packing.
const PRIVATE_TTL: Micros = Micros::from_mins(2);

/// Shared (zygote) keep-alive phase before termination.
const SHARED_TTL: Micros = Micros::from_mins(8);

/// Maximum number of helper candidates packed into a zygote.
const PACK_LIMIT: usize = 3;

/// Arrival timestamps kept per function for candidate ranking.
const RECENT_WINDOW: usize = 8;

/// The Pagurus inter-function container-sharing policy.
#[derive(Debug, Clone)]
pub struct Pagurus {
    /// The last [`RECENT_WINDOW`] arrival timestamps per function (for
    /// candidate ranking).
    recent: Vec<Vec<Instant>>,
}

impl Pagurus {
    /// Creates the policy for `n_functions` functions with its standard
    /// windows (2-minute private phase, 8-minute shared phase, 3 packed
    /// candidates).
    pub fn new(n_functions: usize) -> Self {
        Pagurus {
            recent: vec![Vec::new(); n_functions],
        }
    }

    /// Recent arrival rate (per second) of `f`, from its sliding window.
    fn rate(&self, f: FunctionId, now: Instant) -> f64 {
        let w = &self.recent[f.index()];
        if w.len() < 2 {
            return 0.0;
        }
        let span = now.duration_since(w[0]).max(Micros::from_micros(1));
        w.len() as f64 / span.as_secs_f64()
    }

    /// The candidate functions a zygote owned by `owner` should pack:
    /// the same-language functions with the highest recent arrival
    /// rates (the weighted-candidate selection of the original system,
    /// made deterministic by taking the top ranks).
    fn candidates(&self, ctx: &PolicyCtx<'_>, owner: FunctionId, now: Instant) -> Vec<FunctionId> {
        let lang = ctx.profile(owner).language;
        let mut scored: Vec<(FunctionId, f64)> = ctx
            .catalog
            .iter()
            .filter(|p| p.id != owner && p.language == lang)
            .map(|p| (p.id, self.rate(p.id, now)))
            .filter(|&(_, r)| r > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .take(PACK_LIMIT)
            .map(|(f, _)| f)
            .collect()
    }
}

impl Policy for Pagurus {
    fn name(&self) -> &'static str {
        "Pagurus"
    }

    fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        let w = &mut self.recent[f.index()];
        if w.len() == RECENT_WINDOW {
            w.remove(0);
        }
        w.push(ctx.now);
        ArrivalResponse::none()
    }

    // reuse_class: the default impl already grants WarmUser to the owner
    // and SharedPacked to packed candidates — exactly Pagurus semantics.

    fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
        PRIVATE_TTL
    }

    fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
        if !c.packed.is_empty() {
            // The shared phase also expired: recycle for real.
            return TimeoutDecision::Terminate;
        }
        let Some(owner) = c.owner else {
            return TimeoutDecision::Terminate;
        };
        let candidates = self.candidates(ctx, owner, ctx.now);
        if candidates.is_empty() {
            return TimeoutDecision::Terminate;
        }
        TimeoutDecision::Repack {
            extra_functions: candidates,
            ttl: SHARED_TTL,
        }
    }

    fn reuse_scope(&self) -> ReuseScope {
        // Pagurus reuse is exactly owner-or-packed (the zombie lending
        // model), so arrivals can be served from the per-function pool
        // indices — including the packed one its repacks populate.
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
    use rainbowcake_core::policy::ReuseClass;
    use rainbowcake_core::profile::{Catalog, FunctionProfile};
    use rainbowcake_core::types::{ContainerId, Language, Layer};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for lang in [
            Language::Python,
            Language::Python,
            Language::Python,
            Language::Java,
        ] {
            c.push(FunctionProfile::synthetic(FunctionId::new(0), lang));
        }
        c
    }

    fn ctx(c: &Catalog, secs: u64) -> PolicyCtx<'_> {
        PolicyCtx {
            now: Instant::from_micros(secs * 1_000_000),
            catalog: c,
        }
    }

    fn view(owner: u32, packed: Vec<FunctionId>) -> ContainerView {
        ContainerView {
            id: ContainerId::new(0),
            layer: Layer::User,
            language: Some(Language::Python),
            owner: Some(FunctionId::new(owner)),
            packed,
            memory: MemMb::new(150),
            idle_since: Instant::ZERO,
            created_at: Instant::ZERO,
            hits: 1,
        }
    }

    fn train(p: &mut Pagurus, c: &Catalog, f: u32, period: u64, n: usize) {
        for i in 0..n {
            p.on_arrival(&ctx(c, period * i as u64), FunctionId::new(f));
        }
    }

    #[test]
    fn private_phase_then_repack() {
        let c = catalog();
        let mut p = Pagurus::new(4);
        // Functions 1 and 2 (Python) are active; 3 is Java.
        train(&mut p, &c, 1, 10, 6);
        train(&mut p, &c, 2, 30, 6);
        train(&mut p, &c, 3, 5, 6);
        let cx = ctx(&c, 300);
        let v = view(0, Vec::new());
        assert_eq!(p.on_idle(&cx, &v), Micros::from_mins(2));
        match p.on_timeout(&cx, &v) {
            TimeoutDecision::Repack {
                extra_functions,
                ttl,
            } => {
                // Same-language candidates only, busiest first.
                assert_eq!(
                    extra_functions,
                    vec![FunctionId::new(1), FunctionId::new(2)]
                );
                assert_eq!(ttl, Micros::from_mins(8));
            }
            other => panic!("expected repack, got {other:?}"),
        }
    }

    #[test]
    fn shared_phase_expiry_terminates() {
        let c = catalog();
        let mut p = Pagurus::new(4);
        train(&mut p, &c, 1, 10, 6);
        let cx = ctx(&c, 300);
        let v = view(0, vec![FunctionId::new(1)]);
        assert_eq!(p.on_timeout(&cx, &v), TimeoutDecision::Terminate);
    }

    #[test]
    fn no_candidates_means_recycle() {
        let c = catalog();
        let mut p = Pagurus::new(4);
        // Nobody else has history: nothing to help.
        let cx = ctx(&c, 300);
        assert_eq!(
            p.on_timeout(&cx, &view(0, Vec::new())),
            TimeoutDecision::Terminate
        );
    }

    #[test]
    fn packed_functions_get_shared_reuse() {
        let c = catalog();
        let p = Pagurus::new(4);
        let cx = ctx(&c, 0);
        let v = view(0, vec![FunctionId::new(1)]);
        assert_eq!(
            p.reuse_class(&cx, FunctionId::new(1), &v),
            Some(ReuseClass::SharedPacked)
        );
        assert_eq!(p.reuse_class(&cx, FunctionId::new(2), &v), None);
        assert_eq!(
            p.reuse_class(&cx, FunctionId::new(0), &v),
            Some(ReuseClass::WarmUser)
        );
    }

    #[test]
    fn pack_limit_is_respected() {
        // The owner plus more active same-language candidates than a
        // zygote may pack.
        let mut c = Catalog::new();
        for _ in 0..=PACK_LIMIT + 1 {
            c.push(FunctionProfile::synthetic(
                FunctionId::new(0),
                Language::Python,
            ));
        }
        let mut p = Pagurus::new(c.len());
        for f in 1..=PACK_LIMIT as u32 + 1 {
            train(&mut p, &c, f, 10, 6);
        }
        let cx = ctx(&c, 300);
        match p.on_timeout(&cx, &view(0, Vec::new())) {
            TimeoutDecision::Repack {
                extra_functions, ..
            } => {
                assert_eq!(extra_functions.len(), PACK_LIMIT);
            }
            other => panic!("expected repack, got {other:?}"),
        }
    }
}
