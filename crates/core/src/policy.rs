//! The policy interface: the contract between a cold-start mitigation
//! policy and the platform (the simulator, or a real container pool).
//!
//! A [`Policy`] is event-driven, mirroring §5.2: the platform calls into
//! it when an invocation arrives, when a container becomes idle, when an
//! idle container's keep-alive TTL expires, when a scheduled pre-warm
//! timer fires, and when memory pressure forces an eviction. The policy
//! answers with decisions (TTLs, downgrade-vs-terminate, victim choice);
//! the platform owns all mechanics.

use crate::history::HistoryStats;
use crate::mem::MemMb;
use crate::profile::{Catalog, FunctionProfile};
use crate::time::{Instant, Micros};
use crate::types::{ContainerId, FunctionId, Language, Layer};

/// Read-only call context handed to every policy hook.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    /// Current simulation time.
    pub now: Instant,
    /// The deployed functions.
    pub catalog: &'a Catalog,
}

impl<'a> PolicyCtx<'a> {
    /// Shorthand for the profile of `f`.
    pub fn profile(&self, f: FunctionId) -> &'a FunctionProfile {
        self.catalog.profile(f)
    }
}

/// A policy's view of one container in the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerView {
    /// Pool-unique id.
    pub id: ContainerId,
    /// Installed top layer.
    pub layer: Layer,
    /// Language runtime, if `layer >= Lang`.
    pub language: Option<Language>,
    /// Owning function, if `layer == User`.
    pub owner: Option<FunctionId>,
    /// Extra functions this container has been re-packed to serve
    /// (container-sharing schemes à la Pagurus); empty otherwise.
    pub packed: Vec<FunctionId>,
    /// Current idle memory footprint.
    pub memory: MemMb,
    /// When the container last became idle.
    pub idle_since: Instant,
    /// When the container was created.
    pub created_at: Instant,
    /// Number of invocations this container has completed.
    pub hits: u32,
}

/// How an idle container can serve an arriving invocation, ordered from
/// warmest (cheapest startup) to coldest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReuseClass {
    /// Full warm start: an idle `User` container of the same function.
    WarmUser,
    /// Partial warm start from a *snapshot* of the function's fully
    /// initialized state (SEUSS-style): the container must be re-forked
    /// and its user state restored, paying a fraction of the user-load
    /// stage.
    SnapshotUser,
    /// Warm-ish start via a re-packed (shared) `User` container that
    /// already holds this function's packages.
    SharedPacked,
    /// Partial warm start from an idle `Lang` container of the same
    /// language (install the `User` layer).
    SharedLang,
    /// Partial warm start from an idle `Bare` container (install `Lang`
    /// and `User` layers).
    SharedBare,
}

/// How broadly a policy's [`Policy::reuse_class`] can match, so the
/// platform knows which idle containers it must offer on an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseScope {
    /// `reuse_class` may grant a class to *any* idle container
    /// (layer-sharing schemes); the platform must offer every one.
    All,
    /// `reuse_class` behaves exactly like the default implementation:
    /// `WarmUser` for a `User` container owned by the arriving function,
    /// `SharedPacked` for a `User` container packed with it, `None`
    /// otherwise. The platform may then serve arrivals straight from its
    /// per-function owner and packed indices — assigning those classes
    /// itself, without calling `reuse_class` or building container views
    /// — and skip every other idle container. A policy that overrides
    /// `reuse_class` must not declare this scope.
    OwnedOrPacked,
    /// `reuse_class` grants per layer, keyed only by the candidate's
    /// layer and language (layer-wise sharing à la RainbowCake/SEUSS):
    /// `user` for a `User` container owned by the arriving function,
    /// [`ReuseClass::SharedLang`] for a `Lang`-layer container of the
    /// function's language iff `lang`, [`ReuseClass::SharedBare`] for a
    /// `Bare`-layer container iff `bare`, and `None` everywhere else
    /// (including non-owner `User` containers). The platform serves
    /// arrivals from its per-owner, per-language-layer, and bare-layer
    /// indices — again without calling `reuse_class` — and skips the
    /// rest of the idle set. A policy whose grants depend on anything
    /// beyond (owner, layer, language) must not declare this scope.
    Layered {
        /// Class granted to an idle `User` container owned by the
        /// arriving function ([`ReuseClass::WarmUser`] for warm reuse,
        /// [`ReuseClass::SnapshotUser`] for SEUSS-style re-forking).
        user: ReuseClass,
        /// Whether idle `Lang`-layer containers of the function's
        /// language are granted [`ReuseClass::SharedLang`].
        lang: bool,
        /// Whether idle `Bare`-layer containers are granted
        /// [`ReuseClass::SharedBare`].
        bare: bool,
    },
}

/// Pre-warm request emitted from [`Policy::on_arrival`]: "after `delay`,
/// consider warming a container for `function` up to `target`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmRequest {
    /// Function to pre-warm for.
    pub function: FunctionId,
    /// Delay from now until the pre-warm check fires (Alg. 1's
    /// `Sleep(IAT)`).
    pub delay: Micros,
    /// Layer to warm up to (Alg. 1 warms full `User` containers).
    pub target: Layer,
}

/// Everything a policy wants done in response to an arrival.
///
/// Every implemented policy schedules at most one pre-warm per arrival
/// (RainbowCake's Alg. 1 line 9, the histogram's single window), so the
/// response holds an inline `Option` rather than a `Vec` — the arrival
/// hot path allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrivalResponse {
    /// Pre-warm timer to schedule, if any.
    pub prewarm: Option<PrewarmRequest>,
}

impl ArrivalResponse {
    /// A response that schedules nothing.
    pub fn none() -> Self {
        ArrivalResponse::default()
    }

    /// A response scheduling a single pre-warm.
    pub fn prewarm(function: FunctionId, delay: Micros, target: Layer) -> Self {
        ArrivalResponse {
            prewarm: Some(PrewarmRequest {
                function,
                delay,
                target,
            }),
        }
    }
}

/// A container's full layer-wise keep-alive schedule, fixed at the
/// moment it goes idle: `ttls[i]` is the keep-alive window the container
/// spends at its `i`-th rung (rung 0 is the layer it went idle at, each
/// subsequent rung one [`Layer::downgrade`] step down), and `rungs` is
/// how many entries are meaningful (1..=3). After the last rung's window
/// elapses the container terminates.
///
/// A ladder lets the platform arm **no** timer for the idle period
/// instead of one per layer: it derives every downgrade instant
/// (`idle_since + ttls[0] + … + ttls[i]`) on demand and settles elapsed
/// rungs lazily, the last rung's termination included.
/// A `Micros::MAX` rung never expires: the container parks at that rung
/// until reused or evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtlLadder {
    /// Per-rung keep-alive windows, top layer first.
    pub ttls: [Micros; 3],
    /// Number of meaningful rungs in `ttls` (1..=3).
    pub rungs: u8,
}

impl TtlLadder {
    /// The instant rung `rung` expires for a container idle since
    /// `idle_since`, or `None` if an earlier (or that) rung never
    /// expires. Saturating: a sum overflowing the time domain counts as
    /// never.
    pub fn boundary(&self, idle_since: Instant, rung: u8) -> Option<Instant> {
        let mut total = 0u64;
        for i in 0..=rung.min(self.rungs.saturating_sub(1)) {
            let t = self.ttls[i as usize].as_micros();
            if t == u64::MAX {
                return None;
            }
            total = total.checked_add(t)?;
        }
        idle_since
            .as_micros()
            .checked_add(total)
            .map(Instant::from_micros)
    }
}

/// Decision when an idle container's keep-alive TTL expires (Alg. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeoutDecision {
    /// Destroy the container, releasing all memory.
    Terminate,
    /// Peel the top layer off and keep the rest alive for `ttl`
    /// (layer-wise keep-alive; only legal above `Bare`).
    Downgrade {
        /// Keep-alive window at the next layer down.
        ttl: Micros,
    },
    /// Keep the container at `User` but install the packages of
    /// `extra_functions` so they can reuse it warm (container sharing à
    /// la Pagurus); keep alive for `ttl`. The platform inflates the
    /// container's memory accordingly.
    Repack {
        /// Functions to pack alongside the owner.
        extra_functions: Vec<FunctionId>,
        /// Keep-alive window in the shared state.
        ttl: Micros,
    },
}

/// Decision when a scheduled pre-warm timer fires (Alg. 1 lines 3-6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrewarmDecision {
    /// Do nothing (e.g. a warm container already exists).
    Skip,
    /// Start initializing a container up to `target`.
    Warm {
        /// Layer to initialize up to.
        target: Layer,
    },
}

/// A cold-start mitigation policy.
///
/// Implementations must be deterministic given the same event sequence;
/// any randomness must come from seeds owned by the policy.
pub trait Policy {
    /// Short identifier used in reports (e.g. `"RainbowCake"`).
    fn name(&self) -> &'static str;

    /// Called on every invocation arrival, *before* container selection.
    /// This is where histories are updated and pre-warm timers scheduled
    /// (Alg. 1 lines 8-11).
    fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        let _ = (ctx, f);
        ArrivalResponse::none()
    }

    /// Whether (and how) the idle container `c` may serve an invocation
    /// of `f`. Returning `None` forbids the reuse.
    ///
    /// The default allows only exact `User`-layer reuse and re-packed
    /// sharing — the behaviour of full-container caching schemes.
    fn reuse_class(
        &self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        c: &ContainerView,
    ) -> Option<ReuseClass> {
        let _ = ctx;
        if c.layer == Layer::User && c.owner == Some(f) {
            Some(ReuseClass::WarmUser)
        } else if c.layer == Layer::User && c.packed.contains(&f) {
            Some(ReuseClass::SharedPacked)
        } else {
            None
        }
    }

    /// The candidate scope [`Self::reuse_class`] draws from. Policies
    /// that keep the default owned-or-packed `reuse_class` should return
    /// [`ReuseScope::OwnedOrPacked`] so the platform can serve arrivals
    /// from its per-function indices instead of scanning the whole idle
    /// set. Must be consistent with `reuse_class`: declaring the narrow
    /// scope while granting classes outside it makes the platform miss
    /// those candidates. The default is the always-correct [`ReuseScope::All`].
    fn reuse_scope(&self) -> ReuseScope {
        ReuseScope::All
    }

    /// Called when a container becomes idle (after completing an
    /// execution, or after a pre-warm finishes). Returns the keep-alive
    /// TTL for the container's current layer.
    fn on_idle(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Micros;

    /// Layer-wise policies may expose the container's *entire*
    /// keep-alive schedule the moment it goes idle: rung 0 of the
    /// returned ladder is the current layer's TTL, each further rung the
    /// next layer down. When this returns `Some`, the platform drives
    /// the whole idle period from the ladder — settled lazily, with no
    /// per-layer timer chain — and **does not call**
    /// [`Policy::on_idle`] or [`Policy::on_timeout`] for it, so the
    /// implementation must perform any bookkeeping those hooks would
    /// have done (e.g. history observations) itself.
    ///
    /// The default `None` keeps the classic per-layer
    /// `on_idle`/`on_timeout` protocol.
    fn ttl_ladder(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Option<TtlLadder> {
        let _ = (ctx, c);
        None
    }

    /// Called when an idle container's TTL expires; decides between
    /// terminating, downgrading (layer-wise keep-alive), or re-packing.
    fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision;

    /// Called when a pre-warm timer scheduled from [`on_arrival`] fires.
    /// `has_idle_user` tells the policy whether an idle `User` container
    /// of the function already exists (Alg. 1 line 3).
    ///
    /// [`on_arrival`]: Policy::on_arrival
    fn on_prewarm_fire(
        &mut self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        has_idle_user: bool,
    ) -> PrewarmDecision {
        let _ = (ctx, f);
        if has_idle_user {
            PrewarmDecision::Skip
        } else {
            PrewarmDecision::Warm {
                target: Layer::User,
            }
        }
    }

    /// Chooses an idle container to evict under memory pressure. The
    /// default evicts the least-recently-idle container. Returning
    /// `None` refuses to evict (the platform will then queue work).
    ///
    /// `candidates` is never empty.
    fn select_victim(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
    ) -> Option<ContainerId> {
        let _ = ctx;
        candidates
            .iter()
            .min_by_key(|c| (c.idle_since, c.id))
            .map(|c| c.id)
    }

    /// Batch form of [`select_victim`]: chooses the victims to evict, in
    /// eviction order, whose cumulative memory covers `need` (the
    /// platform's current memory deficit). The platform builds
    /// `candidates` — all idle containers, in ascending id order —
    /// **once** per reclamation, then destroys the returned victims in
    /// order, re-checking its budget between kills; a sequence that
    /// under-covers `need` means the policy refuses to free more (the
    /// platform then queues the work).
    ///
    /// The default implementation replays the classic
    /// one-victim-at-a-time protocol — [`select_victim`] over the
    /// shrinking candidate list — so existing policies keep byte-exact
    /// eviction sequences. Policies whose victim order does not depend
    /// on previously evicted victims should override this with a
    /// sorted or index-backed fast path (see [`lru_victims`]).
    ///
    /// [`select_victim`]: Policy::select_victim
    fn select_victims(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
        need: MemMb,
    ) -> Vec<ContainerId> {
        sequential_victims(self, ctx, candidates, need)
    }

    /// Notification that a container was destroyed (TTL expiry or
    /// eviction); lets stateful policies clean internal maps.
    fn on_terminated(&mut self, ctx: &PolicyCtx<'_>, id: ContainerId) {
        let _ = (ctx, id);
    }

    /// History-recorder query counters, for policies that keep one
    /// (RainbowCake). `None` — the default — means the policy answers
    /// no rate queries; the harness reports the counters per shard and
    /// merged, so the cost of Eq. 2's compound sums stays observable.
    fn history_stats(&self) -> Option<HistoryStats> {
        None
    }
}

/// The reference implementation of [`Policy::select_victims`]: repeated
/// [`Policy::select_victim`] over the shrinking candidate list until
/// `need` is covered, the policy refuses, or candidates run out. Batch
/// overrides must produce exactly this victim sequence — the platform's
/// determinism guarantee (simulations serialize byte-identically)
/// depends on it.
pub fn sequential_victims<P: Policy + ?Sized>(
    policy: &mut P,
    ctx: &PolicyCtx<'_>,
    candidates: &[ContainerView],
    need: MemMb,
) -> Vec<ContainerId> {
    let mut remaining = candidates.to_vec();
    let mut victims = Vec::new();
    let mut freed = MemMb::ZERO;
    while freed < need && !remaining.is_empty() {
        let Some(victim) = policy.select_victim(ctx, &remaining) else {
            break;
        };
        let pos = remaining
            .iter()
            .position(|c| c.id == victim)
            .expect("victim must be one of the candidates");
        freed += remaining[pos].memory;
        victims.push(victim);
        remaining.remove(pos);
    }
    victims
}

/// Batch equivalent of the default LRU [`Policy::select_victim`]: the
/// least-recently-idle prefix (ties broken by id) covering `need`. One
/// sort instead of one scan per victim — the fast path for every policy
/// whose eviction order ignores previously evicted victims.
pub fn lru_victims(candidates: &[ContainerView], need: MemMb) -> Vec<ContainerId> {
    let mut order: Vec<(Instant, ContainerId, MemMb)> = candidates
        .iter()
        .map(|c| (c.idle_since, c.id, c.memory))
        .collect();
    order.sort_unstable_by_key(|&(since, id, _)| (since, id));
    let mut victims = Vec::new();
    let mut freed = MemMb::ZERO;
    for (_, id, memory) in order {
        if freed >= need {
            break;
        }
        freed += memory;
        victims.push(id);
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FunctionProfile;

    struct FixedTtl;

    impl Policy for FixedTtl {
        fn name(&self) -> &'static str {
            "FixedTtl"
        }
        fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
            Micros::from_mins(10)
        }
        fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
            TimeoutDecision::Terminate
        }
    }

    fn view(layer: Layer, owner: Option<FunctionId>, idle_us: u64) -> ContainerView {
        ContainerView {
            id: ContainerId::new(idle_us),
            layer,
            language: Some(Language::Python),
            owner,
            packed: Vec::new(),
            memory: MemMb::new(100),
            idle_since: Instant::from_micros(idle_us),
            created_at: Instant::ZERO,
            hits: 0,
        }
    }

    fn ctx(catalog: &Catalog) -> PolicyCtx<'_> {
        PolicyCtx {
            now: Instant::ZERO,
            catalog,
        }
    }

    #[test]
    fn default_reuse_is_user_only() {
        let mut catalog = Catalog::new();
        let f = catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let g = catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let p = FixedTtl;
        let c = ctx(&catalog);
        assert_eq!(
            p.reuse_class(&c, f, &view(Layer::User, Some(f), 0)),
            Some(ReuseClass::WarmUser)
        );
        assert_eq!(p.reuse_class(&c, g, &view(Layer::User, Some(f), 0)), None);
        assert_eq!(p.reuse_class(&c, f, &view(Layer::Lang, None, 0)), None);
    }

    #[test]
    fn packed_containers_serve_packed_functions() {
        let mut catalog = Catalog::new();
        let f = catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let g = catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let p = FixedTtl;
        let c = ctx(&catalog);
        let mut v = view(Layer::User, Some(f), 0);
        v.packed = vec![g];
        assert_eq!(p.reuse_class(&c, g, &v), Some(ReuseClass::SharedPacked));
    }

    #[test]
    fn default_victim_is_lru() {
        let mut catalog = Catalog::new();
        catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let mut p = FixedTtl;
        let c = ctx(&catalog);
        let cands = vec![view(Layer::User, None, 30), view(Layer::User, None, 10)];
        assert_eq!(p.select_victim(&c, &cands), Some(ContainerId::new(10)));
    }

    #[test]
    fn batch_selection_covers_need_in_lru_order() {
        let mut catalog = Catalog::new();
        catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let mut p = FixedTtl;
        let c = ctx(&catalog);
        let cands = vec![
            view(Layer::User, None, 30),
            view(Layer::User, None, 10),
            view(Layer::User, None, 20),
        ];
        // Each view is 100 MB: a 150 MB deficit needs the two oldest.
        let victims = p.select_victims(&c, &cands, MemMb::new(150));
        assert_eq!(victims, vec![ContainerId::new(10), ContainerId::new(20)]);
        assert_eq!(victims, lru_victims(&cands, MemMb::new(150)));
        // An uncoverable deficit drains every candidate, in order.
        let all = p.select_victims(&c, &cands, MemMb::new(1_000));
        assert_eq!(
            all,
            vec![
                ContainerId::new(10),
                ContainerId::new(20),
                ContainerId::new(30)
            ]
        );
        assert_eq!(all, lru_victims(&cands, MemMb::new(1_000)));
        // A zero deficit evicts nothing.
        assert!(p.select_victims(&c, &cands, MemMb::ZERO).is_empty());
        assert!(lru_victims(&cands, MemMb::ZERO).is_empty());
    }

    #[test]
    fn default_prewarm_follows_algorithm_1() {
        let mut catalog = Catalog::new();
        let f = catalog.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let mut p = FixedTtl;
        let c = ctx(&catalog);
        assert_eq!(p.on_prewarm_fire(&c, f, true), PrewarmDecision::Skip);
        assert_eq!(
            p.on_prewarm_fire(&c, f, false),
            PrewarmDecision::Warm {
                target: Layer::User
            }
        );
    }

    #[test]
    fn ladder_boundaries_accumulate_and_saturate() {
        let ladder = TtlLadder {
            ttls: [
                Micros::from_mins(5),
                Micros::from_mins(3),
                Micros::from_mins(2),
            ],
            rungs: 3,
        };
        let t0 = Instant::from_micros(1_000_000);
        assert_eq!(ladder.boundary(t0, 0), Some(t0 + Micros::from_mins(5)));
        assert_eq!(ladder.boundary(t0, 1), Some(t0 + Micros::from_mins(8)));
        assert_eq!(ladder.boundary(t0, 2), Some(t0 + Micros::from_mins(10)));
        // A rung that never expires makes that boundary (and every later
        // one) unreachable, but earlier boundaries stay exact.
        let parked = TtlLadder {
            ttls: [Micros::from_mins(5), Micros::MAX, Micros::MAX],
            rungs: 3,
        };
        assert_eq!(parked.boundary(t0, 0), Some(t0 + Micros::from_mins(5)));
        assert_eq!(parked.boundary(t0, 1), None);
        assert_eq!(parked.boundary(t0, 2), None);
    }

    #[test]
    fn reuse_class_preference_order() {
        assert!(ReuseClass::WarmUser < ReuseClass::SnapshotUser);
        assert!(ReuseClass::SnapshotUser < ReuseClass::SharedPacked);
        assert!(ReuseClass::SharedPacked < ReuseClass::SharedLang);
        assert!(ReuseClass::SharedLang < ReuseClass::SharedBare);
    }
}
