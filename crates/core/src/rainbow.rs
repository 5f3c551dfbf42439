//! The RainbowCake policy (§5): layer-wise, sharing-aware pre-warming
//! and keep-alive, plus the two ablation variants of §7.3.

use crate::cost::CostModel;
use crate::error::ConfigError;
use crate::history::{iat_with_numerator, HistoryRecorder, HistoryStats, SharingIats};
use crate::mem::MemMb;
use crate::policy::{
    lru_victims, ArrivalResponse, ContainerView, Policy, PolicyCtx, ReuseClass, ReuseScope,
    TimeoutDecision, TtlLadder,
};
use crate::profile::{Catalog, FunctionProfile};
use crate::time::{Instant, Micros};
use crate::types::{ContainerId, FunctionId, Layer};

/// Ablation variants of §7.3.
#[derive(Debug, Clone, PartialEq)]
pub enum RainbowVariant {
    /// The full design: sharing-aware modeling + layer-wise caching.
    Full,
    /// "RainbowCake w/o sharing-aware modeling": layer-wise caching with
    /// the paper's fixed keep-alive TTLs per layer, 5/3/2 minutes for
    /// User/Lang/Bare.
    NoSharing,
    /// "RainbowCake w/o layer caching": only `User` containers are
    /// pre-warmed and kept alive; timeouts terminate instead of
    /// downgrading (skipping the Lang and Bare phases).
    NoLayers,
}

/// The fixed keep-alive TTL of [`RainbowVariant::NoSharing`] at `layer`
/// (§7.3).
fn no_sharing_ttl(layer: Layer) -> Micros {
    match layer {
        Layer::User => Micros::from_mins(5),
        Layer::Lang => Micros::from_mins(3),
        Layer::Bare => Micros::from_mins(2),
    }
}

/// Configuration of [`RainbowCake`] (the three knobs of §7.1/§7.5).
#[derive(Debug, Clone, PartialEq)]
pub struct RainbowConfig {
    /// Cost knob `α` of Eq. 1 (default 0.996).
    pub alpha: f64,
    /// IAT confidence quantile `p` of Eq. 4 (default 0.8).
    pub quantile: f64,
    /// Sliding-window size `n` of Eq. 5 (default 6).
    pub window: usize,
    /// Design variant (full or an ablation).
    pub variant: RainbowVariant,
}

impl Default for RainbowConfig {
    fn default() -> Self {
        RainbowConfig {
            alpha: CostModel::DEFAULT_ALPHA,
            quantile: 0.8,
            window: 6,
            variant: RainbowVariant::Full,
        }
    }
}

/// The RainbowCake policy: event-driven layer-wise pre-warming (Alg. 1)
/// and keep-alive (Alg. 2) with sharing-aware TTLs (Eqs. 4-7).
///
/// ```
/// use rainbowcake_core::rainbow::{RainbowCake, RainbowConfig};
/// use rainbowcake_core::profile::{Catalog, FunctionProfile};
/// use rainbowcake_core::types::{FunctionId, Language};
///
/// # fn main() -> Result<(), rainbowcake_core::error::ConfigError> {
/// let mut catalog = Catalog::new();
/// catalog.push(FunctionProfile::synthetic(FunctionId::new(0), Language::Python));
/// let policy = RainbowCake::new(&catalog, RainbowConfig::default())?;
/// assert_eq!(policy.config().quantile, 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RainbowCake {
    config: RainbowConfig,
    cost: CostModel,
    recorder: HistoryRecorder,
    /// `-ln(1 - p)` for the configured quantile: the numerator of Eq. 4,
    /// hoisted out of the per-arrival path (the quantile is fixed for a
    /// run, so recomputing the logarithm per event buys nothing).
    iat_numerator: f64,
    /// First catalog function per language (`Language::index()`):
    /// anchors downgraded containers without scanning the catalog.
    anchor_by_lang: [Option<FunctionId>; 3],
    /// Fallback anchor for containers with neither owner nor language.
    first_function: Option<FunctionId>,
}

impl RainbowCake {
    /// Creates the policy for the functions in `catalog`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `alpha` is outside `(0, 1)`, the
    /// quantile is outside `[0, 1)`, or the window is zero.
    pub fn new(catalog: &Catalog, config: RainbowConfig) -> Result<Self, ConfigError> {
        let cost = CostModel::new(config.alpha)?;
        if !(0.0..1.0).contains(&config.quantile) {
            return Err(ConfigError::new(format!(
                "quantile must be in [0, 1), got {}",
                config.quantile
            )));
        }
        let recorder = HistoryRecorder::new(catalog, config.window)?;
        let mut anchor_by_lang = [None; 3];
        for p in catalog.iter() {
            let slot = &mut anchor_by_lang[p.language.index()];
            if slot.is_none() {
                *slot = Some(p.id);
            }
        }
        Ok(RainbowCake {
            iat_numerator: -(1.0 - config.quantile).ln(),
            config,
            cost,
            recorder,
            anchor_by_lang,
            first_function: catalog.iter().next().map(|p| p.id),
        })
    }

    /// Convenience constructor with the paper's default settings.
    ///
    /// # Errors
    ///
    /// Never fails for a valid catalog; kept fallible for uniformity.
    pub fn with_defaults(catalog: &Catalog) -> Result<Self, ConfigError> {
        RainbowCake::new(catalog, RainbowConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &RainbowConfig {
        &self.config
    }

    /// Read access to the history recorder (useful for inspection in
    /// tests and reports).
    pub fn recorder(&self) -> &HistoryRecorder {
        &self.recorder
    }

    /// Eq. 5/6: the β idle-time bound for a container of `f` at `layer`,
    /// from observed averages when available, falling back to the static
    /// profile. Takes the already-fetched profile so the idle/timeout
    /// paths resolve `f` in the catalog exactly once.
    fn beta(&self, profile: &FunctionProfile, f: FunctionId, layer: Layer) -> Micros {
        let t = self
            .recorder
            .avg_startup(f, layer)
            .unwrap_or_else(|| profile.stages.install(layer));
        let m = self
            .recorder
            .avg_memory(f, layer)
            .unwrap_or_else(|| profile.memory_at(layer));
        self.cost.beta(t, m)
    }

    /// Eq. 7: the keep-alive TTL for a container of `f` sitting at
    /// `layer`. A `Lang` or `Bare` IAT is read from `shared`, which one
    /// pass over the sharing history fills on first use, so the lower
    /// rungs of a ladder share it.
    fn ttl(
        &mut self,
        profile: &FunctionProfile,
        f: FunctionId,
        layer: Layer,
        now: Instant,
        shared: &mut Option<SharingIats>,
    ) -> Micros {
        if self.config.variant == RainbowVariant::NoSharing {
            return no_sharing_ttl(layer);
        }
        let iat = match layer {
            Layer::User => {
                iat_with_numerator(self.recorder.function_rate(f, now), self.iat_numerator)
            }
            Layer::Lang | Layer::Bare => {
                let iats = *shared.get_or_insert_with(|| {
                    self.recorder
                        .sharing_iats(profile.language, now, self.iat_numerator)
                });
                if layer == Layer::Lang {
                    iats.language
                } else {
                    iats.global
                }
            }
        };
        iat.min(self.beta(profile, f, layer))
    }

    /// The function whose profile drives a container's cost estimates:
    /// its owner if specialized, otherwise the heaviest plausible sharer
    /// is approximated by the container's creator via `packed`/language.
    /// Served from the per-language table built at construction.
    fn anchor_function(&self, c: &ContainerView) -> FunctionId {
        if let Some(owner) = c.owner {
            return owner;
        }
        // Downgraded containers keep no owner; anchor on any function of
        // the same language (they share runtime install costs), else on
        // function 0.
        if let Some(f) = c
            .language
            .and_then(|lang| self.anchor_by_lang[lang.index()])
        {
            return f;
        }
        self.first_function.unwrap_or(FunctionId::new(0))
    }
}

impl Policy for RainbowCake {
    fn name(&self) -> &'static str {
        match self.config.variant {
            RainbowVariant::Full => "RainbowCake",
            RainbowVariant::NoSharing => "RainbowCake-NoSharing",
            RainbowVariant::NoLayers => "RainbowCake-NoLayers",
        }
    }

    fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        self.recorder.record_arrival(f, ctx.now);
        // Alg. 1: schedule a pre-warm check one predicted IAT from now
        // (Eq. 4 with its logarithm numerator precomputed — this runs
        // once per arrival).
        let iat = iat_with_numerator(self.recorder.function_rate(f, ctx.now), self.iat_numerator);
        if iat == Micros::MAX {
            // No fitted rate yet: nothing to schedule.
            return ArrivalResponse::none();
        }
        ArrivalResponse::prewarm(f, iat, Layer::User)
    }

    fn reuse_class(
        &self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        c: &ContainerView,
    ) -> Option<ReuseClass> {
        match c.layer {
            Layer::User if c.owner == Some(f) => Some(ReuseClass::WarmUser),
            Layer::User => None,
            Layer::Lang => {
                if matches!(self.config.variant, RainbowVariant::NoLayers) {
                    return None;
                }
                (c.language == Some(ctx.profile(f).language)).then_some(ReuseClass::SharedLang)
            }
            Layer::Bare => {
                if matches!(self.config.variant, RainbowVariant::NoLayers) {
                    return None;
                }
                Some(ReuseClass::SharedBare)
            }
        }
    }

    /// Scope declaration matching [`Self::reuse_class`] exactly: owner
    /// containers grant `WarmUser`, and (outside the `NoLayers`
    /// ablation) Lang-layer same-language containers grant `SharedLang`
    /// and Bare-layer containers grant `SharedBare`. Lets the platform
    /// serve arrivals from its layer indices instead of scanning every
    /// idle container through the virtual call.
    fn reuse_scope(&self) -> ReuseScope {
        let layered = !matches!(self.config.variant, RainbowVariant::NoLayers);
        ReuseScope::Layered {
            user: ReuseClass::WarmUser,
            lang: layered,
            bare: layered,
        }
    }

    fn history_stats(&self) -> Option<HistoryStats> {
        Some(self.recorder.stats())
    }

    fn on_idle(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
        let f = self.anchor_function(c);
        let profile = ctx.profile(f);
        // Feed the Eq. 5 windows with what we actually observed.
        self.recorder
            .record_observation(f, c.layer, profile.stages.install(c.layer), c.memory);
        self.ttl(profile, f, c.layer, ctx.now, &mut None)
    }

    /// The whole §4 keep-alive ladder in one shot, computed the moment
    /// the container goes idle: rung 0 is the current layer's Eq. 7 TTL,
    /// each further rung the next layer down (`NoLayers` stops at one
    /// rung, mirroring its terminate-at-`User` timeout).
    ///
    /// Each rung is anchored exactly as the eager chain's `on_timeout`
    /// would have anchored the downgraded view: the owner while the
    /// layer keeps one, then the per-language anchor (`Lang` keeps its
    /// language), then the first catalog function (`Bare` keeps
    /// nothing). Under `NoSharing`'s fixed TTLs the ladder is identical
    /// to the eager chain; under `Full`, lower rungs sample the sharing
    /// history at the idle instant instead of at each (future) downgrade
    /// instant — the one-timer design fixes the whole schedule up front.
    ///
    /// Replaces `on_idle` for platforms that take the ladder path, so it
    /// performs the same Eq. 5 window observation itself.
    fn ttl_ladder(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Option<TtlLadder> {
        let f0 = self.anchor_function(c);
        let profile0 = ctx.profile(f0);
        self.recorder
            .record_observation(f0, c.layer, profile0.stages.install(c.layer), c.memory);
        let mut ttls = [Micros::MAX; 3];
        let mut rungs = 0u8;
        let mut layer = c.layer;
        let mut shared = None;
        loop {
            let f = if layer == c.layer {
                f0
            } else if layer == Layer::Lang {
                c.language
                    .and_then(|lang| self.anchor_by_lang[lang.index()])
                    .or(self.first_function)
                    .unwrap_or(FunctionId::new(0))
            } else {
                self.first_function.unwrap_or(FunctionId::new(0))
            };
            let profile = if f == f0 { profile0 } else { ctx.profile(f) };
            ttls[rungs as usize] = self.ttl(profile, f, layer, ctx.now, &mut shared);
            rungs += 1;
            if matches!(self.config.variant, RainbowVariant::NoLayers) {
                break;
            }
            match layer.downgrade() {
                Some(next) => layer = next,
                None => break,
            }
        }
        Some(TtlLadder { ttls, rungs })
    }

    fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
        if matches!(self.config.variant, RainbowVariant::NoLayers) {
            return TimeoutDecision::Terminate;
        }
        match c.layer.downgrade() {
            None => TimeoutDecision::Terminate, // Bare containers die (Alg. 2 line 10).
            Some(next) => {
                let f = self.anchor_function(c);
                TimeoutDecision::Downgrade {
                    ttl: self.ttl(ctx.profile(f), f, next, ctx.now, &mut None),
                }
            }
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
    use crate::mem::MemMb;
    use crate::profile::FunctionProfile;
    use crate::time::Instant;
    use crate::types::Language;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for lang in [Language::Python, Language::Python, Language::Java] {
            c.push(FunctionProfile::synthetic(FunctionId::new(0), lang));
        }
        c
    }

    fn view(layer: Layer, owner: Option<FunctionId>, lang: Option<Language>) -> ContainerView {
        ContainerView {
            id: ContainerId::new(1),
            layer,
            language: lang,
            owner,
            packed: Vec::new(),
            memory: MemMb::new(150),
            idle_since: Instant::ZERO,
            created_at: Instant::ZERO,
            hits: 1,
        }
    }

    fn ctx(c: &Catalog, now_s: u64) -> PolicyCtx<'_> {
        PolicyCtx {
            now: Instant::from_micros(now_s * 1_000_000),
            catalog: c,
        }
    }

    fn train(p: &mut RainbowCake, c: &Catalog, f: FunctionId, period_s: u64, count: usize) {
        for i in 0..count {
            let t = ctx(c, period_s * i as u64);
            p.on_arrival(&t, f);
        }
    }

    #[test]
    fn config_validation() {
        let c = catalog();
        let bad_alpha = RainbowConfig {
            alpha: 1.5,
            ..RainbowConfig::default()
        };
        assert!(RainbowCake::new(&c, bad_alpha).is_err());
        let bad_q = RainbowConfig {
            quantile: 1.0,
            ..RainbowConfig::default()
        };
        assert!(RainbowCake::new(&c, bad_q).is_err());
        let bad_w = RainbowConfig {
            window: 0,
            ..RainbowConfig::default()
        };
        assert!(RainbowCake::new(&c, bad_w).is_err());
    }

    #[test]
    fn first_arrival_schedules_nothing() {
        let c = catalog();
        let mut p = RainbowCake::with_defaults(&c).unwrap();
        let resp = p.on_arrival(&ctx(&c, 0), FunctionId::new(0));
        assert!(resp.prewarm.is_none());
    }

    #[test]
    fn trained_arrival_schedules_prewarm_at_iat() {
        let c = catalog();
        let mut p = RainbowCake::with_defaults(&c).unwrap();
        let f = FunctionId::new(0);
        train(&mut p, &c, f, 10, 6);
        let resp = p.on_arrival(&ctx(&c, 60), f);
        let req = resp.prewarm.expect("prewarm scheduled");
        assert_eq!(req.function, f);
        assert_eq!(req.target, Layer::User);
        // lambda ~ 7/60 after this arrival; IAT(0.8) ≈ 13.8 s.
        assert!(req.delay > Micros::from_secs(5) && req.delay < Micros::from_secs(30));
    }

    #[test]
    fn reuse_classes_respect_layers_and_language() {
        let c = catalog();
        let p = RainbowCake::with_defaults(&c).unwrap();
        let f0 = FunctionId::new(0); // Python
        let f2 = FunctionId::new(2); // Java
        let cx = ctx(&c, 0);
        // Own User container: warm.
        assert_eq!(
            p.reuse_class(
                &cx,
                f0,
                &view(Layer::User, Some(f0), Some(Language::Python))
            ),
            Some(ReuseClass::WarmUser)
        );
        // Someone else's User container: not reusable.
        assert_eq!(
            p.reuse_class(
                &cx,
                f2,
                &view(Layer::User, Some(f0), Some(Language::Python))
            ),
            None
        );
        // Lang container, same language: shared.
        assert_eq!(
            p.reuse_class(&cx, f0, &view(Layer::Lang, None, Some(Language::Python))),
            Some(ReuseClass::SharedLang)
        );
        // Lang container, other language: no.
        assert_eq!(
            p.reuse_class(&cx, f2, &view(Layer::Lang, None, Some(Language::Python))),
            None
        );
        // Bare container: anyone.
        assert_eq!(
            p.reuse_class(&cx, f2, &view(Layer::Bare, None, None)),
            Some(ReuseClass::SharedBare)
        );
    }

    #[test]
    fn no_layers_variant_disables_sharing() {
        let c = catalog();
        let cfg = RainbowConfig {
            variant: RainbowVariant::NoLayers,
            ..RainbowConfig::default()
        };
        let p = RainbowCake::new(&c, cfg).unwrap();
        let f0 = FunctionId::new(0);
        let cx = ctx(&c, 0);
        assert_eq!(
            p.reuse_class(&cx, f0, &view(Layer::Lang, None, Some(Language::Python))),
            None
        );
        assert_eq!(p.reuse_class(&cx, f0, &view(Layer::Bare, None, None)), None);
    }

    #[test]
    fn ttl_is_bounded_by_beta_without_history() {
        let c = catalog();
        let mut p = RainbowCake::with_defaults(&c).unwrap();
        // No arrivals at all: IAT = MAX, so TTL = beta (finite).
        let cx = ctx(&c, 0);
        let v = view(
            Layer::User,
            Some(FunctionId::new(0)),
            Some(Language::Python),
        );
        let ttl = p.on_idle(&cx, &v);
        assert!(ttl < Micros::MAX);
        assert!(ttl > Micros::ZERO);
    }

    #[test]
    fn ttl_tracks_arrival_rate() {
        let c = catalog();
        let mut fast = RainbowCake::with_defaults(&c).unwrap();
        let mut slow = RainbowCake::with_defaults(&c).unwrap();
        let f = FunctionId::new(0);
        train(&mut fast, &c, f, 1, 6); // 1 s period
        train(&mut slow, &c, f, 120, 6); // 2 min period
        let v = view(Layer::User, Some(f), Some(Language::Python));
        let ttl_fast = fast.on_idle(&ctx(&c, 10), &v);
        let ttl_slow = slow.on_idle(&ctx(&c, 700), &v);
        // Faster arrivals need shorter keep-alive to catch the next hit.
        assert!(ttl_fast < ttl_slow);
    }

    #[test]
    fn timeout_downgrades_then_terminates() {
        let c = catalog();
        let mut p = RainbowCake::with_defaults(&c).unwrap();
        let cx = ctx(&c, 0);
        let f = FunctionId::new(0);
        let user = view(Layer::User, Some(f), Some(Language::Python));
        match p.on_timeout(&cx, &user) {
            TimeoutDecision::Downgrade { ttl } => assert!(ttl > Micros::ZERO),
            other => panic!("expected downgrade, got {other:?}"),
        }
        let bare = view(Layer::Bare, None, None);
        assert_eq!(p.on_timeout(&cx, &bare), TimeoutDecision::Terminate);
    }

    #[test]
    fn no_layers_terminates_at_user() {
        let c = catalog();
        let cfg = RainbowConfig {
            variant: RainbowVariant::NoLayers,
            ..RainbowConfig::default()
        };
        let mut p = RainbowCake::new(&c, cfg).unwrap();
        let cx = ctx(&c, 0);
        let user = view(
            Layer::User,
            Some(FunctionId::new(0)),
            Some(Language::Python),
        );
        assert_eq!(p.on_timeout(&cx, &user), TimeoutDecision::Terminate);
    }

    #[test]
    fn no_sharing_uses_fixed_ttls() {
        let c = catalog();
        let cfg = RainbowConfig {
            variant: RainbowVariant::NoSharing,
            ..RainbowConfig::default()
        };
        let mut p = RainbowCake::new(&c, cfg).unwrap();
        let cx = ctx(&c, 0);
        let f = FunctionId::new(0);
        let user = view(Layer::User, Some(f), Some(Language::Python));
        assert_eq!(p.on_idle(&cx, &user), Micros::from_mins(5));
        match p.on_timeout(&cx, &user) {
            TimeoutDecision::Downgrade { ttl } => assert_eq!(ttl, Micros::from_mins(3)),
            other => panic!("expected downgrade, got {other:?}"),
        }
    }

    #[test]
    fn no_sharing_ladder_is_the_fixed_ttl_chain() {
        let c = catalog();
        let cfg = RainbowConfig {
            variant: RainbowVariant::NoSharing,
            ..RainbowConfig::default()
        };
        let mut p = RainbowCake::new(&c, cfg).unwrap();
        let cx = ctx(&c, 0);
        let f = FunctionId::new(0);
        let user = view(Layer::User, Some(f), Some(Language::Python));
        let ladder = p.ttl_ladder(&cx, &user).expect("rainbow always ladders");
        assert_eq!(ladder.rungs, 3);
        assert_eq!(
            ladder.ttls,
            [
                Micros::from_mins(5),
                Micros::from_mins(3),
                Micros::from_mins(2)
            ]
        );
        // From a Lang container only two rungs remain.
        let lang = view(Layer::Lang, None, Some(Language::Python));
        let ladder = p.ttl_ladder(&cx, &lang).unwrap();
        assert_eq!(ladder.rungs, 2);
        assert_eq!(ladder.ttls[0], Micros::from_mins(3));
        assert_eq!(ladder.ttls[1], Micros::from_mins(2));
    }

    #[test]
    fn no_layers_ladder_has_one_rung() {
        let c = catalog();
        let cfg = RainbowConfig {
            variant: RainbowVariant::NoLayers,
            ..RainbowConfig::default()
        };
        let mut p = RainbowCake::new(&c, cfg).unwrap();
        let cx = ctx(&c, 0);
        let user = view(
            Layer::User,
            Some(FunctionId::new(0)),
            Some(Language::Python),
        );
        let ladder = p.ttl_ladder(&cx, &user).unwrap();
        assert_eq!(ladder.rungs, 1);
        assert!(ladder.ttls[0] < Micros::MAX);
    }

    #[test]
    fn full_ladder_rung_zero_matches_on_idle() {
        // The ladder's first rung must be exactly what the classic
        // protocol's `on_idle` returns, including the Eq. 5 observation
        // side effect (two identically-trained instances agree).
        let c = catalog();
        let mut laddered = RainbowCake::with_defaults(&c).unwrap();
        let mut classic = RainbowCake::with_defaults(&c).unwrap();
        let f = FunctionId::new(0);
        train(&mut laddered, &c, f, 10, 6);
        train(&mut classic, &c, f, 10, 6);
        let cx = ctx(&c, 70);
        let user = view(Layer::User, Some(f), Some(Language::Python));
        let ladder = laddered.ttl_ladder(&cx, &user).unwrap();
        assert_eq!(ladder.rungs, 3);
        assert_eq!(ladder.ttls[0], classic.on_idle(&cx, &user));
        // Lower rungs sample the anchor the eager chain would have used
        // for the downgraded views (language anchor, then function 0).
        assert!(ladder.ttls[1] > Micros::ZERO);
        assert!(ladder.ttls[2] > Micros::ZERO);
    }

    #[test]
    fn variant_names() {
        let c = catalog();
        assert_eq!(
            RainbowCake::with_defaults(&c).unwrap().name(),
            "RainbowCake"
        );
        let ns = RainbowCake::new(
            &c,
            RainbowConfig {
                variant: RainbowVariant::NoSharing,
                ..RainbowConfig::default()
            },
        )
        .unwrap();
        assert_eq!(ns.name(), "RainbowCake-NoSharing");
        let nl = RainbowCake::new(
            &c,
            RainbowConfig {
                variant: RainbowVariant::NoLayers,
                ..RainbowConfig::default()
            },
        )
        .unwrap();
        assert_eq!(nl.name(), "RainbowCake-NoLayers");
    }

    #[test]
    fn reuse_scope_matches_reuse_class_gates() {
        let c = catalog();
        let full = RainbowCake::with_defaults(&c).unwrap();
        assert_eq!(
            full.reuse_scope(),
            ReuseScope::Layered {
                user: ReuseClass::WarmUser,
                lang: true,
                bare: true,
            }
        );
        let ns = RainbowCake::new(
            &c,
            RainbowConfig {
                variant: RainbowVariant::NoSharing,
                ..RainbowConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            ns.reuse_scope(),
            ReuseScope::Layered {
                user: ReuseClass::WarmUser,
                lang: true,
                bare: true,
            }
        );
        let nl = RainbowCake::new(
            &c,
            RainbowConfig {
                variant: RainbowVariant::NoLayers,
                ..RainbowConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            nl.reuse_scope(),
            ReuseScope::Layered {
                user: ReuseClass::WarmUser,
                lang: false,
                bare: false,
            }
        );
    }

    #[test]
    fn anchor_table_matches_catalog_scan() {
        let c = catalog();
        let p = RainbowCake::with_defaults(&c).unwrap();
        // Owner wins outright.
        let owned = view(Layer::User, Some(FunctionId::new(2)), Some(Language::Java));
        assert_eq!(p.anchor_function(&owned), FunctionId::new(2));
        // Downgraded: first catalog function of the same language.
        for (lang, want) in [(Language::Python, 0), (Language::Java, 2)] {
            let v = view(Layer::Lang, None, Some(lang));
            let scanned = c.iter().find(|f| f.language == lang).unwrap().id;
            assert_eq!(p.anchor_function(&v), scanned);
            assert_eq!(p.anchor_function(&v), FunctionId::new(want));
        }
        // No language at all (Bare): first catalog function.
        let bare = view(Layer::Bare, None, None);
        assert_eq!(p.anchor_function(&bare), FunctionId::new(0));
        // A language absent from the catalog also falls back to fn 0.
        let orphan = view(Layer::Lang, None, Some(Language::NodeJs));
        assert_eq!(p.anchor_function(&orphan), FunctionId::new(0));
    }
}
