//! Function cost profiles and the catalog of deployed functions.
//!
//! A [`FunctionProfile`] captures everything a caching policy or the
//! simulator needs to know about one function: its language, the latency
//! of installing each container layer (§2.1's three cold-start stages),
//! the inter-transition overheads (Fig. 14), the memory footprint at each
//! layer, and a model of its execution time.

use crate::mem::MemMb;
use crate::time::Micros;
use crate::types::{Domain, FunctionId, Language, Layer};

/// Per-stage startup latencies for one function.
///
/// These correspond to the three cold-start stages of §2.1: environment
/// setup (`bare`), language runtime initialization (`lang`), and user
/// deployment package loading (`user`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLatencies {
    /// Stage #1: environment setup (container proxy, network, logs).
    pub bare: Micros,
    /// Stage #2: language runtime initialization.
    pub lang: Micros,
    /// Stage #3: user deployment package loading.
    pub user: Micros,
}

impl StageLatencies {
    /// Latency of installing exactly the given layer.
    pub fn install(&self, layer: Layer) -> Micros {
        match layer {
            Layer::Bare => self.bare,
            Layer::Lang => self.lang,
            Layer::User => self.user,
        }
    }

    /// Sum of all three install latencies (cold start without the
    /// transition overheads).
    pub fn total(&self) -> Micros {
        self.bare + self.lang + self.user
    }
}

/// Inter-transition overheads measured in Fig. 13/14: Bare→Lang (`b_l`),
/// Lang→User (`l_u`), and User→Run (`u_run`, paid even on a full warm
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionOverheads {
    /// Bare-to-Lang hand-off.
    pub b_l: Micros,
    /// Lang-to-User hand-off.
    pub l_u: Micros,
    /// User-to-running hand-off (HTTP run request dispatch).
    pub u_run: Micros,
}

impl TransitionOverheads {
    /// Total overhead along a full cold path.
    pub fn total(&self) -> Micros {
        self.b_l + self.l_u + self.u_run
    }
}

/// Memory footprint of an idle container at each layer (Fig. 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerFootprints {
    /// Idle Bare container.
    pub bare: MemMb,
    /// Idle Lang container (runtime loaded).
    pub lang: MemMb,
    /// Idle User container (full deployment package loaded).
    pub user: MemMb,
}

impl LayerFootprints {
    /// Footprint of an idle container holding `layer`.
    pub fn at(&self, layer: Layer) -> MemMb {
        match layer {
            Layer::Bare => self.bare,
            Layer::Lang => self.lang,
            Layer::User => self.user,
        }
    }
}

/// A simple execution-time model: a mean duration plus a coefficient of
/// variation used by the simulator's lognormal jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecModel {
    /// Mean execution time.
    pub mean: Micros,
    /// Coefficient of variation of execution time (0 disables jitter).
    pub cv: f64,
}

impl ExecModel {
    /// A deterministic execution model (no jitter).
    pub fn fixed(mean: Micros) -> Self {
        ExecModel { mean, cv: 0.0 }
    }
}

/// Full cost profile of one deployed serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Stable identifier; equals the function's index in its [`Catalog`].
    pub id: FunctionId,
    /// Short name, e.g. `"IR-Py"`.
    pub name: String,
    /// Language runtime.
    pub language: Language,
    /// Application domain (Table 1).
    pub domain: Domain,
    /// Per-stage install latencies.
    pub stages: StageLatencies,
    /// Inter-transition overheads.
    pub transitions: TransitionOverheads,
    /// Idle memory footprint per layer.
    pub footprints: LayerFootprints,
    /// Execution-time model.
    pub exec: ExecModel,
}

impl FunctionProfile {
    /// Startup latency when starting from an idle container already
    /// initialized to `from`, including all remaining install stages and
    /// transition overheads. `None` means a fully cold start.
    ///
    /// ```
    /// # use rainbowcake_core::profile::*;
    /// # use rainbowcake_core::types::*;
    /// # use rainbowcake_core::time::Micros;
    /// # use rainbowcake_core::mem::MemMb;
    /// let p = FunctionProfile::synthetic(FunctionId::new(0), Language::Python);
    /// // A warm User container only pays the User->Run hand-off.
    /// assert_eq!(p.startup_from(Some(Layer::User)), p.transitions.u_run);
    /// // Colder layers pay strictly more.
    /// assert!(p.startup_from(None) > p.startup_from(Some(Layer::Bare)));
    /// ```
    pub fn startup_from(&self, from: Option<Layer>) -> Micros {
        let t = &self.transitions;
        let s = &self.stages;
        match from {
            Some(Layer::User) => t.u_run,
            Some(Layer::Lang) => t.l_u + s.user + t.u_run,
            Some(Layer::Bare) => t.b_l + s.lang + t.l_u + s.user + t.u_run,
            None => s.bare + t.b_l + s.lang + t.l_u + s.user + t.u_run,
        }
    }

    /// Full cold-start latency (all stages plus all transitions).
    pub fn cold_startup(&self) -> Micros {
        self.startup_from(None)
    }

    /// Memory footprint of an idle container of this function at `layer`.
    pub fn memory_at(&self, layer: Layer) -> MemMb {
        self.footprints.at(layer)
    }

    /// A plausible synthetic profile, mainly for tests and doc examples.
    pub fn synthetic(id: FunctionId, language: Language) -> Self {
        let (lang_ms, lang_mb) = match language {
            Language::NodeJs => (550, 55),
            Language::Python => (700, 70),
            Language::Java => (1600, 130),
        };
        FunctionProfile {
            id,
            name: format!("SYN{}-{}", id.index(), language.suffix()),
            language,
            domain: Domain::WebApp,
            stages: StageLatencies {
                bare: Micros::from_millis(120),
                lang: Micros::from_millis(lang_ms),
                user: Micros::from_millis(400),
            },
            transitions: TransitionOverheads {
                b_l: Micros::from_millis(8),
                l_u: Micros::from_millis(10),
                u_run: Micros::from_millis(12),
            },
            footprints: LayerFootprints {
                bare: MemMb::new(8),
                lang: MemMb::new(lang_mb),
                user: MemMb::new(lang_mb + 120),
            },
            exec: ExecModel {
                mean: Micros::from_millis(900),
                cv: 0.2,
            },
        }
    }
}

/// An ordered collection of function profiles, indexed by [`FunctionId`].
///
/// Function ids must be dense: profile `i` must have id `i`. The catalog
/// also answers sharing-set queries (which functions share a language),
/// which the sharing-aware recorder (§5.1) relies on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    profiles: Vec<FunctionProfile>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Builds a catalog from profiles.
    ///
    /// # Panics
    ///
    /// Panics if the profiles' ids are not exactly `0..n` in order.
    pub fn from_profiles(profiles: Vec<FunctionProfile>) -> Self {
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(
                p.id.index(),
                i,
                "catalog requires dense ids; profile {} has id {}",
                i,
                p.id
            );
        }
        Catalog { profiles }
    }

    /// Appends a profile, assigning it the next dense id, and returns
    /// that id.
    pub fn push(&mut self, mut profile: FunctionProfile) -> FunctionId {
        let id = FunctionId::new(self.profiles.len() as u32);
        profile.id = id;
        self.profiles.push(profile);
        id
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the catalog.
    pub fn profile(&self, id: FunctionId) -> &FunctionProfile {
        &self.profiles[id.index()]
    }

    /// The profile for `id`, if present.
    pub fn get(&self, id: FunctionId) -> Option<&FunctionProfile> {
        self.profiles.get(id.index())
    }

    /// Iterates over all profiles in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, FunctionProfile> {
        self.profiles.iter()
    }

    /// Ids of all functions using `language` (the Lang-layer sharing set).
    pub fn language_group(&self, language: Language) -> Vec<FunctionId> {
        self.profiles
            .iter()
            .filter(|p| p.language == language)
            .map(|p| p.id)
            .collect()
    }

    /// All function ids (the Bare-layer sharing set).
    pub fn all_ids(&self) -> Vec<FunctionId> {
        self.profiles.iter().map(|p| p.id).collect()
    }

    /// Looks a function up by its short name.
    pub fn by_name(&self, name: &str) -> Option<&FunctionProfile> {
        self.profiles.iter().find(|p| p.name == name)
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a FunctionProfile;
    type IntoIter = std::slice::Iter<'a, FunctionProfile>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn push_assigns_dense_ids_ignoring_the_profiles_own() {
        // `push` owns id assignment: whatever id the caller minted on
        // the profile is overwritten with the insertion index, so test
        // fixtures that pass a placeholder id can't end up with stored
        // profiles disagreeing with their catalog slot.
        let mut c = Catalog::new();
        for (i, bogus) in [999u32, 0, 42].into_iter().enumerate() {
            let id = c.push(FunctionProfile::synthetic(
                FunctionId::new(bogus),
                Language::Python,
            ));
            assert_eq!(id, FunctionId::new(i as u32));
            assert_eq!(c.profile(id).id, id);
        }
    }

    #[test]
    fn startup_monotone_in_layer_depth() {
        let p = FunctionProfile::synthetic(FunctionId::new(0), Language::Java);
        let cold = p.startup_from(None);
        let bare = p.startup_from(Some(Layer::Bare));
        let lang = p.startup_from(Some(Layer::Lang));
        let user = p.startup_from(Some(Layer::User));
        assert!(cold > bare && bare > lang && lang > user);
        assert_eq!(user, p.transitions.u_run);
    }

    #[test]
    fn cold_equals_all_stages_plus_transitions() {
        let p = FunctionProfile::synthetic(FunctionId::new(0), Language::NodeJs);
        assert_eq!(p.cold_startup(), p.stages.total() + p.transitions.total());
    }

    #[test]
    fn catalog_assigns_dense_ids() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        for (i, p) in c.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
    }

    #[test]
    fn language_groups() {
        let c = catalog();
        assert_eq!(c.language_group(Language::Python).len(), 2);
        assert_eq!(c.language_group(Language::Java).len(), 1);
        assert_eq!(c.language_group(Language::NodeJs).len(), 0);
        assert_eq!(c.all_ids().len(), 3);
    }

    #[test]
    fn memory_grows_with_depth() {
        let p = FunctionProfile::synthetic(FunctionId::new(0), Language::Java);
        assert!(p.memory_at(Layer::Bare) < p.memory_at(Layer::Lang));
        assert!(p.memory_at(Layer::Lang) < p.memory_at(Layer::User));
    }

    #[test]
    #[should_panic(expected = "dense ids")]
    fn from_profiles_rejects_sparse_ids() {
        let p = FunctionProfile::synthetic(FunctionId::new(5), Language::Python);
        let _ = Catalog::from_profiles(vec![p]);
    }
}
