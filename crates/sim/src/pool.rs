//! The worker's container pool: deterministic container storage with
//! exact memory accounting and hot-path lookup indices.
//!
//! Containers live in a **slab**: a flat `Vec` of slots plus a free
//! list, addressed by generational [`ContainerId`]s (slot in the low
//! bits, creation sequence in the high bits). Every `get`/`get_mut`/
//! `resize` is index math with a generation check instead of an
//! ordered-map walk, which matters because the engine touches the pool
//! on every single event. Because the creation sequence occupies the
//! id's most-significant bits, id order *is* creation order, so the
//! `live` id set iterates exactly like the old `BTreeMap`-backed pool
//! did, and every id-ordered enumeration walks it.
//!
//! The slab is split **struct-of-arrays** (DESIGN.md §9): the fields the
//! per-event hot paths read — lifecycle tag, owner, layer, language,
//! memory, idle timestamps, hit count — are mirrored into parallel
//! dense arrays keyed by slot (`Hot`), while cold state (the layer
//! stack machine, packed sets, assigned invocations) stays in the
//! [`Container`] slab. Victim scans, idle-view rebuilds, and expiry
//! checks touch only the contiguous hot arrays; the slab is consulted
//! only for the rare container with a non-empty packed set.
//!
//! Besides the primary slab, the pool maintains a set of secondary
//! indices (idle `User` containers per owner, idle containers per
//! installed language at the `Lang` layer and at the `Bare` layer,
//! idle `User` containers per packed function, attachable in-flight
//! initializations per function, and an initializing count) so the
//! engine's per-arrival work — reuse-candidate collection, availability
//! checks, the Fig. 13 contention model — never scans the whole pool.
//! The per-owner, per-layer and attachable indices are doubly linked
//! lists threaded through one slot-indexed link array: a warm start
//! takes a container off its list and its completion puts it back, each
//! in O(1), with no heap object per function. The lists are unordered;
//! readers that pick one container compare keys explicitly, and
//! id-ordered readers (idle views, `ReuseScope::All`, end-of-run
//! accounting) walk `live` filtered by the hot state tag. The indices
//! are kept in lockstep with container state: every mutable container
//! access goes through the [`ContainerMut`] guard, which re-derives the
//! container's index entries and hot-array mirror when it is dropped.

use std::ops::{Deref, DerefMut};

use rainbowcake_core::lifecycle::LifecycleState;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::ContainerView;
use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{ContainerId, FunctionId, Language, Layer};

use crate::container::Container;

/// Hot-array lifecycle tags.
const STATE_EMPTY: u8 = 0;
const STATE_INITIALIZING: u8 = 1;
const STATE_IDLE: u8 = 2;
const STATE_RUNNING: u8 = 3;
const STATE_TERMINATED: u8 = 4;

/// Hot-array sentinel for "no layer" (terminated) and "no language".
const TAG_NONE: u8 = 3;
/// Hot-array sentinel for "no owner".
const NO_OWNER: u32 = u32::MAX;

/// The struct-of-arrays mirror of the slab's hot fields, keyed by pool
/// slot. Each array holds the value for the slot's *current* occupant
/// (`seq` names its generation); empty slots carry [`STATE_EMPTY`].
///
/// Invariant: after every pool mutation — insert, remove, resize, or a
/// [`ContainerMut`] guard drop — each live container's hot entries
/// equal the values derived from its slab state. The proptest
/// `soa_hot_arrays_stay_coherent` exercises this via
/// [`Pool::assert_hot_coherent`].
#[derive(Debug, Default)]
struct Hot {
    /// Lifecycle tag (`STATE_*`).
    state: Vec<u8>,
    /// Occupant's creation sequence (generation check without touching
    /// the slab).
    seq: Vec<u32>,
    /// Owning function of an idle `User` container, else [`NO_OWNER`].
    owner: Vec<u32>,
    /// Installed/target layer (`Layer as u8`), [`TAG_NONE`] if none.
    layer: Vec<u8>,
    /// Installed language ([`Language::index`]), [`TAG_NONE`] if none.
    lang: Vec<u8>,
    /// Memory footprint in MB.
    mem_mb: Vec<u64>,
    /// Start of the current idle interval, in microseconds.
    idle_since: Vec<u64>,
    /// Creation time, in microseconds.
    created: Vec<u64>,
    /// Completed executions.
    hits: Vec<u32>,
    /// Whether the occupant's packed set is non-empty (only then does a
    /// view rebuild touch the slab).
    has_packed: Vec<bool>,
}

fn layer_tag(layer: Option<Layer>) -> u8 {
    match layer {
        Some(l) => l as u8,
        None => TAG_NONE,
    }
}

fn lang_tag(lang: Option<Language>) -> u8 {
    match lang {
        Some(l) => l.index() as u8,
        None => TAG_NONE,
    }
}

impl Hot {
    fn ensure(&mut self, slot: usize) {
        if slot >= self.state.len() {
            let n = slot + 1;
            self.state.resize(n, STATE_EMPTY);
            self.seq.resize(n, 0);
            self.owner.resize(n, NO_OWNER);
            self.layer.resize(n, TAG_NONE);
            self.lang.resize(n, TAG_NONE);
            self.mem_mb.resize(n, 0);
            self.idle_since.resize(n, 0);
            self.created.resize(n, 0);
            self.hits.resize(n, 0);
            self.has_packed.resize(n, false);
        }
    }

    /// Mirrors every hot field of `c` into the arrays (unconditional:
    /// ten dense stores are cheaper than diffing).
    fn record(&mut self, c: &Container) {
        let slot = c.id.slot();
        self.ensure(slot);
        self.state[slot] = match c.state {
            LifecycleState::Initializing { .. } => STATE_INITIALIZING,
            LifecycleState::Idle { .. } => STATE_IDLE,
            LifecycleState::Running { .. } => STATE_RUNNING,
            LifecycleState::Terminated => STATE_TERMINATED,
        };
        self.seq[slot] = c.id.seq();
        self.owner[slot] = match c.owner() {
            Some(f) => f.index() as u32,
            None => NO_OWNER,
        };
        self.layer[slot] = layer_tag(c.layer());
        self.lang[slot] = lang_tag(c.language());
        self.mem_mb[slot] = c.memory.as_mb();
        self.idle_since[slot] = c.idle_since.as_micros();
        self.created[slot] = c.created_at.as_micros();
        self.hits[slot] = c.hits;
        self.has_packed[slot] = !c.packed.is_empty();
    }

    fn clear(&mut self, slot: usize) {
        self.state[slot] = STATE_EMPTY;
        self.owner[slot] = NO_OWNER;
        self.layer[slot] = TAG_NONE;
        self.lang[slot] = TAG_NONE;
        self.has_packed[slot] = false;
    }
}

/// A sorted vector of container ids (creation order, because id order
/// *is* creation order). Inserts append when ids arrive in order — the
/// common case, since fresh containers always carry the largest id —
/// and fall back to a binary-search shift otherwise. It backs only the
/// `live` set and the packed index; neither changes on the idle↔busy
/// round trip.
#[derive(Debug, Default, Clone)]
struct IdSet(Vec<ContainerId>);

impl IdSet {
    #[inline]
    fn insert(&mut self, id: ContainerId) {
        match self.0.last() {
            Some(&last) if last < id => self.0.push(id),
            None => self.0.push(id),
            _ => {
                if let Err(pos) = self.0.binary_search(&id) {
                    self.0.insert(pos, id);
                }
            }
        }
    }

    #[inline]
    fn remove(&mut self, id: ContainerId) {
        if let Ok(pos) = self.0.binary_search(&id) {
            self.0.remove(pos);
        }
    }

    fn iter(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.0.iter().copied()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn contains(&self, id: ContainerId) -> bool {
        self.0.binary_search(&id).is_ok()
    }
}

/// A dense per-function table, grown on demand (function ids are small
/// catalog indices).
#[derive(Debug, Default)]
struct FnTable<T>(Vec<T>);

impl<T: Default> FnTable<T> {
    fn entry(&mut self, f: FunctionId) -> &mut T {
        let i = f.index();
        if i >= self.0.len() {
            self.0.resize_with(i + 1, T::default);
        }
        &mut self.0[i]
    }

    fn get(&self, f: FunctionId) -> Option<&T> {
        self.0.get(f.index())
    }
}

/// End-of-list marker for list heads and slot links.
const NIL: u32 = u32::MAX;

/// The slot-linked index list a container is on, derived from its
/// state. A container is on at most one: idle and initializing are
/// exclusive states, and an idle container's layer names one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    /// Idle at the `User` layer, owned by the function.
    User(FunctionId),
    /// Idle at exactly the `Lang` layer with this language — the
    /// partial-warm candidates layer-aware policies serve `SharedLang`
    /// grants from.
    Lang(Language),
    /// Idle at exactly the `Bare` layer (`SharedBare` candidates).
    Bare,
    /// An attachable in-flight `User`-target initialization for the
    /// function (the `Load` path).
    Attachable(FunctionId),
}

/// The index-relevant facets of one container, derived from its state.
///
/// A container is linked into each secondary index according to this
/// key; comparing the key before and after a mutation tells the guard
/// which indices to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexKey {
    /// Idle (reusable) right now.
    idle: bool,
    /// The slot-linked list the container is on, if any.
    list: Option<List>,
    /// In the `Initializing` lifecycle state (drives the contention
    /// model's concurrency count).
    initializing: bool,
}

impl IndexKey {
    fn of(c: &Container) -> IndexKey {
        let idle = c.is_idle();
        let layer = c.layer();
        let list = if idle {
            match layer {
                Some(Layer::User) => c.owner().map(List::User),
                Some(Layer::Lang) => c.language().map(List::Lang),
                Some(Layer::Bare) => Some(List::Bare),
                None => None,
            }
        } else if c.is_attachable_init() && layer == Some(Layer::User) {
            c.init_for.map(List::Attachable)
        } else {
            None
        };
        IndexKey {
            idle,
            list,
            initializing: matches!(c.state, LifecycleState::Initializing { .. }),
        }
    }
}

/// A slot's neighbours on the list it is on. Meaningful only while the
/// slot's container is on a list.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The head of `f`'s list in a per-function head table, growing the
/// table on demand.
fn fn_head(heads: &mut Vec<u32>, f: FunctionId) -> &mut u32 {
    let i = f.index();
    if i >= heads.len() {
        heads.resize(i + 1, NIL);
    }
    &mut heads[i]
}

/// The secondary indices, maintained in lockstep with the slab.
///
/// The hot lists — idle `User` containers per owner, idle `Lang`-layer
/// containers per language, idle `Bare`-layer containers, attachable
/// initializations per function — are doubly linked lists threaded
/// through one slot-indexed [`Link`] array, so linking and unlinking a
/// container is O(1) and no list owns a heap object. List order carries
/// no meaning: readers that pick a winner compare keys explicitly, and
/// id-ordered enumerations walk the pool's `live` set instead.
#[derive(Debug)]
struct PoolIndex {
    /// List links, indexed by pool slot.
    links: Vec<Link>,
    /// Heads of the idle `User` lists, per owning function.
    idle_user_heads: Vec<u32>,
    /// Heads of the idle `Lang`-layer lists, per language.
    idle_lang_heads: [u32; 3],
    /// Head of the idle `Bare`-layer list.
    idle_bare_head: u32,
    /// Heads of the attachable-initialization lists, per function.
    attachable_heads: Vec<u32>,
    /// Idle `User` containers per packed function, in id order. Together
    /// with the idle `User` lists this covers every container the
    /// default owned-or-packed reuse rule can match, so arrivals under
    /// that rule never need to scan the whole idle set.
    idle_packed_by_fn: FnTable<IdSet>,
    /// Containers currently in the `Initializing` state.
    initializing: usize,
}

impl Default for PoolIndex {
    fn default() -> Self {
        PoolIndex {
            links: Vec::new(),
            idle_user_heads: Vec::new(),
            idle_lang_heads: [NIL; 3],
            idle_bare_head: NIL,
            attachable_heads: Vec::new(),
            idle_packed_by_fn: FnTable::default(),
            initializing: 0,
        }
    }
}

/// The functions a container contributes to the idle-packed index: its
/// packed set iff it is idle at the `User` layer — the only state in
/// which the default `SharedPacked` reuse grant can apply.
fn indexed_packed<'c>(key: &IndexKey, c: &'c Container) -> &'c [FunctionId] {
    if key.idle && c.layer() == Some(Layer::User) {
        &c.packed
    } else {
        &[]
    }
}

impl PoolIndex {
    /// The first slot on `list`, or [`NIL`].
    fn head(&self, list: List) -> u32 {
        match list {
            List::User(f) => self.idle_user_heads.get(f.index()).copied().unwrap_or(NIL),
            List::Lang(lang) => self.idle_lang_heads[lang.index()],
            List::Bare => self.idle_bare_head,
            List::Attachable(f) => self.attachable_heads.get(f.index()).copied().unwrap_or(NIL),
        }
    }

    fn head_mut(&mut self, list: List) -> &mut u32 {
        match list {
            List::User(f) => fn_head(&mut self.idle_user_heads, f),
            List::Lang(lang) => &mut self.idle_lang_heads[lang.index()],
            List::Bare => &mut self.idle_bare_head,
            List::Attachable(f) => fn_head(&mut self.attachable_heads, f),
        }
    }

    /// Links `slot` in at the front of `list`.
    fn push_front(&mut self, list: List, slot: u32) {
        let s = slot as usize;
        if s >= self.links.len() {
            self.links.resize(
                s + 1,
                Link {
                    prev: NIL,
                    next: NIL,
                },
            );
        }
        let next = std::mem::replace(self.head_mut(list), slot);
        self.links[s] = Link { prev: NIL, next };
        if next != NIL {
            self.links[next as usize].prev = slot;
        }
    }

    /// Unlinks `slot` from `list`, which it is on.
    fn remove_from(&mut self, list: List, slot: u32) {
        let Link { prev, next } = self.links[slot as usize];
        match prev {
            NIL => *self.head_mut(list) = next,
            p => self.links[p as usize].next = next,
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
    }

    fn link(&mut self, id: ContainerId, key: &IndexKey, packed: &[FunctionId]) {
        if let Some(list) = key.list {
            self.push_front(list, id.slot() as u32);
        }
        for &f in packed {
            self.idle_packed_by_fn.entry(f).insert(id);
        }
        if key.initializing {
            self.initializing += 1;
        }
    }

    fn unlink(&mut self, id: ContainerId, key: &IndexKey, packed: &[FunctionId]) {
        if let Some(list) = key.list {
            self.remove_from(list, id.slot() as u32);
        }
        for &f in packed {
            self.idle_packed_by_fn.entry(f).remove(id);
        }
        if key.initializing {
            self.initializing -= 1;
        }
    }
}

/// The ids on one slot-linked list, in list order (which carries no
/// meaning).
struct ListIds<'p> {
    links: &'p [Link],
    seq: &'p [u32],
    slot: u32,
}

impl Iterator for ListIds<'_> {
    type Item = ContainerId;

    #[inline]
    fn next(&mut self) -> Option<ContainerId> {
        if self.slot == NIL {
            return None;
        }
        let slot = self.slot;
        self.slot = self.links[slot as usize].next;
        Some(ContainerId::from_parts(self.seq[slot as usize], slot))
    }
}

/// Exclusive access to one container that re-derives the pool's indices
/// and hot-array mirror for it on drop, keeping them in lockstep with
/// any state change.
#[derive(Debug)]
pub struct ContainerMut<'p> {
    container: &'p mut Container,
    index: &'p mut PoolIndex,
    hot: &'p mut Hot,
    old_key: IndexKey,
    /// The container's packed-index contribution at guard creation.
    /// Empty in every state but an idle `User` container with a packed
    /// set, so the clone is allocation-free on the hot path.
    old_packed: Vec<FunctionId>,
}

impl Deref for ContainerMut<'_> {
    type Target = Container;
    fn deref(&self) -> &Container {
        self.container
    }
}

impl DerefMut for ContainerMut<'_> {
    fn deref_mut(&mut self) -> &mut Container {
        self.container
    }
}

impl Drop for ContainerMut<'_> {
    fn drop(&mut self) {
        let new_key = IndexKey::of(self.container);
        let new_packed = indexed_packed(&new_key, self.container);
        if new_key != self.old_key || self.old_packed != new_packed {
            self.index
                .unlink(self.container.id, &self.old_key, &self.old_packed);
            self.index.link(self.container.id, &new_key, new_packed);
        }
        // Unconditionally re-mirror the hot arrays: any field the guard
        // exposed may have changed.
        self.hot.record(self.container);
    }
}

/// The container pool of one worker node.
///
/// Containers are stored in a slab indexed by the slot half of their
/// generational id; the `live` id set preserves creation-ordered
/// iteration, so every enumeration (and therefore every simulation) is
/// deterministic.
#[derive(Debug)]
pub struct Pool {
    capacity: MemMb,
    used: MemMb,
    /// Slab storage (cold fields), indexed by `ContainerId::slot`.
    slots: Vec<Option<Container>>,
    /// Struct-of-arrays mirror of the hot fields, same indexing.
    hot: Hot,
    /// Vacated slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Ids of live containers, in creation order.
    live: IdSet,
    /// Next creation sequence number.
    next_seq: u32,
    /// Lowest never-used slot.
    next_slot: u32,
    index: PoolIndex,
}

impl Pool {
    /// Creates an empty pool with the given memory budget.
    pub fn new(capacity: MemMb) -> Self {
        Pool {
            capacity,
            used: MemMb::ZERO,
            slots: Vec::new(),
            hot: Hot::default(),
            free: Vec::new(),
            live: IdSet::default(),
            next_seq: 0,
            next_slot: 0,
            index: PoolIndex::default(),
        }
    }

    /// The memory budget.
    pub fn capacity(&self) -> MemMb {
        self.capacity
    }

    /// Memory currently allocated to containers.
    pub fn used(&self) -> MemMb {
        self.used
    }

    /// Memory still free.
    pub fn free(&self) -> MemMb {
        self.capacity - self.used
    }

    /// Allocates the next container id, reserving a slot for it (a
    /// vacated slot if one exists, a fresh one otherwise).
    pub fn next_id(&mut self) -> ContainerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        ContainerId::from_parts(seq, slot)
    }

    /// Shared access to the container in `slot`, which the caller has
    /// proven occupied (e.g. via a secondary index).
    fn by_slot(&self, id: ContainerId) -> &Container {
        let c = self.slots[id.slot()].as_ref().expect("indexed slot empty");
        debug_assert_eq!(c.id, id, "index points at a stale generation");
        c
    }

    /// Inserts a container, charging its memory.
    ///
    /// # Panics
    ///
    /// Panics if the container does not fit (callers must reserve
    /// memory first) or its slot is already occupied.
    pub fn insert(&mut self, container: Container) {
        assert!(
            container.memory + self.used <= self.capacity,
            "pool overcommitted: inserting {} with {} used of {}",
            container.memory,
            self.used,
            self.capacity
        );
        let id = container.id;
        let slot = id.slot();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        assert!(self.slots[slot].is_none(), "duplicate container id");
        self.used += container.memory;
        // Externally constructed ids (tests build them directly) must
        // not collide with ids the pool hands out later.
        self.next_slot = self.next_slot.max(slot as u32 + 1);
        self.next_seq = self.next_seq.max(id.seq() + 1);
        let key = IndexKey::of(&container);
        self.index.link(id, &key, indexed_packed(&key, &container));
        self.hot.record(&container);
        self.slots[slot] = Some(container);
        self.live.insert(id);
    }

    /// Removes a container, releasing its memory and recycling its
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn remove(&mut self, id: ContainerId) -> Container {
        let slot = id.slot();
        match self.slots.get_mut(slot) {
            Some(entry) if entry.as_ref().is_some_and(|c| c.id == id) => {
                let c = entry.take().expect("checked occupied");
                self.free.push(slot as u32);
                self.live.remove(id);
                let key = IndexKey::of(&c);
                self.index.unlink(id, &key, indexed_packed(&key, &c));
                self.hot.clear(slot);
                self.used -= c.memory;
                c
            }
            _ => panic!("unknown container"),
        }
    }

    /// Shared access to a container.
    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.slots.get(id.slot())?.as_ref().filter(|c| c.id == id)
    }

    /// Exclusive access to a container; the returned guard re-indexes
    /// the container (and refreshes its hot-array mirror) when dropped.
    pub fn get_mut(&mut self, id: ContainerId) -> Option<ContainerMut<'_>> {
        let Pool {
            slots, index, hot, ..
        } = self;
        let container = slots.get_mut(id.slot())?.as_mut()?;
        if container.id != id {
            return None;
        }
        let old_key = IndexKey::of(container);
        let old_packed = indexed_packed(&old_key, container).to_vec();
        Some(ContainerMut {
            container,
            index,
            hot,
            old_key,
            old_packed,
        })
    }

    /// Changes a container's memory footprint, keeping the pool total
    /// exact. Memory is not indexed, so no re-indexing is needed.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the new total would exceed the
    /// budget.
    pub fn resize(&mut self, id: ContainerId, new_memory: MemMb) {
        let c = self
            .slots
            .get_mut(id.slot())
            .and_then(|s| s.as_mut())
            .filter(|c| c.id == id)
            .expect("unknown container");
        if c.memory == new_memory {
            return;
        }
        let new_used = self.used - c.memory + new_memory;
        assert!(
            new_used <= self.capacity,
            "pool overcommitted by resize to {new_memory}"
        );
        self.used = new_used;
        c.memory = new_memory;
        self.hot.mem_mb[id.slot()] = new_memory.as_mb();
    }

    /// Whether `extra` more memory fits right now.
    pub fn fits(&self, extra: MemMb) -> bool {
        self.used + extra <= self.capacity
    }

    /// Number of live containers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the pool has no containers.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterates over containers in id (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &Container> {
        self.live.0.iter().map(|&id| self.by_slot(id))
    }

    /// Iterates over idle containers in id order: the `live` set,
    /// filtered by the hot state tag.
    pub fn idle_containers(&self) -> impl Iterator<Item = &Container> {
        self.idle_ids().map(|id| self.by_slot(id))
    }

    /// Ids of all idle containers, in id order: the `live` set, filtered
    /// by the hot state tag.
    pub fn idle_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.live
            .iter()
            .filter(|id| self.hot.state[id.slot()] == STATE_IDLE)
    }

    /// The ids on one index list, in list order.
    fn list_ids(&self, list: List) -> ListIds<'_> {
        ListIds {
            links: &self.index.links,
            seq: &self.hot.seq,
            slot: self.index.head(list),
        }
    }

    /// Ids of idle `User` containers owned by `f`, in no particular
    /// order (index-backed).
    pub fn idle_user_ids(&self, f: FunctionId) -> impl Iterator<Item = ContainerId> + '_ {
        self.list_ids(List::User(f))
    }

    /// Ids of idle `User` containers whose packed set includes `f`, in
    /// id order (index-backed). Overlaps `idle_user_ids(f)` only for a
    /// container both owned by and packed with `f`; callers visiting
    /// both must tolerate the repeat.
    pub fn idle_packed_ids(&self, f: FunctionId) -> impl Iterator<Item = ContainerId> + '_ {
        self.index
            .idle_packed_by_fn
            .get(f)
            .into_iter()
            .flat_map(|set| set.iter())
    }

    /// Ids of idle containers at exactly the `Lang` layer for
    /// `language`, in no particular order (index-backed): the
    /// `SharedLang` candidates of layer-aware reuse scopes.
    pub fn idle_lang_layer_ids(
        &self,
        language: Language,
    ) -> impl Iterator<Item = ContainerId> + '_ {
        self.list_ids(List::Lang(language))
    }

    /// Ids of idle containers at exactly the `Bare` layer, in no
    /// particular order (index-backed): the `SharedBare` candidates.
    pub fn idle_bare_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.list_ids(List::Bare)
    }

    /// The idle-interval start of a live container, read from the hot
    /// arrays (no slab access).
    pub fn idle_since_of(&self, id: ContainerId) -> Instant {
        let slot = id.slot();
        debug_assert_eq!(self.hot.seq[slot], id.seq(), "stale id");
        Instant::from_micros(self.hot.idle_since[slot])
    }

    /// The owner of a live idle `User` container (None for every other
    /// state), read from the hot arrays.
    pub fn owner_of(&self, id: ContainerId) -> Option<FunctionId> {
        let slot = id.slot();
        debug_assert_eq!(self.hot.seq[slot], id.seq(), "stale id");
        match self.hot.owner[slot] {
            NO_OWNER => None,
            raw => Some(FunctionId::new(raw)),
        }
    }

    /// The policy-facing view of a live container, built from the hot
    /// arrays (the slab is touched only for a non-empty packed set).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the id is stale.
    pub fn view_of(&self, id: ContainerId) -> ContainerView {
        self.view_from_hot(id)
    }

    /// Views of all idle containers, optionally excluding one id, in id
    /// order.
    pub fn idle_views(&self, exclude: Option<ContainerId>) -> Vec<ContainerView> {
        let mut out = Vec::new();
        self.idle_views_into(exclude, &mut out);
        out
    }

    /// Builds the policy-facing view of a live container from the hot
    /// arrays; the slab is touched only for a non-empty packed set.
    fn view_from_hot(&self, id: ContainerId) -> ContainerView {
        let slot = id.slot();
        debug_assert_eq!(self.hot.seq[slot], id.seq(), "stale id");
        ContainerView {
            id,
            layer: match self.hot.layer[slot] {
                0 => Layer::Bare,
                1 => Layer::Lang,
                2 => Layer::User,
                _ => unreachable!("live container has a layer"),
            },
            language: match self.hot.lang[slot] {
                TAG_NONE => None,
                i => Some(Language::ALL[i as usize]),
            },
            owner: match self.hot.owner[slot] {
                NO_OWNER => None,
                raw => Some(FunctionId::new(raw)),
            },
            packed: if self.hot.has_packed[slot] {
                self.by_slot(id).packed.clone()
            } else {
                Vec::new()
            },
            memory: MemMb::new(self.hot.mem_mb[slot]),
            idle_since: Instant::from_micros(self.hot.idle_since[slot]),
            created_at: Instant::from_micros(self.hot.created[slot]),
            hits: self.hot.hits[slot],
        }
    }

    /// Fills `out` with views of all idle containers, optionally
    /// excluding one id, in id order. Clears `out` first; the buffer's
    /// capacity is reused across calls. The views are built from the
    /// hot arrays.
    pub fn idle_views_into(&self, exclude: Option<ContainerId>, out: &mut Vec<ContainerView>) {
        out.clear();
        out.extend(
            self.idle_ids()
                .filter(|&id| Some(id) != exclude)
                .map(|id| self.view_from_hot(id)),
        );
    }

    /// Whether an idle `User` container owned by `f` exists (Alg. 1's
    /// availability check). Index-backed: one dense-table lookup.
    pub fn has_idle_user(&self, f: FunctionId) -> bool {
        self.index.head(List::User(f)) != NIL
    }

    /// Number of containers currently initializing (drives the Fig. 13
    /// contention model). Index-backed: O(1).
    pub fn initializing_count(&self) -> usize {
        self.index.initializing
    }

    /// The attachable in-flight initialization for `f` that completes
    /// earliest, if any (the `Load` reuse path), ties broken by lowest
    /// id. Index-backed: a walk of `f`'s attachable list.
    pub fn earliest_attachable_init(&self, f: FunctionId) -> Option<&Container> {
        self.list_ids(List::Attachable(f))
            .map(|id| self.by_slot(id))
            .min_by_key(|c| (c.init_done_at, c.id))
    }

    /// Asserts that the hot arrays and every secondary index agree with
    /// the slab:
    ///
    /// * every hot-array entry matches the value derived from its slab
    ///   container, and vacated slots are tagged empty;
    /// * `live` holds exactly the occupied slots, in id order;
    /// * every container whose `IndexKey` names a list — each idle
    ///   container with a layer list, each attachable initialization —
    ///   is on exactly that list, the lists' `prev`/`next` links are
    ///   mutual, and no list holds a vacant or busy slot;
    /// * the packed index and the initializing count match the slab.
    ///
    /// The SoA coherence proptest calls this after every operation, and
    /// debug builds of the engine call it every 4,096 ticks.
    ///
    /// # Panics
    ///
    /// Panics on any divergence between the indices and slab state.
    pub fn assert_hot_coherent(&self) {
        self.assert_slots_coherent();
        let occupied = self.slots.iter().flatten().count();
        assert_eq!(self.live.len(), occupied, "live set size");
        assert!(
            self.live.0.windows(2).all(|w| w[0] < w[1]),
            "live set out of id order"
        );
        assert!(
            self.live.iter().all(|id| self.get(id).is_some()),
            "live set names a vacant slot"
        );
        let mut on_lists = self.assert_list_coherent(List::Bare);
        for lang in Language::ALL {
            on_lists += self.assert_list_coherent(List::Lang(lang));
        }
        for f in (0..self.index.idle_user_heads.len()).map(|i| FunctionId::new(i as u32)) {
            on_lists += self.assert_list_coherent(List::User(f));
        }
        for f in (0..self.index.attachable_heads.len()).map(|i| FunctionId::new(i as u32)) {
            on_lists += self.assert_list_coherent(List::Attachable(f));
        }
        let mut listed = 0;
        let mut initializing = 0;
        for c in self.slots.iter().flatten() {
            let key = IndexKey::of(c);
            listed += usize::from(key.list.is_some());
            initializing += usize::from(key.initializing);
            for &f in indexed_packed(&key, c) {
                assert!(
                    self.index
                        .idle_packed_by_fn
                        .get(f)
                        .is_some_and(|set| set.contains(c.id)),
                    "{} missing from the packed index of {f}",
                    c.id
                );
            }
        }
        assert_eq!(on_lists, listed, "containers missing from their lists");
        assert_eq!(self.index.initializing, initializing, "initializing count");
        for (i, set) in self.index.idle_packed_by_fn.0.iter().enumerate() {
            let f = FunctionId::new(i as u32);
            for id in set.iter() {
                let c = self.get(id).expect("packed index names a live container");
                assert!(
                    indexed_packed(&IndexKey::of(c), c).contains(&f),
                    "{id} is in the packed index of {f} without packing it"
                );
            }
        }
    }

    /// Walks `list` from its head, asserting that each member is live
    /// and keyed to this list and that the links are mutual. Returns the
    /// list's length.
    fn assert_list_coherent(&self, list: List) -> usize {
        let mut prev = NIL;
        let mut slot = self.index.head(list);
        let mut len = 0;
        while slot != NIL {
            len += 1;
            assert!(len <= self.slots.len(), "{list:?} list has a cycle");
            let c = self.slots[slot as usize]
                .as_ref()
                .unwrap_or_else(|| panic!("{list:?} list holds vacant slot {slot}"));
            assert_eq!(
                IndexKey::of(c).list,
                Some(list),
                "{} is on the {list:?} list",
                c.id
            );
            let link = self.index.links[slot as usize];
            assert_eq!(
                link.prev, prev,
                "{list:?} links at slot {slot} are not mutual"
            );
            prev = slot;
            slot = link.next;
        }
        len
    }

    /// The per-slot half of [`Self::assert_hot_coherent`]: hot arrays
    /// against slab state.
    fn assert_slots_coherent(&self) {
        for (slot, entry) in self.slots.iter().enumerate() {
            match entry {
                None => {
                    assert_eq!(
                        self.hot.state[slot], STATE_EMPTY,
                        "vacant slot {slot} not tagged empty"
                    );
                }
                Some(c) => {
                    let expect_state = match c.state {
                        LifecycleState::Initializing { .. } => STATE_INITIALIZING,
                        LifecycleState::Idle { .. } => STATE_IDLE,
                        LifecycleState::Running { .. } => STATE_RUNNING,
                        LifecycleState::Terminated => STATE_TERMINATED,
                    };
                    assert_eq!(self.hot.state[slot], expect_state, "state of {}", c.id);
                    assert_eq!(self.hot.seq[slot], c.id.seq(), "seq of {}", c.id);
                    let expect_owner = match c.owner() {
                        Some(f) => f.index() as u32,
                        None => NO_OWNER,
                    };
                    assert_eq!(self.hot.owner[slot], expect_owner, "owner of {}", c.id);
                    assert_eq!(
                        self.hot.layer[slot],
                        layer_tag(c.layer()),
                        "layer of {}",
                        c.id
                    );
                    assert_eq!(
                        self.hot.lang[slot],
                        lang_tag(c.language()),
                        "lang of {}",
                        c.id
                    );
                    assert_eq!(self.hot.mem_mb[slot], c.memory.as_mb(), "mem of {}", c.id);
                    assert_eq!(
                        self.hot.idle_since[slot],
                        c.idle_since.as_micros(),
                        "idle_since of {}",
                        c.id
                    );
                    assert_eq!(
                        self.hot.created[slot],
                        c.created_at.as_micros(),
                        "created of {}",
                        c.id
                    );
                    assert_eq!(self.hot.hits[slot], c.hits, "hits of {}", c.id);
                    assert_eq!(
                        self.hot.has_packed[slot],
                        !c.packed.is_empty(),
                        "has_packed of {}",
                        c.id
                    );
                    if c.is_idle() {
                        assert_eq!(
                            self.view_from_hot(c.id),
                            c.view(),
                            "hot-built view of {}",
                            c.id
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbowcake_core::lifecycle::LifecycleEvent;
    use rainbowcake_core::time::Instant;
    use rainbowcake_core::types::Language;

    fn container(id: u64, mem: u64) -> Container {
        Container::new_initializing(
            ContainerId::new(id),
            Instant::ZERO,
            Layer::User,
            FunctionId::new(0),
            Some(Language::Python),
            MemMb::new(mem),
            Instant::from_micros(1),
        )
    }

    fn idle_container(id: u64, mem: u64) -> Container {
        let mut c = container(id, mem);
        c.apply(LifecycleEvent::InitComplete {
            language: Some(Language::Python),
            owner: Some(FunctionId::new(0)),
        })
        .unwrap();
        c
    }

    #[test]
    fn memory_conservation() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(container(0, 300));
        p.insert(container(1, 200));
        assert_eq!(p.used(), MemMb::new(500));
        assert_eq!(p.free(), MemMb::new(500));
        p.resize(ContainerId::new(0), MemMb::new(100));
        assert_eq!(p.used(), MemMb::new(300));
        p.remove(ContainerId::new(1));
        assert_eq!(p.used(), MemMb::new(100));
        assert_eq!(p.len(), 1);
        p.assert_hot_coherent();
    }

    #[test]
    #[should_panic(expected = "overcommitted")]
    fn insert_rejects_overcommit() {
        let mut p = Pool::new(MemMb::new(100));
        p.insert(container(0, 200));
    }

    #[test]
    fn fits_checks_budget() {
        let mut p = Pool::new(MemMb::new(100));
        assert!(p.fits(MemMb::new(100)));
        p.insert(container(0, 60));
        assert!(p.fits(MemMb::new(40)));
        assert!(!p.fits(MemMb::new(41)));
    }

    #[test]
    fn idle_views_and_user_lookup() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(idle_container(0, 100)); // idle User of fn 0
        p.insert(container(1, 100)); // still initializing
        assert_eq!(p.idle_views(None).len(), 1);
        assert_eq!(p.idle_views(Some(ContainerId::new(0))).len(), 0);
        assert!(p.has_idle_user(FunctionId::new(0)));
        assert!(!p.has_idle_user(FunctionId::new(1)));
        assert_eq!(p.initializing_count(), 1);
    }

    #[test]
    fn earliest_attachable_init_picks_soonest() {
        let mut p = Pool::new(MemMb::new(1_000));
        let mut a = container(0, 100);
        a.init_done_at = Instant::from_micros(500);
        let mut b = container(1, 100);
        b.init_done_at = Instant::from_micros(200);
        p.insert(a);
        p.insert(b);
        let best = p.earliest_attachable_init(FunctionId::new(0)).unwrap();
        assert_eq!(best.id, ContainerId::new(1));
        // None for a function nobody is warming.
        assert!(p.earliest_attachable_init(FunctionId::new(9)).is_none());
        // A tie on completion goes to the lowest id, whichever of the two
        // the unordered list holds first.
        for order in [[2, 3], [3, 2]] {
            let mut p = Pool::new(MemMb::new(1_000));
            for raw in order {
                let mut c = container(raw, 100);
                c.init_done_at = Instant::from_micros(300);
                p.insert(c);
            }
            let best = p.earliest_attachable_init(FunctionId::new(0)).unwrap();
            assert_eq!(best.id, ContainerId::new(2));
        }
    }

    #[test]
    fn ids_are_monotone() {
        let mut p = Pool::new(MemMb::new(100));
        let a = p.next_id();
        let b = p.next_id();
        assert!(a < b);
    }

    #[test]
    fn slot_reuse_keeps_ids_fresh() {
        let mut p = Pool::new(MemMb::new(1_000));
        let a = p.next_id();
        p.insert(Container::new_initializing(
            a,
            Instant::ZERO,
            Layer::User,
            FunctionId::new(0),
            Some(Language::Python),
            MemMb::new(100),
            Instant::from_micros(1),
        ));
        p.remove(a);
        let b = p.next_id();
        // The slot is recycled but the id's generation advances, so the
        // stale id no longer resolves and ids stay creation-ordered.
        assert_eq!(b.slot(), a.slot());
        assert!(b > a);
        p.insert(Container::new_initializing(
            b,
            Instant::ZERO,
            Layer::User,
            FunctionId::new(0),
            Some(Language::Python),
            MemMb::new(100),
            Instant::from_micros(1),
        ));
        assert!(p.get(a).is_none());
        assert!(p.get_mut(a).is_none());
        assert!(p.get(b).is_some());
        assert_eq!(p.len(), 1);
        p.assert_hot_coherent();
    }

    #[test]
    fn guard_keeps_indices_in_lockstep() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(container(0, 100));
        assert_eq!(p.initializing_count(), 1);
        assert!(p.earliest_attachable_init(FunctionId::new(0)).is_some());
        assert!(!p.has_idle_user(FunctionId::new(0)));

        // Completing initialization through the guard moves the
        // container from the attachable/initializing indices to the idle
        // ones without any explicit re-index call.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::InitComplete {
                language: Some(Language::Python),
                owner: Some(FunctionId::new(0)),
            })
            .unwrap();
        }
        assert_eq!(p.initializing_count(), 0);
        assert!(p.earliest_attachable_init(FunctionId::new(0)).is_none());
        assert!(p.has_idle_user(FunctionId::new(0)));
        assert_eq!(p.idle_ids().collect::<Vec<_>>(), vec![ContainerId::new(0)]);
        assert_eq!(
            p.idle_user_ids(FunctionId::new(0)).collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        p.assert_hot_coherent();

        // Removal unlinks everywhere.
        p.remove(ContainerId::new(0));
        assert!(!p.has_idle_user(FunctionId::new(0)));
        assert_eq!(p.idle_ids().count(), 0);
        p.assert_hot_coherent();
    }

    #[test]
    fn packed_index_follows_repack_and_lifecycle() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(idle_container(0, 100));
        let (f1, f2) = (FunctionId::new(1), FunctionId::new(2));
        assert_eq!(p.idle_packed_ids(f1).count(), 0);

        // Packing through the guard links the container under every
        // packed function.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.packed = vec![f1, f2];
        }
        assert_eq!(
            p.idle_packed_ids(f1).collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        assert_eq!(p.idle_packed_ids(f2).count(), 1);
        p.assert_hot_coherent();

        // Shrinking the packed set unlinks just the dropped function.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.packed = vec![f2];
        }
        assert_eq!(p.idle_packed_ids(f1).count(), 0);
        assert_eq!(p.idle_packed_ids(f2).count(), 1);

        // A busy container is no packed-reuse candidate; going idle
        // again restores it (the packed set survives execution).
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::BeginExecution {
                function: FunctionId::new(0),
            })
            .unwrap();
        }
        assert_eq!(p.idle_packed_ids(f2).count(), 0);
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.finish_exec(Language::Python).unwrap();
        }
        assert_eq!(p.idle_packed_ids(f2).count(), 1);
        p.assert_hot_coherent();

        // Removal unlinks the packed entries with everything else.
        p.remove(ContainerId::new(0));
        assert_eq!(p.idle_packed_ids(f2).count(), 0);
    }

    #[test]
    fn idle_views_into_reuses_buffer() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(idle_container(0, 100));
        p.insert(idle_container(1, 100));
        let mut buf = Vec::new();
        p.idle_views_into(None, &mut buf);
        assert_eq!(buf.len(), 2);
        p.idle_views_into(Some(ContainerId::new(0)), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].id, ContainerId::new(1));
    }

    #[test]
    fn idle_views_into_shows_changes_immediately() {
        let mut p = Pool::new(MemMb::new(1_000));
        let mut buf = Vec::new();
        p.idle_views_into(None, &mut buf);
        assert!(buf.is_empty());
        p.insert(idle_container(0, 100));
        p.idle_views_into(None, &mut buf);
        assert_eq!(buf.len(), 1);
        // A resize of an idle container is visible at once.
        p.resize(ContainerId::new(0), MemMb::new(50));
        p.idle_views_into(None, &mut buf);
        assert_eq!(buf[0].memory, MemMb::new(50));
        // So is a guard mutation that leaves the index key unchanged
        // (packing an extra function).
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.packed.push(FunctionId::new(7));
        }
        p.idle_views_into(None, &mut buf);
        assert_eq!(buf[0].packed, vec![FunctionId::new(7)]);
        p.remove(ContainerId::new(0));
        p.idle_views_into(None, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn attachable_index_respects_assignment() {
        use crate::container::AssignedInvocation;
        use rainbowcake_metrics::StartType;

        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(container(0, 100));
        // Binding an invocation makes the init non-attachable.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.assigned = Some(AssignedInvocation {
                function: FunctionId::new(0),
                arrival: Instant::ZERO,
                admit: Instant::ZERO,
                startup: rainbowcake_core::time::Micros::ZERO,
                exec: rainbowcake_core::time::Micros::ZERO,
                start_type: StartType::Attached,
            });
        }
        assert!(p.earliest_attachable_init(FunctionId::new(0)).is_none());
        // Still initializing, though.
        assert_eq!(p.initializing_count(), 1);
    }

    #[test]
    fn layer_indices_track_downgrades() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(idle_container(0, 100)); // idle User, Python
        assert_eq!(p.idle_lang_layer_ids(Language::Python).count(), 0);
        assert_eq!(p.idle_bare_ids().count(), 0);

        // Downgrading User -> Lang moves the container into the
        // lang-layer index (and out of the per-owner one).
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::Downgrade).unwrap();
        }
        assert!(!p.has_idle_user(FunctionId::new(0)));
        assert_eq!(
            p.idle_lang_layer_ids(Language::Python).collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        assert_eq!(p.idle_bare_ids().count(), 0);
        p.assert_hot_coherent();

        // Lang -> Bare moves it into the bare index and out of the
        // lang-layer one.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::Downgrade).unwrap();
        }
        assert_eq!(p.idle_lang_layer_ids(Language::Python).count(), 0);
        assert_eq!(
            p.idle_bare_ids().collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        p.assert_hot_coherent();

        p.remove(ContainerId::new(0));
        assert_eq!(p.idle_bare_ids().count(), 0);
    }

    #[test]
    fn idle_since_reads_from_hot_arrays() {
        let mut p = Pool::new(MemMb::new(1_000));
        let mut c = idle_container(0, 100);
        c.idle_since = Instant::from_micros(42);
        p.insert(c);
        assert_eq!(
            p.idle_since_of(ContainerId::new(0)),
            Instant::from_micros(42)
        );
        {
            let mut g = p.get_mut(ContainerId::new(0)).unwrap();
            g.idle_since = Instant::from_micros(99);
        }
        assert_eq!(
            p.idle_since_of(ContainerId::new(0)),
            Instant::from_micros(99)
        );
    }

    #[test]
    fn out_of_order_inserts_keep_indices_sorted() {
        // Externally constructed ids arrive out of creation order; the
        // id-ordered enumeration must still iterate in id order, and the
        // unordered per-owner list must hold exactly the same ids.
        let mut p = Pool::new(MemMb::new(10_000));
        for raw in [
            ContainerId::from_parts(5, 0),
            ContainerId::from_parts(1, 1),
            ContainerId::from_parts(3, 2),
        ] {
            let mut c = Container::new_initializing(
                raw,
                Instant::ZERO,
                Layer::User,
                FunctionId::new(0),
                Some(Language::Python),
                MemMb::new(100),
                Instant::from_micros(1),
            );
            c.apply(LifecycleEvent::InitComplete {
                language: Some(Language::Python),
                owner: Some(FunctionId::new(0)),
            })
            .unwrap();
            p.insert(c);
        }
        let ids: Vec<u32> = p.idle_ids().map(|id| id.seq()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let mut owned: Vec<u32> = p
            .idle_user_ids(FunctionId::new(0))
            .map(|id| id.seq())
            .collect();
        owned.sort_unstable();
        assert_eq!(owned, vec![1, 3, 5]);
        p.assert_hot_coherent();
    }
}
