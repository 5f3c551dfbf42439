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
//! The slab entry is the only copy of a container's state (DESIGN.md
//! §9): per-container reads such as [`Pool::idle_since_of`] and
//! [`Pool::view_of`] go to it directly. Every list a container is on is
//! derived from its lifecycle state: an idle list from the idle layer,
//! language and owner, an attachable list from the initializing state's
//! function.
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
//! in O(1), with no heap object per function.
//!
//! The idle lists ([`IdleList`]) are kept in **idle-entry order**, most
//! recently idle first. A container is linked at its list's head, and
//! the engine stamps `idle_since` at every link with the current time or
//! a just-settled ladder boundary, never earlier than anything already
//! listed, so linking at the head keeps each list sorted. The warmest
//! container, the one a warm start reuses, is therefore read at the head
//! ([`Pool::warmest`]): only the head's run of equal `idle_since` is
//! compared, not the whole list. Id-ordered readers (idle views,
//! `ReuseScope::All`, end-of-run accounting) walk `live` filtered by
//! lifecycle state. The indices are kept in lockstep with container
//! state: every mutable container access goes through the
//! [`ContainerMut`] guard, which re-derives the container's index
//! entries when it is dropped, and re-links it at the head when its
//! `idle_since` was re-stamped.

use std::cmp::Reverse;
use std::ops::{Deref, DerefMut};

use rainbowcake_core::lifecycle::LifecycleState;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::ContainerView;
use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{ContainerId, FunctionId, Language, Layer};

use crate::container::Container;

/// A sorted vector of keys. Inserts append when keys arrive in order —
/// the common case: fresh containers carry the largest id, and
/// containers go idle at the latest `idle_since` — and fall back to a
/// binary-search shift otherwise. It backs the `live` set (keyed by id:
/// creation order, because id order *is* creation order) and the packed
/// index (keyed by [`PackedKey`]); neither changes on the idle↔busy
/// round trip.
#[derive(Debug, Clone)]
struct SortedSet<K>(Vec<K>);

impl<K> Default for SortedSet<K> {
    fn default() -> Self {
        SortedSet(Vec::new())
    }
}

impl<K: Ord + Copy> SortedSet<K> {
    #[inline]
    fn insert(&mut self, key: K) {
        match self.0.last() {
            Some(&last) if last < key => self.0.push(key),
            None => self.0.push(key),
            _ => {
                if let Err(pos) = self.0.binary_search(&key) {
                    self.0.insert(pos, key);
                }
            }
        }
    }

    #[inline]
    fn remove(&mut self, key: K) {
        if let Ok(pos) = self.0.binary_search(&key) {
            self.0.remove(pos);
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = K> + '_ {
        self.0.iter().copied()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn contains(&self, key: K) -> bool {
        self.0.binary_search(&key).is_ok()
    }

    fn is_strictly_sorted(&self) -> bool {
        self.0.windows(2).all(|w| w[0] < w[1])
    }
}

/// A packed-index entry's key: ascending keys run from the least
/// recently idle to the most recently idle container, the highest id
/// first among equal `idle_since`, so the index read from its end is
/// most recently idle first, lowest id first — the order `consider`
/// picks by.
type PackedKey = (Instant, Reverse<ContainerId>);

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

/// One of the pool's idle lists, each kept most recently idle first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleList {
    /// Idle at the `User` layer, owned by the function.
    User(FunctionId),
    /// Idle at exactly the `Lang` layer with this language — the
    /// partial-warm candidates layer-aware policies serve `SharedLang`
    /// grants from.
    Lang(Language),
    /// Idle at exactly the `Bare` layer (`SharedBare` candidates).
    Bare,
}

/// The slot-linked index list a container is on, derived from its
/// state. A container is on at most one: idle and initializing are
/// exclusive states, and an idle container's layer names one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    /// An idle list, in idle-entry order.
    Idle(IdleList),
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
        let list = match c.state {
            LifecycleState::Idle {
                layer,
                language,
                owner,
            } => match layer {
                Layer::User => owner.map(IdleList::User),
                Layer::Lang => language.map(IdleList::Lang),
                Layer::Bare => Some(IdleList::Bare),
            }
            .map(List::Idle),
            LifecycleState::Initializing {
                target: Layer::User,
                for_function,
                ..
            } if c.assigned.is_none() => Some(List::Attachable(for_function)),
            _ => None,
        };
        IndexKey {
            idle: c.is_idle(),
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
/// The lists — idle `User` containers per owner, idle `Lang`-layer
/// containers per language, idle `Bare`-layer containers, attachable
/// initializations per function — are doubly linked lists threaded
/// through one slot-indexed [`Link`] array, so linking and unlinking a
/// container is O(1) and no list owns a heap object. A container is
/// always linked at the head, so the idle lists stay in idle-entry
/// order (see the module docs); id-ordered enumerations walk the pool's
/// `live` set instead.
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
    /// Idle `User` containers per packed function, keyed by idle entry
    /// ([`PackedKey`]). Together with the idle `User` lists this covers
    /// every container the default owned-or-packed reuse rule can
    /// match, so arrivals under that rule never need to scan the whole
    /// idle set.
    idle_packed_by_fn: FnTable<SortedSet<PackedKey>>,
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
    if key.idle && c.layer() == Layer::User {
        &c.packed
    } else {
        &[]
    }
}

impl PoolIndex {
    /// The first slot on `list`, or [`NIL`].
    fn head(&self, list: List) -> u32 {
        match list {
            List::Idle(IdleList::User(f)) => {
                self.idle_user_heads.get(f.index()).copied().unwrap_or(NIL)
            }
            List::Idle(IdleList::Lang(lang)) => self.idle_lang_heads[lang.index()],
            List::Idle(IdleList::Bare) => self.idle_bare_head,
            List::Attachable(f) => self.attachable_heads.get(f.index()).copied().unwrap_or(NIL),
        }
    }

    fn head_mut(&mut self, list: List) -> &mut u32 {
        match list {
            List::Idle(IdleList::User(f)) => fn_head(&mut self.idle_user_heads, f),
            List::Idle(IdleList::Lang(lang)) => &mut self.idle_lang_heads[lang.index()],
            List::Idle(IdleList::Bare) => &mut self.idle_bare_head,
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

    fn link(&mut self, id: ContainerId, key: &IndexKey, packed: &[FunctionId], since: Instant) {
        if let Some(list) = key.list {
            self.push_front(list, id.slot() as u32);
        }
        for &f in packed {
            self.idle_packed_by_fn.entry(f).insert((since, Reverse(id)));
        }
        if key.initializing {
            self.initializing += 1;
        }
    }

    fn unlink(&mut self, id: ContainerId, key: &IndexKey, packed: &[FunctionId], since: Instant) {
        if let Some(list) = key.list {
            self.remove_from(list, id.slot() as u32);
        }
        for &f in packed {
            self.idle_packed_by_fn.entry(f).remove((since, Reverse(id)));
        }
        if key.initializing {
            self.initializing -= 1;
        }
    }
}

/// The ids on one slot-linked list, in list order (most recently idle
/// first, on an idle list).
struct ListIds<'p> {
    links: &'p [Link],
    slots: &'p [Option<Container>],
    slot: u32,
}

impl Iterator for ListIds<'_> {
    type Item = ContainerId;

    #[inline]
    fn next(&mut self) -> Option<ContainerId> {
        if self.slot == NIL {
            return None;
        }
        let slot = self.slot as usize;
        self.slot = self.links[slot].next;
        Some(self.slots[slot].as_ref().expect("listed slot empty").id)
    }
}

/// Exclusive access to one container that re-derives the pool's indices
/// for it on drop, keeping them in lockstep with any state change.
#[derive(Debug)]
pub struct ContainerMut<'p> {
    container: &'p mut Container,
    index: &'p mut PoolIndex,
    old_key: IndexKey,
    /// The container's packed-index contribution at guard creation.
    /// Empty in every state but an idle `User` container with a packed
    /// set, so the clone is allocation-free on the hot path.
    old_packed: Vec<FunctionId>,
    /// `idle_since` at guard creation: a listed or packed-indexed
    /// container re-stamped in place moves to its list's head and to
    /// its packed entries' new positions.
    old_idle_since: Instant,
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
        let since = self.container.idle_since;
        let restamped =
            (new_key.list.is_some() || !new_packed.is_empty()) && since != self.old_idle_since;
        if new_key != self.old_key || self.old_packed != new_packed || restamped {
            let id = self.container.id;
            self.index
                .unlink(id, &self.old_key, &self.old_packed, self.old_idle_since);
            self.index.link(id, &new_key, new_packed, since);
        }
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
    /// Slab storage, indexed by `ContainerId::slot`.
    slots: Vec<Option<Container>>,
    /// Vacated slots available for reuse (LIFO).
    free: Vec<u32>,
    /// Ids of live containers, in creation order.
    live: SortedSet<ContainerId>,
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
            free: Vec::new(),
            live: SortedSet::default(),
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
        let since = container.idle_since;
        self.index
            .link(id, &key, indexed_packed(&key, &container), since);
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
                self.index
                    .unlink(id, &key, indexed_packed(&key, &c), c.idle_since);
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
    /// the container when dropped.
    pub fn get_mut(&mut self, id: ContainerId) -> Option<ContainerMut<'_>> {
        let Pool { slots, index, .. } = self;
        let container = slots.get_mut(id.slot())?.as_mut()?;
        if container.id != id {
            return None;
        }
        let old_key = IndexKey::of(container);
        let old_packed = indexed_packed(&old_key, container).to_vec();
        let old_idle_since = container.idle_since;
        Some(ContainerMut {
            container,
            index,
            old_key,
            old_packed,
            old_idle_since,
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
        let new_used = self.used - c.memory + new_memory;
        assert!(
            new_used <= self.capacity,
            "pool overcommitted by resize to {new_memory}"
        );
        self.used = new_used;
        c.memory = new_memory;
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
    /// filtered by lifecycle state.
    pub fn idle_containers(&self) -> impl Iterator<Item = &Container> {
        self.iter().filter(|c| c.is_idle())
    }

    /// Ids of all idle containers, in id order.
    pub fn idle_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.idle_containers().map(|c| c.id)
    }

    /// The ids on one index list, in list order.
    fn list_ids(&self, list: List) -> ListIds<'_> {
        ListIds {
            links: &self.index.links,
            slots: &self.slots,
            slot: self.index.head(list),
        }
    }

    /// Ids on one idle list, most recently idle first (index-backed).
    pub fn idle_list_ids(&self, list: IdleList) -> impl Iterator<Item = ContainerId> + '_ {
        self.list_ids(List::Idle(list))
    }

    /// The most recently idle container on `list`, ties broken by the
    /// lowest id, and how many entries that took: the head's run of
    /// equal `idle_since`. The list is in idle-entry order, so nothing
    /// past that run can win; the one further entry read, to see the
    /// run end, is not counted.
    pub fn warmest(&self, list: IdleList) -> Option<(&Container, usize)> {
        let links = &self.index.links;
        let mut slot = self.index.head(List::Idle(list));
        if slot == NIL {
            return None;
        }
        let mut best = self.slots[slot as usize]
            .as_ref()
            .expect("listed slot empty");
        let since = best.idle_since;
        let mut run = 1;
        loop {
            slot = links[slot as usize].next;
            if slot == NIL {
                break;
            }
            let c = self.slots[slot as usize]
                .as_ref()
                .expect("listed slot empty");
            if c.idle_since != since {
                debug_assert!(
                    c.idle_since < since,
                    "{list:?} list out of idle-entry order"
                );
                break;
            }
            run += 1;
            if c.id < best.id {
                best = c;
            }
        }
        Some((best, run))
    }

    /// Ids of idle `User` containers whose packed set includes `f`
    /// (index-backed), most recently idle first and lowest id first
    /// among equal `idle_since`: the first one a caller accepts is the
    /// warmest. Overlaps `idle_user_ids(f)` only for a container both
    /// owned by and packed with `f`; callers visiting both must
    /// tolerate the repeat.
    pub fn idle_packed_ids(&self, f: FunctionId) -> impl Iterator<Item = ContainerId> + '_ {
        self.index
            .idle_packed_by_fn
            .get(f)
            .into_iter()
            .flat_map(|set| set.iter().rev().map(|(_, Reverse(id))| id))
    }

    /// The idle-interval start of a live container.
    pub fn idle_since_of(&self, id: ContainerId) -> Instant {
        self.by_slot(id).idle_since
    }

    /// The owner of a live idle `User` container (None for every other
    /// state).
    pub fn owner_of(&self, id: ContainerId) -> Option<FunctionId> {
        self.by_slot(id).owner()
    }

    /// The policy-facing view of a live container.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant, and in debug builds if the id is
    /// stale.
    pub fn view_of(&self, id: ContainerId) -> ContainerView {
        self.by_slot(id).view()
    }

    /// Fills `out` with views of all idle containers, optionally
    /// excluding one id, in id order. Clears `out` first; the buffer's
    /// capacity is reused across calls.
    pub fn idle_views_into(&self, exclude: Option<ContainerId>, out: &mut Vec<ContainerView>) {
        out.clear();
        out.extend(
            self.idle_containers()
                .filter(|c| Some(c.id) != exclude)
                .map(Container::view),
        );
    }

    /// Whether an idle `User` container owned by `f` exists (Alg. 1's
    /// availability check). Index-backed: one dense-table lookup.
    pub fn has_idle_user(&self, f: FunctionId) -> bool {
        self.index.head(List::Idle(IdleList::User(f))) != NIL
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

    /// Asserts that every secondary index agrees with the slab:
    ///
    /// * `live` holds exactly the occupied slots, in id order;
    /// * every container whose `IndexKey` names a list — each idle
    ///   container with a layer list, each attachable initialization —
    ///   is on exactly that list, the lists' `prev`/`next` links are
    ///   mutual, and no list holds a vacant or busy slot;
    /// * every idle list is in idle-entry order: `idle_since` never
    ///   rises from the head on;
    /// * the packed index and the initializing count match the slab,
    ///   and each packed set is keyed by its members' current
    ///   `idle_since`, in key order.
    ///
    /// The pool unit tests and the index proptest call this after every
    /// operation, and debug builds of the engine call it every 4,096
    /// ticks.
    ///
    /// # Panics
    ///
    /// Panics on any divergence between the indices and slab state.
    pub fn assert_coherent(&self) {
        let occupied = self.slots.iter().flatten().count();
        assert_eq!(self.live.len(), occupied, "live set size");
        assert!(self.live.is_strictly_sorted(), "live set out of id order");
        assert!(
            self.live.iter().all(|id| self.get(id).is_some()),
            "live set names a vacant slot"
        );
        let mut on_lists = self.assert_list_coherent(List::Idle(IdleList::Bare));
        for lang in Language::ALL {
            on_lists += self.assert_list_coherent(List::Idle(IdleList::Lang(lang)));
        }
        for f in (0..self.index.idle_user_heads.len()).map(|i| FunctionId::new(i as u32)) {
            on_lists += self.assert_list_coherent(List::Idle(IdleList::User(f)));
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
                        .is_some_and(|set| set.contains((c.idle_since, Reverse(c.id)))),
                    "{} missing from the packed index of {f}",
                    c.id
                );
            }
        }
        assert_eq!(on_lists, listed, "containers missing from their lists");
        assert_eq!(self.index.initializing, initializing, "initializing count");
        for (i, set) in self.index.idle_packed_by_fn.0.iter().enumerate() {
            let f = FunctionId::new(i as u32);
            assert!(
                set.is_strictly_sorted(),
                "packed index of {f} out of key order"
            );
            for (_, Reverse(id)) in set.iter() {
                let c = self.get(id).expect("packed index names a live container");
                assert!(
                    indexed_packed(&IndexKey::of(c), c).contains(&f),
                    "{id} is in the packed index of {f} without packing it"
                );
            }
        }
    }

    /// Walks `list` from its head, asserting that each member is live
    /// and keyed to this list, that the links are mutual and, on an idle
    /// list, that `idle_since` never rises. Returns the list's length.
    fn assert_list_coherent(&self, list: List) -> usize {
        let mut prev = NIL;
        let mut slot = self.index.head(list);
        let mut len = 0;
        let mut last_since = Instant::MAX;
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
            if matches!(list, List::Idle(_)) {
                assert!(
                    c.idle_since <= last_since,
                    "{list:?} list out of idle-entry order at {}",
                    c.id
                );
                last_since = c.idle_since;
            }
            prev = slot;
            slot = link.next;
        }
        len
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
        c.apply(LifecycleEvent::InitComplete).unwrap();
        c
    }

    #[test]
    fn memory_conservation() {
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(container(0, 300));
        p.insert(container(1, 200));
        assert_eq!(p.used(), MemMb::new(500));
        assert_eq!(p.capacity() - p.used(), MemMb::new(500));
        p.resize(ContainerId::new(0), MemMb::new(100));
        assert_eq!(p.used(), MemMb::new(300));
        p.remove(ContainerId::new(1));
        assert_eq!(p.used(), MemMb::new(100));
        assert_eq!(p.len(), 1);
        p.assert_coherent();
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
        let mut views = Vec::new();
        p.idle_views_into(None, &mut views);
        assert_eq!(views.len(), 1);
        p.idle_views_into(Some(ContainerId::new(0)), &mut views);
        assert!(views.is_empty());
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
        p.assert_coherent();
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
            c.apply(LifecycleEvent::InitComplete).unwrap();
        }
        assert_eq!(p.initializing_count(), 0);
        assert!(p.earliest_attachable_init(FunctionId::new(0)).is_none());
        assert!(p.has_idle_user(FunctionId::new(0)));
        assert_eq!(p.idle_ids().collect::<Vec<_>>(), vec![ContainerId::new(0)]);
        assert_eq!(
            p.idle_list_ids(IdleList::User(FunctionId::new(0)))
                .collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        p.assert_coherent();

        // Removal unlinks everywhere.
        p.remove(ContainerId::new(0));
        assert!(!p.has_idle_user(FunctionId::new(0)));
        assert_eq!(p.idle_ids().count(), 0);
        p.assert_coherent();
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
        p.assert_coherent();

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
            c.apply(LifecycleEvent::ExecutionComplete).unwrap();
        }
        assert_eq!(p.idle_packed_ids(f2).count(), 1);
        p.assert_coherent();

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
        let (lang, bare) = (IdleList::Lang(Language::Python), IdleList::Bare);
        assert_eq!(p.idle_list_ids(lang).count(), 0);
        assert_eq!(p.idle_list_ids(bare).count(), 0);

        // Downgrading User -> Lang moves the container into the
        // lang-layer index (and out of the per-owner one).
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::Downgrade).unwrap();
        }
        assert!(!p.has_idle_user(FunctionId::new(0)));
        assert_eq!(
            p.idle_list_ids(lang).collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        assert_eq!(p.idle_list_ids(bare).count(), 0);
        p.assert_coherent();

        // Lang -> Bare moves it into the bare index and out of the
        // lang-layer one.
        {
            let mut c = p.get_mut(ContainerId::new(0)).unwrap();
            c.apply(LifecycleEvent::Downgrade).unwrap();
        }
        assert_eq!(p.idle_list_ids(lang).count(), 0);
        assert_eq!(
            p.idle_list_ids(bare).collect::<Vec<_>>(),
            vec![ContainerId::new(0)]
        );
        p.assert_coherent();

        p.remove(ContainerId::new(0));
        assert_eq!(p.idle_list_ids(bare).count(), 0);
    }

    #[test]
    fn per_container_reads_see_guard_writes() {
        // `idle_since_of`, `owner_of` and `view_of` read the slab entry,
        // so a guard write that leaves the index key alone is visible as
        // soon as the guard drops.
        let mut p = Pool::new(MemMb::new(1_000));
        let mut c = idle_container(0, 100);
        c.idle_since = Instant::from_micros(42);
        p.insert(c);
        let id = ContainerId::new(0);
        assert_eq!(p.idle_since_of(id), Instant::from_micros(42));
        assert_eq!(p.owner_of(id), Some(FunctionId::new(0)));
        {
            let mut g = p.get_mut(id).unwrap();
            g.idle_since = Instant::from_micros(99);
            g.hits += 1;
        }
        assert_eq!(p.idle_since_of(id), Instant::from_micros(99));
        assert_eq!(p.view_of(id), p.get(id).unwrap().view());
        assert_eq!(p.view_of(id).hits, 1);
        p.assert_coherent();
    }

    #[test]
    fn out_of_order_inserts_keep_indices_sorted() {
        // Externally constructed ids arrive out of creation order; the
        // id-ordered enumeration must still iterate in id order, and the
        // per-owner list, in link order, must hold exactly the same ids.
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
            c.apply(LifecycleEvent::InitComplete).unwrap();
            p.insert(c);
        }
        let ids: Vec<u32> = p.idle_ids().map(|id| id.seq()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let mut owned: Vec<u32> = p
            .idle_list_ids(IdleList::User(FunctionId::new(0)))
            .map(|id| id.seq())
            .collect();
        owned.sort_unstable();
        assert_eq!(owned, vec![1, 3, 5]);
        p.assert_coherent();
    }

    /// An idle `User` container of function 0 with the given creation
    /// sequence and idle-entry time, in its own slot.
    fn idle_at(seq: u32, since: u64) -> Container {
        let mut c = idle_container(0, 10);
        c.id = ContainerId::from_parts(seq, seq);
        c.idle_since = Instant::from_micros(since);
        c
    }

    #[test]
    fn warmest_reads_the_head_and_breaks_ties_by_lowest_id() {
        let list = IdleList::User(FunctionId::new(0));
        // Two containers go idle in the same microsecond, after an older
        // one; whichever of the two is linked last sits at the head, and
        // the lowest id wins either way.
        for tied in [[2, 3], [3, 2]] {
            let mut p = Pool::new(MemMb::new(1_000));
            p.insert(idle_at(1, 10));
            for seq in tied {
                p.insert(idle_at(seq, 20));
            }
            p.assert_coherent();
            let (c, run) = p.warmest(list).unwrap();
            assert_eq!(c.id.seq(), 2, "link order {tied:?}");
            assert_eq!(run, 2, "the head's run is the two tied entries");
            let order: Vec<u32> = p.idle_list_ids(list).map(|id| id.seq()).collect();
            assert_eq!(order, vec![tied[1], tied[0], 1]);
        }
        assert!(Pool::new(MemMb::new(1)).warmest(list).is_none());
    }

    #[test]
    fn restamped_idle_container_moves_to_its_list_head() {
        // Re-stamping `idle_since` without changing the index key (a
        // Pagurus repack of the same packed set) re-links the container
        // at the head, so the list stays in idle-entry order.
        let list = IdleList::User(FunctionId::new(0));
        let mut p = Pool::new(MemMb::new(1_000));
        p.insert(idle_at(1, 10));
        p.insert(idle_at(2, 20));
        assert_eq!(p.warmest(list).unwrap().0.id.seq(), 2);
        p.get_mut(ContainerId::from_parts(1, 1)).unwrap().idle_since = Instant::from_micros(30);
        p.assert_coherent();
        let order: Vec<u32> = p.idle_list_ids(list).map(|id| id.seq()).collect();
        assert_eq!(order, vec![1, 2]);
        let (c, run) = p.warmest(list).unwrap();
        assert_eq!((c.id.seq(), run), (1, 1));
    }

    #[test]
    fn packed_index_runs_most_recently_idle_first_lowest_id_first() {
        // Containers packing function 5 go idle at 10, 20, 20 µs, linked
        // in either order; a re-stamp (a repack of the same set) moves
        // the oldest to the front.
        let f = FunctionId::new(5);
        let packed = |seq, since| {
            let mut c = idle_at(seq, since);
            c.packed = vec![f];
            c
        };
        let order = |p: &Pool| p.idle_packed_ids(f).map(|id| id.seq()).collect::<Vec<_>>();
        for tied in [[2, 3], [3, 2]] {
            let mut p = Pool::new(MemMb::new(1_000));
            p.insert(packed(1, 10));
            for seq in tied {
                p.insert(packed(seq, 20));
            }
            p.assert_coherent();
            assert_eq!(order(&p), vec![2, 3, 1], "link order {tied:?}");
            p.get_mut(ContainerId::from_parts(1, 1)).unwrap().idle_since = Instant::from_micros(30);
            p.assert_coherent();
            assert_eq!(order(&p), vec![1, 2, 3], "link order {tied:?}");
        }
    }
}
