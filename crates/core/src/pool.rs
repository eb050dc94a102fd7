//! Node memory for path-copied trees: [`PoolArc<T>`], an `Arc`-shaped
//! pointer whose blocks come from and return to a pool instead of the
//! global allocator.
//!
//! The paper's cost model charges an update only for the cache misses on
//! its root-to-key path; in its Java setting allocation is a bump pointer
//! and reclamation is the collector's problem. A reference-counted Rust
//! port instead pays one `malloc` and one `free` per copied node, and the
//! frees run on whichever thread happens to drain the epoch garbage — so
//! half of them land in another thread's arena. This module removes the
//! global allocator from the load / copy / CAS loop:
//!
//! * **Block = cache line.** Size classes are multiples of 64 bytes,
//!   64-byte aligned, carved from slabs. A reference count plus a binary
//!   tree node with word-sized key and value is 56 bytes, so one node is
//!   exactly one line and never straddles two. A type larger than the
//!   top class (or aligned above a line) falls through to the global
//!   allocator.
//! * **Per-thread magazines, LIFO.** Each thread keeps a *loaded* and a
//!   *spare* magazine per class — intrusive free lists threaded through
//!   the free blocks themselves. Allocation pops and free pushes with no
//!   atomic and no lock. A failed CAS drops its speculative version into
//!   the loaded magazine and the retry pops the same still-hot lines.
//! * **One shared depot, bounded locals.** A thread whose two magazines
//!   are both full hands the spare to a process-wide per-class depot (one
//!   lock acquisition per magazine, not per block); a thread with two
//!   empty magazines takes a full one from the depot before any slab is
//!   carved, and only the depot carves. A thread that only ever frees
//!   (the epoch collector, a relay applying pushed diffs) therefore feeds
//!   the threads that only allocate, and a thread never holds more than
//!   two magazines per class.
//!
//! The pool keeps its high-water mark: slabs are never returned to the
//! operating system, so a burst's memory stays available for the next
//! burst.
//!
//! Under `debug_assertions` freed blocks are poisoned with `0xDD` and
//! checked on reuse, and `live_blocks` keeps an exact count, so every
//! test that exercises a pooled structure doubles as a use-after-free
//! and leak detector on the debug test leg.

use std::alloc::{self, Layout};
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Block granule and alignment: one cache line.
const LINE: usize = 64;
/// Size classes: 64, 128, 192 and 256 bytes.
const CLASSES: usize = 4;
/// Blocks per magazine: the smallest power of two that holds one
/// reclamation step without an exchange (the epoch shim runs at most 8
/// deferred version drops at a time, ~25 nodes each on a 2^19-key
/// treap). Measured on the perf ledger's `engine_update` at 2 threads,
/// 128, 256 and 512 are within run-to-run spread of each other; larger
/// only raises what an idle thread can hold back.
const MAGAZINE: usize = 256;
/// Magazines per slab. A class-0 slab is 256 KiB — above the allocator's
/// mmap threshold, so the untouched tail of a slab is not resident.
const SLAB_MAGAZINES: usize = 16;
/// A thread folds its handed-out count into the shared total at every
/// depot exchange and at the latest after this many allocations (a
/// thread recycling its own frees may never exchange), which bounds how
/// far [`stats`] lags behind other threads. One magazine's worth: the
/// same one-lock-per-magazine amortisation as the exchanges themselves.
const FOLD_EVERY: u64 = MAGAZINE as u64;
/// Fill byte of a free block's body under `debug_assertions`.
#[cfg(debug_assertions)]
const POISON: u8 = 0xDD;

/// Header written into a block while it is free.
struct FreeBlock {
    /// Next free block of the same magazine.
    next: *mut FreeBlock,
    /// On the head block of a full magazine parked in the depot: the next
    /// parked magazine.
    next_magazine: *mut FreeBlock,
}

const fn class_bytes(class: usize) -> usize {
    (class + 1) * LINE
}

// ---------------------------------------------------------------------------
// The shared depot
// ---------------------------------------------------------------------------

/// Process-wide store of free blocks of one class, and the only place
/// slabs are carved.
struct Depot {
    /// Parked magazines of exactly [`MAGAZINE`] blocks each, linked
    /// through their head block's `next_magazine`.
    full: *mut FreeBlock,
    full_magazines: usize,
    /// Fewer than [`MAGAZINE`] blocks returned one at a time (thread
    /// exit, frees after a thread's magazines were torn down).
    loose: *mut FreeBlock,
    loose_len: usize,
    /// Uncarved remainder of the newest slab.
    slab_next: *mut u8,
    slab_magazines_left: usize,
    slabs_carved: u64,
    exchanges: u64,
    /// Blocks handed out, folded in from the per-thread counts.
    handed_out: u64,
}

// SAFETY: every raw pointer in a `Depot` points into a slab that is never
// freed, at a block no thread is using (it is on a free list the depot
// owns exclusively); moving that ownership between threads is sound.
unsafe impl Send for Depot {}

impl Depot {
    const fn new() -> Self {
        Depot {
            full: ptr::null_mut(),
            full_magazines: 0,
            loose: ptr::null_mut(),
            loose_len: 0,
            slab_next: ptr::null_mut(),
            slab_magazines_left: 0,
            slabs_carved: 0,
            exchanges: 0,
            handed_out: 0,
        }
    }

    /// Parks a full magazine.
    fn park(&mut self, head: *mut FreeBlock) {
        // SAFETY: `head` is the first block of a magazine the caller owns
        // and hands over; free blocks are at least a `FreeBlock` long.
        unsafe { (*head).next_magazine = self.full };
        self.full = head;
        self.full_magazines += 1;
    }

    /// Takes a full magazine: a parked one if there is any, a freshly
    /// carved one otherwise.
    fn take_magazine(&mut self, class: usize) -> *mut FreeBlock {
        if self.full.is_null() {
            return self.carve(class);
        }
        let head = self.full;
        // SAFETY: `head` is a parked magazine's head block, exclusively
        // owned by the depot; `park` wrote its `next_magazine`.
        self.full = unsafe { (*head).next_magazine };
        self.full_magazines -= 1;
        head
    }

    /// Carves one magazine from the current slab, allocating a new slab
    /// when it is used up. The blocks are linked in address order, so
    /// consecutive allocations walk forward through memory.
    fn carve(&mut self, class: usize) -> *mut FreeBlock {
        let bytes = class_bytes(class);
        if self.slab_magazines_left == 0 {
            let layout = Layout::from_size_align(SLAB_MAGAZINES * MAGAZINE * bytes, LINE)
                .expect("slab layout is a non-zero multiple of a line");
            // SAFETY: `layout` has non-zero size.
            let slab = unsafe { alloc::alloc(layout) };
            if slab.is_null() {
                alloc::handle_alloc_error(layout);
            }
            self.slab_next = slab;
            self.slab_magazines_left = SLAB_MAGAZINES;
            self.slabs_carved += 1;
        }
        let base = self.slab_next;
        // SAFETY: the slab holds `slab_magazines_left >= 1` more
        // magazines of `MAGAZINE * bytes` bytes starting at `base`, so
        // the new cursor is at most one past its end.
        self.slab_next = unsafe { base.add(MAGAZINE * bytes) };
        self.slab_magazines_left -= 1;
        for i in 0..MAGAZINE {
            // SAFETY: block `i` (and `i + 1` when it is not the last)
            // lies inside the magazine's span computed above, is
            // line-aligned like the slab, and at least a `FreeBlock` long.
            unsafe {
                let block = base.add(i * bytes);
                let next = if i + 1 < MAGAZINE {
                    base.add((i + 1) * bytes).cast()
                } else {
                    ptr::null_mut()
                };
                block.cast::<FreeBlock>().write(FreeBlock {
                    next,
                    next_magazine: ptr::null_mut(),
                });
                #[cfg(debug_assertions)]
                poison(block, bytes);
            }
        }
        base.cast()
    }

    /// Returns one block (the slow path of a thread without magazines).
    fn push_one(&mut self, block: *mut FreeBlock) {
        // SAFETY: the caller hands over a free block it owns.
        unsafe { (*block).next = self.loose };
        self.loose = block;
        self.loose_len += 1;
        if self.loose_len == MAGAZINE {
            let head = std::mem::replace(&mut self.loose, ptr::null_mut());
            self.loose_len = 0;
            self.park(head);
        }
    }

    /// Takes one block (the slow path of a thread without magazines).
    fn pop_one(&mut self, class: usize) -> *mut FreeBlock {
        if self.loose.is_null() {
            self.loose = self.take_magazine(class);
            self.loose_len = MAGAZINE;
        }
        let block = self.loose;
        // SAFETY: `block` heads the depot's own loose list.
        self.loose = unsafe { (*block).next };
        self.loose_len -= 1;
        self.handed_out += 1;
        block
    }
}

static DEPOTS: [Mutex<Depot>; CLASSES] = [
    Mutex::new(Depot::new()),
    Mutex::new(Depot::new()),
    Mutex::new(Depot::new()),
    Mutex::new(Depot::new()),
];

fn depot(class: usize) -> MutexGuard<'static, Depot> {
    // No depot method can panic half-way through a list update, so a
    // poisoned lock (a panic elsewhere while it was held) guards
    // consistent data.
    DEPOTS[class].lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Per-thread magazines
// ---------------------------------------------------------------------------

/// One thread's two magazines of one class.
struct Magazines {
    loaded: Cell<*mut FreeBlock>,
    loaded_len: Cell<usize>,
    /// Null, or a magazine of exactly [`MAGAZINE`] blocks.
    spare: Cell<*mut FreeBlock>,
    /// Blocks handed out since the last fold into the depot's total.
    handed_out: Cell<u64>,
}

impl Magazines {
    const fn new() -> Self {
        Magazines {
            loaded: Cell::new(ptr::null_mut()),
            loaded_len: Cell::new(0),
            spare: Cell::new(ptr::null_mut()),
            handed_out: Cell::new(0),
        }
    }

    #[inline]
    fn pop(&self, class: usize) -> *mut FreeBlock {
        let mut head = self.loaded.get();
        if head.is_null() {
            head = self.refill(class);
        }
        // SAFETY: `head` is the first block of this thread's loaded
        // magazine: free, exclusively ours, its `next` written by `push`,
        // `carve` or a previous owner's `push`.
        self.loaded.set(unsafe { (*head).next });
        self.loaded_len.set(self.loaded_len.get() - 1);
        let handed_out = self.handed_out.get() + 1;
        self.handed_out.set(handed_out);
        if handed_out == FOLD_EVERY {
            self.fold(class);
        }
        head
    }

    /// Adds this thread's handed-out count to the shared total.
    #[cold]
    fn fold(&self, class: usize) {
        depot(class).handed_out += self.handed_out.replace(0);
    }

    /// Locks the depot for a magazine hand-off, which also folds.
    fn exchange(&self, class: usize) -> MutexGuard<'static, Depot> {
        let mut depot = depot(class);
        depot.exchanges += 1;
        depot.handed_out += self.handed_out.replace(0);
        depot
    }

    /// Loads the spare magazine, or a full one from the depot.
    #[cold]
    fn refill(&self, class: usize) -> *mut FreeBlock {
        let mut head = self.spare.replace(ptr::null_mut());
        if head.is_null() {
            head = self.exchange(class).take_magazine(class);
        }
        self.loaded_len.set(MAGAZINE);
        head
    }

    #[inline]
    fn push(&self, class: usize, block: *mut FreeBlock) {
        if self.loaded_len.get() == MAGAZINE {
            self.make_room(class);
        }
        // SAFETY: the caller hands over a free block it owns.
        unsafe { (*block).next = self.loaded.get() };
        self.loaded.set(block);
        self.loaded_len.set(self.loaded_len.get() + 1);
    }

    /// Moves the full loaded magazine to the spare slot, handing a
    /// previous full spare to the depot.
    #[cold]
    fn make_room(&self, class: usize) {
        let full = self.loaded.replace(ptr::null_mut());
        self.loaded_len.set(0);
        let old_spare = self.spare.replace(full);
        if !old_spare.is_null() {
            self.exchange(class).park(old_spare);
        }
    }

    /// Thread exit: everything goes back to the depot.
    fn surrender(&self, class: usize) {
        let spare = self.spare.replace(ptr::null_mut());
        let mut block = self.loaded.replace(ptr::null_mut());
        self.loaded_len.set(0);
        if spare.is_null() && block.is_null() && self.handed_out.get() == 0 {
            return;
        }
        let mut depot = self.exchange(class);
        if !spare.is_null() {
            depot.park(spare);
        }
        while !block.is_null() {
            // SAFETY: `block` walks this thread's loaded magazine, whose
            // blocks are free and exclusively ours; `next` is read before
            // `push_one` overwrites it.
            let next = unsafe { (*block).next };
            depot.push_one(block);
            block = next;
        }
    }
}

struct Local {
    classes: [Magazines; CLASSES],
}

impl Drop for Local {
    fn drop(&mut self) {
        for (class, magazines) in self.classes.iter().enumerate() {
            magazines.surrender(class);
        }
    }
}

thread_local! {
    // `const` initialiser: first use never allocates, so the pool can
    // sit underneath code that itself runs inside an allocator hook.
    static LOCAL: Local = const {
        Local {
            classes: [
                Magazines::new(),
                Magazines::new(),
                Magazines::new(),
                Magazines::new(),
            ],
        }
    };
}

fn alloc_block(class: usize) -> NonNull<u8> {
    // `try_with`: a `PoolArc` may be created or dropped by another
    // thread-local's destructor after this thread's magazines were
    // surrendered; such stragglers go through the depot, one lock each.
    let block = LOCAL
        .try_with(|local| local.classes[class].pop(class))
        .unwrap_or_else(|_| depot(class).pop_one(class));
    #[cfg(debug_assertions)]
    // SAFETY: `block` is a free block of `class_bytes(class)` bytes that
    // this thread now owns.
    unsafe {
        check_poison(block.cast(), class_bytes(class));
    }
    // SAFETY: free lists never hold null.
    unsafe { NonNull::new_unchecked(block.cast()) }
}

/// # Safety
///
/// `block` must have come from `alloc_block(class)`, hold no live value,
/// and not be used by the caller afterwards.
unsafe fn free_block(class: usize, block: NonNull<u8>) {
    #[cfg(debug_assertions)]
    // SAFETY: per the contract the block is ours and `class_bytes(class)`
    // bytes long.
    unsafe {
        poison(block.as_ptr(), class_bytes(class));
    }
    let block = block.as_ptr().cast::<FreeBlock>();
    if LOCAL
        .try_with(|local| local.classes[class].push(class, block))
        .is_err()
    {
        depot(class).push_one(block);
    }
}

/// Fills a free block's body (everything after the [`FreeBlock`] header).
///
/// # Safety
///
/// `block` must be valid for writes of `bytes` bytes.
#[cfg(debug_assertions)]
unsafe fn poison(block: *mut u8, bytes: usize) {
    let header = std::mem::size_of::<FreeBlock>();
    // SAFETY: `header <= LINE <= bytes`, and the caller vouches for the
    // whole block.
    unsafe { block.add(header).write_bytes(POISON, bytes - header) };
}

/// Panics if a free block's body was written while it was free.
///
/// # Safety
///
/// `block` must be valid for reads of `bytes` bytes.
#[cfg(debug_assertions)]
unsafe fn check_poison(block: *const u8, bytes: usize) {
    let header = std::mem::size_of::<FreeBlock>();
    // SAFETY: as for `poison`; the body was initialised by `poison`.
    let body = unsafe { std::slice::from_raw_parts(block.add(header), bytes - header) };
    assert!(
        body.iter().all(|&b| b == POISON),
        "pool block {block:p} was written after it was freed"
    );
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Exact number of [`PoolArc`] allocations currently alive, process-wide.
/// Only kept under `debug_assertions` (an atomic per allocation is what
/// the pool exists to avoid).
#[cfg(debug_assertions)]
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Exact number of [`PoolArc`] allocations currently alive, process-wide.
#[cfg(debug_assertions)]
pub fn live_blocks() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// Cumulative pool counters, summed over the size classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks handed out by [`PoolArc::new`] (pooled classes only). The
    /// calling thread's count is exact; every other thread's lags by
    /// less than one magazine (256 blocks) per size class: a thread
    /// keeps a plain count and folds it in at a depot exchange or once
    /// per magazine's worth of allocations, so the hot path has no
    /// atomic.
    pub blocks_handed_out: u64,
    /// Slabs obtained from the global allocator. Never decreases and
    /// never shrinks: the pool keeps its high-water mark.
    pub slabs_carved: u64,
    /// Free blocks parked in the shared depot right now.
    pub depot_blocks: u64,
    /// Lock acquisitions on the depot by allocating or freeing threads —
    /// one per magazine moved, not per block.
    pub depot_exchanges: u64,
}

/// Reads the pool's counters. Takes each class's depot lock once; meant
/// for scrapes and tests, not for the hot path.
pub fn stats() -> PoolStats {
    let mut out = PoolStats::default();
    for class in 0..CLASSES {
        let unfolded = LOCAL
            .try_with(|local| local.classes[class].handed_out.replace(0))
            .unwrap_or(0);
        let mut depot = depot(class);
        depot.handed_out += unfolded;
        out.blocks_handed_out += depot.handed_out;
        out.slabs_carved += depot.slabs_carved;
        out.depot_blocks += (depot.full_magazines * MAGAZINE + depot.loose_len) as u64;
        out.depot_exchanges += depot.exchanges;
    }
    out
}

// ---------------------------------------------------------------------------
// PoolArc
// ---------------------------------------------------------------------------

#[repr(C)]
struct Inner<T> {
    strong: AtomicUsize,
    value: T,
}

/// A thread-safe reference-counting pointer like [`std::sync::Arc`],
/// with one strong count, no weak count, and its allocation taken from
/// the [pool](self).
///
/// # Examples
///
/// ```
/// use pathcopy_core::pool::PoolArc;
///
/// let a = PoolArc::new((1u64, 2u64));
/// let b = PoolArc::clone(&a);
/// assert!(PoolArc::ptr_eq(&a, &b));
/// assert_eq!(b.1, 2);
/// drop(a);
/// assert_eq!(*b, (1, 2));
/// ```
pub struct PoolArc<T> {
    ptr: NonNull<Inner<T>>,
    /// Tells the drop checker that dropping a `PoolArc<T>` may drop a `T`.
    _owns: PhantomData<Inner<T>>,
}

// SAFETY: a `PoolArc<T>` hands `&T` to every thread that holds a clone
// (needs `T: Sync`) and drops the `T` on whichever thread releases the
// last one (needs `T: Send`) — the bounds `Arc<T>` has. The only other
// field is the atomic count.
unsafe impl<T: Send + Sync> Send for PoolArc<T> {}
// SAFETY: `&PoolArc<T>` can be cloned into a `PoolArc<T>` on another
// thread, so sharing needs exactly what sending needs.
unsafe impl<T: Send + Sync> Sync for PoolArc<T> {}

impl<T> PoolArc<T> {
    const LAYOUT: Layout = Layout::new::<Inner<T>>();

    /// The pooled size class of `T`'s block, if it fits one.
    const CLASS: Option<usize> =
        if Self::LAYOUT.size() <= class_bytes(CLASSES - 1) && Self::LAYOUT.align() <= LINE {
            Some((Self::LAYOUT.size() - 1) / LINE)
        } else {
            None
        };

    /// Bytes one `PoolArc<T>` allocation occupies: the count plus `T`,
    /// rounded up to whole cache lines when pooled.
    pub const BLOCK_BYTES: usize = match Self::CLASS {
        Some(class) => class_bytes(class),
        None => Self::LAYOUT.size(),
    };

    /// Alignment of a `PoolArc<T>` allocation: a cache line when pooled.
    pub const BLOCK_ALIGN: usize = match Self::CLASS {
        Some(_) => LINE,
        None => Self::LAYOUT.align(),
    };

    /// Moves `value` into a pool block with a reference count of one.
    #[inline]
    pub fn new(value: T) -> Self {
        let block: NonNull<Inner<T>> = match Self::CLASS {
            Some(class) => alloc_block(class).cast(),
            None => {
                // SAFETY: `Inner<T>` holds an `AtomicUsize`, so the
                // layout has non-zero size.
                let raw = unsafe { alloc::alloc(Self::LAYOUT) };
                NonNull::new(raw)
                    .unwrap_or_else(|| alloc::handle_alloc_error(Self::LAYOUT))
                    .cast()
            }
        };
        // SAFETY: `block` is an exclusively owned, uninitialised block of
        // at least `LAYOUT.size()` bytes aligned to at least
        // `LAYOUT.align()` (pooled blocks: `BLOCK_BYTES` and a line).
        unsafe {
            block.as_ptr().write(Inner {
                strong: AtomicUsize::new(1),
                value,
            });
        }
        #[cfg(debug_assertions)]
        LIVE.fetch_add(1, Ordering::SeqCst);
        PoolArc {
            ptr: block,
            _owns: PhantomData,
        }
    }

    /// `true` if the two pointers share one allocation.
    ///
    /// Block addresses are recycled, but only after the last reference
    /// is gone: while the caller holds both `a` and `b`, neither block
    /// can have been freed, so equal addresses mean the same live value.
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }

    /// Address of the value; a stable identity for as long as any
    /// reference to the allocation is held.
    #[inline]
    pub fn as_ptr(this: &Self) -> *const T {
        // SAFETY: `ptr` points at a live `Inner<T>`; this only computes
        // a field address.
        unsafe { ptr::addr_of!((*this.ptr.as_ptr()).value) }
    }

    #[inline]
    fn inner(&self) -> &Inner<T> {
        // SAFETY: the count this pointer owns keeps the block alive and
        // initialised for as long as `self` exists.
        unsafe { self.ptr.as_ref() }
    }

    /// Drops the value and recycles the block.
    ///
    /// # Safety
    ///
    /// The caller must have just released the last reference (observed
    /// the count reach zero, then an Acquire fence).
    #[inline(never)]
    unsafe fn drop_slow(&mut self) {
        // SAFETY: the count reached zero, so this thread has exclusive
        // access to a still-initialised value.
        unsafe { ptr::drop_in_place(ptr::addr_of_mut!((*self.ptr.as_ptr()).value)) };
        #[cfg(debug_assertions)]
        LIVE.fetch_sub(1, Ordering::SeqCst);
        match Self::CLASS {
            // SAFETY: the block came from `alloc_block(class)` in `new`,
            // its value was just dropped, and `self` is being destroyed.
            Some(class) => unsafe { free_block(class, self.ptr.cast()) },
            // SAFETY: allocated in `new` with this same layout.
            None => unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), Self::LAYOUT) },
        }
    }
}

impl<T> Clone for PoolArc<T> {
    #[inline]
    fn clone(&self) -> Self {
        // Relaxed, as in `Arc`: a new reference is made from an existing
        // one, which already orders this thread after the allocation.
        let old = self.inner().strong.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            // A wrapped count would free a block that is still referenced.
            std::process::abort();
        }
        PoolArc {
            ptr: self.ptr,
            _owns: PhantomData,
        }
    }
}

impl<T> Drop for PoolArc<T> {
    #[inline]
    fn drop(&mut self) {
        // Release publishes this thread's uses of the value to whichever
        // thread drops last; its Acquire fence below pairs with it.
        if self.inner().strong.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        // SAFETY: the count just reached zero.
        unsafe { self.drop_slow() };
    }
}

impl<T> Deref for PoolArc<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T: fmt::Debug> fmt::Debug for PoolArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn block_geometry() {
        // Count + 48 bytes is one line; one byte more is two.
        assert_eq!(PoolArc::<[u64; 6]>::BLOCK_BYTES, 64);
        assert_eq!(PoolArc::<[u64; 7]>::BLOCK_BYTES, 64);
        assert_eq!(PoolArc::<[u64; 8]>::BLOCK_BYTES, 128);
        assert_eq!(PoolArc::<[u64; 31]>::BLOCK_BYTES, 256);
        assert_eq!(PoolArc::<[u64; 6]>::BLOCK_ALIGN, 64);
        // Past the top class: the global allocator's own layout.
        assert_eq!(PoolArc::<[u64; 32]>::BLOCK_BYTES, 33 * 8);
        assert_eq!(PoolArc::<[u64; 32]>::BLOCK_ALIGN, 8);
        #[repr(align(128))]
        struct Wide(#[allow(dead_code)] u8);
        assert_eq!(PoolArc::<Wide>::BLOCK_ALIGN, 128);
    }

    #[test]
    fn blocks_are_line_aligned_and_distinct() {
        let held: Vec<PoolArc<u64>> = (0..1000).map(PoolArc::new).collect();
        let mut addrs: Vec<usize> = held.iter().map(|p| PoolArc::as_ptr(p) as usize).collect();
        for (i, p) in held.iter().enumerate() {
            assert_eq!(**p, i as u64);
        }
        // `as_ptr` is the value, one count past the block's start.
        assert!(addrs.iter().all(|a| (a - 8) % 64 == 0));
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 1000);
    }

    #[test]
    fn free_is_lifo_on_one_thread() {
        let a = PoolArc::new(1u64);
        let addr = PoolArc::as_ptr(&a);
        drop(a);
        let b = PoolArc::new(2u64);
        assert_eq!(PoolArc::as_ptr(&b), addr, "the hot line is reused first");
    }

    #[test]
    fn value_dropped_exactly_once_with_the_last_clone() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let a = PoolArc::new(Noisy);
        let clones: Vec<_> = (0..10).map(|_| a.clone()).collect();
        drop(a);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        std::thread::scope(|s| {
            for c in clones {
                s.spawn(move || drop(c));
            }
        });
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oversized_values_round_trip_through_the_global_allocator() {
        let big = PoolArc::new([7u8; 1000]);
        let other = big.clone();
        assert!(PoolArc::ptr_eq(&big, &other));
        assert!(other.iter().all(|&b| b == 7));
    }

    #[test]
    fn every_class_serves_its_size() {
        let a = PoolArc::new([1u64; 7]);
        let b = PoolArc::new([2u64; 15]);
        let c = PoolArc::new([3u64; 23]);
        let d = PoolArc::new([4u64; 31]);
        assert_eq!(
            (a[6], b[14], c[22], d[30]),
            (1, 2, 3, 4),
            "values survive in 64/128/192/256-byte blocks"
        );
        for addr in [
            PoolArc::as_ptr(&a) as usize,
            PoolArc::as_ptr(&b) as usize,
            PoolArc::as_ptr(&c) as usize,
            PoolArc::as_ptr(&d) as usize,
        ] {
            assert_eq!((addr - 8) % 64, 0);
        }
    }

    #[test]
    fn handed_out_counts_the_calling_thread_exactly() {
        let before = stats().blocks_handed_out;
        let held: Vec<PoolArc<u64>> = (0..100).map(PoolArc::new).collect();
        // Other tests allocate concurrently, so only a lower bound holds.
        assert!(stats().blocks_handed_out - before >= 100);
        drop(held);
    }
}
