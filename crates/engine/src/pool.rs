//! A process-wide pool of recycled [`BddManager`] arenas.
//!
//! Per-assertion-granularity campaigns schedule many short jobs, and every
//! job needs its own single-threaded BDD manager.  Allocating the arena,
//! unique table and computed table from cold for each job is pure
//! overhead: [`BddManager::reset`] restores a manager to the
//! freshly-constructed state while keeping every allocation at capacity.
//! The pool keeps a small free list of reset managers so workers — and
//! repeated campaigns, such as the minimisation oracle's per-step queries —
//! reuse warm arenas instead of paying the cold-allocation cost again.
//!
//! Reset managers are observationally identical to new ones (same handles,
//! node counts and statistics for the same operation sequence), so pooling
//! never perturbs the deterministic campaign reports.
//!
//! Because `reset` keeps capacity, an unbounded pool would pin the
//! worst-case arena of every workload it ever served — fatal for a
//! long-lived `ssr serve` daemon that occasionally runs a `paper`-sized
//! campaign.  Releases therefore *shrink on release*: a manager whose
//! arena capacity exceeds the pool's high-water mark is dropped instead of
//! cached, returning its memory to the allocator.  [`PoolStats`] counts
//! reuse hits, cold allocations and both kinds of discard so `ssr stats`
//! can show how the cache behaves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use ssr_bdd::BddManager;

/// A point-in-time snapshot of a [`ManagerPool`]'s behaviour counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Managers currently idle on the free list.
    pub idle: usize,
    /// Acquires served from the free list (warm arenas).
    pub reuse_hits: u64,
    /// Acquires that had to allocate a manager from cold.
    pub fresh: u64,
    /// Releases dropped because the free list was already at `max_idle`.
    pub discarded_full: u64,
    /// Releases dropped because the arena had grown past the pool's
    /// high-water capacity mark (shrink-on-release).
    pub discarded_oversize: u64,
    /// Poisoned-lock recoveries: times the free list's mutex was found
    /// poisoned (a worker died holding it) and the idle cache was
    /// discarded to keep the pool serving.  Silent before this counter —
    /// a nonzero value here is the only trace a crashed worker leaves.
    pub poison_recoveries: u64,
    /// Leases whose job tripped a resource budget: the arena was discarded
    /// rather than recycled (a budget unwind can leave it mid-operation),
    /// so each of these is a forfeited warm-reuse opportunity.
    pub budget_exhausted: u64,
}

/// A bounded free list of reset BDD managers.
#[derive(Debug, Default)]
pub struct ManagerPool {
    free: Mutex<Vec<BddManager>>,
    max_idle: usize,
    max_arena_capacity: usize,
    reuse_hits: AtomicU64,
    fresh: AtomicU64,
    discarded_full: AtomicU64,
    discarded_oversize: AtomicU64,
    poison_recoveries: AtomicU64,
    budget_exhausted: AtomicU64,
}

impl ManagerPool {
    /// Idle managers kept by the process-wide pool.  Small on purpose: one
    /// warm arena per plausible worker on a workstation-class box.
    pub const DEFAULT_MAX_IDLE: usize = 8;

    /// Arena-capacity high-water mark (in node slots) above which a
    /// released manager is dropped rather than cached.  4 Mi slots is what
    /// the largest paper-scale job fills — the paper-config IFR check
    /// peaks at ~3.3M live nodes, a 2^22-slot arena — so every
    /// campaign workload recycles.  A bigger run is dropped, so an idle
    /// daemon pins at most ~150 MB per cached manager: the arena plus its
    /// unique and computed tables, ~36 bytes a slot.
    pub const DEFAULT_MAX_ARENA_CAPACITY: usize = 1 << 22;

    /// Creates a pool that keeps at most `max_idle` managers on the free
    /// list (with the default arena-capacity high-water mark); releases
    /// beyond that simply drop the manager.
    pub fn new(max_idle: usize) -> Self {
        Self::with_limits(max_idle, Self::DEFAULT_MAX_ARENA_CAPACITY)
    }

    /// Creates a pool with explicit bounds: at most `max_idle` idle
    /// managers, none of them holding an arena larger than
    /// `max_arena_capacity` slots.
    pub fn with_limits(max_idle: usize, max_arena_capacity: usize) -> Self {
        ManagerPool {
            free: Mutex::new(Vec::new()),
            max_idle,
            max_arena_capacity,
            ..Default::default()
        }
    }

    /// The process-wide pool shared by every campaign in this process.
    pub fn global() -> &'static ManagerPool {
        static POOL: OnceLock<ManagerPool> = OnceLock::new();
        POOL.get_or_init(|| ManagerPool::new(Self::DEFAULT_MAX_IDLE))
    }

    /// Locks the free list, recovering from poisoning.  A worker that
    /// panics while holding the lock would otherwise cascade: the global
    /// pool stays poisoned forever and every later `acquire` — in this
    /// campaign and every subsequent one in the process — panics too.  The
    /// list is only a cache of reset arenas, so discarding it on poison is
    /// always safe; callers then repopulate it with fresh managers.
    fn free_list(&self) -> MutexGuard<'_, Vec<BddManager>> {
        match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                self.free.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// Takes a reset manager from the free list, or allocates a new one.
    pub fn acquire(&self) -> BddManager {
        match self.free_list().pop() {
            Some(manager) => {
                self.reuse_hits.fetch_add(1, Ordering::Relaxed);
                manager
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                BddManager::default()
            }
        }
    }

    /// Resets `manager` and returns it to the free list.  The manager is
    /// dropped instead — its memory returned to the allocator — if its
    /// arena outgrew the pool's high-water capacity mark or the list is
    /// already at `max_idle`.
    pub fn release(&self, mut manager: BddManager) {
        manager.reset();
        if manager.arena_capacity() > self.max_arena_capacity {
            self.discarded_oversize.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut free = self.free_list();
        if free.len() < self.max_idle {
            free.push(manager);
        } else {
            self.discarded_full.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of managers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free_list().len()
    }

    /// Records that a leased manager's job exhausted a resource budget
    /// (the campaign workers call this when a budget unwind made them
    /// discard the arena instead of recycling it).
    pub fn note_budget_exhausted(&self) {
        self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the pool's behaviour counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            idle: self.idle(),
            reuse_hits: self.reuse_hits.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            discarded_full: self.discarded_full.load(Ordering::Relaxed),
            discarded_oversize: self.discarded_oversize.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles_capacity() {
        let pool = ManagerPool::new(2);
        let mut m = pool.acquire();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let _ = m.xor(a, b);
        let grown = m.node_count();
        assert!(grown > 2);
        pool.release(m);
        assert_eq!(pool.idle(), 1);

        let m2 = pool.acquire();
        assert_eq!(pool.idle(), 0);
        // Reset: contents gone, arena back to the single terminal node.
        assert_eq!(m2.node_count(), 1);
        assert_eq!(m2.var_count(), 0);
        assert_eq!(m2.stats().resets, 1);
        let stats = pool.stats();
        assert_eq!(stats.reuse_hits, 1);
        assert_eq!(stats.fresh, 1);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = ManagerPool::new(1);
        pool.release(BddManager::new());
        pool.release(BddManager::new());
        assert_eq!(pool.idle(), 1, "releases beyond max_idle are dropped");
        assert_eq!(pool.stats().discarded_full, 1);
    }

    #[test]
    fn oversized_arenas_are_dropped_on_release() {
        // High-water mark below the default arena allocation: every release
        // is an oversize discard, so the pool never caches anything.
        let pool = ManagerPool::with_limits(4, 2);
        let manager = pool.acquire();
        assert!(manager.arena_capacity() > 2);
        pool.release(manager);
        let stats = pool.stats();
        assert_eq!(stats.idle, 0, "oversized manager must not be cached");
        assert_eq!(stats.discarded_oversize, 1);
        assert_eq!(stats.discarded_full, 0);

        // A generous mark recycles as before.
        let roomy = ManagerPool::with_limits(4, usize::MAX);
        roomy.release(roomy.acquire());
        assert_eq!(roomy.stats().idle, 1);
        assert_eq!(roomy.stats().discarded_oversize, 0);
    }

    #[test]
    fn a_poisoned_pool_recovers_instead_of_cascading() {
        let pool = ManagerPool::new(2);
        pool.release(BddManager::new());
        assert_eq!(pool.idle(), 1);
        // Poison the lock the way a crashing worker would: panic while
        // holding it.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = pool.free.lock().expect("not yet poisoned");
                    panic!("worker dies while holding the pool lock");
                })
                .join()
        });
        assert!(result.is_err(), "the worker did panic");
        // Every pool operation still works; the idle cache was discarded
        // and the recovery — previously silent — is counted.
        assert!(pool.stats().poison_recoveries >= 1);
        assert_eq!(pool.idle(), 0);
        let manager = pool.acquire();
        pool.release(manager);
        assert_eq!(pool.idle(), 1, "the pool caches managers again");
    }

    #[test]
    fn budget_exhaustions_are_counted() {
        let pool = ManagerPool::new(2);
        assert_eq!(pool.stats().budget_exhausted, 0);
        pool.note_budget_exhausted();
        pool.note_budget_exhausted();
        assert_eq!(pool.stats().budget_exhausted, 2);
    }

    #[test]
    fn reset_manager_reproduces_fresh_results() {
        let pool = ManagerPool::new(4);
        let mut dirty = pool.acquire();
        let x = dirty.new_var("x");
        let y = dirty.new_var("y");
        let _ = dirty.and(x, y);
        pool.release(dirty);

        let build = |m: &mut BddManager| {
            let p = m.new_var("p");
            let q = m.new_var("q");
            let f = m.xor(p, q);
            (f, m.node_count(), m.stats().ite_cache_misses)
        };
        let mut recycled = pool.acquire();
        let mut fresh = BddManager::new();
        assert_eq!(build(&mut recycled), build(&mut fresh));
    }
}
