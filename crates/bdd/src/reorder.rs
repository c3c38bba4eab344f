//! Dynamic variable reordering: the adjacent-level swap primitive and
//! Rudell-style sifting (DESIGN.md experiment E10, now in-kernel).
//!
//! The manager already routes every level comparison through the
//! `var_to_level` / `level_to_var` indirection, which is exactly what makes
//! in-place reordering possible: a swap of two adjacent levels rewrites the
//! interacting nodes *in their own arena slots*, so every `Bdd` handle —
//! rooted or not — keeps denoting the same Boolean function afterwards.
//! Sifting then moves one variable at a time through the whole order via
//! such swaps, parks it at the position that minimised the live node count
//! (Rudell's algorithm), and bounds the excursion with a growth cap.
//!
//! Two modes share the swap machinery:
//!
//! * [`BddManager::swap_adjacent_levels`] — a standalone swap that reclaims
//!   nothing.  Handle-safe under any usage (locals included) because no
//!   slot is ever freed; dead nodes simply wait for the next GC.
//! * [`BddManager::sift`] — runs after a [`BddManager::gc`] (so the arena
//!   holds exactly the root-reachable nodes), maintains exact reference
//!   counts during the pass, and reclaims nodes the moment a swap orphans
//!   them.  This is what keeps the *measured* size — the quantity sifting
//!   minimises — honest while the variable walks the order.

use std::time::Instant;

use crate::manager::BddManager;
use crate::node::{Bdd, Node};

/// The automatic GC/reordering policy installed via
/// [`BddManager::set_maintenance`] and consulted by
/// [`BddManager::maintain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainSettings {
    /// Minimum node count before an automatic GC pass pays for itself.
    pub gc_threshold: usize,
    /// Run a sifting pass after GC when the live set is above
    /// `sift_threshold`.
    pub sift: bool,
    /// Live-node count (post-GC) that triggers sifting.
    pub sift_threshold: usize,
    /// Sifting growth cap: while a variable explores the order, abort a
    /// direction once the live node count exceeds `max_growth` times the
    /// size at the start of that variable's sift.  `1.2` is the classic
    /// setting; larger values search harder, smaller values give up
    /// earlier.
    pub max_growth: f64,
}

impl Default for MaintainSettings {
    fn default() -> Self {
        MaintainSettings {
            gc_threshold: 1 << 15,
            sift: false,
            sift_threshold: 1 << 15,
            max_growth: 1.2,
        }
    }
}

/// Variables sifted per pass, most-populous levels first.  Sifting is
/// quadratic in the walk distance, and the long tail of sparsely-populated
/// variables (e.g. the thousands of memory-word bits of a paper-sized
/// core) contributes almost nothing to the size while each still costs a
/// full walk — capping the pass at the heavy hitters is the classic
/// engineering of Rudell's algorithm.
const SIFT_MAX_VARS: usize = 64;

/// Hard per-pass budget of adjacent-level swaps.  A pass stops starting
/// new variables once the budget is spent (the variable in flight still
/// parks at its best position), bounding sift time on very wide orders.
const SIFT_SWAP_BUDGET: u64 = 200_000;

/// Hard per-pass budget of *node rewrites* (interacting nodes processed by
/// swaps).  Level swaps are O(1) across empty levels but O(population)
/// through dense ones; on a paper-sized diagram one variable's full walk
/// can touch tens of millions of nodes, so the work — not just the swap
/// count — must be bounded.  When the budget runs out mid-walk the
/// variable still parks at the best position seen.
const SIFT_REWRITE_BUDGET: u64 = 500_000;

/// Outcome of one sifting pass, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiftOutcome {
    /// Live nodes when the pass started (after its leading GC).
    pub nodes_before: usize,
    /// Live nodes when the pass finished.
    pub nodes_after: usize,
    /// Adjacent-level swaps the pass performed.
    pub swaps: u64,
}

/// Reorder-scoped bookkeeping.  Reference counts exist only while a
/// reordering operation runs; the hot path never maintains them.
struct ReorderCtx {
    /// Per-slot reference count: parents among in-arena nodes plus one per
    /// root registration.  Only meaningful in `reclaim` mode.
    refs: Vec<u32>,
    /// Per-variable arena slots.  May contain stale entries (freed or
    /// rewritten to another variable); readers filter by `dead` and the
    /// node's current `var`.
    var_nodes: Vec<Vec<u32>>,
    /// Slots freed during this reorder operation.
    dead: Vec<bool>,
    /// Per-slot visit stamp for the O(population) duplicate filter in
    /// `swap_levels` (slot reuse can enter an index into a variable's list
    /// twice; sorting per swap would make long sift walks quadratic).
    stamp: Vec<u32>,
    /// Current stamp generation.
    stamp_gen: u32,
    /// Interacting nodes rewritten by swaps under this context (the unit
    /// of the sift work budget).
    rewrites: u64,
    /// Slots freed at least once under this context, even if since reused
    /// (a reused slot holds a different function, so any computed-table
    /// entry naming it from before the reorder is poison).
    freed_ever: Vec<bool>,
    /// Whether orphaned nodes are reclaimed (sift) or left for a later GC
    /// (standalone swap).
    reclaim: bool,
}

impl ReorderCtx {
    #[inline]
    fn ref_inc(&mut self, f: Bdd) {
        if self.reclaim && !f.is_terminal() {
            self.refs[f.index()] += 1;
        }
    }
}

impl BddManager {
    /// Swaps the variables at adjacent order positions `level` and
    /// `level + 1`, rewriting the interacting nodes in place.  Every
    /// existing handle keeps denoting the same function; nothing is
    /// reclaimed (orphaned nodes wait for the next [`BddManager::gc`]).
    ///
    /// # Panics
    /// Panics if `level + 1` is not a valid order position.
    pub fn swap_adjacent_levels(&mut self, level: u32) {
        assert!(
            (level as usize + 1) < self.var_count(),
            "swap needs two adjacent levels; level {level} is too deep"
        );
        let mut ctx = self.reorder_ctx(false);
        self.swap_levels(&mut ctx, level);
    }

    /// One Rudell sifting pass: collects garbage, then moves every variable
    /// (largest level population first) through the whole order via
    /// adjacent swaps and parks it where the live node count was smallest.
    /// `max_growth` bounds the excursion per variable (see
    /// [`MaintainSettings::max_growth`]).
    ///
    /// Requires the same safe point as [`BddManager::gc`]: every handle
    /// used afterwards must be reachable from the root registry.
    pub fn sift(&mut self, max_growth: f64) -> SiftOutcome {
        self.gc();
        self.sift_collected(max_growth)
    }

    /// [`BddManager::sift`] for a caller that has *just* collected (the
    /// arena must hold exactly the root-reachable nodes — the reference
    /// counts are derived from it).  [`BddManager::maintain`] uses this to
    /// avoid paying a second back-to-back O(arena) sweep after its own GC.
    pub(crate) fn sift_collected(&mut self, max_growth: f64) -> SiftOutcome {
        let started = Instant::now();
        let swaps_before = self.level_swaps;
        let nodes_before = self.live;
        let mut held: Option<ReorderCtx> = None;
        if self.var_count() >= 2 {
            let mut ctx = self.reorder_ctx(true);
            let mut order: Vec<u32> = (0..self.var_count() as u32).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(ctx.var_nodes[v as usize].len()));
            order.truncate(SIFT_MAX_VARS);
            for v in order {
                if self.level_swaps - swaps_before >= SIFT_SWAP_BUDGET
                    || ctx.rewrites >= SIFT_REWRITE_BUDGET
                {
                    break;
                }
                self.sift_var(&mut ctx, v, max_growth);
            }
            held = Some(ctx);
        }
        // Swaps freed the nodes their rewrites orphaned; any computed-table
        // entry naming a freed slot would alias whatever reuses it.  (The
        // leading GC already filtered the table against its own sweep, and
        // ITE never runs during the pass, so `dead` is the exact set to
        // purge.)  Entries over surviving handles stay valid: an in-place
        // swap preserves every live handle's function.
        if let Some(ctx) = held {
            self.drop_computed_entries(|slot| ctx.freed_ever[slot]);
        }
        self.reorder_passes += 1;
        self.sift_nanos += started.elapsed().as_nanos() as u64;
        SiftOutcome {
            nodes_before,
            nodes_after: self.live,
            swaps: self.level_swaps - swaps_before,
        }
    }

    /// Builds the reorder bookkeeping from the current arena.  In reclaim
    /// mode the caller must have run [`BddManager::gc`] first so that every
    /// non-free slot is root-reachable (otherwise unrooted locals would
    /// look dead and their subgraphs could be reclaimed out from under the
    /// caller).
    fn reorder_ctx(&self, reclaim: bool) -> ReorderCtx {
        let arena = self.nodes.len();
        let mut dead = vec![false; arena];
        for &slot in &self.free {
            dead[slot as usize] = true;
        }
        let mut refs = vec![0u32; if reclaim { arena } else { 0 }];
        let mut var_nodes = vec![Vec::new(); self.var_count()];
        for (index, node) in self.nodes.iter().enumerate().skip(1) {
            if dead[index] {
                continue;
            }
            let node = *node;
            var_nodes[node.var as usize].push(index as u32);
            if reclaim {
                if !node.lo.is_terminal() {
                    refs[node.lo.index()] += 1;
                }
                if !node.hi.is_terminal() {
                    refs[node.hi.index()] += 1;
                }
            }
        }
        if reclaim {
            for (&root, &count) in &self.roots {
                refs[root.index()] += count;
            }
            for frame in &self.root_frames {
                for &root in frame {
                    refs[root.index()] += 1;
                }
            }
        }
        ReorderCtx {
            refs,
            var_nodes,
            stamp: vec![0; arena],
            stamp_gen: 0,
            rewrites: 0,
            freed_ever: vec![false; arena],
            dead,
            reclaim,
        }
    }

    /// Moves variable `v` through the order and parks it at its best
    /// position.
    fn sift_var(&mut self, ctx: &mut ReorderCtx, v: u32, max_growth: f64) {
        let levels = self.var_count() as u32;
        let start_level = self.var_to_level[v as usize];
        let limit = ((self.live as f64) * max_growth.max(1.0)).ceil() as usize;
        let mut best = (self.live, start_level);
        // Explore the nearer end first so the expected swap count is lower.
        let down_first = (levels - 1 - start_level) <= start_level;
        for phase in 0..2 {
            let down = down_first == (phase == 0);
            loop {
                let level = self.var_to_level[v as usize];
                if down {
                    if level + 1 >= levels {
                        break;
                    }
                    self.swap_levels(ctx, level);
                } else {
                    if level == 0 {
                        break;
                    }
                    self.swap_levels(ctx, level - 1);
                }
                let here = (self.live, self.var_to_level[v as usize]);
                if here.0 < best.0 {
                    best = here;
                }
                if here.0 > limit || ctx.rewrites >= SIFT_REWRITE_BUDGET {
                    break;
                }
            }
            if ctx.rewrites >= SIFT_REWRITE_BUDGET {
                break;
            }
        }
        // Park at the best position seen.
        loop {
            let level = self.var_to_level[v as usize];
            match level.cmp(&best.1) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => self.swap_levels(ctx, level),
                std::cmp::Ordering::Greater => self.swap_levels(ctx, level - 1),
            }
        }
    }

    /// The swap primitive: exchanges the variables at levels `l` and
    /// `l + 1`.
    ///
    /// Let `x` be the variable at `l` and `y` at `l + 1`.  A node
    /// `x ? f1 : f0` whose cofactors touch `y` is rewritten *in its own
    /// slot* to `y ? (x ? f11 : f01) : (x ? f10 : f00)` — same function
    /// under the swapped order, same handle.  Nodes of `x` that do not
    /// touch `y`, and all nodes of `y`, keep their content; only their
    /// level changes through the indirection tables.  Fresh inner `x`
    /// nodes are hash-consed as usual, and (in reclaim mode) `y` nodes
    /// orphaned by the rewrite are freed immediately so the sift's size
    /// measure stays exact.
    fn swap_levels(&mut self, ctx: &mut ReorderCtx, l: u32) {
        self.note_peak();
        let x = self.level_to_var[l as usize];
        let y = self.level_to_var[(l + 1) as usize];

        // Take, filter and dedupe the x population (stale entries from slot
        // reuse are dropped here).  Stamp-based visit marking keeps this
        // O(population) per swap — sorting here would make a long sift
        // walk quadratic in the heavy variables' node counts.
        ctx.stamp_gen += 1;
        let generation = ctx.stamp_gen;
        let raw = std::mem::take(&mut ctx.var_nodes[x as usize]);
        let mut xs: Vec<u32> = Vec::with_capacity(raw.len());
        for i in raw {
            let index = i as usize;
            if !ctx.dead[index] && self.nodes[index].var == x && ctx.stamp[index] != generation {
                ctx.stamp[index] = generation;
                xs.push(i);
            }
        }

        // Phase 1: unlink every interacting node from its unique-table
        // chain so the rewrites cannot collide with their own old keys.
        let mut keep = Vec::with_capacity(xs.len());
        let mut interacting = Vec::new();
        for &i in &xs {
            let node = self.nodes[i as usize];
            let lo_is_y = !node.lo.is_terminal() && self.nodes[node.lo.index()].var == y;
            let hi_is_y = !node.hi.is_terminal() && self.nodes[node.hi.index()].var == y;
            if lo_is_y || hi_is_y {
                self.unlink(i);
                interacting.push(i);
            } else {
                keep.push(i);
            }
        }
        ctx.var_nodes[x as usize] = keep;

        // Phase 2: rewrite.  New children are referenced before the old
        // ones are dereferenced so shared grandchildren cannot be freed in
        // between.
        ctx.rewrites += interacting.len() as u64;
        for i in interacting {
            let node = self.nodes[i as usize];
            let (f00, f01) = self.cofactors_at(node.lo, y);
            let (f10, f11) = self.cofactors_at(node.hi, y);
            let new_lo = self.swap_mk(ctx, x, f00, f10);
            ctx.ref_inc(new_lo);
            let new_hi = self.swap_mk(ctx, x, f01, f11);
            ctx.ref_inc(new_hi);
            self.swap_deref(ctx, node.lo);
            self.swap_deref(ctx, node.hi);
            // `new_lo` is always a regular edge: `node.lo` is regular by
            // the canonical-form invariant, and a regular node's low
            // cofactor is regular too — so the in-place rewrite never needs
            // to change the slot's polarity, and every outstanding handle
            // (of either polarity) keeps denoting the same function.
            debug_assert!(!new_lo.is_complement(), "low-edge-regular invariant");
            self.nodes[i as usize] = Node {
                var: y,
                lo: new_lo,
                hi: new_hi,
                next: 0,
            };
            self.link(i);
            ctx.var_nodes[y as usize].push(i);
        }

        self.level_to_var[l as usize] = y;
        self.level_to_var[(l + 1) as usize] = x;
        self.var_to_level[x as usize] = l + 1;
        self.var_to_level[y as usize] = l;
        self.level_swaps += 1;
    }

    /// `mk_node` for the swap path: the same low-edge-regular
    /// canonicalisation, additionally keeping the reorder bookkeeping
    /// (reference counts, per-variable population, dead set) in sync.
    fn swap_mk(&mut self, ctx: &mut ReorderCtx, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let complement = lo.is_complement();
        let (lo, hi) = if complement {
            (lo.negate(), hi.negate())
        } else {
            (lo, hi)
        };
        let (slot, created) = self.find_or_insert(var, lo, hi);
        let index = slot as usize;
        if !created {
            return Bdd::from_parts(index, complement);
        }
        if index < ctx.dead.len() {
            // A recycled slot.
            ctx.dead[index] = false;
            if ctx.reclaim {
                ctx.refs[index] = 0;
            }
        } else {
            ctx.dead.push(false);
            ctx.stamp.push(0);
            ctx.freed_ever.push(false);
            if ctx.reclaim {
                ctx.refs.push(0);
            }
        }
        // Reference counts are per-slot, so the children's polarity is
        // irrelevant here.
        ctx.ref_inc(lo);
        ctx.ref_inc(hi);
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        ctx.var_nodes[var as usize].push(slot);
        Bdd::from_parts(index, complement)
    }

    /// Drops one reference to `f`; in reclaim mode, frees the node (and
    /// cascades into its children) when the count reaches zero.
    fn swap_deref(&mut self, ctx: &mut ReorderCtx, f: Bdd) {
        if !ctx.reclaim || f.is_terminal() {
            return;
        }
        let index = f.index();
        debug_assert!(ctx.refs[index] > 0, "dereferencing an unreferenced node");
        ctx.refs[index] -= 1;
        if ctx.refs[index] == 0 {
            let node = self.nodes[index];
            self.unlink(index as u32);
            self.free.push(index as u32);
            ctx.dead[index] = true;
            ctx.freed_ever[index] = true;
            self.live -= 1;
            self.gc_reclaimed += 1;
            self.swap_deref(ctx, node.lo);
            self.swap_deref(ctx, node.hi);
        }
    }

    /// The current variable order, outermost level first (`level_to_var`).
    pub fn current_order(&self) -> Vec<u32> {
        self.level_to_var.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Assignment;

    /// Evaluates `f` on every assignment of `vars` — the order-independent
    /// semantics of the function, one entry per truth-table row.
    fn truth_mask(m: &BddManager, f: Bdd, vars: usize) -> Vec<bool> {
        (0..(1u64 << vars))
            .map(|row| {
                let asg: Assignment = (0..vars as u32).map(|v| (v, row >> v & 1 == 1)).collect();
                m.eval(f, &asg) == Some(true)
            })
            .collect()
    }

    /// A pool of random functions over `vars` variables (driven by the
    /// workspace's shared deterministic test generator).
    fn random_pool(m: &mut BddManager, vars: usize, ops: usize, seed: u64) -> Vec<Bdd> {
        let mut rng = ssr_prop::Rng::new(seed);
        let mut pool: Vec<Bdd> = (0..vars).map(|i| m.new_var(format!("v{i}"))).collect();
        for _ in 0..ops {
            let a = pool[rng.index(pool.len())];
            let b = pool[rng.index(pool.len())];
            let c = pool[rng.index(pool.len())];
            let next = match rng.below(5) {
                0 => m.and(a, b),
                1 => m.or(a, b),
                2 => m.xor(a, b),
                3 => m.not(a),
                _ => m.ite(a, b, c),
            };
            pool.push(next);
        }
        pool
    }

    /// Every handle must keep denoting the same function across any
    /// sequence of adjacent swaps — rooted or not, because the standalone
    /// swap reclaims nothing.
    #[test]
    fn swaps_preserve_every_handles_function() {
        const VARS: usize = 6;
        let mut m = BddManager::new();
        let pool = random_pool(&mut m, VARS, 60, 0xDECAF);
        let masks: Vec<Vec<bool>> = pool.iter().map(|&f| truth_mask(&m, f, VARS)).collect();
        let mut rng = ssr_prop::Rng::new(0x5EED);
        for _ in 0..40 {
            let l = rng.below(VARS as u64 - 1) as u32;
            m.swap_adjacent_levels(l);
            for (&f, mask) in pool.iter().zip(&masks) {
                assert_eq!(&truth_mask(&m, f, VARS), mask, "swap changed a function");
            }
        }
        assert!(m.stats().level_swaps >= 40);
    }

    /// A double swap restores the exact order, and canonicity holds at
    /// every intermediate order (same function → same handle).
    #[test]
    fn swap_is_involutive_on_the_order() {
        let mut m = BddManager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let f = {
            let ab = m.xor(a, b);
            m.or(ab, c)
        };
        let order0 = m.current_order();
        m.swap_adjacent_levels(0);
        assert_ne!(m.current_order(), order0);
        m.swap_adjacent_levels(0);
        assert_eq!(m.current_order(), order0);
        // Rebuilding the same function finds the same (rewritten-in-place)
        // node.
        let g = {
            let ab = m.xor(a, b);
            m.or(ab, c)
        };
        assert_eq!(f, g, "canonicity after a swap round trip");
    }

    /// GC reclaims garbage, keeps roots, and reclaimed slots are reused.
    #[test]
    fn gc_reclaims_unrooted_nodes_and_keeps_roots() {
        const VARS: usize = 6;
        let mut m = BddManager::new();
        let pool = random_pool(&mut m, VARS, 80, 0xBEE);
        let kept = pool[pool.len() - 1];
        let kept_mask = truth_mask(&m, kept, VARS);
        let live_before = m.node_count();
        m.protect(kept);
        let reclaimed = m.gc();
        assert!(reclaimed > 0, "the pool must contain garbage");
        assert!(m.node_count() < live_before);
        assert_eq!(truth_mask(&m, kept, VARS), kept_mask, "roots survive");
        let stats = m.stats();
        assert_eq!(stats.gc_passes, 1);
        assert_eq!(stats.gc_reclaimed, reclaimed as u64);
        assert_eq!(stats.live_nodes, m.node_count());
        assert!(stats.peak_live_nodes >= live_before);
        // Reclaimed slots are reused: rebuilding work does not regrow the
        // arena beyond its old footprint.
        let arena = m.arena_len();
        let x = m.literal(0);
        let y = m.literal(1);
        let _ = m.xor(x, y);
        assert_eq!(m.arena_len(), arena, "new nodes reuse freed slots");
        m.release(kept);
        m.gc();
        assert_eq!(m.node_count(), 1, "releasing the root frees everything");
    }

    /// Scoped root frames protect exactly while they are open.
    #[test]
    fn root_frames_scope_protection() {
        let mut m = BddManager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let f = m.and(a, b);
        m.push_root_frame();
        m.root(f);
        m.gc();
        assert_eq!(m.lo(f), Bdd::FALSE, "frame-rooted node survives");
        m.pop_root_frame();
        m.gc();
        assert_eq!(m.node_count(), 1, "popping the frame releases the set");
    }

    /// Sifting preserves semantics of rooted functions and cannot exceed
    /// the pre-sift size at its final resting order beyond the best it saw.
    #[test]
    fn sift_preserves_rooted_functions_and_counts_passes() {
        const VARS: usize = 8;
        let mut m = BddManager::new();
        // A function with a strongly order-sensitive BDD: the equality of
        // two 4-bit words declared sequentially (worst order).
        let bits: Vec<Bdd> = (0..VARS).map(|i| m.new_var(format!("s{i}"))).collect();
        let mut f = Bdd::TRUE;
        for i in 0..4 {
            let eq = m.xnor(bits[i], bits[4 + i]);
            f = m.and(f, eq);
        }
        let mask = truth_mask(&m, f, VARS);
        m.protect(f);
        m.gc();
        let before = m.node_count();
        let outcome = m.sift(1.5);
        assert_eq!(outcome.nodes_before, before);
        assert_eq!(outcome.nodes_after, m.node_count());
        assert!(outcome.nodes_after < before, "sequential equality shrinks");
        assert!(outcome.swaps > 0);
        assert_eq!(truth_mask(&m, f, VARS), mask, "sift preserved the function");
        let stats = m.stats();
        assert_eq!(stats.reorder_passes, 1);
        assert!(stats.level_swaps >= outcome.swaps);
    }

    /// `maintain` is a no-op without a policy and honours thresholds with
    /// one.
    #[test]
    fn maintain_respects_policy_and_thresholds() {
        let mut m = BddManager::new();
        let pool = random_pool(&mut m, 6, 60, 0xCAFE);
        m.maintain();
        assert_eq!(m.stats().gc_passes, 0, "no policy, no GC");
        m.protect(*pool.last().expect("non-empty"));
        m.set_maintenance(Some(MaintainSettings {
            gc_threshold: 1,
            sift: true,
            sift_threshold: 1,
            max_growth: 1.2,
        }));
        m.maintain();
        let stats = m.stats();
        assert_eq!(stats.gc_passes, 1, "one sweep serves both GC and sift");
        assert_eq!(stats.reorder_passes, 1);
        assert!(m.sift_nanos() > 0);
    }
}
