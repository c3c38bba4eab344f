//! The [`BddManager`]: node arena, unique table and all BDD algorithms.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;

use crate::error::{BddError, BudgetKind};
use crate::hash::{mix2, FxHashMap, FxHashSet};
use crate::node::{Bdd, Node};

/// A (partial) assignment of Boolean values to BDD variables.
///
/// Used both as the result of satisfying-assignment extraction and as the
/// input to [`BddManager::eval`].  Variables not mentioned are unconstrained.
///
/// ```
/// use ssr_bdd::{Assignment, BddManager};
/// let mut m = BddManager::new();
/// let a = m.new_var("a");
/// let b = m.new_var("b");
/// let f = m.and(a, b);
/// let mut asg = Assignment::new();
/// asg.set(0, true);
/// asg.set(1, true);
/// assert_eq!(m.eval(f, &asg), Some(true));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    values: BTreeMap<u32, bool>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets variable `var` to `value`, returning the previous value if any.
    pub fn set(&mut self, var: u32, value: bool) -> Option<bool> {
        self.values.insert(var, value)
    }

    /// Returns the value assigned to `var`, if any.
    pub fn get(&self, var: u32) -> Option<bool> {
        self.values.get(&var).copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.values.iter().map(|(&v, &b)| (v, b))
    }

    /// Removes the binding for `var`, returning the removed value if any.
    ///
    /// This is the O(log n) inverse of [`Assignment::set`], used by
    /// enumeration code that unwinds a binding on frame exit without
    /// rebuilding the whole assignment.
    pub fn unset(&mut self, var: u32) -> Option<bool> {
        self.values.remove(&var)
    }
}

impl FromIterator<(u32, bool)> for Assignment {
    fn from_iter<I: IntoIterator<Item = (u32, bool)>>(iter: I) -> Self {
        Assignment {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, b) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "x{}={}", v, if b { 1 } else { 0 })?;
            first = false;
        }
        Ok(())
    }
}

/// Aggregate statistics about a manager, useful for benchmarking and for the
/// variable-ordering ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Total arena slots (including both terminals and free slots awaiting
    /// reuse).  This is the high-water mark of the arena's memory footprint.
    pub nodes_allocated: usize,
    /// Nodes currently allocated and not reclaimed (terminals included).
    /// Between garbage-collection passes this counts dead-but-unswept nodes
    /// too; immediately after [`BddManager::gc`] it is the true live count.
    pub live_nodes: usize,
    /// Highest value [`BddStats::live_nodes`] ever reached — the kernel's
    /// peak working set, the number the ordering/GC work exists to shrink.
    pub peak_live_nodes: usize,
    /// Mark-and-sweep passes run ([`BddManager::gc`]).
    pub gc_passes: u64,
    /// Total nodes reclaimed across all GC passes.
    pub gc_reclaimed: u64,
    /// Number of declared variables.
    pub variables: usize,
    /// Hits recorded on the ITE computed table.
    pub ite_cache_hits: u64,
    /// Misses recorded on the ITE computed table.
    pub ite_cache_misses: u64,
    /// Standard-triple rewrites applied (equal-argument absorption and
    /// commutative operand swaps), counted per rewrite — including
    /// rewrites that short-circuit to a terminal result without probing
    /// the cache.  Commutatively-equivalent calls thereby share one slot.
    pub ite_normalised: u64,
    /// Times this manager was recycled via [`BddManager::reset`].
    pub resets: u64,
}

impl BddStats {
    /// Fraction of ITE computed-table probes that hit, in `[0, 1]`; `0.0`
    /// when no probe has happened yet.
    pub fn ite_hit_rate(&self) -> f64 {
        let total = self.ite_cache_hits + self.ite_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.ite_cache_hits as f64 / total as f64
        }
    }
}

/// Resource ceilings for a governed manager, installed via
/// [`BddManager::set_budget`].
///
/// A ceiling of `None` means unlimited (the default).  Exhausting any
/// installed ceiling raises [`BddError::BudgetExceeded`] by *unwinding*
/// out of the hot path (`std::panic::panic_any` with a `BddError`
/// payload), so the thousands of infallible call sites need no `Result`
/// plumbing; a governed caller wraps the whole computation in
/// `catch_unwind` and downcasts the payload.  The manager's arena stays
/// internally consistent after the unwind, but in-flight handles are
/// unspecified — callers should [`BddManager::reset`] (or discard) the
/// manager before reuse.
///
/// Node and step ceilings are deterministic: the same operation sequence
/// exhausts at the same point regardless of thread count or machine
/// speed.  The wall-clock deadline is inherently not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSettings {
    /// Ceiling on live (allocated-minus-reclaimed) nodes, terminals
    /// included; checked at every allocation.
    pub max_live_nodes: Option<u64>,
    /// Ceiling on ITE computed-table misses (the recursion's unit of
    /// work); checked at every miss.
    pub max_ite_steps: Option<u64>,
    /// Wall-clock deadline; probed periodically inside the ITE recursion
    /// and at every explicit [`BddManager::check_deadline`] call.
    pub deadline: Option<Instant>,
    /// The deadline's originally-configured span in milliseconds, reported
    /// as the `limit` of a `budget_time` error (informational only).
    pub deadline_ms: u64,
}

/// The automatic GC policy installed via [`BddManager::set_maintenance`]
/// and consulted by [`BddManager::maintain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainSettings {
    /// Minimum node count before an automatic GC pass pays for itself.
    pub gc_threshold: usize,
}

impl Default for MaintainSettings {
    fn default() -> Self {
        MaintainSettings {
            gc_threshold: 1 << 15,
        }
    }
}

/// ITE misses between deadline probes: frequent enough that an exploding
/// recursion overshoots its deadline by milliseconds, rare enough that
/// `Instant::now` stays off the hot path.
const DEADLINE_PROBE_INTERVAL: u64 = 8192;

/// Unwinds out of a hot path with a typed [`BddError::BudgetExceeded`]
/// payload.  `#[cold]` keeps the exhaustion branch off the fast path's
/// icache footprint.
#[cold]
#[inline(never)]
fn exhausted(kind: BudgetKind, limit: u64) -> ! {
    std::panic::panic_any(BddError::BudgetExceeded { kind, limit })
}

/// One slot of the direct-mapped ITE computed table: a normalised triple
/// and its result.  `f == TRUE` marks an empty slot — a normalised
/// condition is never a terminal.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    f: Bdd,
    g: Bdd,
    h: Bdd,
    r: Bdd,
}

// One slot per unique-table bucket: keep it at 16 bytes.
const _: () = assert!(std::mem::size_of::<CacheSlot>() == 16);

impl CacheSlot {
    const EMPTY: CacheSlot = CacheSlot {
        f: Bdd::TRUE,
        g: Bdd::TRUE,
        h: Bdd::TRUE,
        r: Bdd::TRUE,
    };
}

/// Hash of a three-word key — a node `(var, lo, hi)` or an ITE triple —
/// for the power-of-two tables.  The tables index by the low bits, so
/// doubling a table splits slot `b` into `b` and `b + n`.
#[inline]
fn table_hash(a: u32, b: u32, c: u32) -> usize {
    let x = mix2((u64::from(a) << 32) | u64::from(b), u64::from(c));
    // The multiply leaves the low bits weak; fold the strong high half in.
    (x ^ (x >> 32)) as usize
}

/// The BDD manager: owns the node arena, the unique table and all caches.
///
/// See the crate-level documentation for an overview and an example.
pub struct BddManager {
    nodes: Vec<Node>,
    /// The unique table: one chain head per bucket (`0` = empty), the
    /// chains threaded through [`Node::next`].  Power-of-two length, grown
    /// in place by doubling so its load factor stays at most one.
    buckets: Vec<u32>,
    /// Arena slots reclaimed by GC, reused LIFO by `mk_node`.
    free: Vec<u32>,
    /// The ITE computed table: direct-mapped and lossy (the last writer
    /// wins), one slot per unique-table bucket, grown with the buckets.
    computed: Vec<CacheSlot>,
    /// Bucket count at construction, which [`BddManager::reset`] restores.
    initial_buckets: usize,
    var_names: Vec<String>,
    /// Name → variable index, maintained by `new_var` (first declaration
    /// wins for duplicate names, matching the old linear-scan semantics).
    name_to_var: FxHashMap<String, u32>,
    /// Persistent external roots: handle → protect count.  Everything
    /// reachable from a root survives [`BddManager::gc`].
    roots: FxHashMap<Bdd, u32>,
    /// Scoped root sets: each frame is a batch of handles rooted together
    /// and released together ([`BddManager::push_root_frame`]).
    root_frames: Vec<Vec<Bdd>>,
    /// Allocated-minus-reclaimed node count (terminals included).
    live: usize,
    /// High-water mark of `live`.
    peak_live: usize,
    gc_passes: u64,
    gc_reclaimed: u64,
    /// Automatic GC policy for [`BddManager::maintain`]; `None` (the
    /// default) keeps the kernel on the historical never-free path.
    maintenance: Option<MaintainSettings>,
    /// Live nodes left by the last automatic GC pass (`0` before the
    /// first); the next pass fires once that many again have accumulated.
    gc_survivors: usize,
    /// Reusable per-call memo table for `restrict`/`compose`/`rename` and
    /// quantification.  The recursions take it out of the manager
    /// (`mem::take`), clear it (which keeps capacity) and put it back, so
    /// repeated calls stop paying a fresh allocation each time.
    scratch: FxHashMap<Bdd, Bdd>,
    ite_hits: u64,
    ite_misses: u64,
    ite_normalised: u64,
    resets: u64,
    /// The installed budget, kept for [`BddManager::budget`] and for
    /// error reporting.
    budget: BudgetSettings,
    /// Unpacked live-node ceiling (`usize::MAX` = unlimited), compared on
    /// the `mk_node` hot path without an `Option` branch.
    node_ceiling: usize,
    /// Unpacked ITE-step ceiling (`u64::MAX` = unlimited).
    step_ceiling: u64,
    /// ITE computed-table misses since the budget was installed — the
    /// step counter the ceiling is compared against.
    ite_steps: u64,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("variables", &self.var_names.len())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal node.
    pub fn new() -> Self {
        Self::with_capacity(1 << 12)
    }

    /// Creates a manager pre-sizing the node arena for `capacity` nodes and
    /// the unique and computed tables for as many (rounded up to a power
    /// of two).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut nodes = Vec::with_capacity(capacity.max(1));
        // Index 0: the single TRUE terminal; FALSE is its complement edge.
        nodes.push(Node::terminal());
        let buckets = capacity.max(2).next_power_of_two();
        BddManager {
            nodes,
            buckets: vec![0; buckets],
            free: Vec::new(),
            computed: vec![CacheSlot::EMPTY; buckets],
            initial_buckets: buckets,
            var_names: Vec::new(),
            name_to_var: FxHashMap::default(),
            roots: FxHashMap::default(),
            root_frames: Vec::new(),
            live: 1,
            peak_live: 1,
            gc_passes: 0,
            gc_reclaimed: 0,
            maintenance: None,
            gc_survivors: 0,
            scratch: FxHashMap::default(),
            ite_hits: 0,
            ite_misses: 0,
            ite_normalised: 0,
            resets: 0,
            budget: BudgetSettings::default(),
            node_ceiling: usize::MAX,
            step_ceiling: u64::MAX,
            ite_steps: 0,
        }
    }

    /// Clears the manager back to its freshly-constructed state — no
    /// variables, only the terminal node — while keeping every
    /// allocation (arena, unique table, computed table, scratch cache) at
    /// its current capacity.
    ///
    /// A reset manager is observationally identical to a new one: the same
    /// sequence of operations produces the same handles, node counts and
    /// statistics (except the [`BddStats::resets`] telemetry counter, which
    /// survives).  The tables shrink back to their construction-time size
    /// for this — a lossy computed table's hit counts depend on its size —
    /// and regrow in place within the kept capacity.  This is what lets a
    /// campaign engine pool managers across jobs without paying
    /// cold-allocation cost per job and without perturbing deterministic
    /// reports.
    pub fn reset(&mut self) {
        self.nodes.truncate(1);
        self.buckets.clear();
        self.buckets.resize(self.initial_buckets, 0);
        self.free.clear();
        self.computed.clear();
        self.computed.resize(self.initial_buckets, CacheSlot::EMPTY);
        self.var_names.clear();
        self.name_to_var.clear();
        self.roots.clear();
        self.root_frames.clear();
        self.live = 1;
        self.peak_live = 1;
        self.gc_passes = 0;
        self.gc_reclaimed = 0;
        self.maintenance = None;
        self.gc_survivors = 0;
        self.scratch.clear();
        self.ite_hits = 0;
        self.ite_misses = 0;
        self.ite_normalised = 0;
        self.resets += 1;
        // Budgets never survive a reset: a recycled pool manager must not
        // inherit the previous job's ceilings (or its step count).
        self.budget = BudgetSettings::default();
        self.node_ceiling = usize::MAX;
        self.step_ceiling = u64::MAX;
        self.ite_steps = 0;
    }

    // ------------------------------------------------------------------
    // Resource budgets
    // ------------------------------------------------------------------

    /// Installs (or clears, with the default settings) the resource
    /// ceilings this manager enforces.  Also resets the step counter, so a
    /// budget governs the work *from this call on*.  [`BddManager::reset`]
    /// clears any installed budget.
    pub fn set_budget(&mut self, budget: BudgetSettings) {
        self.budget = budget;
        self.node_ceiling = budget
            .max_live_nodes
            .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
        self.step_ceiling = budget.max_ite_steps.unwrap_or(u64::MAX);
        self.ite_steps = 0;
    }

    /// The currently installed budget (all-`None` when ungoverned).
    pub fn budget(&self) -> BudgetSettings {
        self.budget
    }

    /// ITE steps (computed-table misses) consumed since the budget was
    /// installed.
    pub fn ite_steps(&self) -> u64 {
        self.ite_steps
    }

    /// Checks the installed wall-clock deadline *now* (the ITE recursion
    /// probes it only every `DEADLINE_PROBE_INTERVAL` misses; checkers
    /// call this at their per-step safe points for a tighter bound).
    ///
    /// # Panics
    /// Unwinds with a [`BddError::BudgetExceeded`] payload once the
    /// deadline has passed — see [`BudgetSettings`] for the contract.
    #[inline]
    pub fn check_deadline(&self) {
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                exhausted(BudgetKind::Time, self.budget.deadline_ms);
            }
        }
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    /// Declares a fresh variable appended at the bottom of the order and
    /// returns its positive literal.  The variable order is the
    /// declaration order: a variable's index is its level.
    pub fn new_var(&mut self, name: impl Into<String>) -> Bdd {
        let var = self.var_names.len() as u32;
        let name = name.into();
        self.name_to_var.entry(name.clone()).or_insert(var);
        self.var_names.push(name);
        self.mk_node(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// Declares `n` fresh variables named `prefix[0]`, `prefix[1]`, ... and
    /// returns their positive literals in index order.
    pub fn new_vars(&mut self, prefix: &str, n: usize) -> Vec<Bdd> {
        (0..n)
            .map(|i| self.new_var(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Lookup-or-declare: the positive literal of the variable named
    /// `name`, declaring it fresh (appended at the bottom of the order)
    /// only when no variable of that name exists yet.
    ///
    /// Model and property builders declare through this instead of
    /// [`BddManager::new_var`], so assertions built into one arena (a
    /// whole-suite job) that name the same variable share it instead of
    /// shadowing it with a duplicate fresh variable.
    pub fn declare(&mut self, name: impl Into<String>) -> Bdd {
        let name = name.into();
        match self.var_by_name(&name) {
            Some(var) => self.literal(var),
            None => self.new_var(name),
        }
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// The positive literal of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` has not been declared.
    pub fn literal(&mut self, var: u32) -> Bdd {
        assert!(
            (var as usize) < self.var_names.len(),
            "variable {var} not declared"
        );
        self.mk_node(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negative literal of variable `var`.
    pub fn nliteral(&mut self, var: u32) -> Bdd {
        assert!(
            (var as usize) < self.var_names.len(),
            "variable {var} not declared"
        );
        self.mk_node(var, Bdd::TRUE, Bdd::FALSE)
    }

    /// Name of variable `var`, if declared.
    pub fn var_name(&self, var: u32) -> Option<&str> {
        self.var_names.get(var as usize).map(|s| s.as_str())
    }

    /// Looks up a variable index by name via the map `new_var` maintains
    /// (O(1); for duplicate names the first declaration wins, as with the
    /// linear scan this replaced).
    pub fn var_by_name(&self, name: &str) -> Option<u32> {
        self.name_to_var.get(name).copied()
    }

    // ------------------------------------------------------------------
    // Node primitives
    // ------------------------------------------------------------------

    /// The decision variable of `f`, or `None` for terminals.
    pub fn var_of(&self, f: Bdd) -> Option<u32> {
        let n = self.nodes[f.index()];
        if n.var == Node::TERMINAL_VAR {
            None
        } else {
            Some(n.var)
        }
    }

    /// Low (`var = 0`) cofactor edge of `f`, with `f`'s complement
    /// attribute pushed into the edge (so the returned handle denotes the
    /// cofactor of the *function* `f`, not of the underlying node).
    ///
    /// # Panics
    /// Panics if `f` is a terminal.
    pub fn lo(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminal nodes have no cofactors");
        Bdd(self.nodes[f.index()].lo.0 ^ (f.0 & 1))
    }

    /// High (`var = 1`) cofactor edge of `f`, with `f`'s complement
    /// attribute pushed into the edge.
    ///
    /// # Panics
    /// Panics if `f` is a terminal.
    pub fn hi(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminal nodes have no cofactors");
        Bdd(self.nodes[f.index()].hi.0 ^ (f.0 & 1))
    }

    /// The level of `f`'s root variable, which is its index
    /// (`Node::TERMINAL_VAR`, which sorts last, for terminals).
    #[inline]
    fn level(&self, f: Bdd) -> u32 {
        self.nodes[f.index()].var
    }

    #[inline]
    fn mk_node(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        // Canonical form: a node's low edge is never complemented.  When the
        // requested low edge is, strip the polarity from both children and
        // complement the returned handle instead — every function keeps
        // exactly one representation, and `f`/`¬f` share one node.
        let complement = lo.is_complement();
        let (lo, hi) = if complement {
            (lo.negate(), hi.negate())
        } else {
            (lo, hi)
        };
        let (slot, created) = self.find_or_insert(var, lo, hi);
        // `live` is monotone between reclamations, so the peak is sampled
        // where it can drop (GC, `stats`) instead of being tracked here on
        // the allocation hot path.
        if created && self.live > self.node_ceiling {
            exhausted(BudgetKind::Nodes, self.node_ceiling as u64);
        }
        Bdd::from_parts(slot as usize, complement)
    }

    /// The unique-table bucket of the node key `(var, lo, hi)`.
    #[inline]
    fn bucket(&self, var: u32, lo: Bdd, hi: Bdd) -> usize {
        table_hash(var, lo.0, hi.0) & (self.buckets.len() - 1)
    }

    /// The arena slot holding the node `(var, lo, hi)`, and whether it was
    /// just created: found on its unique-table chain, or else stored in a
    /// free (or fresh) slot, linked at the head of the chain and counted
    /// live.  The tables double once the load factor would pass one.
    #[inline]
    fn find_or_insert(&mut self, var: u32, lo: Bdd, hi: Bdd) -> (u32, bool) {
        let bucket = self.bucket(var, lo, hi);
        let mut slot = self.buckets[bucket];
        while slot != 0 {
            let node = &self.nodes[slot as usize];
            if node.var == var && node.lo == lo && node.hi == hi {
                return (slot, false);
            }
            slot = node.next;
        }
        let node = Node {
            var,
            lo,
            hi,
            next: self.buckets[bucket],
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.buckets[bucket] = slot;
        self.live += 1;
        if self.live > self.buckets.len() {
            self.grow_tables();
        }
        (slot, true)
    }

    /// Doubles the unique and computed tables in place: bucket `b` splits
    /// into `b` and `b + n` by the next hash bit, and each computed-table
    /// entry moves to the slot its hash now selects.  Growing within the
    /// capacity [`BddManager::reset`] kept allocates nothing, and no entry
    /// is lost.
    #[cold]
    #[inline(never)]
    fn grow_tables(&mut self) {
        let n = self.buckets.len();
        self.buckets.resize(2 * n, 0);
        for bucket in 0..n {
            let (mut low, mut high) = (0u32, 0u32);
            let mut slot = self.buckets[bucket];
            while slot != 0 {
                let node = self.nodes[slot as usize];
                let head = if table_hash(node.var, node.lo.0, node.hi.0) & n == 0 {
                    &mut low
                } else {
                    &mut high
                };
                self.nodes[slot as usize].next = *head;
                *head = slot;
                slot = node.next;
            }
            self.buckets[bucket] = low;
            self.buckets[bucket + n] = high;
        }
        self.computed.resize(2 * n, CacheSlot::EMPTY);
        for index in 0..n {
            let entry = self.computed[index];
            if table_hash(entry.f.0, entry.g.0, entry.h.0) & n != 0 {
                self.computed[index + n] = entry;
                self.computed[index] = CacheSlot::EMPTY;
            }
        }
    }

    /// Folds the current live count into the peak watermark.  Called at
    /// every point where `live` is about to decrease and from `stats()`.
    #[inline]
    fn note_peak(&mut self) {
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
    }

    /// Total number of nodes currently allocated in the arena (terminals
    /// included; reclaimed-and-unreused slots excluded).  Without GC this is
    /// the arena length; with GC it is the live count as of the last sweep
    /// plus everything allocated since.
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// Number of arena slots ever allocated (the arena's memory footprint),
    /// regardless of reclamation.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Allocated capacity of the node arena in slots.  [`reset`] keeps the
    /// allocation, so this is the manager's retained memory high-water mark
    /// — what a recycling pool pins if it caches the manager.
    ///
    /// [`reset`]: BddManager::reset
    pub fn arena_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Number of nodes reachable from `f` (the "size" of the BDD), counting
    /// the terminal.  Both polarities of an edge reach the same node, so
    /// `size(f) == size(¬f)`.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if seen.insert(n) && !n.is_terminal() {
                let node = self.nodes[n.index()];
                stack.push(node.lo.regular());
                stack.push(node.hi.regular());
            }
        }
        seen.len()
    }

    /// Drops the operation caches (unique table is kept — it is required for
    /// canonicity).  Useful between benchmark iterations.
    pub fn clear_caches(&mut self) {
        self.computed.fill(CacheSlot::EMPTY);
        self.scratch.clear();
    }

    // ------------------------------------------------------------------
    // External roots and garbage collection
    // ------------------------------------------------------------------

    /// Registers `f` as a persistent external root: `f` and everything
    /// reachable from it survive [`BddManager::gc`] until a matching
    /// [`BddManager::release`].  Protecting the same handle repeatedly
    /// nests (a protect count, not a flag).
    pub fn protect(&mut self, f: Bdd) {
        if !f.is_terminal() {
            *self.roots.entry(f).or_insert(0) += 1;
        }
    }

    /// Undoes one [`BddManager::protect`] of `f`.
    pub fn release(&mut self, f: Bdd) {
        if let Some(count) = self.roots.get_mut(&f) {
            if *count <= 1 {
                self.roots.remove(&f);
            } else {
                *count -= 1;
            }
        }
    }

    /// Opens a scoped root set.  Handles passed to [`BddManager::root`] are
    /// registered in the innermost open frame and all dropped together by
    /// [`BddManager::pop_root_frame`] — the cheap way for a checker to keep
    /// a whole trajectory alive across GC without per-handle bookkeeping.
    pub fn push_root_frame(&mut self) {
        self.root_frames.push(Vec::new());
    }

    /// Roots `f` in the innermost open frame.
    ///
    /// # Panics
    /// Panics if no frame is open.
    pub fn root(&mut self, f: Bdd) {
        if !f.is_terminal() {
            self.root_frames
                .last_mut()
                .expect("no root frame open (call push_root_frame first)")
                .push(f);
        }
    }

    /// Closes the innermost scoped root set.
    pub fn pop_root_frame(&mut self) {
        self.root_frames.pop();
    }

    /// Number of root registrations currently outstanding: the sum of
    /// nested protect counts plus every scoped frame entry (so duplicate
    /// registrations count in both cases).
    pub fn root_count(&self) -> usize {
        self.roots.values().map(|&c| c as usize).sum::<usize>()
            + self.root_frames.iter().map(Vec::len).sum::<usize>()
    }

    /// Mark-and-sweep garbage collection: every node unreachable from the
    /// registered roots (persistent and scoped) is reclaimed and unlinked
    /// from its unique-table chain, and computed-table entries naming a
    /// reclaimed node are dropped (reclaimed slots are reused, so stale
    /// entries would otherwise alias new nodes).  Returns the number of
    /// nodes reclaimed.
    ///
    /// Handles not reachable from a root are dangling afterwards; callers
    /// must [`BddManager::protect`]/[`BddManager::root`] everything they
    /// intend to keep.  Declared variables survive (their literal nodes are
    /// rebuilt on demand), and reclaimed slots are reused in a
    /// deterministic (descending-index) order, so a given operation
    /// sequence still reproduces identical handles and statistics.
    pub fn gc(&mut self) -> usize {
        self.note_peak();
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true; // the single terminal node
        let mut stack: Vec<Bdd> = Vec::with_capacity(self.root_count());
        stack.extend(self.roots.keys().copied());
        for frame in &self.root_frames {
            stack.extend(frame.iter().copied());
        }
        while let Some(f) = stack.pop() {
            let index = f.index();
            if marked[index] {
                continue;
            }
            marked[index] = true;
            let node = self.nodes[index];
            if !marked[node.lo.index()] {
                stack.push(node.lo);
            }
            if !marked[node.hi.index()] {
                stack.push(node.hi);
            }
        }

        // Survivors stay where they are; only the dead leave their chains.
        for bucket in 0..self.buckets.len() {
            let mut prev = 0u32;
            let mut slot = self.buckets[bucket];
            while slot != 0 {
                let next = self.nodes[slot as usize].next;
                if marked[slot as usize] {
                    prev = slot;
                } else if prev == 0 {
                    self.buckets[bucket] = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                slot = next;
            }
        }
        self.free.clear();
        for (index, &live) in marked.iter().enumerate().skip(1) {
            if !live {
                self.free.push(index as u32);
            }
        }
        let live_before = self.live;
        self.live = self.nodes.len() - self.free.len();
        let reclaimed = live_before - self.live;
        // Reclaimed slots will be reused: any cache entry naming them would
        // silently alias a future node.  The scratch memo is cleared per
        // call anyway; the computed table keeps exactly the entries whose
        // operands and result all survived — throwing the warm cache away
        // wholesale makes the steps after a collection recompute (and
        // re-allocate) everything it was suppressing.
        for entry in &mut self.computed {
            if !(marked[entry.f.index()]
                && marked[entry.g.index()]
                && marked[entry.h.index()]
                && marked[entry.r.index()])
            {
                *entry = CacheSlot::EMPTY;
            }
        }
        self.scratch.clear();
        self.gc_passes += 1;
        self.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    /// Installs (or removes) the automatic GC policy consulted by
    /// [`BddManager::maintain`].  [`BddManager::reset`] clears it — a
    /// recycled manager starts, like a fresh one, on the never-free path.
    pub fn set_maintenance(&mut self, settings: Option<MaintainSettings>) {
        self.maintenance = settings;
        self.gc_survivors = 0;
    }

    /// `true` when an automatic maintenance policy is installed.  Checkers
    /// use this to decide whether rooting their live state is worth the
    /// bookkeeping.
    pub fn maintenance_enabled(&self) -> bool {
        self.maintenance.is_some()
    }

    /// The installed maintenance policy, if any (for callers that need to
    /// suspend and restore it around a region they cannot root).
    pub fn maintenance(&self) -> Option<MaintainSettings> {
        self.maintenance
    }

    /// `true` when a [`BddManager::maintain`] call would actually run a
    /// pass right now.  A handful of integer operations — cheap enough for
    /// inner loops (e.g. the symbolic simulator checks per gate), so the cost of
    /// building a root set is only paid when a collection is imminent.
    pub fn maintenance_due(&self) -> bool {
        match self.maintenance {
            Some(settings) => self.live >= self.gc_trigger(&settings),
            None => false,
        }
    }

    /// The live-node count at which the next automatic GC fires: once the
    /// last pass's survivors have doubled, and at least `gc_threshold`
    /// nodes after them.  A mark-and-sweep is O(live + arena), so doubling
    /// amortises it to a constant per allocation.  Under a node budget the
    /// trigger is capped at 7/8 of the ceiling, so the collection runs
    /// before the budget trips — or halfway to the ceiling once the
    /// survivors alone pass 3/4 of it, so a near-full arena still gets
    /// room to work between passes instead of collecting at every safe
    /// point.
    fn gc_trigger(&self, settings: &MaintainSettings) -> usize {
        let survivors = self.gc_survivors;
        let doubled = survivors
            .saturating_mul(2)
            .max(survivors.saturating_add(settings.gc_threshold));
        let ceiling = self.node_ceiling;
        let headroom = ceiling.saturating_sub(survivors);
        doubled.min((ceiling - ceiling / 8).max(survivors + headroom / 2))
    }

    /// Runs the installed maintenance policy, if any: a GC pass once the
    /// live count reaches the trigger (see `gc_trigger`: twice the last
    /// pass's survivors), so maintenance cost stays amortised.
    ///
    /// Callers must only invoke this at a safe point: every handle that
    /// will be used again must be reachable from the root registry.
    pub fn maintain(&mut self) {
        let Some(settings) = self.maintenance else {
            return;
        };
        if self.live < self.gc_trigger(&settings) {
            return;
        }
        self.gc();
        self.gc_survivors = self.live;
    }

    /// Returns aggregate statistics about the manager.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes_allocated: self.nodes.len(),
            live_nodes: self.live,
            // `peak_live` is only folded in where `live` can drop, so the
            // current count may exceed the recorded watermark.
            peak_live_nodes: self.peak_live.max(self.live),
            gc_passes: self.gc_passes,
            gc_reclaimed: self.gc_reclaimed,
            variables: self.var_names.len(),
            ite_cache_hits: self.ite_hits,
            ite_cache_misses: self.ite_misses,
            ite_normalised: self.ite_normalised,
            resets: self.resets,
        }
    }

    /// Number of live internal nodes whose high edge carries the complement
    /// attribute (the low edge is regular by canonical-form invariant), and
    /// the number of live internal nodes — the arena census behind the
    /// complement-edge share telemetry.  Counted over the unique table, so
    /// dead-but-unswept nodes are included exactly as in
    /// [`BddStats::live_nodes`] accounting between GC passes.
    pub fn complement_edge_census(&self) -> (usize, usize) {
        let (mut complemented, mut total) = (0, 0);
        for &head in &self.buckets {
            let mut slot = head;
            while slot != 0 {
                let node = &self.nodes[slot as usize];
                complemented += usize::from(node.hi.is_complement());
                total += 1;
                slot = node.next;
            }
        }
        (complemented, total)
    }

    /// Fraction of live internal nodes whose high edge is complemented, in
    /// `[0, 1]`; `0.0` for an empty arena.
    pub fn complement_edge_share(&self) -> f64 {
        let (complemented, total) = self.complement_edge_census();
        if total == 0 {
            0.0
        } else {
            complemented as f64 / total as f64
        }
    }

    // ------------------------------------------------------------------
    // Core algorithm: ITE
    // ------------------------------------------------------------------

    /// If-then-else: computes `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// All binary connectives are implemented in terms of this operation.
    ///
    /// Before probing the computed table the triple is rewritten into a
    /// *standard form* so equivalent calls share one cache slot:
    /// a complemented condition flips the branches (`ite(¬f, g, h) →
    /// ite(f, h, g)`), equal/complementary arguments are absorbed
    /// (`ite(f, f, h) → ite(f, 1, h)`, `ite(f, ¬f, h) → ite(f, 0, h)`, …),
    /// a complemented then-branch moves the polarity to the result
    /// (`ite(f, g, h) = ¬ite(f, ¬g, ¬h)` — so complementary triples share
    /// one cache line), and for the commutative AND/OR/XOR shapes the
    /// condition is the operand that comes first in the variable order.
    /// Rewrites are counted in [`BddStats::ite_normalised`].
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        let mut f = f;
        let mut g = g;
        let mut h = h;
        // Output polarity accumulated by canonical-polarity rewrites: the
        // cache works on the regular-then-branch form, and the final result
        // is complemented back on the way out.
        let mut flip = false;
        // Standard-triple normalisation to a fixpoint.  Each rewrite is
        // counted as it fires, including those that then short-circuit into
        // a terminal return.  Rewrites can cascade (a commutative swap may
        // surface a complemented condition), but every pass strictly
        // canonicalises, so the loop terminates after at most a few rounds.
        loop {
            // Terminal conditions.
            if f.is_true() {
                return if flip { g.negate() } else { g };
            }
            if f.is_false() {
                return if flip { h.negate() } else { h };
            }
            // Complemented-condition flip: ite(¬f, g, h) == ite(f, h, g).
            if f.is_complement() {
                f = f.negate();
                std::mem::swap(&mut g, &mut h);
                self.ite_normalised += 1;
            }
            // Equal/complementary-argument absorption: f∧f == f, f∧¬f == 0
            // in the then-branch; ¬f∧f == 0, ¬f∧¬f == ¬f in the else-branch.
            if g == f {
                g = Bdd::TRUE;
                self.ite_normalised += 1;
            } else if g == f.negate() {
                g = Bdd::FALSE;
                self.ite_normalised += 1;
            }
            if h == f {
                h = Bdd::FALSE;
                self.ite_normalised += 1;
            } else if h == f.negate() {
                h = Bdd::TRUE;
                self.ite_normalised += 1;
            }
            if g == h {
                return if flip { g.negate() } else { g };
            }
            if g.is_true() && h.is_false() {
                return if flip { f.negate() } else { f };
            }
            if g.is_false() && h.is_true() {
                // O(1) negation: ite(f, 0, 1) == ¬f.
                return if flip { f } else { f.negate() };
            }
            // Canonical output polarity: keep the then-branch regular so
            // ite(f, g, h) and ite(f, ¬g, ¬h) probe the same slot.
            if g.is_complement() {
                g = g.negate();
                h = h.negate();
                flip = !flip;
                self.ite_normalised += 1;
            }
            // Commutative canonical ordering: and(f, g) == and(g, f),
            // or(f, h) == or(h, f) and xor(f, g) == xor(g, f); pick the
            // order-first operand as the condition so both spellings probe
            // the same cache slot.  A swap can surface a complemented
            // condition, which the next loop pass flips away.
            if h.is_false() && self.precedes(g, f) {
                std::mem::swap(&mut f, &mut g);
                self.ite_normalised += 1;
                continue;
            }
            if g.is_true() && !h.is_terminal() && self.precedes(h, f) {
                std::mem::swap(&mut f, &mut h);
                self.ite_normalised += 1;
                continue;
            }
            if h == g.negate() && !g.is_terminal() && self.precedes(g, f) {
                // ite(f, g, ¬g) == ite(g, f, ¬f): the xnor shape commutes.
                std::mem::swap(&mut f, &mut g);
                h = g.negate();
                self.ite_normalised += 1;
                continue;
            }
            break;
        }

        let hash = table_hash(f.0, g.0, h.0);
        let entry = self.computed[hash & (self.computed.len() - 1)];
        if entry.f == f && entry.g == g && entry.h == h {
            self.ite_hits += 1;
            return if flip { entry.r.negate() } else { entry.r };
        }
        self.ite_misses += 1;
        // Budget bookkeeping rides the miss path: hits are free, misses
        // are the recursion's unit of real work.
        self.ite_steps += 1;
        if self.ite_steps > self.step_ceiling {
            exhausted(BudgetKind::Steps, self.step_ceiling);
        }
        if self.ite_steps % DEADLINE_PROBE_INTERVAL == 0 {
            self.check_deadline();
        }

        // Split on the top variable (minimum level among the three; a
        // variable's level is its index).  Each operand's node is loaded
        // exactly once: `split` yields its variable and both cofactor edges
        // together (with the operand's complement attribute pushed into
        // them).
        let (lf, flo, fhi) = self.split(f);
        let (lg, glo, ghi) = self.split(g);
        let (lh, hlo, hhi) = self.split(h);
        let top_level = lf.min(lg).min(lh);

        let (f0, f1) = if lf == top_level { (flo, fhi) } else { (f, f) };
        let (g0, g1) = if lg == top_level { (glo, ghi) } else { (g, g) };
        let (h0, h1) = if lh == top_level { (hlo, hhi) } else { (h, h) };

        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let result = self.mk_node(top_level, lo, hi);
        // The recursion may have grown the table: re-mask.
        let index = hash & (self.computed.len() - 1);
        self.computed[index] = CacheSlot { f, g, h, r: result };
        if flip {
            result.negate()
        } else {
            result
        }
    }

    /// One load of `f`'s node: its level (`u32::MAX` for terminals) and
    /// both cofactor edges.  The operand's complement attribute is pushed
    /// into the returned edges, so they denote the cofactors of the
    /// *function* `f`; the terminal node's two regular `TRUE` edges make a
    /// terminal split into itself.
    #[inline]
    fn split(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        (n.var, Bdd(n.lo.0 ^ c), Bdd(n.hi.0 ^ c))
    }

    /// `true` if `a` comes strictly before `b` in the canonical operand
    /// order used by ITE normalisation: by the root variable (its level),
    /// ties broken by arena index (deterministic and order-aware, so the chosen
    /// condition also tends to be the topmost variable).
    #[inline]
    fn precedes(&self, a: Bdd, b: Bdd) -> bool {
        let la = self.level(a);
        let lb = self.level(b);
        la < lb || (la == lb && a.0 < b.0)
    }

    // ------------------------------------------------------------------
    // Derived Boolean connectives
    // ------------------------------------------------------------------

    /// Logical negation: a constant-time complement-bit flip — no arena
    /// access, no cache traffic, no allocation ([`Bdd::negate`]).
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.negate()
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or: the single ITE `ite(f, ¬g, g)`, whose else-branch is
    /// an O(1) complement edge — no intermediate negation BDD is ever
    /// materialised.  Canonical-polarity normalisation inside [`ite`] makes
    /// xor and xnor of the same operands share one cache line.
    ///
    /// [`ite`]: BddManager::ite
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g.negate(), g)
    }

    /// Exclusive nor (equivalence): `¬xor(f, g)` through a complement edge.
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, g.negate())
    }

    /// Negated conjunction: an AND plus an O(1) complement flip.
    pub fn nand(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g).negate()
    }

    /// Negated disjunction: an OR plus an O(1) complement flip.
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.or(f, g).negate()
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Conjunction over an iterator of BDDs (true for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = self.and(acc, b);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator of BDDs (false for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = self.or(acc, b);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Returns `true` iff `f → g` is a tautology.
    pub fn implies_valid(&mut self, f: Bdd, g: Bdd) -> bool {
        self.implies(f, g).is_true()
    }

    // ------------------------------------------------------------------
    // Evaluation, cofactors and quantification
    // ------------------------------------------------------------------

    /// Evaluates `f` under `assignment`.  Returns `None` if the assignment
    /// does not determine the value (some variable on the evaluation path is
    /// unassigned).
    pub fn eval(&self, f: Bdd, assignment: &Assignment) -> Option<bool> {
        let mut cur = f;
        loop {
            if cur.is_true() {
                return Some(true);
            }
            if cur.is_false() {
                return Some(false);
            }
            let n = self.nodes[cur.index()];
            let c = cur.0 & 1;
            match assignment.get(n.var) {
                Some(true) => cur = Bdd(n.hi.0 ^ c),
                Some(false) => cur = Bdd(n.lo.0 ^ c),
                None => return None,
            }
        }
    }

    /// Takes the reusable scratch memo table out of the manager, cleared
    /// and with its previous capacity intact.  Callers must hand it back
    /// via `self.scratch = cache` when the recursion finishes.
    fn take_scratch(&mut self) -> FxHashMap<Bdd, Bdd> {
        let mut cache = std::mem::take(&mut self.scratch);
        cache.clear();
        cache
    }

    /// Restricts variable `var` to `value` in `f` (Shannon cofactor).
    pub fn restrict(&mut self, f: Bdd, var: u32, value: bool) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        let mut cache = self.take_scratch();
        let r = self.restrict_inner(f, var, value, &mut cache);
        self.scratch = cache;
        r
    }

    fn restrict_inner(
        &mut self,
        f: Bdd,
        var: u32,
        value: bool,
        cache: &mut FxHashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        let result = if n.var > var {
            // Variable does not appear in this subgraph.
            f
        } else if n.var == var {
            if value {
                Bdd(n.hi.0 ^ c)
            } else {
                Bdd(n.lo.0 ^ c)
            }
        } else {
            let lo = self.restrict_inner(Bdd(n.lo.0 ^ c), var, value, cache);
            let hi = self.restrict_inner(Bdd(n.hi.0 ^ c), var, value, cache);
            self.mk_node(n.var, lo, hi)
        };
        cache.insert(f, result);
        result
    }

    /// Existentially quantifies all variables in `vars` out of `f`.
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        self.quantify(f, vars, true)
    }

    /// Universally quantifies all variables in `vars` out of `f`.
    pub fn forall(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        self.quantify(f, vars, false)
    }

    /// Shared body of [`BddManager::exists`] and [`BddManager::forall`],
    /// memoised per call in the scratch table (so results for different
    /// variable sets or quantifiers never alias).
    fn quantify(&mut self, f: Bdd, vars: &[u32], existential: bool) -> Bdd {
        let var_set: FxHashSet<u32> = vars.iter().copied().collect();
        let mut cache = self.take_scratch();
        let r = self.quantify_rec(f, &var_set, existential, &mut cache);
        self.scratch = cache;
        r
    }

    fn quantify_rec(
        &mut self,
        f: Bdd,
        vars: &FxHashSet<u32>,
        existential: bool,
        cache: &mut FxHashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        let lo = self.quantify_rec(Bdd(n.lo.0 ^ c), vars, existential, cache);
        let hi = self.quantify_rec(Bdd(n.hi.0 ^ c), vars, existential, cache);
        let result = if vars.contains(&n.var) {
            if existential {
                self.or(lo, hi)
            } else {
                self.and(lo, hi)
            }
        } else {
            self.mk_node(n.var, lo, hi)
        };
        cache.insert(f, result);
        result
    }

    /// Functional composition: substitutes `g` for variable `var` in `f`.
    pub fn compose(&mut self, f: Bdd, var: u32, g: Bdd) -> Bdd {
        let mut cache = self.take_scratch();
        let r = self.compose_rec(f, var, g, &mut cache);
        self.scratch = cache;
        r
    }

    fn compose_rec(&mut self, f: Bdd, var: u32, g: Bdd, cache: &mut FxHashMap<Bdd, Bdd>) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        let result = if n.var == var {
            self.ite(g, Bdd(n.hi.0 ^ c), Bdd(n.lo.0 ^ c))
        } else {
            let lo = self.compose_rec(Bdd(n.lo.0 ^ c), var, g, cache);
            let hi = self.compose_rec(Bdd(n.hi.0 ^ c), var, g, cache);
            let v = self.literal(n.var);
            self.ite(v, hi, lo)
        };
        cache.insert(f, result);
        result
    }

    /// Simultaneously renames variables: `map[i] = (old, new)` replaces each
    /// `old` variable by the (distinct, declared) `new` variable.
    ///
    /// # Errors
    /// Returns [`BddError::InvalidVariable`] if a target variable has not
    /// been declared.
    pub fn rename(&mut self, f: Bdd, map: &[(u32, u32)]) -> Result<Bdd, BddError> {
        for &(_, to) in map {
            if to as usize >= self.var_names.len() {
                return Err(BddError::InvalidVariable(to));
            }
        }
        let mapping: FxHashMap<u32, u32> = map.iter().copied().collect();
        let mut cache = self.take_scratch();
        let r = self.rename_rec(f, &mapping, &mut cache);
        self.scratch = cache;
        Ok(r)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        mapping: &FxHashMap<u32, u32>,
        cache: &mut FxHashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        let lo = self.rename_rec(Bdd(n.lo.0 ^ c), mapping, cache);
        let hi = self.rename_rec(Bdd(n.hi.0 ^ c), mapping, cache);
        let var = mapping.get(&n.var).copied().unwrap_or(n.var);
        let lit = self.literal(var);
        let result = self.ite(lit, hi, lo);
        cache.insert(f, result);
        result
    }

    // ------------------------------------------------------------------
    // Satisfiability helpers
    // ------------------------------------------------------------------

    /// Set of variables `f` depends on, in ascending index order.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        // Edge polarity never affects the support, so the walk dedupes on
        // regular handles and visits each shared f/¬f subgraph once.
        let mut vars = FxHashSet::default();
        let mut seen = FxHashSet::default();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.index()];
            vars.insert(node.var);
            stack.push(node.lo.regular());
            stack.push(node.hi.regular());
        }
        let mut out: Vec<u32> = vars.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Number of satisfying assignments of `f` over `num_vars` variables.
    ///
    /// # Panics
    /// Panics if `num_vars` is smaller than the largest variable index in
    /// the support of `f` plus one.
    pub fn sat_count(&self, f: Bdd, num_vars: usize) -> f64 {
        if let Some(&max) = self.support(f).iter().max() {
            assert!(
                num_vars > max as usize,
                "num_vars ({num_vars}) must cover the support of f (max var {max})"
            );
        }
        let mut cache: HashMap<Bdd, f64> = HashMap::new();
        // `sat_fraction` averages skipped variables with weight 1/2, so the
        // result is independent of the total number of declared variables and
        // scales to any superset of the support.
        let fraction = self.sat_fraction(f, &mut cache);
        fraction * 2f64.powi(num_vars as i32)
    }

    /// Fraction of the full assignment space (over all declared variables)
    /// that satisfies `f`.  This is the order-independent primitive behind
    /// [`BddManager::sat_count`].
    pub fn sat_fraction(&self, f: Bdd, cache: &mut HashMap<Bdd, f64>) -> f64 {
        if f.is_true() {
            return 1.0;
        }
        if f.is_false() {
            return 0.0;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let n = self.nodes[f.index()];
        let c = f.0 & 1;
        let lo = self.sat_fraction(Bdd(n.lo.0 ^ c), cache);
        let hi = self.sat_fraction(Bdd(n.hi.0 ^ c), cache);
        let r = 0.5 * lo + 0.5 * hi;
        cache.insert(f, r);
        r
    }

    /// Extracts one satisfying assignment of `f`, if any, assigning only the
    /// variables along the chosen path.
    pub fn one_sat(&self, f: Bdd) -> Option<Assignment> {
        if f.is_false() {
            return None;
        }
        let mut asg = Assignment::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.nodes[cur.index()];
            let c = cur.0 & 1;
            let hi = Bdd(n.hi.0 ^ c);
            if hi.is_false() {
                asg.set(n.var, false);
                cur = Bdd(n.lo.0 ^ c);
            } else {
                asg.set(n.var, true);
                cur = hi;
            }
        }
        debug_assert!(cur.is_true());
        Some(asg)
    }

    /// Enumerates all satisfying assignments of `f` restricted to the
    /// variables in `vars`.
    ///
    /// The result can be exponential in `vars.len()`; intended for small
    /// variable sets (counterexample reporting, tests).
    pub fn all_sat(&mut self, f: Bdd, vars: &[u32]) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut current = Assignment::new();
        self.all_sat_rec(f, vars, 0, &mut current, &mut out);
        out
    }

    fn all_sat_rec(
        &mut self,
        f: Bdd,
        vars: &[u32],
        idx: usize,
        current: &mut Assignment,
        out: &mut Vec<Assignment>,
    ) {
        if f.is_false() {
            return;
        }
        if idx == vars.len() {
            if !f.is_false() {
                out.push(current.clone());
            }
            return;
        }
        let v = vars[idx];
        // Remember any outer binding of the same variable so the frame exit
        // can restore it instead of clobbering it (and instead of rebuilding
        // the whole assignment, which made the enumeration O(n²)).
        let saved = current.get(v);
        for value in [false, true] {
            let restricted = self.restrict(f, v, value);
            current.set(v, value);
            self.all_sat_rec(restricted, vars, idx + 1, current, out);
        }
        match saved {
            Some(outer) => {
                current.set(v, outer);
            }
            None => {
                current.unset(v);
            }
        }
    }

    /// Builds the conjunction of literals described by `assignment` (a
    /// "cube").
    pub fn cube(&mut self, assignment: &Assignment) -> Bdd {
        // Build bottom-up — deepest variable first, the reverse of the
        // assignment's ascending iteration — so each conjunction adds
        // exactly one node.
        let pairs: Vec<(u32, bool)> = assignment.iter().collect();
        let mut acc = Bdd::TRUE;
        for &(var, val) in pairs.iter().rev() {
            let lit = if val {
                self.literal(var)
            } else {
                self.nliteral(var)
            };
            acc = self.and(lit, acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        (m, a, b, c)
    }

    #[test]
    fn terminals_and_literals() {
        let (mut m, a, _, _) = setup();
        assert_eq!(m.literal(0), a);
        assert_eq!(m.var_of(a), Some(0));
        assert_eq!(m.var_of(Bdd::TRUE), None);
        assert_eq!(m.lo(a), Bdd::FALSE);
        assert_eq!(m.hi(a), Bdd::TRUE);
        let na = m.nliteral(0);
        assert_eq!(m.not(a), na);
    }

    #[test]
    fn idempotent_unique_table() {
        let (mut m, a, b, _) = setup();
        let f1 = m.and(a, b);
        let f2 = m.and(a, b);
        assert_eq!(f1, f2);
        let g1 = m.or(b, a);
        let g2 = m.or(a, b);
        assert_eq!(g1, g2, "canonical form is order independent");
    }

    #[test]
    fn boolean_identities() {
        let (mut m, a, b, c) = setup();
        // De Morgan
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
        // Distribution
        let l = {
            let bc = m.or(b, c);
            m.and(a, bc)
        };
        let r = {
            let ab = m.and(a, b);
            let ac = m.and(a, c);
            m.or(ab, ac)
        };
        assert_eq!(l, r);
        // Double negation
        let nn = {
            let na = m.not(a);
            m.not(na)
        };
        assert_eq!(nn, a);
        // xor/xnor complementary
        let x = m.xor(a, b);
        let xn = m.xnor(a, b);
        assert_eq!(m.not(x), xn);
    }

    #[test]
    fn ite_truth_table() {
        let (mut m, a, b, c) = setup();
        let f = m.ite(a, b, c);
        for va in [false, true] {
            for vb in [false, true] {
                for vc in [false, true] {
                    let asg: Assignment = [(0, va), (1, vb), (2, vc)].into_iter().collect();
                    let expected = if va { vb } else { vc };
                    assert_eq!(m.eval(f, &asg), Some(expected));
                }
            }
        }
    }

    #[test]
    fn eval_partial_assignment() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let asg: Assignment = [(0, false)].into_iter().collect();
        // a=0 forces f=0 regardless of b.
        assert_eq!(m.eval(f, &asg), Some(false));
        let asg2: Assignment = [(0, true)].into_iter().collect();
        assert_eq!(m.eval(f, &asg2), None);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, a, b, _) = setup();
        let f = m.xor(a, b);
        let f_a1 = m.restrict(f, 0, true);
        let f_a0 = m.restrict(f, 0, false);
        assert_eq!(f_a1, m.not(b));
        assert_eq!(f_a0, b);
    }

    #[test]
    fn quantification() {
        let (mut m, a, b, c) = setup();
        let f = m.and(a, b);
        // ∃a. a∧b == b
        assert_eq!(m.exists(f, &[0]), b);
        // ∀a. a∧b == false
        assert_eq!(m.forall(f, &[0]), Bdd::FALSE);
        // ∃b. (a∧b) ∨ c
        let g = m.or(f, c);
        let e = m.exists(g, &[1]);
        let expect = m.or(a, c);
        assert_eq!(e, expect);
        // Quantifying a variable not in the support is a no-op.
        assert_eq!(m.exists(f, &[2]), f);
    }

    #[test]
    fn compose_substitution() {
        let (mut m, a, b, c) = setup();
        let f = m.and(a, b);
        // f[b := c] == a ∧ c
        let g = m.compose(f, 1, c);
        assert_eq!(g, m.and(a, c));
        // f[b := ¬a] == false is wrong: a ∧ ¬a == false
        let na = m.not(a);
        let h = m.compose(f, 1, na);
        assert_eq!(h, Bdd::FALSE);
    }

    #[test]
    fn rename_variables() {
        let (mut m, a, b, c) = setup();
        let f = m.and(a, b);
        let g = m.rename(f, &[(1, 2)]).expect("rename");
        assert_eq!(g, m.and(a, c));
        assert!(m.rename(f, &[(1, 99)]).is_err());
    }

    #[test]
    fn support_and_size() {
        let (mut m, a, b, c) = setup();
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        assert_eq!(m.support(f), vec![0, 1, 2]);
        assert!(m.size(f) >= 4);
        assert_eq!(m.support(Bdd::TRUE), Vec::<u32>::new());
    }

    #[test]
    fn sat_count_small() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f, 2) as u64, 1);
        let g = m.or(a, b);
        assert_eq!(m.sat_count(g, 2) as u64, 3);
        let x = m.xor(a, b);
        assert_eq!(m.sat_count(x, 3) as u64, 4);
    }

    #[test]
    fn one_sat_and_cube() {
        let (mut m, a, b, _) = setup();
        let na = m.not(a);
        let f = m.and(na, b);
        let asg = m.one_sat(f).expect("satisfiable");
        assert_eq!(m.eval(f, &asg), Some(true));
        assert_eq!(m.one_sat(Bdd::FALSE), None);
        let cube = m.cube(&asg);
        assert!(m.implies_valid(cube, f));
    }

    #[test]
    fn all_sat_enumeration() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let sols = m.all_sat(f, &[0, 1]);
        assert_eq!(sols.len(), 3);
        for s in &sols {
            assert_eq!(m.eval(f, s), Some(true));
        }
    }

    #[test]
    fn and_or_all() {
        let (mut m, a, b, c) = setup();
        let f = m.and_all([a, b, c]);
        let g = {
            let ab = m.and(a, b);
            m.and(ab, c)
        };
        assert_eq!(f, g);
        let h = m.or_all([a, b, c]);
        let i = {
            let ab = m.or(a, b);
            m.or(ab, c)
        };
        assert_eq!(h, i);
        assert_eq!(m.and_all([]), Bdd::TRUE);
        assert_eq!(m.or_all([]), Bdd::FALSE);
    }

    #[test]
    fn stats_and_caches() {
        let (mut m, a, b, c) = setup();
        let _ = m.and(a, b);
        let _ = m.or(b, c);
        let s = m.stats();
        assert_eq!(s.variables, 3);
        assert!(s.nodes_allocated >= 5);
        let _ = m.and(a, b);
        assert_eq!(
            m.stats().ite_cache_misses,
            s.ite_cache_misses,
            "a repeat hits"
        );
        m.clear_caches();
        let _ = m.and(a, b);
        assert!(
            m.stats().ite_cache_misses > s.ite_cache_misses,
            "cleared caches recompute"
        );
    }

    /// Deterministic xorshift64* generator (the workspace builds offline,
    /// so there is no `rand`); used by the randomized kernel tests.
    struct XorShift64(u64);

    impl XorShift64 {
        fn new(seed: u64) -> Self {
            XorShift64(seed | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Builds a random formula over `vars` by folding random connectives;
    /// returns the same function in any manager fed the same seed.
    fn random_formula(m: &mut BddManager, vars: &[Bdd], rng: &mut XorShift64, ops: usize) -> Bdd {
        let mut pool: Vec<Bdd> = vars.to_vec();
        pool.push(Bdd::TRUE);
        pool.push(Bdd::FALSE);
        for _ in 0..ops {
            let a = pool[rng.below(pool.len() as u64) as usize];
            let b = pool[rng.below(pool.len() as u64) as usize];
            let c = pool[rng.below(pool.len() as u64) as usize];
            let next = match rng.below(6) {
                0 => m.and(a, b),
                1 => m.or(a, b),
                2 => m.xor(a, b),
                3 => m.not(a),
                4 => m.ite(a, b, c),
                _ => m.implies(a, b),
            };
            pool.push(next);
        }
        *pool.last().expect("non-empty pool")
    }

    /// ITE standard-triple normalisation must not change any result: the
    /// normalised kernel has to agree with a naive 32-row truth-table
    /// evaluation on randomized formula batches (5 variables, so every
    /// function is a `u32` bitmask; row `i` assigns bit `v` of `i` to
    /// variable `v`).
    #[test]
    fn ite_normalisation_preserves_semantics_on_random_formulas() {
        const VARS: u32 = 5;
        let var_mask = |v: u32| -> u32 {
            let mut mask = 0u32;
            for row in 0..(1u32 << VARS) {
                if row >> v & 1 == 1 {
                    mask |= 1 << row;
                }
            }
            mask
        };
        let mut rng = XorShift64::new(0x5EED_2009);
        for round in 0..16u64 {
            let mut m = BddManager::new();
            let vars: Vec<Bdd> = (0..VARS).map(|i| m.new_var(format!("x{i}"))).collect();
            // Build the BDD and the truth-table reference in lock step with
            // the same random choices.
            let mut pool: Vec<(Bdd, u32)> = vars
                .iter()
                .enumerate()
                .map(|(v, &bdd)| (bdd, var_mask(v as u32)))
                .collect();
            pool.push((Bdd::TRUE, u32::MAX));
            pool.push((Bdd::FALSE, 0));
            for _ in 0..(40 + round) {
                let (a, ma) = pool[rng.below(pool.len() as u64) as usize];
                let (b, mb) = pool[rng.below(pool.len() as u64) as usize];
                let (c, mc) = pool[rng.below(pool.len() as u64) as usize];
                let next = match rng.below(6) {
                    0 => (m.and(a, b), ma & mb),
                    1 => (m.or(a, b), ma | mb),
                    2 => (m.xor(a, b), ma ^ mb),
                    3 => (m.not(a), !ma),
                    4 => (m.ite(a, b, c), (ma & mb) | (!ma & mc)),
                    _ => (m.implies(a, b), !ma | mb),
                };
                pool.push(next);
            }
            for &(f, mask) in &pool {
                for row in 0..(1u32 << VARS) {
                    let asg: Assignment = (0..VARS).map(|v| (v, row >> v & 1 == 1)).collect();
                    let expected = Some(mask >> row & 1 == 1);
                    assert_eq!(
                        m.eval(f, &asg),
                        expected,
                        "normalised kernel disagrees with the naive truth table"
                    );
                }
            }
        }
    }

    /// Commutatively-equivalent ITE calls must share one cache slot: after
    /// `and(a, b)`, the spelling `and(b, a)` is a cache *hit*, not a miss.
    #[test]
    fn normalised_triples_share_cache_slots() {
        let (mut m, a, b, _) = setup();
        let before = m.stats();
        let f1 = m.and(a, b);
        let after_first = m.stats();
        let f2 = m.and(b, a);
        let after_second = m.stats();
        assert_eq!(f1, f2);
        assert!(after_first.ite_cache_misses > before.ite_cache_misses);
        assert_eq!(
            after_second.ite_cache_misses, after_first.ite_cache_misses,
            "swapped operands must not miss again"
        );
        assert!(after_second.ite_cache_hits > after_first.ite_cache_hits);
        assert!(after_second.ite_normalised > 0, "the rewrite was counted");

        // Same for or().
        let g1 = m.or(a, b);
        let miss_after_or = m.stats().ite_cache_misses;
        let g2 = m.or(b, a);
        assert_eq!(g1, g2);
        assert_eq!(m.stats().ite_cache_misses, miss_after_or);
    }

    /// Equal-argument triples collapse to their standard form.
    #[test]
    fn equal_argument_triples_are_absorbed() {
        let (mut m, a, b, _) = setup();
        // ite(f, f, h) == f ∨ h and ite(f, g, f) == f ∧ g.
        let or_ab = m.or(a, b);
        let and_ab = m.and(a, b);
        assert_eq!(m.ite(a, a, b), or_ab);
        assert_eq!(m.ite(a, b, a), and_ab);
    }

    /// Hit + miss counters are monotonically non-decreasing and hit rate
    /// grows as a repeated workload warms the computed table.
    #[test]
    fn hit_rate_is_monotone_over_repeated_work() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..8).map(|i| m.new_var(format!("v{i}"))).collect();
        let mut last = m.stats();
        let mut last_rate = 0.0;
        for round in 0..3 {
            // The same conjunction/xor ladder every round: the second and
            // third rounds replay cached triples.
            let mut acc = Bdd::TRUE;
            for w in vars.windows(2) {
                let x = m.xor(w[0], w[1]);
                acc = m.and(acc, x);
            }
            let s = m.stats();
            assert!(s.ite_cache_hits >= last.ite_cache_hits);
            assert!(s.ite_cache_misses >= last.ite_cache_misses);
            let rate = s.ite_hit_rate();
            if round > 0 {
                assert!(
                    rate >= last_rate,
                    "hit rate must not degrade when replaying a warmed workload"
                );
                // The replay round itself must be almost all hits (round 1
                // pays the recursive construction misses; replays probe the
                // warmed table at the top level only).
                let round_hits = s.ite_cache_hits - last.ite_cache_hits;
                let round_misses = s.ite_cache_misses - last.ite_cache_misses;
                assert!(
                    round_hits > 9 * round_misses,
                    "replay round was not cached: {round_hits} hits / {round_misses} misses"
                );
            }
            last = s;
            last_rate = rate;
        }
        assert!(last_rate > 0.0);
    }

    /// The equality of two `bits`-wide words declared one after the other
    /// (the worst order for it): about `2^(bits + 1)` nodes.
    fn sequential_equality(m: &mut BddManager, prefix: &str, bits: usize) -> Bdd {
        let a = m.new_vars(&format!("{prefix}a"), bits);
        let b = m.new_vars(&format!("{prefix}b"), bits);
        let mut f = Bdd::TRUE;
        for (&x, &y) in a.iter().zip(&b) {
            let eq = m.xnor(x, y);
            f = m.and(f, eq);
        }
        f
    }

    /// `reset()` must make the manager observationally identical to a fresh
    /// one: same handles, same node counts, same stats (modulo `resets`) —
    /// even after its tables grew, since the lossy computed table's hit
    /// counts depend on its size.
    #[test]
    fn reset_reproduces_a_fresh_manager() {
        let mut rng = XorShift64::new(0xBEEF);
        let build = |m: &mut BddManager, rng: &mut XorShift64| -> (Bdd, BddStats) {
            let vars: Vec<Bdd> = (0..6).map(|i| m.new_var(format!("r{i}"))).collect();
            let f = random_formula(m, &vars, rng, 60);
            let ex = m.exists(f, &[0, 2]);
            let fa = m.forall(f, &[1]);
            let composed = m.compose(f, 3, ex);
            let renamed = m.rename(composed, &[(4, 5)]).expect("rename");
            let g = m.and(renamed, fa);
            // Enough work to grow the tables of a fresh manager.
            let eq = sequential_equality(m, "e", 11);
            let g = m.xor(g, eq);
            (g, m.stats())
        };
        let mut fresh = BddManager::new();
        let initial = fresh.buckets.len();
        let mut rng_a = XorShift64::new(0xBEEF);
        let (f_fresh, s_fresh) = build(&mut fresh, &mut rng_a);
        assert!(fresh.buckets.len() > initial, "the build grows the tables");

        let mut pooled = BddManager::new();
        // Dirty the manager with unrelated work — including the lifetime
        // machinery: grown tables, protected roots, an explicit GC pass and
        // a maintained one all leave sizes, counters, free slots and
        // maintenance state that `reset` must clear back to the
        // fresh-manager baseline.
        let _ = sequential_equality(&mut pooled, "grow", 14);
        assert!(pooled.buckets.len() >= 4 * initial);
        assert_eq!(pooled.computed.len(), pooled.buckets.len());
        let grown = pooled.buckets.len();
        let d0 = pooled.new_var("dirty0");
        let d1 = pooled.new_var("dirty1");
        let dirty = pooled.xor(d0, d1);
        let _ = pooled.exists(d0, &[0]);
        pooled.protect(dirty);
        pooled.gc();
        pooled.set_maintenance(Some(MaintainSettings { gc_threshold: 1 }));
        pooled.maintain();
        assert_eq!(
            pooled.stats().gc_passes,
            2,
            "an explicit and a maintained pass"
        );
        pooled.reset();
        assert!(
            !pooled.maintenance_enabled(),
            "reset clears the maintenance policy"
        );
        assert_eq!(pooled.buckets.len(), initial, "reset restores the size…");
        assert_eq!(pooled.computed.len(), initial);
        assert!(
            pooled.buckets.capacity() >= grown && pooled.computed.capacity() >= grown,
            "…and keeps the capacity"
        );
        let (f_pooled, s_pooled) = build(&mut pooled, &mut rng);

        assert_eq!(f_fresh, f_pooled, "handles are reproduced exactly");
        assert_eq!(s_pooled.resets, 1);
        let normalised = BddStats {
            resets: 0,
            ..s_pooled
        };
        assert_eq!(
            normalised, s_fresh,
            "stats — including live/peak/GC counters — are reproduced exactly"
        );
        assert!(
            s_fresh.ite_normalised > 0,
            "the canonical-polarity/standard-triple rewrites fired and were counted"
        );
        assert_eq!(fresh.node_count(), pooled.node_count());
        assert_eq!(fresh.var_count(), pooled.var_count());
        assert_eq!(
            fresh.complement_edge_census(),
            pooled.complement_edge_census(),
            "the complement-edge census is reproduced exactly"
        );
        assert_eq!(pooled.var_by_name("r3"), Some(3));
        assert_eq!(pooled.var_by_name("dirty0"), None);
    }

    /// Results for different (overlapping) variable sets on the *same*
    /// node must never alias each other, in either order, with the
    /// quantifier polarity distinguished too — and a GC pass that recycles
    /// slots must not leak stale results into a later quantification.
    #[test]
    fn overlapping_quantifications_on_one_node_never_alias() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        // ∃a. a∧b == b, then ∃{a,b}. a∧b == TRUE on the same node: a stale
        // hit for the first set would return b for the second.
        assert_eq!(m.exists(f, &[0]), b);
        assert_eq!(m.exists(f, &[0, 1]), Bdd::TRUE);
        assert_eq!(m.exists(f, &[0]), b, "first set still correct after");
        assert_eq!(m.exists(f, &[1]), a, "overlapping singleton distinct");
        // Polarity is part of the tag: ∀ must not see ∃'s entries.
        assert_eq!(m.forall(f, &[0]), Bdd::FALSE);
        assert_eq!(m.exists(f, &[0]), b);
        // Duplicates and order do not change a set's identity.
        assert_eq!(m.exists(f, &[1, 0, 1]), Bdd::TRUE);

        // Collect (recycling slots) and requantify a wider function:
        // correctness must not depend on any pre-GC result.
        let vars: Vec<Bdd> = (0..8).map(|i| m.new_var(format!("q{i}"))).collect();
        let mut g = Bdd::TRUE;
        for w in vars.chunks(2) {
            let x = m.xor(w[0], w[1]);
            g = m.and(g, x);
        }
        let first = m.exists(g, &[3, 5]);
        m.protect(g);
        m.protect(first);
        m.gc();
        for v in 0..4 {
            // Garbage that reuses the reclaimed slots.
            let x = m.literal(v);
            let y = m.literal(v + 4);
            let _ = m.xor(x, y);
        }
        assert_eq!(m.exists(g, &[3, 5]), first);
    }

    /// Evaluates `f` on every assignment of `vars` — the semantics of the
    /// function, one entry per truth-table row.
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

    /// `maintain` is a no-op without a policy and honours the GC threshold
    /// with one.
    #[test]
    fn maintain_respects_policy_and_thresholds() {
        let mut m = BddManager::new();
        let pool = random_pool(&mut m, 6, 60, 0xCAFE);
        m.maintain();
        assert_eq!(m.stats().gc_passes, 0, "no policy, no GC");
        m.protect(*pool.last().expect("non-empty"));
        m.set_maintenance(Some(MaintainSettings::default()));
        m.maintain();
        assert_eq!(m.stats().gc_passes, 0, "below the threshold, no GC");
        m.set_maintenance(Some(MaintainSettings { gc_threshold: 1 }));
        m.maintain();
        assert_eq!(m.stats().gc_passes, 1, "past the threshold, one GC");
    }

    /// With a node budget installed, automatic GC fires before the
    /// ceiling trips even when the ceiling sits below `gc_threshold`: a
    /// small rooted working set plus garbage between safe points never
    /// exhausts the budget.
    #[test]
    fn automatic_gc_collects_before_a_node_budget_trips() {
        const CEILING: u64 = 1 << 14;
        let mut m = BddManager::new();
        let vars = m.new_vars("w", 24);
        let kept = m.and(vars[0], vars[1]);
        m.protect(kept);
        let settings = MaintainSettings::default();
        assert!(CEILING < settings.gc_threshold as u64);
        m.set_maintenance(Some(settings));
        m.set_budget(BudgetSettings {
            max_live_nodes: Some(CEILING),
            ..BudgetSettings::default()
        });
        let mut rng = XorShift64::new(0xC0FFEE);
        let outcome = budget_error(|| {
            for _ in 0..100 {
                // ~50 random 24-literal cubes: over a thousand nodes of
                // garbage per safe point, well under an eighth of the
                // ceiling.
                for _ in 0..50 {
                    let bits = rng.next();
                    let cube: Assignment = (0..24).map(|v| (v, bits >> v & 1 == 1)).collect();
                    let _ = m.cube(&cube);
                }
                m.maintain();
            }
        });
        assert_eq!(outcome, None, "the budget tripped before a collection");
        assert!(m.stats().gc_passes > 0);
        // Survivors past the 7/8 cap still leave room to work between
        // passes, instead of collecting at every safe point.
        m.gc_survivors = CEILING as usize * 15 / 16;
        let trigger = m.gc_trigger(&settings);
        assert!(m.gc_survivors < trigger && trigger < CEILING as usize);
        let a = m.literal(0);
        let b = m.literal(1);
        assert_eq!(m.and(a, b), kept, "the rooted function survived");
    }

    /// The `unset`-based frame unwinding must leave `all_sat` results
    /// identical to the specification on wider variable sets (every
    /// emitted assignment satisfies `f`, and the count matches the
    /// satisfying-assignment count over those variables).
    #[test]
    fn all_sat_unwinding_is_exact_on_wider_sets() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..6).map(|i| m.new_var(format!("s{i}"))).collect();
        // f = (s0 ∨ s1) ∧ (s2 xor s3) ∧ ¬s4  (s5 unconstrained).
        let or01 = m.or(vars[0], vars[1]);
        let x23 = m.xor(vars[2], vars[3]);
        let n4 = m.not(vars[4]);
        let f = {
            let t = m.and(or01, x23);
            m.and(t, n4)
        };
        let idx: Vec<u32> = (0..6).collect();
        let sols = m.all_sat(f, &idx);
        assert_eq!(sols.len() as f64, m.sat_count(f, 6));
        for s in &sols {
            assert_eq!(m.eval(f, s), Some(true));
            assert_eq!(s.len(), 6, "every enumerated variable is bound");
        }
    }

    /// Cube construction must stay linear (and correct) over a sparse
    /// subset of the variables: it conjoins the deepest level first.
    #[test]
    fn cube_follows_level_order_not_index_order() {
        let mut m = BddManager::new();
        // Declare interleaved: a[0] b[0] a[1] b[1] — a cube over only-a
        // skips every other level.
        let a0 = m.new_var("a0");
        let _b0 = m.new_var("b0");
        let a1 = m.new_var("a1");
        let _b1 = m.new_var("b1");
        let asg: Assignment = [(0, true), (2, false)].into_iter().collect();
        let cube = m.cube(&asg);
        let na1 = m.not(a1);
        let expect = m.and(a0, na1);
        assert_eq!(cube, expect);
        // Node growth is linear: the cube over n literals allocates at most
        // n new nodes beyond the literals themselves.
        let before = m.node_count();
        let wide: Assignment = (0..4).map(|v| (v, v % 2 == 0)).collect();
        let _ = m.cube(&wide);
        assert!(m.node_count() - before <= 4 + 4);
    }

    #[test]
    fn var_by_name_uses_the_index_map() {
        let mut m = BddManager::new();
        let _ = m.new_var("alpha");
        let _ = m.new_var("beta");
        let _ = m.new_var("alpha"); // duplicate: first declaration wins
        assert_eq!(m.var_by_name("alpha"), Some(0));
        assert_eq!(m.var_by_name("beta"), Some(1));
        assert_eq!(m.var_by_name("gamma"), None);
    }

    #[test]
    fn assignment_unset_removes_and_returns() {
        let mut asg = Assignment::new();
        assert_eq!(asg.unset(3), None);
        asg.set(3, true);
        asg.set(5, false);
        assert_eq!(asg.unset(3), Some(true));
        assert_eq!(asg.get(3), None);
        assert_eq!(asg.len(), 1);
    }

    /// Runs `work` under `catch_unwind` and returns the [`BddError`]
    /// payload it unwound with, if any.
    fn budget_error<T>(work: impl FnOnce() -> T) -> Option<BddError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
            Ok(_) => None,
            Err(payload) => match payload.downcast::<BddError>() {
                Ok(err) => Some(*err),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }

    /// Builds an n-variable parity function — compact as a BDD but every
    /// `xor` level forces fresh allocations and cache misses.
    fn parity(m: &mut BddManager, n: usize) -> Bdd {
        let vars = m.new_vars("p", n);
        let mut acc = Bdd::FALSE;
        for v in vars {
            acc = m.xor(acc, v);
        }
        acc
    }

    #[test]
    fn node_budget_unwinds_with_a_typed_payload() {
        let mut m = BddManager::new();
        m.set_budget(BudgetSettings {
            max_live_nodes: Some(16),
            ..BudgetSettings::default()
        });
        let err = budget_error(|| parity(&mut m, 32)).expect("budget must trip");
        assert_eq!(
            err,
            BddError::BudgetExceeded {
                kind: BudgetKind::Nodes,
                limit: 16
            }
        );
    }

    #[test]
    fn step_budget_unwinds_with_a_typed_payload() {
        let mut m = BddManager::new();
        m.set_budget(BudgetSettings {
            max_ite_steps: Some(8),
            ..BudgetSettings::default()
        });
        let err = budget_error(|| parity(&mut m, 32)).expect("budget must trip");
        assert_eq!(
            err,
            BddError::BudgetExceeded {
                kind: BudgetKind::Steps,
                limit: 8
            }
        );
    }

    #[test]
    fn expired_deadline_trips_on_explicit_check() {
        let mut m = BddManager::new();
        m.set_budget(BudgetSettings {
            deadline: Some(Instant::now()),
            deadline_ms: 5,
            ..BudgetSettings::default()
        });
        let err = budget_error(|| m.check_deadline()).expect("deadline already passed");
        assert_eq!(
            err,
            BddError::BudgetExceeded {
                kind: BudgetKind::Time,
                limit: 5
            }
        );
    }

    #[test]
    fn budgets_are_deterministic_and_cleared_by_reset() {
        // The same operation sequence consumes the same step count…
        let mut a = BddManager::new();
        let _ = parity(&mut a, 16);
        let steps = a.ite_steps();
        assert!(steps > 0);
        let mut b = BddManager::new();
        let _ = parity(&mut b, 16);
        assert_eq!(b.ite_steps(), steps);
        // …and an exhausted manager, once reset, runs ungoverned again.
        a.set_budget(BudgetSettings {
            max_live_nodes: Some(16),
            ..BudgetSettings::default()
        });
        assert!(budget_error(|| parity(&mut a, 32)).is_some());
        a.reset();
        assert_eq!(a.budget(), BudgetSettings::default());
        assert_eq!(a.ite_steps(), 0);
        assert!(budget_error(|| parity(&mut a, 32)).is_none());
    }

    #[test]
    fn an_ample_budget_never_fires() {
        let mut m = BddManager::new();
        m.set_budget(BudgetSettings {
            max_live_nodes: Some(1 << 20),
            max_ite_steps: Some(1 << 30),
            ..BudgetSettings::default()
        });
        let mut reference = BddManager::new();
        let governed = parity(&mut m, 16);
        let free = parity(&mut reference, 16);
        // Governance is observationally free until it fires: identical
        // handles and statistics.
        assert_eq!(governed, free);
        assert_eq!(m.stats(), reference.stats());
    }
}
