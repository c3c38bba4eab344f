//! Static variable-order presets.
//!
//! The workloads in this workspace are dominated by word-level operand
//! pairs meeting in adders and comparators, where the declaration order of
//! the operand bits decides between linear and exponential BDDs.  An
//! [`OrderPolicy`] names how a model compiles its symbolic words so the
//! choice can travel through campaign specs, job identities and CLI flags
//! instead of being hard-coded at every declaration site:
//!
//! * [`OrderPolicy::Interleaved`] — `a[0] b[0] a[1] b[1] …`, the classical
//!   good order for datapaths (the historical hard-coded behaviour and the
//!   default).
//! * [`OrderPolicy::Sequential`] — `a[0..w) b[0..w)`.  Exponential for wide
//!   operand pairs; exists as the honest ablation baseline.
//! * [`OrderPolicy::Reverse`] — the interleaved order declared MSB-first.
//! * [`OrderPolicy::Explicit`] — an explicit variable-name list; named
//!   variables are declared first, in list order, the rest fall back to
//!   interleaved.

use crate::manager::BddManager;
use crate::vec::BddVec;

/// A static variable-order preset (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Operand pairs interleaved bit-by-bit, LSB first (the default).
    #[default]
    Interleaved,
    /// Operand pairs declared one whole word after the other.
    Sequential,
    /// Operand pairs interleaved bit-by-bit, MSB first.
    Reverse,
    /// Explicit variable names declared first (in list order); everything
    /// else falls back to the interleaved default.  Names matching no
    /// declared variable are ignored (see `declare` for why that is the
    /// intended semantics — and why a fully-misspelled list silently
    /// behaves as `Interleaved`).
    Explicit(Vec<String>),
}

impl OrderPolicy {
    /// Stable identifier used by reports, JSON, job identities and the CLI.
    /// Round-trips through [`OrderPolicy::parse`].
    pub fn name(&self) -> String {
        match self {
            OrderPolicy::Interleaved => "interleaved".to_owned(),
            OrderPolicy::Sequential => "sequential".to_owned(),
            OrderPolicy::Reverse => "reverse".to_owned(),
            OrderPolicy::Explicit(names) => format!("explicit({})", names.join(";")),
        }
    }

    /// Parses an identifier produced by [`OrderPolicy::name`] (explicit
    /// lists also accept comma separators for CLI convenience).
    pub fn parse(text: &str) -> Option<OrderPolicy> {
        match text {
            "interleaved" => Some(OrderPolicy::Interleaved),
            "sequential" => Some(OrderPolicy::Sequential),
            "reverse" => Some(OrderPolicy::Reverse),
            other => {
                let body = other.strip_prefix("explicit(")?.strip_suffix(')')?;
                let names: Vec<String> = body
                    .split([';', ','])
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                Some(OrderPolicy::Explicit(names))
            }
        }
    }

    /// Declares the operand pair `prefix_a`/`prefix_b` of the given width
    /// under this policy and returns the two vectors (always LSB-first in
    /// the vectors; only the *declaration* order differs).
    pub fn pair(
        &self,
        m: &mut BddManager,
        prefix_a: &str,
        prefix_b: &str,
        width: usize,
    ) -> (BddVec, BddVec) {
        match self {
            // Byte-identical to the historical helper so default campaigns
            // reproduce their pre-preset reports exactly.
            OrderPolicy::Interleaved => BddVec::new_interleaved_pair(m, prefix_a, prefix_b, width),
            OrderPolicy::Sequential => {
                let a = BddVec::new_input(m, prefix_a, width);
                let b = BddVec::new_input(m, prefix_b, width);
                (a, b)
            }
            OrderPolicy::Reverse | OrderPolicy::Explicit(_) => {
                let names = [bit_names(prefix_a, width), bit_names(prefix_b, width)];
                let mut vecs = self.declare(m, &names).into_iter();
                let (a, b) = (vecs.next().expect("two"), vecs.next().expect("two"));
                (a, b)
            }
        }
    }

    /// Declares a single symbolic word under this policy.  Interleaved and
    /// sequential agree here (there is nothing to interleave); reverse
    /// declares MSB-first; explicit pulls listed names forward.
    pub fn word(&self, m: &mut BddManager, prefix: &str, width: usize) -> BddVec {
        match self {
            OrderPolicy::Interleaved | OrderPolicy::Sequential => {
                BddVec::new_input(m, prefix, width)
            }
            OrderPolicy::Reverse | OrderPolicy::Explicit(_) => {
                let names = [bit_names(prefix, width)];
                self.declare(m, &names).into_iter().next().expect("one")
            }
        }
    }

    /// The shared declaration engine behind the reverse and explicit arms
    /// of [`OrderPolicy::pair`] / [`OrderPolicy::word`]: `operands[k]` is
    /// operand `k`'s LSB-first bit names; the result is one LSB-first
    /// vector per operand, with the *declaration* sequence decided here.
    ///
    /// Explicit semantics: listed names that match a bit of some operand
    /// are declared first, in list order; every remaining bit follows in
    /// the interleaved default.  Listed names that match nothing are
    /// *ignored by design* (a list is usually written for one pair of one
    /// suite but applies to every declaration of the model) — misspell
    /// every name and the order degrades to plain interleaved; cross-check
    /// with `ssr stats`, which prints the kernel census for the compiled
    /// order.
    fn declare(&self, m: &mut BddManager, operands: &[Vec<String>]) -> Vec<BddVec> {
        let mut slots: Vec<Vec<Option<crate::Bdd>>> = operands
            .iter()
            .map(|names| vec![None; names.len()])
            .collect();
        let widest = operands.iter().map(Vec::len).max().unwrap_or(0);
        if let OrderPolicy::Explicit(listed) = self {
            // Listed names first, in list order.
            for name in listed {
                for (k, names) in operands.iter().enumerate() {
                    for (i, slot) in slots[k].iter_mut().enumerate() {
                        if slot.is_none() && *name == names[i] {
                            *slot = Some(m.declare(name.clone()));
                        }
                    }
                }
            }
        }
        // The base order for everything not yet declared: MSB-first for
        // Reverse, LSB-first (the interleaved default) otherwise.
        let indices: Vec<usize> = if matches!(self, OrderPolicy::Reverse) {
            (0..widest).rev().collect()
        } else {
            (0..widest).collect()
        };
        for i in indices {
            for (k, names) in operands.iter().enumerate() {
                if let Some(slot @ None) = slots[k].get_mut(i) {
                    *slot = Some(m.declare(names[i].clone()));
                }
            }
        }
        slots
            .into_iter()
            .map(|bits| BddVec::from_bits(bits.into_iter().map(|b| b.expect("declared")).collect()))
            .collect()
    }
}

/// `prefix[0]..prefix[width-1]`, LSB first.
fn bit_names(prefix: &str, width: usize) -> Vec<String> {
    (0..width).map(|i| format!("{prefix}[{i}]")).collect()
}

impl std::fmt::Display for OrderPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for policy in [
            OrderPolicy::Interleaved,
            OrderPolicy::Sequential,
            OrderPolicy::Reverse,
            OrderPolicy::Explicit(vec!["a[0]".into(), "b[3]".into()]),
        ] {
            assert_eq!(OrderPolicy::parse(&policy.name()), Some(policy));
        }
        assert_eq!(OrderPolicy::parse("bogus"), None);
        assert_eq!(
            OrderPolicy::parse("explicit(a[0], b[1])"),
            Some(OrderPolicy::Explicit(vec!["a[0]".into(), "b[1]".into()]))
        );
    }

    #[test]
    fn interleaved_matches_the_historical_helper() {
        let mut a = BddManager::new();
        let (x1, y1) = OrderPolicy::Interleaved.pair(&mut a, "x", "y", 4);
        let mut b = BddManager::new();
        let (x2, y2) = BddVec::new_interleaved_pair(&mut b, "x", "y", 4);
        assert_eq!(x1.bits(), x2.bits());
        assert_eq!(y1.bits(), y2.bits());
        let names = |m: &BddManager| -> Vec<String> {
            (0..m.var_count() as u32)
                .map(|v| m.var_name(v).expect("declared").to_owned())
                .collect()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn presets_declare_the_documented_orders() {
        let mut m = BddManager::new();
        let _ = OrderPolicy::Sequential.pair(&mut m, "a", "b", 2);
        let names: Vec<&str> = (0..4).map(|v| m.var_name(v).expect("declared")).collect();
        assert_eq!(names, ["a[0]", "a[1]", "b[0]", "b[1]"]);

        let mut m = BddManager::new();
        let _ = OrderPolicy::Reverse.pair(&mut m, "a", "b", 2);
        let names: Vec<&str> = (0..4).map(|v| m.var_name(v).expect("declared")).collect();
        assert_eq!(names, ["a[1]", "b[1]", "a[0]", "b[0]"]);

        let mut m = BddManager::new();
        let policy = OrderPolicy::Explicit(vec!["b[1]".into(), "a[0]".into()]);
        let (a, b) = policy.pair(&mut m, "a", "b", 2);
        let names: Vec<&str> = (0..4).map(|v| m.var_name(v).expect("declared")).collect();
        assert_eq!(names, ["b[1]", "a[0]", "b[0]", "a[1]"]);
        // Vectors stay LSB-first regardless of declaration order.
        assert_eq!(m.var_of(a.bit(0)), m.var_by_name("a[0]"));
        assert_eq!(m.var_of(b.bit(1)), m.var_by_name("b[1]"));
    }

    #[test]
    fn every_preset_builds_the_same_functions() {
        // The adder's *semantics* must not depend on the preset — only its
        // node count does.
        for policy in [
            OrderPolicy::Interleaved,
            OrderPolicy::Sequential,
            OrderPolicy::Reverse,
            OrderPolicy::Explicit(vec!["b[0]".into()]),
        ] {
            let mut m = BddManager::new();
            let (a, b) = policy.pair(&mut m, "a", "b", 5);
            let sum = a.add(&mut m, &b).expect("width");
            let ba = b.add(&mut m, &a).expect("width");
            assert_eq!(sum, ba, "{policy} adder commutes");
            let eq = a.equals(&mut m, &b).expect("width");
            assert_eq!(m.sat_count(eq, 10) as u64, 32, "{policy} equality count");
        }
    }

    #[test]
    fn word_presets_cover_reverse_and_explicit() {
        let mut m = BddManager::new();
        let w = OrderPolicy::Reverse.word(&mut m, "w", 3);
        assert_eq!(m.var_name(0), Some("w[2]"));
        assert_eq!(m.var_of(w.bit(2)), Some(0));

        let mut m = BddManager::new();
        let policy = OrderPolicy::Explicit(vec!["w[1]".into()]);
        let _ = policy.word(&mut m, "w", 3);
        assert_eq!(m.var_name(0), Some("w[1]"));
        assert_eq!(m.var_name(1), Some("w[0]"));
    }
}
