//! Word-level ("bit-vector") helpers over BDDs.
//!
//! A [`BddVec`] is a little-endian vector of BDD bits (index 0 is the least
//! significant bit).  The datapath and memory models of the RISC core are
//! expressed in terms of these operations.

use crate::error::BddError;
use crate::manager::{Assignment, BddManager};
use crate::node::Bdd;

/// A fixed-width vector of BDD bits, least-significant bit first.
///
/// ```
/// use ssr_bdd::{BddManager, BddVec};
/// let mut m = BddManager::new();
/// let a = BddVec::new_input(&mut m, "a", 4);
/// let b = BddVec::constant(&mut m, 0b0011, 4);
/// let sum = a.add(&mut m, &b).expect("same width");
/// assert_eq!(sum.width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddVec {
    bits: Vec<Bdd>,
}

impl BddVec {
    /// Builds a vector from explicit bits (LSB first).
    pub fn from_bits(bits: Vec<Bdd>) -> Self {
        BddVec { bits }
    }

    /// Declares input variables `prefix[0]..prefix[width-1]`, reusing any
    /// the arena already carries (lookup-or-declare).
    pub fn new_input(manager: &mut BddManager, prefix: &str, width: usize) -> Self {
        BddVec {
            bits: (0..width)
                .map(|i| manager.declare(format!("{prefix}[{i}]")))
                .collect(),
        }
    }

    /// Declares two vectors of the same width with their variables
    /// interleaved bit-by-bit — the classical good static order for
    /// comparators and adders.
    pub fn new_interleaved_pair(
        manager: &mut BddManager,
        prefix_a: &str,
        prefix_b: &str,
        width: usize,
    ) -> (Self, Self) {
        let mut a = Vec::with_capacity(width);
        let mut b = Vec::with_capacity(width);
        for i in 0..width {
            a.push(manager.declare(format!("{prefix_a}[{i}]")));
            b.push(manager.declare(format!("{prefix_b}[{i}]")));
        }
        (BddVec { bits: a }, BddVec { bits: b })
    }

    /// A constant vector holding `value` truncated to `width` bits.
    pub fn constant(_manager: &mut BddManager, value: u64, width: usize) -> Self {
        let bits = (0..width)
            .map(|i| {
                if i < 64 && (value >> i) & 1 == 1 {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            })
            .collect();
        BddVec { bits }
    }

    /// An all-zero vector of the given width.
    pub fn zeros(width: usize) -> Self {
        BddVec {
            bits: vec![Bdd::FALSE; width],
        }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the vector has zero width.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits, LSB first.
    pub fn bits(&self) -> &[Bdd] {
        &self.bits
    }

    /// Bit `i` (LSB = 0).
    ///
    /// # Panics
    /// Panics if `i >= width()`.
    pub fn bit(&self, i: usize) -> Bdd {
        self.bits[i]
    }

    /// A sub-range `[lo, hi)` of the bits as a new vector.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, lo: usize, hi: usize) -> BddVec {
        assert!(lo <= hi && hi <= self.bits.len(), "slice out of range");
        BddVec {
            bits: self.bits[lo..hi].to_vec(),
        }
    }

    /// Sign-extends (or truncates) to `width` bits.
    pub fn sext(&self, width: usize) -> BddVec {
        let msb = self.bits.last().copied().unwrap_or(Bdd::FALSE);
        let mut bits = self.bits.clone();
        bits.resize(width, msb);
        BddVec { bits }
    }

    fn check_width(&self, other: &BddVec) -> Result<(), BddError> {
        if self.width() == other.width() {
            Ok(())
        } else {
            Err(BddError::WidthMismatch {
                left: self.width(),
                right: other.width(),
            })
        }
    }

    /// Bitwise NOT.
    pub fn not(&self, m: &mut BddManager) -> BddVec {
        BddVec {
            bits: self.bits.iter().map(|&b| m.not(b)).collect(),
        }
    }

    /// Bitwise AND.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn and(&self, m: &mut BddManager, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        Ok(BddVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| m.and(a, b))
                .collect(),
        })
    }

    /// Bitwise OR.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn or(&self, m: &mut BddManager, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        Ok(BddVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| m.or(a, b))
                .collect(),
        })
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn xor(&self, m: &mut BddManager, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        Ok(BddVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| m.xor(a, b))
                .collect(),
        })
    }

    /// Two's-complement addition (result truncated to the operand width).
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn add(&self, m: &mut BddManager, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        let mut carry = Bdd::FALSE;
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let axb = m.xor(a, b);
            let sum = m.xor(axb, carry);
            let ab = m.and(a, b);
            let ac = m.and(axb, carry);
            carry = m.or(ab, ac);
            bits.push(sum);
        }
        Ok(BddVec { bits })
    }

    /// Two's-complement subtraction `self - other`.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn sub(&self, m: &mut BddManager, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        // a - b = a + ~b + 1
        let nb = other.not(m);
        let mut carry = Bdd::TRUE;
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&nb.bits) {
            let axb = m.xor(a, b);
            let sum = m.xor(axb, carry);
            let ab = m.and(a, b);
            let ac = m.and(axb, carry);
            carry = m.or(ab, ac);
            bits.push(sum);
        }
        Ok(BddVec { bits })
    }

    /// Adds a constant (e.g. the ubiquitous `PC + 4`).
    pub fn add_constant(&self, m: &mut BddManager, value: u64) -> BddVec {
        let c = BddVec::constant(m, value, self.width());
        self.add(m, &c).expect("same width by construction")
    }

    /// Logical shift left by a constant amount (zero fill).
    pub fn shl_constant(&self, amount: usize) -> BddVec {
        let width = self.width();
        let mut bits = vec![Bdd::FALSE; width];
        for (i, bit) in bits.iter_mut().enumerate().skip(amount) {
            *bit = self.bits[i - amount];
        }
        BddVec { bits }
    }

    /// Per-bit multiplexer: `if sel then self else other`.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn mux(&self, m: &mut BddManager, sel: Bdd, other: &BddVec) -> Result<BddVec, BddError> {
        self.check_width(other)?;
        Ok(BddVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| m.ite(sel, a, b))
                .collect(),
        })
    }

    /// BDD expressing bitwise equality of the two vectors.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn equals(&self, m: &mut BddManager, other: &BddVec) -> Result<Bdd, BddError> {
        self.check_width(other)?;
        let mut acc = Bdd::TRUE;
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let eq = m.xnor(a, b);
            acc = m.and(acc, eq);
            if acc.is_false() {
                break;
            }
        }
        Ok(acc)
    }

    /// BDD expressing equality of the vector with a constant.
    pub fn equals_constant(&self, m: &mut BddManager, value: u64) -> Bdd {
        let c = BddVec::constant(m, value, self.width());
        self.equals(m, &c).expect("same width by construction")
    }

    /// BDD that is true iff every bit is zero.
    pub fn is_zero(&self, m: &mut BddManager) -> Bdd {
        let any = m.or_all(self.bits.iter().copied());
        m.not(any)
    }

    /// Unsigned less-than comparison `self < other`.
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn ult(&self, m: &mut BddManager, other: &BddVec) -> Result<Bdd, BddError> {
        self.check_width(other)?;
        // Iterate from LSB to MSB keeping a running "less-than so far".
        let mut lt = Bdd::FALSE;
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let na = m.not(a);
            let a_lt_b = m.and(na, b);
            let eq = m.xnor(a, b);
            let keep = m.and(eq, lt);
            lt = m.or(a_lt_b, keep);
        }
        Ok(lt)
    }

    /// Signed less-than comparison (two's complement).
    ///
    /// # Errors
    /// Returns [`BddError::WidthMismatch`] if the widths differ.
    pub fn slt(&self, m: &mut BddManager, other: &BddVec) -> Result<Bdd, BddError> {
        self.check_width(other)?;
        if self.is_empty() {
            return Ok(Bdd::FALSE);
        }
        let sa = *self.bits.last().expect("non-empty");
        let sb = *other.bits.last().expect("non-empty");
        let unsigned_lt = self.ult(m, other)?;
        // If signs differ, self < other iff self is negative.
        let signs_differ = m.xor(sa, sb);
        Ok(m.ite(signs_differ, sa, unsigned_lt))
    }

    /// Decodes the vector to a concrete `u64` under a total assignment.
    /// Returns `None` if any bit is undetermined.
    pub fn decode(&self, m: &BddManager, assignment: &Assignment) -> Option<u64> {
        let mut value = 0u64;
        for (i, &b) in self.bits.iter().enumerate() {
            if m.eval(b, assignment)? && i < 64 {
                value |= 1 << i;
            }
        }
        Some(value)
    }

    /// Collects the union of the supports of all bits.
    pub fn support(&self, m: &BddManager) -> Vec<u32> {
        let mut vars: Vec<u32> = self.bits.iter().flat_map(|&b| m.support(b)).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_const(m: &BddManager, v: &BddVec) -> u64 {
        // All bits must be constants.
        let asg = Assignment::new();
        v.decode(m, &asg).expect("constant vector")
    }

    #[test]
    fn constants_roundtrip() {
        let mut m = BddManager::new();
        let c = BddVec::constant(&mut m, 0xDEAD, 16);
        assert_eq!(decode_const(&m, &c), 0xDEAD);
        assert_eq!(c.width(), 16);
        let z = BddVec::zeros(8);
        assert_eq!(decode_const(&m, &z), 0);
    }

    #[test]
    fn adder_matches_u64_addition() {
        let mut m = BddManager::new();
        for a in [0u64, 1, 7, 200, 255] {
            for b in [0u64, 1, 5, 99, 255] {
                let va = BddVec::constant(&mut m, a, 8);
                let vb = BddVec::constant(&mut m, b, 8);
                let sum = va.add(&mut m, &vb).expect("width");
                assert_eq!(decode_const(&m, &sum), (a + b) & 0xFF, "{a}+{b}");
                let diff = va.sub(&mut m, &vb).expect("width");
                assert_eq!(decode_const(&m, &diff), a.wrapping_sub(b) & 0xFF, "{a}-{b}");
            }
        }
    }

    #[test]
    fn add_constant_pc_plus_four() {
        let mut m = BddManager::new();
        let pc = BddVec::constant(&mut m, 0x100, 32);
        let next = pc.add_constant(&mut m, 4);
        assert_eq!(decode_const(&m, &next), 0x104);
    }

    #[test]
    fn symbolic_adder_commutes() {
        let mut m = BddManager::new();
        let (a, b) = BddVec::new_interleaved_pair(&mut m, "a", "b", 6);
        let ab = a.add(&mut m, &b).expect("width");
        let ba = b.add(&mut m, &a).expect("width");
        assert_eq!(ab, ba);
    }

    #[test]
    fn bitwise_ops() {
        let mut m = BddManager::new();
        let a = BddVec::constant(&mut m, 0b1100, 4);
        let b = BddVec::constant(&mut m, 0b1010, 4);
        let and = a.and(&mut m, &b).unwrap();
        let or = a.or(&mut m, &b).unwrap();
        let xor = a.xor(&mut m, &b).unwrap();
        let not = a.not(&mut m);
        assert_eq!(decode_const(&m, &and), 0b1000);
        assert_eq!(decode_const(&m, &or), 0b1110);
        assert_eq!(decode_const(&m, &xor), 0b0110);
        assert_eq!(decode_const(&m, &not), 0b0011);
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let mut m = BddManager::new();
        let a = BddVec::constant(&mut m, 1, 4);
        let b = BddVec::constant(&mut m, 1, 5);
        assert!(matches!(
            a.add(&mut m, &b),
            Err(BddError::WidthMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn comparisons() {
        let mut m = BddManager::new();
        for a in [0u64, 1, 5, 14, 15] {
            for b in [0u64, 2, 5, 15] {
                let va = BddVec::constant(&mut m, a, 4);
                let vb = BddVec::constant(&mut m, b, 4);
                let lt = va.ult(&mut m, &vb).unwrap();
                assert_eq!(lt.is_true(), a < b, "{a} < {b}");
                let sa = (a as i64).wrapping_sub(if a >= 8 { 16 } else { 0 });
                let sb = (b as i64).wrapping_sub(if b >= 8 { 16 } else { 0 });
                let slt = va.slt(&mut m, &vb).unwrap();
                assert_eq!(slt.is_true(), sa < sb, "signed {sa} < {sb}");
            }
        }
    }

    #[test]
    fn equality_and_zero() {
        let mut m = BddManager::new();
        let a = BddVec::new_input(&mut m, "a", 3);
        let eq_self = a.equals(&mut m, &a).unwrap();
        assert!(eq_self.is_true());
        let five = a.equals_constant(&mut m, 5);
        assert_eq!(m.sat_count(five, 3) as u64, 1);
        let z = BddVec::zeros(3);
        assert!(z.is_zero(&mut m).is_true());
    }

    #[test]
    fn mux_and_select_word() {
        let mut m = BddManager::new();
        let sel = m.new_var("sel");
        let a = BddVec::constant(&mut m, 0xA, 4);
        let b = BddVec::constant(&mut m, 0x5, 4);
        let y = a.mux(&mut m, sel, &b).unwrap();
        let asg1: Assignment = [(0, true)].into_iter().collect();
        let asg0: Assignment = [(0, false)].into_iter().collect();
        assert_eq!(y.decode(&m, &asg1), Some(0xA));
        assert_eq!(y.decode(&m, &asg0), Some(0x5));
    }

    #[test]
    fn slices_extensions_and_shifts() {
        let mut m = BddManager::new();
        let v = BddVec::constant(&mut m, 0b1011_0110, 8);
        assert_eq!(decode_const(&m, &v.slice(0, 4)), 0b0110);
        assert_eq!(decode_const(&m, &v.slice(4, 8)), 0b1011);
        let neg = BddVec::constant(&mut m, 0b1000, 4);
        assert_eq!(decode_const(&m, &neg.sext(8)), 0b1111_1000);
        assert_eq!(decode_const(&m, &v.shl_constant(2)), 0b1101_1000);
    }
}
