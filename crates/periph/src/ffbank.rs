//! The multiplier flip-flop bank.
//!
//! Before a multiplication the multiplier operand is loaded — *reversed*
//! (`B[3:0] -> B[0:3]`, Fig. 5) — into per-lane FF shift registers built
//! from 2-bit precision units (Fig. 6). Each add-and-shift step consumes the
//! current front bit and shifts the register ("R-Shift for MUX Sel.",
//! Fig. 4), so the multiplier is consumed MSB-first.

use crate::precision::Precision;

/// Per-lane multiplier shift registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfBank {
    precision: Precision,
    /// One register per lane; front bit at index 0.
    regs: Vec<Vec<bool>>,
}

impl FfBank {
    /// An empty bank for `lanes` word lanes of the given precision.
    pub fn new(precision: Precision, lanes: usize) -> Self {
        Self {
            precision,
            regs: vec![vec![false; precision.bits()]; lanes],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.regs.len()
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Loads lane `lane` with multiplier `value`. The hardware reverses the
    /// operand on load so the register presents the MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `value` exceeds the precision.
    pub fn load(&mut self, lane: usize, value: u64) {
        assert!(
            value <= self.precision.max_value(),
            "multiplier {value:#x} too wide"
        );
        let bits = self.precision.bits();
        let reg = &mut self.regs[lane];
        for (k, slot) in reg.iter_mut().enumerate() {
            // Front (index 0) gets the MSB: the reversal B[3:0] -> B[0:3].
            *slot = (value >> (bits - 1 - k)) & 1 == 1;
        }
    }

    /// The current front bit of lane `lane` (the MUX select of this step).
    pub fn front(&self, lane: usize) -> bool {
        self.regs[lane][0]
    }

    /// Shifts every lane register one position (consuming the front bits).
    pub fn shift(&mut self) {
        for reg in &mut self.regs {
            reg.rotate_left(1);
            let last = reg.len() - 1;
            reg[last] = false;
        }
    }

    /// Total number of 2-bit FF units instantiated (for the area model).
    pub fn ff_unit_count(&self) -> usize {
        self.lanes() * self.precision.ff_units_per_lane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_reverses_the_operand() {
        let mut bank = FfBank::new(Precision::P4, 2);
        bank.load(0, 0b1011);
        // MSB-first consumption: 1, 0, 1, 1.
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(bank.front(0));
            bank.shift();
        }
        assert_eq!(seen, vec![true, false, true, true]);
    }

    #[test]
    fn lanes_are_independent() {
        let mut bank = FfBank::new(Precision::P2, 3);
        bank.load(0, 0b01);
        bank.load(1, 0b10);
        bank.load(2, 0b11);
        let fronts = |b: &FfBank| (0..3).map(|l| b.front(l)).collect::<Vec<_>>();
        assert_eq!(fronts(&bank), vec![false, true, true]);
        bank.shift();
        assert_eq!(fronts(&bank), vec![true, false, true]);
    }

    #[test]
    fn exhausted_register_reads_zero() {
        let mut bank = FfBank::new(Precision::P2, 1);
        bank.load(0, 0b11);
        bank.shift();
        bank.shift();
        assert!(!bank.front(0));
    }

    #[test]
    fn ff_unit_accounting() {
        let bank = FfBank::new(Precision::P8, 16);
        assert_eq!(bank.ff_unit_count(), 16 * 4);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_multiplier_rejected() {
        let mut bank = FfBank::new(Precision::P2, 1);
        bank.load(0, 4);
    }
}
