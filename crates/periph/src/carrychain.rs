//! The row-wide composition of Y-paths with reconfigurable segmentation.
//!
//! A [`CarryChain`] slices the row into independent word lanes (the MX3
//! reconfiguration muxes of Fig. 6 block carry/shift propagation across lane
//! boundaries) and evaluates whole-row operations — exactly what the
//! hardware's transmission-gate carry path does in one cycle.
//!
//! Two implementations coexist:
//!
//! * the **limb-parallel engine** (the default): every operation is a
//!   handful of `u64`-limb ops via [`LaneMasks`], so one host instruction
//!   covers 64 columns, mirroring the hardware's bit-parallelism;
//! * the **structural reference** ([`CarryChain::add_bitwise`],
//!   [`CarryChain::mult_step_bitwise`], …): the original column-by-column
//!   ripple through [`YPath`] slices. It is kept as the ground truth the
//!   property tests compare the engine against bit-for-bit (the macro's
//!   multiplication tests pin the fused [`LaneMasks::mult_step_rows`]
//!   kernel to it step by step).
//!
//! Both compute the same function; only host time differs. Simulated cycle
//! counts are decided by the macro executor, not by either code path.

use crate::precision::Precision;
use crate::ypath::{ColumnInputs, WriteBackSel, YPath};
use bpimc_array::{BitRow, DualReadout, LaneMasks};

/// Result of a row-wide addition.
#[derive(Debug, Clone, PartialEq)]
pub struct AddOutcome {
    /// Per-column sums.
    pub sum: BitRow,
    /// Carry out of each lane's MSB (lane order, LSB-most lane first).
    pub carries: Vec<bool>,
}

/// A carry chain configured for a row width and a lane (segment) width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarryChain {
    masks: LaneMasks,
}

impl CarryChain {
    /// A chain over `cols` columns with lanes of `precision` width.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn new(cols: usize, precision: Precision) -> Self {
        Self::with_segment_bits(cols, precision.bits())
    }

    /// A chain with an explicit segment width. Multiplication configures
    /// `2 * P` (the product spans two precision units, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `segment_bits` is zero.
    pub fn with_segment_bits(cols: usize, segment_bits: usize) -> Self {
        Self {
            masks: LaneMasks::new(cols, segment_bits),
        }
    }

    /// Row width in columns.
    pub fn cols(&self) -> usize {
        self.masks.cols()
    }

    /// Lane width in bits.
    pub fn segment_bits(&self) -> usize {
        self.masks.segment_bits()
    }

    /// Number of whole lanes (leftover columns at the top are idle).
    pub fn lane_count(&self) -> usize {
        self.masks.lane_count()
    }

    /// The precomputed lane masks backing this chain.
    pub fn masks(&self) -> &LaneMasks {
        &self.masks
    }

    /// Column range of lane `lane`.
    fn lane_range(&self, lane: usize) -> std::ops::Range<usize> {
        let lo = lane * self.segment_bits();
        lo..lo + self.segment_bits()
    }

    /// Row-wide `A + B` (+ `carry_in` into every lane's LSB — `true` is the
    /// two's-complement `+1` used by SUB), with each lane's carry-out.
    /// Limb-parallel; [`CarryChain::sum`] is the write-back path that skips
    /// the carries.
    pub fn add(&self, readout: &DualReadout, carry_in: bool) -> AddOutcome {
        self.check_width(readout.and.width());
        let (sum, cout) = self
            .masks
            .lane_add_from_readout(&readout.and, &readout.nor, carry_in);
        let carries = (0..self.lane_count())
            .map(|lane| cout.get(self.lane_range(lane).end - 1))
            .collect();
        AddOutcome { sum, carries }
    }

    /// The per-column sums of [`CarryChain::add`] alone: what an ADD or SUB
    /// writes back. One fused limb pass, no carry-out bookkeeping.
    pub fn sum(&self, readout: &DualReadout, carry_in: bool) -> BitRow {
        self.check_width(readout.and.width());
        self.masks
            .lane_sum_from_readout(&readout.and, &readout.nor, carry_in)
    }

    /// Row-wide add-and-shift: per lane, `(A + B) << 1` written in a single
    /// cycle (each column writes back its right neighbour's sum; the lane
    /// LSB receives zero). Limb-parallel.
    pub fn add_shift(&self, readout: &DualReadout) -> BitRow {
        self.shift_row(&self.sum(readout, false))
    }

    /// Per-lane logical left shift by one of raw row data (the single-WL
    /// shift operation). Limb-parallel.
    pub fn shift_row(&self, data: &BitRow) -> BitRow {
        self.check_width(data.width());
        self.masks.lane_shl1(data)
    }

    // ------------------------------------------------------------------
    // Structural (per-column) reference implementations
    // ------------------------------------------------------------------

    /// [`CarryChain::add`] computed column by column through the structural
    /// [`YPath`] model — the reference the limb engine is verified against.
    pub fn add_bitwise(&self, readout: &DualReadout, carry_in: bool) -> AddOutcome {
        self.check_width(readout.and.width());
        let y = YPath;
        let mut sum = BitRow::zeros(self.cols());
        let mut carries = Vec::with_capacity(self.lane_count());
        for lane in 0..self.lane_count() {
            let mut c = carry_in;
            for col in self.lane_range(lane) {
                let inp = ColumnInputs {
                    and_ab: readout.and.get(col),
                    nor_ab: readout.nor.get(col),
                };
                let out = y.eval(inp, c, false, WriteBackSel::Sum);
                sum.set(col, out.writeback);
                c = out.carry_out;
            }
            carries.push(c);
        }
        AddOutcome { sum, carries }
    }

    /// [`CarryChain::shift_row`] computed column by column (reference).
    pub fn shift_row_bitwise(&self, data: &BitRow) -> BitRow {
        self.check_width(data.width());
        let mut out = BitRow::zeros(self.cols());
        for lane in 0..self.lane_count() {
            let r = self.lane_range(lane);
            for col in r.clone() {
                let v = if col == r.start {
                    false
                } else {
                    data.get(col - 1)
                };
                out.set(col, v);
            }
        }
        out
    }

    /// One multiplication step computed column by column (reference): per
    /// lane, writes `(sum) << 1` when the lane's multiplier FF bit is 1, else
    /// `(acc) << 1` where `acc` is the Y-path FF copy of the previously
    /// written accumulator; `final_step` suppresses the shift (the last
    /// partial product is a plain ADD, Fig. 5). The fused limb kernel
    /// [`LaneMasks::mult_step_rows`] computes the same function.
    ///
    /// # Panics
    ///
    /// Panics if `ff_bits` does not have one entry per lane.
    #[allow(clippy::needless_range_loop)]
    pub fn mult_step_bitwise(
        &self,
        readout: &DualReadout,
        acc_latch: &BitRow,
        ff_bits: &[bool],
        final_step: bool,
    ) -> BitRow {
        assert_eq!(ff_bits.len(), self.lane_count(), "one FF bit per lane");
        self.check_width(acc_latch.width());
        let added = self.add_bitwise(readout, false);
        let mut out = BitRow::zeros(self.cols());
        for lane in 0..self.lane_count() {
            let r = self.lane_range(lane);
            let src = if ff_bits[lane] { &added.sum } else { acc_latch };
            for col in r.clone() {
                let v = if final_step {
                    src.get(col)
                } else if col == r.start {
                    false
                } else {
                    src.get(col - 1)
                };
                out.set(col, v);
            }
        }
        out
    }

    fn check_width(&self, got: usize) {
        assert_eq!(
            got,
            self.cols(),
            "row width {got} does not match chain width {}",
            self.cols()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn readout(cols: usize, a: u64, b: u64) -> DualReadout {
        let ra = BitRow::from_u64(cols, a);
        let rb = BitRow::from_u64(cols, b);
        DualReadout {
            and: &ra & &rb,
            nor: &!&ra & &!&rb,
        }
    }

    #[test]
    fn add_respects_lane_boundaries() {
        // Two 8-bit lanes in a 16-column row: 0xFF + 0x01 must not carry
        // into the upper lane.
        let chain = CarryChain::new(16, Precision::P8);
        let out = chain.add(&readout(16, 0x00FF, 0x0001), false);
        assert_eq!(out.sum.get_field(0, 8), 0x00);
        assert_eq!(out.sum.get_field(8, 8), 0x00, "no carry leak into lane 1");
        assert_eq!(out.carries, vec![true, false]);
    }

    #[test]
    fn carry_in_implements_plus_one_per_lane() {
        let chain = CarryChain::new(16, Precision::P8);
        let out = chain.add(&readout(16, 0x0102, 0x0304), true);
        assert_eq!(out.sum.get_field(0, 8), 0x07); // 2+4+1
        assert_eq!(out.sum.get_field(8, 8), 0x05); // 1+3+1
    }

    #[test]
    fn add_shift_doubles_the_sum() {
        let chain = CarryChain::new(16, Precision::P8);
        let out = chain.add_shift(&readout(16, 5, 9));
        assert_eq!(out.get_field(0, 8), (5 + 9) * 2);
    }

    #[test]
    fn shift_row_is_per_lane() {
        let chain = CarryChain::new(8, Precision::P4);
        let data = BitRow::from_u64(8, 0b1000_1001);
        let out = chain.shift_row(&data);
        assert_eq!(out.get_field(0, 4), 0b0010);
        assert_eq!(
            out.get_field(4, 4),
            0b0000,
            "lane MSB drops, no cross-lane leak"
        );
    }

    #[test]
    fn mult_step_selects_sum_or_latch() {
        // One 8-bit product lane (P = 4); the step reads multiplier bit 3.
        let chain = CarryChain::with_segment_bits(8, 8);
        let masks = chain.masks();
        let acc = BitRow::from_u64(8, 0b0000_0110);
        let mcand = BitRow::from_u64(8, 0b0000_0011);
        let ff_one = BitRow::from_u64(8, 0b1000);
        let ff_zero = BitRow::from_u64(8, 0b0111);
        // ff = 1: (acc + a) << 1.
        let out = masks.mult_step_rows(&acc, &mcand, &ff_one, 3, false);
        assert_eq!(out.get_field(0, 8), ((0b110 + 0b011) << 1) & 0xFF);
        // ff = 0: acc << 1 regardless of the multiplicand.
        let out = masks.mult_step_rows(&acc, &mcand, &ff_zero, 3, false);
        assert_eq!(out.get_field(0, 8), 0b0000_1100);
        // final step suppresses the shift.
        let out = masks.mult_step_rows(&acc, &mcand, &ff_one, 3, true);
        assert_eq!(out.get_field(0, 8), 0b110 + 0b011);
    }

    #[test]
    fn idle_top_columns_stay_zero() {
        // 20 columns at 8-bit precision: 2 lanes + 4 idle columns that must
        // read zero on every path.
        let chain = CarryChain::new(20, Precision::P8);
        let ra = BitRow::ones(20);
        let rb = BitRow::ones(20);
        let r = DualReadout {
            and: &ra & &rb,
            nor: &!&ra & &!&rb,
        };
        let out = chain.add(&r, true);
        for col in 16..20 {
            assert!(!out.sum.get(col), "idle col {col}");
        }
        assert_eq!(chain.sum(&r, true), out.sum);
        for final_step in [false, true] {
            let m = chain.masks().mult_step_rows(&ra, &rb, &ra, 3, final_step);
            for col in 16..20 {
                assert!(!m.get(col), "idle col {col} after a mult step");
            }
        }
    }

    proptest! {
        /// Lane-segmented addition equals per-word wrapping addition for
        /// every precision on random data.
        #[test]
        fn add_matches_reference(a in any::<u64>(), b in any::<u64>(), p in 0usize..5) {
            let precision = Precision::ALL[p];
            let bits = precision.bits();
            let chain = CarryChain::new(64, precision);
            let out = chain.add(&readout(64, a, b), false);
            for lane in 0..(64 / bits) {
                let wa = (a >> (lane * bits)) & precision.mask();
                let wb = (b >> (lane * bits)) & precision.mask();
                let expect = (wa + wb) & precision.mask();
                prop_assert_eq!(out.sum.get_field(lane * bits, bits), expect);
                let expect_carry = (wa + wb) > precision.mask();
                prop_assert_eq!(out.carries[lane], expect_carry);
            }
        }

        /// Subtraction built the paper's way (invert + add + 1) matches
        /// wrapping subtraction.
        #[test]
        fn invert_add_one_is_subtraction(a in any::<u32>(), b in any::<u32>()) {
            let chain = CarryChain::new(64, Precision::P32);
            let ra = BitRow::from_u64(64, a as u64 | ((a as u64) << 32));
            let rb_inv = !&BitRow::from_u64(64, b as u64 | ((b as u64) << 32));
            let r = DualReadout { and: &ra & &rb_inv, nor: &!&ra & &!&rb_inv };
            let out = chain.add(&r, true);
            let expect = a.wrapping_sub(b) as u64;
            prop_assert_eq!(out.sum.get_field(0, 32), expect);
            prop_assert_eq!(out.sum.get_field(32, 32), expect);
        }

        /// The limb-parallel adder matches the structural per-column
        /// reference bit-for-bit, carries included, on random rows, widths
        /// and segmentations.
        #[test]
        fn limb_add_matches_bitwise_reference(
            a in any::<u128>(),
            b in any::<u128>(),
            cols in 2usize..=128,
            seg_pick in 0usize..6,
            cin in any::<bool>(),
        ) {
            let seg = [2usize, 3, 4, 8, 16, 32][seg_pick].min(cols);
            let mut ra = BitRow::zeros(cols);
            let mut rb = BitRow::zeros(cols);
            for i in 0..cols {
                ra.set(i, (a >> i) & 1 == 1);
                rb.set(i, (b >> i) & 1 == 1);
            }
            let r = DualReadout { and: &ra & &rb, nor: &!&ra & &!&rb };
            let chain = CarryChain::with_segment_bits(cols, seg);
            let fast = chain.add(&r, cin);
            let slow = chain.add_bitwise(&r, cin);
            prop_assert_eq!(&chain.sum(&r, cin), &slow.sum, "sum-only mismatch cols={} seg={}", cols, seg);
            prop_assert_eq!(&fast.sum, &slow.sum, "sum mismatch cols={} seg={}", cols, seg);
            prop_assert_eq!(&fast.carries, &slow.carries, "carry mismatch cols={} seg={}", cols, seg);
        }

        /// The limb-parallel shift and the fused mult-step kernel match
        /// their per-column references bit-for-bit (the kernel's FF select
        /// is multiplier bit `bit` of each lane, the reference's is an
        /// explicit per-lane flag).
        #[test]
        fn limb_mult_step_matches_bitwise_reference(
            a in any::<u64>(),
            b in any::<u64>(),
            multiplier in any::<u64>(),
            bit_seed in any::<usize>(),
            final_step in any::<bool>(),
            seg_pick in 0usize..5,
        ) {
            let cols = 64;
            let seg = [4usize, 8, 16, 32, 64][seg_pick];
            let bit = bit_seed % (seg / 2);
            let chain = CarryChain::with_segment_bits(cols, seg);
            let (acc_row, mcand) = (BitRow::from_u64(cols, a), BitRow::from_u64(cols, b));
            let mplier = BitRow::from_u64(cols, multiplier);
            let ff: Vec<bool> = (0..chain.lane_count())
                .map(|lane| mplier.get(lane * seg + bit))
                .collect();
            let fast = chain.masks().mult_step_rows(&acc_row, &mcand, &mplier, bit, final_step);
            let slow = chain.mult_step_bitwise(&readout(cols, a, b), &acc_row, &ff, final_step);
            prop_assert_eq!(&fast, &slow);
            let data = BitRow::from_u64(cols, a);
            prop_assert_eq!(chain.shift_row(&data), chain.shift_row_bitwise(&data));
        }
    }
}
