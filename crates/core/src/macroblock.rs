//! The in-memory-computing macro executor.

use crate::activity::{ActivityLog, CycleActivity};
use crate::config::MacroConfig;
use crate::error::Error;
use crate::isa::OpKind;
use crate::words;
use bpimc_array::{BitRow, BlSeparator, CycleKind, RowAddr, SramArray};
use bpimc_periph::{CarryChain, LogicOp, Precision};

/// One 128 x 128 in-memory-computing macro (array + dummy rows + column
/// peripherals), executing the paper's Table I operation set cycle by cycle.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct ImcMacro {
    config: MacroConfig,
    array: SramArray,
    separator: BlSeparator,
    log: ActivityLog,
    /// Memoized carry chains by segment width: the lane masks are pure
    /// functions of `(cols, segment_bits)`, and rebuilding them on every
    /// single-cycle op would rival the limb arithmetic itself. `Arc` so a
    /// handle can be held across a multi-step op without borrowing `self`.
    chains: Vec<(usize, std::sync::Arc<CarryChain>)>,
}

impl PartialEq for ImcMacro {
    fn eq(&self, other: &Self) -> bool {
        // The chain cache is a memo, not state: two macros with identical
        // contents are equal regardless of which ops warmed their caches.
        self.config == other.config
            && self.array == other.array
            && self.separator == other.separator
            && self.log == other.log
    }
}

impl ImcMacro {
    /// Creates a zeroed macro.
    pub fn new(config: MacroConfig) -> Self {
        Self {
            config,
            array: SramArray::new(config.geometry),
            separator: BlSeparator::new(config.separator_enabled),
            log: ActivityLog::new(),
            chains: Vec::new(),
        }
    }

    /// The configuration this macro was built with.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// Column count (row width).
    pub fn cols(&self) -> usize {
        self.config.geometry.cols
    }

    /// The activity log accumulated so far.
    pub fn activity(&self) -> &ActivityLog {
        &self.log
    }

    /// Clears the activity log (the array contents are untouched).
    pub fn clear_activity(&mut self) {
        self.log.clear();
    }

    /// The memoized carry chain for `segment_bits`-wide lanes.
    fn chain(&mut self, segment_bits: usize) -> std::sync::Arc<CarryChain> {
        if let Some(pos) = self.chains.iter().position(|(s, _)| *s == segment_bits) {
            self.chains[pos].1.clone()
        } else {
            let c = std::sync::Arc::new(CarryChain::with_segment_bits(self.cols(), segment_bits));
            self.chains.push((segment_bits, c.clone()));
            c
        }
    }

    /// BL separator accounting (shielded vs exposed write-backs).
    pub fn separator(&self) -> &BlSeparator {
        &self.separator
    }

    /// Non-logging row inspection (for tests and debugging; a real data-out
    /// read is [`ImcMacro::read_row`]).
    pub fn peek_row(&self, row: usize) -> Result<BitRow, Error> {
        Ok(self.array.read(RowAddr::Main(row))?)
    }

    // ------------------------------------------------------------------
    // Plain memory access
    // ------------------------------------------------------------------

    /// Writes a full row. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid row or mismatched width.
    pub fn write_row(&mut self, row: usize, value: &BitRow) -> Result<u64, Error> {
        self.array.write(RowAddr::Main(row), value)?;
        self.push_write_cycle(RowAddr::Main(row), value.width(), 0);
        self.log.push_op(OpKind::Write, Precision::P8, 1);
        Ok(1)
    }

    /// Reads a full row out of the macro. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid row.
    pub fn read_row(&mut self, row: usize) -> Result<BitRow, Error> {
        let v = self.array.read(RowAddr::Main(row))?;
        self.log.push_cycle(CycleActivity {
            kind: CycleKind::ReadOnly,
            compute_cols: self.cols(),
            logic_cols: 0,
            wb_cols: 0,
            wb_to_dummy: false,
            wb_shielded: false,
            wb_inverting: false,
            ff_bits: 0,
        });
        self.log.push_op(OpKind::Read, Precision::P8, 1);
        Ok(v)
    }

    /// Packs `words` into dense `precision` lanes and writes them to `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when the words do not fit the row or the precision.
    pub fn write_words(
        &mut self,
        row: usize,
        precision: Precision,
        values: &[u64],
    ) -> Result<u64, Error> {
        let packed = words::pack_words(values, precision, self.cols())?;
        self.write_row(row, &packed)
    }

    /// Reads the first `n` dense `precision` lanes of `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` exceeds the lane count or `row` is invalid.
    pub fn read_words(
        &mut self,
        row: usize,
        precision: Precision,
        n: usize,
    ) -> Result<Vec<u64>, Error> {
        let r = self.read_row(row)?;
        words::unpack_words(&r, precision, n)
    }

    /// Writes multiplication operands into the low half of each `2P`-wide
    /// product lane of `row` (the Fig. 6 layout).
    ///
    /// # Errors
    ///
    /// Returns an error when the operands do not fit.
    pub fn write_mult_operands(
        &mut self,
        row: usize,
        precision: Precision,
        values: &[u64],
    ) -> Result<u64, Error> {
        let packed = words::pack_mult_operands(values, precision, self.cols())?;
        self.write_row(row, &packed)
    }

    /// Reads the first `n` products (each `2P` bits) from `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` exceeds the product lane count.
    pub fn read_products(
        &mut self,
        row: usize,
        precision: Precision,
        n: usize,
    ) -> Result<Vec<u64>, Error> {
        let r = self.read_row(row)?;
        words::unpack_products(&r, precision, n)
    }

    // ------------------------------------------------------------------
    // Single-cycle operations
    // ------------------------------------------------------------------

    /// Bit-wise logic between rows `a` and `b` into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows (including `a == b`).
    pub fn logic(&mut self, op: LogicOp, a: usize, b: usize, dst: usize) -> Result<u64, Error> {
        let readout = self.array.bl_compute(RowAddr::Main(a), RowAddr::Main(b))?;
        let result = op.eval(&readout);
        self.writeback(RowAddr::Main(dst), &result, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Logic(op), Precision::P8, 1);
        Ok(1)
    }

    /// Bit-wise NOT of `src` into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn not(&mut self, src: usize, dst: usize) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let v = r.not_a;
        let cols = self.cols();
        self.writeback_gated(
            RowAddr::Main(dst),
            &v,
            CycleKind::SingleAccess,
            0,
            cols,
            true,
        )?;
        self.log.push_op(OpKind::Not, Precision::P8, 1);
        Ok(1)
    }

    /// Copies row `src` to `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn copy(&mut self, src: usize, dst: usize) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let v = r.a;
        self.writeback(RowAddr::Main(dst), &v, CycleKind::SingleAccess, 0)?;
        self.log.push_op(OpKind::Copy, Precision::P8, 1);
        Ok(1)
    }

    /// Per-lane logical left shift of `src` by one into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn shl(&mut self, src: usize, dst: usize, precision: Precision) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let v = self.chain(precision.bits()).shift_row(&r.a);
        self.writeback(RowAddr::Main(dst), &v, CycleKind::SingleAccess, 0)?;
        self.log.push_op(OpKind::Shl, precision, 1);
        Ok(1)
    }

    /// Per-lane addition `dst = a + b` (wrapping at the lane width). One
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn add(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let readout = self.array.bl_compute(RowAddr::Main(a), RowAddr::Main(b))?;
        let sum = self.chain(precision.bits()).sum(&readout, false);
        self.writeback(RowAddr::Main(dst), &sum, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Add, precision, 1);
        Ok(1)
    }

    /// Per-lane add-and-shift `dst = (a + b) << 1`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn add_shift(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let readout = self.array.bl_compute(RowAddr::Main(a), RowAddr::Main(b))?;
        let v = self.chain(precision.bits()).add_shift(&readout);
        self.writeback(RowAddr::Main(dst), &v, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::AddShift, precision, 1);
        Ok(1)
    }

    // ------------------------------------------------------------------
    // Multi-cycle operations
    // ------------------------------------------------------------------

    /// Per-lane subtraction `dst = a - b` (two's complement, wrapping). Two
    /// cycles: NOT(b) into a dummy row, then ADD with carry-in 1.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn sub(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        // Cycle 1: invert B into dummy row 0 (shielded by the separator).
        let rb = self.array.single_read(RowAddr::Main(b))?;
        let nb = rb.not_a;
        let cols = self.cols();
        self.writeback_gated(
            RowAddr::Dummy(0),
            &nb,
            CycleKind::SingleAccess,
            0,
            cols,
            true,
        )?;
        // Cycle 2: A + ~B + 1.
        let readout = self.array.bl_compute(RowAddr::Main(a), RowAddr::Dummy(0))?;
        let diff = self.chain(precision.bits()).sum(&readout, true);
        self.writeback(RowAddr::Main(dst), &diff, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Sub, precision, 2);
        Ok(2)
    }

    /// Per-lane multiplication of the product-lane operands in rows `a`
    /// (multiplicand) and `b` (multiplier): `dst`'s `2P`-wide lanes receive
    /// the full products. Takes `P + 2` cycles (Table I): two initialisation
    /// cycles, then `P` add-and-shift steps (the last one a plain ADD).
    ///
    /// Each step is one pass of the fused limb kernel
    /// [`LaneMasks::mult_step_rows`](bpimc_array::LaneMasks::mult_step_rows)
    /// over the stored accumulator and multiplicand rows, with the FF-bank
    /// select taken straight from the latched multiplier row. `2P` divides
    /// 64 for every [`Precision`], so a product lane never straddles a
    /// `u64` limb and each limb is computed on its own. The cycle sequence,
    /// activity log, separator counts and every main and dummy row are
    /// those of the paper's per-step FF-bank model.
    ///
    /// Operands must be stored with [`ImcMacro::write_mult_operands`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrecisionTooWide`] when `2P` exceeds the row width,
    /// or an array error for invalid rows.
    pub fn mult(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let bits = precision.bits();
        let cols = self.cols();
        if 2 * bits > cols {
            return Err(Error::PrecisionTooWide {
                needed_bits: 2 * bits,
                cols,
            });
        }
        let chain = self.chain(2 * bits);
        let masks = chain.masks();
        let lanes = chain.lane_count();
        let lane_cols = lanes * 2 * bits;

        // Init cycle 1: zeros into dummy row 0 (the accumulator) while the
        // multiplier row is latched into the FF bank.
        let multiplier = self.array.row(RowAddr::Main(b))?.clone();
        self.writeback_gated(
            RowAddr::Dummy(0),
            &BitRow::zeros(cols),
            CycleKind::SingleAccess,
            lanes * bits,
            lane_cols,
            false,
        )?;

        // Init cycle 2: copy the multiplicand into dummy row 1.
        let multiplicand = self.array.row(RowAddr::Main(a))?.clone();
        self.writeback_gated(
            RowAddr::Dummy(1),
            &multiplicand,
            CycleKind::SingleAccess,
            0,
            lane_cols,
            false,
        )?;

        // P add-and-shift steps, accumulator ping-ponging between dummy rows
        // 0 and 2 (the paper's "second and third rows"); the final step is a
        // plain ADD written to the destination. The FF bank presents the
        // multiplier MSB first, so step `s` selects on bit `P - 1 - s`.
        let mut acc_src = RowAddr::Dummy(0);
        let mut acc_dst = RowAddr::Dummy(2);
        for step in 0..bits {
            let final_step = step == bits - 1;
            let next = masks.mult_step_rows(
                self.array.row(acc_src)?,
                self.array.row(RowAddr::Dummy(1))?,
                &multiplier,
                bits - 1 - step,
                final_step,
            );
            let target = if final_step {
                RowAddr::Main(dst)
            } else {
                acc_dst
            };
            // Only the valid low bits of each product lane have switched so
            // far; the rest are clock-gated (accumulator width grows by one
            // bit per step).
            let valid = (bits + step + 1).min(2 * bits);
            self.writeback_gated(
                target,
                &next,
                CycleKind::Compute,
                lanes * bits,
                lanes * valid,
                false,
            )?;
            std::mem::swap(&mut acc_src, &mut acc_dst);
        }

        let cycles = bits as u64 + 2;
        self.log.push_op(OpKind::Mult, precision, cycles as usize);
        Ok(cycles)
    }

    /// In-memory reduction: sums the rows `srcs` pairwise with a tree of
    /// bit-parallel ADDs into `dst` (per-lane, wrapping at the precision).
    /// Intermediate partial sums cycle through dummy rows 0 and 2, so no
    /// main-array rows beyond `dst` are clobbered.
    ///
    /// Takes `ceil(log2(n)) * levels` single-cycle ADDs — `n-1` adds total —
    /// the accumulation pattern a dot-product workload uses after its
    /// multiplies.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows or when `srcs` is empty.
    pub fn reduce_add(
        &mut self,
        srcs: &[usize],
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let first = *srcs.first().ok_or(Error::TooManyWords {
            requested: 0,
            available: 0,
        })?;
        // Running partial sum lives in dummy rows (ping-pong) to avoid
        // clobbering main rows; start by copying the first source.
        let r = self.array.single_read(RowAddr::Main(first))?;
        let v = r.a;
        self.writeback(RowAddr::Dummy(0), &v, CycleKind::SingleAccess, 0)?;
        let mut cycles = 1u64;
        let mut acc = RowAddr::Dummy(0);
        let mut spare = RowAddr::Dummy(2);
        let chain = self.chain(precision.bits());
        for (i, &s) in srcs.iter().enumerate().skip(1) {
            let readout = self.array.bl_compute(acc, RowAddr::Main(s))?;
            let sum = chain.sum(&readout, false);
            let target = if i == srcs.len() - 1 {
                RowAddr::Main(dst)
            } else {
                spare
            };
            self.writeback(target, &sum, CycleKind::Compute, 0)?;
            cycles += 1;
            std::mem::swap(&mut acc, &mut spare);
        }
        if srcs.len() == 1 {
            // Single source: the "reduction" is a copy to dst.
            let r = self.array.read(RowAddr::Dummy(0))?;
            self.writeback(RowAddr::Main(dst), &r, CycleKind::SingleAccess, 0)?;
            cycles += 1;
        }
        self.log.push_op(OpKind::Add, precision, cycles as usize);
        Ok(cycles)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Commits a write-back and logs its cycle with full-row activity.
    fn writeback(
        &mut self,
        target: RowAddr,
        value: &BitRow,
        kind: CycleKind,
        ff_bits: usize,
    ) -> Result<(), Error> {
        let cols = self.cols();
        self.writeback_gated(target, value, kind, ff_bits, cols, false)
    }

    /// Commits a write-back whose compute/write activity covers only
    /// `active_cols` columns (clock-gated lanes, e.g. the not-yet-valid
    /// upper product bits during multiplication).
    fn writeback_gated(
        &mut self,
        target: RowAddr,
        value: &BitRow,
        kind: CycleKind,
        ff_bits: usize,
        active_cols: usize,
        inverting: bool,
    ) -> Result<(), Error> {
        self.array.write(target, value)?;
        let shielded = self.separator.record_writeback(target.is_dummy());
        self.log.push_cycle(CycleActivity {
            kind,
            compute_cols: active_cols,
            logic_cols: if kind == CycleKind::Compute {
                active_cols
            } else {
                0
            },
            wb_cols: active_cols,
            wb_to_dummy: target.is_dummy(),
            wb_shielded: shielded,
            wb_inverting: inverting,
            ff_bits,
        });
        Ok(())
    }

    /// Logs a plain write cycle (no compute phase).
    fn push_write_cycle(&mut self, target: RowAddr, wb_cols: usize, ff_bits: usize) {
        let shielded = self.separator.record_writeback(target.is_dummy());
        self.log.push_cycle(CycleActivity {
            kind: CycleKind::WriteOnly,
            compute_cols: 0,
            logic_cols: 0,
            wb_cols,
            wb_to_dummy: target.is_dummy(),
            wb_shielded: shielded,
            wb_inverting: false,
            ff_bits,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_periph::FfBank;
    use proptest::prelude::*;

    fn mac() -> ImcMacro {
        ImcMacro::new(MacroConfig::paper_macro())
    }

    /// The paper's per-step multiplication model, kept as the oracle for
    /// [`ImcMacro::mult`]: the multiplier is loaded reversed into an
    /// [`FfBank`], and every step is a dual-WL `bl_compute` of the
    /// accumulator and multiplicand rows, a read of the accumulator into the
    /// Y-path FFs, and the structural column-by-column
    /// [`CarryChain::mult_step_bitwise`] selecting on the bank's front bits.
    fn mult_per_step(
        m: &mut ImcMacro,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let bits = precision.bits();
        let cols = m.cols();
        if 2 * bits > cols {
            return Err(Error::PrecisionTooWide {
                needed_bits: 2 * bits,
                cols,
            });
        }
        let chain = m.chain(2 * bits);
        let lanes = chain.lane_count();
        let rb = m.array.single_read(RowAddr::Main(b))?;
        let mut bank = FfBank::new(precision, lanes);
        for lane in 0..lanes {
            bank.load(lane, rb.a.get_field(lane * 2 * bits, bits));
        }
        let lane_cols = lanes * 2 * bits;
        m.writeback_gated(
            RowAddr::Dummy(0),
            &BitRow::zeros(cols),
            CycleKind::SingleAccess,
            lanes * bits,
            lane_cols,
            false,
        )?;
        let ra = m.array.single_read(RowAddr::Main(a))?;
        m.writeback_gated(
            RowAddr::Dummy(1),
            &ra.a,
            CycleKind::SingleAccess,
            0,
            lane_cols,
            false,
        )?;
        let mut acc_src = RowAddr::Dummy(0);
        let mut acc_dst = RowAddr::Dummy(2);
        for step in 0..bits {
            let final_step = step == bits - 1;
            let readout = m.array.bl_compute(acc_src, RowAddr::Dummy(1))?;
            let acc_latch = m.array.read(acc_src)?;
            let ff: Vec<bool> = (0..lanes).map(|lane| bank.front(lane)).collect();
            let next = chain.mult_step_bitwise(&readout, &acc_latch, &ff, final_step);
            let target = if final_step {
                RowAddr::Main(dst)
            } else {
                acc_dst
            };
            let valid = (bits + step + 1).min(2 * bits);
            m.writeback_gated(
                target,
                &next,
                CycleKind::Compute,
                lanes * bits,
                lanes * valid,
                false,
            )?;
            bank.shift();
            std::mem::swap(&mut acc_src, &mut acc_dst);
        }
        let cycles = bits as u64 + 2;
        m.log.push_op(OpKind::Mult, precision, cycles as usize);
        Ok(cycles)
    }

    /// A full row of pseudo-random bits (splitmix64 over `seed`).
    fn junk_row(cols: usize, seed: &mut u64) -> BitRow {
        let limbs = (0..cols.div_ceil(64))
            .map(|_| {
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        BitRow::from_limbs(cols, limbs)
    }

    #[test]
    fn word_round_trip() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[1, 2, 3, 255]).unwrap();
        assert_eq!(
            m.read_words(0, Precision::P8, 4).unwrap(),
            vec![1, 2, 3, 255]
        );
    }

    #[test]
    fn logic_ops_all_lanes() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[0xF0; 16]).unwrap();
        m.write_words(1, Precision::P8, &[0x3C; 16]).unwrap();
        let c = m.logic(LogicOp::Xor, 0, 1, 2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(m.read_words(2, Precision::P8, 16).unwrap(), vec![0xCC; 16]);
    }

    #[test]
    fn add_sub_cycles_and_values() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[200, 15]).unwrap();
        m.write_words(1, Precision::P8, &[100, 20]).unwrap();
        assert_eq!(m.add(0, 1, 2, Precision::P8).unwrap(), 1);
        assert_eq!(
            m.read_words(2, Precision::P8, 2).unwrap(),
            vec![(200 + 100) & 0xFF, 35]
        );
        assert_eq!(m.sub(0, 1, 3, Precision::P8).unwrap(), 2);
        assert_eq!(
            m.read_words(3, Precision::P8, 2).unwrap(),
            vec![100, (15u64.wrapping_sub(20)) & 0xFF]
        );
    }

    #[test]
    fn shl_and_add_shift() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[0b0100_0001]).unwrap();
        m.write_words(1, Precision::P8, &[3]).unwrap();
        m.shl(0, 2, Precision::P8).unwrap();
        assert_eq!(
            m.read_words(2, Precision::P8, 1).unwrap(),
            vec![0b1000_0010]
        );
        m.add_shift(0, 1, 3, Precision::P8).unwrap();
        assert_eq!(
            m.read_words(3, Precision::P8, 1).unwrap(),
            vec![((0b0100_0001 + 3) << 1) & 0xFF]
        );
    }

    #[test]
    fn paper_worked_example_mult() {
        // Fig. 5: 1010 x 1011 = 1101110.
        let mut m = mac();
        m.write_mult_operands(0, Precision::P4, &[0b1010]).unwrap();
        m.write_mult_operands(1, Precision::P4, &[0b1011]).unwrap();
        let cycles = m.mult(0, 1, 2, Precision::P4).unwrap();
        assert_eq!(cycles, 6); // N + 2 with N = 4
        assert_eq!(
            m.read_products(2, Precision::P4, 1).unwrap(),
            vec![0b0110_1110]
        );
    }

    #[test]
    fn mult_exhaustive_2bit_and_4bit() {
        for p in [Precision::P2, Precision::P4] {
            let n = 1u64 << p.bits();
            for a in 0..n {
                for b in 0..n {
                    let mut m = mac();
                    m.write_mult_operands(0, p, &[a]).unwrap();
                    m.write_mult_operands(1, p, &[b]).unwrap();
                    m.mult(0, 1, 2, p).unwrap();
                    let got = m.read_products(2, p, 1).unwrap()[0];
                    assert_eq!(got, a * b, "{a} x {b} at {p}");
                }
            }
        }
    }

    #[test]
    fn mult_all_lanes_in_parallel() {
        let mut m = mac();
        let a: Vec<u64> = (0..8).map(|i| 17 * i + 3).collect();
        let b: Vec<u64> = (0..8).map(|i| 31 * i + 1).collect();
        m.write_mult_operands(0, Precision::P8, &a).unwrap();
        m.write_mult_operands(1, Precision::P8, &b).unwrap();
        let cycles = m.mult(0, 1, 2, Precision::P8).unwrap();
        assert_eq!(cycles, 10);
        let got = m.read_products(2, Precision::P8, 8).unwrap();
        let expect: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x & 0xFF) * (y & 0xFF))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn separator_accounting_during_mult() {
        let mut m = mac();
        m.write_mult_operands(0, Precision::P8, &[5]).unwrap();
        m.write_mult_operands(1, Precision::P8, &[7]).unwrap();
        let before = m.separator().shielded();
        m.mult(0, 1, 2, Precision::P8).unwrap();
        // 2 init write-backs + 7 intermediate add-shift write-backs target
        // dummy rows; the final ADD writes the main array.
        assert_eq!(m.separator().shielded() - before, 9);
    }

    #[test]
    fn separator_disabled_shields_nothing() {
        let mut m = ImcMacro::new(MacroConfig::paper_macro().with_separator(false));
        m.write_mult_operands(0, Precision::P8, &[5]).unwrap();
        m.write_mult_operands(1, Precision::P8, &[7]).unwrap();
        m.mult(0, 1, 2, Precision::P8).unwrap();
        assert_eq!(m.separator().shielded(), 0);
    }

    #[test]
    fn activity_log_records_ops_and_cycles() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[1]).unwrap();
        m.write_words(1, Precision::P8, &[2]).unwrap();
        m.clear_activity();
        m.add(0, 1, 2, Precision::P8).unwrap();
        m.sub(0, 1, 3, Precision::P8).unwrap();
        assert_eq!(m.activity().total_cycles(), 3);
        let ops = m.activity().ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, OpKind::Add);
        assert_eq!(ops[1].cycle_count, 2);
        // SUB's first cycle writes a dummy row and is shielded.
        let sub_cycles = m.activity().cycles_of(&ops[1]);
        assert!(sub_cycles[0].wb_to_dummy && sub_cycles[0].wb_shielded);
        assert!(!sub_cycles[1].wb_to_dummy);
    }

    #[test]
    fn reduce_add_sums_many_rows() {
        let mut m = mac();
        let rows = [3usize, 4, 5, 6, 7];
        for (k, &r) in rows.iter().enumerate() {
            let vals: Vec<u64> = (0..16).map(|i| (i + k as u64 * 7) & 0xFF).collect();
            m.write_words(r, Precision::P8, &vals).unwrap();
        }
        let cycles = m.reduce_add(&rows, 10, Precision::P8).unwrap();
        assert_eq!(cycles, rows.len() as u64); // 1 copy + n-1 adds
        let got = m.read_words(10, Precision::P8, 16).unwrap();
        for i in 0..16u64 {
            let expect: u64 = (0..5).map(|k| (i + k * 7) & 0xFF).sum::<u64>() & 0xFF;
            assert_eq!(got[i as usize], expect, "lane {i}");
        }
    }

    #[test]
    fn reduce_add_single_source_is_copy() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[42, 17]).unwrap();
        m.reduce_add(&[0], 5, Precision::P8).unwrap();
        assert_eq!(m.read_words(5, Precision::P8, 2).unwrap(), vec![42, 17]);
    }

    #[test]
    fn reduce_add_empty_is_an_error() {
        let mut m = mac();
        assert!(m.reduce_add(&[], 5, Precision::P8).is_err());
    }

    #[test]
    fn mult_too_wide_for_row_is_rejected() {
        let mut m = ImcMacro::new(MacroConfig::with_cols(16));
        assert!(matches!(
            m.mult(0, 1, 2, Precision::P16),
            Err(Error::PrecisionTooWide {
                needed_bits: 32,
                cols: 16
            })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 8-bit lane arithmetic matches wrapping reference arithmetic for
        /// all 16 lanes at once.
        #[test]
        fn add_sub_match_reference(a in prop::collection::vec(0u64..256, 16),
                                   b in prop::collection::vec(0u64..256, 16)) {
            let mut m = mac();
            m.write_words(0, Precision::P8, &a).unwrap();
            m.write_words(1, Precision::P8, &b).unwrap();
            m.add(0, 1, 2, Precision::P8).unwrap();
            m.sub(0, 1, 3, Precision::P8).unwrap();
            let sum = m.read_words(2, Precision::P8, 16).unwrap();
            let diff = m.read_words(3, Precision::P8, 16).unwrap();
            for i in 0..16 {
                prop_assert_eq!(sum[i], (a[i] + b[i]) & 0xFF);
                prop_assert_eq!(diff[i], a[i].wrapping_sub(b[i]) & 0xFF);
            }
        }

        /// Random 8-bit multiplications across all product lanes.
        #[test]
        fn mult_matches_reference(a in prop::collection::vec(0u64..256, 8),
                                  b in prop::collection::vec(0u64..256, 8)) {
            let mut m = mac();
            m.write_mult_operands(0, Precision::P8, &a).unwrap();
            m.write_mult_operands(1, Precision::P8, &b).unwrap();
            m.mult(0, 1, 2, Precision::P8).unwrap();
            let got = m.read_products(2, Precision::P8, 8).unwrap();
            for i in 0..8 {
                prop_assert_eq!(got[i], a[i] * b[i]);
            }
        }

        /// The fused kernel reproduces the per-step FF-bank model exactly at
        /// every width and precision: returned cycles, every main and dummy
        /// row, the activity log and the separator counts. Rows are random
        /// in full, so the operands carry junk in their high halves and in
        /// the idle columns above the last whole lane, and the source and
        /// destination rows may alias.
        #[test]
        fn mult_matches_the_per_step_model(
            seed in any::<u64>(),
            a in 0usize..3,
            b in 0usize..3,
            dst in 0usize..3,
        ) {
            let mut seed = seed;
            for cols in [8usize, 16, 20, 64, 100, 128, 192, 256, 320, 1024] {
                for p in Precision::ALL {
                    let mut fused = ImcMacro::new(MacroConfig::with_cols(cols));
                    for row in 0..3 {
                        fused.write_row(row, &junk_row(cols, &mut seed)).unwrap();
                    }
                    for d in 0..3 {
                        fused.array.write(RowAddr::Dummy(d), &junk_row(cols, &mut seed)).unwrap();
                    }
                    let mut oracle = fused.clone();
                    let got = fused.mult(a, b, dst, p);
                    let want = mult_per_step(&mut oracle, a, b, dst, p);
                    prop_assert_eq!(&got, &want, "cycles at {} cols, {}", cols, p);
                    // Every main and dummy row.
                    prop_assert!(fused.array == oracle.array, "rows differ at {} cols, {}", cols, p);
                    prop_assert_eq!(fused.activity(), oracle.activity(), "activity at {} cols, {}", cols, p);
                    prop_assert_eq!(fused.separator(), oracle.separator(), "separator at {} cols, {}", cols, p);
                }
            }
        }

        /// 16-bit extension precision works the same way.
        #[test]
        fn mult_16bit_extension(a in 0u64..65536, b in 0u64..65536) {
            let mut m = mac();
            m.write_mult_operands(0, Precision::P16, &[a]).unwrap();
            m.write_mult_operands(1, Precision::P16, &[b]).unwrap();
            let cycles = m.mult(0, 1, 2, Precision::P16).unwrap();
            prop_assert_eq!(cycles, 18);
            prop_assert_eq!(m.read_products(2, Precision::P16, 1).unwrap()[0], a * b);
        }
    }
}
