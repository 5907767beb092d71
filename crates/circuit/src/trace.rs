//! Recorded node waveforms and measurements on them.

use crate::error::CircuitError;
use crate::netlist::NodeId;

/// Edge direction for threshold-crossing measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// First crossing from below to at-or-above the level.
    Rising,
    /// First crossing from above to at-or-below the level.
    Falling,
}

/// The result of a transient run: time points and per-node voltages.
///
/// Provides the measurement primitives every experiment is built from:
/// voltage lookup at a time, first threshold crossing, min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    names: Vec<String>,
    times: Vec<f64>,
    /// Every snapshot back to back in one buffer, stride `names.len()`:
    /// node `i` at `times[k]` is `volts[k * names.len() + i]`. One
    /// allocation for the whole run instead of one per stored point.
    volts: Vec<f64>,
}

impl Trace {
    pub(crate) fn new(names: Vec<String>) -> Self {
        Self {
            names,
            times: Vec::new(),
            volts: Vec::new(),
        }
    }

    /// Appends the snapshot `v` (one voltage per node) taken at `t`.
    pub(crate) fn push(&mut self, t: f64, v: &[f64]) {
        assert_eq!(v.len(), self.names.len(), "snapshot width");
        self.times.push(t);
        self.volts.extend_from_slice(v);
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The stored time points (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// `node`'s offset within a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this trace's circuit — in the flat
    /// layout an out-of-range index would otherwise read the next snapshot.
    fn column(&self, node: NodeId) -> usize {
        let nodes = self.names.len();
        assert!(
            node.0 < nodes,
            "node index {} out of range for a trace of {nodes} nodes",
            node.0
        );
        node.0
    }

    /// The `column` entry of snapshot `k`.
    fn at(&self, k: usize, column: usize) -> f64 {
        self.volts[k * self.names.len() + column]
    }

    /// The node voltage at stored index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `k >= self.len()`.
    pub fn voltage_at_index(&self, node: NodeId, k: usize) -> f64 {
        let c = self.column(node);
        self.at(k, c)
    }

    /// The final voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `node` is out of range.
    pub fn last_voltage(&self, node: NodeId) -> f64 {
        let c = self.column(node);
        assert!(!self.is_empty(), "trace has samples");
        self.at(self.len() - 1, c)
    }

    /// Linearly interpolated voltage of `node` at time `t`, or `None` if `t`
    /// lies outside the recorded window.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn voltage_at(&self, node: NodeId, t: f64) -> Option<f64> {
        let c = self.column(node);
        if self.times.is_empty() || t < self.times[0] || t > *self.times.last().unwrap() {
            return None;
        }
        let idx = self.times.partition_point(|&x| x < t);
        if idx == 0 {
            return Some(self.at(0, c));
        }
        let hi = idx.min(self.times.len() - 1);
        let (t0, t1) = (self.times[idx - 1], self.times[hi]);
        let (v0, v1) = (self.at(idx - 1, c), self.at(hi, c));
        if t1 <= t0 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// The first time `node` crosses `level` in the given direction at or
    /// after `t_from`, linearly interpolated between stored samples.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoCrossing`] when the crossing never happens
    /// in the recorded window.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn cross_time(
        &self,
        node: NodeId,
        level: f64,
        edge: Edge,
        t_from: f64,
    ) -> Result<f64, CircuitError> {
        let c = self.column(node);
        let mut prev: Option<(f64, f64)> = None;
        for (k, &t) in self.times.iter().enumerate() {
            if t < t_from {
                continue;
            }
            let v = self.at(k, c);
            if let Some((tp, vp)) = prev {
                let crossed = match edge {
                    Edge::Rising => vp < level && v >= level,
                    Edge::Falling => vp > level && v <= level,
                };
                if crossed {
                    let frac = if (v - vp).abs() < 1e-18 {
                        0.0
                    } else {
                        (level - vp) / (v - vp)
                    };
                    return Ok(tp + frac * (t - tp));
                }
            }
            prev = Some((t, v));
        }
        Err(CircuitError::NoCrossing {
            node: self.names[c].clone(),
            level,
        })
    }

    /// The minimum voltage of `node` over `[t_from, t_to]`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn min_in(&self, node: NodeId, t_from: f64, t_to: f64) -> f64 {
        self.window_fold(node, t_from, t_to, f64::INFINITY, f64::min)
    }

    /// The maximum voltage of `node` over `[t_from, t_to]`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn max_in(&self, node: NodeId, t_from: f64, t_to: f64) -> f64 {
        self.window_fold(node, t_from, t_to, f64::NEG_INFINITY, f64::max)
    }

    fn window_fold(
        &self,
        node: NodeId,
        t_from: f64,
        t_to: f64,
        init: f64,
        f: fn(f64, f64) -> f64,
    ) -> f64 {
        let c = self.column(node);
        let mut acc = init;
        for (k, &t) in self.times.iter().enumerate() {
            if t >= t_from && t <= t_to {
                acc = f(acc, self.at(k, c));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> (Trace, NodeId) {
        // A node ramping 0 -> 1 V over 10 ns in 1 ns steps.
        let mut tr = Trace::new(vec!["gnd".into(), "x".into()]);
        for k in 0..=10 {
            let t = k as f64 * 1e-9;
            tr.push(t, &[0.0, k as f64 * 0.1]);
        }
        (tr, NodeId(1))
    }

    #[test]
    fn interpolated_lookup() {
        let (tr, x) = ramp_trace();
        let v = tr.voltage_at(x, 2.5e-9).unwrap();
        assert!((v - 0.25).abs() < 1e-12);
        assert_eq!(tr.voltage_at(x, -1.0), None);
        assert_eq!(tr.voltage_at(x, 11e-9), None);
    }

    #[test]
    fn rising_cross_interpolates() {
        let (tr, x) = ramp_trace();
        let t = tr.cross_time(x, 0.45, Edge::Rising, 0.0).unwrap();
        assert!((t - 4.5e-9).abs() < 1e-12);
    }

    #[test]
    fn falling_cross_on_ramp_fails() {
        let (tr, x) = ramp_trace();
        let err = tr.cross_time(x, 0.45, Edge::Falling, 0.0).unwrap_err();
        assert!(matches!(err, CircuitError::NoCrossing { .. }));
    }

    #[test]
    fn cross_respects_t_from() {
        let (tr, x) = ramp_trace();
        // Starting the search after the crossing point finds nothing.
        assert!(tr.cross_time(x, 0.45, Edge::Rising, 5e-9).is_err());
    }

    #[test]
    fn snapshots_do_not_bleed_into_each_other() {
        let (tr, x) = ramp_trace();
        assert_eq!(tr.len(), 11);
        for k in 0..tr.len() {
            assert_eq!(tr.voltage_at_index(NodeId(0), k), 0.0);
            assert_eq!(tr.voltage_at_index(x, k), k as f64 * 0.1);
        }
        assert_eq!(tr.last_voltage(x), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn voltage_at_index_rejects_a_foreign_node() {
        let (tr, _) = ramp_trace();
        tr.voltage_at_index(NodeId(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn last_voltage_rejects_a_foreign_node() {
        let (tr, _) = ramp_trace();
        tr.last_voltage(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn voltage_at_rejects_a_foreign_node_even_outside_the_window() {
        let (tr, _) = ramp_trace();
        tr.voltage_at(NodeId(2), -1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_time_rejects_a_foreign_node() {
        let (tr, _) = ramp_trace();
        let _ = tr.cross_time(NodeId(2), 0.45, Edge::Rising, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn min_in_rejects_a_foreign_node_even_on_an_empty_window() {
        let (tr, _) = ramp_trace();
        tr.min_in(NodeId(2), 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn max_in_rejects_a_foreign_node() {
        let (tr, _) = ramp_trace();
        tr.max_in(NodeId(2), 0.0, 1e-8);
    }

    #[test]
    fn min_max_windows() {
        let (tr, x) = ramp_trace();
        assert_eq!(tr.min_in(x, 2e-9, 8e-9), 0.2);
        assert_eq!(tr.max_in(x, 2e-9, 8e-9), 0.8);
    }
}
