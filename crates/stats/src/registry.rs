//! A simulator-wide registry of named hierarchical counters.
//!
//! Every component of the reproduction keeps its own flat stat struct
//! (`MemStats`, `EngineStats`, ...). The registry unifies
//! them behind dot-separated hierarchical names — `l1d.misses`,
//! `bfetch.stops.confidence`, `prefetch.useful` — so harness code and
//! external tooling can enumerate, diff and export every counter without
//! knowing each component's struct layout.
//!
//! Names sort lexicographically, which groups a component's counters
//! together; [`StatsRegistry::with_prefix`] selects one subtree.
//! [`StatsRegistry::snapshot`] + [`StatsRegistry::delta`] implement the
//! measurement-window discipline the per-component structs provide with
//! their hand-written `delta` methods, but generically.
//!
//! # Example
//!
//! ```
//! use bfetch_stats::StatsRegistry;
//!
//! let mut reg = StatsRegistry::new();
//! reg.add("l1d.misses", 3);
//! reg.add("l1d.hits", 10);
//! let warm = reg.snapshot();
//!
//! reg.add("l1d.misses", 2); // the measurement window
//! let window = reg.delta(&warm);
//! assert_eq!(window.get("l1d.misses"), 2);
//! assert_eq!(window.get("l1d.hits"), 0);
//!
//! let l1d: Vec<_> = reg.with_prefix("l1d.").collect();
//! assert_eq!(l1d, [("l1d.hits", 10), ("l1d.misses", 5)]);
//! ```

use std::collections::BTreeMap;

/// Named hierarchical `u64` counters with snapshot/delta support.
///
/// See the [module docs](self) for the naming convention and an example.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsRegistry {
    counters: BTreeMap<String, u64>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first if it
    /// does not exist yet.
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Sets the counter `name` to `value`, creating it if needed.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Records a histogram as indexed counters `name.0`, `name.1`, ...
    /// (one per bucket), the convention used for e.g.
    /// `core.branch_fetch_hist`.
    pub fn set_hist(&mut self, name: &str, buckets: &[u64]) {
        for (i, &v) in buckets.iter().enumerate() {
            self.set(format!("{name}.{i}"), v);
        }
    }

    /// The counter's value; `0` if it was never recorded.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether `name` has been recorded.
    pub fn contains(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the registry holds no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// All counters in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The counters whose names start with `prefix`, in name order.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        // BTreeMap range over the half-open prefix interval
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
    }

    /// A point-in-time copy, for later [`StatsRegistry::delta`].
    pub fn snapshot(&self) -> StatsRegistry {
        self.clone()
    }

    /// The name-wise difference `self − earlier` (counters absent from
    /// `earlier` count from zero; the subtraction saturates so a reset
    /// counter cannot underflow).
    pub fn delta(&self, earlier: &StatsRegistry) -> StatsRegistry {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
            .collect();
        StatsRegistry { counters }
    }

    /// Merges `other` into `self`, summing counters that exist in both.
    pub fn merge(&mut self, other: &StatsRegistry) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Removes the counter `name`, returning its value if it existed.
    pub fn remove(&mut self, name: &str) -> Option<u64> {
        self.counters.remove(name)
    }
}

/// Renders one `name value` line per counter, in name order.
impl std::fmt::Display for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_get_defaults_to_zero() {
        let mut r = StatsRegistry::new();
        assert_eq!(r.get("nope"), 0);
        assert!(!r.contains("nope"));
        r.add("a.x", 1);
        r.add("a.x", 2);
        r.set("a.y", 7);
        assert_eq!(r.get("a.x"), 3);
        assert_eq!(r.get("a.y"), 7);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn snapshot_delta_is_a_measurement_window() {
        let mut r = StatsRegistry::new();
        r.add("m.loads", 10);
        let snap = r.snapshot();
        r.add("m.loads", 5);
        r.add("m.stores", 2); // born inside the window
        let d = r.delta(&snap);
        assert_eq!(d.get("m.loads"), 5);
        assert_eq!(d.get("m.stores"), 2);
        // the snapshot itself is unchanged
        assert_eq!(snap.get("m.loads"), 10);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let mut before = StatsRegistry::new();
        before.set("c", 10);
        let mut after = StatsRegistry::new();
        after.set("c", 3); // counter was reset between snapshots
        assert_eq!(after.delta(&before).get("c"), 0);
    }

    #[test]
    fn iteration_is_sorted_and_prefix_selects_subtrees() {
        let mut r = StatsRegistry::new();
        for name in ["l2.hits", "l1d.misses", "l1d.hits", "dram.reqs"] {
            r.set(name, 1);
        }
        let names: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["dram.reqs", "l1d.hits", "l1d.misses", "l2.hits"]);
        let l1d: Vec<&str> = r.with_prefix("l1d.").map(|(k, _)| k).collect();
        assert_eq!(l1d, ["l1d.hits", "l1d.misses"]);
        assert_eq!(r.with_prefix("l9.").count(), 0);
    }

    #[test]
    fn hist_expands_to_indexed_counters() {
        let mut r = StatsRegistry::new();
        r.set_hist("core.branch_fetch_hist", &[100, 40, 8]);
        assert_eq!(r.get("core.branch_fetch_hist.0"), 100);
        assert_eq!(r.get("core.branch_fetch_hist.2"), 8);
    }

    #[test]
    fn delta_drops_counters_absent_from_the_later_snapshot() {
        // delta() iterates only the *later* registry's counters, so a
        // counter that disappears between snapshots vanishes from the
        // window rather than reporting a negative or stale value — callers
        // comparing registries from different configurations (e.g. with
        // and without cpi.* keys) rely on this
        let mut before = StatsRegistry::new();
        before.set("kept", 1);
        before.set("gone", 5);
        let mut after = StatsRegistry::new();
        after.set("kept", 4);
        let d = after.delta(&before);
        assert_eq!(d.get("kept"), 3);
        assert!(!d.contains("gone"));
        assert_eq!(d.len(), 1);
        // the reverse direction: a counter born between snapshots counts
        // from zero and is present
        let d2 = before.delta(&after);
        assert_eq!(d2.get("gone"), 5);
        assert!(d2.contains("gone"));
    }

    #[test]
    fn hist_with_ten_or_more_buckets_orders_lexicographically() {
        // indexed counters sort as strings: "h.10" precedes "h.2". The
        // expansion itself is index-faithful (get() is unaffected), but
        // any consumer of iter()/Display must not assume numeric bucket
        // order past ten buckets
        let buckets: Vec<u64> = (0..12).collect();
        let mut r = StatsRegistry::new();
        r.set_hist("h", &buckets);
        for (i, &v) in buckets.iter().enumerate() {
            assert_eq!(r.get(&format!("h.{i}")), v);
        }
        let names: Vec<&str> = r.with_prefix("h.").map(|(k, _)| k).collect();
        assert_eq!(
            names,
            [
                "h.0", "h.1", "h.10", "h.11", "h.2", "h.3", "h.4", "h.5", "h.6", "h.7", "h.8",
                "h.9"
            ]
        );
    }

    #[test]
    fn remove_returns_the_old_value() {
        let mut r = StatsRegistry::new();
        r.set("cpi.width", 4);
        assert_eq!(r.remove("cpi.width"), Some(4));
        assert_eq!(r.remove("cpi.width"), None);
        assert!(!r.contains("cpi.width"));
    }

    #[test]
    fn merge_sums_overlapping_counters() {
        let mut a = StatsRegistry::new();
        a.set("x", 1);
        let mut b = StatsRegistry::new();
        b.set("x", 2);
        b.set("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn display_is_one_line_per_counter() {
        let mut r = StatsRegistry::new();
        r.set("b", 2);
        r.set("a", 1);
        assert_eq!(r.to_string(), "a 1\nb 2\n");
    }
}
