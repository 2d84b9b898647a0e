//! Reading the program's own `sc_obs` counters at the boundaries the harness
//! times, so ratios are measured where the work happens.

use sc_obs::{Registry, RegistrySnapshot};
use std::collections::BTreeMap;

/// A point-in-time copy of the global registry.
pub struct ObsSnapshot(RegistrySnapshot);

impl ObsSnapshot {
    pub fn take() -> ObsSnapshot {
        ObsSnapshot(Registry::global().snapshot())
    }

    /// Counter and histogram movement since `earlier`.
    pub fn since(self, earlier: ObsSnapshot) -> ObsDelta {
        let mut delta = ObsDelta::default();
        for (name, after) in &self.0.counters {
            let before = earlier.0.counter(name).unwrap_or(0);
            delta.counters.insert(name.clone(), after - before);
        }
        for (name, after) in &self.0.histograms {
            let (count, sum) = earlier
                .0
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum));
            delta
                .histograms
                .insert(name.clone(), (after.count - count, after.sum - sum));
        }
        delta
    }
}

/// What the program counted over one or more stretches of the run. A metric
/// the program never registered reads as zero.
#[derive(Default)]
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    /// `(observations, sum of observations)` per histogram.
    histograms: BTreeMap<String, (u64, u64)>,
}

impl ObsDelta {
    /// Adds another stretch's movement to this one.
    pub fn add(&mut self, other: ObsDelta) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, (count, sum)) in other.histograms {
            let slot = self.histograms.entry(name).or_default();
            slot.0 += count;
            slot.1 += sum;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(observations, sum of observations)` a histogram gained.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or((0, 0))
    }
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Time the engine spent flushing and merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineBusy {
    pub flush_ns: u64,
    pub compaction_ns: u64,
}

impl EngineBusy {
    pub fn since(self, earlier: EngineBusy) -> EngineBusy {
        EngineBusy {
            flush_ns: self.flush_ns - earlier.flush_ns,
            compaction_ns: self.compaction_ns - earlier.compaction_ns,
        }
    }
}

impl std::ops::AddAssign for EngineBusy {
    fn add_assign(&mut self, other: EngineBusy) {
        self.flush_ns += other.flush_ns;
        self.compaction_ns += other.compaction_ns;
    }
}

/// Total time the engine has spent in flushes and merges so far, from the
/// duration histograms its `nosql.flush` / `nosql.compaction` spans feed.
pub fn engine_busy() -> EngineBusy {
    let r = Registry::global();
    EngineBusy {
        flush_ns: r.histogram("nosql.flush.duration_ns").snapshot().sum,
        compaction_ns: r.histogram("nosql.compaction.duration_ns").snapshot().sum,
    }
}
