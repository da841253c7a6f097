//! Timers around the calls the benchmark makes into each layer.
//!
//! Every timed call is a leaf: no timed call runs inside another. A
//! round's per-layer figures are the wall times of its calls, summed by
//! name, plus the counters recorded while the round ran.

use crate::stats::ms;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer figures of one round: time in ms by call name, and counters
/// by name.
#[derive(Default, Clone)]
pub struct RoundLayers {
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

#[derive(Default)]
pub struct Tracer {
    round: RoundLayers,
    /// Wall time of the probes: extra measurements the untraced operation
    /// does not make.
    probe_ms: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f`, adding its wall time to the call named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let clock = Instant::now();
        let out = f();
        *self.round.ms.entry(name).or_default() += ms(clock.elapsed());
        out
    }

    /// Records a probe's wall time, which callers leave out of an
    /// operation's time.
    pub fn add_probe(&mut self, probe_ms: f64) {
        self.probe_ms += probe_ms;
    }

    /// Wall time of every probe recorded so far.
    pub fn probe_ms(&self) -> f64 {
        self.probe_ms
    }

    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.round.counts.entry(counter).or_default() += value;
    }

    pub fn max(&mut self, counter: &'static str, value: f64) {
        let slot = self.round.counts.entry(counter).or_insert(value);
        *slot = slot.max(value);
    }

    /// Closes the current round and returns its per-layer figures.
    pub fn finish_round(&mut self) -> RoundLayers {
        std::mem::take(&mut self.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_and_counters_sum_by_name() {
        let mut tr = Tracer::new();
        let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
        tr.span("call", pause);
        tr.span("call", pause);
        tr.add("n", 2.0);
        tr.add("n", 3.0);
        tr.max("peak", 4.0);
        tr.max("peak", 1.0);
        let round = tr.finish_round();
        assert!(round.ms["call"] >= 10.0);
        assert_eq!(round.counts["n"], 5.0);
        assert_eq!(round.counts["peak"], 4.0);
        assert!(tr.finish_round().ms.is_empty());
    }
}
