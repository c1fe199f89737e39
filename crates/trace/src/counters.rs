//! Ordered registry of monotonic counters and gauges.

use crate::event::{DecisionReason, EventKind, KINDS};
use tlb_json::Value;

/// Slots past the per-kind ones: decisions that held the task, held
/// tasks an idle worker took, and offers of a core to a worker with
/// nothing queued ([`Counters::steal_attempt`]; no event stands for one).
const TASKS_HELD: usize = KINDS.len();
const TASKS_STOLEN: usize = KINDS.len() + 1;
const STEAL_ATTEMPTS: usize = KINDS.len() + 2;

/// Runtime counters: monotonic `u64` counts plus `f64` gauges.
///
/// Counts record deterministic facts (tasks offloaded, LeWI lends,
/// solver invocations); gauges hold measurements that may be wall-clock
/// derived (solver wall milliseconds) and are therefore kept out of the
/// deterministic event stream. A count that counts an event kind is
/// derived where the event is pushed ([`Counters::note`]: an array bump,
/// named only when dumped), as is `steal_attempts`; the few cold ones are
/// bumped by name ([`Counters::add`], a linear scan over a handful of names).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    by_event: [u64; KINDS.len() + 3],
    counts: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
}

/// Name of a [`Counters::note`] slot (`None`: the kind feeds no counter).
fn slot_name(slot: usize) -> Option<&'static str> {
    match slot {
        TASKS_HELD => Some("tasks_held"),
        TASKS_STOLEN => Some("tasks_stolen"),
        STEAL_ATTEMPTS => Some("steal_attempts"),
        kind => KINDS[kind].1,
    }
}

impl Counters {
    /// Empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Count one pushed event under the counter of its kind. A steal is
    /// a `SchedDecision` too but counts as `tasks_stolen`, not as a
    /// scheduler decision; a decision that held its task is both a
    /// `sched_decisions` and a `tasks_held`.
    pub fn note(&mut self, kind: &EventKind) {
        let slot = match kind {
            EventKind::SchedDecision {
                reason: DecisionReason::Stolen,
                ..
            } => TASKS_STOLEN,
            EventKind::SchedDecision {
                reason: DecisionReason::Queued,
                ..
            } => {
                self.by_event[TASKS_HELD] += 1;
                kind.index()
            }
            _ => kind.index(),
        };
        self.by_event[slot] += 1;
    }

    /// Count one steal attempt — bumped per scheduling question, not
    /// per event, so it has a slot instead of a name to find.
    pub fn steal_attempt(&mut self) {
        self.by_event[STEAL_ATTEMPTS] += 1;
    }

    /// Add `delta` to the by-name counter `name`, creating it at zero
    /// first. For counts no event stands for; the names
    /// [`Counters::note`] derives are not looked up here.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(entry) = self.counts.iter_mut().find(|(n, _)| n == name) {
            entry.1 += delta;
        } else {
            self.counts.push((name.to_string(), delta));
        }
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name`, by-name or derived (0 if never
    /// touched).
    pub fn count(&self, name: &str) -> u64 {
        let named = self.counts.iter().find(|(n, _)| n == name);
        let derived = (0..self.by_event.len()).find(|&slot| slot_name(slot) == Some(name));
        named.map_or(0, |(_, v)| *v) + derived.map_or(0, |slot| self.by_event[slot])
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(entry) = self.gauges.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            self.gauges.push((name.to_string(), value));
        }
    }

    /// Add `delta` to gauge `name` (accumulating measurement).
    pub fn add_gauge(&mut self, name: &str, delta: f64) {
        let current = self.gauge(name);
        self.set_gauge(name, current + delta);
    }

    /// Current value of gauge `name` (0.0 if never touched).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.gauges.is_empty() && self.by_event.iter().all(|&n| n == 0)
    }

    /// Counters sorted by name (stable dump order): every by-name
    /// counter, and every derived one that counted at least one event.
    pub fn sorted_counts(&self) -> Vec<(String, u64)> {
        let derived = self.by_event.iter().enumerate();
        let mut out: Vec<(String, u64)> = derived
            .filter(|&(_, &n)| n > 0)
            .filter_map(|(slot, &n)| Some((slot_name(slot)?.to_string(), n)))
            .chain(self.counts.iter().cloned())
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Gauges sorted by name (stable dump order).
    pub fn sorted_gauges(&self) -> Vec<(String, f64)> {
        let mut out = self.gauges.clone();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// JSON object `{ "counters": {...}, "gauges": {...} }` with keys
    /// sorted by name, so the dump is independent of touch order.
    pub fn to_json(&self) -> Value {
        let counts: Vec<(String, Value)> = self
            .sorted_counts()
            .into_iter()
            .map(|(n, v)| (n, Value::from(v)))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .sorted_gauges()
            .into_iter()
            .map(|(n, v)| (n, Value::from(v)))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counts)),
            ("gauges".to_string(), Value::Object(gauges)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_default_to_zero() {
        let mut c = Counters::new();
        assert_eq!(c.count("tasks_offloaded"), 0);
        c.inc("tasks_offloaded");
        c.add("tasks_offloaded", 4);
        assert_eq!(c.count("tasks_offloaded"), 5);
        assert!(!c.is_empty());
    }

    #[test]
    fn gauges_set_and_accumulate() {
        let mut c = Counters::new();
        c.set_gauge("solver_wall_ms", 1.5);
        c.add_gauge("solver_wall_ms", 0.5);
        assert!((c.gauge("solver_wall_ms") - 2.0).abs() < 1e-12);
        assert_eq!(c.gauge("missing"), 0.0);
    }

    #[test]
    fn json_dump_is_sorted_regardless_of_touch_order() {
        let mut a = Counters::new();
        a.inc("zeta");
        a.inc("alpha");
        let mut b = Counters::new();
        b.inc("alpha");
        b.inc("zeta");
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
        let json = a.to_json().to_string_compact();
        assert!(json.contains("\"alpha\":1"));
        assert!(json.contains("\"zeta\":1"));
    }
}
