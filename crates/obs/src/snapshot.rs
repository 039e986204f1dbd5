//! The immutable end-of-run observability snapshot and its JSON form,
//! written and read through [`crate::json`]: unknown keys are ignored,
//! missing numbers default to zero.

use crate::counters::{CounterSet, Ctr};
use crate::json;
use crate::trace::TraceEvent;
use crate::ObsLevel;

/// Everything one pipeline run recorded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Level the run was recorded at.
    pub level: ObsLevel,
    /// Final counter values.
    pub counters: CounterSet,
    /// Log2-bucketed lane-FIFO occupancy samples (see [`crate::CycleHistogram`]).
    pub occupancy: Vec<u64>,
    /// Retained trace events (empty below [`ObsLevel::Trace`]).
    pub events: Vec<TraceEvent>,
    /// Trace events evicted from the ring to make room.
    pub dropped_events: u64,
}

impl ObsSnapshot {
    /// Value of one counter.
    pub fn get(&self, ctr: Ctr) -> u64 {
        self.counters.get(ctr)
    }

    /// Sum another snapshot's counters and occupancy into this one and
    /// append its events (used to roll up multi-attempt degradation runs).
    pub fn absorb(&mut self, other: &ObsSnapshot) {
        self.counters.merge(&other.counters);
        if self.occupancy.len() < other.occupancy.len() {
            self.occupancy.resize(other.occupancy.len(), 0);
        }
        for (dst, src) in self.occupancy.iter_mut().zip(&other.occupancy) {
            *dst += src;
        }
        self.events.extend(other.events.iter().cloned());
        self.dropped_events += other.dropped_events;
    }

    /// Serialize as a single JSON object. Every counter key is always
    /// present, in [`Ctr::ALL`] order, so the schema (and golden files)
    /// stay byte-stable.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(json::object(), |obj, (ctr, v)| obj.field(ctr.name(), &v));
        let event = |e: &TraceEvent| {
            json::object()
                .field("cycle", &e.cycle)
                .field("stage", e.stage.as_str())
                .field("event", e.event.as_str())
                .field("value", &e.value)
        };
        let events: Vec<_> = self.events.iter().map(event).collect();
        json::object()
            .field("level", self.level.label())
            .field("counters", &counters)
            .field("occupancy", &self.occupancy)
            .field("dropped_events", &self.dropped_events)
            .field("events", &events)
            .finish()
    }

    /// Tolerant parse of [`ObsSnapshot::to_json`] output. Unknown counter
    /// names are ignored; missing sections default to empty. Returns
    /// `None` only when the input is not one JSON object.
    pub fn from_json(text: &str) -> Option<ObsSnapshot> {
        let obj = json::Reader::parse(text)?;
        let mut counters = CounterSet::default();
        if let Some(c) = obj.raw("counters").and_then(json::Reader::parse) {
            for &ctr in Ctr::ALL {
                counters.set(ctr, c.number(ctr.name()).unwrap_or(0));
            }
        }
        let array = |key| obj.raw(key).and_then(json::elements).unwrap_or_default();
        let event = |e: json::Reader| TraceEvent {
            cycle: e.number("cycle").unwrap_or(0),
            stage: e.string("stage").unwrap_or_default(),
            event: e.string("event").unwrap_or_default(),
            value: e.number("value").unwrap_or(0),
        };
        Some(ObsSnapshot {
            level: obj
                .string("level")
                .and_then(|s| ObsLevel::parse(&s))
                .unwrap_or(ObsLevel::Off),
            counters,
            occupancy: array("occupancy")
                .iter()
                .filter_map(|v| v.parse().ok())
                .collect(),
            events: array("events")
                .into_iter()
                .filter_map(json::Reader::parse)
                .map(event)
                .collect(),
            dropped_events: obj.number("dropped_events").unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsSnapshot {
        let mut s = ObsSnapshot {
            level: ObsLevel::Trace,
            occupancy: vec![1, 0, 3],
            dropped_events: 2,
            ..ObsSnapshot::default()
        };
        s.counters.set(Ctr::TuplesIn, 1000);
        s.counters.set(Ctr::QpiReadStallCycles, 17);
        s.events.push(TraceEvent {
            cycle: 42,
            stage: "scatter".into(),
            event: "flush_start".into(),
            value: 7,
        });
        s
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = sample();
        let json = s.to_json();
        let back = ObsSnapshot::from_json(&json).expect("parse");
        assert_eq!(back, s);
        // Stability: re-serializing the parsed value is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parser_ignores_unknown_keys_and_defaults_missing() {
        let json = "{\"level\":\"counters\",\"counters\":{\"tuples_in\":5,\"future_counter\":9},\"extra\":true}";
        let s = ObsSnapshot::from_json(json).expect("parse");
        assert_eq!(s.level, ObsLevel::Counters);
        assert_eq!(s.get(Ctr::TuplesIn), 5);
        assert_eq!(s.dropped_events, 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn all_counter_keys_always_serialized() {
        let json = ObsSnapshot::default().to_json();
        for &c in Ctr::ALL {
            assert!(
                json.contains(&format!("\"{}\":", c.name())),
                "missing key {}",
                c.name()
            );
        }
    }

    #[test]
    fn absorb_sums_counters_and_occupancy() {
        let mut a = sample();
        let b = sample();
        a.absorb(&b);
        assert_eq!(a.get(Ctr::TuplesIn), 2000);
        assert_eq!(a.occupancy, vec![2, 0, 6]);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.dropped_events, 4);
    }

    #[test]
    fn non_object_input_rejected() {
        assert!(ObsSnapshot::from_json("[1,2,3]").is_none());
        assert!(ObsSnapshot::from_json("").is_none());
    }
}
