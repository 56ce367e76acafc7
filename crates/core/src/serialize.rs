//! Report serialization helpers: [`SolveReport`] / [`ExpansionStats`] as
//! JSON [`Value`] trees.
//!
//! The benchmark harness (`oocts-bench`'s `bench` binary) and any future
//! service front end exchange solve outcomes as JSON. The conversions here
//! are the single source of truth for that wire shape, so the emitter and
//! its validators cannot drift apart: every numeric field of the report maps
//! to one stable key, wall-clock time is carried as integer nanoseconds, and
//! the schedule itself is included only on request (it dominates the payload
//! size on large instances).

use serde::value::Value;

use crate::scheduler::{ExpansionStats, SolveReport};

impl ExpansionStats {
    /// The stats as a JSON object:
    /// `{"expansions": …, "forced_io": …, "hit_iteration_cap": …}`.
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("expansions", Value::U64(self.expansions as u64))
            .with("forced_io", Value::U64(self.forced_io))
            .with("hit_iteration_cap", Value::Bool(self.hit_iteration_cap))
    }
}

impl SolveReport {
    /// The report as a JSON object, without the schedule.
    ///
    /// Keys: `scheduler` (string), `io_volume` / `peak_memory` (u64),
    /// `performance` (f64), `wall_time_ns` (u64, saturated), `expansion`
    /// (the [`ExpansionStats::to_value`] object) and `schedule_len` (u64).
    pub fn to_value(&self) -> Value {
        let wall_ns = u64::try_from(self.wall_time.as_nanos()).unwrap_or(u64::MAX);
        Value::object()
            .with("scheduler", Value::Str(self.scheduler.clone()))
            .with("io_volume", Value::U64(self.io_volume))
            .with("performance", Value::F64(self.performance))
            .with("peak_memory", Value::U64(self.peak_memory))
            .with("wall_time_ns", Value::U64(wall_ns))
            .with("expansion", self.expansion.to_value())
            .with("schedule_len", Value::U64(self.schedule.len() as u64))
    }

    /// Like [`SolveReport::to_value`], with the execution order attached
    /// under `schedule` as an array of node indices.
    pub fn to_value_with_schedule(&self) -> Value {
        let order: Vec<Value> = self
            .schedule
            .order()
            .iter()
            .map(|n| Value::U64(n.index() as u64))
            .collect();
        self.to_value().with("schedule", Value::Array(order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{RecExpand, Scheduler};
    use oocts_tree::TreeBuilder;

    fn sample_report() -> SolveReport {
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        let a = b.add_child(root, 4);
        let c = b.add_child(a, 8);
        b.add_child(c, 2);
        let r = b.add_child(root, 6);
        b.add_child(r, 4);
        let tree = b.build().unwrap();
        let memory = tree.min_feasible_memory();
        RecExpand::default().solve(&tree, memory).unwrap()
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let value = report.to_value();
        let text = value.render();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed.get("scheduler").unwrap().as_str(), Some("RecExpand"));
        assert_eq!(
            parsed.get("io_volume").unwrap().as_u64(),
            Some(report.io_volume)
        );
        assert_eq!(
            parsed.get("peak_memory").unwrap().as_u64(),
            Some(report.peak_memory)
        );
        let perf = parsed.get("performance").unwrap().as_f64().unwrap();
        assert!((perf - report.performance).abs() < 1e-12);
        let expansion = parsed.get("expansion").unwrap();
        assert_eq!(
            expansion.get("expansions").unwrap().as_u64(),
            Some(report.expansion.expansions as u64)
        );
        assert_eq!(
            expansion.get("hit_iteration_cap").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(
            parsed.get("schedule_len").unwrap().as_u64(),
            Some(report.schedule.len() as u64)
        );
        // The compact writer is deterministic.
        assert_eq!(
            parsed.render(),
            Value::parse(&parsed.render()).unwrap().render()
        );
    }

    #[test]
    fn schedule_payload_is_opt_in() {
        let report = sample_report();
        assert!(report.to_value().get("schedule").is_none());
        let with = report.to_value_with_schedule();
        let order = with.get("schedule").unwrap().as_array().unwrap();
        assert_eq!(order.len(), report.schedule.len());
        // The serialized order matches the schedule node for node.
        for (value, node) in order.iter().zip(report.schedule.order()) {
            assert_eq!(value.as_u64(), Some(node.index() as u64));
        }
    }

    #[test]
    fn pretty_rendering_parses_back_identically() {
        let report = sample_report();
        let value = report.to_value();
        let pretty = value.render_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(Value::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn json_strings_with_special_characters_round_trip() {
        for name in ["a,b", "q\"uo\"te", "line\nbreak", "tab\tand\rcr", "ünïcode"] {
            let value = Value::Str(name.to_string());
            let parsed = Value::parse(&value.render()).unwrap();
            assert_eq!(parsed.as_str(), Some(name));
        }
    }

    #[test]
    fn deep_nesting_is_a_located_error_not_a_stack_overflow() {
        use serde::value::MAX_DEPTH;
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deepest).is_ok());
        // The first bracket past the limit is the offending offset.
        let err = Value::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let err = Value::parse(&r#"{"k":"#.repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
    }
}
