//! The benchmark checks itself on miniatures of its workloads.

use oocts_perfbench::check::{compare_rows, recorded_digest, Checks};
use oocts_perfbench::run::{run_traced, run_untraced, Outcome};
use oocts_perfbench::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use oocts_profile::run_experiment;
use serde::value::Value;

const SEED: u64 = 7;

fn miniature(name: &str) -> Workload {
    Workload::named(name)
        .expect("a listed workload")
        .miniature()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn miniature_workloads_pass_every_check() {
    for name in WORKLOADS {
        let w = miniature(name);
        let cells = (w.setup(SEED).len() * w.scheduler_list().len()) as u64;

        let untraced = run_untraced(&w, SEED, 0.0, w.threads);
        assert_eq!(
            untraced.checks.failed(),
            0,
            "{name}: {:?}",
            untraced.checks.notes()
        );
        assert_eq!(untraced.checks.attempted(), cells);
        for m in ["setup_s", "solve_s", "peak_rss_mib", "io_volume"] {
            assert!(metric(&untraced, m) > 0.0, "{name}: {m} must not be 0");
        }

        let traced = run_traced(&w, SEED, w.threads).expect("traced set-up");
        assert_eq!(
            traced.checks.failed(),
            0,
            "{name}: {:?}",
            traced.checks.notes()
        );
        assert_eq!(traced.digest, untraced.digest, "{name}");
        assert_eq!(
            metric(&traced, "tree.fif_io"),
            metric(&untraced, "io_volume")
        );
        assert_eq!(metric(&traced, "tree.fif_calls"), cells as f64);

        // The trace parses back and names the layers the workload uses.
        let doc = Value::parse(&traced.trace.as_ref().unwrap().render()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let has = |span: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(span))
        };
        let setup_layer = if name == "trees-mid" {
            "sparse.minimum_degree"
        } else {
            "gen.synth"
        };
        for span in [
            setup_layer,
            "tree.build",
            "profile.prep",
            "core.solve_replay",
            "tree.fif",
        ] {
            assert!(has(span), "{name}: no {span} span");
        }

        let result = Value::parse(&traced.result().render()).unwrap();
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), traced.metrics.len());
    }
}

#[test]
fn tampered_results_count_as_failed() {
    let w = miniature("synth-lb");
    let instances = w.setup(SEED);
    let results = run_experiment(&instances, &w.config(1)).expect("feasible bounds");
    let schedulers = w.scheduler_list().len();

    let mut checks = Checks::new(instances.len(), schedulers);
    compare_rows(&mut checks, &results.results, &results.results);
    assert_eq!(checks.failed(), 0);

    let mut tampered = results.results.clone();
    tampered[1].io_volumes[2] += 1;
    tampered[2].performances[0] *= 1.0 + f64::EPSILON;
    let mut checks = Checks::new(instances.len(), schedulers);
    compare_rows(&mut checks, &results.results, &tampered);
    assert_eq!(checks.failed(), 2, "{:?}", checks.notes());

    tampered.pop();
    let mut checks = Checks::new(instances.len(), schedulers);
    compare_rows(&mut checks, &results.results, &tampered);
    assert_eq!(
        checks.failed(),
        checks.attempted(),
        "a missing row fails every cell"
    );
}

#[test]
fn digest_is_stable_across_thread_counts() {
    for name in WORKLOADS {
        assert!(recorded_digest(name, DEFAULT_SEED).is_some(), "{name}");
        let w = miniature(name);
        let one = run_untraced(&w, SEED, 0.0, 1);
        let two = run_untraced(&w, SEED, 0.0, 2);
        assert!(one.digest.is_some(), "{name}");
        assert_eq!(one.digest, two.digest, "{name}");
        assert_ne!(
            run_untraced(&w, SEED + 1, 0.0, 1).digest,
            one.digest,
            "{name}: the digest depends on the inputs"
        );
    }
}
