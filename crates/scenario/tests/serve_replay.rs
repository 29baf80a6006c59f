//! Serve-ingest replay must be repeatable: each call replays the
//! recipe into a fresh WAL, so a second run over the same scratch
//! directory never recovers (and trips over) the first run's log.

use std::path::PathBuf;

use cascade_scenario::{load_recipe, ScenarioRunner};

#[test]
fn serve_replay_twice_in_one_scratch_dir_acks_every_event_both_times() {
    let recipe = load_recipe(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../recipes/adv_reorder.json"),
    )
    .expect("committed recipe parses")
    .scaled(0.02);
    let events = recipe.base_events();
    assert!(events > 0);
    let scratch = std::env::temp_dir().join(format!(
        "cascade_scenario_serve_replay_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).unwrap();

    let runner = ScenarioRunner::new(recipe);
    for run in 0..2 {
        // serve_replay fails unless the engine acks every base event.
        let report = runner
            .serve_replay(&scratch)
            .unwrap_or_else(|e| panic!("replay {} failed: {}", run, e));
        assert_eq!(report.mode, "serve-replay");
        assert_eq!(report.base_events, events, "replay {}", run);
        assert!(report.events_per_sec > 0.0, "replay {}", run);
    }
    std::fs::remove_dir_all(&scratch).ok();
}
