//! Shared fixtures for the criterion ablation benches: the world is
//! generated once and cached for the whole bench process.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::OnceLock;

use wearscope_core::StudyContext;
use wearscope_synthpop::{generate, GeneratedWorld, ScenarioConfig};

/// A small world: ~500 subscribers, 6 summary weeks (2 detailed).
pub fn small_world() -> &'static GeneratedWorld {
    static WORLD: OnceLock<GeneratedWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut config = ScenarioConfig::compact(1001);
        config.wearable_users = 200;
        config.comparison_users = 250;
        config.through_device_users = 60;
        generate(&config)
    })
}

/// Builds a study context over a world.
pub fn ctx(world: &GeneratedWorld) -> StudyContext<'_> {
    StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    )
}
