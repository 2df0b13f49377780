//! End-to-end world generation: population → daily behaviour → network logs.

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wearscope_appdb::AppCatalog;
use wearscope_devicedb::DeviceDb;
use wearscope_geo::{CountryLayout, GeoPoint, SectorDirectory, SectorGrid, SectorId};
use wearscope_mobilenet::{MobileNetwork, NetworkEvent, NetworkStats, NetworkSummaries};
use wearscope_obs::{Registry, Span};
use wearscope_simtime::{SimTime, SECS_PER_HOUR, SECS_PER_MINUTE};
use wearscope_trace::store::write_log;
use wearscope_trace::TraceStore;

use crate::config::ScenarioConfig;
use crate::day_sort::DaySort;
use crate::dist;
use crate::manifest;
use crate::mobility::day_plan;
use crate::population::{build_population, Population};
use crate::subscriber::{Subscriber, SubscriberKind};
use crate::traffic::{phone_day_traffic, wearable_day_traffic};

/// Everything one simulation run produces: the logs the analysis consumes
/// plus the ground truth the validation tests compare against.
#[derive(Debug)]
pub struct GeneratedWorld {
    /// The scenario that produced this world.
    pub config: ScenarioConfig,
    /// Synthetic country.
    pub layout: CountryLayout,
    /// Deployed sectors (shared with the analysis, like a cell-plan DB).
    pub sectors: SectorDirectory,
    /// Operator device database.
    pub db: DeviceDb,
    /// App catalog / signature database.
    pub apps: AppCatalog,
    /// Ground-truth population (not visible to the analysis pipeline).
    pub population: Population,
    /// Detailed-window logs.
    pub store: TraceStore,
    /// Long-horizon vantage point summaries.
    pub summaries: NetworkSummaries,
    /// Simulation statistics.
    pub stats: NetworkStats,
}

/// A world reloaded from disk: exactly what the analysis pipeline needs —
/// logs, cell plan, vantage summaries, window — and nothing from the
/// generator's ground truth.
#[derive(Debug)]
pub struct SavedWorld {
    /// Detailed-window logs.
    pub store: TraceStore,
    /// Sector directory (cell plan).
    pub sectors: SectorDirectory,
    /// Long-horizon summaries.
    pub summaries: NetworkSummaries,
    /// Observation window.
    pub window: wearscope_simtime::ObservationWindow,
    /// The metadata files `manifest.tsv` records no integrity check for
    /// (a world written before checks were recorded); they loaded
    /// unverified.
    pub unchecked: Vec<&'static str>,
}

impl GeneratedWorld {
    /// Persists everything an analysis needs under `dir`: the raw logs
    /// (`proxy.log`, `mme.log`), the cell plan (`sectors.tsv`), the vantage
    /// point summaries, and a `manifest.tsv` recording the window layout
    /// and the metadata files' integrity checks ([`crate::manifest`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.save_instrumented(dir, &Registry::new())
    }

    /// [`GeneratedWorld::save`], timed into `registry`'s timing section: a
    /// `save` stage span over `save/proxy` and `save/mme` (each log's
    /// encoding and writing) and `save/metadata` (the cell plan, the
    /// summaries and the manifest).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_instrumented(
        &self,
        dir: &std::path::Path,
        registry: &Registry,
    ) -> std::io::Result<()> {
        let root = registry.stage("save");
        std::fs::create_dir_all(dir)?;
        let span = root.child("proxy");
        write_log(&dir.join("proxy.log"), self.store.proxy())?;
        span.finish();
        let span = root.child("mme");
        write_log(&dir.join("mme.log"), self.store.mme())?;
        span.finish();
        let span = root.child("metadata");
        let sectors = std::fs::File::create(dir.join("sectors.tsv"))?;
        self.sectors.write_tsv(std::io::BufWriter::new(sectors))?;
        self.summaries.save(dir)?;
        std::fs::write(
            dir.join("manifest.tsv"),
            format!(
                "seed\t{}\nsummary_days\t{}\ndetailed_days\t{}\n{}",
                self.config.seed,
                self.config.window.summary().num_days(),
                self.config.window.detailed().num_days(),
                manifest::check_lines(dir)?,
            ),
        )?;
        span.finish();
        root.finish();
        Ok(())
    }

    /// Loads the metadata of a world written with [`GeneratedWorld::save`]:
    /// the manifest's window, the cell plan and the summaries, around logs
    /// the caller supplies. The logs are never read here: `analyze` folds
    /// `proxy.log`/`mme.log` through the chunk pipeline and `stream` tails
    /// them, and both pass an empty store. The files are parsed first,
    /// then checked against the manifest's integrity checks.
    ///
    /// # Errors
    /// Fails on filesystem errors, malformed files, or a file that differs
    /// from its manifest check.
    pub fn load_with_store(
        dir: &std::path::Path,
        store: TraceStore,
    ) -> std::io::Result<SavedWorld> {
        let window = wearscope_simtime::ObservationWindow::read_manifest(dir)?;
        let sectors_file = std::fs::File::open(dir.join("sectors.tsv"))?;
        let sectors = SectorDirectory::read_tsv(std::io::BufReader::new(sectors_file))?;
        // Every MME record names a sector; with no cell plan the mobility
        // figures would silently read as zero.
        if sectors.is_empty() {
            return Err(invalid("sectors.tsv: empty cell plan (no sectors)"));
        }
        let summaries = NetworkSummaries::load(dir)?;
        let unchecked = manifest::verify(dir)?;
        Ok(SavedWorld {
            store,
            sectors,
            summaries,
            window,
            unchecked,
        })
    }
}

fn invalid<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Generates a complete world from a scenario configuration.
///
/// Deterministic in `config.seed` regardless of `config.workers`: every
/// (user, day) stream owns a split seed, and per-day event batches are
/// sorted by time before they reach the network.
pub fn generate(config: &ScenarioConfig) -> GeneratedWorld {
    generate_instrumented(config, &Registry::new())
}

/// [`generate`], reporting pipeline metrics into `registry`.
///
/// Deterministic section: subscriber, day, event and record counts (all
/// pure functions of the scenario seed). Timing section: the
/// `generate/population` → `generate/simulate` → `generate/finish` stage
/// spans (one `generate/simulate/day` record per simulated day), the
/// `synthpop.{events,sort,network,wait}_ns` split of the simulation (see
/// `simulate`) and an events-per-second throughput gauge.
pub fn generate_instrumented(config: &ScenarioConfig, registry: &Registry) -> GeneratedWorld {
    let started = std::time::Instant::now();
    let root = registry.stage("generate");

    let stage = root.child("population");
    let layout = CountryLayout::generate(&config.layout, config.seed);
    let sectors = layout.deploy_sectors(
        config.sectors_in_largest_city,
        config.rural_sectors,
        config.seed,
    );
    let grid = SectorGrid::build(&sectors);
    let db = DeviceDb::standard();
    let apps = AppCatalog::standard();
    let population = build_population(config, &layout, &db, &apps);
    stage.finish();
    registry
        .counter("synthpop.subscribers")
        .add(population.subscribers.len() as u64);

    let mut network = MobileNetwork::with_window(db.clone(), sectors.clone(), config.window);
    let stage = root.child("simulate");
    simulate(
        config,
        &population,
        &apps,
        &grid,
        &mut network,
        &stage,
        registry,
    );
    stage.finish();

    let stage = root.child("finish");
    let (store, summaries, stats) = network.finish();
    registry
        .counter("synthpop.proxy_records")
        .add(store.proxy().len() as u64);
    registry
        .counter("synthpop.mme_records")
        .add(store.mme().len() as u64);
    stage.finish();

    let wall = started.elapsed();
    registry
        .timing_gauge("synthpop.gen_wall_us")
        .set(wall.as_micros() as i64);
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        registry
            .timing_gauge("synthpop.events_per_sec")
            .set((registry.counter("synthpop.events").get() as f64 / secs) as i64);
    }
    root.finish();
    GeneratedWorld {
        config: config.clone(),
        layout,
        sectors,
        db,
        apps,
        population,
        store,
        summaries,
        stats,
    }
}

/// Simulates every day of the summary window as a pipeline: `workers`
/// generator threads build whole days and sort them by second of day
/// ([`DaySort`]; day `i` on worker `i % workers`), and the calling thread
/// hands the days to `network` in order. No event crosses midnight and
/// each (user, day) has its own RNG stream, so the thread that built a
/// day cannot change a byte.
///
/// Day vectors come from a pool of `workers + 1`, and each goes back
/// emptied once the network has handled it: at most `workers + 1` days'
/// events exist at once (one in the network, one being built or waiting
/// on each worker), and the vectors keep their capacity.
///
/// Deterministic section: `synthpop.days` and `synthpop.events`. Timing
/// section, each added once per day: `synthpop.events_ns` and
/// `synthpop.sort_ns` (summed over the generator threads),
/// `synthpop.network_ns` and `synthpop.wait_ns` (the calling thread in the
/// network, and blocked on the next day), and one `generate/simulate/day`
/// span per day around the wait and the network.
fn simulate(
    config: &ScenarioConfig,
    population: &Population,
    apps: &AppCatalog,
    grid: &SectorGrid,
    network: &mut MobileNetwork,
    stage: &Span,
    registry: &Registry,
) {
    let cells = &Cells::new(grid, population);
    let days: Vec<u64> = config.window.summary().days().collect();
    let workers = config.workers.clamp(1, days.len().max(1));
    let events_counter = registry.counter("synthpop.events");
    let days_counter = registry.counter("synthpop.days");
    let network_ns = registry.timing_counter("synthpop.network_ns");
    let wait_ns = registry.timing_counter("synthpop.wait_ns");
    let (spare_tx, spare_rx) = mpsc::channel();
    for _ in 0..=workers {
        spare_tx.send(Vec::new()).expect("the pool is open");
    }
    let spare = Mutex::new(spare_rx);
    std::thread::scope(|scope| {
        let lanes: Vec<mpsc::Receiver<Vec<NetworkEvent>>> = (0..workers)
            .map(|w| {
                let (tx, rx) = mpsc::sync_channel(0);
                let (days, spare) = (&days, &spare);
                let events_ns = registry.timing_counter("synthpop.events_ns");
                let sort_ns = registry.timing_counter("synthpop.sort_ns");
                std::thread::Builder::new()
                    .name("synthpop-day".into())
                    .spawn_scoped(scope, move || {
                        let mut day_sort = DaySort::default();
                        for &day in days.iter().skip(w).step_by(workers) {
                            // The pool's lock is held only while waiting for a vector.
                            let next = spare.lock().expect("no panic holds the pool").recv();
                            let Ok(mut events) = next else {
                                return;
                            };
                            let started = Instant::now();
                            day_events(config, population, apps, cells, day, &mut events);
                            let built = Instant::now();
                            day_sort.sort(day, &mut events);
                            events_ns.add(nanos(built - started));
                            sort_ns.add(nanos(built.elapsed()));
                            if tx.send(events).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn a generator thread");
                rx
            })
            .collect();
        for i in 0..days.len() {
            let day_span = stage.child("day");
            let waiting = Instant::now();
            // A worker that panicked has dropped its sender; the scope
            // re-raises its panic once the pool below is closed.
            let Ok(mut events) = lanes[i % workers].recv() else {
                break;
            };
            let handling = Instant::now();
            events_counter.add(events.len() as u64);
            days_counter.inc();
            network.handle_all(events.drain(..));
            wait_ns.add(nanos(handling - waiting));
            network_ns.add(nanos(handling.elapsed()));
            // The workers may all have finished; a late return is dropped.
            let _ = spare_tx.send(events);
            day_span.finish();
        }
        // Closing the pool and the lanes releases a worker still waiting.
        drop(spare_tx);
        drop(lanes);
    });
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The sector that serves a point: the nearest one in the cell plan, with
/// each subscriber's home and work sectors looked up once for the run
/// (most of a day plan's anchors are one or the other).
struct Cells<'a> {
    grid: &'a SectorGrid,
    /// `[home, work]` sectors, in subscriber order.
    home_work: Vec<[SectorId; 2]>,
}

impl<'a> Cells<'a> {
    fn new(grid: &'a SectorGrid, population: &Population) -> Cells<'a> {
        let nearest = |p| grid.nearest(p).unwrap_or(SectorId(0));
        let home_work = population
            .subscribers
            .iter()
            .map(|sub| [nearest(sub.home), nearest(sub.work)])
            .collect();
        Cells { grid, home_work }
    }
}

/// Emits every subscriber's events for `day` into `out`, in subscriber
/// order.
fn day_events(
    config: &ScenarioConfig,
    population: &Population,
    apps: &AppCatalog,
    cells: &Cells<'_>,
    day: u64,
    out: &mut Vec<NetworkEvent>,
) {
    let weekend = config.window.calendar().day_is_weekend(day);
    let in_detail = day >= config.window.detailed().start().day_index();
    for (sub, &[home, work]) in population.subscribers.iter().zip(&cells.home_work) {
        let sector_at = |p: GeoPoint| {
            if p == sub.home {
                home
            } else if p == sub.work {
                work
            } else {
                cells.grid.nearest(p).unwrap_or(SectorId(0))
            }
        };
        user_day_events(config, apps, sector_at, sub, day, weekend, in_detail, out);
    }
}

/// Seeds: one independent RNG per (user, day).
fn user_day_rng(seed: u64, user: u64, day: u64) -> StdRng {
    StdRng::seed_from_u64(dist::split_seed(
        dist::split_seed(seed, 0x40_0000 ^ user),
        day,
    ))
}

/// Emits one subscriber's events for one day into `out`.
#[allow(clippy::too_many_arguments)]
fn user_day_events(
    config: &ScenarioConfig,
    apps: &AppCatalog,
    sector_at: impl Fn(GeoPoint) -> SectorId,
    sub: &Subscriber,
    day: u64,
    weekend: bool,
    in_detail: bool,
    out: &mut Vec<NetworkEvent>,
) {
    let cal = &config.calibration;
    let mut rng = user_day_rng(config.seed, sub.user.raw(), day);
    let midnight = SimTime::from_days(day);

    match sub.kind {
        SubscriberKind::WearableOwner => {
            let owns = sub.owns_wearable_on(day);
            // A data-active user's watch must attach to transmit, so an
            // active day implies registration even for occasional users.
            let active_today = owns && sub.data_active && dist::coin(&mut rng, sub.active_day_prob);
            let registered = owns
                && (sub.regular_registration
                    || active_today
                    || dist::coin(&mut rng, sub.occasional_reg_prob));
            if registered {
                let imei = sub.wearable_imei.expect("owner has wearable IMEI");
                let (_, plan) = day_plan(&mut rng, sub, weekend);
                let t_on = 5 * SECS_PER_HOUR
                    + 30 * SECS_PER_MINUTE
                    + rng.random_range(0..(2 * SECS_PER_HOUR));
                let t_off =
                    22 * SECS_PER_HOUR + 30 * SECS_PER_MINUTE + rng.random_range(0..SECS_PER_HOUR);
                out.push(NetworkEvent::Attach {
                    t: midnight + wearscope_simtime::SimDuration::from_secs(t_on),
                    user: sub.user,
                    imei,
                    sector: sector_at(plan.location_at(t_on)),
                });
                if in_detail {
                    for &(s, p) in &plan.anchors {
                        if s > t_on && s < t_off {
                            out.push(NetworkEvent::Move {
                                t: midnight + wearscope_simtime::SimDuration::from_secs(s),
                                user: sub.user,
                                imei,
                                sector: sector_at(p),
                            });
                        }
                    }
                }
                // Wearable cellular traffic (generated over the *full*
                // window: the proxy's summary statistics need it, raw
                // records are only retained in the detailed window).
                let txs = if active_today {
                    wearable_day_traffic(&mut rng, sub, cal, apps, day, weekend, |s| {
                        plan.at_home(s)
                    })
                } else {
                    Vec::new()
                };
                for tx in txs {
                    let s = tx.sec_of_day.clamp(t_on + 1, t_off.saturating_sub(1));
                    out.push(NetworkEvent::Transaction {
                        t: midnight + wearscope_simtime::SimDuration::from_secs(s),
                        user: sub.user,
                        imei,
                        host: tx.host,
                        scheme: tx.scheme,
                        bytes_down: tx.bytes_down,
                        bytes_up: tx.bytes_up,
                    });
                }
                out.push(NetworkEvent::Detach {
                    t: midnight + wearscope_simtime::SimDuration::from_secs(t_off),
                    user: sub.user,
                    imei,
                });
            }
            // The owner's smartphone traffic (the bulk of their ISP volume);
            // only the detailed window is analysed for Fig. 4.
            if in_detail {
                for tx in phone_day_traffic(&mut rng, sub, cal, weekend) {
                    out.push(NetworkEvent::Transaction {
                        t: midnight + wearscope_simtime::SimDuration::from_secs(tx.sec_of_day),
                        user: sub.user,
                        imei: sub.phone_imei,
                        host: tx.host,
                        scheme: tx.scheme,
                        bytes_down: tx.bytes_down,
                        bytes_up: tx.bytes_up,
                    });
                }
            }
        }
        SubscriberKind::Regular | SubscriberKind::ThroughDeviceOwner => {
            if !in_detail {
                return;
            }
            let imei = sub.phone_imei;
            let (_, plan) = day_plan(&mut rng, sub, weekend);
            out.push(NetworkEvent::Attach {
                t: midnight + wearscope_simtime::SimDuration::from_secs(5),
                user: sub.user,
                imei,
                sector: sector_at(plan.anchors[0].1),
            });
            for &(s, p) in plan.anchors.iter().skip(1) {
                out.push(NetworkEvent::Move {
                    t: midnight + wearscope_simtime::SimDuration::from_secs(s),
                    user: sub.user,
                    imei,
                    sector: sector_at(p),
                });
            }
            for tx in phone_day_traffic(&mut rng, sub, cal, weekend) {
                out.push(NetworkEvent::Transaction {
                    t: midnight + wearscope_simtime::SimDuration::from_secs(tx.sec_of_day),
                    user: sub.user,
                    imei,
                    host: tx.host,
                    scheme: tx.scheme,
                    bytes_down: tx.bytes_down,
                    bytes_up: tx.bytes_up,
                });
            }
            out.push(NetworkEvent::Detach {
                t: midnight + wearscope_simtime::SimDuration::from_secs(24 * SECS_PER_HOUR - 5),
                user: sub.user,
                imei,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_devicedb::{DeviceClass, Imei};
    use wearscope_trace::{read_tsv_shard, ByteRange, MmeRecord, ProxyRecord, TsvRecord};

    /// Every record of a saved log, read as one chunk with no bad line.
    fn read_log<R: TsvRecord>(path: &std::path::Path) -> Vec<R> {
        let end = std::fs::metadata(path).unwrap().len();
        let shard = read_tsv_shard(path, ByteRange { start: 0, end }).unwrap();
        assert!(shard.errors.is_empty(), "{:?}", shard.errors);
        shard.records
    }

    fn tiny_config() -> ScenarioConfig {
        let mut c = ScenarioConfig::compact(42);
        c.wearable_users = 60;
        c.comparison_users = 80;
        c.through_device_users = 25;
        c.workers = 2;
        c
    }

    /// Every file `world` saves, by name.
    fn saved_files(world: &GeneratedWorld, name: &str) -> Vec<(String, Vec<u8>)> {
        let dir = std::env::temp_dir().join(format!("wearscope-{name}-{}", std::process::id()));
        world.save(&dir).unwrap();
        files_in(&dir)
    }

    /// Every file in `dir`, by name; the directory is removed.
    fn files_in(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(dir).unwrap();
        files
    }

    #[test]
    fn generation_is_deterministic_across_worker_counts() {
        // The tiny world, and one of 55 subscribers: fewer than the 64
        // below which the generator once ran its days on one thread.
        let mut small = tiny_config();
        small.wearable_users = 20;
        small.comparison_users = 25;
        small.through_device_users = 10;
        for (name, config) in [("tiny", tiny_config()), ("small", small)] {
            let worlds = [1, 2, 3].map(|workers| {
                let mut config = config.clone();
                config.workers = workers;
                let world = generate(&config);
                let files = saved_files(&world, &format!("{name}-{workers}"));
                (workers, files, world.stats)
            });
            let (_, want_files, want_stats) = &worlds[0];
            assert_eq!(want_files.len(), 6, "{name}");
            assert!(want_stats.proxy.transactions > 0, "{name}");
            for (workers, files, stats) in &worlds[1..] {
                assert_eq!(stats, want_stats, "{name} at {workers} workers");
                for ((file, bytes), (want_file, want_bytes)) in files.iter().zip(want_files) {
                    assert_eq!(file, want_file, "{name} at {workers} workers");
                    assert!(
                        bytes == want_bytes,
                        "{name} at {workers} workers: {file} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn instrumented_metrics_are_deterministic_across_worker_counts() {
        let mut a_cfg = tiny_config();
        a_cfg.workers = 1;
        let mut b_cfg = tiny_config();
        b_cfg.workers = 3;
        let ra = Registry::new();
        let rb = Registry::new();
        let a = generate_instrumented(&a_cfg, &ra);
        let _b = generate_instrumented(&b_cfg, &rb);
        let mut sa = ra.snapshot();
        let mut sb = rb.snapshot();
        assert_eq!(
            sa.counters["synthpop.proxy_records"],
            a.store.proxy().len() as u64
        );
        assert_eq!(
            sa.counters["synthpop.mme_records"],
            a.store.mme().len() as u64
        );
        assert_eq!(
            sa.counters["synthpop.days"],
            a.config.window.summary().num_days()
        );
        assert!(sa.counters["synthpop.subscribers"] > 0);
        assert!(sa.counters["synthpop.events"] > 0);
        // The deterministic section must not depend on the worker count;
        // only the timing section may.
        sa.timing = Default::default();
        sb.timing = Default::default();
        assert_eq!(sa, sb);
    }

    #[test]
    fn an_instrumented_save_times_each_file_and_writes_the_same_world() {
        let world = generate(&tiny_config());
        let registry = Registry::new();
        let dir = std::env::temp_dir().join(format!("wearscope-spans-{}", std::process::id()));
        world.save_instrumented(&dir, &registry).unwrap();
        assert!(files_in(&dir) == saved_files(&world, "spans-plain"));
        let snapshot = registry.snapshot();
        let mut paths: Vec<&str> = snapshot
            .timing
            .stages
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        paths.sort_unstable();
        assert_eq!(paths, ["save", "save/metadata", "save/mme", "save/proxy"]);
        // Only the timing section holds them.
        assert!(snapshot.counters.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a_cfg = tiny_config();
        let mut b_cfg = tiny_config();
        a_cfg.seed = 1;
        b_cfg.seed = 2;
        let a = generate(&a_cfg);
        let b = generate(&b_cfg);
        assert_ne!(a.store.proxy().len(), b.store.proxy().len());
    }

    #[test]
    fn logs_confined_to_detailed_window() {
        let world = generate(&tiny_config());
        let detail = world.config.window.detailed();
        for r in world.store.proxy() {
            assert!(detail.contains(r.timestamp), "proxy record outside window");
        }
        for r in world.store.mme() {
            assert!(detail.contains(r.timestamp), "mme record outside window");
        }
        assert!(world.store.proxy().is_sorted_by_key(|r| r.timestamp));
        assert!(world.store.mme().is_sorted_by_key(|r| r.timestamp));
    }

    #[test]
    fn summaries_cover_full_window() {
        let world = generate(&tiny_config());
        let days = world.config.window.summary().num_days();
        // Wearable users register from day 0 even though logs start later.
        assert!(world.summaries.mme.users_on_day(0) > 0);
        assert!(world.summaries.mme.users_on_day(days - 1) > 0);
    }

    #[test]
    fn no_time_regressions_or_anomaly_floods() {
        let world = generate(&tiny_config());
        assert_eq!(world.stats.time_regressions, 0);
        // Clean attach/detach choreography → no MME anomalies.
        assert_eq!(world.stats.mme_anomalies, 0);
        assert!(world.stats.events > 0);
    }

    #[test]
    fn wearable_and_phone_records_resolve_to_right_classes() {
        let world = generate(&tiny_config());
        let mut wearable_tx = 0usize;
        let mut phone_tx = 0usize;
        for r in world.store.proxy() {
            match world
                .db
                .lookup(Imei::from_u64(r.imei).unwrap())
                .unwrap()
                .class
            {
                DeviceClass::CellularWearable => wearable_tx += 1,
                DeviceClass::Smartphone => phone_tx += 1,
                other => panic!("unexpected device class {other}"),
            }
        }
        assert!(wearable_tx > 0, "no wearable transactions");
        assert!(phone_tx > wearable_tx, "phones should dominate volume");
    }

    #[test]
    fn world_save_load_roundtrip() {
        let world = generate(&tiny_config());
        let dir = std::env::temp_dir().join(format!("wearscope-world-{}", std::process::id()));
        world.save(&dir).unwrap();
        let saved = GeneratedWorld::load_with_store(&dir, TraceStore::new()).unwrap();
        assert_eq!(
            read_log::<ProxyRecord>(&dir.join("proxy.log")),
            world.store.proxy()
        );
        assert_eq!(
            read_log::<MmeRecord>(&dir.join("mme.log")),
            world.store.mme()
        );
        assert_eq!(saved.sectors.len(), world.sectors.len());
        assert_eq!(saved.window, world.config.window);
        // Summaries carry the long-horizon data the logs do not.
        assert_eq!(
            saved.summaries.mme.users_on_day(0),
            world.summaries.mme.users_on_day(0)
        );
        assert_eq!(
            saved.summaries.wearable_traffic.users_in_days(0, u64::MAX),
            world.summaries.wearable_traffic.users_in_days(0, u64::MAX)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_cell_plan_is_an_error_naming_sectors_tsv() {
        let world = generate(&tiny_config());
        let dir = std::env::temp_dir().join(format!("wearscope-nocells-{}", std::process::id()));
        world.save(&dir).unwrap();
        std::fs::write(dir.join("sectors.tsv"), "").unwrap();
        let err = GeneratedWorld::load_with_store(&dir, TraceStore::new())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("sectors.tsv"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mme_log_contains_all_three_event_kinds() {
        use wearscope_trace::MmeEvent;
        let world = generate(&tiny_config());
        let has = |ev: MmeEvent| world.store.mme().iter().any(|r| r.event == ev);
        assert!(has(MmeEvent::Attach));
        assert!(has(MmeEvent::Detach));
        assert!(has(MmeEvent::SectorUpdate));
    }
}
