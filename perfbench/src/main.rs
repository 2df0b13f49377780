//! The in-process half of the wearscope benchmark (`perfbench/run.py` is
//! the other half and the entry point).
//!
//! ```text
//! perfbench setup --scale S --seed N --out DIR [--corrupt-seed C]
//! perfbench trace --workload batch|replay|dirty --scale S --seed N
//!                 --work DIR --json FILE [--corrupt-seed C]
//! perfbench run --result FILE -- PROGRAM [ARGS...]
//! ```
//!
//! `run` times one command and records its own peak RSS. The harness starts
//! every child through it: a process's peak RSS includes whatever its
//! parent had resident when it was started, and this process stays small,
//! while the harness does not.
//!
//! `setup` writes the benchmark world through the library, as
//! `wearscope generate` (plus `wearscope corrupt --faults all`) would, and
//! prints one JSON line with the record and fault counts.
//!
//! `trace` is the traced run. It makes the public calls `src/main.rs` makes
//! for the workload's command lines, in the same order, and wraps each one
//! in a span of this file; nothing inside the program is instrumented.
//! After the mirrored run come the layer probes: calls the CLI makes only
//! inside a bigger call (the codec alone, each store-scanning analysis),
//! timed once each under a separate root. The spans and counts are kept in
//! memory and written to `--json` when the run ends; each command's stdout
//! text goes to `WORK/<command>.stdout` and its CSVs and stream report
//! under `WORK`, so the harness can check them against the CLI's.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use wearscope::core::activity::daily_active_share;
use wearscope::core::devices::DeviceMix;
use wearscope::core::mobility::MobilityIndex;
use wearscope::core::quality::DataQualityReport;
use wearscope::core::thirdparty::DomainBreakdown;
use wearscope::core::through_device::ThroughDeviceReport;
use wearscope::core::weekly::WeeklyPattern;
use wearscope::core::CoreAggregates;
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{load_store_resilient, IngestEngine, IngestOptions};
use wearscope::obs::Registry;
use wearscope::prelude::*;
use wearscope::report::{
    figures::FigureCsvExporter, render_full_report, ExperimentReport, QuarantineReason,
};
use wearscope::stream::{EventSource, Polled, PumpOptions, PumpOutcome, SourcePosition};
use wearscope::synthpop::generate_instrumented;
use wearscope::trace::{plan_tsv_shards, read_tsv_shard, TsvShard};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("setup") => cmd_setup(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => Err(
            "usage: perfbench setup|trace|run ... (see the header of perfbench/src/main.rs)".into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("{name} is required"))
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name).map_or(Ok(default), |s| {
        s.parse().map_err(|_| format!("bad {name} `{s}`"))
    })
}

/// The CLI's `--scale` presets (`scale_config` in `src/main.rs`), with at
/// most two generator threads. The generated world does not depend on the
/// thread count, so it is the world `wearscope generate` writes.
fn scenario(args: &[String]) -> Result<ScenarioConfig, String> {
    let seed = number(args, "--seed", 7)?;
    let mut config = match flag(args, "--scale").unwrap_or("compact") {
        "quick" => {
            let mut c = ScenarioConfig::compact(seed);
            c.wearable_users = 150;
            c.comparison_users = 200;
            c.through_device_users = 50;
            c
        }
        "compact" => ScenarioConfig::compact(seed),
        "paper" => ScenarioConfig::paper(seed),
        other => return Err(format!("unknown scale `{other}` (quick|compact|paper)")),
    };
    config.workers = config.workers.min(2);
    Ok(config)
}

/// `corrupt --faults all`, parsed the way the CLI parses it.
fn all_faults() -> FaultSpec {
    "all".parse().expect("`all` is a valid fault spec")
}

fn cmd_setup(args: &[String]) -> Result<(), String> {
    let out = PathBuf::from(required(args, "--out")?);
    let config = scenario(args)?;
    let corrupt_seed = flag(args, "--corrupt-seed")
        .map(|_| number(args, "--corrupt-seed", 3))
        .transpose()?;
    let world = generate_instrumented(&config, &Registry::new());
    world
        .save(&out)
        .map_err(|e| format!("saving {}: {e}", out.display()))?;
    let (proxy, mme) = (world.store.proxy().len(), world.store.mme().len());
    drop(world);
    let faults = match corrupt_seed {
        Some(seed) => corrupt_world(&out, seed, &all_faults())
            .map_err(|e| format!("corrupting {}: {e}", out.display()))?
            .total(),
        None => 0,
    };
    println!("{{\"proxy_records\":{proxy},\"mme_records\":{mme},\"faults\":{faults}}}");
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("`perfbench run` declares the 64-bit Linux `struct rusage`");

/// `struct rusage` on 64-bit Linux: two `struct timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let sep = args
        .iter()
        .position(|a| a == "--")
        .ok_or("run requires -- PROGRAM [ARGS...]")?;
    let result = required(&args[..sep], "--result")?;
    let (program, rest) = args[sep + 1..]
        .split_first()
        .ok_or("run requires -- PROGRAM [ARGS...]")?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .spawn()
        .map_err(|e| format!("starting {program}: {e}"))?;
    let pid = c_int::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is this process's own child, not yet waited for, and
        // both pointers are to live locals of the types wait4 writes.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(format!("waiting for {program}: {err}"));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    // WIFEXITED ? WEXITSTATUS : 128 + WTERMSIG, as a shell reports it.
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let line = format!(
        "{{\"wall_s\":{wall},\"maxrss_kb\":{},\"exit\":{exit}}}\n",
        usage.maxrss
    );
    std::fs::write(result, line).map_err(|e| format!("writing {result}: {e}"))
}

/// One recorded span: offsets from the tracer's origin and the index of
/// the span that was open when it began.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans and counts of one traced run, kept in memory until it ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a count; a later value under the same name replaces it.
    fn count(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.counts.push((name, value)),
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            );
        }
        s.push_str("],\n\"counts\":{");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n\"{name}\":{value}");
        }
        s.push_str("}}\n");
        s
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let workload = required(args, "--workload")?;
    if !["batch", "replay", "dirty"].contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (batch|replay|dirty)"
        ));
    }
    let config = scenario(args)?;
    let corrupt_seed = number(args, "--corrupt-seed", 3)?;
    let work = PathBuf::from(required(args, "--work")?);
    let json = required(args, "--json")?;
    let world = work.join("world");
    let mut tr = Tracer::new();

    let run = tr.begin("run");
    let registry = Registry::new();
    let generated = tr.time("synthpop.generate", || {
        generate_instrumented(&config, &registry)
    });
    let events = registry.snapshot().counters.get("synthpop.events").copied();
    tr.count("synthpop.events", events.unwrap_or(0) as f64);
    tr.time("trace.save", || generated.save(&world))
        .map_err(|e| format!("saving {}: {e}", world.display()))?;
    tr.time("trace.free", || drop(generated));
    if workload == "dirty" {
        tr.time("faults.corrupt", || {
            corrupt_world(&world, corrupt_seed, &all_faults())
        })
        .map_err(|e| format!("corrupting {}: {e}", world.display()))?;
    }
    match workload {
        "batch" => {
            let csv = work.join("analyze_w1-csv");
            let out = work.join("analyze_w1.stdout");
            analyze(&mut tr, &world, 1, true, Some(&csv), &out)?;
            let csv = work.join("analyze_w2-csv");
            let out = work.join("analyze_w2.stdout");
            analyze(&mut tr, &world, 2, true, Some(&csv), &out)?;
        }
        "replay" => {
            let ckpt = work.join("ckpt");
            let report = work.join("stream.tsv");
            stream(
                &mut tr,
                &world,
                Some(&ckpt),
                Some(&report),
                &work.join("stream.stdout"),
            )?;
        }
        _ => {
            analyze(
                &mut tr,
                &world,
                2,
                false,
                None,
                &work.join("analyze_w2.stdout"),
            )?;
            stream(&mut tr, &world, None, None, &work.join("stream.stdout"))?;
        }
    }
    tr.end(run);

    let probe = tr.begin("probe");
    parse_probe(&mut tr, &world)?;
    if workload != "replay" {
        analysis_probes(&mut tr, &world)?;
    }
    tr.end(probe);

    std::fs::write(json, tr.to_json()).map_err(|e| format!("writing {json}: {e}"))
}

/// `wearscope analyze --world DIR --workers N [--full] [--csv DIR]`.
fn analyze(
    tr: &mut Tracer,
    dir: &Path,
    workers: usize,
    full: bool,
    csv: Option<&Path>,
    stdout: &Path,
) -> Result<(), String> {
    let cmd = tr.begin(if workers == 1 {
        "cli.analyze_w1"
    } else {
        "cli.analyze_w2"
    });
    let free = analyze_calls(tr, dir, workers, full, csv, stdout)?;
    tr.end(free);
    tr.end(cmd);
    Ok(())
}

/// The calls `cmd_analyze` makes. `Takeaways::compute` and
/// `FigureCsvExporter::new` each fold the hot aggregates themselves; here
/// they are split into `CoreAggregates::sequential` plus `compute_with` /
/// `with_aggregates`, so the fold gets a span of its own. Returns the open
/// `trace.free` span, inside which the store and results are dropped.
fn analyze_calls(
    tr: &mut Tracer,
    dir: &Path,
    workers: usize,
    full: bool,
    csv: Option<&Path>,
    stdout: &Path,
) -> Result<usize, String> {
    let load = if workers == 1 {
        "ingest.load_w1"
    } else {
        "ingest.load_w2"
    };
    let metrics = Registry::new();
    let opts = IngestOptions::for_world(dir).with_metrics(metrics.clone());
    let (store, load_report) = tr
        .time(load, || load_store_resilient(dir, workers, &opts))
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let saved = tr
        .time("synthpop.load_meta", || {
            GeneratedWorld::load_with_store(dir, store)
        })
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let context = tr.begin("core.context");
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    tr.end(context);
    let quality = &load_report.quality;
    tr.count("ingest.records", quality.records_seen as f64);
    tr.count("ingest.quarantined", quality.quarantined.total() as f64);
    for reason in QuarantineReason::ALL {
        let n = quality.quarantined.get(reason) as f64;
        tr.count(format!("ingest.quarantined.{}", reason.name()), n);
    }

    let engine = if workers > 1 {
        let (aggs, _) = tr
            .time("ingest.fold_w2", || {
                IngestEngine::new(workers).compute_with_metrics(&ctx, &metrics)
            })
            .map_err(|e| format!("analyzing {}: {e}", dir.display()))?;
        Some(aggs)
    } else {
        None
    };

    let mut out = String::new();
    if full {
        out += &tr.time("report.full", || render_full_report(&ctx, &saved.summaries));
        out.push('\n');
        if !quality.quarantined.is_empty() {
            out += "## Data quality\n\n";
            out += &quality.render_table();
            out.push('\n');
        }
    }
    let folded;
    let aggs = match &engine {
        Some(a) => a,
        None => {
            folded = tr.time("core.fold", || CoreAggregates::sequential(&ctx));
            &folded
        }
    };
    let takeaways = tr.time("core.takeaways", || {
        Takeaways::compute_with(&ctx, &saved.summaries, aggs)
    });
    out += &tr.time("report.table", || {
        let days = saved.window.summary().num_days();
        ExperimentReport::from_takeaways_with_window(&takeaways, days).render()
    });
    if let Some(csv_dir) = csv {
        let refolded;
        let aggs = match &engine {
            Some(a) => a,
            None => {
                refolded = tr.time("core.fold", || CoreAggregates::sequential(&ctx));
                &refolded
            }
        };
        let written = tr
            .time("report.csv", || {
                FigureCsvExporter::with_aggregates(&ctx, &saved.summaries, aggs).export_all(csv_dir)
            })
            .map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "\n{written} CSV figure files written to {}",
            csv_dir.display()
        );
    }
    std::fs::write(stdout, out).map_err(|e| format!("writing {}: {e}", stdout.display()))?;
    Ok(tr.begin("trace.free"))
}

/// Accumulates the time the runtime spends inside [`EventSource::poll`].
struct TimedSource<S> {
    inner: S,
    busy: Duration,
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn poll(&mut self) -> io::Result<Polled> {
        let started = Instant::now();
        let polled = self.inner.poll();
        self.busy += started.elapsed();
        polled
    }

    fn position(&self) -> Option<SourcePosition> {
        self.inner.position()
    }
}

/// `wearscope stream --world DIR [--checkpoint DIR] [--report FILE]` with
/// the default 1 h tumbling windows, 5 m lateness and a checkpoint every
/// 5000 records, making the calls `cmd_stream` makes.
fn stream(
    tr: &mut Tracer,
    dir: &Path,
    checkpoint: Option<&Path>,
    report: Option<&Path>,
    stdout: &Path,
) -> Result<(), String> {
    let cmd = tr.begin("cli.stream");
    let spec = WindowSpec::tumbling(SimDuration::from_secs(3600))?;
    let mut config = StreamConfig::new(spec, SimDuration::from_secs(300));
    config.max_timestamp = IngestOptions::for_world(dir).max_timestamp;
    let ckpt_path = checkpoint.map(|d| d.join("stream.ckpt"));
    if let Some(d) = checkpoint {
        std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    let saved = tr
        .time("synthpop.load_meta", || {
            GeneratedWorld::load_with_store(dir, TraceStore::new())
        })
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let context = tr.begin("core.context");
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    tr.end(context);

    let metrics = Registry::new();
    let mut rt = StreamRuntime::new(&ctx, config).with_metrics(&metrics);
    let inner = WorldSource::open(dir, false)
        .map_err(|e| format!("opening logs in {}: {e}", dir.display()))?
        .with_horizon(config.max_timestamp)
        .with_metrics(&metrics);
    let mut source = TimedSource {
        inner,
        busy: Duration::ZERO,
    };
    let opts = PumpOptions {
        checkpoint: ckpt_path.clone().map(|p| (p, 5000)),
        stop_after: None,
    };
    let pump = tr.begin("stream.pump");
    loop {
        match rt.pump(&mut source, &opts).map_err(|e| e.to_string())? {
            PumpOutcome::Finished => break,
            PumpOutcome::Pending => source.inner.finish(),
            PumpOutcome::Stopped => return Err("stream stopped without a record budget".into()),
        }
    }
    rt.finish();
    if let Some(path) = &ckpt_path {
        rt.write_checkpoint(path, source.position())
            .map_err(|e| e.to_string())?;
    }
    tr.end(pump);
    let records = rt.records_processed();
    let (summary, _) = rt.into_results();
    let rendered = tr.time("report.stream", || {
        let tsv: String = summary.windows.iter().map(|w| w.to_tsv() + "\n").collect();
        (summary.render(), tsv)
    });
    std::fs::write(stdout, &rendered.0)
        .map_err(|e| format!("writing {}: {e}", stdout.display()))?;
    if let Some(path) = report {
        std::fs::write(path, &rendered.1)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    tr.end(cmd);

    let snapshot = metrics.snapshot();
    let checkpoint_us = snapshot
        .timing
        .histograms
        .get("stream.checkpoint_write_us")
        .map_or(0, |h| h.sum);
    let checkpoints = snapshot.counters.get("stream.checkpoints").copied();
    let ckpt_bytes = match &ckpt_path {
        Some(p) => std::fs::metadata(p).map_err(|e| e.to_string())?.len(),
        None => 0,
    };
    tr.count("stream.records", records as f64);
    tr.count("stream.source_ns", source.busy.as_nanos() as f64);
    tr.count("stream.checkpoint_us", checkpoint_us as f64);
    tr.count("stream.checkpoints", checkpoints.unwrap_or(0) as f64);
    tr.count("stream.checkpoint_bytes", ckpt_bytes as f64);
    tr.count("stream.late_merged", summary.late_merged as f64);
    tr.count(
        "stream.quarantined",
        summary.quality.quarantined.total() as f64,
    );
    Ok(())
}

/// The codec alone: both logs parsed on one thread, each as one shard.
fn parse_probe(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let proxy_path = dir.join("proxy.log");
    let mme_path = dir.join("mme.log");
    let parsed = tr.time("trace.parse", || -> io::Result<_> {
        let mut proxy: Vec<TsvShard<ProxyRecord>> = Vec::new();
        for range in plan_tsv_shards(&proxy_path, 1)? {
            proxy.push(read_tsv_shard(&proxy_path, range)?);
        }
        let mut mme: Vec<TsvShard<MmeRecord>> = Vec::new();
        for range in plan_tsv_shards(&mme_path, 1)? {
            mme.push(read_tsv_shard(&mme_path, range)?);
        }
        Ok((proxy, mme))
    });
    let (proxy, mme) = parsed.map_err(|e| format!("parsing {}: {e}", dir.display()))?;
    let records = proxy.iter().map(|s| s.records.len()).sum::<usize>()
        + mme.iter().map(|s| s.records.len()).sum::<usize>();
    let lines =
        proxy.iter().map(|s| s.lines).sum::<u64>() + mme.iter().map(|s| s.lines).sum::<u64>();
    let bytes =
        proxy.iter().map(|s| s.bytes).sum::<u64>() + mme.iter().map(|s| s.bytes).sum::<u64>();
    tr.count("trace.records", records as f64);
    tr.count("trace.lines", lines as f64);
    tr.count("trace.bytes", bytes as f64);
    Ok(())
}

/// The resilient loader on one thread (the reference for the validate
/// self time) and each analysis that scans the whole store, timed once.
fn analysis_probes(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let opts = IngestOptions::for_world(dir);
    let (store, _) = tr
        .time("ingest.load_w1", || load_store_resilient(dir, 1, &opts))
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let saved = GeneratedWorld::load_with_store(dir, store)
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    black_box(tr.time("core.quality", || DataQualityReport::compute(&ctx)));
    black_box(tr.time("core.domain_breakdown", || DomainBreakdown::compute(&ctx)));
    black_box(tr.time("core.weekly", || WeeklyPattern::compute(&ctx)));
    black_box(tr.time("core.devices", || DeviceMix::compute(&ctx)));
    let mobility = MobilityIndex::build(&ctx);
    black_box(tr.time("core.through_device", || {
        ThroughDeviceReport::compute(&ctx, &mobility)
    }));
    black_box(tr.time("core.daily_active_share", || daily_active_share(&ctx)));
    Ok(())
}
