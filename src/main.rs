//! The `wearscope` command-line tool.
//!
//! ```text
//! wearscope generate  --seed 7 --scale paper --out ./world   # simulate + persist logs
//! wearscope analyze   --world ./world [--csv ./figures]      # run the pipeline on saved logs
//! wearscope corrupt   --world ./world --faults all --seed 3  # inject log faults in place
//! wearscope experiments --seed 7 --scale quick               # generate + analyze in memory
//! ```
//!
//! `generate` and `analyze` are deliberately separate: the analysis side
//! only ever touches what an ISP analyst would have (logs, cell plan,
//! vantage summaries), so you can regenerate, ship, or tamper with the log
//! directory and re-analyze independently — `corrupt` exists precisely to
//! tamper with it deterministically.

use std::path::PathBuf;
use std::process::ExitCode;

use wearscope::core::{CoreAggregates, StudyResults};
use wearscope::faults::{corrupt_world, FaultSpec};
use wearscope::ingest::{fold_logs_resilient, IngestOptions, DEFAULT_MAX_ERROR_RATE, MAX_WORKERS};
use wearscope::obs::Registry;
use wearscope::prelude::*;
use wearscope::report::{export_figures, render_full, render_stage_table, ExperimentReport};
use wearscope::stream::{
    checkpoint, Backpressure, EventSource, PumpOptions, PumpOutcome, StreamConfig, StreamRuntime,
    WindowSpec, WorldSource,
};
use wearscope::synthpop::generate_instrumented;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("corrupt") => cmd_corrupt(&args[1..]),
        Some("experiments") => cmd_experiments(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// How long `stream --follow` waits before reading logs with no new
/// complete line again.
const FOLLOW_PAUSE: std::time::Duration = std::time::Duration::from_millis(50);

const USAGE: &str = "\
wearscope — reproduction of 'A First Look at SIM-Enabled Wearables in the Wild' (IMC'18)

USAGE:
    wearscope generate   --out DIR [--seed N] [--scale quick|compact|paper]
                         [--metrics FILE]
    wearscope analyze    --world DIR [--full] [--csv DIR] [--workers N] [--max-error-rate R]
                         [--metrics FILE]
    wearscope corrupt    --world DIR --faults SPEC [--seed N]
    wearscope experiments [--seed N] [--scale quick|compact|paper]
    wearscope stream     --world DIR [--window D] [--slide D] [--lateness D]
                         [--checkpoint DIR] [--checkpoint-every N] [--resume]
                         [--max-open N] [--backpressure block|drop-oldest]
                         [--stop-after N] [--report FILE] [--follow]
                         [--max-error-rate R] [--metrics FILE]

COMMANDS:
    generate     simulate a world and persist logs + cell plan + summaries
    analyze      run the full analysis pipeline over a saved world
    corrupt      deterministically inject log faults into a saved world
    experiments  generate in memory and print the paper-vs-measured table
    stream       incrementally window a saved world's logs by event time

OPTIONS:
    --seed N     master seed (default 7); the world (or the corruption) is a
                 pure function of it
    --scale S    quick (6wk/~400 users), compact (6wk/~900), paper (151d/~5100)
    --out DIR    output directory for generate
    --world DIR  directory written by generate
    --full       print the complete per-figure report, not just the table
    --csv DIR    also export every figure's data series as CSV files
    --workers N  log-parse threads, 1 to 1024 (default: all CPUs); the
                 calling thread validates and folds the records as they
                 are parsed. Results are bit-identical for every N
    --max-error-rate R
                 fail analyze, or stream once its logs end, when a log's
                 quarantined fraction exceeds R (default 0.01); analyze
                 lists quarantined records with typed reasons in
                 WORLD/quarantine.log
    --faults SPEC
                 comma-separated fault classes for corrupt: `all` or any of
                 truncate/bitflip/garbage/dup/reorder/crlf/badimei/skew,
                 each with an optional per-line `=rate` (default 0.001),
                 e.g. `--faults bitflip=0.01,dup,skew=0.005`
    --window D   stream window width (default 1h); durations accept
                 s/m/h/d suffixes, a bare number means seconds
    --slide D    window slide for sliding windows (default: tumbling)
    --lateness D how far behind the max event time a record may arrive and
                 still be merged (default 5m); staler records quarantine
    --checkpoint DIR
                 write DIR/stream.ckpt periodically so a killed run can
                 `--resume` and reproduce the uninterrupted reports exactly
    --checkpoint-every N
                 checkpoint every N source records (default 5000)
    --resume     continue from the last checkpoint (requires --checkpoint,
                 and the same windowing flags as the original run)
    --max-open N open-window cap for stream (default 4096)
    --backpressure block|drop-oldest
                 at the cap: refuse the record, or force the oldest window
                 out early (its report is marked [forced])
    --stop-after N
                 hard-stop stream after N source records, without writing
                 a checkpoint at the stop point (CI kill/resume drill)
    --report FILE
                 also write one TSV line per window to FILE
    --follow     keep tailing logs that are still growing; window reports
                 print live as the watermark closes them. Pick a --lateness
                 that also covers how far one log may lag behind the other
    --metrics FILE
                 write a JSON snapshot of the run's pipeline metrics to FILE
                 and print the stage-timing table to stderr. Everything
                 outside the snapshot's `timing` key is bit-identical across
                 --workers counts (the CI determinism gate relies on it)
";

/// Rejects flags a subcommand doesn't know (naming the offender) and bare
/// positional arguments. `values` take a value; `switches` don't.
fn reject_unknown(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if switches.contains(&a.as_str()) {
            continue;
        }
        if values.contains(&a.as_str()) {
            // Consume the value; a missing one is reported by `flag()`.
            if it.peek().is_some_and(|v| !v.starts_with("--")) {
                it.next();
            }
            continue;
        }
        if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`\n\n{USAGE}"));
        }
        return Err(format!("unexpected argument `{a}`\n\n{USAGE}"));
    }
    Ok(())
}

/// Parses `--flag value` pairs.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return match it.next() {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(format!("{name} requires a value")),
            };
        }
    }
    Ok(None)
}

fn scale_config(args: &[String]) -> Result<ScenarioConfig, String> {
    let seed: u64 = flag(args, "--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(7);
    let scale = flag(args, "--scale")?.unwrap_or_else(|| "compact".into());
    match scale.as_str() {
        "quick" => {
            let mut c = ScenarioConfig::compact(seed);
            c.wearable_users = 150;
            c.comparison_users = 200;
            c.through_device_users = 50;
            Ok(c)
        }
        "compact" => Ok(ScenarioConfig::compact(seed)),
        "paper" => Ok(ScenarioConfig::paper(seed)),
        other => Err(format!("unknown scale `{other}` (quick|compact|paper)")),
    }
}

/// Parses a duration like `90s`, `15m`, `1h`, `2d`, or bare seconds.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b's') => (&s[..s.len() - 1], 1),
        Some(b'm') => (&s[..s.len() - 1], 60),
        Some(b'h') => (&s[..s.len() - 1], 3600),
        Some(b'd') => (&s[..s.len() - 1], 86_400),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .map(SimDuration::from_secs)
        .ok_or_else(|| format!("bad duration `{s}` (expected e.g. 90s, 15m, 1h, 2d)"))
}

/// Writes the registry's snapshot, with the process's peak RSS so far in
/// its timing section, as sorted-key JSON to `path` and prints the
/// stage-timing table to stderr.
fn write_metrics(registry: &Registry, path: &str) -> Result<(), String> {
    registry.note_peak_rss();
    let snap = registry.snapshot();
    std::fs::write(path, snap.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    let table = render_stage_table(&snap);
    if !table.is_empty() {
        eprint!("metrics: stage timings\n{table}");
    }
    eprintln!("metrics: snapshot written to {path}");
    Ok(())
}

/// Warns once when a world's manifest records no integrity check for some
/// of its metadata files.
fn warn_unchecked(unchecked: &[&str]) {
    if !unchecked.is_empty() {
        eprintln!(
            "warning: manifest.tsv records no check for {}; loaded unverified",
            unchecked.join(", ")
        );
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    reject_unknown(args, &["--out", "--seed", "--scale", "--metrics"], &[])?;
    let out = PathBuf::from(flag(args, "--out")?.ok_or("generate requires --out DIR")?);
    let metrics_path = flag(args, "--metrics")?;
    let config = scale_config(args)?;
    eprintln!(
        "generating {} subscribers over {} days (seed {}) ...",
        config.total_users(),
        config.window.summary().num_days(),
        config.seed
    );
    let metrics = Registry::new();
    let t0 = std::time::Instant::now();
    let world = generate_instrumented(&config, &metrics);
    eprintln!(
        "  {} proxy + {} MME records in {:.1?}",
        world.store.proxy().len(),
        world.store.mme().len(),
        t0.elapsed()
    );
    world
        .save_instrumented(&out, &metrics)
        .map_err(|e| e.to_string())?;
    if let Some(path) = metrics_path {
        write_metrics(&metrics, &path)?;
    }
    println!("world written to {}", out.display());
    Ok(())
}

/// The `--max-error-rate` budget, if given: a fraction in [0, 1].
fn max_error_rate(args: &[String]) -> Result<Option<f64>, String> {
    let Some(s) = flag(args, "--max-error-rate")? else {
        return Ok(None);
    };
    let rate: f64 = s.parse().map_err(|_| format!("bad error rate `{s}`"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--max-error-rate must be in [0, 1], got {rate}"));
    }
    Ok(Some(rate))
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "--world",
            "--workers",
            "--max-error-rate",
            "--csv",
            "--metrics",
        ],
        &["--full"],
    )?;
    let dir = PathBuf::from(flag(args, "--world")?.ok_or("analyze requires --world DIR")?);
    let workers: usize = match flag(args, "--workers")? {
        Some(s) => match s.parse() {
            Ok(n @ 1..=MAX_WORKERS) => n,
            _ => {
                return Err(format!(
                    "bad worker count `{s}` (need an integer from 1 to {MAX_WORKERS})"
                ))
            }
        },
        None => wearscope::ingest::default_workers(),
    };
    let metrics_path = flag(args, "--metrics")?;
    let metrics = Registry::new();
    let root = metrics.stage("analyze");
    let budget = max_error_rate(args)?.unwrap_or(DEFAULT_MAX_ERROR_RATE);
    let loading = |e: &dyn std::fmt::Display| format!("loading {}: {e}", dir.display());

    // The world's metadata (manifest, cell plan, summaries) is read before
    // its logs, so a bad metadata file is named rather than blamed on a
    // log chunk. The context holds no store: the loader folds each kept
    // record into the aggregates as the shard workers parse it.
    // Quarantine decisions depend only on file content and order, so the
    // aggregates (and everything downstream) are bit-identical for every N.
    let ingest_span = root.child("ingest");
    let saved =
        GeneratedWorld::load_with_store(&dir, TraceStore::new()).map_err(|e| loading(&e))?;
    warn_unchecked(&saved.unchecked);
    let opts = IngestOptions::from_metadata(&dir, Some(saved.window), Some(&saved.sectors))
        .with_metrics(metrics.clone())
        .with_max_error_rate(budget);
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);
    let (aggs, load_report) =
        fold_logs_resilient(&dir, workers, &opts, &ctx).map_err(|e| loading(&e))?;
    ingest_span.finish();

    eprintln!("load:    {}", load_report.summary_line());
    eprintln!("quality: {}", load_report.quality.summary_line());
    if !load_report.quality.quarantined.is_empty() {
        if let Some(log) = &opts.quarantine_log {
            eprintln!("quality: quarantined records listed in {}", log.display());
        }
    }

    let full = args.iter().any(|a| a == "--full");
    let csv_dir = flag(args, "--csv")?.map(PathBuf::from);
    let results_span = root.child("results");
    let results = StudyResults::new(&ctx, &saved.summaries, &aggs);
    if full || csv_dir.is_some() {
        results.app_figures();
    }
    results_span.finish();

    if full {
        let full_span = root.child("full");
        print!(
            "{}",
            render_full(&results, load_report.quality.quarantine_rate())
        );
        println!();
        if !load_report.quality.quarantined.is_empty() {
            println!("## Data quality\n");
            print!("{}", load_report.quality.render_table());
            println!();
        }
        full_span.finish();
    }
    let report_span = root.child("report");
    print!("{}", ExperimentReport::from_results(&results).render());
    report_span.finish();
    if let Some(csv_dir) = csv_dir {
        let csv_span = root.child("csv");
        let written = export_figures(&results, &csv_dir).map_err(|e| e.to_string())?;
        println!(
            "\n{} CSV figure files written to {}",
            written,
            csv_dir.display()
        );
        csv_span.finish();
    }
    root.finish();
    if let Some(path) = metrics_path {
        write_metrics(&metrics, &path)?;
    }
    Ok(())
}

fn cmd_corrupt(args: &[String]) -> Result<(), String> {
    reject_unknown(args, &["--world", "--faults", "--seed"], &[])?;
    let dir = PathBuf::from(flag(args, "--world")?.ok_or("corrupt requires --world DIR")?);
    let seed: u64 = flag(args, "--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(7);
    let spec: FaultSpec = flag(args, "--faults")?
        .ok_or("corrupt requires --faults SPEC (e.g. `all` or `bitflip=0.01,dup`)")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let report = corrupt_world(&dir, seed, &spec)
        .map_err(|e| format!("corrupting {}: {e}", dir.display()))?;
    print!("{}", report.render());
    Ok(())
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    reject_unknown(args, &["--seed", "--scale"], &[])?;
    let config = scale_config(args)?;
    eprintln!(
        "generating {} subscribers (seed {}, {} days) ...",
        config.total_users(),
        config.seed,
        config.window.summary().num_days()
    );
    let world = generate(&config);
    let ctx = StudyContext::new(
        &world.store,
        &world.db,
        &world.sectors,
        &world.apps,
        world.config.window,
    );
    let aggs = CoreAggregates::sequential(&ctx);
    let results = StudyResults::new(&ctx, &world.summaries, &aggs);
    print!("{}", ExperimentReport::from_results(&results).render());
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "--world",
            "--window",
            "--slide",
            "--lateness",
            "--checkpoint",
            "--checkpoint-every",
            "--stop-after",
            "--max-open",
            "--backpressure",
            "--report",
            "--metrics",
            "--max-error-rate",
        ],
        &["--resume", "--follow"],
    )?;
    let dir = PathBuf::from(flag(args, "--world")?.ok_or("stream requires --world DIR")?);
    let width = parse_duration(&flag(args, "--window")?.unwrap_or_else(|| "1h".into()))?;
    let spec = match flag(args, "--slide")? {
        Some(s) => WindowSpec::sliding(width, parse_duration(&s)?),
        None => WindowSpec::tumbling(width),
    }?;
    let lateness = parse_duration(&flag(args, "--lateness")?.unwrap_or_else(|| "5m".into()))?;
    let mut config = StreamConfig::new(spec, lateness);
    if let Some(s) = flag(args, "--max-open")? {
        config.max_open_windows = match s.parse() {
            Ok(0) | Err(_) => return Err(format!("bad --max-open `{s}` (need an integer >= 1)")),
            Ok(n) => n,
        };
    }
    if let Some(s) = flag(args, "--backpressure")? {
        config.backpressure = Backpressure::parse(&s)?;
    }
    let budget = max_error_rate(args)?.unwrap_or(DEFAULT_MAX_ERROR_RATE);

    let follow = args.iter().any(|a| a == "--follow");
    let resume = args.iter().any(|a| a == "--resume");
    let ckpt_path = flag(args, "--checkpoint")?.map(|d| PathBuf::from(d).join("stream.ckpt"));
    let every: u64 = match flag(args, "--checkpoint-every")? {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --checkpoint-every `{s}`"))?,
        None => 5000,
    };
    let stop_after: Option<u64> = flag(args, "--stop-after")?
        .map(|s| s.parse().map_err(|_| format!("bad --stop-after `{s}`")))
        .transpose()?;
    if resume && ckpt_path.is_none() {
        return Err("--resume requires --checkpoint DIR".into());
    }
    if let Some(path) = &ckpt_path {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }

    // The records arrive through the source; the context only carries the
    // world's geometry and observation window (device classification falls
    // back to the live device DB on the empty store).
    let saved = GeneratedWorld::load_with_store(&dir, TraceStore::new())
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    warn_unchecked(&saved.unchecked);
    // Same clock-skew horizon and cell plan as the batch loader derives
    // for this world.
    let world_opts = IngestOptions::from_metadata(&dir, Some(saved.window), Some(&saved.sectors));
    config.max_timestamp = world_opts.max_timestamp;
    config.sector_count = world_opts.sector_count;
    let db = DeviceDb::standard();
    let catalog = AppCatalog::standard();
    let ctx = StudyContext::new(&saved.store, &db, &saved.sectors, &catalog, saved.window);

    let metrics = Registry::new();
    let metrics_path = flag(args, "--metrics")?;
    let (rt, start_pos) = if resume {
        let path = ckpt_path.as_ref().expect("checked above");
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
        checkpoint::from_text(&ctx, config, &text).map_err(|e| e.to_string())?
    } else {
        (StreamRuntime::new(&ctx, config), None)
    };
    // Counters report this process's work: a resumed run starts at zero,
    // the checkpoint's cumulative ledger lives in the quality summary.
    let mut rt = rt.with_metrics(&metrics);
    // The logs are read and decoded on a thread of their own (unless
    // followed); this one merges, validates, windows and checkpoints.
    let mut source = match &start_pos {
        Some(pos) => WorldSource::resume(&dir, pos, follow),
        None => WorldSource::open(&dir, follow),
    }
    .map_err(|e| format!("opening logs in {}: {e}", dir.display()))?
    .with_horizon(config.max_timestamp)
    .with_metrics(&metrics)
    .read_ahead(&metrics)
    .map_err(|e| format!("starting the log reader: {e}"))?;

    let pump_opts = PumpOptions {
        checkpoint: ckpt_path.clone().map(|p| (p, every)),
        stop_after,
    };
    // In follow mode the run only ends when the process is killed, so
    // windows are printed live as the watermark closes them; a bounded run
    // prints them all at once at the end instead.
    let mut live_printed = 0usize;
    let pump_span = metrics.stage("stream");
    loop {
        let outcome = rt
            .pump(&mut source, &pump_opts)
            .map_err(|e| e.to_string())?;
        if follow {
            for report in &rt.reports()[live_printed..] {
                println!("{}", report.render_line());
            }
            live_printed = rt.reports().len();
        }
        match outcome {
            PumpOutcome::Finished => break,
            // Follow mode only: the logs are read again after a pause.
            PumpOutcome::Pending => std::thread::sleep(FOLLOW_PAUSE),
            PumpOutcome::Stopped => {
                eprintln!(
                    "stream:  stopped after {} records (no checkpoint at the stop point)",
                    rt.records_processed()
                );
                pump_span.finish();
                // Stops the log reader.
                drop(source);
                if let Some(path) = &metrics_path {
                    write_metrics(&metrics, path)?;
                }
                return Ok(());
            }
        }
    }
    rt.finish();
    if let Some(path) = &ckpt_path {
        rt.write_checkpoint(path, source.position())
            .map_err(|e| e.to_string())?;
    }
    rt.check_error_budget(budget).map_err(|e| e.to_string())?;
    pump_span.finish();
    let (summary, _) = rt.into_results();
    eprintln!("stream:  {}", summary.summary_line());
    if follow {
        // The windows up to here are already on stdout.
        for w in &summary.windows[live_printed..] {
            println!("{}", w.render_line());
        }
    } else {
        print!("{}", summary.render());
    }
    if let Some(report_path) = flag(args, "--report")? {
        let mut text = String::new();
        for w in &summary.windows {
            text.push_str(&w.to_tsv());
            text.push('\n');
        }
        std::fs::write(&report_path, &text).map_err(|e| format!("writing {report_path}: {e}"))?;
        eprintln!(
            "stream:  {} window reports written to {report_path}",
            summary.windows.len()
        );
    }
    if let Some(path) = &metrics_path {
        write_metrics(&metrics, path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--seed", "42", "--out", "/tmp/x"]);
        assert_eq!(flag(&a, "--seed").unwrap().as_deref(), Some("42"));
        assert_eq!(flag(&a, "--out").unwrap().as_deref(), Some("/tmp/x"));
        assert_eq!(flag(&a, "--missing").unwrap(), None);
        // A flag directly followed by another flag has no value.
        let a = args(&["--seed", "--out"]);
        assert!(flag(&a, "--seed").is_err());
    }

    #[test]
    fn scale_selection() {
        let c = scale_config(&args(&["--scale", "paper", "--seed", "9"])).unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.window.summary().num_days(), 151);
        let c = scale_config(&args(&["--scale", "quick"])).unwrap();
        assert_eq!(c.wearable_users, 150);
        let c = scale_config(&args(&[])).unwrap();
        assert_eq!(c.seed, 7);
        assert!(scale_config(&args(&["--scale", "galactic"])).is_err());
        assert!(scale_config(&args(&["--seed", "abc"])).is_err());
    }

    #[test]
    fn generate_requires_out() {
        assert!(cmd_generate(&args(&["--seed", "1"])).is_err());
    }

    #[test]
    fn analyze_rejects_missing_world() {
        assert!(cmd_analyze(&args(&["--world", "/nonexistent-wearscope-dir"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = cmd_generate(&args(&["--out", "/tmp/x", "--frobnicate", "1"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        let err = cmd_analyze(&args(&["--world", "/tmp/x", "--wokers", "4"])).unwrap_err();
        assert!(err.contains("--wokers"), "{err}");
        let err = cmd_corrupt(&args(&["--world", "/tmp/x", "--fault", "all"])).unwrap_err();
        assert!(err.contains("--fault"), "{err}");
        let err = cmd_stream(&args(&["--world", "/tmp/x", "--widow", "1h"])).unwrap_err();
        assert!(err.contains("--widow"), "{err}");
        let err = cmd_experiments(&args(&["extra"])).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn workers_zero_is_rejected() {
        let err = cmd_analyze(&args(&["--world", "/tmp/x", "--workers", "0"])).unwrap_err();
        assert!(err.contains("worker count"), "{err}");
        let err = cmd_analyze(&args(&["--world", "/tmp/x", "--workers", "many"])).unwrap_err();
        assert!(err.contains("worker count"), "{err}");
        // One loader thread per worker: a huge count is refused up front
        // instead of aborting the process when thread setup fails.
        let err = cmd_analyze(&args(&["--world", "/tmp/x", "--workers", "100000"])).unwrap_err();
        assert!(err.contains("worker count"), "{err}");
        let max = MAX_WORKERS.to_string();
        let err = cmd_analyze(&args(&["--world", "/tmp/x", "--workers", &max])).unwrap_err();
        assert!(!err.contains("worker count"), "{err}");
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("90s").unwrap().as_secs(), 90);
        assert_eq!(parse_duration("15m").unwrap().as_secs(), 900);
        assert_eq!(parse_duration("1h").unwrap().as_secs(), 3600);
        assert_eq!(parse_duration("2d").unwrap().as_secs(), 172_800);
        assert_eq!(parse_duration("45").unwrap().as_secs(), 45);
        // Zero is a legal duration (e.g. --lateness 0); window validity is
        // WindowSpec's concern.
        assert_eq!(parse_duration("0").unwrap().as_secs(), 0);
        assert!(parse_duration("h").is_err());
        assert!(parse_duration("1w").is_err());
        assert!(parse_duration("").is_err());
        // n * 86 400 overflows u64 here: an error, not a wrapped window.
        let err = parse_duration("213503982334602d").unwrap_err();
        assert!(err.contains("bad duration"), "{err}");
        assert_eq!(
            parse_duration("213503982334601d").unwrap().as_secs(),
            213_503_982_334_601 * 86_400
        );
    }

    #[test]
    fn stream_flag_validation() {
        let err = cmd_stream(&args(&["--window", "1h"])).unwrap_err();
        assert!(err.contains("--world"), "{err}");
        let err = cmd_stream(&args(&["--world", "/tmp/x", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = cmd_stream(&args(&["--world", "/tmp/x", "--max-open", "0"])).unwrap_err();
        assert!(err.contains("--max-open"), "{err}");
        let err = cmd_stream(&args(&["--world", "/tmp/x", "--backpressure", "panic"])).unwrap_err();
        assert!(err.contains("backpressure"), "{err}");
        let err = cmd_stream(&args(&["--world", "/tmp/x", "--max-error-rate", "2"])).unwrap_err();
        assert!(err.contains("--max-error-rate"), "{err}");
        // Slide wider than the window is rejected by the window spec.
        let err = cmd_stream(&args(&[
            "--world", "/tmp/x", "--window", "15m", "--slide", "1h",
        ]))
        .unwrap_err();
        assert!(err.contains("slide"), "{err}");
    }
}
