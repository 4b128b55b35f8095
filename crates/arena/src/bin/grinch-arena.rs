//! `grinch-arena` — the defense-vs-attack sweep CLI.
//!
//! ```text
//! grinch-arena run [--preset smoke|full] [--trials N] [--seed N] [--jobs N]
//!                  [--max-encryptions N] [--out FILE] [--svg FILE]
//!                  [--journal FILE] [--no-journal]
//!                  [--check] [--baseline FILE] [--live ADDR]
//!                  [--watchdog-ms N] [--linger-secs N]
//! grinch-arena render <matrix.json> [--metric success-rate|encryptions|entropy-bits]
//!                  [--svg FILE]
//! grinch-arena trace [--epoch N] [--max-encryptions N] [--out-dir DIR]
//! ```
//!
//! Exit codes: `0` success / baseline agreement, `1` baseline mismatch,
//! `2` usage or I/O error. Argument parsing is hand-rolled, matching the
//! `grinch-ct` binary — the build environment is offline.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gift_cipher::Key;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::stage::{run_stage, StageConfig};
use grinch_arena::journal::run_journaled;
use grinch_arena::{
    run_campaign_observed, ArenaMatrix, CampaignConfig, DefenseSpec, LiveOptions, LivePlane, Metric,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
grinch-arena: randomized-cache defenses vs the GRINCH attack variants

usage:
  grinch-arena run [--preset smoke|full] [--trials N] [--seed N] [--jobs N]
                   [--max-encryptions N] [--out FILE] [--svg FILE]
                   [--journal FILE] [--no-journal]
                   [--check] [--baseline FILE] [--live ADDR]
                   [--watchdog-ms N] [--linger-secs N]
      sweep the (defense x attack x noise) grid and print the success-rate
      heatmap. The grinch-arena/v1 matrix lands in --out (default:
      results/ARENA_MATRIX.json); --svg also renders it as SVG. --check
      compares the fresh matrix byte-for-byte against --baseline (default:
      bench/baselines/ARENA_MATRIX.json), bootstrapping the baseline on
      first run; exit 1 on drift. Presets: smoke (CI: 2 defenses x
      2 attacks, 2 trials) and full (4 defenses x 2 attacks x 2 noise
      levels, 8 trials). Default preset: smoke.
      Every finished cell is streamed to an append-only grinch-campaign/v1
      journal (--journal, default: the --out path with a .journal.jsonl
      extension), so a run cut down by Ctrl-C or kill resumes from the
      cells it already finished — re-run the same command and only the
      missing cells execute; the final matrix is byte-identical to an
      uninterrupted run. --no-journal disables journaling.
      --live ADDR serves the live observability plane while the sweep runs
      (ADDR like 127.0.0.1:9090; port 0 picks one — the bound address is
      printed to stderr): GET /metrics (Prometheus text), /progress (JSON),
      /healthz (503 while a worker misses its heartbeat; threshold
      --watchdog-ms, default 5000). --linger-secs (default 0) keeps the
      endpoints up that long after the sweep so late scrapers see the
      final state. The live plane only observes: the matrix stays
      byte-identical with or without it.
  grinch-arena render <matrix.json> [--metric success-rate|encryptions|entropy-bits]
                   [--svg FILE]
      re-render a saved matrix. Default metric: success-rate.
  grinch-arena trace [--epoch N] [--max-encryptions N] [--out-dir DIR]
      run one telemetry-instrumented stage-1 campaign undefended and one
      under KeyedRemap rekeyed every N accesses (default 64), writing
      arena.undefended.telemetry.jsonl and arena.defended.telemetry.jsonl
      (default dir: results/) for `grinch-ct cross-validate
      --defended-trace`, and print the stage-1 MI of both channels.
";

fn fail(message: &str) -> ExitCode {
    eprintln!("grinch-arena: {message}");
    ExitCode::from(2)
}

/// Pulls the value following a `--flag` out of `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn reject_leftover(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(unknown) => Err(format!("unexpected argument {unknown:?}")),
        None => Ok(()),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let preset = take_value(&mut args, "--preset")?.unwrap_or_else(|| "smoke".to_string());
    let mut campaign = match preset.as_str() {
        "smoke" => CampaignConfig::smoke(),
        "full" => CampaignConfig::full(),
        other => return Err(format!("--preset: unknown preset {other:?}")),
    };
    if let Some(v) = take_value(&mut args, "--trials")? {
        campaign.trials = parse_num("--trials", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--seed")? {
        campaign.seed = parse_num("--seed", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--jobs")? {
        campaign.jobs = parse_num("--jobs", &v)?;
    }
    if let Some(v) = take_value(&mut args, "--max-encryptions")? {
        campaign.max_stage_encryptions = parse_num("--max-encryptions", &v)?;
    }
    let out = take_value(&mut args, "--out")?
        .map(PathBuf::from)
        .unwrap_or_else(|| grinch_obs::paths::results_dir().join("ARENA_MATRIX.json"));
    let svg = take_value(&mut args, "--svg")?;
    let no_journal = take_switch(&mut args, "--no-journal");
    let journal_path = take_value(&mut args, "--journal")?
        .map(PathBuf::from)
        .unwrap_or_else(|| out.with_extension("journal.jsonl"));
    let check = take_switch(&mut args, "--check");
    let baseline_path = take_value(&mut args, "--baseline")?
        .map(PathBuf::from)
        .unwrap_or_else(|| grinch_obs::paths::baselines_dir().join("ARENA_MATRIX.json"));
    let live_addr = take_value(&mut args, "--live")?;
    let watchdog_ms = match take_value(&mut args, "--watchdog-ms")? {
        None => 5_000,
        Some(v) => parse_num::<u64>("--watchdog-ms", &v)?,
    };
    let linger_secs = match take_value(&mut args, "--linger-secs")? {
        None => 0,
        Some(v) => parse_num::<u64>("--linger-secs", &v)?,
    };
    reject_leftover(&args)?;
    campaign.validate()?;

    let live = match live_addr {
        None => None,
        Some(addr) => {
            let mut opts = LiveOptions::new(addr, format!("arena {preset}"));
            opts.watchdog_threshold = std::time::Duration::from_millis(watchdog_ms);
            let plane = LivePlane::start(&campaign, opts)
                .map_err(|e| format!("cannot start live plane: {e}"))?;
            eprintln!(
                "grinch-arena: live plane listening on http://{}",
                plane.addr()
            );
            Some(plane)
        }
    };

    eprintln!(
        "grinch-arena: sweeping {} cells x {} trials on {} worker(s)...",
        campaign.num_cells(),
        campaign.trials,
        campaign.jobs.clamp(1, campaign.num_cells())
    );
    let started = std::time::Instant::now();
    let sender = live.as_ref().map(|plane| plane.sender());
    let matrix = if no_journal {
        run_campaign_observed(&campaign, sender.as_ref())
    } else {
        // Stream every finished cell to the journal: a run killed at any
        // point resumes from what it already finished, and the resumed
        // matrix is byte-identical to an uninterrupted one.
        let outcome = run_journaled(&campaign, &journal_path, None, sender.as_ref(), 0)?;
        if outcome.resumed {
            eprintln!(
                "grinch-arena: resumed journal {} ({} cells reused, {} run)",
                journal_path.display(),
                outcome.reused_cells,
                outcome.ran_cells
            );
        } else {
            eprintln!("grinch-arena: journal -> {}", journal_path.display());
        }
        outcome.matrix.expect("full-grid run assembles a matrix")
    };
    drop(sender);
    let wall_ns = started.elapsed().as_nanos() as u64;
    print!("{}", matrix.heat(Metric::SuccessRate).ascii());
    print!("{}", matrix.heat(Metric::EntropyBits).ascii());

    let json = matrix.to_json();
    write_file(&out, &json)?;
    eprintln!("grinch-arena: matrix written to {}", out.display());

    // Perf trajectory: the sweep's wall time and cell-trial throughput land
    // in a separate BENCH_arena.json so the matrix artifact itself stays
    // byte-stable. Wall sections are recorded, never regression-gated.
    let cell_trials = campaign.num_cells() as f64 * campaign.trials as f64;
    let mut bench = grinch_obs::BenchReport {
        name: "arena".into(),
        metrics: vec![
            ("cells".into(), campaign.num_cells() as f64),
            ("trials".into(), campaign.trials as f64),
        ],
        wall: Vec::new(),
    };
    bench.push_wall(
        grinch_obs::WallSection::new("cells", wall_ns, cell_trials).with_rate("cells/sec"),
    );
    let bench_path = out
        .parent()
        .map(|d| d.join("BENCH_arena.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_arena.json"));
    write_file(&bench_path, &bench.to_json())?;
    eprintln!(
        "grinch-arena: {cell_trials:.0} cell-trials in {:.2} s ({:.1} cells/s) -> {}",
        wall_ns as f64 / 1e9,
        bench.wall[0].throughput,
        bench_path.display()
    );
    // The sweep also appends one grinch-run/v1 record to the run ledger
    // (GRINCH_LEDGER=0 opts out) so `grinch-report regress`/`trend` see the
    // arena's trajectory. ARENA_MATRIX.json itself is untouched.
    if let Some(ledger_path) = grinch_obs::history::append_run(&bench, None, Some(campaign.seed)) {
        eprintln!(
            "grinch-arena: run ledger appended -> {}",
            ledger_path.display()
        );
    }
    if let Some(svg_path) = svg {
        write_file(
            Path::new(&svg_path),
            &matrix.heat(Metric::SuccessRate).svg(),
        )?;
        eprintln!("grinch-arena: heatmap written to {svg_path}");
    }

    let code = if !check {
        ExitCode::SUCCESS
    } else if !baseline_path.exists() {
        write_file(&baseline_path, &json)?;
        eprintln!(
            "grinch-arena: baseline bootstrapped at {} — commit it",
            baseline_path.display()
        );
        ExitCode::SUCCESS
    } else {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        let baseline = ArenaMatrix::from_json(&text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        match matrix.compare(&baseline) {
            Ok(()) => {
                eprintln!(
                    "grinch-arena: matrix matches baseline {}",
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(diff) => {
                eprintln!("grinch-arena: {diff}");
                ExitCode::from(1)
            }
        }
    };

    if let Some(mut plane) = live {
        // The sweep is done: flush the pipeline so /progress reports done
        // and the final metrics are folded, then (optionally) keep the
        // endpoints up for late scrapers before tearing the server down.
        plane.finish();
        if linger_secs > 0 {
            eprintln!(
                "grinch-arena: live plane lingering {linger_secs}s at http://{}",
                plane.addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(linger_secs));
        }
        plane.shutdown();
    }
    Ok(code)
}

fn cmd_render(mut args: Vec<String>) -> Result<ExitCode, String> {
    let metric = match take_value(&mut args, "--metric")? {
        None => Metric::SuccessRate,
        Some(v) => Metric::parse(&v).ok_or_else(|| format!("--metric: unknown metric {v:?}"))?,
    };
    let svg = take_value(&mut args, "--svg")?;
    let path = args.pop().ok_or("render: missing <matrix.json>")?;
    reject_leftover(&args)?;

    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let matrix = ArenaMatrix::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let heat = matrix.heat(metric);
    print!("{}", heat.ascii());
    if let Some(svg_path) = svg {
        write_file(Path::new(&svg_path), &heat.svg())?;
        eprintln!("grinch-arena: heatmap written to {svg_path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one telemetry-instrumented stage-1 campaign and writes its trace.
fn trace_one(defense: DefenseSpec, max_encryptions: u64, path: &Path) -> Result<f64, String> {
    // Fixed seeds: the traces are regression artifacts, not experiments.
    let seed = 0x7261_6365; // "race"
    let telemetry = grinch_telemetry::Telemetry::new();
    let secret = Key::from_u128(0x00ff_11ee_22dd_33cc_44bb_55aa_6699_7788);
    let mut obs = ObservationConfig::ideal();
    obs.cache = defense.apply(obs.cache, seed);
    let mut oracle = VictimOracle::new_seeded(secret, obs, seed);
    oracle.set_telemetry(telemetry.clone());
    let stage_cfg = StageConfig::new()
        .with_max_encryptions(max_encryptions)
        .with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = run_stage(&mut oracle, &[], 1, &stage_cfg, &mut rng);
    telemetry
        .write_jsonl(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let snapshot = telemetry.snapshot();
    let mi = grinch_obs::leakage::stage_leakage(&snapshot)
        .iter()
        .map(|s| s.mi_bits())
        .fold(0.0, f64::max);
    Ok(mi)
}

fn cmd_trace(mut args: Vec<String>) -> Result<ExitCode, String> {
    // The whole point of `trace` is writing telemetry; a registry silently
    // disabled through the environment would emit empty artifacts.
    if !grinch_telemetry::enabled_from_env() {
        return Err(format!(
            "trace needs telemetry, but {}={:?} disables it — unset it first",
            grinch_telemetry::TELEMETRY_ENV,
            std::env::var(grinch_telemetry::TELEMETRY_ENV).unwrap_or_default()
        ));
    }
    let epoch = match take_value(&mut args, "--epoch")? {
        None => 64,
        Some(v) => parse_num::<u64>("--epoch", &v)?,
    };
    let max_encryptions = match take_value(&mut args, "--max-encryptions")? {
        None => 20_000,
        Some(v) => parse_num::<u64>("--max-encryptions", &v)?,
    };
    let out_dir = take_value(&mut args, "--out-dir")?
        .map(PathBuf::from)
        .unwrap_or_else(grinch_obs::paths::results_dir);
    reject_leftover(&args)?;

    let undefended_path = out_dir.join("arena.undefended.telemetry.jsonl");
    let defended_path = out_dir.join("arena.defended.telemetry.jsonl");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let undefended_mi = trace_one(DefenseSpec::Baseline, max_encryptions, &undefended_path)?;
    let defended_mi = trace_one(
        DefenseSpec::RekeyedRemap {
            epoch_accesses: epoch,
        },
        max_encryptions,
        &defended_path,
    )?;
    println!("stage-1 channel MI, undefended: {undefended_mi:.4} bits");
    println!("stage-1 channel MI, rekey-{epoch}: {defended_mi:.4} bits");
    println!("traces: {}", undefended_path.display());
    println!("        {}", defended_path.display());
    println!(
        "next:   grinch-ct cross-validate crates/gift/src --trace {} --defended-trace {}",
        undefended_path.display(),
        defended_path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        print!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "run" => cmd_run(args),
        "render" => cmd_render(args),
        "trace" => cmd_trace(args),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => fail(&message),
    }
}
