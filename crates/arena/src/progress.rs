//! The arena's live progress plane: worker events, and a collector that
//! folds them into the shared progress view and watches for stalls.
//!
//! Sweep workers are deliberately dumb about observability — they emit
//! plain [`WorkerEvent`]s (heartbeats, cell started/completed, per-trial
//! progress) into an `mpsc` channel and never touch shared state. One
//! **collector** thread owns the channel's receiving end and folds every
//! event into the shared [`LiveState`], which the HTTP server renders as
//! `/progress`, `/healthz` and `/metrics`. Each time the collector wakes —
//! on an event, or after a quiet poll interval — it also acts as the
//! watchdog: it flags any worker whose last heartbeat is older than the
//! missed-heartbeat threshold, and `/healthz` flips to 503 until that
//! worker beats again.
//!
//! Nothing in this pipeline feeds back into the sweep: cell results are a
//! pure function of `(config, cell_index)`, so the matrix stays
//! byte-identical with the live plane on or off (pinned by
//! `tests/live_identity.rs`).

use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grinch_obs::live::{LiveServer, LiveState, WorkerView};

use crate::spec::CampaignConfig;

/// One progress event from a sweep worker. Every event doubles as a
/// heartbeat (the collector stamps the worker's `last_beat` on all of
/// them); [`WorkerEvent::Heartbeat`] exists for the moments *between*
/// results — it is sent at each trial start, so even a worker stuck in a
/// long defended trial beats once per trial boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerEvent {
    /// Sign of life with no result attached.
    Heartbeat {
        /// Worker index.
        worker: usize,
    },
    /// The worker claimed a cell from the queue.
    CellStarted {
        /// Worker index.
        worker: usize,
        /// Cell index in the campaign grid.
        cell: usize,
        /// Human label (`defense/attack/noise`).
        label: String,
        /// The cell's deterministic seed.
        seed: u64,
    },
    /// One Monte-Carlo trial finished.
    TrialDone {
        /// Worker index.
        worker: usize,
        /// Cell index the trial belongs to.
        cell: usize,
        /// Trial index within the cell.
        trial: usize,
        /// Victim encryptions the recovery attempt consumed.
        encryptions: u64,
        /// Whether the full key was recovered and verified.
        success: bool,
    },
    /// All trials of a cell are done.
    CellDone {
        /// Worker index.
        worker: usize,
        /// Cell index.
        cell: usize,
    },
    /// The worker found the queue empty and exited.
    WorkerDone {
        /// Worker index.
        worker: usize,
    },
}

/// Configuration of [`LivePlane::start`].
#[derive(Clone, Debug)]
pub struct LiveOptions {
    /// Bind address for the HTTP server (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Missed-heartbeat threshold after which the watchdog flags a worker.
    pub watchdog_threshold: Duration,
    /// Campaign label shown in `/progress`.
    pub campaign_label: String,
}

impl LiveOptions {
    /// Defaults: 5 s watchdog threshold.
    pub fn new(addr: impl Into<String>, campaign_label: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            watchdog_threshold: Duration::from_secs(5),
            campaign_label: campaign_label.into(),
        }
    }
}

/// The assembled live plane: event channel, collector thread and HTTP
/// server, all wired to one shared [`LiveState`].
///
/// Lifecycle: [`start`](LivePlane::start) before the sweep, hand
/// [`sender`](LivePlane::sender) clones to the engine, then
/// [`finish`](LivePlane::finish) once the matrix is assembled (drains and
/// joins the collector, marks progress done) and finally
/// [`shutdown`](LivePlane::shutdown) when the endpoints should go away.
pub struct LivePlane {
    tx: Option<Sender<WorkerEvent>>,
    state: Arc<Mutex<LiveState>>,
    server: LiveServer,
    collector: Option<std::thread::JoinHandle<()>>,
}

impl LivePlane {
    /// Binds the server, seeds the progress view from `config` and spawns
    /// the collector thread.
    pub fn start(config: &CampaignConfig, opts: LiveOptions) -> std::io::Result<Self> {
        let workers = config.jobs.clamp(1, config.num_cells());
        let mut state = LiveState::default();
        state.progress.campaign = opts.campaign_label.clone();
        state.progress.total_cells = config.num_cells() as u64;
        state.progress.trials_per_cell = config.trials as u64;
        state.progress.started = Some(Instant::now());
        state.progress.workers = (0..workers).map(WorkerView::new).collect();
        state.watchdog_threshold_ms = Some(opts.watchdog_threshold.as_millis() as u64);
        let state = Arc::new(Mutex::new(state));

        let server = LiveServer::bind(&opts.addr, Arc::clone(&state))?;

        let (event_tx, event_rx) = std::sync::mpsc::channel();
        let collector_state = Arc::clone(&state);
        let threshold = opts.watchdog_threshold;
        let collector = std::thread::Builder::new()
            .name("arena-collector".to_string())
            .spawn(move || collector_loop(event_rx, collector_state, threshold))
            .expect("spawn collector thread");

        Ok(Self {
            tx: Some(event_tx),
            state,
            server,
            collector: Some(collector),
        })
    }

    /// The bound address of the HTTP server.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// A sender clone for the sweep engine's workers.
    pub fn sender(&self) -> Sender<WorkerEvent> {
        self.tx.as_ref().expect("plane not finished yet").clone()
    }

    /// The shared state the endpoints serve (tests poke it directly).
    pub fn state(&self) -> Arc<Mutex<LiveState>> {
        Arc::clone(&self.state)
    }

    /// Campaign over: hangs up the event channel and joins the collector,
    /// which drains what is left and marks progress done. The HTTP server
    /// keeps serving the final state until
    /// [`shutdown`](LivePlane::shutdown).
    pub fn finish(&mut self) {
        self.tx = None; // hang up: collector drains and exits
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
    }

    /// Stops the HTTP server. Calls [`finish`](LivePlane::finish) first if
    /// the campaign pipeline is still up; the server's accept loop stops
    /// and joins as the plane drops.
    pub fn shutdown(mut self) {
        self.finish();
    }
}

impl Drop for LivePlane {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The collector: folds worker events into the shared state and, on every
/// wake-up, runs the watchdog scan. Waits at most `threshold / 4`
/// (10–50 ms) for an event, so a silent campaign is still scanned.
fn collector_loop(rx: Receiver<WorkerEvent>, state: Arc<Mutex<LiveState>>, threshold: Duration) {
    let poll = (threshold / 4).clamp(Duration::from_millis(10), Duration::from_millis(50));
    loop {
        let event = match rx.recv_timeout(poll) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut locked = state.lock().expect("live state poisoned");
        if let Some(event) = event {
            fold_event(&mut locked, event);
        }
        let newly_stalled = flag_stalls(&mut locked, threshold);
        drop(locked);
        for (id, age) in newly_stalled {
            eprintln!(
                "grinch-arena: watchdog: worker {id} stalled \
                 (no heartbeat for {} ms, threshold {} ms)",
                age.as_millis(),
                threshold.as_millis()
            );
        }
    }
    state.lock().expect("live state poisoned").progress.done = true;
}

/// Folds one worker event into the progress view. Every event stamps the
/// worker's heartbeat and clears its stall flag; all but `WorkerDone`
/// count as a heartbeat.
fn fold_event(state: &mut LiveState, event: WorkerEvent) {
    let progress = &mut state.progress;
    let worker = match &event {
        WorkerEvent::Heartbeat { worker }
        | WorkerEvent::CellStarted { worker, .. }
        | WorkerEvent::TrialDone { worker, .. }
        | WorkerEvent::CellDone { worker, .. }
        | WorkerEvent::WorkerDone { worker } => *worker,
    };
    if !matches!(event, WorkerEvent::WorkerDone { .. }) {
        progress.heartbeats += 1;
    }
    // An unknown worker index still counts in the campaign totals.
    let mut scratch = WorkerView::new(worker);
    let w = progress.workers.get_mut(worker).unwrap_or(&mut scratch);
    w.last_beat = Some(Instant::now());
    w.stalled = false;
    match event {
        WorkerEvent::Heartbeat { .. } => {}
        WorkerEvent::CellStarted {
            cell, label, seed, ..
        } => {
            progress.cells_started += 1;
            w.current_cell = Some(cell as u64);
            w.current_label = label;
            w.current_seed = Some(seed);
        }
        WorkerEvent::TrialDone {
            encryptions,
            success,
            ..
        } => {
            progress.trials_completed += 1;
            progress.trials_succeeded += u64::from(success);
            progress.encryptions_total += encryptions;
            w.trials_completed += 1;
            w.encryptions += encryptions;
        }
        WorkerEvent::CellDone { .. } => {
            progress.cells_completed += 1;
            w.cells_completed += 1;
            w.current_cell = None;
            w.current_seed = None;
            w.current_label.clear();
        }
        WorkerEvent::WorkerDone { .. } => {
            w.done = true;
            w.current_cell = None;
            w.current_seed = None;
            w.current_label.clear();
        }
    }
}

/// The watchdog scan: flags live workers whose last heartbeat is older
/// than `threshold` and returns `(worker, silence)` for each newly flagged
/// one. A flagged worker recovers on its next event; the run-wide
/// [`LiveState::stalls_flagged`] tally never decreases.
fn flag_stalls(state: &mut LiveState, threshold: Duration) -> Vec<(usize, Duration)> {
    let started = state.progress.started;
    let mut newly_stalled = Vec::new();
    for worker in &mut state.progress.workers {
        if worker.done || worker.stalled {
            continue;
        }
        // A worker that never beat is measured from campaign start — a
        // wedged very first cell must still be flagged.
        let age = worker.last_beat.or(started).map(|at| at.elapsed());
        if let Some(age) = age.filter(|age| *age > threshold) {
            worker.stalled = true;
            newly_stalled.push((worker.id, age));
        }
    }
    state.stalls_flagged += newly_stalled.len() as u64;
    newly_stalled
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_obs::live::{http_get, validate_exposition};

    fn smoke_options(label: &str) -> LiveOptions {
        LiveOptions::new("127.0.0.1:0", label)
    }

    #[test]
    fn collector_folds_events_into_progress_and_metrics() {
        let config = CampaignConfig::smoke();
        let plane = LivePlane::start(&config, smoke_options("collector-test")).expect("start");
        let tx = plane.sender();
        tx.send(WorkerEvent::CellStarted {
            worker: 0,
            cell: 3,
            label: "baseline/flush-reload/0".to_string(),
            seed: 0xfeed,
        })
        .unwrap();
        tx.send(WorkerEvent::Heartbeat { worker: 1 }).unwrap();
        tx.send(WorkerEvent::TrialDone {
            worker: 0,
            cell: 3,
            trial: 0,
            encryptions: 321,
            success: true,
        })
        .unwrap();
        tx.send(WorkerEvent::CellDone { worker: 0, cell: 3 })
            .unwrap();
        tx.send(WorkerEvent::WorkerDone { worker: 1 }).unwrap();
        drop(tx);

        let mut plane = plane;
        plane.finish();

        let state = plane.state();
        let state = state.lock().unwrap();
        assert_eq!(state.progress.cells_started, 1);
        assert_eq!(state.progress.cells_completed, 1);
        assert_eq!(state.progress.trials_completed, 1);
        assert_eq!(state.progress.encryptions_total, 321);
        assert!(state.progress.done);
        let w0 = &state.progress.workers[0];
        assert_eq!(w0.cells_completed, 1);
        assert_eq!(w0.encryptions, 321);
        assert_eq!(w0.current_cell, None, "cell cleared after CellDone");
        assert!(state.progress.workers[1].done);
        // Metrics side: the tallies only /metrics shows.
        assert_eq!(state.progress.trials_succeeded, 1);
        assert_eq!(state.progress.heartbeats, 4, "WorkerDone is no heartbeat");
        let text = state.exposition();
        validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("arena_trials_succeeded 1\n"));
        let active = state.progress.workers.len() - 1; // worker 1 is done
        assert!(text.contains(&format!("arena_workers_active {active}\n")));
    }

    #[test]
    fn watchdog_flags_silent_workers_and_healthz_recovers() {
        let config = CampaignConfig::smoke();
        let mut opts = smoke_options("watchdog-test");
        opts.watchdog_threshold = Duration::from_millis(40);
        let mut plane = LivePlane::start(&config, opts).expect("start");
        let addr = plane.addr().to_string();
        let tx = plane.sender();

        // Nobody beats: every worker gets flagged from campaign start.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (code, _) = http_get(&addr, "/healthz").expect("healthz");
            if code == 503 {
                break;
            }
            assert!(Instant::now() < deadline, "watchdog never flagged a stall");
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let state = plane.state();
            let state = state.lock().unwrap();
            assert!(state.stalls_flagged >= 1);
            assert!(!state.healthy());
        }

        // A heartbeat clears the flag and healthz goes green again.
        for worker in 0..config.jobs.clamp(1, config.num_cells()) {
            tx.send(WorkerEvent::Heartbeat { worker }).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (code, _) = http_get(&addr, "/healthz").expect("healthz");
            if code == 200 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "heartbeat never cleared the stall"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        drop(tx);
        plane.finish();
        let state = plane.state();
        assert!(
            state.lock().unwrap().stalls_flagged >= 1,
            "tally never decreases"
        );
    }

    #[test]
    fn live_endpoints_serve_while_a_real_smoke_cell_runs() {
        let mut config = CampaignConfig::smoke();
        config.trials = 1;
        let plane = LivePlane::start(&config, smoke_options("arena smoke")).expect("start");
        let addr = plane.addr().to_string();
        let sender = plane.sender();
        let matrix = crate::engine::run_campaign_observed(&config, Some(&sender));
        drop(sender);

        let (code, body) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        validate_exposition(&body).expect("mid-run scrape is valid exposition");
        let (code, body) = http_get(&addr, "/progress").expect("progress");
        assert_eq!(code, 200);
        let doc = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        assert_eq!(doc.get("campaign").unwrap().as_str(), Some("arena smoke"));

        let mut plane = plane;
        plane.finish();
        let (_, body) = http_get(&addr, "/progress").expect("final progress");
        let doc = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        assert_eq!(
            doc.get("done"),
            Some(&grinch_telemetry::json::JsonValue::Bool(true))
        );
        assert_eq!(
            doc.get("cells_completed").unwrap().as_u64(),
            Some(config.num_cells() as u64)
        );
        assert_eq!(
            doc.get("trials_completed").unwrap().as_u64(),
            Some((config.num_cells() * config.trials) as u64)
        );
        assert_eq!(matrix.cells.len(), config.num_cells());
        plane.shutdown();
    }

    /// The value of one unlabelled sample in a scrape body.
    fn sample(body: &str, name: &str) -> u64 {
        body.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample {name} in\n{body}"))
            .parse()
            .expect("integer sample")
    }

    #[test]
    fn final_metrics_scrape_agrees_with_progress_and_the_matrix() {
        let config = CampaignConfig::smoke();
        let mut plane = LivePlane::start(&config, smoke_options("arena smoke")).expect("start");
        let addr = plane.addr().to_string();
        let sender = plane.sender();
        let matrix = crate::engine::run_campaign_observed(&config, Some(&sender));
        drop(sender);
        plane.finish();

        let (code, metrics) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        validate_exposition(&metrics).expect("final scrape is valid exposition");
        for family in [
            "arena_heartbeats_total counter",
            "arena_cells_started counter",
            "arena_cells_completed counter",
            "arena_trials_completed counter",
            "arena_trials_succeeded counter",
            "arena_encryptions_total counter",
            "arena_workers_active gauge",
            "arena_workers_stalled gauge",
            "arena_trial_encryptions summary",
        ] {
            assert!(
                metrics.contains(&format!("# TYPE {family}\n")),
                "missing family {family}"
            );
        }

        let (_, body) = http_get(&addr, "/progress").expect("progress");
        let progress = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        let total = |key: &str| progress.get(key).and_then(|v| v.as_u64()).expect(key);
        assert_eq!(
            sample(&metrics, "arena_cells_completed"),
            total("cells_completed")
        );
        assert_eq!(
            sample(&metrics, "arena_trials_completed"),
            total("trials_completed")
        );
        assert_eq!(
            sample(&metrics, "arena_encryptions_total"),
            total("encryptions_total")
        );
        assert_eq!(
            sample(&metrics, "arena_trial_encryptions_count"),
            total("trials_completed")
        );
        assert_eq!(
            sample(&metrics, "arena_trial_encryptions_sum"),
            total("encryptions_total")
        );
        let succeeded: u64 = matrix
            .cells
            .iter()
            .map(|c| (c.success_rate * c.trials as f64).round() as u64)
            .sum();
        assert!(succeeded > 0, "the smoke grid has undefended cells");
        assert_eq!(sample(&metrics, "arena_trials_succeeded"), succeeded);
        assert_eq!(sample(&metrics, "arena_workers_active"), 0);
        plane.shutdown();
    }
}
