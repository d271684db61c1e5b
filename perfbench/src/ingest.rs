//! The ingest workloads: an open-loop generator thread pushing the seeded
//! sensor stream into a durable five-server group through the library's
//! [`IngestPipeline`], with an aggregator thread pumping it.  Every number
//! is taken outside the library, at the [`ServerGroup`] calls the pipeline
//! makes into [`Recorder`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fsm_dfsm::{Dfsm, Event, StateId};
use fsm_distsys::{
    replay_oracle, shared, ClientHandle, DistsysError, DurabilityConfig, DurableServer,
    GroupConfig, IngestConfig, IngestPipeline, LaneStatus, MemStore, OsClock, ParallelServerGroup,
    ReplayStats, Seeded, SensorBackupMode, SensorNetwork, Server, ServerGroup, Workload,
};
use fsm_fusion_core::MachineReport;

use crate::heap;
use crate::report::{E2e, WorkloadResult};
use crate::stats::{
    attribute_latencies, calm_slices, host_steal_s, mean_u64, median_f64, median_kept,
    newest_confirmed, percentile, process_cpu_s, thread_cpu_s, Marker, Outcome,
};
use crate::trace::{self, Tracer};

/// Sensors in the group; the analytic backup makes five servers.
const SENSORS: usize = 4;

/// Open-loop send rate.  The durable group with a marker per flush costs
/// about 9 µs of CPU per event on a 2-core container.  At 150k and 100k
/// events/s, minute-long bursts of host contention tipped one run in three
/// into queueing (p90 2-5× its usual value); 50k events/s keeps the group
/// about a quarter busy.  Batches leave on the 2 ms flush timer (about 100
/// events each) rather than filling to `batch_max`.
const RATE_PER_S: u64 = 50_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE_PER_S;

/// Events per second of `--seconds` that follow the open loop in a
/// closed-loop phase, which `cpu_us_per_op` is measured on.  At 50k
/// events/s most of the process's CPU time goes to waking idle threads,
/// and how often they sleep depends on what else the host runs: a busy
/// neighbour on the other core cut the open loop's CPU per event by a
/// quarter.  Pushed as fast as the group confirms them, the same events
/// keep the servers busy and the CPU time is the work.  At about 270k
/// events/s the phase takes about half the run.
const CLOSED_PER_S: u64 = 150_000;

/// Events the closed-loop phase keeps in flight beyond those every server
/// has confirmed: 16 full batches.  Without a bound the aggregator runs
/// ahead of the servers and their channels, and the heap, grow.
const CLOSED_WINDOW: u64 = 4096;

/// Length of the closed-loop phase's CPU slices.
const CLOSED_SLICE: Duration = Duration::from_millis(500);

/// How long the aggregator sleeps (waiting for a marker reply) when a pump
/// flushed nothing and no reply arrived.
const IDLE_WAIT: Duration = Duration::from_micros(100);

/// Set-ups per run; `setup_s` is the median of their times.  They are not
/// calibrated as the fusion set-ups are: generating the stream is bound by
/// first touches of fresh memory, which the allocation chunk does not
/// track, and over eight runs the raw medians ranged over 6%, the
/// calibrated ones over 17%.
const SETUPS: usize = 15;

/// Mean events between kills on `ingest_failover` (200 ms of traffic);
/// each kill lands at a seeded offset in the second half of its slot.
const KILL_EVERY: u64 = 10_000;

/// Slices of a run in which the hypervisor stole more than this share of
/// the machine's CPU time are left out of the ingest figures (down to the
/// calmest quarter): a stolen vCPU stalls the open loop's servers and
/// queues events behind it, which measures the host, not the program.
const STEAL_LIMIT: f64 = 0.02;

/// Longest the run waits for a lagging server or marker after the stream
/// ends before it gives up and lets the checks count the loss.
const TAIL_TIMEOUT: Duration = Duration::from_secs(10);

/// Events replayed per machine by the traced run's apply micro-benchmark.
const APPLY_BENCH_EVENTS: usize = 100_000;

/// A [`ServerGroup`] around the threaded group that the pipeline drives:
/// it counts what each server has been handed, requests a report marker
/// right after every delivery, and records spans for the traced run.
struct Recorder {
    group: ParallelServerGroup,
    origin: Instant,
    delivered: Vec<u64>,
    markers: Vec<Marker>,
    first_generation: Option<u64>,
    tracer: Tracer,
    batches: u64,
    restarts: u64,
    frames_replayed: u64,
    /// A marker whose answers' reports are kept (for a peer decode).
    probe: Option<(usize, Vec<Option<MachineReport>>)>,
    peer_resyncs: u64,
    /// The newest marker found answered by every server, and the events
    /// it confirms.
    confirmed_marker: usize,
    confirmed: u64,
}

impl Recorder {
    fn new(group: ParallelServerGroup, markers: usize, traced: bool) -> Self {
        let servers = group.len();
        Recorder {
            group,
            origin: Instant::now(),
            delivered: vec![0; servers],
            markers: Vec::with_capacity(markers),
            first_generation: None,
            tracer: Tracer::new(traced),
            batches: 0,
            restarts: 0,
            frames_replayed: 0,
            probe: None,
            peer_resyncs: 0,
            confirmed_marker: 0,
            confirmed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Requests a report round from every server and returns its marker
    /// index.  A server's answer proves it applied everything it had been
    /// handed when the request was sent.
    fn marker(&mut self) -> usize {
        let span = self.tracer.open("bench.marker", self.batches);
        let generation = self.group.request_reports();
        let first = *self.first_generation.get_or_insert(generation);
        debug_assert_eq!(generation - first, self.markers.len() as u64);
        let servers = self.delivered.len();
        self.markers.push(Marker {
            sent_ns: self.now_ns(),
            delivered: self.delivered.clone(),
            answered_ns: vec![None; servers],
        });
        self.tracer.close(span);
        self.markers.len() - 1
    }

    /// Records every marker reply already waiting, first waiting up to
    /// `wait` for one.  Returns how many replies arrived.
    fn poll(&mut self, wait: Option<Duration>) -> usize {
        let mut next = match wait {
            Some(w) => self.group.recv_report_timeout(w),
            None => self.group.try_recv_report(),
        };
        let mut got = 0;
        while let Some((server, generation, report)) = next {
            let at = self.now_ns();
            if let Some(first) = self.first_generation {
                let index = generation.wrapping_sub(first) as usize;
                if let Some(m) = self.markers.get_mut(index) {
                    m.answered_ns[server].get_or_insert(at);
                }
                if let Some((_, reports)) = self.probe.as_mut().filter(|p| p.0 == index) {
                    reports[server] = Some(report);
                }
            }
            got += 1;
            next = self.group.try_recv_report();
        }
        got
    }

    fn answered_by_all(&self, marker: usize) -> bool {
        self.markers[marker].answered_ns.iter().all(Option::is_some)
    }

    /// Events every server has applied: the smallest delivered count of
    /// the newest marker that every server has answered.
    fn confirmed(&mut self) -> u64 {
        if let Some((i, events)) = newest_confirmed(&self.markers, self.confirmed_marker) {
            (self.confirmed_marker, self.confirmed) = (i, events);
        }
        self.confirmed
    }
}

impl ServerGroup for Recorder {
    fn len(&self) -> usize {
        self.group.len()
    }

    fn apply_event(&mut self, event: &Event) {
        self.apply_batch(std::slice::from_ref(event));
    }

    fn apply_event_to(&mut self, i: usize, event: &Event) {
        self.apply_batch_to(i, std::slice::from_ref(event));
    }

    fn apply_batch(&mut self, events: &[Event]) {
        let span = self.tracer.open("parallel.send", self.batches);
        self.group.apply_batch(events);
        self.tracer.close(span);
        for d in &mut self.delivered {
            *d += events.len() as u64;
        }
        self.batches += 1;
        self.marker();
    }

    fn apply_batch_to(&mut self, i: usize, events: &[Event]) {
        let span = self.tracer.open("parallel.send", self.batches);
        self.group.apply_batch_to(i, events);
        self.tracer.close(span);
        self.delivered[i] += events.len() as u64;
        self.batches += 1;
        self.marker();
    }

    fn crash(&mut self, i: usize) {
        self.group.crash(i);
    }

    fn corrupt(&mut self, i: usize, state: StateId) {
        self.group.corrupt(i, state);
    }

    fn restore(&mut self, i: usize, state: StateId) {
        self.group.restore(i, state);
    }

    fn kill_process(&mut self, i: usize) {
        self.group.kill_process(i);
    }

    fn restart_process(&mut self, i: usize) -> fsm_distsys::Result<ReplayStats> {
        let span = self.tracer.open("recovery.restart", i as u64);
        let out = self.group.restart_process(i);
        self.tracer.close(span);
        if let Ok(stats) = &out {
            self.restarts += 1;
            self.frames_replayed += stats.frames_replayed as u64;
        }
        out
    }

    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> fsm_distsys::Result<()> {
        self.group.resync(i, seq, state);
        // The adopted state covers the first `seq` events of the stream.
        self.delivered[i] = seq;
        Ok(())
    }

    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>> {
        self.group.try_collect_reports()
    }

    fn shutdown(self: Box<Self>) -> Vec<Server> {
        self.group.shutdown()
    }
}

/// Everything a run needs before its clock starts.
struct Setup {
    machines: Vec<Dfsm>,
    group: ParallelServerGroup,
    workload: Workload,
}

fn set_up(events: usize, seed: u64) -> Result<Setup, DistsysError> {
    let net = SensorNetwork::new(SENSORS, SensorBackupMode::Analytic)?;
    let machines = net.serving_machines();
    let group = ParallelServerGroup::spawn_durable(
        &machines,
        &GroupConfig::new(),
        OsClock::new(),
        shared(MemStore::new()),
        "perfbench",
        DurabilityConfig::new(),
    )?;
    let workload = net.random_workload(events, seed);
    Ok(Setup {
        machines,
        group,
        workload,
    })
}

/// The kill schedule of `ingest_failover`: `(event index, victim)` pairs,
/// victims rotating over every server from a seeded offset.
pub fn kill_schedule(events: u64, servers: usize, seed: u64) -> Vec<(u64, usize)> {
    let kills = (events / KILL_EVERY).saturating_sub(1) as usize;
    let offsets = Seeded(seed)
        .split(1)
        .observations(KILL_EVERY as usize / 2, kills);
    let first_victim = Seeded(seed).split(2).observations(servers, 1)[0];
    offsets
        .iter()
        .enumerate()
        .map(|(j, &off)| {
            let at = j as u64 * KILL_EVERY + KILL_EVERY / 2 + off as u64;
            (at, (first_victim + j) % servers)
        })
        .collect()
}

/// The failover in progress: who was killed, when, and the marker sent
/// once its lane was healthy again.
struct Outage {
    victim: usize,
    killed_ns: u64,
    marker: Option<usize>,
}

/// Open-loop generator: event `i` is due `i * PERIOD_NS` after the run
/// starts and is pushed as soon as it is due, however late the previous
/// push returned.  Returns per-event lag (ns, saturating) and this
/// thread's CPU seconds.
fn generate(
    handle: ClientHandle,
    events: &[Event],
    origin: Instant,
    mut lags: Vec<u32>,
) -> (Vec<u32>, f64) {
    let cpu0 = thread_cpu_s();
    let open = events.len();
    let mut i = 0usize;
    while i < open {
        let now = origin.elapsed().as_nanos() as u64;
        let due = i as u64 * PERIOD_NS;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        let due_count = ((now / PERIOD_NS) as usize + 1).min(open);
        while i < due_count {
            let at = origin.elapsed();
            handle.push_blocking(events[i].clone(), at);
            let lag = (at.as_nanos() as u64).saturating_sub(i as u64 * PERIOD_NS);
            lags.push(lag.min(u32::MAX as u64) as u32);
            i += 1;
        }
    }
    (lags, thread_cpu_s() - cpu0)
}

/// Runs `ingest_steady` (`failover == false`) or `ingest_failover`.
pub fn run(seconds: u64, seed: u64, failover: bool, traced: bool) -> WorkloadResult {
    // The open loop fills half the run, the closed-loop phase about the
    // rest.
    let open_secs = seconds.div_ceil(2);
    let open = (RATE_PER_S * open_secs) as usize;
    let events = open + (CLOSED_PER_S * seconds) as usize;
    let mut outcome = Outcome::default();
    let mut lines = Vec::new();

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let start = Instant::now();
        let s = set_up(events, seed);
        setup_times.push(start.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup {
        machines,
        group,
        workload,
    } = match setup.expect("SETUPS > 0") {
        Ok(s) => s,
        Err(e) => {
            lines.push(format!("set-up failed: {e}"));
            outcome.add(1, 1);
            return WorkloadResult::failed(outcome, lines);
        }
    };
    let servers = machines.len();
    let config = IngestConfig::new();
    let (batch_max, queue_cap) = (config.resolved_batch_max(), config.resolved_queue_cap());
    let mut pipeline = IngestPipeline::new(1, servers, &config);
    let handle = pipeline.client(0);
    let schedule = if failover {
        kill_schedule(open as u64, servers, seed)
    } else {
        Vec::new()
    };
    let mut rec = Recorder::new(group, events / 128 + schedule.len() * 64 + 16, traced);
    let stream = workload.events();
    let finished = AtomicBool::new(false);
    // The next closed-loop event to push, once the generator is done, and
    // when the confirmed count last grew.
    let mut next = open;
    let mut progress = (0u64, Duration::ZERO);
    let mut closed_start_ns = u64::MAX;
    let mut gaps_ns: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut kills = 0usize;
    // Allocated before the heap window opens: it is the benchmark's own.
    let lags = Vec::with_capacity(open);

    heap::reset_peak();
    let heap_base = heap::live();
    let cpu0 = process_cpu_s();
    let agg_cpu0 = thread_cpu_s();
    let origin = Instant::now();
    rec.origin = origin;
    let mut outage: Option<Outage> = None;
    let mut pumps = 0u64;
    // At each whole second of the open loop: (run ns, process CPU s, host
    // steal s).
    let mut marks: Vec<(u64, f64, f64)> = Vec::with_capacity(open_secs as usize + 2);
    marks.push((0, cpu0, host_steal_s()));
    // Every `CLOSED_SLICE` of the closed-loop phase, from the moment every
    // server has confirmed the open loop until the last event is pushed:
    // (run ns, process CPU s, host steal s, confirmed events).
    let mut closed_marks: Vec<(u64, f64, f64, u64)> = Vec::new();

    let (lags, gen_cpu) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let out = generate(handle, &stream[..open], origin, lags);
            finished.store(true, Ordering::Release);
            out
        });
        loop {
            let now = origin.elapsed();
            if now.as_secs() >= marks.len() as u64 && now.as_secs() <= open_secs {
                marks.push((now.as_nanos() as u64, process_cpu_s(), host_steal_s()));
            }
            let confirmed = rec.confirmed();
            let next_closed_mark = closed_marks
                .last()
                .map_or(0, |m| m.0 + CLOSED_SLICE.as_nanos() as u64);
            if confirmed >= open as u64
                && now.as_nanos() as u64 >= next_closed_mark
                && next < events
            {
                closed_marks.push((
                    now.as_nanos() as u64,
                    process_cpu_s(),
                    host_steal_s(),
                    confirmed,
                ));
            }
            // The closed loop: this thread is the only client, and pushes
            // whole batches while the queue and the in-flight window have
            // room for them, so every flush is a full one.
            if finished.load(Ordering::Acquire) {
                closed_start_ns = closed_start_ns.min(now.as_nanos() as u64);
                if confirmed > progress.0 {
                    progress = (confirmed, now);
                } else if now - progress.1 > TAIL_TIMEOUT {
                    lines.push(format!(
                        "the closed loop stalled at {confirmed} confirmed events; {} never pushed",
                        events - next
                    ));
                    break;
                }
                let limit = (confirmed + CLOSED_WINDOW).min(events as u64) as usize;
                while next < limit
                    && (next + batch_max <= limit || limit == events)
                    && pipeline.queued() + batch_max <= queue_cap
                {
                    let end = (next + batch_max).min(events);
                    while next < end && pipeline.try_push(0, stream[next].clone(), now).is_ok() {
                        next += 1;
                    }
                    if next < end {
                        break;
                    }
                }
            }
            if outage.is_none() {
                if let Some(&(at, victim)) = schedule.get(kills) {
                    if pipeline.metrics().flushed_events >= at {
                        let span = rec.tracer.open("ingest.kill", victim as u64);
                        pipeline.kill_server(&mut rec, victim, now);
                        rec.tracer.close(span);
                        outage = Some(Outage {
                            victim,
                            killed_ns: now.as_nanos() as u64,
                            marker: None,
                        });
                        kills += 1;
                    }
                }
            }
            let span = rec.tracer.open("ingest.pump", pumps);
            let flushed = pipeline.pump(&mut rec, origin.elapsed());
            rec.tracer.close(span);
            pumps += 1;
            let replies = rec.poll(None);
            track_outage(&mut outage, &mut rec, &mut pipeline, &mut gaps_ns);
            if next == events && pipeline.queued() == 0 {
                break;
            }
            if !flushed && replies == 0 {
                rec.poll(Some(IDLE_WAIT));
            }
        }
        generator
            .join()
            .expect("the generator thread does not panic")
    });

    // Tail: flush what is pending, let any victim rejoin, then one last
    // marker proves every server applied the whole stream.
    let span = rec.tracer.open("ingest.pump", pumps);
    pipeline.drain(&mut rec, origin.elapsed());
    rec.tracer.close(span);
    let tail_deadline = Instant::now() + TAIL_TIMEOUT;
    while (outage.is_some() || (0..servers).any(|i| pipeline.lane_status(i) != LaneStatus::Healthy))
        && Instant::now() < tail_deadline
    {
        let span = rec.tracer.open("ingest.pump", pumps);
        pipeline.pump(&mut rec, origin.elapsed());
        rec.tracer.close(span);
        pumps += 1;
        rec.poll(Some(IDLE_WAIT));
        track_outage(&mut outage, &mut rec, &mut pipeline, &mut gaps_ns);
    }
    let last = rec.marker();
    while !rec.answered_by_all(last) && Instant::now() < tail_deadline {
        rec.poll(Some(IDLE_WAIT));
    }
    // A run too short for one whole slice takes the phase, up to the last
    // marker's answers, as one.
    if closed_marks.len() == 1 {
        let confirmed = rec.confirmed();
        closed_marks.push((
            origin.elapsed().as_nanos() as u64,
            process_cpu_s(),
            host_steal_s(),
            confirmed,
        ));
    }
    let window_ns = origin.elapsed().as_nanos() as u64;
    let cpu_s = process_cpu_s() - cpu0;
    let agg_cpu_s = thread_cpu_s() - agg_cpu0;
    let heap_growth = heap::peak().saturating_sub(heap_base);

    // Correctness: every event confirmed on every server, and every
    // server's final state equal to the oracle over the whole stream.
    let (mut latencies, unconfirmed) =
        attribute_latencies(events, PERIOD_NS, servers, &rec.markers);
    // Only the open loop's events have due times.
    latencies.truncate(open);
    outcome.add(events as u64, unconfirmed as u64);
    let reports = rec.group.try_collect_reports();
    let mut mismatched = 0u64;
    for (s, report) in reports.iter().enumerate() {
        let oracle = replay_oracle(&machines[s], &workload);
        if *report != Some(MachineReport::State(oracle.index())) {
            mismatched += 1;
            lines.push(format!(
                "server {s}: final report {report:?}, oracle state {}",
                oracle.index()
            ));
        }
    }
    outcome.add(servers as u64, mismatched);
    if unconfirmed > 0 {
        lines.push(format!(
            "{unconfirmed} events never confirmed on every server"
        ));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    // Each figure is the median over one-second slices of the stream
    // (slice k holds the events due in second k), leaving out the slices in
    // which the hypervisor stole more than `STEAL_LIMIT` of the machine.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1].2 - w[0].2) / ((w[1].0 - w[0].0) as f64 / 1e9 * cpus))
        .collect();
    let clean = calm_slices(&steal, STEAL_LIMIT);
    let mut per_slice = |stat: &dyn Fn(&mut [u64]) -> f64| {
        let values: Vec<f64> = latencies
            .chunks_mut(RATE_PER_S as usize)
            .map(stat)
            .collect();
        median_kept(&values, &clean)
    };
    let pct = |p: f64| move |s: &mut [u64]| percentile(s, p).map_or(0.0, |x| x.value as f64);
    let p50_ns = per_slice(&pct(50.0));
    let p90_ns = per_slice(&pct(90.0));
    let mean_ns = per_slice(&|s: &mut [u64]| mean_u64(s));
    let open_cpu_per_event: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) * 1e6 / ((w[1].0 - w[0].0) as f64 / PERIOD_NS as f64))
        .collect();
    let open_cpu_us = median_kept(&open_cpu_per_event, &clean);
    // CPU per event of the closed-loop phase, slice by slice, leaving out
    // stolen slices in the same way.
    let closed_steal: Vec<f64> = closed_marks
        .windows(2)
        .map(|w| (w[1].2 - w[0].2) / ((w[1].0 - w[0].0) as f64 / 1e9 * cpus))
        .collect();
    let closed_cpu_per_event: Vec<f64> = closed_marks
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) * 1e6 / (w[1].3 - w[0].3).max(1) as f64)
        .collect();
    let closed_clean = calm_slices(&closed_steal, STEAL_LIMIT);
    let closed_rate = closed_marks
        .last()
        .zip(closed_marks.first())
        .map_or(0.0, |(b, a)| {
            (b.3 - a.3) as f64 / ((b.0 - a.0).max(1) as f64 / 1e9)
        });
    lines.push(format!(
        "closed loop: {} of {} slices of {} ms kept, {:.0} events/s confirmed, cpu per event {:?}",
        closed_clean.iter().filter(|&&c| c).count(),
        closed_clean.len(),
        CLOSED_SLICE.as_millis(),
        closed_rate,
        closed_cpu_per_event
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));
    if closed_cpu_per_event.is_empty() {
        lines.push("the closed-loop phase was too short to measure".into());
        outcome.add(1, 1);
    }
    let steal_pct = steal.iter().sum::<f64>() / steal.len().max(1) as f64 * 100.0;
    lines.push(format!(
        "host steal {steal_pct:.2}% of the window; {} of {} slices kept (under {}% steal, or the calmest quarter)",
        clean.iter().filter(|&&c| c).count(),
        clean.len(),
        STEAL_LIMIT * 100.0
    ));
    let p99 = percentile(&mut latencies, 99.0);
    let gap_ms: Vec<f64> = gaps_ns.iter().map(|&g| ms(g)).collect();
    let failover_gap_ms = median_f64(&gap_ms).unwrap_or(0.0);
    if failover && gaps_ns.len() != schedule.len() {
        lines.push(format!(
            "{} of {} kills completed their failover",
            gaps_ns.len(),
            schedule.len()
        ));
        outcome.add(
            schedule.len() as u64,
            (schedule.len() - gaps_ns.len()) as u64,
        );
    }
    let e2e = E2e {
        setup_s: median_f64(&setup_times).unwrap_or(0.0),
        p50_ms: p50_ns / 1e6,
        p90_ms: p90_ns / 1e6,
        mean_ms: mean_ns / 1e6,
        cpu_us_per_op: median_kept(&closed_cpu_per_event, &closed_clean),
        peak_heap_mb: heap_growth as f64 / (1u64 << 20) as f64,
        backup_states: machines[servers - 1].size() as f64,
    };
    lines.push(format!(
        "ingest_p50_ms={:.4} ingest_p90_ms={:.4} (medians over 1 s slices of {} events) \
         ingest_cpu_us_per_event={:.4} (closed loop; open loop {:.4}, whole window {:.4}) \
         failover_gap_ms={} fusion_ms=n/a fusion_backup_states={} peak_heap_mb={:.3} \
         failed_frac={} setup_s={:.4}",
        e2e.p50_ms,
        e2e.p90_ms,
        p99.map_or(0, |p| p.samples),
        e2e.cpu_us_per_op,
        open_cpu_us,
        cpu_s * 1e6 / events as f64,
        if failover {
            format!("{failover_gap_ms:.4} (median of {})", gaps_ns.len())
        } else {
            "n/a".into()
        },
        e2e.backup_states,
        e2e.peak_heap_mb,
        outcome.failed_frac(),
        e2e.setup_s,
    ));

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        let m = pipeline.metrics();
        let times = trace::self_times(rec.tracer.spans());
        // Mean µs per call of a span: its whole duration, or its self time.
        let per_call_us = |name: &str, self_only: bool| {
            times.get(name).map_or(0.0, |&(dur, own, n)| {
                (if self_only { own } else { dur }) as f64 / 1e3 / n.max(1) as f64
            })
        };
        // Latency layers over the open loop only: the closed loop queues
        // up to `CLOSED_WINDOW` events behind every flush by design.
        let mut e2f = pipeline.take_latency_samples();
        e2f.truncate(open);
        let mut flush_to_ack: Vec<u64> = rec
            .markers
            .iter()
            .filter(|m| m.sent_ns < closed_start_ns)
            .filter_map(|m| {
                let done = m
                    .answered_ns
                    .iter()
                    .copied()
                    .collect::<Option<Vec<u64>>>()?;
                Some(done.into_iter().max()?.saturating_sub(m.sent_ns))
            })
            .collect();
        let mut lag_ns: Vec<u64> = lags.iter().map(|&l| l as u64).collect();
        let pct = |v: &mut Vec<u64>, p: f64| ms(percentile(v, p).map_or(0, |p| p.value));
        let server_cpu_s = (cpu_s - agg_cpu_s - gen_cpu).max(0.0);
        let (durable_ns, plain_ns) = apply_bench(&machines, stream);
        layers.extend([
            ("ingest.pump_us", per_call_us("ingest.pump", true)),
            ("ingest.enqueue_to_flush_ms.p50", pct(&mut e2f, 50.0)),
            ("ingest.enqueue_to_flush_ms.p90", pct(&mut e2f, 90.0)),
            (
                "ingest.batch_events",
                m.flushed_events as f64 / m.batches.max(1) as f64,
            ),
            ("ingest.size_flushes", m.size_flushes as f64),
            ("ingest.time_flushes", m.time_flushes as f64),
            ("ingest.latency_p99_ms", ms(p99.map_or(0, |p| p.value))),
            ("parallel.send_us", per_call_us("parallel.send", false)),
            ("parallel.flush_to_ack_ms.p50", pct(&mut flush_to_ack, 50.0)),
            ("parallel.flush_to_ack_ms.p90", pct(&mut flush_to_ack, 90.0)),
            ("parallel.flush_to_ack_ms.p99", pct(&mut flush_to_ack, 99.0)),
            (
                "parallel.server_cpu_us_per_event",
                server_cpu_s * 1e6 / events as f64,
            ),
            (
                "parallel.aggregator_cpu_us_per_event",
                agg_cpu_s * 1e6 / events as f64,
            ),
            ("wal.durable_apply_ns", durable_ns),
            ("server.plain_apply_ns", plain_ns),
            (
                "recovery.restart_ms",
                per_call_us("recovery.restart", false) / 1e3,
            ),
            ("recovery.frames_replayed", rec.frames_replayed as f64),
            ("recovery.peer_resyncs", rec.peer_resyncs as f64),
            ("recovery.failover_gap_ms", failover_gap_ms),
            ("ingest.diverted", m.diverted as f64),
            ("ingest.replayed", m.replayed as f64),
            ("ingest.retries", m.retries as f64),
            ("generator.lag_ms.p99", pct(&mut lag_ns, 99.0)),
            ("generator.lag_ms.max", pct(&mut lag_ns, 100.0)),
            ("host.steal_pct", steal_pct),
        ]);
        for (metric, span) in [
            ("self_ms.ingest.pump", "ingest.pump"),
            ("self_ms.parallel.send", "parallel.send"),
            ("self_ms.bench.marker", "bench.marker"),
            ("self_ms.recovery.restart", "recovery.restart"),
        ] {
            layers.insert(metric, times.get(span).map_or(0.0, |t| t.1 as f64 / 1e6));
        }
        lines.push(format!(
            "kills={kills} restarts={} markers={} batches={} pumps={pumps}",
            rec.restarts,
            rec.markers.len(),
            m.batches
        ));
    }
    let spans = rec.tracer.take_spans();
    rec.group.shutdown();
    WorkloadResult {
        outcome,
        e2e,
        layers,
        spans,
        window_ns,
        lines,
    }
}

/// Advances the failover in progress: once the victim's lane is healthy,
/// send it a marker; once it answers, record the gap since the kill.  A
/// lane the pipeline isolated (its divert buffer overflowed while the
/// machine ran slow) rejoins by peer decode instead of backlog replay.
fn track_outage(
    outage: &mut Option<Outage>,
    rec: &mut Recorder,
    pipeline: &mut IngestPipeline,
    gaps_ns: &mut Vec<u64>,
) {
    let Some(o) = outage.as_mut() else { return };
    match o.marker {
        None if pipeline.lane_status(o.victim) == LaneStatus::Isolated => {
            peer_resync(rec, pipeline, o.victim);
        }
        None if pipeline.lane_status(o.victim) == LaneStatus::Healthy => {
            o.marker = Some(rec.marker());
        }
        Some(m) => {
            if let Some(at) = rec.markers[m].answered_ns[o.victim] {
                gaps_ns.push(at.saturating_sub(o.killed_ns));
                *outage = None;
            }
        }
        None => {}
    }
}

/// The sensor network's fused-backup recovery: the backup counts every
/// sensor event mod 3, so a missing sensor is the backup minus the other
/// sensors, and a missing backup is the sum of the sensors.  `reports`
/// holds every server's report (sensors first, backup last), `None` at
/// the victim.
pub fn decode_state(reports: &[Option<MachineReport>], victim: usize) -> Option<usize> {
    const MOD: usize = SensorNetwork::MODULUS;
    let backup = reports.len() - 1;
    let state = |i: usize| match reports[i] {
        Some(MachineReport::State(s)) => Some(s % MOD),
        _ => None,
    };
    let others = (0..backup)
        .filter(|&i| i != victim)
        .map(state)
        .sum::<Option<usize>>()?;
    if victim == backup {
        Some(others % MOD)
    } else {
        Some((state(backup)? + MOD * backup - others) % MOD)
    }
}

/// Rejoins an isolated lane the way the library leaves to its caller:
/// bring the process up, decode its state from its peers at the current
/// flush point, `resync` it there and `mark_up_current`.  Leaves the lane
/// isolated (for the final checks to count) if the peers do not answer.
fn peer_resync(rec: &mut Recorder, pipeline: &mut IngestPipeline, victim: usize) {
    let now = rec.origin.elapsed();
    pipeline.flush(rec, now);
    if !matches!(
        rec.restart_process(victim),
        Ok(_) | Err(DistsysError::ServerUp { .. })
    ) {
        return;
    }
    let seq = pipeline.metrics().flushed_events;
    let servers = rec.delivered.len();
    let m = rec.marker();
    rec.probe = Some((m, vec![None; servers]));
    let deadline = Instant::now() + TAIL_TIMEOUT;
    let answered = |rec: &Recorder| {
        rec.probe
            .as_ref()
            .is_some_and(|(_, r)| (0..servers).all(|i| i == victim || r[i].is_some()))
    };
    while !answered(rec) && Instant::now() < deadline {
        rec.poll(Some(IDLE_WAIT));
    }
    let Some((_, mut reports)) = rec.probe.take() else {
        return;
    };
    reports[victim] = None;
    if let Some(state) = decode_state(&reports, victim) {
        if rec.resync(victim, seq, StateId(state)).is_ok() {
            pipeline.mark_up_current(victim);
            rec.peer_resyncs += 1;
        }
    }
}

/// `DurableServer::apply` against `Server::apply` over the same events on
/// one thread: mean ns per event across the group's machines.
fn apply_bench(machines: &[Dfsm], stream: &[Event]) -> (f64, f64) {
    let events = &stream[..stream.len().min(APPLY_BENCH_EVENTS)];
    let (mut durable_ns, mut plain_ns) = (0u128, 0u128);
    for (i, m) in machines.iter().enumerate() {
        let Ok(mut durable) = DurableServer::fresh(
            m.clone(),
            shared(MemStore::new()),
            format!("apply-bench-{i}"),
            &DurabilityConfig::new(),
        ) else {
            return (0.0, 0.0);
        };
        let t0 = Instant::now();
        for e in events {
            if durable.apply(e).is_err() {
                return (0.0, 0.0);
            }
        }
        durable_ns += t0.elapsed().as_nanos();
        let mut plain = Server::new(m.clone());
        let t0 = Instant::now();
        for e in events {
            plain.apply(e);
        }
        plain_ns += t0.elapsed().as_nanos();
        std::hint::black_box((durable.acked_seq(), plain.current_state()));
    }
    let n = (events.len() * machines.len()).max(1) as f64;
    (durable_ns as f64 / n, plain_ns as f64 / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_recovers_a_sensor_or_the_backup_mod_3() {
        let r = |s: &[usize]| {
            s.iter()
                .map(|&v| Some(MachineReport::State(v)))
                .collect::<Vec<_>>()
        };
        // Sensor counts 2, 1, 0, 2 (sum 5 ≡ 2); backup 2.
        let mut reports = r(&[2, 1, 0, 2, 2]);
        reports[1] = None;
        assert_eq!(decode_state(&reports, 1), Some(1));
        let mut reports = r(&[2, 1, 0, 2, 2]);
        reports[4] = None;
        assert_eq!(decode_state(&reports, 4), Some(2));
        let mut reports = r(&[2, 1, 0, 2, 2]);
        reports[0] = None;
        reports[2] = Some(MachineReport::Crashed);
        assert_eq!(decode_state(&reports, 0), None);
    }

    #[test]
    fn an_isolated_lane_rejoins_by_peer_decode_and_matches_the_oracle() {
        let Setup {
            machines,
            group,
            workload,
        } = set_up(3000, 5).expect("set-up");
        let mut rec = Recorder::new(group, 64, false);
        // A tiny divert buffer and a probe that never fires: the killed
        // lane overflows and the pipeline isolates it.
        let config = IngestConfig::new()
            .divert_cap(64)
            .retry_base(Duration::from_secs(3600));
        let mut pipeline = IngestPipeline::new(1, machines.len(), &config);
        let events = workload.events();
        let feed =
            |pipeline: &mut IngestPipeline, rec: &mut Recorder, range: std::ops::Range<usize>| {
                for e in &events[range] {
                    let now = rec.origin.elapsed();
                    pipeline.push(rec, 0, e.clone(), now);
                    pipeline.pump(rec, now);
                }
                let now = rec.origin.elapsed();
                pipeline.flush(rec, now);
            };
        feed(&mut pipeline, &mut rec, 0..1000);
        let now = rec.origin.elapsed();
        pipeline.kill_server(&mut rec, 1, now);
        feed(&mut pipeline, &mut rec, 1000..2000);
        assert_eq!(pipeline.lane_status(1), LaneStatus::Isolated);

        let mut outage = Some(Outage {
            victim: 1,
            killed_ns: 0,
            marker: None,
        });
        let mut gaps = Vec::new();
        let deadline = Instant::now() + TAIL_TIMEOUT;
        while outage.is_some() && Instant::now() < deadline {
            track_outage(&mut outage, &mut rec, &mut pipeline, &mut gaps);
            rec.poll(Some(IDLE_WAIT));
        }
        assert_eq!((rec.peer_resyncs, gaps.len()), (1, 1));

        feed(&mut pipeline, &mut rec, 2000..3000);
        let last = rec.marker();
        while !rec.answered_by_all(last) && Instant::now() < deadline {
            rec.poll(Some(IDLE_WAIT));
        }
        let (_, unconfirmed) = attribute_latencies(3000, 0, machines.len(), &rec.markers);
        assert_eq!(unconfirmed, 0);
        let reports = rec.group.try_collect_reports();
        for (s, m) in machines.iter().enumerate() {
            let oracle = replay_oracle(m, &workload).index();
            assert_eq!(reports[s], Some(MachineReport::State(oracle)), "server {s}");
        }
    }

    #[test]
    fn kill_schedule_is_seeded_ordered_and_rotates_victims() {
        let events = 10 * KILL_EVERY;
        let a = kill_schedule(events, 5, 7);
        assert_eq!(a, kill_schedule(events, 5, 7));
        assert_ne!(a, kill_schedule(events, 5, 8));
        assert_eq!(a.len(), 9);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.iter().all(|&(at, _)| at < events));
        let victims: Vec<usize> = a.iter().map(|&(_, v)| v).collect();
        for w in victims.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 5);
        }
    }
}
