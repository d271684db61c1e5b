//! The fusion workloads: machine sets in, `f` fused backups out, through
//! the library's `FusionSession` — cold (a fresh session per input) and
//! warm (one session evolving its installed `⊤` by deltas).

use std::collections::BTreeMap;
use std::time::Instant;

use fsm_dfsm::{Dfsm, ReachableProduct};
use fsm_fusion_core::{
    is_closed, projection_partitions, CacheStats, FaultGraph, FusionConfig, FusionGeneration,
    Partition, TopDelta, UpdateStats,
};
use fsm_machines::{mod_counter, table1_rows};

use crate::calib::{normalise, Calibrator, NOMINAL_CHUNK_NS};
use crate::heap;
use crate::report::{E2e, WorkloadResult};
use crate::stats::{mean_u64, median_f64, percentile, process_cpu_s, slice_median, Outcome};
use crate::trace::{self, Tracer};

/// Set-ups per run; `setup_s` is the median of their calibrated times.
/// Fusion set-up takes well under a millisecond, so many samples keep its
/// median steady.
const SETUPS: usize = 21;

/// Calibration chunks before and after each cold input (their median
/// filters out a chunk hit by an interrupt; inputs run for milliseconds to
/// a second, so the chunks cost nothing in comparison).
const COLD_CHUNKS: usize = 5;

/// Upper bound on operations per second (evolve cycles take ~7 ms), for
/// sizing the benchmark's records up front.
const MAX_OPS_PER_S: usize = 1000;

/// Fault budget of the evolving session's generations.
const EVOLVE_F: usize = 2;

/// `count` mod-`modulus` counters over disjoint events: the reachable
/// product has `modulus^count` states.
fn counter_family(count: usize, modulus: usize) -> Vec<Dfsm> {
    let alphabet: Vec<String> = (0..count).map(|i| format!("e{i}")).collect();
    let refs: Vec<&str> = alphabet.iter().map(String::as_str).collect();
    (0..count)
        .map(|i| mod_counter(&format!("C{i}"), modulus, &format!("e{i}"), &refs))
        .collect()
}

/// One machine set with its fault budget.
struct Input {
    label: String,
    machines: Vec<Dfsm>,
    f: usize,
}

/// The paper's five Table 1 sets at their `f`, plus the 3⁸ counter family
/// at `f = 1` (|⊤| = 6561).
fn cold_inputs() -> Vec<Input> {
    table1_rows()
        .into_iter()
        .map(|row| Input {
            label: row.label,
            machines: row.machines,
            f: row.f,
        })
        .chain(std::iter::once(Input {
            label: "3^8 counters".into(),
            machines: counter_family(8, 3),
            f: 1,
        }))
        .collect()
}

/// `F` is a valid fusion of `originals` over `top` for `f` crash faults:
/// every backup is a closed partition and `dmin(originals ∪ F) > f`.
fn verify(top: &Dfsm, originals: &[Partition], backups: &[Partition], f: usize) -> bool {
    if !backups.iter().all(|p| is_closed(top, p)) {
        return false;
    }
    let all: Vec<Partition> = originals.iter().chain(backups).cloned().collect();
    FaultGraph::from_partitions(top.size(), &all).dmin() as usize > f
}

fn backup_states(g: &FusionGeneration) -> usize {
    g.machine_sizes().iter().sum()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of millisecond samples.
fn pct_ms(samples: &[f64], p: f64) -> f64 {
    let mut ns: Vec<u64> = samples.iter().map(|&m| (m * 1e6) as u64).collect();
    percentile(&mut ns, p).map_or(0.0, |x| x.value as f64 / 1e6)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn add_cache(layers: &mut BTreeMap<&'static str, f64>, c: CacheStats, per: f64) {
    let consulted = (c.hits + c.misses).max(1) as f64;
    layers.extend([
        ("cache.hits", c.hits as f64 / per),
        ("cache.misses", c.misses as f64 / per),
        ("cache.hit_ratio", c.hits as f64 / consulted),
        ("cache.remapped", c.remapped as f64 / per),
        ("cache.evicted", c.evicted as f64 / per),
        ("cache.graph_hits", c.graph_hits as f64 / per),
    ]);
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        remapped: after.remapped - before.remapped,
        evicted: after.evicted - before.evicted,
        graph_hits: after.graph_hits - before.graph_hits,
        ..CacheStats::default()
    }
}

fn cache_sum(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        remapped: a.remapped + b.remapped,
        evicted: a.evicted + b.evicted,
        graph_hits: a.graph_hits + b.graph_hits,
        ..CacheStats::default()
    }
}

fn self_ms(layers: &mut BTreeMap<&'static str, f64>, spans: &[trace::Span]) {
    let times = trace::self_times(spans);
    let own = |name: &str| times.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
    layers.extend([
        ("self_ms.product.build", own("product.build")),
        ("self_ms.alg2.generate", own("alg2.generate")),
        ("self_ms.delta.update", own("delta.update")),
    ]);
}

fn chunk_median(chunks: &[u64]) -> f64 {
    let c: Vec<f64> = chunks.iter().map(|&c| c as f64).collect();
    median_f64(&c).unwrap_or(NOMINAL_CHUNK_NS)
}

/// What the first pass over one cold input produced, kept to verify after
/// the window and to compare every later pass against.
struct FirstOutput {
    product: ReachableProduct,
    originals: Vec<Partition>,
    backups: Vec<Partition>,
}

/// `fusion_cold`: passes over every input, each with a fresh session,
/// until `seconds` have elapsed (at least two passes).
pub fn cold(seconds: u64, traced: bool) -> WorkloadResult {
    let cal = Calibrator::new();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let secs;
        (inputs, secs) = cal.timed(cold_inputs);
        setup_times.push(secs);
    }
    let k = inputs.len();
    let mut tracer = Tracer::new(traced);
    let mut outcome = Outcome::default();
    let mut lines = Vec::new();
    // The benchmark's own records are sized before the heap window opens,
    // so their growth does not count as the library's.
    let cap = seconds as usize * MAX_OPS_PER_S;
    let mut totals: Vec<Vec<f64>> = vec![Vec::with_capacity(cap); k];
    let mut builds: Vec<Vec<f64>> = vec![Vec::with_capacity(cap); k];
    let mut gens: Vec<Vec<f64>> = vec![Vec::with_capacity(cap); k];
    let mut first: Vec<Option<FirstOutput>> = (0..k).map(|_| None).collect();
    let mut mismatched = vec![0u64; k];
    let mut cache = CacheStats::default();
    let mut steps = [0usize; 3];
    let mut passes = 0usize;
    let mut chunks = Vec::with_capacity(cap * k + 1);
    let mut cpu_us = 0.0;

    heap::reset_peak();
    let heap_base = heap::live();
    let start = Instant::now();
    chunks.push(cal.sample(COLD_CHUNKS));
    while passes < 2 || start.elapsed().as_secs() < seconds {
        for (i, input) in inputs.iter().enumerate() {
            let span = tracer.open("fusion.input", i as u64);
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let mut session = FusionConfig::new().build();
            let product = tracer.scope("product.build", i as u64, || {
                session.build_product(&input.machines)
            });
            let t1 = Instant::now();
            let result = product.map(|product| {
                let originals = tracer.scope("partition.project", i as u64, || {
                    projection_partitions(&product)
                });
                let gen = tracer.scope("alg2.generate", i as u64, || {
                    session.generate_fusion(product.top(), &originals, input.f)
                });
                (product, originals, gen)
            });
            let t2 = Instant::now();
            let cpu = process_cpu_s() - cpu0;
            tracer.close(span);
            chunks.push(cal.sample(COLD_CHUNKS));
            let norm = |raw| normalise(raw, chunks[chunks.len() - 2], chunks[chunks.len() - 1]);
            totals[i].push(norm(ms(t2 - t0)));
            builds[i].push(norm(ms(t1 - t0)));
            gens[i].push(norm(ms(t2 - t1)));
            cpu_us += norm(cpu * 1e6);
            match result {
                Ok((product, originals, Ok(gen))) => {
                    if passes == 0 {
                        cache = cache_sum(cache, session.cache_stats());
                        steps[0] += gen.stats.descent_steps;
                        steps[1] += gen.stats.candidates_examined;
                        steps[2] += gen.stats.outer_iterations;
                    }
                    match &first[i] {
                        None => {
                            first[i] = Some(FirstOutput {
                                product,
                                originals,
                                backups: gen.partitions,
                            })
                        }
                        Some(out) if out.backups != gen.partitions => mismatched[i] += 1,
                        Some(_) => {}
                    }
                }
                Ok((_, _, Err(e))) => {
                    lines.push(format!("{}: generation failed: {e}", input.label));
                    mismatched[i] += 1;
                }
                Err(e) => {
                    lines.push(format!("{}: product failed: {e}", input.label));
                    mismatched[i] += 1;
                }
            }
        }
        passes += 1;
    }
    let window_ns = start.elapsed().as_nanos() as u64;
    let heap_growth = heap::peak().saturating_sub(heap_base);

    let mut states = 0usize;
    let mut top_states = 0usize;
    let mut graph_ms = 0.0;
    let mut edges = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        let ok = first[i]
            .as_ref()
            .is_some_and(|out| verify(out.product.top(), &out.originals, &out.backups, input.f));
        if ok {
            outcome.add(passes as u64, mismatched[i]);
        } else {
            lines.push(format!(
                "{}: fusion output failed verification",
                input.label
            ));
            outcome.add(passes as u64, passes as u64);
        }
        if let Some(out) = &first[i] {
            states += out.backups.iter().map(Partition::num_blocks).sum::<usize>();
            top_states += out.product.size();
            if traced {
                let span = tracer.open("fault_graph.build", i as u64);
                let t0 = Instant::now();
                let g = FaultGraph::from_partitions(out.product.size(), &out.originals);
                graph_ms += ms(t0.elapsed());
                tracer.close(span);
                edges += g.num_edges();
            }
        }
    }
    let sum_over = |v: &[Vec<f64>], f: &dyn Fn(&[f64]) -> f64| v.iter().map(|s| f(s)).sum::<f64>();
    let median = |s: &[f64]| median_f64(s).unwrap_or(0.0);
    let e2e = E2e {
        setup_s: median_f64(&setup_times).unwrap_or(0.0),
        p50_ms: sum_over(&totals, &median),
        p90_ms: sum_over(&totals, &|s| pct_ms(s, 90.0)),
        mean_ms: sum_over(&totals, &mean),
        cpu_us_per_op: cpu_us / passes as f64,
        peak_heap_mb: heap_growth as f64 / (1u64 << 20) as f64,
        backup_states: states as f64,
    };
    for (i, input) in inputs.iter().enumerate() {
        lines.push(format!(
            "input {i} ({}; f={}): median {:.3} ms over {} passes (product {:.3} ms, alg2 {:.3} ms)",
            input.label,
            input.f,
            median(&totals[i]),
            totals[i].len(),
            median(&builds[i]),
            median(&gens[i]),
        ));
    }
    lines.push(format!(
        "calibration chunk median {:.0} ns (nominal {NOMINAL_CHUNK_NS}); times above are at the nominal speed",
        chunk_median(&chunks)
    ));
    lines.push(format!(
        "ingest_p50_ms=n/a ingest_p90_ms=n/a ingest_cpu_us_per_event=n/a failover_gap_ms=n/a \
         fusion_ms={:.3} fusion_backup_states={} peak_heap_mb={:.3} failed_frac={} setup_s={:.6}",
        e2e.p50_ms,
        states,
        e2e.peak_heap_mb,
        outcome.failed_frac(),
        e2e.setup_s
    ));

    let mut layers = BTreeMap::new();
    if traced {
        layers.extend([
            ("product.build_ms", sum_over(&builds, &median)),
            ("product.states", top_states as f64),
            ("fault_graph.build_ms", graph_ms),
            ("fault_graph.edges", edges as f64),
            ("alg2.generate_ms", sum_over(&gens, &median)),
            ("alg2.descent_steps", steps[0] as f64),
            ("alg2.candidates_examined", steps[1] as f64),
            ("alg2.outer_iterations", steps[2] as f64),
        ]);
        add_cache(&mut layers, cache, 1.0);
        self_ms(&mut layers, tracer.spans());
    }
    WorkloadResult {
        outcome,
        e2e,
        layers,
        spans: tracer.take_spans(),
        window_ns,
        lines,
    }
}

/// One evolve cycle's results: its two generations and deltas.
struct Cycle {
    added: fsm_fusion_core::Result<FusionGeneration>,
    removed: fsm_fusion_core::Result<FusionGeneration>,
    updates: [fsm_fusion_core::Result<UpdateStats>; 2],
    update_ms: [f64; 2],
    generate_ms: [f64; 2],
}

fn evolve_cycle(
    session: &mut fsm_fusion_core::FusionSession,
    replica: &Dfsm,
    index: usize,
    tracer: &mut Tracer,
    c: u64,
) -> Cycle {
    let t0 = Instant::now();
    let up = tracer.scope("delta.update", c, || {
        session.update_top(TopDelta::AddMachine(replica.clone()))
    });
    let t1 = Instant::now();
    let added = tracer.scope("alg2.generate", c, || session.generate_top_fusion(EVOLVE_F));
    let t2 = Instant::now();
    let down = tracer.scope("delta.update", c, || {
        session.update_top(TopDelta::RemoveMachine(index))
    });
    let t3 = Instant::now();
    let removed = tracer.scope("alg2.generate", c, || session.generate_top_fusion(EVOLVE_F));
    let t4 = Instant::now();
    Cycle {
        added,
        removed,
        updates: [up, down],
        update_ms: [ms(t1 - t0), ms(t3 - t2)],
        generate_ms: [ms(t2 - t1), ms(t4 - t3)],
    }
}

/// `fusion_evolve`: one warm session on six mod-3 counters, cycling
/// add-a-replica / generate / remove-it / generate.
pub fn evolve(seconds: u64, traced: bool) -> WorkloadResult {
    let cal = Calibrator::new();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let (s, secs) = cal.timed(|| {
            let family = counter_family(6, 3);
            let mut session = FusionConfig::new().build();
            let installed = session.install_top(&family);
            (family, session, installed)
        });
        setup_times.push(secs);
        setup = Some(s);
    }
    let (family, mut session, installed) = setup.expect("SETUPS > 0");
    let mut outcome = Outcome::default();
    let mut lines = Vec::new();
    if let Err(e) = installed {
        lines.push(format!("install_top failed: {e}"));
        outcome.add(1, 1);
        return WorkloadResult::failed(outcome, lines);
    }
    let mut tracer = Tracer::new(traced);
    let replica = family[0].clone();
    let index = family.len();

    // Cycle 0 warms the session (its first add builds the fault graph
    // cold) and yields the reference outputs, verified here, before the
    // clock starts.
    let warm = evolve_cycle(&mut session, &replica, index, &mut tracer, 0);
    let reference = match (&warm.added, &warm.removed) {
        (Ok(a), Ok(r)) => Some((
            a.partitions.clone(),
            r.partitions.clone(),
            backup_states(a) + backup_states(r),
        )),
        _ => None,
    };
    let verified = reference
        .as_ref()
        .is_some_and(|(added, removed, _)| verify_evolve(&family, &replica, added, removed));
    if !verified {
        lines.push("fusion_evolve: the warm-up cycle's outputs failed verification".into());
    }
    let top_states = session.top_product().map_or(0, ReachableProduct::size);

    // Sized before the heap window opens (see `cold`).
    let cap = seconds as usize * MAX_OPS_PER_S;
    let mut cycle_ms = Vec::with_capacity(cap);
    let mut update_ms = Vec::with_capacity(2 * cap);
    let mut generate_ms = Vec::with_capacity(2 * cap);
    let mut chunks = Vec::with_capacity(cap + 1);
    let mut raw_ms = Vec::with_capacity(cap);
    let mut failed = 0u64;
    let mut delta = [0u64; 4];
    let mut update_errors = 0u64;
    let cache0 = session.cache_stats();

    heap::reset_peak();
    let heap_base = heap::live();
    let start = Instant::now();
    let mut c = 1u64;
    chunks.push(cal.chunk_ns());
    let mut cpu_us = 0.0;
    while cycle_ms.len() < 2 || start.elapsed().as_secs() < seconds {
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let cycle = evolve_cycle(&mut session, &replica, index, &mut tracer, c);
        let dt = ms(t0.elapsed());
        let cpu = process_cpu_s() - cpu0;
        chunks.push(cal.chunk_ns());
        let norm = |raw: f64| normalise(raw, chunks[chunks.len() - 2], chunks[chunks.len() - 1]);
        raw_ms.push(dt);
        cycle_ms.push(norm(dt));
        cpu_us += norm(cpu * 1e6);
        update_ms.extend(cycle.update_ms.map(norm));
        generate_ms.extend(cycle.generate_ms.map(norm));
        let same = match (&cycle.added, &cycle.removed, &reference) {
            (Ok(a), Ok(r), Some((ra, rr, _))) => {
                verified && a.partitions == *ra && r.partitions == *rr
            }
            _ => false,
        };
        failed += u64::from(!same);
        for u in cycle.updates.iter() {
            match u {
                Ok(u) => {
                    delta[0] += u.closures_remapped;
                    delta[1] += u.product_states_reexpanded as u64;
                    delta[2] += u.graph_stripes_touched as u64;
                    delta[3] += u64::from(u.graph_rebuilt);
                }
                Err(e) => {
                    if update_errors == 0 {
                        lines.push(format!("update_top failed: {e}"));
                    }
                    update_errors += 1;
                }
            }
        }
        c += 1;
    }
    let window_ns = start.elapsed().as_nanos() as u64;
    let heap_growth = heap::peak().saturating_sub(heap_base);
    let cycles = cycle_ms.len();
    outcome.add(cycles as u64, failed);
    if update_errors > 0 {
        lines.push(format!("{update_errors} update_top calls failed"));
    }

    let states = reference.as_ref().map_or(0, |r| r.2);
    // Medians over slices of about a second of cycles each.
    let slice = cycles.div_ceil(seconds as usize).max(1);
    let mut cycle_ns: Vec<u64> = cycle_ms.iter().map(|&m| (m * 1e6) as u64).collect();
    let mut slice_ms =
        |stat: &dyn Fn(&mut [u64]) -> f64| slice_median(&mut cycle_ns, slice, stat) / 1e6;
    let pct = |p: f64| move |s: &mut [u64]| percentile(s, p).map_or(0.0, |x| x.value as f64);
    let e2e = E2e {
        setup_s: median_f64(&setup_times).unwrap_or(0.0),
        p50_ms: slice_ms(&pct(50.0)),
        p90_ms: slice_ms(&pct(90.0)),
        mean_ms: slice_ms(&|s: &mut [u64]| mean_u64(s)),
        cpu_us_per_op: cpu_us / cycles as f64,
        peak_heap_mb: heap_growth as f64 / (1u64 << 20) as f64,
        backup_states: states as f64,
    };
    lines.push(format!(
        "raw cycle median {:.4} ms; calibration chunk median {:.0} ns (nominal {NOMINAL_CHUNK_NS})",
        median_f64(&raw_ms).unwrap_or(0.0),
        chunk_median(&chunks)
    ));
    lines.push(format!(
        "ingest_p50_ms=n/a ingest_p90_ms=n/a ingest_cpu_us_per_event=n/a failover_gap_ms=n/a \
         fusion_ms={:.4} (median of {cycles} cycles) fusion_backup_states={states} \
         peak_heap_mb={:.3} failed_frac={} setup_s={:.6}",
        e2e.p50_ms,
        e2e.peak_heap_mb,
        outcome.failed_frac(),
        e2e.setup_s
    ));

    let mut layers = BTreeMap::new();
    if traced {
        let per = cycles as f64;
        let span = tracer.open("fault_graph.build", 0);
        let t0 = Instant::now();
        let (graph_ms, edges) = match session.top_product() {
            Some(p) => {
                let g = FaultGraph::from_partitions(p.size(), &projection_partitions(p));
                (ms(t0.elapsed()), g.num_edges())
            }
            None => (0.0, 0),
        };
        tracer.close(span);
        layers.extend([
            ("product.states", top_states as f64),
            ("fault_graph.build_ms", graph_ms),
            ("fault_graph.edges", edges as f64),
            ("alg2.generate_ms", median_f64(&generate_ms).unwrap_or(0.0)),
            ("delta.update_ms", median_f64(&update_ms).unwrap_or(0.0)),
            ("delta.closures_remapped", delta[0] as f64 / per),
            ("delta.states_reexpanded", delta[1] as f64 / per),
            ("delta.stripes_touched", delta[2] as f64 / per),
            ("delta.graph_rebuilt", delta[3] as f64 / per),
        ]);
        add_cache(&mut layers, cache_delta(session.cache_stats(), cache0), per);
        self_ms(&mut layers, tracer.spans());
    }
    WorkloadResult {
        outcome,
        e2e,
        layers,
        spans: tracer.take_spans(),
        window_ns,
        lines,
    }
}

/// Checks the warm-up cycle's two outputs against fresh products of the
/// grown and the original machine set (the session's numbering is pinned
/// equal to a cold build's).
fn verify_evolve(
    family: &[Dfsm],
    replica: &Dfsm,
    added: &[Partition],
    removed: &[Partition],
) -> bool {
    let session = FusionConfig::new().build();
    let mut grown = family.to_vec();
    grown.push(replica.clone());
    let valid = |machines: &[Dfsm], backups: &[Partition]| {
        session
            .build_product(machines)
            .is_ok_and(|p| verify(p.top(), &projection_partitions(&p), backups, EVOLVE_F))
    };
    valid(&grown, added) && valid(family, removed)
}
