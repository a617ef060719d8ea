//! `widx_probe` and `graphpulse_rw`: one op is one `run_xcache` call on
//! one of a seeded pool of inputs, in a closed loop on one thread.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use xcache_core::XCache;
use xcache_dsa::{graphpulse, widx, RunReport};
use xcache_mem::{DramConfig, DramModel};

use crate::report::{set_up_window, Report, Spread};
use crate::sim::{
    drive_widx, guarded, replica_matches, widx_instance, Fingerprint, Input, LayerTimes, TimedPort,
};
use crate::stats::median;
use crate::trace::Trace;

/// Inputs per run. Each is run once as warm-up, which also records the
/// fingerprint every later run of it must repeat.
const INPUTS: u64 = 8;

/// `ops_per_s` comes from the mean of this many fastest untraced ops.
/// An op is single-threaded and CPU-bound, and the same input takes up
/// to twice as long while neighbours load the host, so the fastest ops
/// are the program's own cost and the mean is mostly the host's.
const BEST_OF: usize = 5;

/// One set-up: generate the input pool and build one `XCache` per input.
fn set_up(workload: &str, seed: u64, gen_ms: &mut Vec<f64>) -> Vec<Input> {
    (0..INPUTS)
        .map(|k| {
            let t = Instant::now();
            let input = Input::generate(workload, seed, k);
            gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            build(&input);
            input
        })
        .collect()
}

/// `XCache::new` (walker verification and predecode) for `input`, as
/// each op does it.
fn build(input: &Input) {
    let dram = DramModel::new(DramConfig::default());
    let geometry = input.geometry();
    match input {
        Input::Widx(w) => XCache::new(widx_instance(w, &geometry).0, widx::walker(), dram),
        Input::GraphPulse(_) => XCache::new(geometry, graphpulse::walker(), dram),
    }
    .expect("valid instance");
}

fn sum_stat(refs: &[RunReport], names: &[&str]) -> f64 {
    refs.iter()
        .map(|r| names.iter().map(|n| r.stats.get(n)).sum::<u64>() as f64)
        .sum()
}

fn ratio(refs: &[RunReport], hits: &str, misses: &str) -> f64 {
    let h = sum_stat(refs, &[hits]);
    h / (h + sum_stat(refs, &[misses])).max(1.0)
}

/// Runs the workload for `seconds` of timed ops. With `traced`, ops
/// alternate between untraced and traced; on `widx_probe` a traced op
/// runs the timed replica of the drive loop instead of `run_xcache`.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, trace: &mut Trace) -> Report {
    let mut r = Report {
        best_of: Some(BEST_OF),
        ..Report::default()
    };
    let mut gen_ms = Vec::new();
    let set_up_once = |gen_ms: &mut Vec<f64>| Ok::<_, Infallible>(set_up(workload, seed, gen_ms));
    let Ok(inputs) = set_up_window(&mut r.setup_s, || set_up_once(&mut gen_ms), drop);
    let geometries: Vec<_> = inputs.iter().map(Input::geometry).collect();

    // Warm-up: the first passing run of each input is its reference.
    let mut refs: Vec<Option<RunReport>> = inputs
        .iter()
        .zip(&geometries)
        .enumerate()
        .map(|(k, (input, g))| {
            let out = input.run(g).map_err(|e| format!("input {k}: {e}"));
            r.check(out.as_ref().map(drop).map_err(Clone::clone));
            out.ok()
        })
        .collect();

    let mut cycles = 0u64;
    // Per traced op: host ms of build, tick, next_event and DRAM calls.
    let mut layer_ms: [Vec<f64>; 4] = Default::default();
    // Per input: tick, next_event and DRAM call counts (exact).
    let mut calls: Vec<Option<[u64; 3]>> = vec![None; inputs.len()];
    let widx_replica = traced && matches!(inputs[0], Input::Widx(_));
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut spread = Spread::new(budget);
    let mut i = 0u64;
    while start.elapsed() < budget {
        if spread.due() {
            let Ok(_) = set_up_window(&mut r.setup_s, || set_up_once(&mut gen_ms), drop);
        }
        let k = (i % INPUTS) as usize;
        let traced_op = traced && i % 2 == 1;
        let replica_op = traced_op && widx_replica;
        let mut times = LayerTimes::default();
        let t0 = Instant::now();
        let out = match &inputs[k] {
            Input::Widx(w) if replica_op => {
                guarded(|| drive_widx::<TimedPort<DramModel>>(w, &geometries[k], &mut times))
                    .and_then(|x| x)
            }
            input => input.run(&geometries[k]),
        };
        let dur = t0.elapsed();
        let checked = out.and_then(|report| match &refs[k] {
            Some(first) if replica_op => replica_matches(&report, first),
            Some(first) if Fingerprint::of(&report) != Fingerprint::of(first) => Err(format!(
                "input {k}: {:?} differs from its first run {:?}",
                Fingerprint::of(&report),
                Fingerprint::of(first)
            )),
            None if replica_op => Err(format!("input {k}: no run_xcache reference")),
            _ => {
                if !traced_op {
                    cycles += report.cycles;
                }
                refs[k].get_or_insert(report);
                Ok(())
            }
        });
        if r.check(checked) {
            let ms = dur.as_secs_f64() * 1e3;
            if traced_op {
                r.traced_op_ms.push(ms);
                trace.span("dsa.op", i, None, t0, dur);
            } else {
                r.op_ms.push(ms);
                r.timed_s += dur.as_secs_f64();
            }
            if replica_op {
                let clocks = [&times.build, &times.tick, &times.next_event];
                for (j, (name, clock)) in ["core.build", "core.tick", "core.next_event"]
                    .into_iter()
                    .zip(clocks)
                    .enumerate()
                {
                    trace.layer(name, i, Some("dsa.op"), t0, clock.ns(), clock.calls());
                    layer_ms[j].push(clock.ns() as f64 / 1e6);
                }
                // DRAM calls run inside tick and next_event.
                trace.layer(
                    "mem.dram",
                    i,
                    Some("core"),
                    t0,
                    times.dram_ns,
                    times.dram_calls,
                );
                layer_ms[3].push(times.dram_ns as f64 / 1e6);
                calls[k] = Some([
                    times.tick.calls(),
                    times.next_event.calls(),
                    times.dram_calls,
                ]);
            }
        }
        i += 1;
    }
    let Ok(_) = set_up_window(&mut r.setup_s, || set_up_once(&mut gen_ms), drop);
    r.peak_rss_mb = crate::peak_rss_mb();

    let pool: Vec<RunReport> = refs.iter().flatten().cloned().collect();
    let n = pool.len().max(1) as f64;
    let sim_cycles = pool.iter().map(|x| x.cycles as f64).sum::<f64>() / n;
    if r.timed_s > 0.0 {
        r.note(
            "sim_mcycles_per_s",
            cycles as f64 / r.timed_s / 1e6,
            "Mcycles/s",
            format!(
                "n={} (simulated Mcycles per host second of untraced ops)",
                r.op_ms.len()
            ),
        );
    }
    for (k, x) in refs.iter().enumerate() {
        let Some(x) = x else { continue };
        let f = Fingerprint::of(x);
        r.digests.push(format!(
            "input={k} sim_cycles={} checksum={:#x} stats={:#018x} dram_requests={}",
            f.cycles,
            f.checksum,
            f.stats_digest,
            x.stats.get("dram.requests")
        ));
    }

    // Exact per-op counts, averaged over the input pool.
    let per_op = |names: &[&str]| sum_stat(&pool, names) / n;
    let l = &mut r.layers;
    l.insert("dsa.sim_cycles".into(), sim_cycles);
    l.insert("core.tag_reads".into(), per_op(&["xcache.tag_read"]));
    l.insert(
        "core.meta_hit_ratio".into(),
        ratio(&pool, "xcache.hit", "xcache.miss"),
    );
    l.insert(
        "core.store_hit_ratio".into(),
        ratio(&pool, "xcache.store_hit", "xcache.store_miss"),
    );
    l.insert("core.actions".into(), per_op(&["xcache.ucode_read"]));
    l.insert(
        "core.walker_launches".into(),
        per_op(&["xcache.walker_launch"]),
    );
    l.insert("core.wakeups".into(), per_op(&["xcache.wakeup"]));
    l.insert("core.waiters".into(), per_op(&["xcache.waiter"]));
    l.insert("core.hash_issues".into(), per_op(&["xcache.hash_issue"]));
    l.insert(
        "core.data_writes".into(),
        per_op(&["xcache.data_write_word", "xcache.data_write_sector"]),
    );
    l.insert(
        "core.launch_stall_cycles".into(),
        per_op(&["xcache.launch_stall"]),
    );
    l.insert(
        "core.exec_stall_cycles".into(),
        per_op(&["xcache.exec_stall"]),
    );
    l.insert("mem.dram_requests".into(), per_op(&["dram.requests"]));
    let row_hits = sum_stat(&pool, &["dram.row_hit"]);
    let row_all = sum_stat(
        &pool,
        &["dram.row_hit", "dram.row_miss", "dram.row_conflict"],
    );
    l.insert("mem.row_hit_ratio".into(), row_hits / row_all.max(1.0));
    l.insert(
        "mem.bank_queue_stall".into(),
        per_op(&["dram.bank_queue_stall"]),
    );
    r.layer_median("workloads.gen_ms", &gen_ms);
    if traced {
        if let (Some(a), Some(b)) = (median(&r.traced_op_ms), median(&r.op_ms)) {
            r.layers.insert("trace.overhead_ms".into(), a - b);
        }
    }
    if widx_replica {
        for (name, samples) in [
            "core.build_ms",
            "core.tick_ms",
            "core.next_event_ms",
            "mem.dram_ms",
        ]
        .iter()
        .zip(&layer_ms)
        {
            r.layer_median(name, samples);
        }
        r.layer_median("dsa.self_ms", &trace.self_ms("dsa.op"));
        // Exact call counts, averaged over the inputs a traced op ran.
        let seen: Vec<(u64, [u64; 3])> = refs
            .iter()
            .zip(&calls)
            .filter_map(|(x, c)| Some((x.as_ref()?.cycles, (*c)?)))
            .collect();
        if !seen.is_empty() {
            let total = |f: fn(&(u64, [u64; 3])) -> u64| seen.iter().map(f).sum::<u64>() as f64;
            let m = seen.len() as f64;
            let ticks = total(|s| s.1[0]);
            r.layers.insert("core.tick_calls".into(), ticks / m);
            r.layers
                .insert("core.next_event_calls".into(), total(|s| s.1[1]) / m);
            r.layers
                .insert("mem.dram_calls".into(), total(|s| s.1[2]) / m);
            r.layers.insert(
                "sim.cycles_per_tick".into(),
                total(|s| s.0) / ticks.max(1.0),
            );
        }
    }
    r
}
